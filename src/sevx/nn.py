"""Neural layers for the ResNet topology: 2-D convolution, batch norm, linear
layers, and ``stats_pool``, the one pooling op of the SE squeeze and the temporal pooling.

Feature maps are (batch, channels, freq, time). All 3x3 convolutions use
padding 1 so stride-1 layers preserve spatial dims and stride-2 layers halve
them with floor division, which is what keeps the
full-scale stack's per-stage output sizes on their intended grid.

Convolution works on a channel-major, zero-padded copy of its input split
into stride phases, where each kernel tap is a contiguous column window of one
phase. One block walk, ``_tap_stacks``, stacks those windows per column block
for one GEMM each (operands in cache, as in Goto and van de Geijn, ACM TOMS
2008). Backward splits the transposed convolution (Dumoulin and Visin, arXiv
1603.07285) by input stride phase, as the sub-pixel convolution of Shi et al.
(arXiv 1609.05158) does: each phase is a stride-1 correlation of the output
gradient with the taps that reach it, so no product is with a dilation zero,
and one stack of the gradient's windows per block feeds both dX and dW. None
holds a kernel-squared column matrix of the whole input (the low-memory GEMM
family of Anderson et al., arXiv 1709.03395).
Train-mode batch norm runs in place (compare Rota Bulo et al., arXiv
1712.02616). The tape keeps no copy of the input:
backward rebuilds the phase buffer from the conv's parent, as batch norm
rebuilds ``xhat`` (recompute for memory, Chen et al., arXiv 1604.06174).

The grad-free forward is batch invariant: per-item conv blocks, and the
off-tape ``Linear`` one product per row, give each batch row the bytes of its
input's forward alone (He et al., "Defeating Nondeterminism in LLM Inference",
Thinking Machines Lab, 2025). Every other eval op is elementwise or reduces
within one item.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import ShapeError, Tensor, cat, recorded

STATS_EPS = 1e-8
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
# columns per block of a conv's tap stack, forward and backward, restarting at each batch item
BLOCK_COLUMNS = 2048
POOLINGS = ("max", "mean", "std", "mean_std")


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent, name-keyed random stream.

    Each layer draws from its own stream so that adding or removing SE units
    elsewhere in the network cannot shift the initialization of unrelated
    layers. This is what makes ablation cells share backbone weights.
    """
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(name.encode())]))


def uniform_fan_in(rng: np.random.Generator, fan_in: int, shape: tuple, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Linear:
    """Dense layer y = x W^T + b.

    On the tape the batch is one GEMM. Off it, each row is its own product
    with the same contiguous W^T: a BLAS picks other kernels for a many-row
    GEMM than for one row, so only then is every row the bytes it gives alone.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            uniform_fan_in(rng, in_features, (out_features, in_features), dtype),
            requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"linear expects input dim {self.in_features}, got {x.shape}")
        wt = self.weight.transpose()
        if recorded(x, self.weight, self.bias):
            y = x @ wt
        else:
            y = cat([Tensor(x.data[i:i + 1]) @ wt for i in range(x.shape[0])])
        return y + self.bias.reshape(1, self.out_features)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


def _phase_grid(x: np.ndarray, kernel, stride, padding, out_hw):
    """(x padded and split into the stride phases a kh x kw kernel reads, as
    (phase, c, b*Fg*Tg), zero past the padding, which may be negative; the
    phases; (Fg, Tg)). See ``Conv2d``."""
    b, c = x.shape[:2]
    (kh, kw), (sf, st), (pf, pt), (fo, to) = kernel, stride, padding, out_hw
    fg, tg = fo + (kh - 1) // sf, to + (kw - 1) // st
    phases = sorted({(i % sf, j % st) for i in range(kh) for j in range(kw)})
    grid = np.zeros((len(phases), c, b, fg, tg), dtype=x.dtype)
    xc = x.transpose(1, 0, 2, 3)
    for ph, (p, q) in zip(grid, phases):
        # the first cells that hold input
        u, v = max(0, -((p - pf) // sf)), max(0, -((q - pt) // st))
        cells = xc[:, :, p + sf * u - pf::sf, q + st * v - pt::st][:, :, :fg - u, :tg - v]
        ph[:, :, u:u + cells.shape[2], v:v + cells.shape[3]] = cells
    return grid.reshape(len(phases), c, b * fg * tg), phases, (fg, tg)


def _tap_stacks(flat, phases, kernel, stride, grid_hw, out_hw):
    """Yield (columns, stack) per block of a ``_phase_grid``: each batch item's
    columns, from its first grid cell to its last output, in blocks of
    BLOCK_COLUMNS of their own, and the (c*kh*kw, bc) stack of the block's tap
    windows, in one buffer the next block reuses. See ``Conv2d``."""
    c, item = flat.shape[1], flat.itemsize
    (kh, kw), (sf, st), (fg, tg), (fo, to) = kernel, stride, grid_hw, out_hw
    # phase (p, q)'s tap windows (p + sf*u, q + st*v) over every column, as one view
    views = []
    for (p, q), ph in zip(phases, flat):
        nu, nv = len(range(p, kh, sf)), len(range(q, kw, st))
        views.append(as_strided(ph, (c, nu, nv, ph.shape[1] - (nu - 1) * tg - nv + 1),
                                (ph.strides[0], tg * item, item, item)))
    n_item = (fo - 1) * tg + to
    block = np.empty(c * kh * kw * min(BLOCK_COLUMNS, n_item), dtype=flat.dtype)
    for start in range(0, flat.shape[2], fg * tg):
        for c0 in range(start, start + n_item, BLOCK_COLUMNS):
            bc = min(BLOCK_COLUMNS, start + n_item - c0)
            # the ragged last block too is contiguous, so a GEMM reads it as one run
            buf = block[:c * kh * kw * bc].reshape(c, kh, kw, bc)
            for (p, q), view in zip(phases, views):
                buf[:, p::sf, q::st] = view[..., c0:c0 + bc]
            yield slice(c0, c0 + bc), buf.reshape(c * kh * kw, bc)


def _correlate(x: np.ndarray, w: np.ndarray, stride, padding, out_hw) -> np.ndarray:
    """(b, cout, *out_hw) cross-correlation of x (b, cin, f, t) with w
    (cout, cin, kh, kw), one GEMM per block of a tap stack. See ``Conv2d``."""
    b, (cout, cin, kh, kw), (fo, to) = x.shape[0], w.shape, out_hw
    flat, phases, (fg, tg) = _phase_grid(x, (kh, kw), stride, padding, out_hw)
    w2 = w.reshape(cout, cin * kh * kw)
    y = np.empty((cout, b * fg * tg), dtype=x.dtype)
    for cols, stack in _tap_stacks(flat, phases, (kh, kw), stride, (fg, tg), out_hw):
        np.matmul(w2, stack, out=y[:, cols])
    del flat, stack         # stack, a view of the last block, would keep the buffer
    return np.ascontiguousarray(y.reshape(cout, b, fg, tg)[:, :, :fo, :to].transpose(1, 0, 2, 3))


class Conv2d:
    """3x3 (by default) cross-correlation over (freq, time) on a stride-phase buffer.

    ``_phase_grid`` splits the zero-padded input into its stride phases,
    channel-major: phase (p, q) holds padded rows p, p+sf, ... and columns q,
    q+st, ..., on a grid of Fg = fo + (k-1)//sf by Tg = to + (k-1)//st cells
    per batch item, zero past the padded input. Only phases some tap reads are
    built (one for stride 1, one for a 1x1 stride-2 conv). Flattened to
    (cin, b*Fg*Tg), tap (i, j) is a contiguous column window, at offset
    (i//sf)*Tg + j//st, of phase (i%sf, j%st); the n_out columns it spans
    cover every output on the (Fg, Tg) grid.

    Forward is ``_correlate`` with the weights. ``_tap_stacks`` walks each
    batch item's columns, from its first grid cell to its last output, in
    blocks of BLOCK_COLUMNS that restart at every item: one strided copy per
    phase, from one window view of it, fills a (cin, k, k, block) stack of the
    k*k windows, and one GEMM of the (cout, cin*k*k) weights writes the block's
    output columns, cropped from the (Fg, Tg) grid at the end. So an item's
    outputs come from the GEMMs, shapes and operands of its forward alone, bit
    for bit, whatever the batch.

    Backward runs once per x stride phase (r, q). Its taps are the rows i with
    d = (r + p - i) / sf whole, by ascending d, and likewise in time: a kh x kw
    sub-kernel (at stride 1 the kernel turned 180 degrees; 1x1, 1x2, 2x1 and
    2x2 at 3x3 stride 2; a 1x1 stride-2 conv reaches one phase, and the other
    three get dX 0). The output gradient goes onto a zero stride-1 grid of
    (f_r + kh - 1) x (t_q + kw - 1) cells per item, shifted by its smallest d,
    and the x phase onto the same grid at (0, 0). Per block of the gradient's
    (cout*kh*kw, block) tap stack S, one GEMM adds S @ x_block.T into dW, and
    one of the turned sub-kernel writes dX over the x columns dW has just read.
    Only the GEMMs a rule needs run: the stem needs no dX, a frozen weight no
    dW. At stride 1 dX is ``_correlate`` of the gradient padded by k-1-p with
    the turned kernel, bit for bit; so padding must lie in [0, k-1]. Backward
    rebuilds the x phases from the conv's parent, so the tape keeps no copy of
    the input. No bias: each model conv feeds a batch norm, whose beta shifts;
    ``bias`` is accepted only as False.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3,
                 stride: tuple[int, int] = (1, 1), padding: tuple[int, int] | None = None,
                 bias: bool = False, rng: np.random.Generator | None = None, dtype=np.float32):
        if bias:
            raise ValueError("Conv2d has no bias; the batch norm after it shifts")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = tuple(stride)
        self.padding = tuple(padding) if padding is not None else (kernel // 2, kernel // 2)
        if not all(0 <= p < kernel for p in self.padding):
            raise ValueError(f"Conv2d padding must lie in [0, {kernel - 1}], got {self.padding}")
        fan_in = in_channels * kernel * kernel
        self.weight = Tensor(
            uniform_fan_in(rng, fan_in, (out_channels, in_channels, kernel, kernel), dtype),
            requires_grad=True, dtype=dtype)
        self.bias = None

    def output_size(self, f: int, t: int) -> tuple[int, int]:
        """(freq, time) size of the output for an (f, t) input."""
        return tuple((n + 2 * p - self.kernel) // s + 1
                     for n, p, s in zip((f, t), self.padding, self.stride))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ShapeError(f"conv2d expects (b, c, f, t), got {x.shape}")
        b, cin, f, t = x.shape
        if cin != self.in_channels:
            raise ShapeError(
                f"conv2d expects {self.in_channels} input channels, got {cin}")
        k, cout, stride, pad = self.kernel, self.out_channels, self.stride, self.padding
        fo, to = self.output_size(f, t)
        if fo <= 0 or to <= 0:
            raise ShapeError(
                f"conv2d output would be empty for input {x.shape} with kernel {k}x{k}")

        weight = self.weight
        out = _correlate(x.data, weight.data, stride, pad, (fo, to))
        wdata, w_grad = weight.data, weight.requires_grad
        (sf, st), (pf, pt) = stride, pad

        def backward(g):
            dx = np.zeros_like(x.data) if x.requires_grad else None
            dw = np.zeros_like(wdata) if w_grad else None
            for r, q in np.ndindex(sf, st):
                # the taps that reach x phase (r, q), by ascending g offset: a turned sub-kernel
                i0, j0 = (r + pf) % sf, (q + pt) % st
                ws = wdata[:, :, i0::sf, j0::st][:, :, ::-1, ::-1]
                kh, kw = ws.shape[2:]
                fr, tq = len(range(r, f, sf)), len(range(q, t, st))
                if not (kh and kw and fr and tq):
                    continue            # no tap reads the phase: its dX stays 0
                # g on a stride-1 grid from its smallest offset: padded, or cropped if negative
                pad_g = (kh - 1 - (r + pf - i0) // sf, kw - 1 - (q + pt - j0) // st)
                grid, phases, (fg, tg) = _phase_grid(g, (kh, kw), (1, 1), pad_g, (fr, tq))
                xs = (np.zeros if w_grad else np.empty)((cin, b, fg, tg), dtype=g.dtype)
                if w_grad:
                    xs[:, :, :fr, :tq] = x.data[:, :, r::sf, q::st].transpose(1, 0, 2, 3)
                cols = xs.reshape(cin, b * fg * tg)
                wt = np.ascontiguousarray(ws.transpose(1, 0, 2, 3)).reshape(cin, cout * kh * kw)
                dws = np.zeros((cout * kh * kw, cin), dtype=g.dtype)
                for c, stack in _tap_stacks(grid, phases, (kh, kw), (1, 1), (fg, tg), (fr, tq)):
                    if w_grad:
                        dws += np.matmul(stack, cols[:, c].T)
                    if dx is not None:      # over the x columns dW has just read
                        np.matmul(wt, stack, out=cols[:, c])
                if w_grad:
                    dw[:, :, i0::sf, j0::st][:, :, ::-1, ::-1] = (
                        dws.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))
                if dx is not None:
                    dx[:, :, r::sf, q::st] = xs[:, :, :fr, :tq].transpose(1, 0, 2, 3)
                del grid, xs, cols, stack
            return dx, dw

        return Tensor._from_op(out, (x, weight), backward)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.weight", self.weight


class BatchNorm2d:
    """Per-channel batch normalization over (batch, freq, time), ``gamma * xhat + beta``.

    Train mode normalizes with batch statistics (population variance) and
    updates the running estimates; eval mode normalizes with the running
    estimates, ``xhat = (x - running_mean) / sqrt(running_var + BN_EPS)``, which
    start at mean 0 / var 1 so eval works before any training step. Eval applies
    that as one per-channel ``x * scale + shift``, recomputed on every call. The
    running estimates move by BN_MOMENTUM per training batch. The tape keeps
    no ``xhat``: backward rebuilds it from ``x`` (train mode: from the batch
    mean and inverse std, with the forward's expression). Train mode computes
    in place, one IEEE op at a time in the order of the out-of-place
    expressions, so each call allocates the output and one square in forward,
    and ``xhat`` (which becomes dx) and one product in backward.
    """

    def __init__(self, channels: int, dtype=np.float32):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"batchnorm expects (b, {self.channels}, f, t), got {x.shape}")
        c = self.channels
        gamma, beta = self.gamma, self.beta
        axes = (0, 2, 3)
        if train:
            n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
            mu = x.data.mean(axis=axes, keepdims=True)
            gamma_c = gamma.data.reshape(1, c, 1, 1)
            # out = gamma * ((x - mu) * inv_std) + beta, one op at a time in place
            out = x.data - mu
            var = np.square(out).mean(axis=axes, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            out *= inv_std
            out *= gamma_c
            out += beta.data.reshape(1, c, 1, 1)
            m = BN_MOMENTUM
            self.running_mean = ((1 - m) * self.running_mean
                                 + m * mu.reshape(c).astype(self.running_mean.dtype))
            self.running_var = ((1 - m) * self.running_var
                                + m * var.reshape(c).astype(self.running_var.dtype))

            def backward(g):
                # x is on the tape as the parent: rebuild xhat, bit for bit, then
                # dx = gamma * inv_std * (g - (dbeta + xhat * dgamma) / n) in place on it
                t = x.data - mu
                t *= inv_std
                dbeta = g.sum(axis=axes, keepdims=True)
                dgamma = (g * t).sum(axis=axes, keepdims=True)
                t *= dgamma
                t += dbeta
                t /= n
                np.subtract(g, t, out=t)
                t *= gamma_c * inv_std
                return (t, dgamma.reshape(c), dbeta.reshape(c))
        else:
            mu = self.running_mean.reshape(1, c, 1, 1).astype(x.dtype)
            rstd = np.sqrt(self.running_var.reshape(1, c, 1, 1) + BN_EPS).astype(x.dtype)
            scale = gamma.data.reshape(1, c, 1, 1) / rstd
            out = x.data * scale
            out += beta.data.reshape(1, c, 1, 1) - mu * scale

            def backward(g):
                # the running statistics are constants: recompute xhat from x
                dgamma = (g * ((x.data - mu) / rstd)).sum(axis=axes)
                return g * scale, dgamma, g.sum(axis=axes)

        return Tensor._from_op(out, (x, gamma, beta), backward)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta

    def named_buffers(self, prefix: str):
        yield f"{prefix}.running_mean", self.running_mean
        yield f"{prefix}.running_var", self.running_var


def population_std(x: Tensor, mu: Tensor, axes) -> Tensor:
    """Population std of x over ``axes``, epsilon inside the sqrt; ``mu`` is
    the mean of x over ``axes`` with those dims kept at size 1.

    The variance is one op over ``(x, mu)``, and the tape keeps neither a
    square nor ``x - mu``: the rule recomputes ``x - mu`` from its parents
    (recompute for memory, Chen et al., arXiv 1604.06174), so no op may write
    into x or mu after this one. It doubles ``(x - mu) * (g / count)``, the
    floats of a square and a mean whose backward sums that term twice, and
    hands mu its negation in x's shape, as a subtraction's rule would.
    """
    c = x.data - mu.data
    var = (c * c).mean(axis=axes)
    count = c.size // max(var.size, 1)

    def backward(g):
        t = x.data - mu.data
        t *= np.expand_dims(g, axes) / count
        t += t
        return t, -t

    return (Tensor._from_op(var, (x, mu), backward) + STATS_EPS) ** 0.5


def pooled_width(mode: str, n: int) -> int:
    """Width of the statistic ``stats_pool`` takes of ``n`` pooled cells."""
    return 2 * n if mode == "mean_std" else n


def stats_pool(x: Tensor, axes: tuple[int, ...], mode: str) -> Tensor:
    """One of POOLINGS of a (b, c, f, t) map over ``axes``, flattened to (b, n),
    or to (b, 2n) for mean_std, every mean before every std. Std is population
    std, epsilon inside the sqrt: one pooled position gives sqrt(STATS_EPS)."""
    if x.ndim != 4:
        raise ShapeError(f"stats_pool expects (b, c, f, t), got {x.shape}")
    if any(x.shape[a] < 1 for a in axes):
        raise ShapeError(f"stats_pool: empty pooled axes {axes} in {x.shape}")
    if mode not in POOLINGS:
        raise ValueError(f"pooling must be one of {POOLINGS}, got {mode!r}")
    b = x.shape[0]
    n = int(np.prod([x.shape[a] for a in range(1, 4) if a not in axes]))
    if mode == "max":
        return x.max(axis=axes).reshape(b, n)
    mu = x.mean(axis=axes, keepdims=True)
    if mode == "mean":
        return mu.reshape(b, n)
    std = population_std(x, mu, axes).reshape(b, n)
    if mode == "std":
        return std
    return cat([mu.reshape(b, n), std], axis=1)


def temporal_stats_pool(x: Tensor, mode: str = "mean") -> Tensor:
    """``stats_pool`` over time: (b, c*f), or (b, 2*c*f) for mean_std. Mean is the
    default; the full-scale flatten width (2048 = 8 * 256) has no room for a std half."""
    return stats_pool(x, (3,), mode)


def conv2d_reference(x: np.ndarray, weight: np.ndarray, stride: tuple[int, int], padding: tuple[int, int]) -> np.ndarray:
    """Direct six-nested-loop convolution, the oracle for Conv2d."""
    b, cin, f, t = x.shape
    cout, cin_w, kh, kw = weight.shape
    assert cin == cin_w
    sf, st = stride
    pf, pt = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pf, pf), (pt, pt)))
    fo = (f + 2 * pf - kh) // sf + 1
    to = (t + 2 * pt - kw) // st + 1
    out = np.zeros((b, cout, fo, to), dtype=np.float64)
    for n in range(b):
        for co in range(cout):
            for i in range(fo):
                for j in range(to):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, ci, i * sf + u, j * st + v] * weight[co, ci, u, v]
                    out[n, co, i, j] = acc
    return out.astype(x.dtype)
