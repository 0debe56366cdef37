"""Neural layers for the ResNet topology: 2-D convolution, batch norm, linear
layers, and ``stats_pool``, the one pooling op of the SE squeeze and the temporal pooling.

Feature maps are (batch, channels, freq, time). All 3x3 convolutions use
padding 1 so stride-1 layers preserve spatial dims and stride-2 layers halve
them with floor division, which is what keeps the
full-scale stack's per-stage output sizes on their intended grid.

Convolution works on a channel-major, zero-padded copy of its input split
into stride phases, where each kernel tap is a contiguous column window of one
phase. One routine, ``_correlate``, runs the forward and dX: one GEMM per
column block of a stack of those windows. dX is the transposed convolution as
a stride-1 correlation of the zero-dilated output gradient with the kernel
turned 180 degrees (Dumoulin and Visin, arXiv 1603.07285); at stride 2 three
quarters of its products are with zeros. dW is one GEMM per tap and column
block (operands in cache, as in Goto and van de Geijn, ACM TOMS 2008). None
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
# output columns per block of the conv forward's tap stack (per batch item) and of its dW
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


def _phase_grid(x: np.ndarray, k: int, stride, padding, out_hw):
    """(x padded and split into the stride phases a k x k kernel reads, as
    (phase, cin, b*Fg*Tg), zero past the padding; the phases; the taps as
    (i, j, phase, column offset) in (i, j) order; (Fg, Tg)). See ``Conv2d``."""
    b, cin = x.shape[:2]
    (sf, st), (pf, pt), (fo, to) = stride, padding, out_hw
    fg, tg = fo + (k - 1) // sf, to + (k - 1) // st
    phases = sorted({(i % sf, j % st) for i in range(k) for j in range(k)})
    taps = [(i, j, phases.index((i % sf, j % st)), (i // sf) * tg + j // st)
            for i in range(k) for j in range(k)]
    grid = np.zeros((len(phases), cin, b, fg, tg), dtype=x.dtype)
    xc = x.transpose(1, 0, 2, 3)
    for ph, (p, q) in zip(grid, phases):
        u, v = -((p - pf) // sf), -((q - pt) // st)     # the first cells that hold input
        cells = xc[:, :, p + sf * u - pf::sf, q + st * v - pt::st][:, :, :fg - u, :tg - v]
        ph[:, :, u:u + cells.shape[2], v:v + cells.shape[3]] = cells
    return grid.reshape(len(phases), cin, b * fg * tg), phases, taps, (fg, tg)


def _correlate(x: np.ndarray, w: np.ndarray, stride, padding, out_hw) -> np.ndarray:
    """(b, cout, *out_hw) cross-correlation of x (b, cin, f, t) with w
    (cout, cin, k, k), one GEMM per block of a tap stack. See ``Conv2d``."""
    b, cin = x.shape[:2]
    cout, k = w.shape[0], w.shape[2]
    (sf, st), (fo, to) = stride, out_hw
    flat, phases, _, (fg, tg) = _phase_grid(x, k, stride, padding, out_hw)
    # columns [c0, c0 + bc) of phase (p, q)'s tap windows (p + sf*u, q + st*v)
    # as one view: one copy per phase and block, then one GEMM per block
    item = flat.itemsize
    w2 = w.reshape(cout, cin * k * k)
    y = np.empty((cout, b * fg * tg), dtype=x.dtype)
    # each batch item's n_item columns, from its first grid cell, in blocks of
    # their own: an item's GEMMs are those of the item alone, whatever the batch
    n_item = fg * tg - (fg - fo) * tg - (tg - to)
    block = np.empty(cin * k * k * min(BLOCK_COLUMNS, n_item), dtype=x.dtype)
    for start in range(0, b * fg * tg, fg * tg):
        for c0 in range(start, start + n_item, BLOCK_COLUMNS):
            bc = min(BLOCK_COLUMNS, start + n_item - c0)
            # the ragged last block too is contiguous, so the GEMM reads it as one run
            buf = block[:cin * k * k * bc].reshape(cin, k, k, bc)
            for (p, q), ph in zip(phases, flat):
                buf[:, p::sf, q::st] = as_strided(
                    ph[:, c0:], (cin, len(range(p, k, sf)), len(range(q, k, st)), bc),
                    (ph.strides[0], tg * item, item, item))
            np.matmul(w2, buf.reshape(cin * k * k, bc), out=y[:, c0:c0 + bc])
    del block, buf, flat, ph        # ph, a view of the last phase, would keep the grid
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

    Forward is ``_correlate`` with the weights. It walks each batch item's
    columns, from its first grid cell to its last output, in blocks of
    BLOCK_COLUMNS that restart at every item: one strided copy per phase fills
    a (cin, k, k, block) stack of the k*k windows, and one GEMM of the
    (cout, cin*k*k) weights writes the block's output columns, cropped from the
    (Fg, Tg) grid at the end. So an item's outputs come from the GEMMs, shapes
    and operands of its forward alone, bit for bit, whatever the batch. dW pads
    the output gradient onto a zero (Fg, Tg) grid and walks all n_out columns
    in blocks of BLOCK_COLUMNS: per block and tap, one GEMM against the tap's
    window writes a (cout, cin) scratch added into the tap's zeroed slice, so
    both operands stay in cache, and one block gives each tap's GEMM bit for
    bit. dX is ``_correlate`` at stride 1 of the output gradient dilated by
    zeros to the stride and padded by k-1-p, with the weights turned 180
    degrees and cin and cout swapped; inputs past the forward's last window
    read the grid's zero cells. So padding must lie in [0, k-1]. At stride 2
    the GEMMs multiply three zeros in four: those dX cost more than a per-tap
    scatter, and the stride-1 dX less. Backward rebuilds the phase buffer for
    dW, so the tape keeps no copy of the input. No bias: each model conv feeds
    a batch norm, whose beta shifts; ``bias`` is accepted only as False.
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

        def backward(g):
            dx = dw = None
            if w_grad:
                flat, _, taps, (fg, tg) = _phase_grid(x.data, k, stride, pad, (fo, to))
                n_out = b * fg * tg - (fg - fo) * tg - (tg - to)
                ggrid = np.zeros((cout, b, fg, tg), dtype=g.dtype)
                ggrid[:, :, :fo, :to] = g.transpose(1, 0, 2, 3)
                gm = ggrid.reshape(cout, b * fg * tg)[:, :n_out]
                dwk = np.zeros((k, k, cout, cin), dtype=g.dtype)
                part = np.empty((cout, cin), dtype=g.dtype)
                for c0 in range(0, n_out, BLOCK_COLUMNS):
                    c1 = min(c0 + BLOCK_COLUMNS, n_out)
                    for i, j, p, off in taps:
                        np.matmul(gm[:, c0:c1], flat[p, :, off + c0:off + c1].T, out=part)
                        dwk[i, j] += part
                del flat, ggrid, gm
                dw = np.ascontiguousarray(dwk.transpose(2, 3, 0, 1))
            if x.requires_grad:
                sf, st = stride
                gd = np.zeros((b, cout, sf * (fo - 1) + 1, st * (to - 1) + 1), dtype=g.dtype)
                gd[:, :, ::sf, ::st] = g
                dx = _correlate(gd, wdata[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), (1, 1),
                                tuple(k - 1 - p for p in pad), (f, t))
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
