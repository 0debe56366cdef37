"""Neural layers for the ResNet topology: 2-D convolution, batch norm,
linear layers, and temporal statistics pooling.

Feature maps are (batch, channels, freq, time). All 3x3 convolutions use
padding 1 so stride-1 layers preserve spatial dims and stride-2 layers halve
them with floor division, which is what keeps the
full-scale stack's per-stage output sizes on their intended grid.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError, Tensor, cat

STATS_EPS = 1e-8
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent, name-keyed random stream.

    Each layer draws from its own stream so that adding or removing SE units
    elsewhere in the network cannot shift the initialization of unrelated
    layers. This is what makes ablation cells share backbone weights.
    """
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(name.encode())]))


def _uniform_fan_in(rng: np.random.Generator, fan_in: int, shape: tuple, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Linear:
    """Dense layer y = x W^T + b."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            _uniform_fan_in(rng, in_features, (out_features, in_features), dtype),
            requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"linear expects input dim {self.in_features}, got {x.shape}")
        return x @ self.weight.transpose() + self.bias.reshape(1, self.out_features)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


def _im2col(xp: np.ndarray, kh: int, kw: int, sf: int, st: int) -> tuple[np.ndarray, int, int]:
    # xp: padded input (b, c, fp, tp) -> cols (c*kh*kw, b*fo*to)
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sf, ::st]
    b, c, fo, to = win.shape[:4]
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, b * fo * to)
    return np.ascontiguousarray(cols), fo, to


def _col2im(dcols: np.ndarray, xshape: tuple, kh: int, kw: int, sf: int, st: int,
            pf: int, pt: int, fo: int, to: int) -> np.ndarray:
    b, c, f, t = xshape
    dxp = np.zeros((b, c, f + 2 * pf, t + 2 * pt), dtype=dcols.dtype)
    dc = dcols.reshape(c, kh, kw, b, fo, to)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + sf * fo:sf, j:j + st * to:st] += dc[:, i, j].transpose(1, 0, 2, 3)
    if pf or pt:
        return dxp[:, :, pf:pf + f, pt:pt + t]
    return dxp


class Conv2d:
    """3x3 (by default) cross-correlation over (freq, time), via im2col + GEMM.

    The im2col buffer is kept for the weight-gradient GEMM whenever the
    weights are on the tape; grad-free forward passes drop it immediately.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3,
                 stride: tuple[int, int] = (1, 1), padding: tuple[int, int] | None = None,
                 bias: bool = True, rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = tuple(stride)
        self.padding = tuple(padding) if padding is not None else (kernel // 2, kernel // 2)
        fan_in = in_channels * kernel * kernel
        self.weight = Tensor(
            _uniform_fan_in(rng, fan_in, (out_channels, in_channels, kernel, kernel), dtype),
            requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ShapeError(f"conv2d expects (b, c, f, t), got {x.shape}")
        b, cin, f, t = x.shape
        if cin != self.in_channels:
            raise ShapeError(
                f"conv2d expects {self.in_channels} input channels, got {cin}")
        kh = kw = self.kernel
        sf, st = self.stride
        pf, pt = self.padding
        fo = (f + 2 * pf - kh) // sf + 1
        to = (t + 2 * pt - kw) // st + 1
        if fo <= 0 or to <= 0:
            raise ShapeError(
                f"conv2d output would be empty for input {x.shape} with kernel {kh}x{kw}")

        weight, bias = self.weight, self.bias
        xp = np.pad(x.data, ((0, 0), (0, 0), (pf, pf), (pt, pt))) if (pf or pt) else x.data
        cols, fo2, to2 = _im2col(xp, kh, kw, sf, st)
        assert (fo2, to2) == (fo, to)
        wmat = weight.data.reshape(self.out_channels, cin * kh * kw)
        out = (wmat @ cols).reshape(self.out_channels, b, fo, to).transpose(1, 0, 2, 3)
        out = np.ascontiguousarray(out)
        if bias is not None:
            out += bias.data.reshape(1, self.out_channels, 1, 1)

        parents = (x, weight) + ((bias,) if bias is not None else ())
        xshape = x.shape
        saved_cols = cols if weight.requires_grad else None

        def backward(g):
            gmat = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(self.out_channels, b * fo * to)
            dx = (_col2im(wmat.T @ gmat, xshape, kh, kw, sf, st, pf, pt, fo, to)
                  if x.requires_grad else None)
            dw = (gmat @ saved_cols.T).reshape(weight.shape) if saved_cols is not None else None
            return (dx, dw) + ((g.sum(axis=(0, 2, 3)),) if bias is not None else ())

        return Tensor._from_op(out, parents, backward)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.weight", self.weight
        if self.bias is not None:
            yield f"{prefix}.bias", self.bias


class BatchNorm2d:
    """Per-channel batch normalization over (batch, freq, time), one fused
    primitive for both modes: ``gamma * xhat + beta``.

    Train mode normalizes with batch statistics (population variance) and
    updates the running estimates; eval mode normalizes with the running
    estimates, ``xhat = (x - running_mean) / sqrt(running_var + BN_EPS)``, which
    start at mean 0 / var 1 so eval works before any training step. The
    running estimates move by BN_MOMENTUM per training batch.
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
            var = np.square(x.data - mu).mean(axis=axes, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (x.data - mu) * inv_std
            m = BN_MOMENTUM
            self.running_mean = ((1 - m) * self.running_mean
                                 + m * mu.reshape(c).astype(self.running_mean.dtype))
            self.running_var = ((1 - m) * self.running_var
                                + m * var.reshape(c).astype(self.running_var.dtype))
        else:
            mu = self.running_mean.reshape(1, c, 1, 1).astype(x.dtype)
            rstd = np.sqrt(self.running_var.reshape(1, c, 1, 1) + BN_EPS).astype(x.dtype)
            xhat = (x.data - mu) / rstd
        gamma_c = gamma.data.reshape(1, c, 1, 1)
        out = gamma_c * xhat + beta.data.reshape(1, c, 1, 1)

        def backward(g):
            dbeta = g.sum(axis=axes, keepdims=True)
            dgamma = (g * xhat).sum(axis=axes, keepdims=True)
            # eval statistics are constants, so x reaches the output only through xhat
            dx = (gamma_c * inv_std * (g - (dbeta + xhat * dgamma) / n) if train
                  else g * gamma_c / rstd)
            return (dx, dgamma.reshape(c), dbeta.reshape(c))

        return Tensor._from_op(out, (x, gamma, beta), backward)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta

    def named_buffers(self, prefix: str):
        yield f"{prefix}.running_mean", self.running_mean
        yield f"{prefix}.running_var", self.running_var


def population_std(x: Tensor, mu: Tensor, axes) -> Tensor:
    """Population std of x over ``axes``, epsilon inside the sqrt; ``mu`` is
    the mean of x over ``axes`` with those dims kept at size 1."""
    centered = x - mu
    return ((centered * centered).mean(axis=axes) + STATS_EPS) ** 0.5


def temporal_stats_pool(x: Tensor, mode: str = "mean") -> Tensor:
    """Pool a (b, c, f, t) map over time into (b, c*f) or (b, 2*c*f).

    Mean-only is the default; the full-scale stack's flatten width
    (2048 = 8 * 256) has no room for a std half. mean_std doubles the
    output. Std is population std with an epsilon inside the sqrt.
    """
    if x.ndim != 4:
        raise ShapeError(f"temporal_stats_pool expects (b, c, f, t), got {x.shape}")
    b, c, f, t = x.shape
    if t < 1:
        raise ShapeError("temporal_stats_pool: empty time axis")
    mu = x.mean(axis=3)
    flat_mu = mu.reshape(b, c * f)
    if mode == "mean":
        return flat_mu
    if mode != "mean_std":
        raise ValueError(f"unknown pooling mode {mode!r}")
    std = population_std(x, mu.reshape(b, c, f, 1), axes=3) if t >= 2 else mu * 0.0
    return cat([flat_mu, std.reshape(b, c * f)], axis=1)


def conv2d_reference(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                     stride: tuple[int, int], padding: tuple[int, int]) -> np.ndarray:
    """Direct six-nested-loop convolution, the oracle for the im2col path."""
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
            if bias is not None:
                out[n, co] += bias[co]
    return out.astype(x.dtype)
