"""Central finite-difference gradient oracle.

The oracle runs the graph in float64 (the engine's mirror precision) and
perturbs every leaf entry by +/-eps in place, so it is independent of the
backward rules it checks. ``run_suite`` covers every differentiable
operation in the package, the in-place ReLU behind a train-mode batch norm
and behind an add, then their compositions: a residual block with SE
off and under each wiring, with and without the stride-2 downsample, and a
tiny SE model through the AAM loss. It backs the ``gradcheck`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .model import AAMHead, BasicBlock, ModelSpec, SpeakerEmbedder, aam_loss
from .nn import BatchNorm2d, Conv2d, Linear, temporal_stats_pool
from .se import INTEGRATIONS, POOLINGS, SEConfig, SEUnit, se_apply, squeeze
from .tensor import Tensor, no_grad

DEFAULT_EPS = 1e-3
# Blocks and models put ReLUs behind train-mode batch norm, so perturbing any
# one entry moves every pre-activation a little; a step of DEFAULT_EPS would
# cross some ReLU kink. Float64 central differences at 1e-6 are still good to
# about 1e-9.
COMPOSITE_EPS = 1e-6
RTOL = 1e-3
ATOL = 1e-5


@dataclass
class GradCheckResult:
    op: str
    seed: int
    passed: bool
    max_abs_err: float
    max_rel_err: float

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.op}\tseed={self.seed}\t{status}\t"
            f"max_abs_err={self.max_abs_err:.3e}\tmax_rel_err={self.max_rel_err:.3e}"
        )


def finite_difference(
    loss_fn: Callable[[], Tensor],
    leaves: Sequence[Tensor],
    eps: float = DEFAULT_EPS,
) -> list[np.ndarray]:
    """Central differences of the scalar ``loss_fn()``, one leaf entry at a time.

    Each entry of ``leaf.data`` is perturbed in place (tensor data is
    C-contiguous, so ``reshape(-1)`` is a view) and restored afterwards.
    """
    grads = []
    with no_grad():
        for leaf in leaves:
            g = np.zeros_like(leaf.data)
            flat = leaf.data.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = float(loss_fn().data)
                flat[i] = orig - eps
                fm = float(loss_fn().data)
                flat[i] = orig
                gflat[i] = (fp - fm) / (2.0 * eps)
            grads.append(g)
    return grads


def check_gradients(
    loss_fn: Callable[[], Tensor],
    leaves: Sequence[Tensor],
    eps: float = DEFAULT_EPS,
) -> tuple[bool, float, float]:
    """Compare reverse-mode gradients of ``loss_fn`` against central differences.

    ``loss_fn`` builds a scalar loss tensor from ``leaves``, the float64
    tensors on the tape that it reads. An entry passes when its error is
    within ATOL + RTOL * |numeric|. Returns (passed, max_abs_err,
    max_rel_err) over all leaves, max_rel_err relative to max(|numeric|, ATOL).
    """
    for leaf in leaves:
        leaf.zero_grad()
    loss_fn().backward()
    analytic = [
        t.grad if t.grad is not None else np.zeros_like(t.data) for t in leaves
    ]
    numeric = finite_difference(loss_fn, leaves, eps=eps)
    max_abs = 0.0
    max_rel = 0.0
    ok = True
    for a, n in zip(analytic, numeric):
        diff = np.abs(a - n)
        max_abs = max(max_abs, float(diff.max(initial=0.0)))
        denom = np.abs(n)
        rel = diff / np.maximum(denom, ATOL)
        max_rel = max(max_rel, float(rel.max(initial=0.0)))
        if not np.all(diff <= ATOL + RTOL * denom):
            ok = False
    return ok, max_abs, max_rel


# seed -> (scalar loss function, its float64 leaves, finite-difference step)
Case = Callable[[int], tuple[Callable[[], Tensor], list[Tensor], float]]


def _rand(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.uniform(-2.0, 2.0, size=shape)


def _leaf(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=np.float64)


def _projected(out: Tensor, seed: int) -> Tensor:
    # fixed random projection turns any output into a scalar loss; the rng is
    # rebuilt per call so repeated evaluations see the identical projection
    r = Tensor(np.random.default_rng(seed).normal(size=out.shape), dtype=np.float64)
    return (out * r).sum()


def _op(fn: Callable[..., Tensor], *shapes: tuple[int, ...],
        prep: Callable[[np.ndarray], np.ndarray] | None = None) -> Case:
    """``fn`` of fresh uniform leaves of ``shapes``; ``prep`` adjusts the last one."""

    def build_case(seed: int):
        rng = np.random.default_rng(seed)
        arrays = [_rand(rng, *shape) for shape in shapes]
        if prep is not None:
            arrays[-1] = prep(arrays[-1])
        leaves = [_leaf(a) for a in arrays]
        return (lambda: _projected(fn(*leaves), seed + 1)), leaves, DEFAULT_EPS

    return build_case


def _layer(make: Callable[[np.random.Generator], object],
           forward: Callable[[object, Tensor], Tensor], shape: tuple[int, ...],
           eps: float = DEFAULT_EPS,
           prep: Callable[[np.ndarray], np.ndarray] | None = None) -> Case:
    """``forward(layer, x)`` with respect to its input and the layer's own
    parameters; ``prep`` adjusts the input."""

    def build_case(seed: int):
        x = _rand(np.random.default_rng(seed), *shape)
        x = _leaf(x if prep is None else prep(x))
        layer = make(np.random.default_rng(seed + 7))
        leaves = [x] + [p for _, p in layer.named_parameters("layer")]
        return (lambda: _projected(forward(layer, x), seed + 1)), leaves, eps

    return build_case


def _off_kink(x: np.ndarray) -> np.ndarray:
    """Entries moved at least 0.05 away from the ReLU kink at 0."""
    return x + 0.05 * np.sign(x) + (x == 0) * 0.1


def _mirrored_off_kink(x: np.ndarray) -> np.ndarray:
    # a batch of two, item 1 the negated item 0: every batch-norm channel has
    # mean 0 and no normalized entry lies within 0.05 / std of the kink
    half = _off_kink(x[:1])
    return np.concatenate([half, -half])


def _aam_case(seed: int):
    rng = np.random.default_rng(seed)
    emb = _leaf(_rand(rng, 4, 8))
    head = AAMHead(num_speakers=5, embedding_dim=8, rng=np.random.default_rng(seed + 7),
                   dtype=np.float64)
    labels = rng.integers(0, 5, size=4)
    return ((lambda: aam_loss(emb, labels, head)), [emb] + [p for _, p in head.named_parameters()],
            DEFAULT_EPS)


def _bn_with_running_stats(rng: np.random.Generator) -> BatchNorm2d:
    bn = BatchNorm2d(3, dtype=np.float64)
    bn.running_mean = rng.uniform(-1.0, 1.0, 3)
    bn.running_var = rng.uniform(0.5, 2.0, 3)
    bn.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
    return bn


def _se_unit(pooling: str):
    cfg = SEConfig(pooling=pooling, reduction_factor=2, hidden_layers=2)
    return lambda rng: SEUnit(channels=4, config=cfg, rng=rng, dtype=np.float64)


def _block(integration: str | None, down: bool) -> Case:
    """A train-mode BasicBlock: 2 -> 2 channels at stride 1, or 2 -> 3 at
    stride 2 with the 1x1 downsample on the skip; SE wired per ``integration``."""
    se = SEConfig(reduction_factor=2, integration=integration) if integration else None
    out_ch, stride, shape = (3, 2, (2, 2, 5, 5)) if down else (2, 1, (2, 2, 4, 4))
    return _layer(
        lambda rng: BasicBlock(2, out_ch, stride, "block", seed=int(rng.integers(1 << 31)),
                               dtype=np.float64, se=se),
        lambda block, x: block.forward(x, True), shape, COMPOSITE_EPS)


_TINY_SPEC = ModelSpec(stage_blocks=(1, 1, 1, 1), stage_channels=(1, 2, 2, 2), stem_channels=1,
                       input_mel_bins=16, segment_frames=8, embedding_dim=3, num_speakers=3)


def _embedder_case(seed: int):
    """A SpeakerEmbedder with one block per stage and SE on every stage,
    through aam_loss on a fixed (2, 1, 16, 8) batch, with respect to every
    model and head parameter.

    The input is not a leaf: training never takes its gradient, and its 256
    entries would cost more finite differences than all 333 parameters. The
    embedding bias is drawn at random: at its zero init, an item whose last
    stage is all ReLU-dead would embed to zero, which aam_loss rejects.
    """
    rng = np.random.default_rng(seed)
    x = Tensor(_rand(rng, 2, 1, 16, 8), dtype=np.float64)
    model = SpeakerEmbedder(_TINY_SPEC, SEConfig(reduction_factor=2, stages={1, 2, 3, 4}),
                            seed=seed, dtype=np.float64)
    model.embed.bias.data[...] = rng.uniform(-1.0, 1.0, 3)
    head = AAMHead(3, 3, rng=rng, dtype=np.float64)
    labels = rng.integers(0, 3, size=2)
    leaves = [p for _, p in model.named_parameters()] + [p for _, p in head.named_parameters()]
    return (lambda: aam_loss(model.forward_embedding(x, True), labels, head)), leaves, COMPOSITE_EPS


CASES: dict[str, Case] = {
    "add": _op(lambda a, b: a + b, (3, 4), (3, 4)),
    "sub": _op(lambda a, b: a - b, (3, 4), (3, 4)),
    "mul": _op(lambda a, b: a * b, (3, 4), (3, 4)),
    # keep the denominator away from zero
    "div": _op(lambda a, b: a / b, (3, 4), (3, 4), prep=lambda b: np.sign(b) * (np.abs(b) + 0.5)),
    "broadcast": _op(lambda a, b: a * b + b, (2, 3, 4), (1, 3, 1)),
    "matmul": _op(lambda a, b: a @ b, (3, 4), (4, 2)),
    # keep entries away from the kink at 0
    "relu": _op(Tensor.relu, (4, 5), prep=_off_kink),
    # b outweighs a (|a| <= 2), so a + b stays at least 0.5 from the kink
    "add_relu": _op(lambda a, b: (a + b).relu_(), (4, 5), (4, 5),
                    prep=lambda b: b + 2.5 * np.where(b < 0, -1.0, 1.0)),
    "sigmoid": _op(Tensor.sigmoid, (4, 5)),
    "log_softmax": _op(partial(Tensor.log_softmax, axis=1), (4, 5)),
    "linear": _layer(lambda rng: Linear(5, 4, rng=rng, dtype=np.float64), Linear.forward, (3, 5)),
    "conv2d": _layer(lambda rng: Conv2d(2, 2, stride=(1, 1), rng=rng, dtype=np.float64),
                     Conv2d.forward, (1, 2, 5, 5)),
    "conv2d_stride2": _layer(lambda rng: Conv2d(2, 3, stride=(2, 2), rng=rng, dtype=np.float64),
                             Conv2d.forward, (2, 2, 6, 7)),
    # the down conv reads one of the four stride phases
    "conv2d_1x1_stride2": _layer(
        lambda rng: Conv2d(2, 3, kernel=1, stride=(2, 2), padding=(0, 0), rng=rng, dtype=np.float64),
        Conv2d.forward, (2, 2, 5, 6)),
    "batchnorm": _layer(lambda rng: BatchNorm2d(3, dtype=np.float64),
                        partial(BatchNorm2d.forward, train=True), (2, 3, 4, 4)),
    # eval mode (second argument False): normalized by the running statistics
    "batchnorm_eval": _layer(_bn_with_running_stats, lambda bn, x: bn.forward(x, False),
                             (2, 3, 4, 4)),
    "batchnorm_relu": _layer(lambda rng: BatchNorm2d(3, dtype=np.float64),
                             lambda bn, x: bn.forward(x, True).relu_(), (2, 3, 4, 4),
                             prep=_mirrored_off_kink),
    **{f"squeeze_{p}": _op(partial(squeeze, pooling=p), (2, 3, 2, 4)) for p in POOLINGS},
    "excite": _layer(_se_unit("mean"), SEUnit.excite, (3, 4)),
    "se_apply": _layer(_se_unit("mean_std"), lambda unit, x: se_apply(x, unit), (2, 4, 2, 3)),
    "stats_pool_mean": _op(partial(temporal_stats_pool, mode="mean"), (2, 3, 2, 5)),
    "stats_pool_mean_std": _op(partial(temporal_stats_pool, mode="mean_std"), (2, 3, 2, 5)),
    "aam_loss": _aam_case,
    **{f"block_{mode or 'se_off'}{'_down' if down else ''}": _block(mode, down)
       for mode in (None,) + INTEGRATIONS for down in (False, True)},
    "embedder_aam_loss": _embedder_case,
}


def run_case(op: str, seed: int) -> GradCheckResult:
    ok, max_abs, max_rel = check_gradients(*CASES[op](seed))
    return GradCheckResult(op=op, seed=seed, passed=ok, max_abs_err=max_abs, max_rel_err=max_rel)


def run_suite(seeds: Sequence[int] = (0, 1, 2, 3, 4)) -> list[GradCheckResult]:
    return [run_case(op, seed) for op in CASES for seed in seeds]
