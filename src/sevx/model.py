"""ResNet-34 speaker embedding extractor built from residual blocks with
optional SE units, the additive angular margin head, and the
SGD-with-momentum training step."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain

import numpy as np

from .checkpoint import list_from_text, list_to_text, value_from_text
from .features import N_MELS
from .nn import (BatchNorm2d, Conv2d, Linear, pooled_width, rng_for, temporal_stats_pool,
                 uniform_fan_in)
from .se import SEConfig, SEUnit, se_apply
from .tensor import NumericError, ShapeError, Tensor, no_grad

# three stride-2 stages shrink time 8x; eval rejects shorter segments
MIN_FRAMES = 8
# frames per batched eval forward: 8 toy chunks of 64 frames, one 400-frame chunk
EVAL_BATCH_FRAMES = 512


@dataclass(frozen=True)
class ModelSpec:
    """Topology description of the extractor.

    ``scale_factor`` shrinks every channel width (stem and stages) so the
    same topology runs at desk scale; the embedding dim is untouched.
    ``segment_frames`` is validated and recorded but unread: chunks use ``data.chunk_frames``.
    """

    stage_blocks: tuple[int, ...] = (3, 4, 6, 3)
    stage_channels: tuple[int, ...] = (128, 128, 256, 256)
    stage_strides: tuple[int, ...] = (1, 2, 2, 2)
    stem_channels: int = 128
    input_mel_bins: int = N_MELS
    segment_frames: int = 400
    embedding_dim: int = 256
    num_speakers: int = 20
    scale_factor: float = 1.0
    temporal_pooling: str = "mean"

    def __post_init__(self):
        for name in ("stage_blocks", "stage_channels", "stage_strides"):
            if len(getattr(self, name)) != 4:
                raise ValueError(f"model.{name} must have 4 entries, got {getattr(self, name)!r}")
        for name in ("stage_blocks", "stage_channels", "stage_strides", "stem_channels"):
            value = getattr(self, name)
            entries = value if isinstance(value, tuple) else (value,)
            if not all(isinstance(v, int) and v >= 1 for v in entries):
                raise ValueError(f"model.{name} must hold positive integers, got {value!r}")
        for name in ("scale_factor", "input_mel_bins", "segment_frames", "embedding_dim"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"model.{name} must be positive and finite, got {getattr(self, name)!r}")
        if not self.num_speakers >= 2:
            raise ValueError(f"model.num_speakers must be >= 2, got {self.num_speakers!r}")
        if self.temporal_pooling not in ("mean", "mean_std"):
            raise ValueError("model.temporal_pooling must be 'mean' or 'mean_std'")

    def scaled(self, channels: int) -> int:
        return max(1, int(round(channels * self.scale_factor)))

    @property
    def scaled_stage_channels(self) -> tuple[int, ...]:
        return tuple(self.scaled(c) for c in self.stage_channels)

    @property
    def scaled_stem_channels(self) -> int:
        return self.scaled(self.stem_channels)

    def to_metadata(self) -> dict[str, str]:
        meta = {}
        for f in fields(self):
            value = getattr(self, f.name)
            meta[f"model.{f.name}"] = list_to_text(value) if isinstance(value, tuple) else str(value)
        return meta

    @classmethod
    def from_metadata(cls, meta: dict[str, str]) -> "ModelSpec":
        """Inverse of ``to_metadata``; a missing key takes the field default,
        whose type also picks the parser."""
        kwargs = {}
        for f in fields(cls):
            key = f"model.{f.name}"
            if key in meta:
                parse = (partial(list_from_text, parse=int)
                         if isinstance(f.default, tuple) else type(f.default))
                kwargs[f.name] = value_from_text(key, meta[key], parse)
        return cls(**kwargs)


class BasicBlock:
    """Two 3x3 convs with batch norm, the skip path, and an optional SE unit.

    When stride or width changes, the skip carries a stride-matched 1x1
    convolution + batch norm. The SE unit, if any, is wired per its config's
    integration:

    standard: gate the residual branch output before the summation.
    pre:      gate the block input; the skip still sees the ungated input.
    post:     gate after the summation and the final ReLU.
    identity: gate the skip path only; the residual branch is untouched.

    PRE gates the block input, so its unit is sized to the input width; every
    other strategy gates a tensor at the block's output width.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 name: str, seed: int, dtype=np.float32, se: SEConfig | None = None):
        self.name = name
        self.conv1 = Conv2d(in_channels, out_channels, stride=(stride, stride),
                            rng=rng_for(seed, f"{name}.conv1"), dtype=dtype)
        self.bn1 = BatchNorm2d(out_channels, dtype=dtype)
        self.conv2 = Conv2d(out_channels, out_channels, stride=(1, 1),
                            rng=rng_for(seed, f"{name}.conv2"), dtype=dtype)
        self.bn2 = BatchNorm2d(out_channels, dtype=dtype)
        if stride != 1 or in_channels != out_channels:
            self.down_conv = Conv2d(in_channels, out_channels, kernel=1, stride=(stride, stride),
                                    padding=(0, 0), rng=rng_for(seed, f"{name}.down"), dtype=dtype)
            self.down_bn = BatchNorm2d(out_channels, dtype=dtype)
        else:
            self.down_conv = None
            self.down_bn = None
        self.se: SEUnit | None = None
        if se is not None:
            channels = in_channels if se.integration == "pre" else out_channels
            self.se = SEUnit(channels, se, name=f"{name}.se", seed=seed, dtype=dtype)

    def residual(self, x: Tensor, train: bool) -> Tensor:
        h = self.bn1.forward(self.conv1.forward(x), train).relu_()
        return self.bn2.forward(self.conv2.forward(h), train)

    def shortcut(self, x: Tensor, train: bool) -> Tensor:
        if self.down_conv is None:
            return x
        return self.down_bn.forward(self.down_conv.forward(x), train)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        unit = self.se
        mode = unit.config.integration if unit is not None else None
        r = self.residual(se_apply(x, unit) if mode == "pre" else x, train)
        if mode == "standard":
            r = se_apply(r, unit)
        s = self.shortcut(x, train)
        if mode == "identity":
            s = se_apply(s, unit)
        # r is a fresh BN or SE-rescale output, read by no op and by no rule
        out = r.add_(s).relu_()
        if mode == "post":
            out = se_apply(out, unit)
        return out

    def named_parameters(self, prefix: str):
        yield from self.conv1.named_parameters(f"{prefix}.conv1")
        yield from self.bn1.named_parameters(f"{prefix}.bn1")
        yield from self.conv2.named_parameters(f"{prefix}.conv2")
        yield from self.bn2.named_parameters(f"{prefix}.bn2")
        if self.down_conv is not None:
            yield from self.down_conv.named_parameters(f"{prefix}.down")
            yield from self.down_bn.named_parameters(f"{prefix}.down_bn")
        if self.se is not None:
            yield from self.se.named_parameters(f"{prefix}.se")

    def named_buffers(self, prefix: str):
        yield from self.bn1.named_buffers(f"{prefix}.bn1")
        yield from self.bn2.named_buffers(f"{prefix}.bn2")
        if self.down_bn is not None:
            yield from self.down_bn.named_buffers(f"{prefix}.down_bn")


class SpeakerEmbedder:
    """The full extractor: stem conv, four residual stages, temporal pooling,
    and the dense embedding layer."""

    def __init__(self, spec: ModelSpec, se_config: SEConfig | None = None,
                 seed: int = 1234, dtype=np.float32):
        self.spec = spec
        self.se_config = se_config if se_config is not None else SEConfig(stages=frozenset())

        stem_ch = spec.scaled_stem_channels
        self.stem_conv = Conv2d(1, stem_ch, stride=(1, 1), rng=rng_for(seed, "stem.conv"), dtype=dtype)
        self.stem_bn = BatchNorm2d(stem_ch, dtype=dtype)

        self.stages: list[list[BasicBlock]] = []
        in_ch = stem_ch
        for si in range(4):
            stage_num = si + 1
            out_ch = spec.scaled_stage_channels[si]
            stage_se = self.se_config if stage_num in self.se_config.stages else None
            blocks = []
            for bi in range(spec.stage_blocks[si]):
                stride = spec.stage_strides[si] if bi == 0 else 1
                blocks.append(BasicBlock(in_ch, out_ch, stride, name=f"stage{stage_num}.block{bi}",
                                         seed=seed, dtype=dtype, se=stage_se))
                in_ch = out_ch
            self.stages.append(blocks)

        # flatten width after pooling: channels * freq after every main-path conv
        freq = spec.input_mel_bins
        for conv in [self.stem_conv] + [c for b in chain(*self.stages) for c in (b.conv1, b.conv2)]:
            freq = conv.output_size(freq, MIN_FRAMES)[0]
        flat = pooled_width(spec.temporal_pooling, in_ch * freq)
        self.flatten_dim = flat
        self.embed = Linear(flat, spec.embedding_dim, rng=rng_for(seed, "embed"), dtype=dtype)

    # ---- forward ---------------------------------------------------------

    def forward_embedding(self, x: Tensor, train: bool) -> Tensor:
        pooled = temporal_stats_pool(self.stage_outputs(x, train)[-1],
                                     mode=self.spec.temporal_pooling)
        return self.embed.forward(pooled)

    def stage_outputs(self, x: Tensor, train: bool = False) -> list[Tensor]:
        """Per-stage feature maps; ``forward_embedding`` pools the last one."""
        h = self.stem_bn.forward(self.stem_conv.forward(x), train).relu_()
        outs = []
        for blocks in self.stages:
            for block in blocks:
                h = block.forward(h, train)
            outs.append(h)
        return outs

    # ---- parameter plumbing ----------------------------------------------

    def named_parameters(self):
        yield from self.stem_conv.named_parameters("stem.conv")
        yield from self.stem_bn.named_parameters("stem.bn")
        for block in chain(*self.stages):
            yield from block.named_parameters(block.name)
        yield from self.embed.named_parameters("embed")

    def named_buffers(self):
        yield from self.stem_bn.named_buffers("stem.bn")
        for block in chain(*self.stages):
            yield from block.named_buffers(block.name)

    def parameter_count(self) -> int:
        return sum(p.size for _, p in self.named_parameters())

    def se_parameter_count(self) -> int:
        return sum(p.size for name, p in self.named_parameters() if ".se." in name)


def build_model(spec: ModelSpec, se_config: SEConfig | None = None,
                seed: int = 1234, dtype=np.float32) -> SpeakerEmbedder:
    # r > C stays buildable (SE hidden width floors at 1); the ablation harness
    # is the layer that skips such cells
    return SpeakerEmbedder(spec, se_config, seed=seed, dtype=dtype)


def se_census(spec: ModelSpec, config: SEConfig) -> int:
    """Closed-form SE parameter count over all blocks of the selected stages.

    PRE units gate block inputs, so the first block of a stage uses the
    incoming width; all other cases use the stage width.
    """
    total = 0
    for stage in sorted(config.stages):
        c = spec.scaled_stage_channels[stage - 1]
        n_blocks = spec.stage_blocks[stage - 1]
        if config.integration == "pre":
            c_in = spec.scaled_stem_channels if stage == 1 else spec.scaled_stage_channels[stage - 2]
            total += config.unit_parameter_count(c_in)
            total += (n_blocks - 1) * config.unit_parameter_count(c)
        else:
            total += n_blocks * config.unit_parameter_count(c)
    return total


# ---- AAM-softmax ------------------------------------------------------------


class AAMHead:
    """Additive angular margin classification head.

    Class weight rows are L2-normalized in-graph before use; the target
    class logit is s*cos(theta + m), everything else s*cos(theta).
    """

    def __init__(self, num_speakers: int, embedding_dim: int, scale: float = 30.0,
                 margin: float = 0.4, rng: np.random.Generator | None = None,
                 seed: int = 1234, dtype=np.float32):
        if not (0 <= margin < math.pi / 2):
            raise ValueError(f"head.margin must be in [0, pi/2), got {margin!r}")
        if not scale > 0:
            raise ValueError(f"head.scale must be positive, got {scale!r}")
        self.num_speakers = num_speakers
        self.scale = scale
        self.margin = margin
        rng = rng if rng is not None else rng_for(seed, "head.class_weights")
        self.class_weights = Tensor(
            uniform_fan_in(rng, embedding_dim, (num_speakers, embedding_dim), dtype),
            requires_grad=True, dtype=dtype)

    def named_parameters(self):
        yield "head.class_weights", self.class_weights


def _rows_normalized(t: Tensor, what: str) -> Tensor:
    norms_sq = (t * t).sum(axis=1, keepdims=True)
    if np.any(norms_sq.data == 0):
        raise NumericError(f"{what}: zero-norm row")
    return t / norms_sq.sqrt()


def _sin_from_cos(c: Tensor) -> Tensor:
    """sin(theta) from cos(theta), gradient-safe at |cos| = 1.

    Forward: sqrt of 1 - cos^2 clipped into [0, 1]. Backward uses -c/sin with
    a zero subgradient where sin underflows, so saturated cosines cannot
    inject NaN/Inf into the tape.
    """
    data = np.sqrt(np.clip(1.0 - c.data * c.data, 0.0, 1.0))

    def backward(g):
        safe = data > 1e-6
        gc = np.where(safe, -c.data / np.where(safe, data, 1.0), 0.0)
        return (g * gc,)

    return Tensor._from_op(data, (c,), backward)


def aam_loss(embeddings: Tensor, labels, head: AAMHead) -> Tensor:
    """Mean AAM-softmax cross-entropy over the batch.

    cos(theta + m) is computed as cos*cos(m) - sin*sin(m); where theta + m
    would pass pi the target logit is clamped at cos(pi) = -1, which keeps
    the margin penalty monotone.
    """
    labels = np.asarray(labels, dtype=np.int64)
    b, e = embeddings.shape
    if labels.shape != (b,):
        raise ShapeError(f"labels must have shape ({b},), got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= head.num_speakers:
        raise ValueError(
            f"labels must lie in [0, {head.num_speakers}), got range "
            f"[{labels.min()}, {labels.max()}]")

    emb_n = _rows_normalized(embeddings, "aam_loss embeddings")
    w_n = _rows_normalized(head.class_weights, "aam_loss class weights")
    cos = emb_n @ w_n.transpose()

    m = head.margin
    sin = _sin_from_cos(cos)
    phi = cos * math.cos(m) - sin * math.sin(m)
    # clamp theta + m at pi: beyond it, cos(theta + m) would turn back up
    feasible = Tensor((cos.data >= math.cos(math.pi - m)).astype(cos.data.dtype))
    phi = phi * feasible + (feasible - 1.0)

    onehot = np.zeros((b, head.num_speakers), dtype=cos.data.dtype)
    onehot[np.arange(b), labels] = 1.0
    mask = Tensor(onehot)
    logits = (phi * mask + cos * (1.0 - mask)) * head.scale
    logp = logits.log_softmax(axis=1)
    return -(logp * mask).sum() / float(b)


# ---- optimizer --------------------------------------------------------------


class SGDOptimizer:
    """SGD with momentum and L2 weight decay.

    Update: v <- mu*v + g + wd*theta; theta <- theta - lr*v. Parameters
    whose grad is unset are skipped (their buffers stay untouched).
    """

    def __init__(self, named_params, lr: float = 0.2, momentum: float = 0.9,
                 weight_decay: float = 2e-4):
        self.params: list[tuple[str, Tensor]] = list(named_params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.buffers = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for name, p in self.params:
            if p.grad is None:
                continue
            v = self.buffers[name]
            v *= self.momentum
            v += p.grad
            if self.weight_decay:
                v += self.weight_decay * p.data
            p.data -= self.lr * v


def train_step(model: SpeakerEmbedder, head: AAMHead, batch: Tensor, labels,
               opt: SGDOptimizer) -> float:
    """One SGD step; returns the pre-update loss.

    Aborts with a diagnostic naming the first non-finite parameter gradient
    if the loss or any gradient goes non-finite.
    """
    emb = model.forward_embedding(batch, train=True)
    loss = aam_loss(emb, labels, head)
    loss_val = float(loss.data)
    opt.zero_grad()
    loss.backward()
    bad = None
    for name, p in opt.params:
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            bad = name
            break
    if not math.isfinite(loss_val) or bad is not None:
        raise NumericError(
            f"non-finite training step: loss={loss_val}, first non-finite gradient: "
            f"{bad if bad is not None else '(none)'}")
    opt.step()
    return loss_val


def extract_embeddings(model: SpeakerEmbedder, features: Tensor) -> np.ndarray:
    """Embeddings (n, d) of n equal-length segments (n, 1, mel, T), eval mode,
    grad-free: the one eval forward behind scoring, training accuracy and
    excitation capture. It is batch invariant: every conv GEMM restarts at each
    batch item and the grad-free ``Linear`` multiplies row by row, so each row
    has the bytes of its segment's forward alone. A non-finite row raises
    ``NumericError``."""
    if features.ndim != 4 or features.shape[0] < 1 or features.shape[1] != 1:
        raise ShapeError(f"extract_embeddings expects (n, 1, mel, T), got {features.shape}")
    t = features.shape[3]
    if t < MIN_FRAMES:
        raise ShapeError(f"segment too short: T={t} < {MIN_FRAMES} frames")
    with no_grad():
        emb = model.forward_embedding(features, train=False).data
    bad = np.flatnonzero(~np.all(np.isfinite(emb), axis=1))
    if bad.size:
        raise NumericError(f"non-finite embedding from the eval forward (segment {bad[0]})")
    return emb


def extract_embedding(model: SpeakerEmbedder, features: Tensor) -> np.ndarray:
    """Embedding (d,) of one utterance (1, 1, mel, T): ``extract_embeddings`` at n = 1."""
    if features.ndim != 4 or features.shape[0] != 1:
        raise ShapeError(f"extract_embedding expects (1, 1, mel, T), got {features.shape}")
    return extract_embeddings(model, features)[0]


def eval_forwards(model: SpeakerEmbedder, segments):
    """Yield (indices, embeddings (len(indices), d)) that embed every (mel, T)
    segment of the list ``segments`` once: segments of one shape, in list
    order, go through ``extract_embeddings`` together, up to EVAL_BATCH_FRAMES
    frames (and at least one segment) per forward."""
    by_shape: dict[tuple, list[int]] = {}
    for i, s in enumerate(segments):
        if np.ndim(s) != 2:
            raise ShapeError(f"a segment must be (mel, T), got shape {np.shape(s)}")
        by_shape.setdefault(np.shape(s), []).append(i)
    for (_mel, t), idx in by_shape.items():
        per = max(1, EVAL_BATCH_FRAMES // t)
        for k in range(0, len(idx), per):
            group = idx[k:k + per]
            x = np.stack([segments[i] for i in group])[:, None].astype(np.float32)
            yield group, extract_embeddings(model, Tensor(x))


def embed_segments(model: SpeakerEmbedder, segments) -> np.ndarray:
    """Embeddings (n, d) of the (mel, T) ``segments``, in order, from ``eval_forwards``."""
    segments = list(segments)
    out = np.empty((len(segments), model.spec.embedding_dim), dtype=np.float32)
    for idx, emb in eval_forwards(model, segments):
        out[idx] = emb
    return out
