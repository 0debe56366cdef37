"""Squeeze-and-excitation units and their full ablation space.

A unit squeezes each channel's (freq, time) map to a statistic with
``nn.stats_pool``, the op the temporal pooling also uses, runs the pooled
vector through a small FC stack ending in a sigmoid, and rescales every
channel by its gate. The ablation axes are the squeeze statistic
(max / mean / std / mean_std), the reduction factor r, the FC depth h, the
placement relative to the residual block (standard / pre / post / identity),
and the set of stages that carry units at all.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import list_from_text, list_to_text, value_from_text
from .nn import POOLINGS, Linear, pooled_width, rng_for, stats_pool
from .tensor import ShapeError, Tensor

INTEGRATIONS = ("standard", "pre", "post", "identity")


@dataclass(frozen=True)
class SEConfig:
    """One point of the SE ablation grid.

    ``stages`` empty means SE is disabled everywhere. ``hidden_layers``
    counts total FC layers: h=1 is a single d->C layer, h>=2 keeps every
    interior layer at the bottleneck width C/r (floored, minimum 1). The
    mean_std pooling doubles only the first layer's input dimension, so
    excitation capacity is comparable across pooling variants.
    """

    pooling: str = "mean_std"
    reduction_factor: int = 4
    hidden_layers: int = 2
    integration: str = "standard"
    stages: frozenset[int] = field(default_factory=lambda: frozenset({1, 2}))

    def __post_init__(self):
        if self.pooling not in POOLINGS:
            raise ValueError(f"se.pooling must be one of {POOLINGS}, got {self.pooling!r}")
        if self.integration not in INTEGRATIONS:
            raise ValueError(
                f"se.integration must be one of {INTEGRATIONS}, got {self.integration!r}")
        if not self.reduction_factor >= 1:
            raise ValueError(f"se.reduction must be >= 1, got {self.reduction_factor!r}")
        if not self.hidden_layers >= 1:
            raise ValueError(f"se.hidden_layers must be >= 1, got {self.hidden_layers!r}")
        stages = frozenset(int(s) for s in self.stages)
        if not stages <= {1, 2, 3, 4}:
            raise ValueError(f"se.stages must be a subset of {{1,2,3,4}}, got {sorted(stages)}")
        object.__setattr__(self, "stages", stages)

    @property
    def enabled(self) -> bool:
        return bool(self.stages)

    def input_dim(self, channels: int) -> int:
        return pooled_width(self.pooling, channels)

    def hidden_dim(self, channels: int) -> int:
        return max(1, channels // self.reduction_factor)

    def layer_dims(self, channels: int) -> list[tuple[int, int]]:
        """(in, out) of each FC layer for a unit on ``channels`` channels."""
        d = self.input_dim(channels)
        if self.hidden_layers == 1:
            return [(d, channels)]
        hid = self.hidden_dim(channels)
        dims = [(d, hid)]
        dims += [(hid, hid)] * (self.hidden_layers - 2)
        dims.append((hid, channels))
        return dims

    def unit_parameter_count(self, channels: int) -> int:
        return sum(i * o + o for i, o in self.layer_dims(channels))

    def to_metadata(self) -> dict[str, str]:
        return {key: fmt(getattr(self, name)) for key, (name, _, fmt) in _METADATA.items()}

    @classmethod
    def from_metadata(cls, meta: dict[str, str]) -> "SEConfig":
        """Inverse of ``to_metadata``. A missing key takes the field default,
        except a missing ``se.stages``, which means SE off (not ``{1, 2}``)."""
        kwargs = {name: value_from_text(key, meta[key], parse)
                  for key, (name, parse, _) in _METADATA.items() if key in meta}
        return cls(**{"stages": frozenset(), **kwargs})


# metadata key -> (SEConfig field, parser, formatter)
_METADATA = {
    "se.pooling": ("pooling", str, str),
    "se.reduction": ("reduction_factor", int, str),
    "se.hidden_layers": ("hidden_layers", int, str),
    "se.integration": ("integration", str, str),
    "se.stages": ("stages", lambda text: frozenset(list_from_text(text, int)),
                  lambda stages: list_to_text(sorted(stages))),
}


def squeeze(x: Tensor, pooling: str) -> Tensor:
    """Aggregate each channel's (freq, time) positions into one statistic:
    (b, c), or (b, 2c) for mean_std (see ``nn.stats_pool``)."""
    return stats_pool(x, (2, 3), pooling)


class SEUnit:
    """The excitation network: FC stack mapping pooled stats to channel gates.

    ReLU between layers, sigmoid at the end, so gates live strictly in (0,1).
    """

    def __init__(self, channels: int, config: SEConfig,
                 rng: np.random.Generator | None = None,
                 name: str = "se", seed: int = 0, dtype=np.float32):
        self.channels = channels
        self.config = config
        self.name = name
        self.fc_layers: list[Linear] = []
        for k, (din, dout) in enumerate(config.layer_dims(channels)):
            layer_rng = rng if rng is not None else rng_for(seed, f"{name}.fc{k}")
            self.fc_layers.append(Linear(din, dout, rng=layer_rng, dtype=dtype))

    @property
    def input_dim(self) -> int:
        return self.fc_layers[0].in_features

    def excite(self, z: Tensor) -> Tensor:
        """Map pooled statistics (b, d) to channel gates (b, c) in (0, 1)."""
        if z.ndim != 2 or z.shape[1] != self.input_dim:
            raise ShapeError(
                f"excite expects (b, {self.input_dim}), got {z.shape}")
        h = z
        for layer in self.fc_layers[:-1]:
            h = layer.forward(h).relu()
        return self.fc_layers[-1].forward(h).sigmoid()

    def named_parameters(self, prefix: str):
        for k, layer in enumerate(self.fc_layers):
            yield from layer.named_parameters(f"{prefix}.fc{k}")


def se_apply(x: Tensor, unit: SEUnit) -> Tensor:
    """Re-weight each channel of x by its excitation gate. Shape-preserving."""
    b, c, f, t = x.shape
    if c != unit.channels:
        raise ShapeError(f"se_apply: unit built for {unit.channels} channels, input has {c}")
    s = unit.excite(squeeze(x, unit.config.pooling))
    _record_gates(unit.name, s)
    return x * s.reshape(b, c, 1, 1)


# --- excitation capture ----------------------------------------------------
# A recorder observes gate values without touching the computation, so
# captured and uncaptured forward passes are bit-identical.

_ACTIVE_RECORDER: list | None = None


def _record_gates(name: str, gates: Tensor) -> None:
    if _ACTIVE_RECORDER is not None:
        _ACTIVE_RECORDER.append((name, gates.data.copy()))


@contextlib.contextmanager
def record_excitations(sink: list):
    """Collect (unit_name, gates ndarray) pairs from every se_apply call."""
    global _ACTIVE_RECORDER
    prev, _ACTIVE_RECORDER = _ACTIVE_RECORDER, sink
    try:
        yield sink
    finally:
        _ACTIVE_RECORDER = prev

