"""Dotted-key run configuration: text files of ``key = value`` lines with
defaults. Unknown keys are fatal.

Model, SE, data and eval values are checked by the spec objects they build
(``ModelSpec``, ``SEConfig``, ``SynthSpec``, ``DCFParams``), which also own
their defaults; the schema checks only the keys no spec object owns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .checkpoint import list_from_text, metadata_from_text, metadata_to_text
from .features import SynthSpec
from .metrics import DCFParams
from .model import MIN_FRAMES, ModelSpec
from .se import SEConfig


class ConfigError(ValueError):
    """Bad key, bad value, or unparseable config text."""


def _positive(x) -> bool:
    return x > 0


def _nonneg(x) -> bool:
    return x >= 0


@dataclass(frozen=True)
class _Field:
    parse: Callable[[str], Any]
    default: Any
    check: Callable[[Any], bool] | None = None


SCHEMA: dict[str, _Field] = {
    "seed": _Field(int, 1234),
    "out": _Field(str, "runs/exp"),
    "model.scale_factor": _Field(float, ModelSpec.scale_factor),
    "model.embedding_dim": _Field(int, ModelSpec.embedding_dim),
    "model.segment_frames": _Field(int, ModelSpec.segment_frames),
    "model.temporal_pooling": _Field(str, ModelSpec.temporal_pooling),
    "se.pooling": _Field(str, SEConfig.pooling),
    "se.reduction": _Field(int, SEConfig.reduction_factor),
    "se.hidden_layers": _Field(int, SEConfig.hidden_layers),
    "se.integration": _Field(str, SEConfig.integration),
    "se.stages": _Field(str, SEConfig().to_metadata()["se.stages"]),
    "optim.lr": _Field(float, 0.2, _positive),
    "optim.momentum": _Field(float, 0.9, _nonneg),
    "optim.weight_decay": _Field(float, 2e-4, _nonneg),
    "optim.batch_size": _Field(int, 32, _positive),
    "optim.epochs": _Field(int, 30, _positive),
    "optim.lr_decay_milestones": _Field(str, "0.5,0.75"),
    "optim.lr_decay_factor": _Field(float, 0.1, _positive),
    "data.num_speakers": _Field(int, SynthSpec.num_speakers),
    "data.utts_per_speaker": _Field(int, SynthSpec.utts_per_speaker),
    "data.frames_per_utt": _Field(int, SynthSpec.frames_per_utt),
    "data.signature_rank": _Field(int, SynthSpec.speaker_signature_rank),
    "data.noise_level": _Field(float, SynthSpec.noise_level),
    "data.chunk_frames": _Field(int, 400, lambda x: x >= MIN_FRAMES),
    "eval.p_target": _Field(float, DCFParams.p_target),
    "eval.c_miss": _Field(float, DCFParams.cost_miss),
    "eval.c_fa": _Field(float, DCFParams.cost_fa),
}


# The desk-scale toy run shared by the acceptance tests and scripts/: scale
# 1/8, 20 speakers of 8 utterances, SE at stages 1-2 (r=4, h=2, mean+std).
TOY_CONFIG: dict[str, str] = {
    "seed": "2024",
    "model.scale_factor": "0.125",
    "model.segment_frames": "64",
    "data.num_speakers": "20",
    "data.utts_per_speaker": "8",
    "data.frames_per_utt": "64",
    "data.chunk_frames": "64",
    "data.noise_level": "0.25",
    "optim.batch_size": "20",
    "optim.epochs": "16",
    "optim.lr": "0.15",
    "se.stages": "1,2",
    "se.reduction": "4",
    "se.hidden_layers": "2",
    "se.pooling": "mean_std",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings from ``key = value`` lines."""
    try:
        return metadata_from_text(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


class RunConfig:
    """Fully-resolved configuration: every schema key has a typed value."""

    def __init__(self, overrides: dict[str, str] | None = None):
        overrides = dict(overrides or {})
        unknown = sorted(set(overrides) - set(SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        self.values: dict[str, Any] = {}
        for key, field in SCHEMA.items():
            if key in overrides:
                try:
                    value = field.parse(overrides[key])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{key}: cannot parse {overrides[key]!r}") from exc
            else:
                value = field.default
            if field.check is not None and not field.check(value):
                raise ConfigError(f"{key}: invalid value {value!r}")
            self.values[key] = value
        text = self.values["optim.lr_decay_milestones"]
        try:
            self._milestones = list_from_text(text, float)
        except ValueError as exc:
            raise ConfigError(f"optim.lr_decay_milestones: {exc}") from None
        if any(not 0 < m < 1 for m in self._milestones):
            raise ConfigError("optim.lr_decay_milestones must lie in (0, 1)")
        try:
            # synth_spec first: it names data.num_speakers, which model_spec also checks
            for build in (self.synth_spec, self.dcf_params, self.model_spec, self.se_config):
                build()
        except ValueError as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def with_overrides(self, **kv: str) -> "RunConfig":
        merged = self.as_text_dict()
        merged.update({k: str(v) for k, v in kv.items()})
        return RunConfig(merged)

    def as_text_dict(self) -> dict[str, str]:
        return {k: str(v) for k, v in self.values.items()}

    def render(self) -> str:
        """Canonical text form, written as the frozen copy of every run."""
        return metadata_to_text(dict(sorted(self.as_text_dict().items())))

    # ---- typed views ------------------------------------------------------

    @property
    def seed(self) -> int:
        return self.values["seed"]

    @property
    def out_dir(self) -> str:
        return self.values["out"]

    def model_spec(self, num_speakers: int | None = None) -> ModelSpec:
        text = self.as_text_dict()
        n = text["data.num_speakers"] if num_speakers is None else str(num_speakers)
        return ModelSpec.from_metadata({**text, "model.num_speakers": n})

    def se_config(self) -> SEConfig:
        return SEConfig.from_metadata(self.as_text_dict())

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(
            num_speakers=self.values["data.num_speakers"],
            utts_per_speaker=self.values["data.utts_per_speaker"],
            frames_per_utt=self.values["data.frames_per_utt"],
            speaker_signature_rank=self.values["data.signature_rank"],
            noise_level=self.values["data.noise_level"],
            seed=self.seed,
        )

    def dcf_params(self) -> DCFParams:
        return DCFParams(self.values["eval.p_target"], self.values["eval.c_miss"],
                         self.values["eval.c_fa"])

    def lr_milestones(self) -> tuple[float, ...]:
        return self._milestones
