"""Excitation-distribution analysis: capture SE gate vectors during
evaluation and aggregate them across and within speakers, per stage.

The captured quantity is the sigmoid gate (the excitation weights), taken
from the last SE-carrying block of each probed stage by default. Capture is
a pure observer: forward passes with and without it are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import se as se_mod
from .model import SpeakerEmbedder, extract_embedding
from .tensor import Tensor


@dataclass
class ExcitationRecord:
    stage: int
    block_index: int
    utterance_id: str
    speaker_id: str
    channel_weights: np.ndarray  # (C,) in (0, 1)


@dataclass
class SpeakerProfile:
    speaker_id: str
    stage: int
    mean_activation: np.ndarray
    std_activation: np.ndarray
    num_segments: int


def _probed_blocks(model: SpeakerEmbedder, stages, all_blocks: bool):
    """Map unit name -> (stage, block_index) for the probe set."""
    available = {}
    for si, blocks in enumerate(model.stages):
        wired = [(bi, b) for bi, b in enumerate(blocks) if b.se is not None]
        if wired:
            available[si + 1] = wired
    if stages is None:
        stages = sorted(available)
    missing = [s for s in stages if s not in available]
    if not available or missing:
        raise ValueError(
            "no SE stages to probe" if not available
            else f"no SE units in stage(s) {missing}; SE stages present: {sorted(available)}")
    probes = {}
    for s in stages:
        wired = available[s] if all_blocks else available[s][-1:]
        for bi, block in wired:
            probes[block.se.name] = (s, bi)
    return probes


def capture_excitations(model: SpeakerEmbedder, utterances, stages=None,
                        all_blocks: bool = False) -> list[ExcitationRecord]:
    """One record per (utterance, probed block), from the eval forward of
    ``extract_embedding``.

    ``utterances`` yields (utterance_id, speaker_id, features) with features
    shaped (mel, T), T >= 8. By default only the last SE block of each
    SE-carrying stage is probed.
    """
    probes = _probed_blocks(model, stages, all_blocks)
    records: list[ExcitationRecord] = []
    for utt_id, spk_id, feats in utterances:
        sink: list = []
        with se_mod.record_excitations(sink):
            extract_embedding(model, Tensor(np.asarray(feats, dtype=np.float32)[None, None]))
        for name, gates in sink:
            if name in probes:
                stage, bi = probes[name]
                records.append(ExcitationRecord(
                    stage=stage, block_index=bi, utterance_id=utt_id,
                    speaker_id=spk_id, channel_weights=gates.reshape(-1)))
    return records


def across_speaker_profile(records) -> tuple[dict[int, dict[str, SpeakerProfile]], dict[int, float]]:
    """Per-(stage, speaker) mean activation plus a per-stage dispersion scalar.

    Dispersion is the mean over channels of the population std across the
    speaker means: zero when every speaker excites identically.
    """
    by_cell: dict[tuple[int, str], list[np.ndarray]] = {}
    for r in records:
        by_cell.setdefault((r.stage, r.speaker_id), []).append(r.channel_weights)
    stages = sorted({s for s, _ in by_cell})
    speakers = sorted({spk for _, spk in by_cell})
    if len(speakers) < 2:
        raise ValueError(f"across-speaker profile needs >= 2 speakers, got {len(speakers)}")
    profiles: dict[int, dict[str, SpeakerProfile]] = {}
    dispersion: dict[int, float] = {}
    for stage in stages:
        per_spk = {}
        means = []
        for spk in speakers:
            cell = by_cell.get((stage, spk))
            if not cell:
                raise ValueError(f"speaker {spk} has no records for stage {stage}")
            stack = np.stack(cell)
            per_spk[spk] = SpeakerProfile(
                speaker_id=spk, stage=stage,
                mean_activation=stack.mean(axis=0),
                std_activation=stack.std(axis=0),
                num_segments=len(cell))
            means.append(per_spk[spk].mean_activation)
        profiles[stage] = per_spk
        dispersion[stage] = float(np.stack(means).std(axis=0).mean())
    return profiles, dispersion


def render_report(profiles: dict[int, dict[str, SpeakerProfile]],
                  dispersion: dict[int, float]) -> str:
    """Human-readable summary; the stage comparison is an empirical
    observation, not a gate."""
    lines = ["excitation analysis", "==================="]
    for stage in sorted(dispersion):
        per_spk = profiles[stage]
        # each speaker's std_activation is the within-speaker segment spread
        within = float(np.mean([p.std_activation.mean() for p in per_spk.values()]))
        lines.append(
            f"stage {stage}: speakers={len(per_spk)} "
            f"across_speaker_dispersion={dispersion[stage]:.6f} "
            f"within_speaker_std={within:.6f}")
    stages = sorted(dispersion)
    if stages and stages[0] == 1 and stages[-1] >= 2:
        top = stages[-1]
        verdict = "holds" if dispersion[top] > dispersion[1] else "does not hold"
        lines.append(
            f"empirical expectation dispersion(stage {top}) > dispersion(stage 1): "
            f"{verdict} ({dispersion[top]:.6f} vs {dispersion[1]:.6f})")
        lines.append(
            "note: low stages are expected to excite in a class-agnostic way and top "
            "stages in a speaker-specific way; this is reported, not asserted.")
    return "\n".join(lines) + "\n"


def profiles_to_tsv(profiles: dict[int, dict[str, SpeakerProfile]]) -> str:
    """Flat per-channel dump: stage, speaker, channel, mean, std.

    Channels are listed in descending order of that stage's overall mean
    activation; this sort is presentational only (the channel column keeps
    the true index).
    """
    rows = ["stage\tspeaker\tchannel\tmean\tstd"]
    for stage in sorted(profiles):
        per_spk = profiles[stage]
        overall = np.mean([p.mean_activation for p in per_spk.values()], axis=0)
        order = np.argsort(-overall)
        for spk in sorted(per_spk):
            p = per_spk[spk]
            for ch in order:
                rows.append(
                    f"{stage}\t{spk}\t{int(ch)}\t{p.mean_activation[ch]:.6f}\t"
                    f"{p.std_activation[ch]:.6f}")
    return "\n".join(rows) + "\n"


def profiles_to_tensors(profiles: dict[int, dict[str, SpeakerProfile]]):
    """(name, matrix) pairs: per-stage channels x speakers mean activations."""
    out = []
    for stage in sorted(profiles):
        per_spk = profiles[stage]
        speakers = sorted(per_spk)
        mat = np.stack([per_spk[s].mean_activation for s in speakers], axis=1)
        out.append((f"stage{stage}.mean_activations", mat.astype(np.float32)))
    return out
