"""Excitation-distribution analysis: capture SE gate vectors during
evaluation and aggregate them across and within speakers, per stage.

The captured quantity is the sigmoid gate (the excitation weights), taken
from the last SE-carrying block of each probed stage: one unit per stage,
read as a speaker x channel table. Capture is a pure observer: forward
passes with and without it are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import se as se_mod
from .model import SpeakerEmbedder, eval_forwards


@dataclass
class ExcitationRecord:
    stage: int
    utterance_id: str
    speaker_id: str
    channel_weights: np.ndarray  # (C,) in (0, 1)


@dataclass(frozen=True)
class StageProfile:
    """The gates of one stage's probed SE unit, one row per speaker.

    ``mean`` and ``std`` are (S, C): each speaker's mean gate and its
    population std over that speaker's segments; row i belongs to
    ``speakers[i]``, who contributed ``segments[i]`` records."""
    speakers: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    segments: tuple[int, ...]


def _probes(model: SpeakerEmbedder, stages) -> dict[str, int]:
    """Unit name -> stage of the last SE-carrying block of each probed stage."""
    last = {}
    for si, blocks in enumerate(model.stages):
        wired = [b for b in blocks if b.se is not None]
        if wired:
            last[si + 1] = wired[-1].se.name
    if stages is None:
        stages = sorted(last)
    missing = [s for s in stages if s not in last]
    if not last or missing:
        raise ValueError(
            "no SE stages to probe" if not last
            else f"no SE units in stage(s) {missing}; SE stages present: {sorted(last)}")
    return {last[s]: s for s in stages}


def capture_excitations(model: SpeakerEmbedder, utterances, stages=None) -> list[ExcitationRecord]:
    """One record per (utterance, probed stage), in utterance order, from the
    batched eval forwards of ``model.eval_forwards``.

    ``utterances`` yields (utterance_id, speaker_id, features) with features
    shaped (mel, T), T >= 8. Each probed stage (default: every SE-carrying
    stage) is read at its last SE block; row i of a forward's (n, C) gates is
    its i-th segment's, with the bytes that segment gives alone.
    """
    probes = _probes(model, stages)
    utterances = list(utterances)
    gates_of: list[list] = [[] for _ in utterances]
    sink: list = []
    with se_mod.record_excitations(sink):
        for idx, _ in eval_forwards(model, [feats for _, _, feats in utterances]):
            for name, gates in sink:
                if name in probes:
                    for i, row in zip(idx, gates):
                        gates_of[i].append((probes[name], row))
            sink.clear()
    return [ExcitationRecord(stage=stage, utterance_id=utt_id, speaker_id=spk_id,
                             channel_weights=row)
            for (utt_id, spk_id, _), rows in zip(utterances, gates_of) for stage, row in rows]


def across_speaker_profile(records) -> tuple[dict[int, StageProfile], dict[int, float]]:
    """Per-stage speaker profiles plus a per-stage dispersion scalar.

    Dispersion is the mean over channels of the population std across the
    speaker means: zero when every speaker excites identically.
    """
    by_cell: dict[tuple[int, str], list[np.ndarray]] = {}
    for r in records:
        by_cell.setdefault((r.stage, r.speaker_id), []).append(r.channel_weights)
    stages = sorted({s for s, _ in by_cell})
    speakers = tuple(sorted({spk for _, spk in by_cell}))
    if len(speakers) < 2:
        raise ValueError(f"across-speaker profile needs >= 2 speakers, got {len(speakers)}")
    profiles: dict[int, StageProfile] = {}
    dispersion: dict[int, float] = {}
    for stage in stages:
        cells = []
        for spk in speakers:
            cell = by_cell.get((stage, spk))
            if not cell:
                raise ValueError(f"speaker {spk} has no records for stage {stage}")
            cells.append(np.stack(cell))
        profile = StageProfile(
            speakers=speakers,
            mean=np.stack([c.mean(axis=0) for c in cells]),
            std=np.stack([c.std(axis=0) for c in cells]),
            segments=tuple(len(c) for c in cells))
        profiles[stage] = profile
        dispersion[stage] = float(profile.mean.std(axis=0).mean())
    return profiles, dispersion


def render_report(profiles: dict[int, StageProfile], dispersion: dict[int, float]) -> str:
    """Human-readable summary; the stage comparison is an empirical
    observation, not a gate."""
    lines = ["excitation analysis", "==================="]
    for stage in sorted(dispersion):
        profile = profiles[stage]
        # each speaker's std row is the within-speaker segment spread
        within = float(profile.std.mean(axis=1).mean())
        lines.append(
            f"stage {stage}: speakers={len(profile.speakers)} "
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


def profiles_to_tsv(profiles: dict[int, StageProfile]) -> str:
    """Flat per-channel dump: stage, speaker, channel, mean, std.

    Channels are listed in descending order of that stage's overall mean
    activation; this sort is presentational only (the channel column keeps
    the true index).
    """
    rows = ["stage\tspeaker\tchannel\tmean\tstd"]
    for stage in sorted(profiles):
        p = profiles[stage]
        order = np.argsort(-p.mean.mean(axis=0))
        for i, spk in enumerate(p.speakers):
            for ch in order:
                rows.append(f"{stage}\t{spk}\t{int(ch)}\t{p.mean[i, ch]:.6f}\t{p.std[i, ch]:.6f}")
    return "\n".join(rows) + "\n"
