"""End-to-end orchestration: corpus materialization, the training loop,
trial generation, scoring, and the ablation sweep. The CLI is a thin shell
over these functions so every experiment is reproducible in-process too."""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import (ContainerError, metadata_from_text, metadata_to_text, read_container,
                         read_rows, value_from_text, write_container, write_rows)
from .config import ConfigError, RunConfig
from .features import Utterance, chunk, featurize_wav, generate_synthetic_corpus
from .metrics import (NONTARGET, TARGET, DCFParams, ScoreSet, Trial, metrics_report, read_trials,
                      unit_rows, write_scores, write_trials)
from .model import (AAMHead, ModelSpec, SGDOptimizer, SpeakerEmbedder, build_model,
                    embed_segments, se_census, train_step)
from .nn import rng_for
from .se import SEConfig
from .tensor import Tensor


class MissingArtifactError(FileNotFoundError):
    """A required input (corpus, checkpoint, scores...) is not on disk."""


MANIFEST_NAME = "manifest.tsv"
FEATURES_NAME = "features.sevx"
TRIALS_NAME = "trials.tsv"
CHECKPOINT_NAME = "checkpoint.sevx"
TRAIN_LOG_NAME = "train_log.tsv"
TRAIN_SUMMARY_NAME = "train_summary.tsv"
SCORES_NAME = "scores.tsv"
METRICS_NAME = "metrics.tsv"


# ---- corpus -----------------------------------------------------------------


def corpus_dir(config: RunConfig) -> str:
    return os.path.join(config.out_dir, "corpus")


def write_corpus(config: RunConfig) -> str:
    """Materialize the synthetic corpus: manifest, feature cache, trial list."""
    cdir = corpus_dir(config)
    utts = generate_synthetic_corpus(config.synth_spec())
    cache_path = os.path.join(cdir, FEATURES_NAME)
    meta = {
        "corpus.kind": "synthetic",
        "corpus.num_speakers": str(config["data.num_speakers"]),
        "corpus.utts_per_speaker": str(config["data.utts_per_speaker"]),
        "corpus.seed": str(config.seed),
    }
    write_container(cache_path, metadata_to_text(meta),
                    ((u.utterance_id, u.features) for u in utts))
    write_rows(os.path.join(cdir, MANIFEST_NAME),
               ((u.utterance_id, u.speaker_id, cache_path) for u in utts))
    trials = generate_trials(utts, config.seed)
    write_trials(os.path.join(cdir, TRIALS_NAME), trials)
    return cdir


def load_corpus(cdir: str) -> list[Utterance]:
    """Utterances from a manifest: cached features where present, otherwise
    the path column must name a WAV file to featurize on the fly."""
    manifest = os.path.join(cdir, MANIFEST_NAME)
    cache = os.path.join(cdir, FEATURES_NAME)
    if not os.path.exists(manifest):
        raise MissingArtifactError(
            f"corpus not found under {cdir} (run make-data first)")
    tensors = read_container(cache)[1] if os.path.exists(cache) else {}

    def utterance(utt_id: str, spk_id: str, path: str) -> Utterance:
        if utt_id in tensors:
            return Utterance(utt_id, spk_id, tensors[utt_id])
        if path.endswith(".wav") and os.path.exists(path):
            return Utterance(utt_id, spk_id, featurize_wav(path))
        raise MissingArtifactError(f"{manifest}: utterance {utt_id!r} is neither cached "
                                   f"nor backed by a WAV file at {path!r}")

    return read_rows(manifest, 3, utterance)


def generate_trials(utts, seed: int) -> list[Trial]:
    """Same-speaker pairs across disjoint utterance halves as targets, plus an
    equal count of seeded random cross-speaker pairs as nontargets."""
    by_spk: dict[str, list[str]] = {}
    for u in utts:
        by_spk.setdefault(u.speaker_id, []).append(u.utterance_id)
    enroll: dict[str, list[str]] = {}
    test: dict[str, list[str]] = {}
    for spk, ids in sorted(by_spk.items()):
        ids = sorted(ids)
        half = (len(ids) + 1) // 2
        enroll[spk], test[spk] = ids[:half], ids[half:]
    targets = [
        Trial(e, t, TARGET)
        for spk in sorted(by_spk)
        for e in enroll[spk]
        for t in test[spk]
    ]
    speakers = sorted(by_spk)
    rng = rng_for(seed, "trials")
    nontargets: list[Trial] = []
    seen = set()
    attempts = 0
    while len(nontargets) < len(targets) and attempts < 100 * len(targets) + 1000:
        attempts += 1
        a, b = rng.choice(len(speakers), size=2, replace=False)
        spk_a, spk_b = speakers[a], speakers[b]
        if not enroll[spk_a] or not test[spk_b]:
            continue
        e = enroll[spk_a][rng.integers(len(enroll[spk_a]))]
        t = test[spk_b][rng.integers(len(test[spk_b]))]
        if (e, t) in seen:
            continue
        seen.add((e, t))
        nontargets.append(Trial(e, t, NONTARGET))
    return targets + nontargets


# ---- training ---------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint_path: str
    train_accuracy: float
    params_total: int
    params_se: int


def build_training_set(utts, chunk_frames: int):
    """Fixed-order chunk tensor (n, 1, mel, chunk_frames) and label array."""
    speakers = sorted({u.speaker_id for u in utts})
    spk_index = {s: i for i, s in enumerate(speakers)}
    xs, ys = [], []
    for u in sorted(utts, key=lambda u: u.utterance_id):
        for c in chunk(u.features, length=chunk_frames):
            xs.append(c)
            ys.append(spk_index[u.speaker_id])
    if not xs:
        raise ValueError("no training chunks: utterances shorter than half a chunk")
    x = np.stack(xs)[:, None].astype(np.float32)
    y = np.asarray(ys, dtype=np.int64)
    return x, y, speakers


def lr_at(step: int, total_steps: int, base_lr: float, milestones, factor: float) -> float:
    passed = sum(1 for m in milestones if step >= int(m * total_steps))
    return base_lr * (factor ** passed)


def train_accuracy(model: SpeakerEmbedder, head: AAMHead, x: np.ndarray,
                   y: np.ndarray) -> float:
    """Fraction of chunks ``x`` (n, 1, mel, T) whose closest class row, by
    cosine, is their label ``y``. The chunks are embedded by ``embed_segments``,
    several per eval forward, each with the bytes it gives alone."""
    emb = embed_segments(model, x[:, 0])
    cosines = unit_rows(emb) @ unit_rows(head.class_weights.data).T
    return int((cosines.argmax(axis=1) == y).sum()) / len(x)


def run_training(config: RunConfig, utts, run_dir: str,
                 log_fn=None) -> TrainResult:
    x, y, speakers = build_training_set(utts, config["data.chunk_frames"])
    spec = config.model_spec(num_speakers=len(speakers))
    se_cfg = config.se_config()
    model = build_model(spec, se_cfg, seed=config.seed)
    head = AAMHead(len(speakers), spec.embedding_dim, seed=config.seed)
    named = list(model.named_parameters()) + list(head.named_parameters())
    opt = SGDOptimizer(named, lr=config["optim.lr"], momentum=config["optim.momentum"],
                       weight_decay=config["optim.weight_decay"])

    params_total = model.parameter_count() + head.class_weights.size
    params_se = model.se_parameter_count()
    if log_fn:
        log_fn(f"training: {len(x)} chunks, {len(speakers)} speakers, "
               f"params_total={params_total} params_se={params_se}")

    batch_size = config["optim.batch_size"]
    epochs = config["optim.epochs"]
    steps_per_epoch = max(1, (len(x) + batch_size - 1) // batch_size)
    total_steps = epochs * steps_per_epoch
    milestones = config.lr_milestones()
    order_rng = rng_for(config.seed, "batch-order")

    t0 = time.time()
    step = 0
    loss = float("nan")
    log = [("step", "epoch", "loss", "lr", "wall_time")]
    try:
        for epoch in range(epochs):
            perm = order_rng.permutation(len(x))
            for i in range(0, len(x), batch_size):
                idx = perm[i:i + batch_size]
                opt.lr = lr_at(step, total_steps, config["optim.lr"], milestones,
                               config["optim.lr_decay_factor"])
                loss = train_step(model, head, Tensor(x[idx]), y[idx], opt)
                step += 1
                log.append((step, epoch, f"{loss:.6f}", f"{opt.lr:.6g}", f"{time.time() - t0:.3f}"))
            if log_fn:
                log_fn(f"epoch {epoch + 1}/{epochs} loss={loss:.4f}")
    finally:
        write_rows(os.path.join(run_dir, TRAIN_LOG_NAME), log)

    acc = train_accuracy(model, head, x, y)
    ckpt_path = os.path.join(run_dir, CHECKPOINT_NAME)
    save_checkpoint(ckpt_path, model, head, config)
    write_rows(os.path.join(run_dir, TRAIN_SUMMARY_NAME), [
        ("params_total", params_total),
        ("params_se", params_se),
        ("params_se_closed_form", se_census(spec, se_cfg)),
        ("final_loss", f"{loss:.6f}"),
        ("train_accuracy", f"{acc:.6f}"),
        ("steps", step)])
    if log_fn:
        log_fn(f"final train accuracy {acc:.3f} after {step} steps")
    return TrainResult(ckpt_path, acc, params_total, params_se)


# ---- checkpointing ----------------------------------------------------------


def save_checkpoint(path: str, model: SpeakerEmbedder, head: AAMHead,
                    config: RunConfig) -> None:
    meta: dict[str, str] = {}
    meta.update(model.spec.to_metadata())
    meta.update(model.se_config.to_metadata())
    meta["head.scale"] = repr(head.scale)
    meta["head.margin"] = repr(head.margin)
    meta["seed"] = str(config.seed)
    write_container(path, metadata_to_text(meta), _checkpoint_arrays(model, head))


def _checkpoint_arrays(model: SpeakerEmbedder, head: AAMHead):
    """(name, live array) of everything a checkpoint stores, in container
    order: model parameters, then batch-norm buffers, then the head."""
    yield from ((name, p.data) for name, p in model.named_parameters())
    yield from model.named_buffers()
    yield from ((name, p.data) for name, p in head.named_parameters())


def load_checkpoint(path: str) -> tuple[SpeakerEmbedder, AAMHead, dict[str, str]]:
    """Model, head and metadata; metadata or tensors that do not fit raise ``ContainerError``."""
    if not os.path.exists(path):
        raise MissingArtifactError(f"checkpoint not found: {path}")
    meta_text, tensors = read_container(path)
    try:
        meta = metadata_from_text(meta_text)
        spec = ModelSpec.from_metadata(meta)
        seed = value_from_text("seed", meta.get("seed", "0"), int)
        model = build_model(spec, SEConfig.from_metadata(meta), seed=seed)
        # a missing head key takes AAMHead's default
        head = AAMHead(spec.num_speakers, spec.embedding_dim, seed=seed, **{
            name: value_from_text(f"head.{name}", meta[f"head.{name}"], float)
            for name in ("scale", "margin") if f"head.{name}" in meta})
    except ValueError as exc:
        raise ContainerError(f"{path}: corrupt metadata: {exc}") from None
    arrays = list(_checkpoint_arrays(model, head))
    expected = {name for name, _ in arrays}
    stored = set(tensors)
    if expected != stored:
        missing = sorted(expected - stored)[:5]
        extra = sorted(stored - expected)[:5]
        raise ContainerError(
            f"{path}: tensor names do not match the model "
            f"(missing {missing}, unexpected {extra})")
    for name, arr in arrays:
        value = tensors[name]
        if value.shape != arr.shape:
            raise ContainerError(
                f"{path}: tensor {name!r} has shape {value.shape}, "
                f"the model expects shape {arr.shape}")
        arr[...] = value
    return model, head, meta


# ---- scoring ----------------------------------------------------------------


def extract_embeddings(model: SpeakerEmbedder, utts) -> dict[str, np.ndarray]:
    """Utterance id -> embedding, by ``embed_segments`` over the whole utterances."""
    utts = list(utts)
    return dict(zip([u.utterance_id for u in utts],
                    embed_segments(model, [u.features for u in utts])))


def score_trials(embeddings: dict[str, np.ndarray], trials) -> list[tuple[str, str, float]]:
    """(enroll, test, cosine) per trial: every embedding a trial names is
    normalised once, then each trial is one row-wise dot."""
    ids = list(dict.fromkeys(u for t in trials for u in (t.enroll_id, t.test_id)))
    for utt in ids:
        if utt not in embeddings:
            raise MissingArtifactError(f"no embedding for utterance {utt!r}")
    if not ids:
        return []
    unit = dict(zip(ids, unit_rows([embeddings[u] for u in ids])))
    enroll = np.stack([unit[t.enroll_id] for t in trials])
    test = np.stack([unit[t.test_id] for t in trials])
    scores = (enroll * test).sum(axis=1)
    return [(t.enroll_id, t.test_id, float(s)) for t, s in zip(trials, scores)]


def evaluate_checkpoint(ckpt_path: str, utts, trials, dcf: DCFParams,
                        scores_path: str) -> dict[str, str]:
    """Score ``trials`` with the checkpoint, write the scores to ``scores_path``
    and return the EER/minDCF report."""
    model, _head, _meta = load_checkpoint(ckpt_path)
    needed_ids = {t.enroll_id for t in trials} | {t.test_id for t in trials}
    needed = [u for u in utts if u.utterance_id in needed_ids]
    emb = extract_embeddings(model, needed)
    rows = score_trials(emb, trials)
    write_scores(scores_path, rows)
    scoreset = ScoreSet((t, score) for t, (_e, _t, score) in zip(trials, rows))
    return metrics_report(scoreset, dcf)


# ---- ablation ---------------------------------------------------------------

GRID_AXES = {
    "stages": "se.stages",
    "r": "se.reduction",
    "h": "se.hidden_layers",
    "integration": "se.integration",
    "pooling": "se.pooling",
}


def parse_grid(text: str) -> dict[str, list[str]]:
    """Grid syntax: ``axis=v1|v2|...;axis2=...`` over stages/r/h/integration/pooling."""
    axes: dict[str, list[str]] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        axis, _, values = part.partition("=")
        axis = axis.strip()
        if axis not in GRID_AXES:
            raise ConfigError(
                f"unknown grid axis {axis!r}; expected one of {sorted(GRID_AXES)}")
        axes[axis] = [v.strip() for v in values.split("|")]
    if not axes:
        raise ConfigError("empty ablation grid")
    return axes


def grid_cells(axes: dict[str, list[str]]):
    """Deterministic cross product of the grid axes."""
    names = [a for a in GRID_AXES if a in axes]
    for combo in itertools.product(*(axes[a] for a in names)):
        yield dict(zip(names, combo))


def cell_label(cell: dict[str, str]) -> str:
    parts = []
    for axis in GRID_AXES:
        if axis in cell:
            value = cell[axis] if cell[axis] != "" else "none"
            parts.append(f"{axis}={value}")
    return ",".join(parts)


def cell_dirname(cell: dict[str, str]) -> str:
    return cell_label(cell).replace(",", "_")


def apply_cell(config: RunConfig, cell: dict[str, str]) -> RunConfig:
    overrides = {GRID_AXES[axis]: value for axis, value in cell.items()}
    return config.with_overrides(**overrides)


def cell_feasible(config: RunConfig) -> tuple[bool, str]:
    se_cfg = config.se_config()
    if not se_cfg.enabled:
        return True, ""
    spec = config.model_spec()
    min_ch = min(spec.scaled_stage_channels[s - 1] for s in se_cfg.stages)
    if se_cfg.reduction_factor > min_ch:
        return False, (f"reduction {se_cfg.reduction_factor} exceeds the smallest "
                       f"SE stage width {min_ch}")
    return True, ""


def run_ablation(config: RunConfig, grid_text: str, log_fn=None) -> str:
    """Train and evaluate every grid cell with a shared seed, corpus, and
    batch order; emit one results row per cell."""
    axes = parse_grid(grid_text)
    utts = load_corpus(corpus_dir(config))
    trials = read_trials(os.path.join(corpus_dir(config), TRIALS_NAME))
    abl_dir = os.path.join(config.out_dir, "ablation")
    results_path = os.path.join(abl_dir, "results.tsv")
    rows = [("cell", "stages", "r", "h", "integration", "pooling", "params_total", "params_se",
             "eer_percent", "min_dcf")]
    try:
        for cell in grid_cells(axes):
            label = cell_label(cell)
            cell_cfg = apply_cell(config, cell)
            ok, why = cell_feasible(cell_cfg)
            if not ok:
                if log_fn:
                    log_fn(f"skipping infeasible cell {label}: {why}")
                continue
            cdir = os.path.join(abl_dir, "cells", cell_dirname(cell))
            result = run_training(cell_cfg, utts, cdir, log_fn=log_fn)
            report = evaluate_checkpoint(
                result.checkpoint_path, utts, trials, config.dcf_params(),
                scores_path=os.path.join(cdir, SCORES_NAME))
            write_rows(os.path.join(cdir, METRICS_NAME), report.items())
            se_cfg = cell_cfg.se_config()
            rows.append((
                label,
                se_cfg.to_metadata()["se.stages"] or "-",
                se_cfg.reduction_factor,
                se_cfg.hidden_layers,
                se_cfg.integration,
                se_cfg.pooling,
                result.params_total,
                result.params_se,
                report["eer_percent"],
                report["min_dcf"],
            ))
            if log_fn:
                log_fn(f"cell {label}: eer={report['eer_percent']}% "
                       f"min_dcf={report['min_dcf']}")
    finally:
        write_rows(results_path, rows)
    return results_path
