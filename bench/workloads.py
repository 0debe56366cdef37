"""The three benchmark workloads. Each is a closed loop with one client: an
operation (an SGD step, an utterance, an ablation cell) starts when the
previous one ends. Every workload sets up ``SETUP_REPS`` times, measures for
the requested seconds (with a small floor of operations so its output checks
always have something to check), then checks outputs that need the whole run.

The package is driven only through its public functions, called through the
module objects so that a traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from sevx import analysis, features, metrics, model, pipeline
from sevx.config import RunConfig
from sevx.model import ModelSpec
from sevx.se import SEConfig
from sevx.tensor import Tensor, no_grad

SETUP_REPS = 3
MODEL_SEED = 2024           # the acceptance toy seed; inputs, not weights, follow --seed
CANARY_SEED = 2024

# Tolerances, fixed from the dtype before any run: float32 model outputs may
# differ from the recorded reference by 2**10 float32 ulps (relative); float64
# recomputations of float64 results by 2**4 float64 ulps.
EPS32 = float(np.finfo(np.float32).eps)
EPS64 = float(np.finfo(np.float64).eps)
RTOL32 = 2 ** 10 * EPS32
TOL64 = 2 ** 4 * EPS64

# The acceptance criteria's toy configuration (criteria 6-8).
TOY = {
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

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as f:
        return json.load(f)


class Checks:
    """Output checks, counted per checked operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {'; '.join(problems)}")


@dataclass
class Outcome:
    op_ms: list[float] = field(default_factory=list)
    op_ids: list[str] = field(default_factory=list)
    work: float = 0.0              # work units done by the timed operations
    window_s: float = 0.0          # wall time of the measured loop
    setup_reps_s: list[float] = field(default_factory=list)
    first_op_at: float = 0.0       # perf_counter when the first timed op began
    digests: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


class Context:
    def __init__(self, seed: int, seconds: float, workdir: str, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.checks = Checks()

    def set_op(self, op_id: str) -> None:
        if self.tracer is not None:
            self.tracer.op = op_id


def _digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else str(data).encode()).hexdigest()[:16]


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _setup_reps(ctx: Context, setup) -> tuple[object, list[float]]:
    state, times = None, []
    for k in range(SETUP_REPS):
        ctx.set_op(f"setup{k}")
        state = None            # let the previous rep's state go before building anew
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    return state, times


# ---- train-toy ----------------------------------------------------------------


def aam_loss_bound(num_speakers: int, scale: float) -> float:
    # logits lie in [-s, s], so -log softmax of the target is at most 2s + ln N
    return 2.0 * scale + math.log(num_speakers)


def canary_batches():
    """Two fixed minibatches of the acceptance toy corpus (seed 2024)."""
    cfg = RunConfig({**TOY, "seed": str(CANARY_SEED)})
    utts = features.generate_synthetic_corpus(cfg.synth_spec())
    x, y, _ = pipeline.build_training_set(utts, cfg["data.chunk_frames"])
    b = cfg["optim.batch_size"]
    return [(x[i * b:(i + 1) * b], y[i * b:(i + 1) * b]) for i in range(2)]


def build_toy_trainer(cfg: RunConfig, num_speakers: int):
    spec = cfg.model_spec(num_speakers=num_speakers)
    m = model.build_model(spec, cfg.se_config(), seed=MODEL_SEED)
    head = model.AAMHead(num_speakers, spec.embedding_dim, seed=MODEL_SEED)
    named = list(m.named_parameters()) + list(head.named_parameters())
    opt = model.SGDOptimizer(named, lr=cfg["optim.lr"], momentum=cfg["optim.momentum"],
                             weight_decay=cfg["optim.weight_decay"])
    return m, head, opt


def canary_losses(m, head, opt) -> list[float]:
    return [model.train_step(m, head, Tensor(x), y, opt) for x, y in canary_batches()]


def train_toy(ctx: Context) -> Outcome:
    ref = load_reference()["train_toy_canary_losses"]
    cfg = RunConfig({**TOY, "seed": str(ctx.seed), "out": os.path.join(ctx.workdir, "toy")})
    batch = cfg["optim.batch_size"]

    def setup():
        pipeline.write_corpus(cfg)
        utts = pipeline.load_corpus(pipeline.corpus_dir(cfg))
        x, y, speakers = pipeline.build_training_set(utts, cfg["data.chunk_frames"])
        m, head, opt = build_toy_trainer(cfg, len(speakers))
        # warm-up: the first steps of a process cost about twice a steady step
        losses = canary_losses(m, head, opt)
        ctx.checks.record("canary trajectory", [
            f"step {i + 1} loss {got!r} vs reference {want!r}"
            for i, (got, want) in enumerate(zip(losses, ref)) if not _rel_close(got, want, RTOL32)])
        return x, y, m, head, opt

    out = Outcome()
    (x, y, m, head, opt), out.setup_reps_s = _setup_reps(ctx, setup)
    bound = aam_loss_bound(head.num_speakers, head.scale)
    order = np.random.default_rng([ctx.seed, 1])
    perm = np.empty(0, dtype=np.int64)
    first, losses = None, []
    out.first_op_at = t_start = time.perf_counter()
    while True:
        if len(perm) < batch:
            perm = order.permutation(len(x))
        idx, perm = perm[:batch], perm[batch:]
        xb, yb = x[idx], y[idx]
        if first is None:
            first = (xb, yb, [p.data.copy() for _, p in opt.params])
        op_id = f"op{len(out.op_ms)}"
        ctx.set_op(op_id)
        t0 = time.perf_counter()
        try:
            loss = model.train_step(m, head, Tensor(xb), yb, opt)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            ctx.checks.record(op_id, [f"train_step raised {exc!r}"])
            break
        out.op_ms.append((time.perf_counter() - t0) * 1e3)
        out.op_ids.append(op_id)
        out.work += len(idx)
        losses.append(loss)
        out.digests.append(_digest(np.float32(loss).tobytes()))
        ctx.checks.record(op_id, [] if math.isfinite(loss) and 0.0 <= loss <= bound
                          else [f"loss {loss!r} outside [0, {bound:.3f}]"])
        if time.perf_counter() - t_start >= ctx.seconds and len(out.op_ms) >= 3:
            break
    out.window_s = time.perf_counter() - t_start
    ctx.set_op("post")
    if first is not None and losses:
        loss64 = toy_loss_float64(cfg, head.num_speakers, *first)
        ctx.checks.record("step 1 float64 recompute", [] if _rel_close(losses[0], loss64, RTOL32)
                          else [f"float32 loss {losses[0]!r} vs float64 {loss64!r}"])
    out.details = {"train_chunks_per_s": out.work / out.window_s, "unit_of_work": "chunk",
                   "operation": "SGD step", "losses_head": losses[:8]}
    return out


def toy_loss_float64(cfg: RunConfig, num_speakers: int, xb, yb, params) -> float:
    """The training loss of one batch in float64, from a copy of the float32 weights."""
    spec = cfg.model_spec(num_speakers=num_speakers)
    m = model.build_model(spec, cfg.se_config(), seed=MODEL_SEED, dtype=np.float64)
    head = model.AAMHead(num_speakers, spec.embedding_dim, seed=MODEL_SEED, dtype=np.float64)
    named = list(m.named_parameters()) + list(head.named_parameters())
    for (_, p), value in zip(named, params, strict=True):
        p.data[...] = value
    with no_grad():
        emb = m.forward_embedding(Tensor(xb, dtype=np.float64), train=True)
        return float(model.aam_loss(emb, yb, head).data)


# ---- embed-full ---------------------------------------------------------------

EMBED_SPEAKERS = 5
EMBED_DURATIONS_S = (2.0, 3.0, 4.0, 5.0, 6.0)   # one of each per block of utterances
EMBED_BLOCKS = 8
CANARY_WAV_S = 3.0
EMBED_SPEC = ModelSpec(num_speakers=20)          # paper size: widths 128/128/256/256


def write_embed_checkpoint(path: str) -> None:
    """A checkpoint of the paper-size model with SE on stages 1-2, as initialized."""
    m = model.build_model(EMBED_SPEC, SEConfig(stages=frozenset({1, 2})), seed=MODEL_SEED)
    head = model.AAMHead(EMBED_SPEC.num_speakers, EMBED_SPEC.embedding_dim, seed=MODEL_SEED)
    pipeline.save_checkpoint(path, m, head, RunConfig({"seed": str(MODEL_SEED)}))


def synth_speech(rng: np.random.Generator, voice: dict, seconds: float) -> np.ndarray:
    """A voiced pulse train through the speaker's formant filter, cut into
    syllables by a raised-cosine envelope with near-silent gaps for the VAD."""
    sr = features.SAMPLE_RATE
    n = int(round(seconds * sr))
    f0 = voice["f0"] * (1.0 + 0.05 * np.sin(2 * np.pi * rng.uniform(0.5, 2.0) * np.arange(n) / sr))
    phase = np.cumsum(f0 / sr)
    pulses = np.diff(np.floor(phase), prepend=0.0)
    src = pulses + 0.02 * rng.standard_normal(n)
    voiced = np.convolve(src, voice["filter"], mode="same")
    env = np.full(n, 1e-3)
    pos = 0
    while pos < n:
        syl = int(rng.uniform(0.12, 0.3) * sr)
        gap = int(rng.uniform(0.03, 0.12) * sr)
        seg = min(syl, n - pos)
        env[pos:pos + seg] = np.sin(np.pi * (np.arange(seg) + 0.5) / syl) ** 2 + 1e-3
        pos += syl + gap
    y = voiced * env
    return 0.5 * y / np.max(np.abs(y))


def make_voice(rng: np.random.Generator) -> dict:
    sr = features.SAMPLE_RATE
    t = np.arange(256) / sr
    formants = np.sort(rng.uniform([300, 900, 2000], [900, 2000, 3500]))
    taps = sum(np.exp(-t * rng.uniform(300, 700)) * np.sin(2 * np.pi * f * t) for f in formants)
    return {"f0": rng.uniform(90, 250), "filter": taps / np.max(np.abs(taps))}


def write_embed_corpus(root: str, seed: int):
    """Seeded manifest of WAV files: blocks of one utterance per speaker, each
    block holding every duration once, so any whole number of blocks carries
    the same amount of audio whatever the seed."""
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    voices = [make_voice(rng) for _ in range(EMBED_SPEAKERS)]
    items = []
    for b in range(EMBED_BLOCKS):
        durations = rng.permutation(EMBED_DURATIONS_S)
        for s in rng.permutation(EMBED_SPEAKERS):
            uid = f"spk{s:02d}_utt{b:02d}"
            path = os.path.join(root, uid + ".wav")
            seconds = float(durations[s])
            features.write_wav(path, synth_speech(rng, voices[s], seconds))
            items.append((uid, f"spk{s:02d}", path, seconds))
    canary_rng = np.random.default_rng([CANARY_SEED, 2])
    canary = os.path.join(root, "canary.wav")
    features.write_wav(canary, synth_speech(canary_rng, make_voice(canary_rng), CANARY_WAV_S))
    return items, canary


def embed_one(m, path: str) -> np.ndarray:
    feats = features.featurize_wav(path)
    return model.extract_embedding(m, Tensor(feats[None, None]))


def embedding_problems(emb: np.ndarray, dim: int) -> list[str]:
    if emb.shape != (dim,):
        return [f"embedding shape {emb.shape}"]
    if not np.all(np.isfinite(emb)):
        return ["non-finite embedding"]
    if not np.any(emb):
        return ["zero embedding"]
    return []


def embed_full(ctx: Context) -> Outcome:
    ref = np.asarray(load_reference()["embed_full_canary_embedding"], dtype=np.float64)
    root = os.path.join(ctx.workdir, "embed")
    ckpt = os.path.join(root, "checkpoint.sevx")
    marks = {}

    def setup():
        items, canary = write_embed_corpus(root, ctx.seed)
        write_embed_checkpoint(ckpt)
        marks["load"] = time.perf_counter()
        m, _head, _meta = pipeline.load_checkpoint(ckpt)
        emb = embed_one(m, canary)      # warm-up, checked against the recorded reference
        problems = embedding_problems(emb, EMBED_SPEC.embedding_dim)
        if not problems:
            err = float(np.max(np.abs(emb - ref)))
            if err > RTOL32 * float(np.max(np.abs(ref))):
                problems.append(f"canary embedding max error {err:.3e} vs reference")
        ctx.checks.record("canary embedding", problems)
        return items, m

    out = Outcome()
    (items, m), out.setup_reps_s = _setup_reps(ctx, setup)
    embeddings: dict[str, np.ndarray] = {}
    audio_s = []
    out.first_op_at = t_start = time.perf_counter()
    k = 0
    while True:
        uid, spk, path, seconds = items[k % len(items)]
        op_id = f"op{k}"
        ctx.set_op(op_id)
        t0 = time.perf_counter()
        emb = embed_one(m, path)
        out.op_ms.append((time.perf_counter() - t0) * 1e3)
        out.op_ids.append(op_id)
        out.work += seconds
        audio_s.append(seconds)
        out.digests.append(_digest(emb.astype("<f4").tobytes()))
        ctx.checks.record(op_id, embedding_problems(emb, EMBED_SPEC.embedding_dim))
        embeddings[uid] = emb
        k += 1
        # two whole blocks give every speaker an enrollment and a test utterance
        if time.perf_counter() - t_start >= ctx.seconds and k >= 2 * EMBED_SPEAKERS:
            break
    out.window_s = time.perf_counter() - t_start

    ctx.set_op("post")
    done = [features.Utterance(uid, spk, np.empty(0)) for uid, spk, _, _ in items if uid in embeddings]
    trials = pipeline.generate_trials(done, ctx.seed)
    rows = pipeline.score_trials(embeddings, trials)
    ctx.checks.record("scores", score_problems(rows, embeddings))
    scoreset = metrics.ScoreSet((t, s) for t, (_, _, s) in zip(trials, rows))
    report = metrics.metrics_report(scoreset, metrics.DCFParams())
    ctx.checks.record("eer/minDCF", detection_problems(scoreset, report, metrics.DCFParams()))
    out.details = {
        "operation": "utterance, WAV to embedding", "unit_of_work": "audio second",
        "extract_audio_s_per_s": out.work / out.window_s,
        "eval_wall_s": time.perf_counter() - marks["load"],
        "trials": len(trials), "eer_percent": float(report["eer_percent"]),
        "min_dcf": float(report["min_dcf"]),
        "utt_seconds": audio_s,
    }
    return out


def score_problems(rows, embeddings) -> list[str]:
    """Every score against a float64 cosine of the unit-normalized embeddings."""
    bad = []
    for enroll, test, score in rows:
        a = embeddings[enroll].astype(np.float64)
        b = embeddings[test].astype(np.float64)
        want = float((a / np.sqrt(a @ a)) @ (b / np.sqrt(b @ b)))
        if abs(score - want) > TOL64:
            bad.append(f"{enroll}/{test}: {score!r} vs {want!r}")
    return bad[:3]


def brute_force_detection(tar, non, params) -> tuple[float, float]:
    """EER and minDCF by sweeping every threshold with plain counting."""
    thresholds = sorted(set(tar) | set(non))
    points = [(0.0, 1.0)]                                    # threshold -inf
    for t in thresholds:
        frr = sum(s < t for s in tar) / len(tar)
        far = sum(s >= t for s in non) / len(non)
        points.append((frr, far))
    points.append((1.0, 0.0))                                # threshold +inf
    eer = None
    for (frr0, far0), (frr1, far1) in zip(points, points[1:]):
        if far1 - frr1 <= 0:
            if far1 == frr1:
                eer = frr1
            else:
                d0, d1 = far0 - frr0, far1 - frr1
                eer = frr0 + d0 / (d0 - d1) * (frr1 - frr0)
            break
    pm, cm, cf = params.p_target, params.cost_miss, params.cost_fa
    norm = min(cm * pm, cf * (1 - pm))
    min_dcf = min(cm * pm * frr + cf * (1 - pm) * far for frr, far in points) / norm
    return eer, min_dcf


def detection_problems(scoreset, report, params) -> list[str]:
    tar = scoreset.target_scores.tolist()
    non = scoreset.nontarget_scores.tolist()
    want_eer, want_dcf = brute_force_detection(tar, non, params)
    got_eer, got_dcf = metrics.eer(scoreset), metrics.min_dcf(scoreset, params)
    bad = []
    if abs(got_eer - want_eer) > TOL64:
        bad.append(f"EER {got_eer!r} vs brute force {want_eer!r}")
    if abs(got_dcf - want_dcf) > TOL64 * max(1.0, abs(want_dcf)):
        bad.append(f"minDCF {got_dcf!r} vs brute force {want_dcf!r}")
    if report["eer_percent"] != f"{100.0 * got_eer:.6f}" or report["min_dcf"] != f"{got_dcf:.6f}":
        bad.append(f"report {report} disagrees with eer/min_dcf")
    return bad


# ---- ablate-toy ---------------------------------------------------------------

ABLATION_GRID = "integration=standard|pre|post|identity"
ABLATION_CELLS = 4
ANALYZED_CELL = "integration=standard"


def ablation_config(seed: int, out_dir: str) -> RunConfig:
    # two utterances per speaker: two SGD steps per cell, and one target
    # trial per speaker for the cell's EER
    return RunConfig({**TOY, "seed": str(seed), "out": out_dir, "se.stages": "1,2,3,4",
                      "data.utts_per_speaker": "2", "optim.epochs": "1"})


def cell_problems(cfg: RunConfig, row: dict, cell_dir: str) -> list[str]:
    cell_cfg = cfg.with_overrides(**{"se.integration": row["integration"]})
    spec = cell_cfg.model_spec()
    census = model.se_census(spec, cell_cfg.se_config())
    bad = []
    if int(row["params_se"]) != census:
        bad.append(f"params_se {row['params_se']} != se_census {census}")
    if not 0.0 <= float(row["eer_percent"]) <= 100.0 or float(row["min_dcf"]) < 0.0:
        bad.append(f"eer {row['eer_percent']} / min_dcf {row['min_dcf']} out of range")
    with open(os.path.join(cell_dir, pipeline.TRAIN_LOG_NAME), encoding="utf-8") as f:
        losses = [float(line.split("\t")[2]) for line in f.readlines()[1:]]
    if not losses or not all(math.isfinite(v) for v in losses):
        bad.append(f"training losses {losses}")
    return bad


def read_results(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        header, *lines = f.read().splitlines()
    keys = header.split("\t")
    return [dict(zip(keys, line.split("\t"))) for line in lines]


def ablate_toy(ctx: Context) -> Outcome:
    cfg = ablation_config(ctx.seed, os.path.join(ctx.workdir, "ablate"))
    cdir = pipeline.corpus_dir(cfg)
    abl_dir = os.path.join(cfg.out_dir, "ablation")

    def setup():
        pipeline.write_corpus(cfg)
        utts = pipeline.load_corpus(cdir)
        x, y, speakers = pipeline.build_training_set(utts, cfg["data.chunk_frames"])
        m, head, opt = build_toy_trainer(cfg, len(speakers))
        b = cfg["optim.batch_size"]
        loss = model.train_step(m, head, Tensor(x[:b]), y[:b], opt)     # warm-up
        ctx.checks.record("warm-up step", [] if math.isfinite(loss) else [f"loss {loss!r}"])

    out = Outcome()
    _, out.setup_reps_s = _setup_reps(ctx, setup)
    sweep_s, ablate_s, analyze_s, step_ms = [], [], [], []
    marks: list[float] = []

    def on_log(msg: str) -> None:
        if msg.startswith("cell "):
            marks.append(time.perf_counter())
            ctx.set_op(f"op{len(out.op_ids) + len(marks)}")

    out.first_op_at = t_start = time.perf_counter()
    while True:
        sweep = len(sweep_s)
        marks.clear()
        ctx.set_op(f"op{len(out.op_ids)}")
        t0 = time.perf_counter()
        results = pipeline.run_ablation(cfg, ABLATION_GRID, log_fn=on_log)
        t1 = time.perf_counter()
        ctx.set_op(f"analysis{sweep}")
        report = analyze_cell(ctx, cfg, os.path.join(abl_dir, "cells", ANALYZED_CELL))
        t2 = time.perf_counter()
        rows = read_results(results)
        for i, (row, start, end) in enumerate(zip(rows, [t0] + marks, marks)):
            op_id = f"op{len(out.op_ids)}"
            cell_dir = os.path.join(abl_dir, "cells", pipeline.cell_dirname({"integration": row["integration"]}))
            ctx.checks.record(f"sweep {sweep} {row['cell']}", cell_problems(cfg, row, cell_dir))
            step_ms.extend(read_step_ms(cell_dir))
            out.op_ms.append((end - start) * 1e3)
            out.op_ids.append(op_id)
            out.digests.append(_digest("\t".join(row.values())))
        if len(rows) != ABLATION_CELLS or len(marks) != ABLATION_CELLS:
            ctx.checks.record(f"sweep {sweep}", [f"{len(rows)} result rows, {len(marks)} cells logged"])
        out.work += len(rows)
        out.digests.append(_digest(report))
        sweep_s.append(t2 - t0)
        ablate_s.append(t1 - t0)
        analyze_s.append(t2 - t1)
        if time.perf_counter() - t_start >= ctx.seconds:
            break
    out.window_s = time.perf_counter() - t_start
    ctx.set_op("post")
    out.details = {
        "operation": "ablation cell (train, checkpoint, evaluate)", "unit_of_work": "cell",
        "ablate_wall_s": ablate_s, "analyze_s": analyze_s, "sweeps": len(sweep_s),
        "train_step_ms": step_ms,
    }
    return out


def read_step_ms(cell_dir: str) -> list[float]:
    """Step durations from the training log's cumulative wall-time column."""
    with open(os.path.join(cell_dir, pipeline.TRAIN_LOG_NAME), encoding="utf-8") as f:
        walls = [float(line.split("\t")[4]) for line in f.readlines()[1:]]
    return [1e3 * (b - a) for a, b in zip([0.0] + walls, walls)]


def analyze_cell(ctx: Context, cfg: RunConfig, cell_dir: str) -> str:
    """The excitation analysis on stages 1-4 of one cell's checkpoint."""
    m, _head, _meta = pipeline.load_checkpoint(os.path.join(cell_dir, pipeline.CHECKPOINT_NAME))
    utts = pipeline.load_corpus(pipeline.corpus_dir(cfg))
    records = analysis.capture_excitations(
        m, ((u.utterance_id, u.speaker_id, u.features) for u in utts), stages=[1, 2, 3, 4])
    profiles, dispersion = analysis.across_speaker_profile(records)
    report = analysis.render_report(profiles, dispersion)
    counts = {s: sum(r.stage == s for r in records) for s in (1, 2, 3, 4)}
    bad = [f"stage {s}: {n} records for {len(utts)} utterances"
           for s, n in counts.items() if n != len(utts)]
    if sorted(dispersion) != [1, 2, 3, 4]:
        bad.append(f"dispersion reported for stages {sorted(dispersion)}")
    if not all(np.all((r.channel_weights > 0) & (r.channel_weights < 1)) for r in records):
        bad.append("gate outside (0, 1)")
    ctx.checks.record("analysis", bad)
    return report


WORKLOADS = {"train-toy": train_toy, "embed-full": embed_full, "ablate-toy": ablate_toy}
