"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The toy end-to-end runs
(criteria 6-8) train real models and dominate the runtime; everything is
seeded and executed in sequential mode where bit-exactness is asserted.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from sevx.analysis import across_speaker_profile, capture_excitations, render_report
from sevx.checkpoint import read_container
from sevx.config import TOY_CONFIG, RunConfig
from sevx.gradcheck import CASES, run_suite
from sevx.metrics import DCFParams, eer_from_arrays, min_dcf_from_arrays, read_trials
from sevx.model import (AAMHead, BasicBlock, ModelSpec, SGDOptimizer, build_model, se_census,
                        train_step)
from sevx.pipeline import (corpus_dir, evaluate_checkpoint, load_corpus, run_training,
                           save_checkpoint, write_corpus)
from sevx.se import INTEGRATIONS, SEConfig, SEUnit, se_apply
from sevx.tensor import Tensor, set_sequential


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


# ---- toy configuration (criteria 6-8) ----------------------------------------


def run_toy(out_dir: str, overrides: dict) -> dict:
    """One full criterion-6 run: corpus, training, scoring, metrics."""
    config = RunConfig({**TOY_CONFIG, **overrides, "out": out_dir})
    set_sequential(True)
    try:
        t0 = time.time()
        write_corpus(config)
        utts = load_corpus(corpus_dir(config))
        result = run_training(config, utts, os.path.join(out_dir, "train"))
        trials = read_trials(os.path.join(corpus_dir(config), "trials.tsv"))
        report = evaluate_checkpoint(
            result.checkpoint_path, utts, trials, DCFParams(),
            scores_path=os.path.join(out_dir, "scores.tsv"))
        metrics_path = os.path.join(out_dir, "metrics.tsv")
        with open(metrics_path, "w", encoding="utf-8") as f:
            for k, v in report.items():
                f.write(f"{k}\t{v}\n")
        elapsed = time.time() - t0
    finally:
        set_sequential(False)
    return {
        "config": config,
        "utts": utts,
        "result": result,
        "report": report,
        "elapsed": elapsed,
        "checkpoint": result.checkpoint_path,
        "metrics_path": metrics_path,
    }


@pytest.fixture(scope="session")
def toy_run_a(tmp_path_factory):
    return run_toy(str(tmp_path_factory.mktemp("toy_a")), {})


@pytest.fixture(scope="session")
def toy_run_b(tmp_path_factory):
    return run_toy(str(tmp_path_factory.mktemp("toy_b")), {})


def sha(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---- criterion 1: gradient suite ---------------------------------------------


def test_criterion_1_gradient_suite():
    required = {"conv2d", "batchnorm", "linear", "relu", "sigmoid", "log_softmax",
                "squeeze_max", "squeeze_mean", "squeeze_std", "squeeze_mean_std",
                "excite", "se_apply", "stats_pool_mean", "stats_pool_mean_std",
                "aam_loss", "conv2d_1x1_stride2", "embedder_aam_loss"}
    required |= {f"block_{mode}{down}" for mode in ("se_off",) + INTEGRATIONS
                 for down in ("", "_down")}
    assert required <= set(CASES)
    t0 = time.time()
    results = run_suite(seeds=(0, 1, 2, 3, 4))
    elapsed = time.time() - t0
    failures = [r for r in results if not r.passed]
    # composite gradients too small for central differences to resolve are
    # measured against ATOL, so the relative column stays meaningful
    failures += [r for r in results if (r.op.startswith("block_") or r.op == "embedder_aam_loss")
                 and r.max_rel_err >= 1e-2]
    for r in failures:
        print(r.line())
    announce(
        "criterion 1", not failures and elapsed < 300.0,
        f"{len(results)} finite-difference checks ({len(CASES)} ops x 5 seeds) "
        f"at rtol 1e-3 / atol 1e-5 in {elapsed:.1f}s (< 300s)")


# ---- criterion 2: full-scale per-stage shape conformance ----------------------


def test_criterion_2_full_scale_shapes():
    spec = ModelSpec(num_speakers=10)
    model = build_model(spec, None, seed=0)
    x = Tensor(np.zeros((1, 1, 60, 400), dtype=np.float32))
    outs = model.stage_outputs(x, train=False)
    shapes = [tuple(o.shape[1:]) for o in outs]
    expected = [(128, 60, 400), (128, 30, 200), (256, 15, 100), (256, 8, 50)]
    emb = model.forward_embedding(x, train=False)
    ok = shapes == expected and model.flatten_dim == 2048 and emb.shape == (1, 256)
    announce(
        "criterion 2", ok,
        f"stage shapes {shapes}, flatten {model.flatten_dim}, embedding {emb.shape[1]}")


# ---- criterion 3: SE neutrality and gating -----------------------------------


def _unit(channels, last_bias, pooling="mean", integration="standard"):
    cfg = SEConfig(pooling=pooling, reduction_factor=2, hidden_layers=2, integration=integration)
    unit = SEUnit(channels, cfg, rng=np.random.default_rng(0))
    for layer in unit.fc_layers:
        layer.weight = Tensor(np.zeros_like(layer.weight.data))
        layer.bias = Tensor(np.zeros_like(layer.bias.data))
    unit.fc_layers[-1].bias = Tensor(np.full(channels, last_bias, dtype=np.float32))
    return unit


def test_criterion_3_se_neutrality_and_gating():
    x_arr = np.random.default_rng(1).normal(size=(2, 4, 5, 6)).astype(np.float32)
    half = se_apply(Tensor(x_arr), _unit(4, 0.0)).data
    exactly_half = np.array_equal(half, 0.5 * x_arr)

    max_err = 0.0
    for integration in ("standard", "pre", "post", "identity"):
        block = BasicBlock(4, 4, stride=1, name="b", seed=2)
        wired = BasicBlock(4, 4, stride=1, name="b", seed=2)
        wired.se = _unit(4, 100.0, integration=integration)
        x = Tensor(x_arr)
        base = block.forward(x, train=False).data
        gated = wired.forward(x, train=False).data
        max_err = max(max_err, float(np.abs(base - gated).max()))
    announce(
        "criterion 3", exactly_half and max_err < 1e-4,
        f"zero-init unit scales by exactly 0.5: {exactly_half}; saturated-bias "
        f"max deviation over 4 strategies {max_err:.2e} (< 1e-4)")


# ---- criterion 4: parameter census --------------------------------------------


def test_criterion_4_parameter_census(tmp_path):
    spec = ModelSpec(scale_factor=1 / 16, num_speakers=4)
    config = RunConfig()
    cells = checked = 0
    for stages in ({1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}):
        for r in (2, 4, 8):
            for h in (1, 2, 3, 4):
                for pooling in ("max", "mean", "std", "mean_std"):
                    se_cfg = SEConfig(pooling=pooling, reduction_factor=r,
                                      hidden_layers=h, stages=frozenset(stages))
                    model = build_model(spec, se_cfg, seed=0)
                    head = AAMHead(4, spec.embedding_dim, seed=0)
                    path = str(tmp_path / "cell.sevx")
                    save_checkpoint(path, model, head, config)
                    _, tensors = read_container(path)
                    stored = sum(arr.size for name, arr in tensors.items() if ".se." in name)
                    assert stored == se_census(spec, se_cfg), (stages, r, h, pooling)
                    cells += 1
                    if pooling == "mean_std" and h >= 2:
                        # vs the same cell with mean pooling: + C*(C//r) per unit
                        mean_cfg = SEConfig(pooling="mean", reduction_factor=r,
                                            hidden_layers=h, stages=frozenset(stages))
                        expected_delta = sum(
                            spec.stage_blocks[s - 1]
                            * spec.scaled_stage_channels[s - 1]
                            * (spec.scaled_stage_channels[s - 1] // r)
                            for s in stages)
                        delta = se_census(spec, se_cfg) - se_census(spec, mean_cfg)
                        assert delta == expected_delta, (stages, r, h)
                        checked += 1
    announce(
        "criterion 4", cells == 192,
        f"checkpoint-enumerated SE params match closed form on {cells} grid cells; "
        f"mean_std adds C*C/r per unit on {checked} h>=2 cells")


# ---- criterion 5: metrics oracle equivalence -----------------------------------


def _brute_rates(tar, non, threshold):
    frr = np.count_nonzero(np.asarray(tar) < threshold) / len(tar)
    far = np.count_nonzero(np.asarray(non) >= threshold) / len(non)
    return frr, far


def _brute_eer(tar, non):
    thresholds = [-np.inf] + sorted(set(list(tar) + list(non))) + [np.inf]
    prev = None
    for t in thresholds:
        frr, far = _brute_rates(tar, non, t)
        d = far - frr
        if d == 0.0:
            return frr
        if d < 0.0:
            pf, pa = prev
            lam = (pa - pf) / ((pa - pf) - d)
            return pf + lam * (frr - pf)
        prev = (frr, far)
    raise AssertionError("no crossing")


def _brute_min_dcf(tar, non, params=DCFParams()):
    thresholds = [-np.inf] + sorted(set(list(tar) + list(non))) + [np.inf]
    best = np.inf
    for t in thresholds:
        frr, far = _brute_rates(tar, non, t)
        best = min(best, params.cost_miss * params.p_target * frr
                   + params.cost_fa * (1 - params.p_target) * far)
    return best / min(params.cost_miss * params.p_target,
                      params.cost_fa * (1 - params.p_target))


def test_criterion_5_metrics_oracle():
    hand_eer = eer_from_arrays(np.array([0.8, 0.4]), np.array([0.6, 0.2]))
    hand_dcf = min_dcf_from_arrays(np.array([0.5]), np.array([0.6]))
    rng = np.random.default_rng(777)
    worst = 0.0
    for k in range(200):
        n_tar = int(rng.integers(1, 1001))
        n_non = int(rng.integers(1, 1001))
        shift = rng.uniform(0, 2)
        tar = rng.normal(loc=shift, size=n_tar)
        non = rng.normal(size=n_non)
        if k % 5 == 0:
            tar, non = np.round(tar, 1), np.round(non, 1)
        worst = max(worst,
                    abs(eer_from_arrays(tar, non) - _brute_eer(tar, non)),
                    abs(min_dcf_from_arrays(tar, non) - _brute_min_dcf(tar, non)))
    announce(
        "criterion 5", hand_eer == 0.5 and hand_dcf == 1.0 and worst < 1e-9,
        f"hand cases: EER {hand_eer}, minDCF {hand_dcf}; worst oracle deviation "
        f"over 200 random score sets {worst:.2e} (< 1e-9)")


# ---- criterion 6: toy end-to-end -----------------------------------------------


@pytest.mark.slow
def test_criterion_6_toy_end_to_end(toy_run_a):
    acc = toy_run_a["result"].train_accuracy
    eer = float(toy_run_a["report"]["eer_percent"]) / 100.0
    elapsed = toy_run_a["elapsed"]
    announce(
        "criterion 6 (training)",
        acc >= 0.90 and eer <= 0.05 and elapsed < 900.0,
        f"train accuracy {acc:.3f} (>= 0.90), trial EER {100 * eer:.2f}% (<= 5%), "
        f"wall time {elapsed:.0f}s (< 900s)")


def ablation_grid_configs():
    default = dict(pooling="mean_std", reduction_factor=4, hidden_layers=2,
                   integration="standard", stages=frozenset({1, 2}))
    variants = []
    for stages in ({1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}):
        variants.append({**default, "stages": frozenset(stages)})
    for r in (2, 4, 8):
        variants.append({**default, "reduction_factor": r})
    for h in (1, 2, 3, 4):
        variants.append({**default, "hidden_layers": h})
    for integration in ("standard", "pre", "post", "identity"):
        variants.append({**default, "integration": integration})
    for pooling in ("max", "mean", "std", "mean_std"):
        variants.append({**default, "pooling": pooling})
    unique = []
    for v in variants:
        cfg = SEConfig(**v)
        if cfg not in unique:
            unique.append(cfg)
    return unique


@pytest.mark.slow
def test_criterion_6_overfit_loss_halves_on_every_grid_config():
    spec = ModelSpec(scale_factor=0.125, num_speakers=8, segment_frames=32)
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(8, 1, 60, 32)).astype(np.float32))
    y = rng.integers(0, 8, size=8)
    worst = 0.0
    configs = ablation_grid_configs()
    for se_cfg in configs:
        model = build_model(spec, se_cfg, seed=5)
        head = AAMHead(8, spec.embedding_dim, seed=5)
        opt = SGDOptimizer(list(model.named_parameters()) + list(head.named_parameters()),
                           lr=0.1)
        losses = [train_step(model, head, x, y, opt) for _ in range(50)]
        ratio = losses[-1] / losses[0]
        worst = max(worst, ratio)
        assert ratio <= 0.5, f"{se_cfg}: loss ratio {ratio:.3f}"
    announce(
        "criterion 6 (overfit)", worst <= 0.5,
        f"50-step overfit loss ratio <= 0.5 on all {len(configs)} ablation-grid "
        f"configurations (worst {worst:.3f})")


# ---- criterion 7: excitation analysis pipeline ---------------------------------


@pytest.mark.slow
def test_criterion_7_analysis_pipeline(tmp_path_factory):
    # hook neutrality, bit-exact in sequential mode
    spec = ModelSpec(scale_factor=1 / 16, num_speakers=4)
    probe_model = build_model(spec, SEConfig(stages=frozenset({1, 2, 3, 4})), seed=3)
    feats = np.random.default_rng(0).normal(size=(60, 24)).astype(np.float32)
    set_sequential(True)
    try:
        from sevx.tensor import no_grad
        with no_grad():
            base = probe_model.forward_embedding(Tensor(feats[None, None]), train=False).data.copy()
        capture_excitations(probe_model, [("u", "s", feats)])
        with no_grad():
            after = probe_model.forward_embedding(Tensor(feats[None, None]), train=False).data.copy()
    finally:
        set_sequential(False)
    neutral = np.array_equal(base, after)

    # identical input for every speaker -> dispersion exactly 0
    same = [(f"u{i}", f"s{i}", feats) for i in range(4)]
    _, degenerate = across_speaker_profile(capture_excitations(probe_model, same))
    zero_disp = all(d == 0.0 for d in degenerate.values())

    # short all-stages toy training, then the per-stage dispersion report
    out = str(tmp_path_factory.mktemp("toy_analysis"))
    run = run_toy(out, {"se.stages": "1,2,3,4", "optim.epochs": "6"})
    from sevx.pipeline import load_checkpoint
    model, _head, _meta = load_checkpoint(run["checkpoint"])
    records = capture_excitations(
        model, ((u.utterance_id, u.speaker_id, u.features) for u in run["utts"]))
    profiles, dispersion = across_speaker_profile(records)
    report = render_report(profiles, dispersion)
    has_all_stages = sorted(dispersion) == [1, 2, 3, 4]
    has_comparison = "dispersion(stage 4) > dispersion(stage 1)" in report
    print(report)
    announce(
        "criterion 7",
        neutral and zero_disp and has_all_stages and has_comparison,
        f"hook neutrality bit-exact: {neutral}; degenerate dispersion zero: "
        f"{zero_disp}; dispersion reported for stages {sorted(dispersion)}; "
        f"stage-4 vs stage-1 comparison present (empirical, not gated): "
        f"{has_comparison}")


# ---- criterion 8: determinism ---------------------------------------------------


@pytest.mark.slow
def test_criterion_8_bit_identical_reruns(toy_run_a, toy_run_b):
    ckpt_equal = sha(toy_run_a["checkpoint"]) == sha(toy_run_b["checkpoint"])
    metrics_equal = (open(toy_run_a["metrics_path"]).read()
                     == open(toy_run_b["metrics_path"]).read())
    announce(
        "criterion 8", ckpt_equal and metrics_equal,
        f"two sequential-mode runs: checkpoint SHA-256 equal: {ckpt_equal}, "
        f"metrics reports equal: {metrics_equal}")
