"""CLI contract: subcommands, exit codes, determinism, artifact wiring."""

import contextlib
import ctypes
import glob
import hashlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevx.checkpoint import metadata_from_text, metadata_to_text, read_container, write_container
from sevx import pipeline
from sevx.cli import main
from sevx.config import RunConfig
from sevx.model import AAMHead, ModelSpec, build_model
from sevx.pipeline import (cell_label, grid_cells, parse_grid, generate_trials,
                           load_corpus, save_checkpoint)
from sevx.se import SEConfig
from sevx.features import Utterance
from sevx.tensor import NumericError


MICRO_CFG = """
seed = 11
model.scale_factor = 0.0625
data.num_speakers = 3
data.utts_per_speaker = 4
data.frames_per_utt = 48
data.chunk_frames = 48
optim.batch_size = 6
optim.epochs = 1
optim.lr = 0.05
se.stages = 1,2
"""


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def write_cfg(tmp_path, text, name="run.cfg"):
    path = str(tmp_path / name)
    with open(path, "w") as f:
        f.write(text)
    return path


@pytest.fixture()
def micro_run(tmp_path):
    out = str(tmp_path / "run")
    cfg = write_cfg(tmp_path, MICRO_CFG + f"\nout = {out}\n")
    assert main(["make-data", "--config", cfg]) == 0
    return cfg, out


class TestExitCodes:
    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "frobnicate = 3\n")
        assert main(["make-data", "--config", cfg]) == 1

    def test_num_speakers_one_is_validation_error(self, tmp_path):
        cfg = write_cfg(tmp_path, f"data.num_speakers = 1\nout = {tmp_path}/o\n")
        assert main(["make-data", "--config", cfg]) == 1

    def test_train_without_corpus_is_missing_artifact(self, tmp_path):
        cfg = write_cfg(tmp_path, f"out = {tmp_path}/empty\n")
        assert main(["train", "--config", cfg]) == 3

    def test_out_of_memory_is_reported_not_raised(self, micro_run, monkeypatch, capsys):
        def fake_training(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.0 GiB for an array")

        monkeypatch.setattr("sevx.cli.run_training", fake_training)
        cfg, _ = micro_run
        assert main(["train", "--config", cfg]) == 1
        assert "error: out of memory: Unable to allocate 11.0 GiB" in capsys.readouterr().err

    def test_sequential_without_threadpoolctl_pins_openblas(self, monkeypatch, capsys):
        from sevx.gradcheck import GradCheckResult

        libs = glob.glob(os.path.join(np.__path__[0], os.pardir, "numpy.libs",
                                      "libscipy_openblas64_-*.so"))
        if not libs:
            pytest.skip("this numpy does not bundle scipy-openblas")
        lib = ctypes.CDLL(libs[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        seen = []

        def suite(seeds):
            seen.append(get())
            return [GradCheckResult("conv2d", 0, True, 0.0, 0.0)]

        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError
        monkeypatch.setattr("sevx.cli.run_suite", suite)
        old = get()
        set_(2)
        try:
            assert main(["--sequential", "gradcheck", "--seeds", "1"]) == 0
            after = get()
        finally:
            set_(old)
        assert seen == [1]       # pinned while the command ran
        assert after == 2        # and restored when it ended
        assert "warning:" not in capsys.readouterr().err

    def test_sequential_without_any_blas_handle_warns(self, monkeypatch, capsys):
        from sevx.gradcheck import GradCheckResult

        def no_library(*args, **kwargs):
            raise OSError("cannot open shared object file")

        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError
        monkeypatch.setattr(ctypes, "CDLL", no_library)
        monkeypatch.setattr("sevx.cli.run_suite",
                            lambda seeds: [GradCheckResult("conv2d", 0, True, 0.0, 0.0)])
        assert main(["--sequential", "gradcheck", "--seeds", "1"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "OPENBLAS_NUM_THREADS=1" in err

    def test_missing_config_file_is_missing_artifact(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 3

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_corrupt_checkpoint_is_missing_artifact_class(self, micro_run):
        cfg, out = micro_run
        bad = os.path.join(out, "bad.sevx")
        with open(bad, "wb") as f:
            f.write(b"JUNKJUNKJUNK")
        assert main(["score", "--config", cfg, "--checkpoint", bad]) == 3

    @pytest.mark.parametrize("key, value", [
        ("model.scale_factor", "abc"), ("seed", "x"), ("se.pooling", "median"),
        ("head.margin", "9"), ("model.stage_blocks", "3,4"), ("head.scale", "nan"),
        ("se.reduction", "x"), ("se.stages", "1,x"), ("head.scale", "big"),
        ("model.num_speakers", "1"), ("model.stage_strides", "1,0,2,2"),
        ("model.stage_channels", "8,8,16,0"), ("model.stem_channels", "0")])
    def test_undecodable_checkpoint_metadata_is_corrupt_artifact(self, tmp_path, capsys,
                                                                  key, value):
        path = str(tmp_path / "ckpt.sevx")
        spec = ModelSpec(scale_factor=1 / 16, num_speakers=3)
        save_checkpoint(path, build_model(spec, SEConfig(), seed=1),
                        AAMHead(3, spec.embedding_dim, seed=1), RunConfig())
        meta, tensors = read_container(path)
        write_container(path, metadata_to_text({**metadata_from_text(meta), key: value}),
                        tensors.items())
        assert main(["extract", "--out", str(tmp_path / "out"), "--checkpoint", path]) == 3
        err = capsys.readouterr().err
        assert f"corrupt artifact: {path}: corrupt metadata: {key}" in err

    def test_repeated_checkpoint_metadata_key_is_corrupt_artifact(self, tmp_path, capsys):
        path = str(tmp_path / "ckpt.sevx")
        spec = ModelSpec(scale_factor=1 / 16, num_speakers=3)
        save_checkpoint(path, build_model(spec, SEConfig(), seed=1),
                        AAMHead(3, spec.embedding_dim, seed=1), RunConfig())
        meta, tensors = read_container(path)
        write_container(path, meta + "se.reduction = 8\n", tensors.items())
        assert main(["extract", "--out", str(tmp_path / "out"), "--checkpoint", path]) == 3
        assert "key 'se.reduction' set twice" in capsys.readouterr().err

    def test_transposed_checkpoint_tensor_is_corrupt_artifact(self, tmp_path, capsys):
        path = str(tmp_path / "ckpt.sevx")
        spec = ModelSpec(scale_factor=1 / 16, num_speakers=3)
        save_checkpoint(path, build_model(spec, SEConfig(), seed=1),
                        AAMHead(3, spec.embedding_dim, seed=1), RunConfig())
        meta, tensors = read_container(path)
        tensors["embed.weight"] = np.ascontiguousarray(tensors["embed.weight"].T)
        write_container(path, meta, tensors.items())
        assert main(["extract", "--out", str(tmp_path / "out"), "--checkpoint", path]) == 3
        assert "tensor 'embed.weight' has shape" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("seed = 1\nse.stages = 1,2\nseed = 2\n", "lines 1 and 3: key 'seed' set twice"),
        ("se.stages = 1,x\n", "se.stages: expected a comma list of int values, got '1,x'"),
        ("se.reduction = x\n", "se.reduction: cannot parse 'x'"),
        ("se.pooling = median\n", "se.pooling must be one of"),
        ("data.num_speakers = 1\n", "data.num_speakers must be >= 2, got 1")])
    def test_bad_config_line_names_its_key(self, tmp_path, capsys, text, message):
        cfg = write_cfg(tmp_path, text + f"out = {tmp_path}/o\n")
        assert main(["make-data", "--config", cfg]) == 1
        assert message in capsys.readouterr().err


class TestMakeData:
    def test_deterministic_feature_cache(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        cfg1 = write_cfg(tmp_path, MICRO_CFG + f"\nout = {out1}\n", "a.cfg")
        cfg2 = write_cfg(tmp_path, MICRO_CFG + f"\nout = {out2}\n", "b.cfg")
        assert main(["make-data", "--config", cfg1]) == 0
        assert main(["make-data", "--config", cfg2]) == 0
        assert sha(os.path.join(out1, "corpus", "features.sevx")) == \
            sha(os.path.join(out2, "corpus", "features.sevx"))

    def test_manifest_line_count(self, micro_run):
        _, out = micro_run
        with open(os.path.join(out, "corpus", "manifest.tsv")) as f:
            assert len(f.read().strip().split("\n")) == 3 * 4

    def test_frozen_config_written(self, micro_run):
        _, out = micro_run
        frozen = os.path.join(out, "configs", "make-data.resolved.cfg")
        assert os.path.exists(frozen)
        text = open(frozen).read()
        assert "seed = 11" in text
        assert "optim.lr = 0.05" in text

    def test_env_seed_overrides(self, tmp_path, monkeypatch):
        out = str(tmp_path / "env")
        cfg = write_cfg(tmp_path, MICRO_CFG + f"\nout = {out}\n")
        monkeypatch.setenv("SEVERIF_SEED", "999")
        assert main(["make-data", "--config", cfg]) == 0
        frozen = open(os.path.join(out, "configs", "make-data.resolved.cfg")).read()
        assert "seed = 999" in frozen


class TestTrainScoreMetricsAnalyze:
    def test_full_chain(self, micro_run):
        cfg, out = micro_run
        assert main(["train", "--config", cfg]) == 0
        ckpt = os.path.join(out, "train", "checkpoint.sevx")
        assert os.path.exists(ckpt)
        log = open(os.path.join(out, "train", "train_log.tsv")).read().strip().split("\n")
        assert log[0] == "step\tepoch\tloss\tlr\twall_time"
        assert len(log) > 1

        assert main(["extract", "--config", cfg]) == 0
        assert os.path.exists(os.path.join(out, "embeddings", "embeddings.sevx"))

        assert main(["score", "--config", cfg]) == 0
        scores = os.path.join(out, "scores", "scores.tsv")
        assert os.path.exists(scores)

        assert main(["metrics", "--config", cfg]) == 0
        report = dict(line.split("\t") for line in
                      open(os.path.join(out, "metrics", "metrics.tsv")).read().strip().split("\n"))
        assert set(report) == {"eer_percent", "min_dcf", "num_target", "num_nontarget"}

        assert main(["analyze", "--config", cfg]) == 0
        report_text = open(os.path.join(out, "analysis", "report.txt")).read()
        assert "across_speaker_dispersion" in report_text
        assert os.path.exists(os.path.join(out, "analysis", "analysis.tsv"))
        assert not os.path.exists(os.path.join(out, "analysis", "profiles.sevx"))

    def test_train_summary_census_line(self, micro_run):
        cfg, out = micro_run
        assert main(["train", "--config", cfg]) == 0
        summary = dict(line.split("\t") for line in
                       open(os.path.join(out, "train", "train_summary.tsv")).read().strip().split("\n"))
        assert summary["params_se"] == summary["params_se_closed_form"]
        assert int(summary["params_total"]) > int(summary["params_se"])

    def test_failed_step_keeps_the_finished_steps_in_the_log(self, tmp_path, monkeypatch):
        out = str(tmp_path / "abort")
        cfg = write_cfg(tmp_path, MICRO_CFG.replace("optim.epochs = 1", "optim.epochs = 2")
                        + f"\nout = {out}\n")
        assert main(["make-data", "--config", cfg]) == 0
        real_step, calls = pipeline.train_step, []

        def step_failing_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise NumericError("loss is nan")
            return real_step(*args)

        monkeypatch.setattr(pipeline, "train_step", step_failing_third)
        assert main(["train", "--config", cfg]) == 2
        log = open(os.path.join(out, "train", "train_log.tsv")).read().splitlines()
        assert log[0] == "step\tepoch\tloss\tlr\twall_time"
        assert [line.split("\t")[:2] for line in log[1:]] == [["1", "0"], ["2", "0"]]
        assert not os.path.exists(os.path.join(out, "train", "checkpoint.sevx"))

    def test_nan_embedding_is_numeric_failure(self, micro_run, capsys):
        cfg, out = micro_run
        assert main(["train", "--config", cfg]) == 0
        ckpt = os.path.join(out, "train", "checkpoint.sevx")
        meta, tensors = read_container(ckpt)
        tensors["embed.weight"][0, 0] = np.nan
        write_container(ckpt, meta, tensors.items())
        for command in ("extract", "score", "analyze"):
            assert main([command, "--config", cfg]) == 2
            assert "non-finite embedding" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "embeddings", "embeddings.sevx"))
        assert not os.path.exists(os.path.join(out, "scores", "scores.tsv"))

    def test_analyze_on_se_free_checkpoint_reports_no_stages(self, tmp_path, capsys):
        out = str(tmp_path / "nose")
        cfg = write_cfg(tmp_path, MICRO_CFG.replace("se.stages = 1,2", "se.stages =")
                        + f"\nout = {out}\n")
        assert main(["make-data", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        rc = main(["analyze", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert "no SE stages to probe" in captured.err


class TestMetricsCommand:
    def test_hand_built_four_trial_file(self, tmp_path, capsys):
        out = str(tmp_path / "m")
        os.makedirs(out)
        trials = str(tmp_path / "trials.txt")
        scores = str(tmp_path / "scores.txt")
        with open(trials, "w") as f:
            f.write("e1 t1 target\ne2 t2 target\ne3 t3 nontarget\ne4 t4 nontarget\n")
        with open(scores, "w") as f:
            f.write("e1 t1 0.8\ne2 t2 0.4\ne3 t3 0.6\ne4 t4 0.2\n")
        cfg = write_cfg(tmp_path, f"out = {out}\n")
        assert main(["metrics", "--config", cfg, "--scores", scores, "--trials", trials]) == 0
        report = capsys.readouterr().out
        assert "eer_percent\t50.000000" in report

    def test_nan_score_is_rejected_not_a_zero_eer(self, tmp_path, capsys):
        trials = str(tmp_path / "trials.txt")
        scores = str(tmp_path / "scores.txt")
        with open(trials, "w") as f:
            f.write("a b target\nc d nontarget\n")
        with open(scores, "w") as f:
            f.write("a b nan\nc d 0.5\n")
        cfg = write_cfg(tmp_path, f"out = {tmp_path}/m\n")
        assert main(["metrics", "--config", cfg, "--scores", scores, "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "eer_percent" not in captured.out
        assert "non-finite score nan for trial a b" in captured.err

    def test_trial_scored_twice_is_usage_error(self, tmp_path, capsys):
        trials = str(tmp_path / "trials.txt")
        scores = str(tmp_path / "scores.txt")
        with open(trials, "w") as f:
            f.write("a b target\nc d nontarget\n")
        with open(scores, "w") as f:
            f.write("a b 0.5\nc d 0.1\na b 0.9\n")
        cfg = write_cfg(tmp_path, f"out = {tmp_path}/m\n")
        assert main(["metrics", "--config", cfg, "--scores", scores, "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "eer_percent" not in captured.out
        assert f"{scores}:3: trial a b scored twice" in captured.err

    def test_missing_scores_is_exit_3(self, tmp_path):
        cfg = write_cfg(tmp_path, f"out = {tmp_path}/mm\n")
        assert main(["metrics", "--config", cfg]) == 3


class TestGradcheckCommand:
    def test_passes_on_fresh_build(self, capsys):
        assert main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "aam_loss" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("argv", [
        ["--seeds", "0"], ["--seeds", "-2"], ["--config", "/nonexistent.cfg"],
        ["--out", "o"], ["--seed", "3"]])
    def test_zero_seeds_and_config_flags_are_usage_errors(self, monkeypatch, capsys, argv):
        def never(seeds):
            raise AssertionError("the suite must not run")

        monkeypatch.setattr("sevx.cli.run_suite", never)
        assert main(["gradcheck"] + argv) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_failure_exits_with_numeric_code(self, monkeypatch, capsys):
        from sevx.gradcheck import GradCheckResult

        def fake_suite(seeds):
            return [GradCheckResult("conv2d", 0, False, 1.0, 1.0)]

        monkeypatch.setattr("sevx.cli.run_suite", fake_suite)
        assert main(["gradcheck", "--seeds", "1"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestAblate:
    def test_grid_parsing_and_labels(self):
        axes = parse_grid("stages=|1|1,2;r=2|4")
        cells = list(grid_cells(axes))
        assert len(cells) == 6
        labels = [cell_label(c) for c in cells]
        assert labels[0] == "stages=none,r=2"
        assert "stages=1,2,r=4" in labels

    def test_bad_axis_rejected(self):
        from sevx.config import ConfigError
        with pytest.raises(ConfigError, match="unknown grid axis"):
            parse_grid("flavor=sweet|sour")

    def test_stage_sweep_rows(self, micro_run):
        cfg, out = micro_run
        assert main(["ablate", "--config", cfg, "--grid", "stages=|1|1,2"]) == 0
        rows = open(os.path.join(out, "ablation", "results.tsv")).read().strip().split("\n")
        assert rows[0].startswith("cell\tstages")
        cells = [r.split("\t")[0] for r in rows[1:]]
        assert cells == ["stages=none", "stages=1", "stages=1,2"]
        for r in rows[1:]:
            fields = r.split("\t")
            assert float(fields[8]) >= 0.0  # eer_percent parses

    def test_pooling_sweep_rows(self, micro_run):
        cfg, out = micro_run
        assert main(["ablate", "--config", cfg, "--grid",
                     "pooling=max|mean|std|mean_std"]) == 0
        rows = open(os.path.join(out, "ablation", "results.tsv")).read().strip().split("\n")
        cells = [r.split("\t")[0] for r in rows[1:]]
        assert cells == ["pooling=max", "pooling=mean", "pooling=std",
                         "pooling=mean_std"]

    def test_infeasible_cell_skipped_with_notice(self, micro_run, capsys):
        cfg, out = micro_run
        # scale 1/16 -> 8 channels at stage 1; r=64 is infeasible
        assert main(["ablate", "--config", cfg, "--grid", "r=64"]) == 0
        assert "skipping infeasible cell" in capsys.readouterr().out
        rows = open(os.path.join(out, "ablation", "results.tsv")).read().strip().split("\n")
        assert len(rows) == 1  # header only

    def test_single_cell_equals_train_score_composition(self, micro_run):
        cfg, out = micro_run
        assert main(["ablate", "--config", cfg, "--grid", "pooling=mean_std"]) == 0
        cell_metrics = os.path.join(out, "ablation", "cells", "pooling=mean_std", "metrics.tsv")
        assert main(["train", "--config", cfg]) == 0
        assert main(["score", "--config", cfg]) == 0
        assert main(["metrics", "--config", cfg]) == 0
        direct = open(os.path.join(out, "metrics", "metrics.tsv")).read()
        assert open(cell_metrics).read() == direct

    def test_failed_cell_keeps_the_finished_rows(self, micro_run, monkeypatch):
        cfg, out = micro_run
        real_training, calls = pipeline.run_training, []

        def training_failing_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("loss is nan")
            return real_training(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_training", training_failing_second)
        assert main(["ablate", "--config", cfg, "--grid", "stages=1|1,2"]) == 2
        rows = open(os.path.join(out, "ablation", "results.tsv")).read().splitlines()
        assert rows[0].startswith("cell\tstages")
        assert [r.split("\t")[0] for r in rows[1:]] == ["stages=1"]

    def test_deleted_cell_reproduces_bit_exactly(self, micro_run):
        cfg, out = micro_run
        grid = "stages=1|1,2"
        assert main(["ablate", "--config", cfg, "--grid", grid]) == 0
        cell_ckpt = os.path.join(out, "ablation", "cells", "stages=1", "checkpoint.sevx")
        first = sha(cell_ckpt)
        os.remove(cell_ckpt)
        assert main(["ablate", "--config", cfg, "--grid", grid]) == 0
        assert sha(cell_ckpt) == first


class TestWavManifest:
    def test_wav_backed_corpus_loads(self, tmp_path):
        import numpy as np
        from sevx.features import write_wav, SAMPLE_RATE

        cdir = str(tmp_path / "wav corpus")  # a manifest path may hold a space
        os.makedirs(cdir)
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        for i, freq in enumerate((300.0, 900.0)):
            write_wav(os.path.join(cdir, f"u{i}.wav"),
                      0.4 * np.sin(2 * np.pi * freq * t))
        with open(os.path.join(cdir, "manifest.tsv"), "w") as f:
            for i in range(2):
                f.write(f"u{i}\tspk{i}\t{os.path.join(cdir, f'u{i}.wav')}\n")
        utts = load_corpus(cdir)
        assert len(utts) == 2
        assert all(u.features.shape[0] == 60 for u in utts)
        assert all(u.features.shape[1] > 0 for u in utts)

    def test_damaged_wav_header_exits_one_without_a_traceback(self, tmp_path):
        from sevx.features import write_wav

        cdir = tmp_path / "out" / "corpus"
        os.makedirs(cdir)
        wav = str(cdir / "u0.wav")
        write_wav(wav, np.zeros(16000))
        with open(wav, "r+b") as f:
            f.seek(19)
            f.write(b"\x54")     # fmt chunk size 0x54000010, past the end of the file
        with open(cdir / "manifest.tsv", "w") as f:
            f.write(f"u0\tspk0\t{wav}\n")
        ckpt = str(tmp_path / "ckpt.sevx")
        spec = ModelSpec(scale_factor=1 / 16, num_speakers=3)
        save_checkpoint(ckpt, build_model(spec, SEConfig(), seed=1),
                        AAMHead(3, spec.embedding_dim, seed=1), RunConfig())
        src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "sevx", "extract", "--out", str(tmp_path / "out"),
             "--checkpoint", ckpt], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert f"{wav}: not a readable WAV file" in proc.stderr

    def test_missing_wav_is_missing_artifact(self, tmp_path):
        from sevx.pipeline import MissingArtifactError

        cdir = str(tmp_path / "corpus")
        os.makedirs(cdir)
        with open(os.path.join(cdir, "manifest.tsv"), "w") as f:
            f.write("u0\tspk0\t/nowhere/u0.wav\n")
        with pytest.raises(MissingArtifactError, match="u0"):
            load_corpus(cdir)


class TestTrialGeneration:
    def _utts(self, n_spk=3, n_utt=4):
        rng = np.random.default_rng(0)
        return [Utterance(f"s{s}_u{u}", f"s{s}", rng.normal(size=(60, 8)).astype(np.float32))
                for s in range(n_spk) for u in range(n_utt)]

    def test_targets_cross_disjoint_halves(self):
        trials = generate_trials(self._utts(), seed=0)
        targets = [t for t in trials if t.label == "target"]
        # 3 speakers x (2 enroll x 2 test)
        assert len(targets) == 12
        for t in targets:
            assert t.enroll_id.split("_")[0] == t.test_id.split("_")[0]
            assert t.enroll_id != t.test_id

    def test_nontargets_balanced_and_cross_speaker(self):
        trials = generate_trials(self._utts(), seed=0)
        non = [t for t in trials if t.label == "nontarget"]
        targets = [t for t in trials if t.label == "target"]
        assert len(non) == len(targets)
        for t in non:
            assert t.enroll_id.split("_")[0] != t.test_id.split("_")[0]

    def test_seeded_determinism(self):
        a = generate_trials(self._utts(), seed=5)
        b = generate_trials(self._utts(), seed=5)
        assert a == b
        c = generate_trials(self._utts(), seed=6)
        assert a != c


# the input files of a micro run, each with the commands that read it
READERS = {"config": ("make-data", "extract", "metrics"), "manifest": ("extract",),
           "trials": ("metrics",), "scores": ("metrics",)}
# (kind, position, byte). Overwritten and inserted bytes are never ASCII digits,
# so a mutated config cannot ask for a corpus larger than the micro one: a valid
# request that would only cost time.
MUTATION = st.tuples(st.sampled_from(["flip", "insert", "delete", "cut"]),
                     st.integers(0, 2**16), st.integers(0, 255).filter(lambda v: not 48 <= v <= 57))


def mutated(data: bytes, mutations) -> bytes:
    for kind, pos, byte in mutations:
        i = pos % (len(data) + 1)
        if kind == "insert":
            data = data[:i] + bytes([byte]) + data[i:]
        elif kind == "cut":
            data = data[:i]
        elif i < len(data):
            data = data[:i] + (bytes([byte]) if kind == "flip" else b"") + data[i + 1:]
    return data


@pytest.fixture(scope="class")
def fuzz_run(tmp_path_factory):
    """({input: path} for READERS, {command: argv}) of a micro corpus, an
    untrained checkpoint and a scores file for its trials."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg, run = write_cfg(root, MICRO_CFG), str(root / "run")
    assert main(["make-data", "--config", cfg, "--out", run]) == 0
    ckpt = str(root / "ckpt.sevx")
    spec = ModelSpec(scale_factor=1 / 16, num_speakers=3)
    save_checkpoint(ckpt, build_model(spec, SEConfig(), seed=1),
                    AAMHead(3, spec.embedding_dim, seed=1), RunConfig())
    corpus = os.path.join(run, "corpus")
    paths = {"config": cfg, "manifest": os.path.join(corpus, pipeline.MANIFEST_NAME),
             "trials": os.path.join(corpus, pipeline.TRIALS_NAME), "scores": str(root / "scores.txt")}
    with open(paths["trials"]) as f, open(paths["scores"], "w") as out:
        for i, line in enumerate(f):
            out.write(" ".join(line.split()[:2]) + f" {np.sin(i):.4f}\n")
    argv = {"make-data": ["make-data", "--config", cfg, "--out", str(root / "made")],
            "extract": ["extract", "--config", cfg, "--out", run, "--checkpoint", ckpt],
            "metrics": ["metrics", "--config", cfg, "--out", run,
                        "--scores", paths["scores"], "--trials", paths["trials"]]}
    return paths, argv


class TestCliFuzz:
    @given(target=st.sampled_from(sorted(READERS)),
           mutations=st.lists(MUTATION, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_mutated_input_ends_in_a_documented_exit_code(self, fuzz_run, target, mutations):
        # bytes overwritten, inserted, deleted or cut off one input file; every
        # command that reads it exits 0, 1 (usage or data) or 3 (artifact),
        # with no exception escaping main and no traceback on stderr
        paths, argv = fuzz_run
        with open(paths[target], "rb") as f:
            pristine = f.read()
        try:
            with open(paths[target], "wb") as f:
                f.write(mutated(pristine, mutations))
            for command in READERS[target]:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv[command])
                assert code in (0, 1, 3), (command, code, err.getvalue())
                assert "Traceback" not in err.getvalue(), err.getvalue()
        finally:
            with open(paths[target], "wb") as f:
                f.write(pristine)
