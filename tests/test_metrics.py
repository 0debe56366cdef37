"""Detection metrics against an independent brute-force threshold oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevx.metrics import (DCFParams, ScoreSet, Trial, eer, eer_from_arrays, metrics_report,
                          min_dcf, min_dcf_from_arrays, read_scores, read_trials,
                          score_set_from_files, unit_rows, write_scores, write_trials)
from sevx.pipeline import MissingArtifactError, score_trials
from sevx.tensor import NumericError


# ---- independent oracle: enumerate every threshold, recount from scratch ----


def brute_force_rates(tar, non, threshold):
    # direct recount at this one threshold (no sorting, no cumulative sums)
    tar = np.asarray(tar)
    non = np.asarray(non)
    frr = np.count_nonzero(tar < threshold) / len(tar)
    far = np.count_nonzero(non >= threshold) / len(non)
    return frr, far


def brute_force_eer(tar, non):
    thresholds = [-np.inf] + sorted(set(list(tar) + list(non))) + [np.inf]
    points = [brute_force_rates(tar, non, t) for t in thresholds]
    prev = None
    for frr, far in points:
        d = far - frr
        if d == 0.0:
            return frr
        if d < 0.0:
            pf, pa = prev
            dprev = pa - pf
            lam = dprev / (dprev - d)
            return pf + lam * (frr - pf)
        prev = (frr, far)
    raise AssertionError("no crossing found")


def brute_force_min_dcf(tar, non, params=DCFParams()):
    thresholds = [-np.inf] + sorted(set(list(tar) + list(non))) + [np.inf]
    best = np.inf
    for t in thresholds:
        frr, far = brute_force_rates(tar, non, t)
        dcf = params.cost_miss * params.p_target * frr + params.cost_fa * (1 - params.p_target) * far
        best = min(best, dcf)
    return best / min(params.cost_miss * params.p_target, params.cost_fa * (1 - params.p_target))


def make_scoreset(tar, non):
    items = [(Trial(f"e{i}", f"t{i}", "target"), s) for i, s in enumerate(tar)]
    items += [(Trial(f"e{i}", f"x{i}", "nontarget"), s) for i, s in enumerate(non)]
    return ScoreSet(items)


def cosine(a, b):
    u = unit_rows([a, b])
    return float(u[0] @ u[1])


class TestCosine:
    def test_self_similarity(self):
        e = np.random.default_rng(0).normal(size=256)
        assert cosine(e, e) == pytest.approx(1.0)

    def test_antipodal(self):
        e = np.random.default_rng(1).normal(size=256)
        assert cosine(e, -e) == pytest.approx(-1.0)

    def test_45_degrees(self):
        a = np.zeros(256)
        b = np.zeros(256)
        a[0] = 1.0
        b[0] = b[1] = 1.0
        assert cosine(a, b) == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_zero_norm_rejected(self):
        with pytest.raises(NumericError, match="zero-norm row 0"):
            unit_rows([np.zeros(4), np.ones(4)])

    def test_rows_are_float64_unit_norm(self):
        rows = unit_rows(np.random.default_rng(2).normal(size=(5, 16)).astype(np.float32))
        assert rows.dtype == np.float64
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=1e-15)


class TestScoreTrials:
    def _embeddings(self, n=6, dim=256):
        rng = np.random.default_rng(3)
        return {f"u{i}": rng.normal(size=dim).astype(np.float32) for i in range(n)}

    def test_scores_match_the_per_pair_float64_cosine(self):
        emb = self._embeddings()
        trials = [Trial(f"u{i}", f"u{j}", "target" if i == j else "nontarget")
                  for i in range(6) for j in range(6)]
        rows = score_trials(emb, trials)
        assert [(e, t) for e, t, _ in rows] == [(t.enroll_id, t.test_id) for t in trials]
        for e, t, score in rows:
            a, b = emb[e].astype(np.float64), emb[t].astype(np.float64)
            want = (a / np.sqrt(a @ a)) @ (b / np.sqrt(b @ b))
            assert abs(score - want) <= 16 * np.finfo(np.float64).eps

    def test_missing_embedding_is_missing_artifact(self):
        with pytest.raises(MissingArtifactError, match="'u9'"):
            score_trials(self._embeddings(), [Trial("u0", "u9", "target")])

    def test_zero_norm_embedding_is_numeric_failure(self):
        emb = {**self._embeddings(), "u0": np.zeros(256, dtype=np.float32)}
        with pytest.raises(NumericError, match="zero-norm"):
            score_trials(emb, [Trial("u1", "u0", "target")])

    def test_no_trials_no_scores(self):
        assert score_trials(self._embeddings(), []) == []


class TestEer:
    def test_perfect_separation(self):
        assert eer_from_arrays(np.array([0.9, 0.8]), np.array([0.2, 0.1])) == 0.0

    def test_hand_computed_half(self):
        assert eer_from_arrays(np.array([0.8, 0.4]), np.array([0.6, 0.2])) == pytest.approx(0.5)

    def test_interpolated_crossing(self):
        tar = np.array([0.9, 0.7, 0.5])
        non = np.array([0.6, 0.3])
        assert eer_from_arrays(tar, non) == pytest.approx(brute_force_eer(tar, non), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            eer(make_scoreset([0.5], []))

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            tar = rng.normal(size=rng.integers(1, 30))
            non = rng.normal(size=rng.integers(1, 30))
            value = eer_from_arrays(tar, non)
            assert 0.0 <= value <= 1.0


class TestMinDcf:
    def test_perfect_separation(self):
        assert min_dcf_from_arrays(np.array([0.9]), np.array([0.1])) == 0.0

    def test_reversed_pair_normalizes_to_one(self):
        # best achievable is reject-everything: DCF = 0.01 -> normalized 1.0
        assert min_dcf_from_arrays(np.array([0.5]), np.array([0.6])) == pytest.approx(1.0)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tar = rng.normal(size=rng.integers(1, 40))
            non = rng.normal(size=rng.integers(1, 40))
            assert min_dcf_from_arrays(tar, non) <= 1.0 + 1e-12


class TestOracleEquivalence:
    def test_200_random_score_sets(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            n_tar = int(rng.integers(1, 1001))
            n_non = int(rng.integers(1, 1001))
            loc = rng.uniform(-1, 1)
            tar = rng.normal(loc=loc + rng.uniform(0, 2), scale=1.0, size=n_tar)
            non = rng.normal(loc=loc, scale=1.0, size=n_non)
            if trial % 7 == 0:
                # force score ties across classes
                tar = np.round(tar, 1)
                non = np.round(non, 1)
            assert eer_from_arrays(tar, non) == pytest.approx(
                brute_force_eer(tar, non), abs=1e-9)
            assert min_dcf_from_arrays(tar, non) == pytest.approx(
                brute_force_min_dcf(tar, non), abs=1e-9)

    def test_tiny_sets(self):
        for tar, non in (([0.1], [0.2]), ([0.2], [0.1]), ([0.5], [0.5])):
            tar, non = np.array(tar), np.array(non)
            assert eer_from_arrays(tar, non) == pytest.approx(brute_force_eer(tar, non), abs=1e-12)
            assert min_dcf_from_arrays(tar, non) == pytest.approx(
                brute_force_min_dcf(tar, non), abs=1e-12)


class TestInvariances:
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.sampled_from(["affine", "cube", "exp"]))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed, kind):
        rng = np.random.default_rng(seed)
        tar = rng.normal(loc=0.7, size=rng.integers(2, 50))
        non = rng.normal(loc=0.0, size=rng.integers(2, 50))
        if kind == "affine":
            f = lambda x: 3.0 * x + 1.5
        elif kind == "cube":
            f = lambda x: x ** 3
        else:
            f = lambda x: np.exp(x)
        assert eer_from_arrays(f(tar), f(non)) == pytest.approx(
            eer_from_arrays(tar, non), abs=1e-9)
        assert min_dcf_from_arrays(f(tar), f(non)) == pytest.approx(
            min_dcf_from_arrays(tar, non), abs=1e-9)

    def test_sign_reversal_with_swapped_labels(self):
        # negating tie-free scores and swapping label semantics mirrors the
        # ROC across its diagonal, which leaves the crossing point unchanged
        rng = np.random.default_rng(8)
        for _ in range(10):
            tar = rng.normal(loc=0.5, size=rng.integers(2, 40))
            non = rng.normal(size=rng.integers(2, 40))
            assert eer_from_arrays(-non, -tar) == pytest.approx(
                eer_from_arrays(tar, non), abs=1e-9)

    def test_zero_iff_separable(self):
        tar = np.array([0.5, 0.6])
        non = np.array([0.4, 0.1])
        assert eer_from_arrays(tar, non) == 0.0
        assert min_dcf_from_arrays(tar, non) == 0.0
        tar2 = np.array([0.5, 0.3])
        non2 = np.array([0.4, 0.1])
        assert eer_from_arrays(tar2, non2) > 0.0


class TestFiles:
    def test_trial_and_score_roundtrip(self, tmp_path):
        trials = [Trial("a", "b", "target"), Trial("a", "c", "nontarget")]
        tpath = str(tmp_path / "trials.tsv")
        spath = str(tmp_path / "scores.tsv")
        write_trials(tpath, trials)
        write_scores(spath, [("a", "b", 0.9), ("a", "c", -0.2)])
        assert read_trials(tpath) == trials
        assert read_scores(spath) == {("a", "b"): 0.9, ("a", "c"): -0.2}
        scoreset = score_set_from_files(tpath, spath)
        report = metrics_report(scoreset)
        assert report["eer_percent"] == "0.000000"
        assert report["num_target"] == "1"

    def test_missing_score_detected(self, tmp_path):
        tpath = str(tmp_path / "trials.tsv")
        spath = str(tmp_path / "scores.tsv")
        write_trials(tpath, [Trial("a", "b", "target"), Trial("a", "c", "nontarget")])
        write_scores(spath, [("a", "b", 0.9)])
        with pytest.raises(ValueError, match="missing score"):
            score_set_from_files(tpath, spath)

    def test_malformed_trial_line(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as f:
            f.write("a b\n")
        with pytest.raises(ValueError, match="3 fields"):
            read_trials(path)

    def test_bad_trial_label_names_file_and_line(self, tmp_path):
        path = str(tmp_path / "trials.tsv")
        with open(path, "w") as f:
            f.write("a b target\nc d impostor\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: trial label")):
            read_trials(path)

    def test_bad_score_names_file_and_line(self, tmp_path):
        path = str(tmp_path / "scores.tsv")
        with open(path, "w") as f:
            f.write("a b 0.5\nc d x\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: could not convert")):
            read_scores(path)

    def test_trial_scored_twice_rejected(self, tmp_path):
        path = str(tmp_path / "scores.tsv")
        with open(path, "w") as f:
            f.write("a b 0.5\na b 0.9\n")
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"{path}:2: trial a b scored twice")):
            read_scores(path)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="target"):
            Trial("a", "b", "impostor")
        with pytest.raises(ValueError, match="nonempty"):
            Trial("", "b", "target")
