"""Excitation capture and distribution aggregation."""

import numpy as np
import pytest

from sevx.analysis import (ExcitationRecord, across_speaker_profile, capture_excitations,
                           profiles_to_tsv, render_report)
from sevx.model import ModelSpec, build_model, extract_embedding
from sevx.se import SEConfig, record_excitations
from sevx.tensor import ShapeError, Tensor


SPEC = ModelSpec(scale_factor=1 / 16, num_speakers=4)


def small_model(stages={1, 2}):
    return build_model(SPEC, SEConfig(stages=frozenset(stages)), seed=3)


def utt(uid, spk, seed, t=24):
    feats = np.random.default_rng(seed).normal(size=(60, t)).astype(np.float32)
    return (uid, spk, feats)


class TestCapture:
    def test_record_count_is_stages_times_utterances(self):
        model = small_model({1, 2})
        utts = [utt(f"u{i}", f"s{i % 2}", i) for i in range(4)]
        records = capture_excitations(model, utts)
        assert len(records) == 2 * 4
        assert {r.stage for r in records} == {1, 2}

    def test_hooks_do_not_perturb_outputs(self):
        model = small_model({1, 2, 3, 4})
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 60, 24)).astype(np.float32))
        from sevx.tensor import no_grad
        with no_grad():
            base = model.forward_embedding(x, train=False).data.copy()
        capture_excitations(model, [("u", "s", x.data[0, 0])])
        with no_grad():
            after = model.forward_embedding(x, train=False).data.copy()
        assert np.array_equal(base, after)

    def test_duplicate_utterance_duplicates_records(self):
        model = small_model({1})
        records = capture_excitations(model, [utt("a", "s0", 5), utt("a", "s0", 5)])
        assert len(records) == 2
        assert np.array_equal(records[0].channel_weights, records[1].channel_weights)

    def test_probing_stage_without_se_errors(self):
        model = small_model({1})
        with pytest.raises(ValueError, match="stage"):
            capture_excitations(model, [utt("a", "s0", 1)], stages=[3])

    def test_se_free_model_errors(self):
        model = build_model(SPEC, None, seed=0)
        with pytest.raises(ValueError, match="no SE stages to probe"):
            capture_excitations(model, [utt("a", "s0", 1)])

    def test_last_block_probed_by_default(self):
        model = small_model({1, 2})
        _, _, feats = utt("a", "s0", 1)
        sink = []
        with record_excitations(sink):
            extract_embedding(model, Tensor(feats[None, None]))
        gates = dict(sink)
        records = capture_excitations(model, [utt("a", "s0", 1)])
        assert [r.stage for r in records] == [1, 2]
        for r in records:
            last = model.stages[r.stage - 1][-1].se.name
            assert np.array_equal(r.channel_weights, gates[last].reshape(-1))

    def test_one_segment_per_utterance_per_stage(self):
        # every SE block of a stage has the same width, so pooling blocks
        # would go unnoticed in the shapes; only the segment counts show it
        model = small_model({1, 2})
        utts = [utt(f"u{i}", f"s{i % 2}", i) for i in range(4)]
        profiles, _ = across_speaker_profile(capture_excitations(model, utts))
        for stage in (1, 2):
            assert profiles[stage].segments == (2, 2)

    def test_utterance_under_eight_frames_rejected(self):
        model = small_model({1})
        with pytest.raises(ShapeError, match="too short"):
            capture_excitations(model, [utt("a", "s0", 1, t=7)])

    def test_weights_strictly_in_unit_interval(self):
        model = small_model({1, 2})
        records = capture_excitations(model, [utt(f"u{i}", "s0", i) for i in range(3)])
        for r in records:
            assert np.all(r.channel_weights > 0.0)
            assert np.all(r.channel_weights < 1.0)


def rec(stage, spk, uid, weights):
    return ExcitationRecord(stage, uid, spk, np.asarray(weights, dtype=np.float64))


def row(profile, spk):
    return profile.speakers.index(spk)


class TestAcrossSpeaker:
    def test_identical_input_zero_dispersion(self):
        records = [rec(1, f"s{i}", f"u{i}", [0.4, 0.6]) for i in range(5)]
        _, dispersion = across_speaker_profile(records)
        assert dispersion[1] == 0.0

    def test_seven_speakers_seven_profiles(self):
        records = []
        for i in range(7):
            for u in range(3):
                records.append(rec(2, f"s{i}", f"u{i}_{u}", np.random.default_rng(i * 10 + u).uniform(0.2, 0.8, 4)))
        profiles, _ = across_speaker_profile(records)
        p = profiles[2]
        assert p.speakers == tuple(f"s{i}" for i in range(7))
        assert p.mean.shape == p.std.shape == (7, 4)
        assert p.segments == (3,) * 7

    def test_aggregation_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        records = [rec(1, f"s{i % 3}", f"u{i}", rng.uniform(0.1, 0.9, 4)) for i in range(12)]
        profiles, dispersion = across_speaker_profile(records)
        for spk in ("s0", "s1", "s2"):
            manual = np.mean([r.channel_weights for r in records if r.speaker_id == spk], axis=0)
            np.testing.assert_allclose(profiles[1].mean[row(profiles[1], spk)], manual, atol=1e-7)
        means = np.stack([profiles[1].mean[row(profiles[1], s)] for s in ("s0", "s1", "s2")])
        np.testing.assert_allclose(dispersion[1], means.std(axis=0).mean(), atol=1e-7)

    def test_record_order_invariance(self):
        rng = np.random.default_rng(1)
        records = [rec(1, f"s{i % 2}", f"u{i}", rng.uniform(0.1, 0.9, 3)) for i in range(8)]
        p1, d1 = across_speaker_profile(records)
        p2, d2 = across_speaker_profile(list(reversed(records)))
        # reduction order differs, so equality is up to float summation error
        assert d1[1] == pytest.approx(d2[1], abs=1e-12)
        assert p1[1].speakers == p2[1].speakers
        np.testing.assert_allclose(p1[1].mean, p2[1].mean, atol=1e-12)

    def test_single_speaker_rejected(self):
        with pytest.raises(ValueError, match="2 speakers"):
            across_speaker_profile([rec(1, "s0", "u0", [0.5])])

    def test_missing_cell_rejected(self):
        records = [rec(1, "s0", "u0", [0.5]), rec(1, "s1", "u1", [0.5]),
                   rec(2, "s0", "u0", [0.5])]
        with pytest.raises(ValueError, match="no records for stage"):
            across_speaker_profile(records)


class TestWithinSpeaker:
    """Each speaker's std row is its spread over segments; a second
    speaker with other weights must not leak into it."""

    @staticmethod
    def _with_other_speaker(records, stage):
        rng = np.random.default_rng(9)
        width = len(records[0].channel_weights)
        return records + [rec(stage, "s1", f"v{i}", rng.uniform(0.1, 0.9, width)) for i in range(3)]

    def test_identical_segments_zero_std(self):
        records = [rec(1, "s0", f"u{i}", [0.3, 0.7]) for i in range(4)]
        profiles, _ = across_speaker_profile(self._with_other_speaker(records, 1))
        np.testing.assert_array_equal(profiles[1].std[row(profiles[1], "s0")], [0.0, 0.0])

    def test_two_point_population_std(self):
        w1 = np.array([0.2, 0.9])
        w2 = np.array([0.6, 0.5])
        records = [rec(3, "s0", "u0", w1), rec(3, "s0", "u1", w2)]
        profiles, _ = across_speaker_profile(self._with_other_speaker(records, 3))
        np.testing.assert_allclose(profiles[3].std[row(profiles[3], "s0")], np.abs(w1 - w2) / 2,
                                   atol=1e-12)

    def test_summary_scalar_is_channel_mean_of_std(self):
        rng = np.random.default_rng(2)
        records = [rec(2, "s0", f"u{i}", rng.uniform(0.1, 0.9, 5)) for i in range(6)]
        profiles, _ = across_speaker_profile(self._with_other_speaker(records, 2))
        stack = np.stack([r.channel_weights for r in records])
        assert profiles[2].std[row(profiles[2], "s0")].mean() == pytest.approx(
            stack.std(axis=0).mean())


class TestReporting:
    def _profiles(self):
        records = []
        rng = np.random.default_rng(3)
        for stage, spread in ((1, 0.01), (4, 0.2)):
            for i in range(3):
                base = 0.5 + spread * rng.uniform(-1, 1, 4)
                for u in range(2):
                    records.append(rec(stage, f"s{i}", f"u{i}_{u}", base))
        return across_speaker_profile(records)

    def test_report_contains_stage_comparison(self):
        profiles, dispersion = self._profiles()
        report = render_report(profiles, dispersion)
        assert "across_speaker_dispersion" in report
        assert "dispersion(stage 4) > dispersion(stage 1)" in report
        assert "not asserted" in report

    def test_tsv_has_header_and_rows(self):
        profiles, dispersion = self._profiles()
        tsv = profiles_to_tsv(profiles)
        lines = tsv.strip().split("\n")
        assert lines[0] == "stage\tspeaker\tchannel\tmean\tstd"
        # 2 stages x 3 speakers x 4 channels
        assert len(lines) == 1 + 2 * 3 * 4
