"""Model assembly, AAM-softmax loss, the optimizer recurrence, extraction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevx import model as model_mod
from sevx.analysis import capture_excitations
from sevx.config import TOY_CONFIG, RunConfig
from sevx.model import (EVAL_BATCH_FRAMES, AAMHead, ModelSpec, SGDOptimizer, SpeakerEmbedder,
                        aam_loss, build_model, embed_segments, extract_embedding,
                        extract_embeddings, se_census, train_step)
from sevx.nn import POOLINGS
from sevx.pipeline import train_accuracy
from sevx.se import INTEGRATIONS, SEConfig
from sevx.tensor import NumericError, ShapeError, Tensor


TOY = ModelSpec(scale_factor=0.125, num_speakers=6)


def rng_of(seed):
    return np.random.default_rng(seed)


class TestAssembly:
    @pytest.mark.slow
    def test_full_scale_stage_shapes_match_reference_table(self):
        spec = ModelSpec(num_speakers=10)
        model = build_model(spec, None, seed=0)
        x = Tensor(np.zeros((1, 1, 60, 400), dtype=np.float32))
        outs = model.stage_outputs(x, train=False)
        shapes = [tuple(o.shape[1:]) for o in outs]
        # (channels, freq, time) per stage
        assert shapes == [(128, 60, 400), (128, 30, 200), (256, 15, 100), (256, 8, 50)]
        assert model.flatten_dim == 2048
        emb = model.forward_embedding(x, train=False)
        assert emb.shape == (1, 256)

    def test_toy_scale_shapes(self):
        model = build_model(TOY, None, seed=0)
        x = Tensor(np.zeros((1, 1, 60, 400), dtype=np.float32))
        emb = model.forward_embedding(x, train=False)
        assert emb.shape == (1, 256)
        assert TOY.scaled_stage_channels == (16, 16, 32, 32)

    @pytest.mark.parametrize("strides", [(1, 3, 2, 2), (2, 1, 1, 3)])
    def test_flatten_width_follows_any_stride(self, strides):
        # 60 mel bins -> 20 -> 10 -> 5 at strides (1, 3, 2, 2)
        spec = ModelSpec(scale_factor=1 / 16, num_speakers=3, stage_strides=strides,
                         stage_blocks=(1, 1, 1, 1))
        model = build_model(spec, None, seed=0)
        x = rng_of(0).normal(size=(1, 1, 60, 24)).astype(np.float32)
        _, channels, freq, _ = model.stage_outputs(Tensor(x))[-1].shape
        assert model.flatten_dim == channels * freq
        assert extract_embedding(model, Tensor(x)).shape == (spec.embedding_dim,)

    def test_empty_stages_equals_disabled(self):
        a = build_model(TOY, SEConfig(stages=frozenset()), seed=0)
        b = build_model(TOY, None, seed=0)
        names_a = [n for n, _ in a.named_parameters()]
        names_b = [n for n, _ in b.named_parameters()]
        assert names_a == names_b
        assert a.parameter_count() == b.parameter_count()

    def test_se_only_in_selected_stages(self):
        cfg = SEConfig(stages=frozenset({2, 4}))
        model = build_model(TOY, cfg, seed=0)
        se_names = [n for n, _ in model.named_parameters() if ".se." in n]
        assert se_names
        assert all(n.startswith(("stage2.", "stage4.")) for n in se_names)

    def test_census_matches_enumeration(self):
        for pooling in ("max", "mean", "std", "mean_std"):
            for r in (2, 4, 8):
                for h in (1, 2, 3, 4):
                    cfg = SEConfig(pooling=pooling, reduction_factor=r, hidden_layers=h,
                                   stages=frozenset({1, 2}))
                    model = build_model(TOY, cfg, seed=0)
                    assert model.se_parameter_count() == se_census(TOY, cfg), (pooling, r, h)

    def test_census_covers_pre_units_on_stage_transitions(self):
        # stage 3's first block widens 16 -> 32 at this scale; PRE units sit
        # on the input side of each block
        for stages in ({3}, {1, 2, 3, 4}):
            cfg = SEConfig(integration="pre", stages=frozenset(stages))
            model = build_model(TOY, cfg, seed=0)
            assert model.se_parameter_count() == se_census(TOY, cfg), stages

    def test_mean_std_census_delta(self):
        base = SEConfig(pooling="mean", stages=frozenset({1, 2}))
        wide = SEConfig(pooling="mean_std", stages=frozenset({1, 2}))
        delta = se_census(TOY, wide) - se_census(TOY, base)
        blocks = TOY.stage_blocks[0] + TOY.stage_blocks[1]
        c = TOY.scaled_stage_channels[0]
        assert delta == blocks * c * (c // 4)

    def test_backbone_init_identical_across_se_configs(self):
        a = build_model(TOY, SEConfig(stages=frozenset({1, 2})), seed=5)
        b = build_model(TOY, SEConfig(stages=frozenset({3, 4}), pooling="max"), seed=5)
        pa = dict(a.named_parameters())
        pb = dict(b.named_parameters())
        shared = [n for n in pa if ".se." not in n]
        assert shared and all(np.array_equal(pa[n].data, pb[n].data) for n in shared)

    def test_no_conv_has_a_bias(self):
        # every conv feeds a batch norm, whose mean subtraction would cancel a bias
        cfgs = [None] + [SEConfig(integration=w, stages=frozenset({1, 2})) for w in INTEGRATIONS]
        models = [build_model(TOY, cfg, seed=0) for cfg in cfgs]
        paper = build_model(ModelSpec(), SEConfig(stages=frozenset({1, 2})), seed=0)
        for model in models + [paper]:
            conv_biases = [n for n, _ in model.named_parameters()
                           if n.endswith(("conv.bias", "conv1.bias", "conv2.bias", "down.bias"))]
            assert conv_biases == []
        assert paper.parameter_count() == 13_128_160

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(num_speakers=1)
        with pytest.raises(ValueError):
            ModelSpec(embedding_dim=0)


class TestAAMLoss:
    def test_zero_margin_equals_plain_cross_entropy(self):
        rng = rng_of(0)
        emb = rng.normal(size=(4, 8))
        head = AAMHead(5, 8, margin=0.0, rng=rng_of(1), dtype=np.float64)
        labels = np.array([0, 2, 4, 1])
        loss = aam_loss(Tensor(emb, dtype=np.float64), labels, head)

        emb_n = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        w_n = head.class_weights.data / np.linalg.norm(head.class_weights.data, axis=1, keepdims=True)
        logits = 30.0 * emb_n @ w_n.T
        logp = logits - np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1, keepdims=True)) \
            - logits.max(1, keepdims=True)
        expected = -logp[np.arange(4), labels].mean()
        assert float(loss.data) == pytest.approx(expected, abs=1e-6)

    def test_target_logit_when_embedding_equals_class_weight(self):
        head = AAMHead(3, 4, margin=0.4, scale=30.0, rng=rng_of(2), dtype=np.float64)
        w0 = head.class_weights.data[0]
        emb = Tensor(np.stack([w0]), dtype=np.float64)
        # reconstruct the target logit from the loss by comparing against
        # the direct formula: s*cos(theta+m) with theta=0
        assert 30.0 * math.cos(0.4) == pytest.approx(27.63179, abs=1e-4)
        loss = aam_loss(emb, np.array([0]), head)
        w_n = head.class_weights.data / np.linalg.norm(head.class_weights.data, axis=1, keepdims=True)
        cos = (w0 / np.linalg.norm(w0)) @ w_n.T
        logits = 30.0 * cos
        logits[0] = 30.0 * math.cos(0.4)
        expected = -(logits[0] - np.log(np.exp(logits).sum()))
        assert float(loss.data) == pytest.approx(expected, rel=1e-6)

    def test_margin_monotonicity(self):
        rng = rng_of(3)
        emb = Tensor(rng.normal(size=(6, 8)), dtype=np.float64)
        labels = rng.integers(0, 4, size=6)
        losses = []
        for m in (0.0, 0.2, 0.4, 0.8, 1.2):
            head = AAMHead(4, 8, margin=m, rng=rng_of(4), dtype=np.float64)
            losses.append(float(aam_loss(emb, labels, head).data))
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_label_out_of_range(self):
        head = AAMHead(3, 4, rng=rng_of(5))
        with pytest.raises(ValueError, match="labels"):
            aam_loss(Tensor(np.ones((2, 4), dtype=np.float32)), np.array([0, 3]), head)

    def test_zero_norm_embedding_is_an_error(self):
        head = AAMHead(3, 4, rng=rng_of(6))
        emb = np.ones((2, 4), dtype=np.float32)
        emb[1] = 0.0
        with pytest.raises(NumericError, match="zero-norm"):
            aam_loss(Tensor(emb), np.array([0, 1]), head)

    def test_head_validation(self):
        with pytest.raises(ValueError):
            AAMHead(3, 4, margin=2.0)
        with pytest.raises(ValueError):
            AAMHead(3, 4, scale=-1.0)


class TestOptimizer:
    def test_lr_zero_keeps_parameters_bit_exact(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        before = p.data.copy()
        opt = SGDOptimizer([("p", p)], lr=0.0, momentum=0.9, weight_decay=0.0)
        (p * p).sum().backward()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_scalar_recurrence_one_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        opt = SGDOptimizer([("p", p)], lr=0.1, momentum=0.9, weight_decay=0.0)
        (p * p).sum().backward()
        opt.step()
        assert p.data[0] == pytest.approx(0.8, abs=1e-12)

    def test_scalar_recurrence_two_steps(self):
        p = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        opt = SGDOptimizer([("p", p)], lr=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        # v2 = 0.9*2 + 1.6 = 3.4; theta = 0.8 - 0.34 = 0.46
        assert p.data[0] == pytest.approx(0.46, abs=1e-12)

    def test_weight_decay_enters_velocity(self):
        p = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        opt = SGDOptimizer([("p", p)], lr=0.1, momentum=0.0, weight_decay=0.5)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        # v = g + wd*theta = 0 + 1.0; theta = 2.0 - 0.1
        assert p.data[0] == pytest.approx(1.9, abs=1e-12)


class TestTrainStep:
    def _setup(self):
        spec = ModelSpec(scale_factor=1 / 16, num_speakers=4, segment_frames=40,
                         stage_blocks=(1, 1, 1, 1))
        model = build_model(spec, SEConfig(stages=frozenset({1})), seed=0)
        head = AAMHead(4, 256, seed=0)
        opt = SGDOptimizer(list(model.named_parameters()) + list(head.named_parameters()),
                           lr=0.05)
        x = Tensor(rng_of(1).normal(size=(4, 1, 60, 40)).astype(np.float32))
        y = np.array([0, 1, 2, 3])
        return model, head, opt, x, y

    def test_returns_pre_update_loss_and_decreases(self):
        model, head, opt, x, y = self._setup()
        losses = [train_step(model, head, x, y, opt) for _ in range(8)]
        assert losses[-1] < losses[0]

    def test_step_peak_is_about_the_tape(self):
        # backward frees each interior gradient once used, so a step peaks a
        # little above what forward and loss left on the tape, not 1.6x it
        cfg = RunConfig(dict(TOY_CONFIG))
        spec = cfg.model_spec(num_speakers=20)
        model = build_model(spec, cfg.se_config(), seed=0)
        head = AAMHead(20, spec.embedding_dim, seed=0)
        opt = SGDOptimizer(list(model.named_parameters()) + list(head.named_parameters()),
                           lr=0.05)
        x = Tensor(rng_of(1).normal(size=(4, 1, 60, 64)).astype(np.float32))
        y = np.arange(4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = aam_loss(model.forward_embedding(x, train=True), y, head)
            tape = tracemalloc.get_traced_memory()[0] - before
            del loss
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            train_step(model, head, x, y, opt)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * tape

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_aborts_with_parameter_name(self):
        model, head, opt, x, y = self._setup()
        head.class_weights.data[0, 0] = np.inf
        with pytest.raises(NumericError, match="non-finite"):
            train_step(model, head, x, y, opt)


class TestExtraction:
    def _model(self):
        spec = ModelSpec(scale_factor=1 / 16, num_speakers=4)
        return build_model(spec, None, seed=0)

    def test_deterministic(self):
        model = self._model()
        x = rng_of(2).normal(size=(1, 1, 60, 50)).astype(np.float32)
        e1 = extract_embedding(model, Tensor(x))
        e2 = extract_embedding(model, Tensor(x))
        assert np.array_equal(e1, e2)

    def test_variable_length_supported(self):
        model = self._model()
        for t in (400, 800):
            x = rng_of(3).normal(size=(1, 1, 60, t)).astype(np.float32)
            assert extract_embedding(model, Tensor(x)).shape == (256,)

    def test_too_short_rejected(self):
        model = self._model()
        with pytest.raises(ShapeError, match="too short"):
            extract_embedding(model, Tensor(np.zeros((1, 1, 60, 4), dtype=np.float32)))

    def test_embedding_finite_and_nonzero(self):
        model = self._model()
        x = rng_of(4).normal(size=(1, 1, 60, 60)).astype(np.float32)
        emb = extract_embedding(model, Tensor(x))
        assert np.all(np.isfinite(emb))
        assert np.linalg.norm(emb) > 0

    def test_time_permutation_invariance_for_repeated_frames(self):
        # 3x3 kernels look at time neighborhoods, so arbitrary frame
        # permutations change conv outputs even at stride 1; the invariance
        # that does hold end-to-end is for inputs whose frames are identical,
        # where any permutation is a no-op. The pooling layer's full
        # permutation invariance is asserted in the nn tests.
        spec = ModelSpec(scale_factor=1 / 16, num_speakers=4, stage_strides=(1, 1, 1, 1),
                         stage_blocks=(1, 1, 1, 1))
        model = build_model(spec, None, seed=0)
        frame = rng_of(5).normal(size=(1, 1, 60, 1)).astype(np.float32)
        x = np.tile(frame, (1, 1, 1, 12))
        perm = rng_of(6).permutation(12)
        e1 = extract_embedding(model, Tensor(x))
        e2 = extract_embedding(model, Tensor(x[..., perm]))
        assert np.array_equal(e1, e2)


def test_train_accuracy_picks_the_closest_class_row():
    spec = ModelSpec(scale_factor=1 / 16, num_speakers=3)
    model = build_model(spec, SEConfig(), seed=0)
    x = rng_of(7).normal(size=(3, 1, 60, 16)).astype(np.float32)
    head = AAMHead(3, spec.embedding_dim, rng=rng_of(7))
    head.class_weights.data[...] = np.stack([extract_embedding(model, Tensor(c[None])) for c in x])
    assert train_accuracy(model, head, x, np.array([0, 1, 2])) == 1.0
    assert train_accuracy(model, head, x, np.array([1, 2, 0])) == 0.0


class TestBatchedEval:
    """The batched eval forward is batch invariant: each row has the bytes of
    its segment's forward alone, whatever the rows beside it."""

    @given(n=st.integers(1, 6), t=st.integers(8, 80),
           stages=st.sets(st.integers(1, 4), min_size=1),
           wiring=st.sampled_from(INTEGRATIONS), squeeze=st.sampled_from(POOLINGS),
           temporal=st.sampled_from(["mean", "mean_std"]), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rows_are_the_bytes_of_each_segment_alone(self, n, t, stages, wiring, squeeze,
                                                      temporal, seed):
        spec = ModelSpec(scale_factor=1 / 16, num_speakers=4, temporal_pooling=temporal)
        se = SEConfig(stages=frozenset(stages), integration=wiring, pooling=squeeze)
        model = build_model(spec, se, seed=seed % 1000)
        x = rng_of(seed).normal(size=(n, 1, 60, t)).astype(np.float32)
        alone = [extract_embedding(model, Tensor(x[i:i + 1])) for i in range(n)]
        batched = extract_embeddings(model, Tensor(x))
        assert [row.tobytes() for row in batched] == [row.tobytes() for row in alone]
        perm = rng_of(seed + 1).permutation(n)
        permuted = extract_embeddings(model, Tensor(x[perm]))
        assert [row.tobytes() for row in permuted] == [alone[i].tobytes() for i in perm]
        utts = [(f"u{i}", f"s{i % 2}", x[i, 0]) for i in range(n)]
        together = capture_excitations(model, utts)
        apart = [r for u in utts for r in capture_excitations(model, [u])]
        assert ([(r.stage, r.utterance_id, r.channel_weights.tobytes()) for r in together]
                == [(r.stage, r.utterance_id, r.channel_weights.tobytes()) for r in apart])

    def test_segments_of_one_shape_share_forwards_in_order(self, monkeypatch):
        spec = ModelSpec(scale_factor=1 / 16, num_speakers=4)
        model = build_model(spec, SEConfig(stages=frozenset({1, 2})), seed=0)
        lengths = [200, 16, 200, 24, 16, 200, 16]
        segs = [rng_of(i).normal(size=(60, t)).astype(np.float32) for i, t in enumerate(lengths)]
        shapes = []
        forward = model_mod.extract_embeddings

        def spy(m, features):
            shapes.append(features.shape)
            return forward(m, features)

        monkeypatch.setattr(model_mod, "extract_embeddings", spy)
        emb = embed_segments(model, segs)
        # 512 frames hold two 200-frame segments, and every 16- or 24-frame one
        assert shapes == [(2, 1, 60, 200), (1, 1, 60, 200), (3, 1, 60, 16), (1, 1, 60, 24)]
        assert all(s[0] == 1 or s[0] * s[3] <= EVAL_BATCH_FRAMES for s in shapes)
        assert emb.tobytes() == np.stack(
            [extract_embedding(model, Tensor(s[None, None])) for s in segs]).tobytes()

    def test_non_finite_row_names_its_segment(self):
        model = build_model(ModelSpec(scale_factor=1 / 16, num_speakers=4), None, seed=0)
        x = rng_of(0).normal(size=(3, 1, 60, 16)).astype(np.float32)
        x[2, 0, 5, 5] = np.nan
        with pytest.raises(NumericError, match="segment 2"):
            extract_embeddings(model, Tensor(x))

    def test_segment_must_be_two_dimensional(self):
        model = build_model(ModelSpec(scale_factor=1 / 16, num_speakers=4), None, seed=0)
        with pytest.raises(ShapeError, match=r"\(mel, T\)"):
            embed_segments(model, [np.zeros((1, 60, 16), dtype=np.float32)])
