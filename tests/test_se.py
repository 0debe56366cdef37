"""SE unit semantics: squeeze statistics, excitation gates, the four
integration strategies, and parameter accounting."""

import numpy as np
import pytest

from sevx.model import BasicBlock
from sevx.nn import temporal_stats_pool
from sevx.se import POOLINGS, SEConfig, SEUnit, record_excitations, se_apply, squeeze
from sevx.tensor import ShapeError, Tensor


def unit_with(channels, config, **arrays):
    """Build a unit and overwrite selected fc weights/biases."""
    unit = SEUnit(channels, config, rng=np.random.default_rng(0))
    for key, value in arrays.items():
        layer_idx = int(key[1])
        attr = "weight" if key.endswith("w") else "bias"
        setattr(unit.fc_layers[layer_idx], attr,
                Tensor(np.asarray(value, dtype=np.float32)))
    return unit


class TestSqueeze:
    def _x(self):
        # one channel holding {1,3,5,7} over a 2x2 spatial extent
        return Tensor(np.array([1.0, 3.0, 5.0, 7.0], dtype=np.float32).reshape(1, 1, 2, 2))

    def test_mean(self):
        assert squeeze(self._x(), "mean").data[0, 0] == pytest.approx(4.0)

    def test_max(self):
        assert squeeze(self._x(), "max").data[0, 0] == pytest.approx(7.0)

    def test_population_std(self):
        # population var of {1,3,5,7} is 5
        assert squeeze(self._x(), "std").data[0, 0] == pytest.approx(2.2360680, abs=1e-6)

    def test_mean_std_constant_channel(self):
        x = Tensor(np.full((1, 1, 3, 4), 2.5, dtype=np.float32))
        out = squeeze(x, "mean_std").data[0]
        assert out[0] == pytest.approx(2.5)
        assert out[1] == pytest.approx(0.0, abs=2e-4)  # eps inside the sqrt

    def test_mean_std_halves_match_individual_poolings(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 5)).astype(np.float32))
        both = squeeze(x, "mean_std").data
        np.testing.assert_array_equal(both[:, :3], squeeze(x, "mean").data)
        np.testing.assert_array_equal(both[:, 3:], squeeze(x, "std").data)

    def test_empty_spatial_extent_rejected(self):
        with pytest.raises(ShapeError):
            squeeze(Tensor(np.zeros((1, 2, 0, 3), dtype=np.float32)), "mean")


@pytest.mark.parametrize("pool,mode", [(squeeze, p) for p in POOLINGS]
                         + [(temporal_stats_pool, m) for m in ("mean", "mean_std")],
                         ids=[f"squeeze-{p}" for p in POOLINGS]
                         + ["temporal-mean", "temporal-mean_std"])
def test_float32_input_gets_float32_gradient(pool, mode):
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 5)).astype(np.float32),
               requires_grad=True)
    pool(x, mode).sum().backward()
    assert x.grad.dtype == np.float32


class TestExcite:
    def test_zero_unit_gives_half_gates(self):
        cfg = SEConfig(pooling="mean", reduction_factor=2, hidden_layers=2)
        unit = unit_with(4, cfg,
                         f0w=np.zeros((2, 4)), f0b=np.zeros(2),
                         f1w=np.zeros((4, 2)), f1b=np.zeros(4))
        gates = unit.excite(Tensor(np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32)))
        np.testing.assert_array_equal(gates.data, np.full((3, 4), 0.5, dtype=np.float32))

    def test_identity_stack_hand_computed(self):
        # c=2, r=1, h=2, both layers identity, z=[2,-4]: relu -> [2,0] -> sigmoid
        cfg = SEConfig(pooling="mean", reduction_factor=1, hidden_layers=2)
        unit = unit_with(2, cfg,
                         f0w=np.eye(2), f0b=np.zeros(2),
                         f1w=np.eye(2), f1b=np.zeros(2))
        gates = unit.excite(Tensor(np.array([[2.0, -4.0]], dtype=np.float32)))
        np.testing.assert_allclose(gates.data[0], [0.8807971, 0.5], atol=1e-6)

    def test_dimension_mismatch(self):
        cfg = SEConfig(pooling="mean", reduction_factor=2, hidden_layers=2)
        unit = SEUnit(4, cfg, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            unit.excite(Tensor(np.zeros((1, 5), dtype=np.float32)))

    def test_gates_strictly_inside_unit_interval(self):
        cfg = SEConfig(pooling="mean_std", reduction_factor=4, hidden_layers=3)
        unit = SEUnit(8, cfg, rng=np.random.default_rng(2))
        z = Tensor(np.random.default_rng(3).normal(size=(5, 16)).astype(np.float32))
        g = unit.excite(z).data
        assert np.all(g > 0.0) and np.all(g < 1.0)


class TestSeApply:
    def test_zero_unit_halves_input_exactly(self):
        cfg = SEConfig(pooling="mean", reduction_factor=2, hidden_layers=2)
        unit = unit_with(4, cfg,
                         f0w=np.zeros((2, 4)), f0b=np.zeros(2),
                         f1w=np.zeros((4, 2)), f1b=np.zeros(4))
        x = np.random.default_rng(4).normal(size=(2, 4, 3, 3)).astype(np.float32)
        out = se_apply(Tensor(x), unit).data
        np.testing.assert_array_equal(out, (0.5 * x.astype(np.float32)))

    def test_saturated_bias_preserves_input(self):
        cfg = SEConfig(pooling="mean", reduction_factor=2, hidden_layers=2)
        unit = unit_with(4, cfg,
                         f0w=np.zeros((2, 4)), f0b=np.zeros(2),
                         f1w=np.zeros((4, 2)), f1b=np.full(4, 100.0))
        x = np.random.default_rng(5).normal(size=(1, 4, 2, 2)).astype(np.float32)
        out = se_apply(Tensor(x), unit).data
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_hand_computed_composition(self):
        # 1x2x1x1 input [2,-4] with the identity excitation above
        cfg = SEConfig(pooling="mean", reduction_factor=1, hidden_layers=2)
        unit = unit_with(2, cfg,
                         f0w=np.eye(2), f0b=np.zeros(2),
                         f1w=np.eye(2), f1b=np.zeros(2))
        x = Tensor(np.array([2.0, -4.0], dtype=np.float32).reshape(1, 2, 1, 1))
        out = se_apply(x, unit).data.reshape(-1)
        np.testing.assert_allclose(out, [1.7615942, -2.0], atol=1e-5)

    def test_shape_preserved_for_every_config(self):
        x = Tensor(np.random.default_rng(6).normal(size=(2, 8, 3, 4)).astype(np.float32))
        for pooling in ("max", "mean", "std", "mean_std"):
            for h in (1, 2, 3):
                cfg = SEConfig(pooling=pooling, reduction_factor=4, hidden_layers=h)
                unit = SEUnit(8, cfg, rng=np.random.default_rng(7))
                assert se_apply(x, unit).shape == x.shape

    def test_channel_permutation_equivariance(self):
        c = 6
        cfg = SEConfig(pooling="mean_std", reduction_factor=2, hidden_layers=2)
        unit = SEUnit(c, cfg, rng=np.random.default_rng(8))
        x = np.random.default_rng(9).normal(size=(2, c, 3, 4)).astype(np.float32)
        perm = np.random.default_rng(10).permutation(c)

        permuted = SEUnit(c, cfg, rng=np.random.default_rng(8))
        w0 = unit.fc_layers[0].weight.data
        # mean half and std half of the first layer permute together
        permuted.fc_layers[0].weight = Tensor(
            np.concatenate([w0[:, :c][:, perm], w0[:, c:][:, perm]], axis=1))
        permuted.fc_layers[0].bias = Tensor(unit.fc_layers[0].bias.data.copy())
        permuted.fc_layers[1].weight = Tensor(unit.fc_layers[1].weight.data[perm])
        permuted.fc_layers[1].bias = Tensor(unit.fc_layers[1].bias.data[perm])

        out = se_apply(Tensor(x), unit).data
        out_p = se_apply(Tensor(x[:, perm]), permuted).data
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-5)


class TestLayerDims:
    def test_h1_is_single_layer(self):
        cfg = SEConfig(pooling="mean", reduction_factor=4, hidden_layers=1)
        assert cfg.layer_dims(16) == [(16, 16)]

    def test_h2_bottleneck(self):
        cfg = SEConfig(pooling="mean", reduction_factor=4, hidden_layers=2)
        assert cfg.layer_dims(16) == [(16, 4), (4, 16)]

    def test_h4_keeps_interior_width(self):
        cfg = SEConfig(pooling="mean", reduction_factor=4, hidden_layers=4)
        assert cfg.layer_dims(16) == [(16, 4), (4, 4), (4, 4), (4, 16)]

    def test_mean_std_doubles_only_first_layer(self):
        base = SEConfig(pooling="mean", reduction_factor=4, hidden_layers=3)
        wide = SEConfig(pooling="mean_std", reduction_factor=4, hidden_layers=3)
        dims_b = base.layer_dims(16)
        dims_w = wide.layer_dims(16)
        assert dims_w[0] == (32, 4) and dims_b[0] == (16, 4)
        assert dims_w[1:] == dims_b[1:]

    def test_reduction_floors_at_one(self):
        cfg = SEConfig(pooling="mean", reduction_factor=64, hidden_layers=2)
        assert cfg.hidden_dim(8) == 1

    def test_parameter_count_reference_case(self):
        # standard, c=128, r=4, h=2, mean pooling: 128*32+32 + 32*128+128
        cfg = SEConfig(pooling="mean", reduction_factor=4, hidden_layers=2)
        assert cfg.unit_parameter_count(128) == 8352
        unit = SEUnit(128, cfg, rng=np.random.default_rng(0))
        stored = sum(p.size for _, p in unit.named_parameters("se"))
        assert stored == 8352

    def test_mean_std_adds_first_layer_input_block(self):
        for c, r in ((128, 4), (16, 4), (32, 8)):
            mean_cfg = SEConfig(pooling="mean", reduction_factor=r, hidden_layers=2)
            both_cfg = SEConfig(pooling="mean_std", reduction_factor=r, hidden_layers=2)
            delta = both_cfg.unit_parameter_count(c) - mean_cfg.unit_parameter_count(c)
            assert delta == c * (c // r)


class TestIntegration:
    def _block(self, seed=0, in_ch=4, out_ch=4, stride=1, se=None):
        return BasicBlock(in_ch, out_ch, stride, name="blk", seed=seed, se=se)

    def _saturated_unit(self, channels, integration="standard", pooling="mean"):
        cfg = SEConfig(pooling=pooling, reduction_factor=2, hidden_layers=2,
                       integration=integration)
        unit = SEUnit(channels, cfg, rng=np.random.default_rng(0))
        last = unit.fc_layers[-1]
        last.bias = Tensor(np.full(channels, 100.0, dtype=np.float32))
        last.weight = Tensor(np.zeros_like(last.weight.data))
        return unit

    @pytest.mark.parametrize("integration", ["standard", "pre", "post", "identity"])
    def test_saturated_gate_matches_se_free_block(self, integration):
        block = self._block(seed=3)
        wired = self._block(seed=3)
        wired.se = self._saturated_unit(4, integration)
        x = Tensor(np.random.default_rng(11).normal(size=(2, 4, 5, 6)).astype(np.float32))
        base = block.forward(x, train=False).data
        gated = wired.forward(x, train=False).data
        np.testing.assert_allclose(gated, base, atol=1e-4)

    def test_standard_and_post_differ_when_relu_clips(self):
        # bias the residual branch negative so the final ReLU clips
        block = self._block(seed=4)
        block.bn2.beta = Tensor(np.full(4, -2.0, dtype=np.float32), requires_grad=True)
        x = Tensor(np.random.default_rng(12).normal(size=(2, 4, 5, 5)).astype(np.float32))
        outs = {}
        for integration in ("standard", "post"):
            cfg = SEConfig(pooling="mean", reduction_factor=2, hidden_layers=2,
                           integration=integration)
            block.se = SEUnit(4, cfg, rng=np.random.default_rng(5))
            outs[integration] = block.forward(x, train=False).data
        assert not np.allclose(outs["standard"], outs["post"], atol=1e-5)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="integration"):
            SEConfig(integration="inside-out")

    def test_pre_gates_block_input_not_skip(self):
        # with a crushing gate, PRE zeroes the residual branch input while the
        # skip path still carries x
        block = self._block(seed=6)
        cfg = SEConfig(pooling="mean", reduction_factor=2, hidden_layers=2, integration="pre")
        unit = SEUnit(4, cfg, rng=np.random.default_rng(0))
        last = unit.fc_layers[-1]
        last.bias = Tensor(np.full(4, -100.0, dtype=np.float32))
        last.weight = Tensor(np.zeros_like(last.weight.data))
        block.se = unit
        x_arr = np.abs(np.random.default_rng(13).normal(size=(1, 4, 4, 4))).astype(np.float32)
        out = block.forward(Tensor(x_arr), train=False).data
        zero_in = block.residual(Tensor(np.zeros_like(x_arr)), train=False).data
        expected = np.maximum(zero_in + x_arr, 0.0)
        np.testing.assert_allclose(out, expected, atol=1e-3)

    def test_block_builds_unit_for_output_width(self):
        cfg = SEConfig(pooling="mean_std", reduction_factor=4, hidden_layers=2,
                       integration="identity", stages=frozenset({1}))
        block = self._block(in_ch=4, out_ch=8, stride=2, se=cfg)
        assert block.se.channels == 8
        assert block.se.input_dim == 16
        assert block.se.config.integration == "identity"

    def test_pre_unit_sized_to_block_input_on_channel_change(self):
        # PRE gates the block input, which is narrower than the output here
        cfg = SEConfig(pooling="mean", reduction_factor=2, hidden_layers=2,
                       integration="pre", stages=frozenset({1}))
        block = self._block(in_ch=4, out_ch=8, stride=2, se=cfg)
        assert block.se.channels == 4
        x = Tensor(np.random.default_rng(14).normal(size=(2, 4, 6, 6)).astype(np.float32))
        assert block.forward(x, train=False).shape == (2, 8, 3, 3)


def test_recorder_observes_without_perturbing():
    cfg = SEConfig(pooling="mean", reduction_factor=2, hidden_layers=2)
    unit = SEUnit(4, cfg, rng=np.random.default_rng(1))
    x = Tensor(np.random.default_rng(2).normal(size=(1, 4, 3, 3)).astype(np.float32))
    plain = se_apply(x, unit).data
    sink = []
    with record_excitations(sink):
        observed = se_apply(x, unit).data
    assert np.array_equal(plain, observed)
    assert len(sink) == 1 and sink[0][1].shape == (1, 4)


def test_config_validation():
    with pytest.raises(ValueError):
        SEConfig(pooling="median")
    with pytest.raises(ValueError):
        SEConfig(integration="sideways")
    with pytest.raises(ValueError):
        SEConfig(reduction_factor=0)
    with pytest.raises(ValueError):
        SEConfig(hidden_layers=0)
    with pytest.raises(ValueError):
        SEConfig(stages=frozenset({5}))
