"""Autograd engine: op semantics, broadcasting, backward bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevx import gradcheck
from sevx.gradcheck import check_gradients
from sevx.model import BasicBlock
from sevx.nn import BatchNorm2d
from sevx.se import SEConfig, SEUnit, se_apply
from sevx.tensor import NumericError, ShapeError, Tensor, cat, no_grad


def t(data, grad=False, dtype=np.float64):
    return Tensor(np.asarray(data), requires_grad=grad, dtype=dtype)


class TestElementwise:
    def test_add(self):
        out = t([1.0, 2.0]) + t([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_mul_identity(self):
        out = t([2.0, 3.0]) * 1.0
        np.testing.assert_allclose(out.data, [2.0, 3.0])

    def test_div_by_zero_raises(self):
        with pytest.raises(NumericError, match="zero denominator"):
            t([1.0, 0.0]) / t([0.0, 1.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            t([1.0, 2.0]) + t([1.0, 2.0, 3.0])

    def test_broadcast_trailing_rule(self):
        out = t(np.ones((2, 3, 4))) * t(np.ones((3, 1)))
        assert out.shape == (2, 3, 4)


class TestMatmul:
    def test_identity(self):
        a = t(np.eye(2))
        b = t([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_row_times_column(self):
        np.testing.assert_allclose((t([[1.0, 2.0]]) @ t([[3.0], [4.0]])).data, [[11.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner dimensions"):
            t(np.ones((2, 3))) @ t(np.ones((4, 2)))

    def test_dtype_mismatch_rejected(self):
        # a float64 operand would hand the float32 leaf a float64 gradient
        a = t(np.ones((2, 3)), grad=True, dtype=np.float32)
        with pytest.raises(ShapeError, match="dtype mismatch: float32 vs float64"):
            a @ t(np.ones((3, 2)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = t(rng.uniform(-2, 2, (3, 4)), grad=True)
        b = t(rng.uniform(-2, 2, (4, 2)), grad=True)
        r = t(rng.normal(size=(3, 2)))

        ok, max_abs, _ = check_gradients(lambda: (a @ b * r).sum(), [a, b])
        assert ok, f"matmul gradient mismatch, max abs err {max_abs}"


class TestNonlinearities:
    def test_sigmoid_symmetry(self):
        assert t([0.0]).sigmoid().data[0] == pytest.approx(0.5)

    def test_relu(self):
        np.testing.assert_allclose(t([-3.0, 3.0]).relu().data, [0.0, 3.0])

    def test_log_softmax_stable_at_1000(self):
        out = t([1000.0, 1000.0]).log_softmax().data
        np.testing.assert_allclose(out, [-np.log(2), -np.log(2)], rtol=1e-12)
        assert np.all(np.isfinite(out))

    def test_sigmoid_extreme_inputs_finite(self):
        out = t([-500.0, 500.0], dtype=np.float32).sigmoid().data
        assert np.all(np.isfinite(out))

    def test_sqrt_domain(self):
        with pytest.raises(NumericError):
            t([-1.0]).sqrt()


def _bn_relu_case(train: bool, dtype):
    """(leaves, pre-ReLU op) for a batch norm whose output has exact zeros
    (a constant channel in train mode) and -0.0 (eval mode, beta -0.0)."""
    x = np.random.default_rng(3).normal(size=(2, 3, 4, 5)).astype(dtype)
    x[:, 0] = 0.0
    x[0, 0, 0, :3] = -0.0
    x[1, 2, 1, :2] = 0.0
    bn = BatchNorm2d(3, dtype=dtype)
    if not train:
        bn.running_mean = np.array([0.0, 0.5, -0.5], dtype=dtype)
        bn.running_var = np.array([1.0, 2.0, 0.5], dtype=dtype)
        bn.beta.data[...] = [-0.0, 0.1, -0.2]
    leaf = Tensor(x, requires_grad=True)
    return [leaf, bn.gamma, bn.beta], lambda: bn.forward(leaf, train)


def _add_relu_case(dtype):
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0]
    a = np.array([[u] * len(special) for u in special], dtype=dtype)
    leaves = [Tensor(a, requires_grad=True), Tensor(a.T.copy(), requires_grad=True)]
    return leaves, lambda: leaves[0] + leaves[1]


class TestReluInPlace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["bn_train", "bn_eval", "add"])
    def test_same_bytes_as_relu(self, case, dtype):
        def run(inplace):
            leaves, op = (_add_relu_case(dtype) if case == "add"
                          else _bn_relu_case(case == "bn_train", dtype))
            with np.errstate(invalid="ignore"):
                pre = op()
                out = pre.relu_() if inplace else pre.relu()
                r = np.random.default_rng(4).normal(size=out.shape).astype(dtype)
                (out * Tensor(r)).sum().backward()
            return out.data.tobytes(), [leaf.grad.tobytes() for leaf in leaves]

        assert run(True) == run(False)

    def test_cases_put_zeros_and_nan_before_the_relu(self):
        _, train_bn = _bn_relu_case(True, np.float32)
        assert np.all(train_bn().data[:, 0] == 0.0)
        _, eval_bn = _bn_relu_case(False, np.float32)
        _, add = _add_relu_case(np.float64)
        with np.errstate(invalid="ignore"):
            outs = [eval_bn().data, add().data]
        for out in outs:
            assert np.signbit(out[out == 0.0]).any() and (~np.signbit(out[out == 0.0])).any()
        assert np.isnan(outs[1]).any()

    def test_returns_itself(self):
        a, b = t([-1.0, 2.0], grad=True), t([0.5, 1.0])
        h = a + b
        assert h.relu_() is h
        np.testing.assert_array_equal(h.data, [0.0, 3.0])

    def test_leaf_or_view_rejected(self):
        x = t([-1.0, 2.0], grad=True)
        with pytest.raises(NumericError, match="leaf"):
            x.relu_()
        with pytest.raises(NumericError, match="view"):
            x.reshape(1, 2).relu_()
        np.testing.assert_array_equal(x.data, [-1.0, 2.0])


def _se_rescale_case(dtype):
    """(leaves, SE-rescale op) with a mean+std squeeze, as on the train tape."""
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 4, 5)).astype(dtype), requires_grad=True)
    unit = SEUnit(3, SEConfig(pooling="mean_std", reduction_factor=1, hidden_layers=2),
                  rng=np.random.default_rng(6), dtype=dtype)
    return [x] + [p for _, p in unit.named_parameters("se")], lambda: se_apply(x, unit)


def _special_operand(dtype):
    """A (2, 3, 4, 5) leaf holding +-0, NaN, +-inf and +-1 in every channel."""
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])
    return Tensor(np.resize(special, (2, 3, 4, 5)).astype(dtype), requires_grad=True)


class TestAddInPlace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["bn_train", "bn_eval", "se_rescale"])
    def test_same_bytes_as_add(self, case, dtype):
        def run(inplace_add, inplace_relu):
            leaves, op = (_se_rescale_case(dtype) if case == "se_rescale"
                          else _bn_relu_case(case == "bn_train", dtype))
            other = _special_operand(dtype)
            with np.errstate(invalid="ignore"):
                pre = op()
                total = pre.add_(other) if inplace_add else pre + other
                out = total.relu_() if inplace_relu else total.relu()
                r = np.random.default_rng(4).normal(size=out.shape).astype(dtype)
                (out * Tensor(r)).sum().backward()
            return out.data.tobytes(), [leaf.grad.tobytes() for leaf in leaves + [other]]

        for inplace_relu in (False, True):
            assert run(True, inplace_relu) == run(False, inplace_relu) == run(False, False)

    def test_shares_the_array_and_works_without_grad(self):
        for grad in (True, False):
            a, b = t([-1.0, 2.0], grad=True), t([0.5, 1.0])
            if grad:
                h = a * 1.0
                out = h.add_(b)
            else:
                with no_grad():
                    h = a * 1.0
                    out = h.add_(b)
            assert out is not h and out.data is h.data and out.requires_grad is grad
            np.testing.assert_array_equal(out.data, [-0.5, 3.0])

    def test_leaf_or_view_rejected(self):
        x = t([-1.0, 2.0], grad=True)
        with pytest.raises(NumericError, match="leaf"):
            x.add_(t([1.0, 1.0]))
        h = x * 1.0
        with pytest.raises(NumericError, match="view"):
            h.reshape(1, 2).add_(t([1.0, 1.0]))
        np.testing.assert_array_equal(x.data, [-1.0, 2.0])
        np.testing.assert_array_equal(h.data, [-1.0, 2.0])

    def test_operand_that_would_grow_self_rejected(self):
        h = t([1.0, 2.0], grad=True) * 1.0
        with pytest.raises(ShapeError, match="does not broadcast"):
            h.add_(t(np.ones((3, 2))))
        np.testing.assert_array_equal(h.data, [1.0, 2.0])


class TestBackward:
    def test_sum_of_squares(self):
        x = t([1.0, 2.0], grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_repeated_backward_accumulates(self):
        x = t([1.0, 2.0], grad=True)
        (x * x).sum().backward()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 8.0])

    def test_zero_grad_resets(self):
        x = t([1.0, 2.0], grad=True)
        (x * x).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_constant_leaf_has_no_grad(self):
        x = t([1.0, 2.0], grad=True)
        c = t([5.0, 5.0], grad=False)
        (x * c).sum().backward()
        assert c.grad is None

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0], grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            (x * x).backward()

    def test_shared_parameter_accumulates_within_graph(self):
        x = t([2.0], grad=True)
        ((x * x) + (x * 3.0)).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_second_backward_does_not_double_interior_grads(self):
        x = t([1.0, 2.0], grad=True)
        y = x * 2.0
        loss = (y * y).sum()
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_shared_gradient_array_is_never_written(self):
        # add hands the same array to both parents; a later backward that
        # reaches only ``a`` must not change ``b.grad`` through it
        a = t([1.0, 2.0], grad=True)
        b = t([3.0, 4.0], grad=True)
        (a + b).sum().backward()
        (a * 3.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [4.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_three_consumers_get_the_exact_sum(self):
        # ``a`` feeds add, *5 and *7; ``h`` gets its sum from two consumers,
        # and add hands that sum on to ``a`` and ``b`` as the same array, so
        # ``b.grad`` is h's sum; h, an interior node, keeps no gradient
        a = t([1.0, 2.0], grad=True)
        b = t([3.0, 4.0], grad=True)
        h = a + b
        ((h * 2.0).sum() + (h * 3.0).sum() + (a * 5.0).sum() + (a * 7.0).sum()).backward()
        assert h.grad is None
        np.testing.assert_array_equal(a.grad, [17.0, 17.0])
        np.testing.assert_array_equal(b.grad, [5.0, 5.0])

    def test_rule_with_wrong_gradient_count_rejected(self):
        x = t([1.0, 2.0], grad=True)
        out = Tensor._from_op(2 * x.data, (x,), lambda g: (2 * g, g))
        with pytest.raises(ValueError):
            out.sum().backward()


class TestBroadcastBackward:
    @pytest.mark.parametrize("sa,sb", [
        ((2, 3, 4), (1, 3, 1)),
        ((3, 4), (4,)),
        ((2, 1, 4), (2, 5, 1)),
        ((5,), ()),
    ])
    def test_broadcast_grad_equals_tiled_computation(self, sa, sb):
        rng = np.random.default_rng(hash((sa, sb)) % 2**32)
        a = rng.uniform(-2, 2, sa)
        b = rng.uniform(-2, 2, sb)

        at, bt = t(a, grad=True), t(b, grad=True)
        (at * bt).sum().backward()

        full = np.broadcast_shapes(sa, sb)
        a2 = t(np.broadcast_to(a, full).copy(), grad=True)
        b2 = t(np.broadcast_to(b, full).copy(), grad=True)
        (a2 * b2).sum().backward()

        # summing the tiled gradient over broadcast dims recovers the compact one
        def reduce_to(g, shape):
            while g.ndim > len(shape):
                g = g.sum(axis=0)
            for i, s in enumerate(shape):
                if s == 1:
                    g = g.sum(axis=i, keepdims=True)
            return g

        np.testing.assert_allclose(at.grad, reduce_to(a2.grad, a.shape), rtol=1e-12)
        np.testing.assert_allclose(bt.grad, reduce_to(b2.grad, b.shape), rtol=1e-12)


class TestReductionsAndViews:
    def test_mean_keepdims_grad(self):
        x = t(np.arange(12.0).reshape(3, 4), grad=True)
        x.mean(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((3, 4), 0.25))

    def test_max_ties_share_gradient(self):
        x = t([1.0, 3.0, 3.0], grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.5, 0.5])

    def test_transpose_roundtrip_grad(self):
        x = t(np.arange(6.0).reshape(2, 3), grad=True)
        (x.transpose() * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 2.0))

    def test_cat_splits_gradient(self):
        a = t([1.0, 2.0], grad=True)
        b = t([3.0], grad=True)
        (cat([a, b], axis=0) * t([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_composite_graph_gradient_matches_fd(values, seed):
    rng = np.random.default_rng(seed)
    x = t(values, grad=True)
    w = t(rng.uniform(-1, 1, size=len(values)))

    def loss():
        return ((x * w).sigmoid() + (x * x) * 0.1).sum()

    ok, max_abs, _ = check_gradients(loss, [x])
    assert ok, f"composite gradient mismatch {max_abs}"


def test_gradient_check_catches_wrong_backward_rule():
    # forward doubles x, backward passes g through unchanged: off by 1 per entry.
    # Dyadic values and a power-of-two eps make every difference exact.
    x = t(np.arange(6.0).reshape(2, 3) / 4, grad=True)

    def loss():
        return Tensor._from_op(2 * x.data, (x,), lambda g: (g,)).sum()

    ok, max_abs, _ = check_gradients(loss, [x], eps=2.0 ** -10)
    assert ok is False
    assert max_abs == 1


@pytest.mark.parametrize("case", ["block_pre", "block_pre_down"])
def test_gradient_check_catches_gated_pre_skip(case, monkeypatch):
    # the pre wiring must leave the skip ungated; this block's skip reads the
    # gated input's values while its tape edge still claims the ungated input
    class GatedSkipBlock(BasicBlock):
        def shortcut(self, x, train):
            gated = se_apply(x, self.se)
            return super().shortcut(Tensor._from_op(gated.data, (x,), lambda g: (g,)), train)

    assert check_gradients(*gradcheck.CASES[case](0))[0]
    monkeypatch.setattr(gradcheck, "BasicBlock", GatedSkipBlock)
    assert not check_gradients(*gradcheck.CASES[case](0))[0]


def test_no_grad_blocks_tape():
    x = t([1.0], grad=True)
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad
    with pytest.raises(NumericError):
        y.backward()


def test_forward_determinism_same_seed():
    def run():
        rng = np.random.default_rng(99)
        a = Tensor(rng.normal(size=(16, 16)).astype(np.float32))
        b = Tensor(rng.normal(size=(16, 16)).astype(np.float32))
        return ((a @ b).sigmoid() * a).sum().data.copy()

    assert np.array_equal(run(), run())
