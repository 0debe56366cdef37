"""Layer semantics: convolution vs the naive oracle, batch norm, pooling."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevx import nn
from sevx.gradcheck import check_gradients
from sevx.model import BasicBlock
from sevx.nn import (BN_EPS, BN_MOMENTUM, POOLINGS, STATS_EPS, BatchNorm2d, Conv2d, Linear,
                     conv2d_reference, population_std, temporal_stats_pool)
from sevx.se import squeeze
from sevx.tensor import ShapeError, Tensor, no_grad


def rng_of(seed):
    return np.random.default_rng(seed)


REFERENCE_SHAPES = pytest.mark.parametrize("stride, kernel, shape", [
    ((1, 1), 3, (1, 2, 5, 5)),
    ((2, 2), 3, (1, 2, 5, 5)),
    ((1, 2), 3, (1, 2, 5, 5)),
    ((2, 2), 1, (2, 2, 6, 7)),     # the down conv: padding 0, one stride phase read
    ((1, 1), 3, (3, 2, 5, 5)),
    ((2, 2), 3, (2, 2, 7, 9)),
    ((2, 1), 3, (2, 2, 7, 9)),
    ((2, 2), 3, (3, 2, 7, 9)),
], ids=["stride0", "stride1", "stride2", "kernel1-stride2", "batch3", "stride2-odd-7x9",
        "stride2x1", "batch3-stride2"])


def check_against_reference(stride, kernel, shape):
    """The conv's float64 forward of a seeded input against the oracle; returns
    (conv, input, output)."""
    x = rng_of(7).normal(size=shape)
    conv = Conv2d(shape[1], 3, kernel=kernel, stride=stride, rng=rng_of(8), dtype=np.float64)
    out = conv.forward(Tensor(x, dtype=np.float64)).data
    ref = conv2d_reference(x, conv.weight.data, stride, conv.padding)
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)
    return conv, x, out


def traced_peak(fn):
    """(fn's result, peak bytes allocated while fn ran, by tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_retained(fn):
    """(fn's result, bytes fn allocated that are still held, its result's data
    excluded), by tracemalloc: what a forward leaves on the tape."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[0] - before - result.data.nbytes
    finally:
        tracemalloc.stop()


def per_tap_dw(x, g, kernel, stride, padding):
    """dW of a conv as one GEMM per tap over all of its output columns, on the
    stride-phase layout of the Conv2d docstring, each phase built from np.pad."""
    b, cin = x.shape[:2]
    cout, fo, to = g.shape[1:]
    sf, st = stride
    fg, tg = fo + (kernel - 1) // sf, to + (kernel - 1) // st
    n_out = b * fg * tg - (fg - fo) * tg - (tg - to)
    xp = np.pad(x, ((0, 0), (0, 0), (padding[0],) * 2, (padding[1],) * 2)).transpose(1, 0, 2, 3)
    ggrid = np.zeros((cout, b, fg, tg), dtype=g.dtype)
    ggrid[:, :, :fo, :to] = g.transpose(1, 0, 2, 3)
    gm = ggrid.reshape(cout, b * fg * tg)[:, :n_out]
    dw = np.empty((cout, cin, kernel, kernel), dtype=g.dtype)
    for i in range(kernel):
        for j in range(kernel):
            phase = np.zeros((cin, b, fg, tg), dtype=x.dtype)
            cells = xp[:, :, i % sf::sf, j % st::st][:, :, :fg, :tg]
            phase[:, :, :cells.shape[2], :cells.shape[3]] = cells
            off = (i // sf) * tg + j // st
            dw[:, :, i, j] = np.matmul(gm, phase.reshape(cin, b * fg * tg)[:, off:off + n_out].T)
    return dw


def conv_backward_reference(x, w, g, stride, padding):
    """Float64 (dX, dW) of a conv, one product per tap over the zero-padded input."""
    (sf, st), (pf, pt), (fo, to) = stride, padding, g.shape[2:]
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pf, pf), (pt, pt)))
    dxp, dw = np.zeros_like(xp), np.zeros(w.shape)
    for i in range(w.shape[2]):
        for j in range(w.shape[3]):
            win = np.s_[:, :, i:i + sf * (fo - 1) + 1:sf, j:j + st * (to - 1) + 1:st]
            dw[:, :, i, j] = np.einsum("noab,ncab->oc", g, xp[win])
            dxp[win] += np.einsum("noab,oc->ncab", g, w[:, :, i, j])
    return dxp[:, :, pf:pf + x.shape[2], pt:pt + x.shape[3]], dw


def backward_gemms(out, g, block_columns=nn.BLOCK_COLUMNS):
    """(a conv output's backward rule run on g, the rule's np.matmul calls as
    (kind, rows of the gradient's tap stack, block columns)): a dX GEMM writes
    into ``out=``, a dW GEMM returns its (rows, cin) product."""
    calls = []
    matmul = np.matmul

    def gemm(a, b, out=None):
        calls.append(("dx", a.shape[1], b.shape[1]) if out is not None
                     else ("dw", a.shape[0], a.shape[1]))
        return matmul(a, b, out=out)

    with mock.patch.object(nn, "BLOCK_COLUMNS", block_columns), \
            mock.patch.object(np, "matmul", gemm):
        return out._backward(g), calls


class TestConv2d:
    def test_delta_kernel_is_identity(self):
        conv = Conv2d(1, 1)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        conv.weight = Tensor(w)
        x = rng_of(0).normal(size=(1, 1, 6, 7)).astype(np.float32)
        out = conv.forward(Tensor(x))
        np.testing.assert_allclose(out.data, x, atol=1e-7)

    def test_stride2_output_dims_halve_both_axes(self):
        # 60 x 400 input, stride 2, pad 1, 3x3 halves both axes to 30 x 200
        conv = Conv2d(1, 128, stride=(2, 2), rng=rng_of(1))
        out = conv.forward(Tensor(np.zeros((1, 1, 60, 400), dtype=np.float32)))
        assert out.shape == (1, 128, 30, 200)

    @REFERENCE_SHAPES
    def test_matches_naive_six_loop_reference(self, stride, kernel, shape):
        check_against_reference(stride, kernel, shape)

    @REFERENCE_SHAPES
    def test_blocked_forward_matches_reference(self, monkeypatch, stride, kernel, shape):
        # 7-column blocks restart at each batch item: every item spans several
        # blocks, 7s and then its ragged rest, and has the bytes of its forward alone
        monkeypatch.setattr(nn, "BLOCK_COLUMNS", 7)
        widths = []
        matmul = np.matmul

        def gemm(w, block, out):
            widths.append(block.shape[1])
            assert block.flags.c_contiguous     # a slice of a wider buffer would not be
            return matmul(w, block, out=out)

        monkeypatch.setattr(np, "matmul", gemm)
        conv, x, out = check_against_reference(stride, kernel, shape)
        fo, to = out.shape[2:]
        fg, tg = fo + (kernel - 1) // stride[0], to + (kernel - 1) // stride[1]
        n_item = fg * tg - (fg - fo) * tg - (tg - to)    # columns up to an item's last output
        assert n_item > 7
        assert widths == [min(7, n_item - c) for c in range(0, n_item, 7)] * shape[0]
        for n in range(shape[0]):
            alone = conv.forward(Tensor(x[n:n + 1], dtype=np.float64)).data
            assert alone.tobytes() == out[n:n + 1].tobytes()

    @given(b=st.integers(1, 3), cin=st.integers(1, 3), cout=st.integers(1, 3),
           f=st.integers(3, 9), t=st.integers(3, 9), kernel=st.sampled_from([1, 3]),
           stride=st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, 2])),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    # dX runs per x stride phase: an input the forward's last window misses
    # (f = 6 at stride 2) reads the gradient grid's zero cells, one it ends on
    # does not; at k = 1 the odd phases have no tap, and their dX is exactly 0
    @example(b=2, cin=2, cout=3, f=6, t=7, kernel=3, stride=(2, 2), seed=0)
    @example(b=2, cin=2, cout=3, f=6, t=7, kernel=1, stride=(2, 2), seed=1)
    @example(b=2, cin=2, cout=3, f=7, t=6, kernel=3, stride=(2, 1), seed=2)
    @example(b=2, cin=2, cout=3, f=6, t=7, kernel=1, stride=(1, 2), seed=3)
    @example(b=2, cin=2, cout=3, f=7, t=6, kernel=3, stride=(2, 1), seed=4)
    def test_grid_crop_matches_reference_and_finite_differences(self, b, cin, cout, f, t,
                                                                kernel, stride, seed):
        rng = rng_of(seed)
        conv = Conv2d(cin, cout, kernel=kernel, stride=stride, rng=rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(b, cin, f, t)), requires_grad=True, dtype=np.float64)
        ref = conv2d_reference(x.data, conv.weight.data, stride, conv.padding)
        # output columns the blocks walk (the Conv2d docstring's n_out); blocks of
        # just over half of them end every grid in a ragged block
        fo, to = ref.shape[2:]
        fg, tg = fo + (kernel - 1) // stride[0], to + (kernel - 1) // stride[1]
        n_out = b * fg * tg - (fg - fo) * tg - (tg - to)
        r = Tensor(rng.normal(size=ref.shape), dtype=np.float64)
        with mock.patch.object(nn, "BLOCK_COLUMNS", n_out // 2 + 1):
            np.testing.assert_allclose(conv.forward(x).data, ref, rtol=1e-10, atol=1e-12)
            ok, max_abs, _ = check_gradients(lambda: (conv.forward(x) * r).sum(),
                                             [x, conv.weight])
            dx, _ = conv.forward(x)._backward(r.data)
        assert ok, f"conv gradient mismatch, max abs err {max_abs}"
        if kernel == 1:     # an x phase no tap reads has no gradient at all
            read = np.zeros((f, t), dtype=bool)
            read[::stride[0], ::stride[1]] = True
            assert not dx[:, :, ~read].any()

    def test_tape_keeps_no_copy_of_the_input(self):
        # an im2col tape would keep 9 copies of the input, a phase-buffer tape one;
        # backward rebuilds the phase buffer from x, which the tape holds anyway
        x = Tensor(rng_of(10).normal(size=(20, 16, 60, 64)).astype(np.float32), requires_grad=True)
        for stride in ((1, 1), (2, 2)):
            conv = Conv2d(16, 16, stride=stride, rng=rng_of(9))
            out, retained = traced_retained(lambda: conv.forward(x))
            assert out.requires_grad
            assert retained <= 0.05 * x.data.nbytes, stride

    def test_grad_free_forward_peak_is_a_few_outputs(self):
        # a whole-input tap stack alone would be 9 inputs
        conv = Conv2d(128, 128, rng=rng_of(11))
        x = Tensor(rng_of(12).normal(size=(1, 128, 60, 400)).astype(np.float32))
        with no_grad():
            out, peak = traced_peak(lambda: conv.forward(x))
        assert peak < 4 * out.data.nbytes

    @pytest.mark.parametrize("cin, kernel, stride", [
        (3, 3, (1, 1)), (3, 3, (2, 2)), (3, 1, (2, 2)), (1, 3, (1, 1)),
    ], ids=["3x3-stride1", "3x3-stride2", "1x1-stride2", "stem-cin1"])
    def test_blocked_backward_matches_one_block_and_the_per_tap_gemm(self, cin, kernel, stride):
        rng = rng_of(15)
        conv = Conv2d(cin, 4, kernel=kernel, stride=stride, rng=rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, cin, 7, 9)), requires_grad=True, dtype=np.float64)
        out = conv.forward(x)
        g = rng.normal(size=out.shape)
        (dx, dw), gemms = backward_gemms(out, g, 10**9)
        (dx7, dw7), gemms7 = backward_gemms(out, g, 7)
        # 7-column blocks: more GEMMs, none wider than 7, the same sums
        assert max(cols for _, _, cols in gemms7) == 7 and len(gemms7) > len(gemms)
        np.testing.assert_allclose(dw7, dw, rtol=1e-12)
        np.testing.assert_allclose(dx7, dx, rtol=1e-12)
        np.testing.assert_allclose(dw, per_tap_dw(x.data, g, kernel, stride, conv.padding),
                                   rtol=1e-12)
        ref_dx, ref_dw = conv_backward_reference(x.data, conv.weight.data, g, stride, conv.padding)
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kernel, stride", [(3, (2, 2)), (3, (1, 2)), (1, (2, 1))],
                             ids=["3x3-stride2", "3x3-stride1x2", "1x1-stride2x1"])
    def test_backward_matches_the_oracle_at_every_padding(self, kernel, stride):
        # padding 2 at 3x3 stride 2 gives an odd phase whose taps start past
        # the gradient's first row: its grid crops the gradient instead of padding it
        rng = rng_of(26)
        for padding in np.ndindex(kernel, kernel):
            conv = Conv2d(2, 3, kernel=kernel, stride=stride, padding=padding, rng=rng,
                          dtype=np.float64)
            x = Tensor(rng.normal(size=(2, 2, 7, 6)), requires_grad=True, dtype=np.float64)
            out = conv.forward(x)
            g = rng.normal(size=out.shape)
            dx, dw = out._backward(g)
            ref_dx, ref_dw = conv_backward_reference(x.data, conv.weight.data, g, stride, padding)
            np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-13, err_msg=str(padding))
            np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-13, err_msg=str(padding))

    def test_stride2_dx_multiplies_no_dilation_zero(self):
        # the four x phases of a 3x3 stride-2 conv take sub-kernels 1x1, 1x2, 2x1
        # and 2x2: one block per phase and item, 9*cout rows of the gradient's taps
        conv = Conv2d(3, 4, stride=(2, 2), rng=rng_of(19), dtype=np.float64)
        x = Tensor(rng_of(20).normal(size=(1, 3, 8, 9)), requires_grad=True, dtype=np.float64)
        out = conv.forward(x)
        _, gemms = backward_gemms(out, rng_of(21).normal(size=out.shape), 10**9)
        for kind in ("dx", "dw"):
            rows = [k for which, k, _ in gemms if which == kind]
            assert sorted(rows) == [4, 8, 8, 16] and sum(rows) == 9 * 4

    @pytest.mark.parametrize("block_columns", [2048, 7])
    def test_stride1_dx_is_the_correlation_with_the_turned_kernel(self, block_columns):
        # the bytes of dX as the forward's correlation of g, padded by k-1-p,
        # with the kernel turned 180 degrees and cin and cout swapped
        conv = Conv2d(5, 6, rng=rng_of(22))
        x = Tensor(rng_of(23).normal(size=(2, 5, 9, 11)).astype(np.float32), requires_grad=True)
        out = conv.forward(x)
        g = rng_of(24).normal(size=out.shape).astype(np.float32)
        with mock.patch.object(nn, "BLOCK_COLUMNS", block_columns):
            dx, _ = out._backward(g)
            turned = conv.weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            want = nn._correlate(g, turned, (1, 1), (1, 1), (9, 11))
        assert dx.tobytes() == want.tobytes()

    def test_backward_runs_only_the_gemms_a_rule_needs(self):
        rng = rng_of(25)
        # the stem: its input needs no gradient, so only dW GEMMs run
        x = Tensor(rng.normal(size=(2, 1, 6, 7)).astype(np.float32))
        stem = Conv2d(1, 4, rng=rng).forward(x)
        (dx, dw), gemms = backward_gemms(stem, np.ones(stem.shape, dtype=np.float32))
        assert dx is None and dw is not None and {kind for kind, _, _ in gemms} == {"dw"}
        # a frozen weight needs no dW
        for stride in ((1, 1), (2, 2)):
            conv = Conv2d(3, 4, stride=stride, rng=rng)
            conv.weight.requires_grad = False
            out = conv.forward(Tensor(rng.normal(size=(2, 3, 6, 7)).astype(np.float32),
                                      requires_grad=True))
            (dx, dw), gemms = backward_gemms(out, np.ones(out.shape, dtype=np.float32))
            assert dw is None and dx is not None and {kind for kind, _, _ in gemms} == {"dx"}

    @pytest.mark.parametrize("kernel, stride, inputs",
                             [(3, (1, 1), 3.5), (3, (2, 2), 2.5), (1, (2, 2), 2.0)],
                             ids=["3x3-stride1", "3x3-stride2", "1x1-stride2"])
    def test_backward_peak_holds_no_whole_input_tap_stack(self, kernel, stride, inputs):
        # the stage-1 toy shape: a stack of all 9 tap windows of the input
        # would alone be about 47 MB, over 9 inputs. dX is one input; per x
        # phase, backward holds the gradient's grid and the x phase, which
        # dX overwrites: about one input each at stride 1, a quarter at stride 2
        x = Tensor(rng_of(16).normal(size=(20, 16, 60, 64)).astype(np.float32), requires_grad=True)
        out = Conv2d(16, 16, kernel=kernel, stride=stride, rng=rng_of(17)).forward(x)
        g = rng_of(18).normal(size=out.shape).astype(np.float32)
        _, peak = traced_peak(lambda: out._backward(g))
        assert peak < inputs * x.data.nbytes

    def test_channel_mismatch_error(self):
        conv = Conv2d(3, 4)
        with pytest.raises(ShapeError, match="channels"):
            conv.forward(Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32)))

    def test_empty_output_error(self):
        conv = Conv2d(1, 1, padding=(0, 0))
        with pytest.raises(ShapeError, match="empty"):
            conv.forward(Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32)))

    @pytest.mark.parametrize("kernel, padding", [(1, (1, 1)), (3, (3, 1)), (3, (1, -1))])
    def test_padding_outside_zero_to_kernel_minus_one_is_refused(self, kernel, padding):
        # dX correlates with padding k-1-p, which must not be negative
        with pytest.raises(ValueError, match=r"padding must lie in \[0, %d\]" % (kernel - 1)):
            Conv2d(1, 1, kernel=kernel, padding=padding)

    def test_bias_is_refused(self):
        # every conv feeds a batch norm, whose shift a bias would duplicate
        with pytest.raises(ValueError, match="no bias"):
            Conv2d(1, 1, bias=True)
        assert Conv2d(1, 1, bias=False).bias is None

    def test_linearity_without_bias(self):
        conv = Conv2d(2, 3, rng=rng_of(5))
        x = rng_of(6).normal(size=(2, 2, 6, 6)).astype(np.float32)
        out1 = conv.forward(Tensor(3.0 * x)).data
        out2 = 3.0 * conv.forward(Tensor(x)).data
        np.testing.assert_allclose(out1, out2, atol=1e-5)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        bn = BatchNorm2d(3)
        x = rng_of(2).normal(loc=5.0, scale=3.0, size=(4, 3, 5, 6)).astype(np.float32)
        out = bn.forward(Tensor(x), train=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_affine_parameters(self):
        bn = BatchNorm2d(2)
        bn.gamma = Tensor(np.full(2, 2.0, dtype=np.float32), requires_grad=True)
        bn.beta = Tensor(np.full(2, 3.0, dtype=np.float32), requires_grad=True)
        x = rng_of(3).normal(size=(8, 2, 4, 4)).astype(np.float32)
        out = bn.forward(Tensor(x), train=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 3.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 2.0, atol=1e-3)

    def test_train_output_invariant_to_channel_affine_input_rescale(self):
        bn = BatchNorm2d(3)
        x = rng_of(4).normal(size=(4, 3, 5, 5)).astype(np.float32)
        scale = np.array([2.0, 0.5, 7.0], dtype=np.float32).reshape(1, 3, 1, 1)
        shift = np.array([1.0, -2.0, 0.3], dtype=np.float32).reshape(1, 3, 1, 1)
        out1 = bn.forward(Tensor(x), train=True).data
        out2 = bn.forward(Tensor(scale * x + shift), train=True).data
        np.testing.assert_allclose(out1, out2, atol=1e-4)

    def test_eval_before_training_uses_identity_stats(self):
        bn = BatchNorm2d(2)
        x = rng_of(5).normal(size=(2, 2, 3, 3)).astype(np.float32)
        out = bn.forward(Tensor(x), train=False).data
        np.testing.assert_allclose(out, x / np.sqrt(1 + BN_EPS), atol=1e-6)

    def test_eval_is_affine_map_of_running_stats(self):
        bn = BatchNorm2d(3)
        rng = rng_of(6)
        bn.running_mean = rng.normal(size=3).astype(np.float32)
        bn.running_var = rng.uniform(0.5, 2.0, 3).astype(np.float32)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
        bn.beta.data[...] = rng.normal(size=3)
        x = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        out = bn.forward(Tensor(x), train=False).data
        c = (1, 3, 1, 1)
        rstd = np.sqrt(bn.running_var.reshape(c) + BN_EPS)
        scale = bn.gamma.data.reshape(c) / rstd
        shift = bn.beta.data.reshape(c) - bn.running_mean.reshape(c) * scale
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, x * scale + shift)
        # within 4 ulps of the largest output of the four-pass form it replaces
        # (normalize, scale, shift); an output near zero cancels in both forms,
        # so per-element ulps have no bound
        four_pass = (bn.gamma.data.reshape(c) * ((x - bn.running_mean.reshape(c)) / rstd)
                     + bn.beta.data.reshape(c))
        np.testing.assert_allclose(out, four_pass, rtol=0,
                                   atol=4 * np.spacing(np.abs(four_pass).max()))

    def test_eval_peak_is_about_one_output(self):
        bn = BatchNorm2d(128)
        x = Tensor(rng_of(13).normal(size=(1, 128, 60, 400)).astype(np.float32))
        with no_grad():
            out, peak = traced_peak(lambda: bn.forward(x, False))
        assert peak < 1.5 * out.data.nbytes

    def test_train_tape_keeps_no_xhat(self):
        # backward rebuilds xhat from x and the per-channel mean and inverse std
        bn = BatchNorm2d(16)
        x = Tensor(rng_of(14).normal(size=(20, 16, 60, 64)).astype(np.float32), requires_grad=True)
        out, retained = traced_retained(lambda: bn.forward(x, True))
        assert out.requires_grad
        assert retained <= 0.05 * x.data.nbytes

    def test_train_forward_and_backward_peak_is_three_inputs(self):
        # the output, the rebuilt xhat that becomes dx, and g * xhat for dgamma;
        # the out-of-place expressions held a fourth
        bn = BatchNorm2d(16)
        x = Tensor(rng_of(14).normal(size=(20, 16, 60, 64)).astype(np.float32), requires_grad=True)
        g = rng_of(15).normal(size=x.shape).astype(np.float32)

        def forward_and_backward():
            out = bn.forward(x, True)
            return out, out._backward(g)

        _, peak = traced_peak(forward_and_backward)
        assert peak < 3.5 * x.data.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_bytes_match_the_expressions_computed_in_place(self, dtype):
        # channel 0 is constant and holds +-0, with beta -0, as in _bn_relu_case
        rng = rng_of(16)
        x = rng.normal(loc=1.0, scale=2.0, size=(3, 4, 5, 6)).astype(dtype)
        x[:, 0] = 0.0
        x[0, 0, 0, :3] = -0.0
        bn = BatchNorm2d(4, dtype=dtype)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, 4)
        bn.beta.data[...] = [-0.0, *rng.normal(size=3)]
        rm, rv = bn.running_mean, bn.running_var
        g = rng.normal(size=x.shape).astype(dtype)
        leaf = Tensor(x, requires_grad=True)
        out = bn.forward(leaf, True)
        (out * Tensor(g)).sum().backward()

        axes, n, m = (0, 2, 3), x.size // 4, BN_MOMENTUM
        gamma, beta = bn.gamma.data.reshape(1, 4, 1, 1), bn.beta.data.reshape(1, 4, 1, 1)
        mu = x.mean(axis=axes, keepdims=True)
        var = np.square(x - mu).mean(axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mu) * inv_std
        dbeta = g.sum(axis=axes, keepdims=True)
        dgamma = (g * xhat).sum(axis=axes, keepdims=True)
        want = {"out": gamma * xhat + beta,
                "running_mean": (1 - m) * rm + m * mu.reshape(4),
                "running_var": (1 - m) * rv + m * var.reshape(4),
                "dx": gamma * inv_std * (g - (dbeta + xhat * dgamma) / n),
                "dgamma": dgamma.reshape(4), "dbeta": dbeta.reshape(4)}
        got = {"out": out.data, "running_mean": bn.running_mean, "running_var": bn.running_var,
               "dx": leaf.grad, "dgamma": bn.gamma.grad, "dbeta": bn.beta.grad}
        for key, value in want.items():
            assert got[key].dtype == dtype and got[key].tobytes() == value.tobytes(), key
        assert np.signbit(out.data[:, 0]).any() and (~np.signbit(out.data[:, 0])).any()

    def test_running_stats_track_batches(self):
        bn = BatchNorm2d(1)
        x = np.full((2, 1, 2, 2), 10.0, dtype=np.float32)
        bn.forward(Tensor(x), train=True)
        assert bn.running_mean[0] == pytest.approx(BN_MOMENTUM * 10)


class TestStatsPool:
    """Both callers of nn.stats_pool against numpy, every mode."""

    @given(shape=st.tuples(*[st.integers(1, 4)] * 4), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(POOLINGS), caller=st.sampled_from(["squeeze", "temporal"]))
    @example(shape=(1, 2, 2, 5), seed=9, mode="mean_std", caller="temporal")
    # one pooled position: std is sqrt(STATS_EPS) for both callers
    @example(shape=(2, 3, 2, 1), seed=1, mode="mean_std", caller="temporal")
    @example(shape=(2, 3, 1, 1), seed=1, mode="std", caller="squeeze")
    @settings(max_examples=200, deadline=None)
    def test_both_callers_match_numpy(self, shape, seed, mode, caller):
        x = rng_of(seed).normal(size=shape)
        pool, axes = {"squeeze": (squeeze, (2, 3)), "temporal": (temporal_stats_pool, (3,))}[caller]
        flat = {"max": x.max(axis=axes), "mean": x.mean(axis=axes),
                "std": np.sqrt(x.var(axis=axes) + STATS_EPS)}
        flat = {k: v.reshape(shape[0], -1) for k, v in flat.items()}
        flat["mean_std"] = np.concatenate([flat["mean"], flat["std"]], axis=1)
        out = pool(Tensor(x, dtype=np.float64), mode).data
        np.testing.assert_allclose(out, flat[mode], rtol=1e-12)


class TestTemporalStatsPool:
    def test_constant_over_time(self):
        x = np.tile(rng_of(1).normal(size=(1, 2, 3, 1)), (1, 1, 1, 5)).astype(np.float32)
        out = temporal_stats_pool(Tensor(x), mode="mean_std").data
        np.testing.assert_allclose(out[:, :6], x[..., 0].reshape(1, 6), atol=1e-6)
        np.testing.assert_allclose(out[:, 6:], 0.0, atol=2e-4)  # eps inside sqrt

    def test_flatten_width_at_full_scale(self):
        x = Tensor(np.zeros((1, 256, 8, 50), dtype=np.float32))
        assert temporal_stats_pool(x, mode="mean").shape == (1, 2048)
        assert temporal_stats_pool(x, mode="mean_std").shape == (1, 4096)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_time_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 2, 6)).astype(np.float32)
        perm = rng.permutation(6)
        out1 = temporal_stats_pool(Tensor(x), mode="mean_std").data
        out2 = temporal_stats_pool(Tensor(x[..., perm]), mode="mean_std").data
        np.testing.assert_allclose(out1, out2, atol=1e-5)

    def test_empty_time_axis_rejected(self):
        with pytest.raises(ShapeError):
            temporal_stats_pool(Tensor(np.zeros((1, 2, 3, 0), dtype=np.float32)))


class TestPopulationStd:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axes", [3, (2, 3)])
    def test_same_bytes_as_square_and_mean(self, axes, dtype):
        def run(std_of):
            x = Tensor(rng_of(10).normal(size=(2, 3, 4, 5)).astype(dtype), requires_grad=True)
            std = std_of(x, x.mean(axis=axes, keepdims=True), axes)
            r = Tensor(rng_of(11).normal(size=std.shape).astype(dtype))
            (std * r).sum().backward()
            return std.data.tobytes(), x.grad.tobytes()

        def square_and_mean(x, mu, axes):
            centered = x - mu
            return ((centered * centered).mean(axis=axes) + STATS_EPS) ** 0.5

        assert run(population_std) == run(square_and_mean)

    def test_tape_keeps_no_square(self):
        x = Tensor(rng_of(12).normal(size=(20, 16, 60, 64)).astype(np.float32),
                   requires_grad=True)
        mu = x.mean(axis=(2, 3), keepdims=True)
        std, retained = traced_retained(lambda: population_std(x, mu, (2, 3)))
        assert std.requires_grad
        # the rule recomputes x - mu: no array of x's size stays on the tape
        assert retained <= 0.05 * x.data.nbytes


class TestBasicBlock:
    def test_identity_skip_when_shape_preserved(self):
        block = BasicBlock(4, 4, stride=1, name="b", seed=0)
        assert block.down_conv is None

    def test_projection_skip_on_stride(self):
        block = BasicBlock(4, 8, stride=2, name="b", seed=0)
        assert block.down_conv is not None
        x = Tensor(rng_of(0).normal(size=(2, 4, 8, 8)).astype(np.float32))
        assert block.forward(x, train=False).shape == (2, 8, 4, 4)

    def test_output_nonnegative_after_final_relu(self):
        block = BasicBlock(3, 3, stride=1, name="b", seed=1)
        x = Tensor(rng_of(2).normal(size=(2, 3, 6, 6)).astype(np.float32))
        assert block.forward(x, train=True).data.min() >= 0.0


def test_linear_shape_check():
    layer = Linear(4, 2)
    with pytest.raises(ShapeError):
        layer.forward(Tensor(np.zeros((3, 5), dtype=np.float32)))
