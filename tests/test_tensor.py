"""Tests for the autodiff core: forward oracles, backward vs finite differences."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewdet import tensor as T
from fewdet.tensor import Tape, Tensor, backward, grad_check
from oracles import col2im_slices


def naive_conv2d(x, k, bias=None, stride=1, padding=0):
    """Direct quadruple-loop convolution used as the conv oracle."""
    cout, cin, kh, kw = k.shape
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((cout, ho, wo))
    for o in range(cout):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
                out[o, i, j] = np.sum(patch * k[o])
    if bias is not None:
        out += bias[:, None, None]
    return out


class TestTensorBasics:

    def test_float64_storage(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32))
        assert t.data.dtype == np.float64

    def test_nonfinite_rejected(self):
        with pytest.raises(T.NonFiniteError):
            Tensor([1.0, np.nan])
        with pytest.raises(T.NonFiniteError):
            Tensor([np.inf])

    def test_no_tape_means_no_tracking(self):
        a = Tensor([1.0], requires_grad=True)
        out = T.scale(a, 2.0)
        assert out.requires_grad is False


class TestFinitenessContract:
    """Tensors and op outputs hold only finite values, and the test that
    enforces it cannot raise a FloatingPointError of its own."""

    OVERFLOWING = {
        "scale": lambda: T.scale(Tensor([1.0, 1e308]), 10.0),
        "add": lambda: T.add(Tensor([1e308]), Tensor([1e308, 1.0])),
        "matmul": lambda: T.matmul(Tensor([[1e308, 1e308]]), Tensor(np.ones((2, 3)))),
        "conv2d": lambda: T.conv2d(Tensor(np.full((1, 2, 3, 3), 1e308)),
                                   Tensor(np.ones((1, 2, 2, 2))), padding=1),
    }

    @pytest.mark.parametrize("op", sorted(OVERFLOWING))
    def test_overflowing_result_raises(self, op):
        """Every floating-point error raised but overflow and invalid
        values, which the training loop leaves to this test (raised, numpy
        reports the overflow before the test runs)."""
        with np.errstate(all="raise", over="ignore", invalid="ignore"):
            with pytest.raises(T.NonFiniteError):
                self.OVERFLOWING[op]()

    def test_finite_values_whose_sum_overflows_are_accepted(self):
        with np.errstate(all="raise"):
            t = Tensor([1e308, 1e308])
            out = T.add(t, Tensor([0.0, 0.0]))
            conv = T.conv2d(Tensor(np.full((1, 1, 2, 2), 1e308)), Tensor(np.ones((1, 1, 1, 1))))
        assert t.data.tolist() == out.data.tolist() == [1e308, 1e308]
        assert np.all(conv.data == 1e308)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_construction_raises(self, value):
        with np.errstate(all="raise"):
            with pytest.raises(T.NonFiniteError):
                Tensor([1.0, value])
            with pytest.raises(T.NonFiniteError):
                Tensor(value)

    def test_fused_relu_tests_the_pre_activation(self):
        """A -inf pre-activation raises, though the ReLU would zero it:
        from an overflow, and from an input that went non-finite in place
        (as a parameter view does when a step overflows), which sets no
        floating-point flag."""
        x = Tensor(np.full((1, 1, 2, 2), 1e308))
        with np.errstate(all="raise", over="ignore"):
            with pytest.raises(T.NonFiniteError):
                T.conv2d(x, Tensor(np.full((1, 1, 1, 1), -10.0)), relu=True)
        x = Tensor(np.ones((1, 1, 2, 2)))
        x.data[0, 0, 1, 0] = np.inf
        with np.errstate(all="raise"):
            with pytest.raises(T.NonFiniteError):
                T.conv2d(x, Tensor(-np.ones((1, 1, 1, 1))), Tensor([0.0]), relu=True)


class TestForwardOracles:

    def test_conv2d_single_window(self):
        """2x2 kernel on a 2x2 image collapses to one dot product: 2*3 + 1 = 7."""
        x = Tensor(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
        k = Tensor(np.array([[[[2.0, 0.0], [0.0, 1.0]]]]))
        b = Tensor(np.array([4.0]))
        np.testing.assert_allclose(T.conv2d(x, k).data, [[[[3.0]]]])
        np.testing.assert_allclose(T.conv2d(x, k, b).data, [[[[7.0]]]])

    def test_conv2d_output_size_formula(self):
        rng = np.random.default_rng(0)
        for h, kk, s, p in [(7, 3, 2, 1), (5, 1, 1, 0), (8, 3, 3, 0), (4, 4, 1, 2)]:
            x = Tensor(rng.standard_normal((2, h, h))[None])
            k = Tensor(rng.standard_normal((3, 2, kk, kk)))
            out = T.conv2d(x, k, stride=s, padding=p)
            expect = (h + 2 * p - kk) // s + 1
            assert out.shape == (1, 3, expect, expect)

    def test_conv2d_matches_naive(self):
        rng = np.random.default_rng(7)
        for stride, padding in [(1, 0), (1, 1), (2, 1), (2, 0)]:
            x = rng.standard_normal((3, 6, 5))
            k = rng.standard_normal((4, 3, 3, 3))
            b = rng.standard_normal(4)
            got = T.conv2d(Tensor(x[None]), Tensor(k), Tensor(b), stride=stride,
                           padding=padding)
            np.testing.assert_allclose(got.data[0], naive_conv2d(x, k, b, stride, padding),
                                       rtol=0, atol=1e-12)

    def test_conv2d_shape_errors(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(T.ShapeError):
            T.conv2d(x, Tensor(np.zeros((1, 3, 2, 2))))  # channel mismatch
        with pytest.raises(T.ShapeError):
            T.conv2d(x, Tensor(np.zeros((1, 2, 5, 5))))  # kernel larger than input

    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv2d_non_contiguous_input(self, padding):
        """A Fortran-ordered or transposed input convolves bitwise as its
        C-ordered copy does: the window view needs a contiguous buffer."""
        rng = np.random.default_rng(72)
        k = Tensor(rng.standard_normal((4, 3, 3, 3)))
        xv = rng.standard_normal((2, 3, 6, 5))
        for view in (np.asfortranarray(xv), xv.transpose(0, 1, 3, 2)):
            assert not view.flags.c_contiguous
            x = Tensor(view)
            assert not x.data.flags.c_contiguous
            got = T.conv2d(x, k, padding=padding).data
            want = T.conv2d(Tensor(np.ascontiguousarray(view)), k, padding=padding).data
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("padding", [-1, -2])
    def test_conv2d_negative_padding_rejected(self, padding):
        x = Tensor(np.zeros((1, 2, 6, 6)))
        with pytest.raises(ValueError, match="padding must be >= 0"):
            T.conv2d(x, Tensor(np.zeros((1, 2, 2, 2))), padding=padding)

    def test_conv2d_stack_is_per_sample(self):
        """Each sample of a stack convolves exactly as it does alone."""
        rng = np.random.default_rng(70)
        for stride, padding in [(1, 0), (1, 1), (2, 1), (2, 0)]:
            x = rng.standard_normal((5, 3, 7, 6))
            k, b = Tensor(rng.standard_normal((4, 3, 3, 3))), Tensor(rng.standard_normal(4))
            got = T.conv2d(Tensor(x), k, b, stride=stride, padding=padding).data
            for i in range(5):
                alone = T.conv2d(Tensor(x[i:i + 1]), k, b, stride=stride, padding=padding)
                assert got[i].tobytes() == alone.data[0].tobytes()

    def test_conv2d_kernel_sequence_equals_separate_convs(self):
        """Two kernels over one input give the separate convs' outputs
        stacked by channel and, to the bit, their summed gradients."""
        rng = np.random.default_rng(71)
        xv = rng.standard_normal((1, 3, 6, 6))
        kv = [rng.standard_normal((4, 3, 3, 3)), rng.standard_normal((2, 3, 3, 3))]
        bv = [rng.standard_normal(4), rng.standard_normal(2)]
        w = rng.standard_normal((1, 6, 6, 6))
        runs = []
        for fused in (False, True):
            x = Tensor(xv, requires_grad=True)
            ks = [Tensor(v, requires_grad=True) for v in kv]
            bs = [Tensor(v, requires_grad=True) for v in bv]
            with Tape() as tape:
                if fused:
                    y = T.conv2d(x, ks, bs, padding=1)
                else:
                    y = T.concat([T.conv2d(x, k, b, padding=1) for k, b in zip(ks, bs)],
                                 axis=1)
                loss = T.sum_all(T.mul(y, Tensor(w)))
            backward(tape, loss)
            runs.append([y.data, x.grad] + [t.grad for t in ks + bs])
        for sep, fus in zip(*runs):
            assert sep.tobytes() == fus.tobytes()

    def test_softmax_spatial_log_logits(self):
        """exp undoes log, so softmax of ln([[1,3],[2,2]]) is the values over 8."""
        logits = Tensor(np.log(np.array([[1.0, 3.0], [2.0, 2.0]])))
        p = T.softmax_spatial(logits)
        np.testing.assert_allclose(p.data, [[0.125, 0.375], [0.25, 0.25]], atol=1e-15)

    def test_softmax_spatial_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = Tensor(rng.standard_normal((5, 7)) * rng.uniform(0.1, 50.0))
            p = T.softmax_spatial(x)
            assert abs(p.data.sum() - 1.0) <= 1e-12
            assert np.all(p.data > 0.0)

    def test_softmax_spatial_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4))
        a = T.softmax_spatial(Tensor(x))
        b = T.softmax_spatial(Tensor(x + 1234.5))
        np.testing.assert_allclose(a.data, b.data, atol=1e-15)

    def test_layer_norm_two_point(self):
        """[1,-1] has mean 0, population std 1; unit gain and bias 2 give [3,1]."""
        x = Tensor(np.array([1.0, -1.0]))
        gain = Tensor(np.array([1.0, 1.0]))
        bias = Tensor(np.array([2.0, 2.0]))
        exact = T.layer_norm(x, gain, bias, eps_ln=0.0)
        np.testing.assert_allclose(exact.data, [3.0, 1.0], atol=1e-15)

    def test_layer_norm_degenerate_cases(self):
        out = T.layer_norm(Tensor(np.array([5.0, 5.0])),
                           Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [0.0, 0.0], atol=0)
        rng = np.random.default_rng(55)
        x, b = rng.standard_normal(4), rng.standard_normal(4)
        out = T.layer_norm(Tensor(x), Tensor(np.zeros(4)), Tensor(b))
        np.testing.assert_allclose(out.data, b, atol=0)

    def test_layer_norm_population_variance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(16)
        out = T.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)))
        expect = (x - x.mean()) / np.sqrt(x.var() + 1e-5)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_log_shift_at_e(self):
        """ln(e + 0) is exactly 1, ln(e + 1) is a frozen constant."""
        out = T.log_shift(Tensor(np.array([0.0, 1.0])), eps=np.e)
        assert out.data[0] == 1.0
        np.testing.assert_allclose(out.data[1], 1.3132616875182228, rtol=0, atol=0)

    def test_log_shift_domain_error(self):
        with pytest.raises(ValueError):
            T.log_shift(Tensor(np.array([-2.0])), eps=1.0)

    def test_smooth_l1_piecewise(self):
        a = Tensor(np.array([0.5, 2.0, -3.0, 1.0]))
        b = Tensor(np.zeros(4))
        out = T.smooth_l1(a, b)
        np.testing.assert_allclose(out.data, [0.125, 1.5, 2.5, 0.5], atol=1e-15)

    def test_softmax_cross_entropy_uniform(self):
        """Equal logits over C classes cost ln(C) for any target."""
        logits = Tensor(np.zeros((3, 4)))
        out = T.softmax_cross_entropy(logits, [0, 1, 3])
        np.testing.assert_allclose(out.data, np.log(4.0), atol=1e-15)

    def test_softmax_cross_entropy_extreme_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        out = T.softmax_cross_entropy(logits, [0, 0])
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data[1], 1000.0, atol=1e-12)

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(6)
        v = T.l2_normalize(Tensor(rng.standard_normal(9)))
        np.testing.assert_allclose(np.linalg.norm(v.data), 1.0, atol=1e-12)
        m = T.l2_normalize(Tensor(rng.standard_normal((4, 5))), axis=1)
        np.testing.assert_allclose(np.linalg.norm(m.data, axis=1), np.ones(4), atol=1e-12)

    def test_l2_normalize_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            T.l2_normalize(Tensor(np.zeros(3)))


def mixed_grads(rng, shape):
    """Normal draws scaled by 1e-300..1e300, with +0.0 and -0.0 sprinkled in."""
    g = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, size=shape)
    g[rng.random(shape) < 0.2] = 0.0
    g[rng.random(shape) < 0.2] = -0.0
    return g


class TestScatterOracles:
    """conv2d's col2im and gather's backward against the plain scatter loops
    they replace, to the byte: the order of their additions sets the bits of
    every gradient upstream."""

    @pytest.mark.parametrize("stride,pad", itertools.product((1, 2, 3), (0, 1, 2)))
    def test_col2im_matches_slice_loop(self, stride, pad):
        rng = np.random.default_rng(90 + 3 * stride + pad)
        h, w = 7, 5
        for (kh, kw), b in itertools.product(((1, 1), (3, 3), (4, 4)), (1, 3)):
            ho, wo = T._conv_out_size(h, kh, stride, pad), T._conv_out_size(w, kw, stride, pad)
            for _ in range(3):
                g = mixed_grads(rng, (b, 2 * kh * kw, ho * wo))
                got = T._col2im(g, (b, 2, h, w), kh, kw, stride, pad, ho, wo)
                want = col2im_slices(g, (b, 2, h, w), kh, kw, stride, pad, ho, wo)
                assert got.tobytes() == want.tobytes(), (kh, kw, b)
                assert got.strides == want.strides

    def test_col2im_index_is_shared_and_read_only(self):
        args = ((2, 3, 6, 5), 3, 3, 2, 1, 3, 3)
        idx = T._col2im_index(*args)
        assert idx is T._col2im_index(*args)
        with pytest.raises(ValueError):
            idx[0] = 1

    @pytest.mark.parametrize("sequence", [False, True])
    def test_conv2d_gradients_match_slice_loop(self, monkeypatch, sequence):
        """x, kernel and bias gradients equal those of the slice-loop
        col2im, for one kernel and for a kernel sequence."""
        rng = np.random.default_rng(95 + sequence)
        cases = [(rng.standard_normal((b, 3, 9, 6)), stride, padding)
                 for b, stride, padding in [(1, 1, 1), (3, 2, 1), (2, 1, 0), (1, 3, 2)]]
        shapes = [(4, 3, 3, 3), (2, 3, 3, 3)] if sequence else [(5, 3, 3, 3)]
        kv = [rng.standard_normal(s) for s in shapes]
        bv = [rng.standard_normal(s[0]) for s in shapes]

        def grads():
            out = []
            for xv, stride, padding in cases:
                x = Tensor(xv, requires_grad=True)
                ks = [Tensor(v, requires_grad=True) for v in kv]
                bs = [Tensor(v, requires_grad=True) for v in bv]
                with Tape() as tape:
                    y = T.conv2d(x, ks if sequence else ks[0], bs if sequence else bs[0],
                                 stride=stride, padding=padding)
                    w = Tensor(mixed_grads(np.random.default_rng(7), y.data.shape))
                    loss = T.sum_all(T.mul(y, w))
                backward(tape, loss)
                out += [x.grad] + [t.grad for t in ks + bs]
            return out

        new = grads()
        monkeypatch.setattr(T, "_col2im", col2im_slices)
        old = grads()
        for got, want in zip(new, old):
            assert got.tobytes() == want.tobytes() and got.strides == want.strides

    @pytest.mark.parametrize("axis", [0, 1])
    def test_gather_backward_matches_add_at(self, axis):
        """Ranges (the slice path), index arrays, permutations and repeated
        indices scatter bitwise as np.add.at does, into a row-major gradient
        even for a column-major input; the forward is np.take's C-contiguous
        copy."""
        rng = np.random.default_rng(97 + axis)
        av = rng.standard_normal((6, 5))
        n = av.shape[axis]
        cases = [range(n), range(1, n - 1), range(2, 3), range(n - 1, -1, -1),
                 range(0, n, 2), range(-2, 0), np.arange(n), np.array([2]),
                 rng.permutation(n), np.array([3, 1, 3, 0, 3]), np.array([n - 1, n - 1]),
                 np.array([0, 1, 2, 2]), np.array([-2, -1])]
        for data, idx in itertools.product((av, np.asfortranarray(av)), cases):
            a = Tensor(data, requires_grad=True)
            with Tape() as tape:
                y = T.gather(a, idx, axis=axis)
                g = mixed_grads(rng, y.data.shape)
                loss = T.sum_all(T.mul(y, Tensor(g)))
            backward(tape, loss)
            want = np.zeros(av.shape)
            arr = np.asarray(idx)
            np.add.at(want, arr if axis == 0 else (slice(None), arr), g)
            assert a.grad.tobytes() == want.tobytes(), idx
            assert a.grad.flags.c_contiguous
            assert y.data.tobytes() == np.take(av, arr, axis=axis).tobytes()
            assert y.data.flags.c_contiguous


class TestFusedRelu:
    """conv2d(..., relu=True) against relu(conv2d(...)), to the byte."""

    def run(self, xv, kv, bv, w, fused, **kw):
        """Output and gradients of sum(w * relu(conv)); kv and bv are one
        array or a list of them (stacked kernels)."""
        stacked = isinstance(kv, list)
        x = Tensor(xv, requires_grad=True)
        ks = [Tensor(v, requires_grad=True) for v in (kv if stacked else [kv])]
        bs = [Tensor(v, requires_grad=True) for v in (bv if stacked else [bv])]
        k, b = (ks, bs) if stacked else (ks[0], bs[0])
        with Tape() as tape:
            y = T.conv2d(x, k, b, relu=True, **kw) if fused \
                else T.relu(T.conv2d(x, k, b, **kw))
            loss = T.sum_all(T.mul(y, Tensor(w)))
        backward(tape, loss)
        return [y.data, x.grad] + [t.grad for t in ks + bs]

    def assert_same(self, *args, **kw):
        for got, want in zip(self.run(*args, fused=True, **kw),
                             self.run(*args, fused=False, **kw)):
            assert got.tobytes() == want.tobytes() and got.strides == want.strides

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_values_and_gradients(self, stride, padding):
        rng = np.random.default_rng(130 + 2 * stride + padding)
        xv = rng.standard_normal((1, 3, 7, 6))
        kv, bv = rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)
        ho, wo = T._conv_out_size(7, 3, stride, padding), T._conv_out_size(6, 3, stride, padding)
        w = mixed_grads(rng, (1, 4, ho, wo))
        self.assert_same(xv, kv, bv, w, stride=stride, padding=padding)

    def test_stack_of_four_is_per_scene(self):
        """Each scene of a B=4 stack gets the values and input gradient it
        gets alone, and the stack matches the separate ReLU."""
        rng = np.random.default_rng(134)
        xv = rng.standard_normal((4, 3, 8, 8))
        kv, bv = rng.standard_normal((5, 3, 3, 3)), rng.standard_normal(5)
        w = mixed_grads(rng, (4, 5, 4, 4))
        self.assert_same(xv, kv, bv, w, stride=2, padding=1)
        stack = self.run(xv, kv, bv, w, fused=True, stride=2, padding=1)
        for i in range(4):
            alone = self.run(xv[i:i + 1], kv, bv, w[i:i + 1], fused=True, stride=2,
                             padding=1)
            assert stack[0][i].tobytes() == alone[0][0].tobytes()
            assert stack[1][i].tobytes() == alone[1][0].tobytes()

    def test_stacked_kernels(self):
        rng = np.random.default_rng(135)
        xv = rng.standard_normal((2, 3, 6, 6))
        kv = [rng.standard_normal((4, 3, 3, 3)), rng.standard_normal((2, 3, 3, 3))]
        bv = [rng.standard_normal(4), rng.standard_normal(2)]
        w = mixed_grads(rng, (2, 6, 6, 6))
        self.assert_same(xv, kv, bv, w, padding=1)

    def test_exact_zero_pre_activations(self):
        """Pre-activations of exactly 0.0, where the bias cancels the
        product or a -0.0 bias meets a zero input, are cut as the separate
        ReLU cuts them, and their gradients are the same signed zeros."""
        xv = np.zeros((1, 2, 4, 4))
        xv[0, :, :2] = 1.5
        kv = np.full((3, 2, 1, 1), -0.5)
        kv[1] = 0.5
        bv = np.array([1.5, -1.5, -0.0])
        w = mixed_grads(np.random.default_rng(136), (1, 3, 4, 4))
        pre = T.conv2d(Tensor(xv), Tensor(kv), Tensor(bv)).data
        assert np.count_nonzero(pre == 0.0) == 24
        self.assert_same(xv, kv, bv, w)

    def test_grad_check_away_from_the_kink(self):
        """Points whose pre-activations all lie 0.01 or more from the kink,
        which no probe of step 1e-3 crosses (no value here exceeds 4)."""
        rng = np.random.default_rng(137)
        checked = 0
        while checked < 4:
            stride = 1 + checked % 2
            pt = {"x": rng.standard_normal((2, 2, 5, 5)),
                  "k": rng.standard_normal((3, 2, 3, 3)), "b": rng.standard_normal(3)}
            pre = T.conv2d(Tensor(pt["x"]), Tensor(pt["k"]), Tensor(pt["b"]),
                           stride=stride, padding=1).data
            if np.abs(pre).min() < 0.01 or max(np.abs(v).max() for v in pt.values()) > 4:
                continue
            pt["w"] = rng.standard_normal(pre.shape)
            report = grad_check(lambda L: T.sum_all(T.mul(T.conv2d(
                L["x"], L["k"], L["b"], stride=stride, padding=1, relu=True), L["w"])), pt)
            assert max(report.values()) < 1e-4, report
            checked += 1


class TestBackward:

    def test_gradient_accumulates_across_fanout(self):
        """y = x*x via two separate references accumulates both branches."""
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            y = T.sum_all(T.mul(x, x))
        backward(tape, y)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_unused_leaf_gets_zero_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        z = Tensor(np.array([5.0]), requires_grad=True)
        with Tape() as tape:
            dead = T.scale(z, 3.0)
            y = T.sum_all(T.mul(x, x))
        backward(tape, y)
        assert dead is not None
        np.testing.assert_allclose(z.grad, [0.0])
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = T.scale(x, 2.0)
        with pytest.raises(T.ShapeError):
            backward(tape, y)

    def test_backward_rejects_off_tape_loss(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            T.sum_all(x)
        stray = Tensor(np.array(1.0))
        with pytest.raises(T.TensorError):
            backward(tape, stray)

    def test_transpose_negative_axes(self):
        """Negative axes name the same permutation as their positive forms,
        and the gradient comes back in the input's shape."""
        rng = np.random.default_rng(140)
        xv, w = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2, 3))
        runs = []
        for axes in ((-1, 0, 1), (2, 0, 1), (2, -3, -2)):
            x = Tensor(xv, requires_grad=True)
            with Tape() as tape:
                y = T.transpose(x, axes)
                loss = T.sum_all(T.mul(y, Tensor(w)))
            backward(tape, loss)
            assert x.grad.shape == (2, 3, 4)
            runs.append((y.data.tobytes(), x.grad.tobytes()))
        assert runs[0] == runs[1] == runs[2]
        report = grad_check(lambda L: T.sum_all(T.mul(T.transpose(L["x"], (-1, 0, 1)),
                                                      L["w"])), {"x": xv, "w": w})
        assert max(report.values()) < 1e-4, report

    def test_backward_deterministic(self):
        rng = np.random.default_rng(8)
        xv = rng.standard_normal((2, 5, 5))[None]
        kv = rng.standard_normal((3, 2, 3, 3))
        grads = []
        for _ in range(2):
            x = Tensor(xv, requires_grad=True)
            k = Tensor(kv, requires_grad=True)
            with Tape() as tape:
                y = T.mean_all(T.relu(T.conv2d(x, k, stride=2, padding=1)))
            backward(tape, y)
            grads.append((x.grad.copy(), k.grad.copy()))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])


class TestGradCheck:
    """Finite-difference agreement for every differentiable primitive."""

    TOL = 1e-4

    def check(self, f, point):
        report = grad_check(f, point)
        worst = max(report.values())
        assert worst < self.TOL, f"grad_check failed: {report}"

    def test_elementwise_chain(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            pt = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4))}
            self.check(lambda L: T.sum_all(T.mul(T.add(L["a"], L["b"]),
                                                 T.sub(L["a"], L["b"]))), pt)

    def test_relu(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            # keep probes away from the kink at 0
            v = rng.standard_normal((4, 4))
            v = np.where(np.abs(v) < 0.05, 0.5, v)
            self.check(lambda L: T.sum_all(T.relu(L["x"])), {"x": v})

    def test_log_shift(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            v = rng.uniform(0.0, 2.0, size=(3, 3))
            self.check(lambda L: T.sum_all(T.log_shift(L["x"], eps=np.e)), {"x": v})

    def test_broadcast_mul(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            pt = {"a": rng.standard_normal((3, 4, 4)), "b": rng.standard_normal((4, 4))}
            self.check(lambda L: T.sum_all(T.mul(L["a"], L["b"])), pt)

    def test_l2_normalize_and_dot(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            pt = {"u": rng.standard_normal(6) + 0.1, "v": rng.standard_normal(6) + 0.1}
            self.check(lambda L: T.dot(T.l2_normalize(L["u"]), T.l2_normalize(L["v"])), pt)

    def test_matmul(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            pt = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 2))}
            self.check(lambda L: T.sum_all(T.matmul(L["a"], L["b"])), pt)

    def test_smooth_l1(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            # keep |a-b| away from the joint at 1
            a = rng.standard_normal(8) * 2.0
            b = rng.standard_normal(8) * 2.0
            d = np.abs(a - b)
            a = np.where(np.abs(d - 1.0) < 0.05, a + 0.2, a)
            self.check(lambda L: T.sum_all(T.smooth_l1(L["a"], L["b"])), {"a": a, "b": b})

    def test_softmax_spatial(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            pt = {"x": rng.standard_normal((3, 3)), "w": rng.standard_normal((3, 3))}
            self.check(lambda L: T.sum_all(T.mul(T.softmax_spatial(L["x"]), L["w"])), pt)

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(18)
        for trial in range(10):
            pt = {"x": rng.standard_normal((4, 5))}
            targets = rng.integers(0, 5, size=4)
            self.check(lambda L: T.mean_all(T.softmax_cross_entropy(L["x"], targets)), pt)

    def test_layer_norm(self):
        rng = np.random.default_rng(19)
        for trial in range(10):
            pt = {"x": rng.standard_normal(6), "g": rng.standard_normal(6),
                  "b": rng.standard_normal(6)}
            self.check(lambda L: T.sum_all(T.layer_norm(L["x"], L["g"], L["b"])), pt)

    def test_conv2d(self):
        rng = np.random.default_rng(20)
        for trial in range(10):
            pt = {"x": rng.standard_normal((2, 5, 5))[None],
                  "k": rng.standard_normal((3, 2, 3, 3)),
                  "b": rng.standard_normal(3)}
            stride = 1 + trial % 2
            self.check(lambda L: T.mean_all(
                T.conv2d(L["x"], L["k"], L["b"], stride=stride, padding=1)), pt)

    def test_conv2d_stack(self):
        rng = np.random.default_rng(22)
        for trial in range(8):
            stride, padding = 1 + trial % 2, (trial // 2) % 2
            pt = {"x": rng.standard_normal((2, 2, 5, 5)),
                  "k": rng.standard_normal((3, 2, 3, 3)),
                  "b": rng.standard_normal(3)}
            self.check(lambda L: T.mean_all(T.square(
                T.conv2d(L["x"], L["k"], L["b"], stride=stride, padding=padding))), pt)

    def test_conv2d_kernel_sequence(self):
        rng = np.random.default_rng(23)
        for trial in range(4):
            pt = {"x": rng.standard_normal((2, 2, 4, 4)),
                  "k1": rng.standard_normal((3, 2, 3, 3)), "b1": rng.standard_normal(3),
                  "k2": rng.standard_normal((2, 2, 3, 3)), "b2": rng.standard_normal(2)}
            self.check(lambda L: T.mean_all(T.square(T.conv2d(
                L["x"], (L["k1"], L["k2"]), (L["b1"], L["b2"]), padding=1))), pt)

    def test_softmax_spatial_stack(self):
        rng = np.random.default_rng(24)
        for trial in range(10):
            pt = {"x": rng.standard_normal((2, 3, 4)), "w": rng.standard_normal((2, 3, 4))}
            self.check(lambda L: T.sum_all(T.mul(T.softmax_spatial(L["x"]), L["w"])), pt)

    def test_layer_norm_stack(self):
        rng = np.random.default_rng(25)
        for trial in range(10):
            pt = {"x": rng.standard_normal((2, 6)), "g": rng.standard_normal(6),
                  "b": rng.standard_normal(6), "w": rng.standard_normal((2, 6))}
            self.check(lambda L: T.sum_all(T.mul(
                T.layer_norm(L["x"], L["g"], L["b"]), L["w"])), pt)

    def test_matmul_stack(self):
        rng = np.random.default_rng(26)
        for trial in range(10):
            pt = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((2, 4, 2)),
                  "c": rng.standard_normal((2, 3, 4)), "d": rng.standard_normal((4, 5))}
            self.check(lambda L: T.add(T.sum_all(T.square(T.matmul(L["a"], L["b"]))),
                                       T.sum_all(T.square(T.matmul(L["c"], L["d"])))), pt)

    def test_reductions_and_shaping(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            pt = {"x": rng.standard_normal((2, 3, 4))}
            self.check(lambda L: T.sum_all(T.sum_axes(L["x"], (1, 2))), pt)
            self.check(lambda L: T.mean_all(T.transpose(
                T.reshape(L["x"], (6, 4)), (1, 0))), pt)

    def test_gather_and_concat(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            pt = {"a": rng.standard_normal((5, 3)), "b": rng.standard_normal((2, 3))}
            idx = rng.integers(0, 5, size=4)
            self.check(lambda L: T.sum_all(T.gather(
                T.concat([L["a"], L["b"]], axis=0), idx, axis=0)), pt)

    def test_square_and_neg(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            pt = {"x": rng.standard_normal(7)}
            self.check(lambda L: T.sum_all(T.neg(T.square(L["x"]))), pt)


class TestSgdMomentum:

    def test_two_steps_frozen_values(self):
        """From p=1, grads 1 then 1, lr 0.1, momentum 0.9: p goes 0.9 then 0.71."""
        p, v = np.array([1.0]), np.zeros(1)
        T.sgd_momentum_step(p, np.array([1.0]), v, lr=0.1, momentum=0.9,
                            weight_decay=0.0)
        np.testing.assert_allclose(p, [0.9], atol=1e-15)
        T.sgd_momentum_step(p, np.array([1.0]), v, lr=0.1, momentum=0.9,
                            weight_decay=0.0)
        # v2 = 0.9*1 + 1 = 1.9; p = 0.9 - 0.19 = 0.71
        np.testing.assert_allclose(v, [1.9], atol=1e-15)
        np.testing.assert_allclose(p, [0.71], atol=1e-15)

    def test_weight_decay_enters_velocity(self):
        p = np.array([2.0])
        T.sgd_momentum_step(p, np.array([0.0]), np.zeros(1), lr=0.5, momentum=0.0,
                            weight_decay=0.1)
        # v = 0 + 0 + 0.1*2 = 0.2; p = 2 - 0.1 = 1.9
        np.testing.assert_allclose(p, [1.9], atol=1e-15)

    def test_matches_unrolled_recurrence(self):
        rng = np.random.default_rng(24)
        pv = rng.standard_normal(5)
        grads = [rng.standard_normal(5) for _ in range(6)]
        lr, mom, wd = 0.05, 0.9, 0.01

        ref_p, ref_v = pv.copy(), np.zeros(5)
        for g in grads:
            ref_v = mom * ref_v + g + wd * ref_p
            ref_p = ref_p - lr * ref_v

        p, v = pv.copy(), np.zeros(5)
        for g in grads:
            T.sgd_momentum_step(p, g, v, lr=lr, momentum=mom, weight_decay=wd)
        assert p.tobytes() == ref_p.tobytes()
        assert v.tobytes() == ref_v.tobytes()

    def test_missing_grad_is_zero(self):
        """The epoch loop passes a missing gradient as zeros, which leave
        the parameter where it is."""
        p = np.array([1.0])
        T.sgd_momentum_step(p, np.zeros(1), np.zeros(1), lr=0.1, momentum=0.9,
                            weight_decay=0.0)
        np.testing.assert_allclose(p, [1.0], atol=0)


class TestCheckpoint:

    def test_round_trip_is_value_exact(self, tmp_path):
        rng = np.random.default_rng(25)
        arrays = {"w": rng.standard_normal((3, 4)),
                  "b": rng.standard_normal(4) * 1e-8,
                  "scalar": np.asarray(np.pi)}
        path = tmp_path / "ck.json"
        T.save_arrays(path, arrays, meta={"stage": "base"})
        loaded, meta = T.load_arrays(path)
        assert meta == {"stage": "base"}
        for name, arr in arrays.items():
            assert loaded[name].shape == arr.shape
            assert np.array_equal(loaded[name], arr), name

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(26)
        arrays = {"w": rng.standard_normal((2, 7))}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        T.save_arrays(p1, arrays)
        loaded, _ = T.load_arrays(p1)
        T.save_arrays(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "arrays": {}}))
        with pytest.raises(T.CheckpointError):
            T.load_arrays(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 1, "arrays": {
            "w": {"shape": [2, 2], "data": [1.0, 2.0, 3.0]}}}))
        with pytest.raises(T.CheckpointError):
            T.load_arrays(path)


class TestProperties:

    @given(st.lists(st.floats(-30, 30), min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_softmax_always_normalized(self, vals):
        p = T.softmax_spatial(Tensor(np.array(vals).reshape(2, 2)))
        assert abs(p.data.sum() - 1.0) <= 1e-12

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_conv_shape_always_matches_formula(self, h_extra, k, stride, padding):
        h = k + h_extra
        x = Tensor(np.zeros((1, 1, h, h)))
        kt = Tensor(np.zeros((1, 1, k, k)))
        out = T.conv2d(x, kt, stride=stride, padding=padding)
        expect = (h + 2 * padding - k) // stride + 1
        assert out.shape == (1, 1, expect, expect)
