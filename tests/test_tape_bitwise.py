"""The tape's direct reductions, conv2d's per-geometry plan, the gradient
checker's shared probe leaves and the gradient suite's per-point gate and
loss targets, each against the code it replaces, to the byte: the reductions
against numpy's methods (``tests/oracles.py``), the 1x1 convolution against
the im2col/col2im path, the checker against one that wraps every leaf afresh
on each probe, and the suite against one that rebuilds the gate and the
targets on each probe. The stages each group of the suite's probes runs
are counted, and its grouping of leaves by stage is mutated, as is the
backward of each op the suite records."""

import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np
import pytest

import oracles
from fewdet import cli
from fewdet import detector as det
from fewdet import fewshot as fs
from fewdet import gradcheck
from fewdet import saliency as S
from fewdet import synthdata as sd
from fewdet import tensor as T
from fewdet.tensor import Tape, Tensor


def signed(rng, shape, zeros=True):
    """Normal draws scaled by 1e-3..1e3, so that the order of a sum shows in
    its last bits, with +0.0 and -0.0 sprinkled in."""
    v = np.asarray(rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape))
    if zeros:
        v[rng.random(shape) < 0.15] = 0.0
        v[rng.random(shape) < 0.15] = -0.0
    return v


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
        assert a.strides == b.strides


def taped(op, arrays, g, *args):
    """op's forward value over requires_grad leaves of ``arrays``, and the
    input gradients its one tape node returns for the upstream gradient
    ``g(shape)``."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*leaves, *args)
    (node,) = tape.nodes
    upstream = g(out.data.shape)
    return out.data, node.backward_fn(upstream), upstream


class TestReductionOracles:
    """Values and every input gradient of each rewritten op equal numpy's
    method-based formulas bitwise."""

    def compare(self, seed, op, oracle, arrays, *args):
        rng = np.random.default_rng(seed)
        value, grads, g = taped(op, arrays, lambda shape: signed(rng, shape), *args)
        want_value, want_grads = oracle(*arrays, *args, g)
        assert_bitwise([value, *grads], [want_value, *want_grads])

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (7,), (3, 5), (4, 3, 2, 5), (1, 240, 16)])
    def test_sum_all_and_mean_all(self, shape):
        rng = np.random.default_rng(len(shape))
        for trial in range(4):
            a = signed(rng, shape)
            self.compare(trial, T.sum_all, oracles.sum_all_methods, [a])
            self.compare(trial, T.mean_all, oracles.mean_all_methods, [a])

    @pytest.mark.parametrize("shape,axes", [
        ((4, 3, 5), (0, 2)), ((4, 3, 5), (-1,)), ((4, 3, 5), (-3, -1)), ((1, 6, 5), (0,)),
        ((2, 3, 4), (1,)), ((5,), (0,)), ((4, 3, 5), ()), ((4, 3, 5), (2, 0, 1))])
    def test_sum_axes(self, shape, axes):
        rng = np.random.default_rng(20)
        for trial in range(3):
            self.compare(trial, T.sum_axes, oracles.sum_axes_methods, [signed(rng, shape)], axes)

    @pytest.mark.parametrize("shape,axes", [
        ((2, 3, 4), (2, 0, 1)), ((2, 3, 4), (-1, 0, 1)), ((4, 1, 3, 2), (0, 3, -3, 2)),
        ((5,), (0,)), ((3, 4), (1, 0)), ((1, 240, 16), (0, 2, 1))])
    def test_transpose(self, shape, axes):
        self.compare(21, T.transpose, oracles.transpose_methods,
                     [signed(np.random.default_rng(22), shape)], axes)

    def test_log_shift(self):
        rng = np.random.default_rng(23)
        for shape in [(1,), (3, 3), (4, 2, 5)]:
            a = rng.uniform(-0.4, 2.0, shape)
            a[0] = -0.0
            self.compare(24, T.log_shift, oracles.log_shift_methods, [a], 0.5)

    @pytest.mark.parametrize("shape,axis", [
        ((1, 240, 16), -1), ((4, 240, 16), -1), ((4, 6, 5), 1), ((4, 6, 5), -2),
        ((7, 5), 1), ((7, 5), 0), ((8,), -1), ((3, 1), 0)])
    def test_l2_normalize(self, shape, axis):
        rng = np.random.default_rng(25)
        for trial in range(3):
            a = signed(rng, shape)
            a[(0,) * len(shape)] = 1.5  # no slice is all zeros
            a += np.where(a == 0.0, 0.0, 1e-3 * np.sign(a))
            a[(-1,) * len(shape)] = 2.0
            if np.any(np.sqrt(np.sum(a * a, axis=axis)) < T.MIN_L2_NORM):
                continue
            self.compare(trial, T.l2_normalize, oracles.l2_normalize_methods, [a], axis)

    @pytest.mark.parametrize("shape", [(5, 5), (1, 4, 4), (4, 4, 4), (2, 3, 3, 5), (1, 1)])
    def test_softmax_spatial(self, shape):
        rng = np.random.default_rng(26)
        for trial in range(3):
            self.compare(trial, T.softmax_spatial, oracles.softmax_spatial_methods,
                         [np.clip(signed(rng, shape), -30.0, 30.0)])

    @pytest.mark.parametrize("n,c", [(7, 3), (1, 5), (12, 4), (3, 1)])
    def test_softmax_cross_entropy(self, n, c):
        rng = np.random.default_rng(27)
        for trial in range(3):
            x = np.clip(signed(rng, (n, c)), -30.0, 30.0)
            t = rng.integers(0, c, size=n)
            self.compare(trial, T.softmax_cross_entropy, oracles.softmax_cross_entropy_methods,
                         [x], t)

    @pytest.mark.parametrize("shape", [(8,), (1, 4), (4, 4), (4, 3, 6), (5, 7)])
    def test_layer_norm(self, shape):
        rng = np.random.default_rng(28)
        for trial in range(4):
            x = signed(rng, shape)
            x.reshape(-1, shape[-1])[0] = 2.5  # a constant vector: zero variance
            if len(shape) > 1:
                x.reshape(-1, shape[-1])[-1] = -0.0
            gain, bias = signed(rng, shape[-1:]), signed(rng, shape[-1:])
            self.compare(trial, T.layer_norm, oracles.layer_norm_methods, [x, gain, bias])

    @pytest.mark.parametrize("gshape,shape", [
        ((4, 3, 5), (3, 5)), ((4, 3, 5), (1, 5)), ((1, 3, 5), (3, 5)), ((2, 1, 3, 5), (3, 1)),
        ((4, 3, 5), (4, 1, 5)), ((4, 3, 5), (4, 3, 5)), ((6, 4), (4,)), ((1, 1, 7), (7,))])
    def test_unbroadcast(self, gshape, shape):
        rng = np.random.default_rng(29)
        for _ in range(3):
            g = signed(rng, gshape)
            assert_bitwise([T._unbroadcast(g, shape)], [oracles.unbroadcast_methods(g, shape)])

    @pytest.mark.parametrize("stacked", [False, True])
    def test_conv2d_bias_gradient(self, stacked):
        rng = np.random.default_rng(30 + stacked)
        for b in (1, 4):
            x = Tensor(rng.standard_normal((b, 3, 6, 5)), requires_grad=True)
            ks = [Tensor(rng.standard_normal((co, 3, 3, 3)), requires_grad=True)
                  for co in ((4, 2) if stacked else (5,))]
            bs = [Tensor(rng.standard_normal(k.data.shape[0]), requires_grad=True) for k in ks]
            with Tape() as tape:
                y = T.conv2d(x, ks if stacked else ks[0], bs if stacked else bs[0], padding=1)
            g = signed(rng, y.data.shape)
            gbs = tape.nodes[-1].backward_fn(g)[1 + len(ks):]
            spans = [(0, 4), (4, 6)] if stacked else [(0, 5)]
            assert_bitwise(gbs, [oracles.conv2d_bias_grad_methods(g, lo, hi) for lo, hi in spans])

    def test_minmax_or_zeros(self):
        rng = np.random.default_rng(32)
        maps = [signed(rng, s) for s in [(16, 16), (1,), (3, 4, 5), (4, 4)]]
        maps += [np.full((4, 4), 0.25), np.array([0.0, -0.0]), np.zeros((2, 2))]
        for m in maps:
            assert_bitwise([S.minmax_or_zeros(m)], [oracles.minmax_or_zeros_methods(m)])

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_grad_norm(self, scale):
        rng = np.random.default_rng(33)
        for n in (1, 3, 22):
            grads = [signed(rng, s) * scale
                     for s in itertools.islice(itertools.cycle([(7,), (3, 4), (1,), (5, 2, 3)]), n)]
            with np.errstate(over="ignore"):  # the overflow is what the rescale handles
                assert fs._grad_norm(grads) == oracles.grad_norm_methods(grads)

    def outcome(self, call):
        """("raises", type) or ("value", bytes...) of a call; a non-finite
        value is the NonFiniteError a tape op raises for it."""
        try:
            value = call()
        except Exception as e:  # noqa: BLE001 - the type is the outcome
            return ("raises", type(e))
        arrays = [np.asarray(v) for v in (value if isinstance(value, tuple) else (value,))]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return ("raises", T.NonFiniteError)
        return ("value", [(a.shape, a.tobytes()) for a in arrays])

    @pytest.mark.parametrize("warning_filter", ["error", "ignore"])
    def test_empty_inputs_fail_as_the_methods_do(self, warning_filter):
        """An empty input fails (or, for a sum, gives 0.0) as numpy's methods
        make it fail: a RuntimeWarning raised as an error, or a NaN that the
        tape rejects, or numpy's own zero-size error."""
        ones, one = np.ones(0), np.float64(1.0)
        cases = [
            (lambda: T.sum_all(Tensor(ones)).data, lambda: oracles.sum_all_methods(ones, one)[0]),
            (lambda: T.mean_all(Tensor(ones)).data, lambda: oracles.mean_all_methods(ones, one)[0]),
            (lambda: T.mean_all(Tensor(np.ones((3, 0)))).data,
             lambda: oracles.mean_all_methods(np.ones((3, 0)), one)[0]),
            (lambda: T.sum_axes(Tensor(np.ones((0, 3))), (0,)).data,
             lambda: oracles.sum_axes_methods(np.ones((0, 3)), (0,), np.ones(3))[0]),
            (lambda: T.l2_normalize(Tensor(ones)).data,
             lambda: oracles.l2_normalize_methods(ones, -1, ones)[0]),
            (lambda: T.l2_normalize(Tensor(np.ones((3, 0))), axis=1).data,
             lambda: oracles.l2_normalize_methods(np.ones((3, 0)), 1, np.ones((3, 0)))[0]),
            (lambda: T.softmax_spatial(Tensor(np.ones((2, 0, 3)))).data,
             lambda: oracles.softmax_spatial_methods(np.ones((2, 0, 3)), 0.0)[0]),
            (lambda: T.softmax_cross_entropy(Tensor(np.ones((0, 0))), []).data,
             lambda: oracles.softmax_cross_entropy_methods(np.ones((0, 0)), [], ones)[0]),
            (lambda: T.layer_norm(Tensor(np.ones((2, 0))), Tensor(ones), Tensor(ones)).data,
             lambda: oracles.layer_norm_methods(np.ones((2, 0)), ones, ones,
                                                np.ones((2, 0)))[0]),
            (lambda: S.minmax_or_zeros(ones), lambda: oracles.minmax_or_zeros_methods(ones)),
        ]
        for new, old in cases:
            with warnings.catch_warnings():
                warnings.simplefilter(warning_filter, RuntimeWarning)
                assert self.outcome(new) == self.outcome(old)
        with warnings.catch_warnings():
            warnings.simplefilter(warning_filter, RuntimeWarning)
            assert self.outcome(lambda: T.mean_all(Tensor(ones)))[0] == "raises"


def pointwise_off(monkeypatch):
    """Make conv2d take the im2col/col2im path for a 1x1 convolution too."""
    plan = T._conv_plan
    monkeypatch.setattr(T, "_conv_plan", lambda *key: plan(*key)[:3] + (False,))


class TestConvPlan:

    X, K, B = (1, 2, 5, 5), (3, 2, 3, 3), (3,)
    BAD = {  # name: (x shape, kernel shapes or one shape, bias shapes, stride, padding, error)
        "input_ndim": ((2, 5, 5), K, B, 1, 1, T.ShapeError),
        "kernel_ndim": (X, (3, 2, 3), B, 1, 1, T.ShapeError),
        "no_kernels": (X, [], None, 1, 1, T.ShapeError),
        "bias_count": (X, [K, (2, 2, 3, 3)], [B], 1, 1, T.ShapeError),
        "stacked_mismatch": (X, [K, (2, 2, 1, 1)], None, 1, 1, T.ShapeError),
        "channels": (X, (3, 4, 3, 3), B, 1, 1, T.ShapeError),
        "stride": (X, K, B, 0, 1, ValueError),
        "padding": (X, K, B, 1, -1, ValueError),
        "kernel_too_large": (X, (3, 2, 8, 8), B, 1, 1, T.ShapeError),
        "bias_shape": (X, K, (4,), 1, 1, T.ShapeError),
    }

    @staticmethod
    def call(xs, ks, bs, stride, padding):
        def tensors(shapes):
            if shapes is None:
                return None
            if isinstance(shapes, list):
                return [Tensor(np.ones(s)) for s in shapes]
            return Tensor(np.ones(shapes))
        return T.conv2d(Tensor(np.ones(xs)), tensors(ks), tensors(bs), stride=stride,
                        padding=padding)

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_bad_call_raises_every_time(self, name):
        *args, error = self.BAD[name]
        for _ in range(2):
            with pytest.raises(error):
                self.call(*args)
        self.call(self.X, self.K, self.B, 1, 1)  # a valid call of the geometry
        with pytest.raises(error):
            self.call(*args)

    def test_plan_is_made_once_per_geometry(self):
        before = T._conv_plan.cache_info()
        for _ in range(3):
            self.call((2, 3, 7, 7), (4, 3, 3, 3), (4,), 2, 1)
        after = T._conv_plan.cache_info()
        assert after.hits - before.hits >= 2
        assert after.misses - before.misses <= 1

    def run(self, xv, kv, bv, w, **kw):
        stacked = isinstance(kv, list)
        x = Tensor(xv, requires_grad=True)
        ks = [Tensor(v, requires_grad=True) for v in (kv if stacked else [kv])]
        bs = [Tensor(v, requires_grad=True) for v in (bv if stacked else [bv])]
        with Tape() as tape:
            y = T.conv2d(x, ks if stacked else ks[0], bs if stacked else bs[0], **kw)
            loss = T.sum_all(T.mul(y, Tensor(w)))
        T.backward(tape, loss)
        return [y.data, x.grad] + [t.grad for t in ks + bs]

    def assert_pointwise_matches_im2col(self, monkeypatch, xv, kv, bv, w, **kw):
        fast = self.run(xv, kv, bv, w, **kw)
        with monkeypatch.context() as m:
            pointwise_off(m)
            slow = self.run(xv, kv, bv, w, **kw)
        assert_bitwise(fast, slow)
        return fast

    @pytest.mark.parametrize("b", [1, 4])
    def test_pointwise_matches_im2col(self, monkeypatch, b):
        rng = np.random.default_rng(40 + b)
        xv = signed(rng, (b, 5, 4, 6))
        kv, bv = signed(rng, (3, 5, 1, 1)), signed(rng, (3,))
        self.assert_pointwise_matches_im2col(monkeypatch, xv, kv, bv, signed(rng, (b, 3, 4, 6)))
        self.assert_pointwise_matches_im2col(monkeypatch, xv, kv, bv, signed(rng, (b, 3, 4, 6)),
                                             relu=True)

    def test_pointwise_non_contiguous_input(self, monkeypatch):
        rng = np.random.default_rng(43)
        kv, bv = signed(rng, (2, 3, 1, 1)), signed(rng, (2,))
        xv = signed(rng, (2, 3, 6, 4))
        for view in (np.asfortranarray(xv), xv.transpose(0, 1, 3, 2)):
            assert not view.flags.c_contiguous
            w = signed(rng, (2, 2) + view.shape[2:])
            self.assert_pointwise_matches_im2col(monkeypatch, view, kv, bv, w)

    def test_pointwise_negative_zero_gradient_is_positive_zero(self, monkeypatch):
        """An upstream gradient of -0.0 everywhere: col2im's bincount adds
        each column onto +0.0, and the 1x1 path's ``+ 0.0`` gives the same
        +0.0 input gradient."""
        rng = np.random.default_rng(44)
        xv, kv, bv = signed(rng, (4, 3, 2, 5)), signed(rng, (2, 3, 1, 1)), signed(rng, (2,))
        grads = self.assert_pointwise_matches_im2col(monkeypatch, xv, kv, bv,
                                                     np.full((4, 2, 2, 5), -0.0))
        gx = grads[1]
        assert np.all(gx == 0.0) and not np.any(np.signbit(gx))

    def test_stacked_kernels_keep_their_bits(self, monkeypatch):
        """Stacked kernels, 1x1 and 3x3, equal the separate convolutions,
        and the 1x1 stack equals its im2col path."""
        rng = np.random.default_rng(45)
        xv = signed(rng, (4, 3, 5, 5))
        for size, padding in [(1, 0), (3, 1)]:
            kv = [signed(rng, (4, 3, size, size)), signed(rng, (2, 3, size, size))]
            bv = [signed(rng, (4,)), signed(rng, (2,))]
            w = signed(rng, (4, 6, 5, 5))
            stacked = self.run(xv, kv, bv, w, padding=padding)
            parts = [self.run(xv, k, b, w[:, lo:hi], padding=padding)
                     for k, b, (lo, hi) in zip(kv, bv, [(0, 4), (4, 6)])]
            assert stacked[0].tobytes() == np.concatenate([p[0] for p in parts], axis=1).tobytes()
            assert stacked[1].tobytes() == (parts[1][1] + parts[0][1]).tobytes()
            assert_bitwise(stacked[2:], [parts[0][2], parts[1][2], parts[0][3], parts[1][3]])
            if size == 1:
                self.assert_pointwise_matches_im2col(monkeypatch, xv, kv, bv, w)


def check_coordinates_rebuilding(f, point, h, coordinates, probe=None):
    """The finite-difference checker that wraps every leaf afresh with
    ``Tensor(v)`` on each probe and evaluates ``f`` itself, ignoring any
    batched ``probe``; ``coordinates(shape)`` names the probed indices of
    each leaf."""
    point = {k: np.array(v, dtype=np.float64) for k, v in point.items()}
    leaves = {k: Tensor(v, requires_grad=True) for k, v in point.items()}
    with Tape() as tape:
        out = f(leaves)
    T.backward(tape, out)
    report = {}
    for name, leaf in leaves.items():
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        values = point[name]
        worst = 0.0
        for idx in coordinates(values.shape):
            x = values[idx]
            values[idx] = x + h
            up = float(f({k: Tensor(v) for k, v in point.items()}).data)
            values[idx] = x - h
            down = float(f({k: Tensor(v) for k, v in point.items()}).data)
            values[idx] = x
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[idx])
            worst = max(worst, abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)))
        report[name] = worst
    return report


def composite_checks_per_probe(rng):
    """``gradcheck._composite_checks`` with the same draws, where every probe's
    forward builds the gate from the saliency map and every loss rebuilds
    its positives, rows and box targets from the match (``oracles``)."""
    cfg = det.DetectorConfig(
        image_size=16, backbone_channels=(4, 6, 8, 10), feat_dim=6,
        bottleneck_ratio=2,
        anchors=det.AnchorConfig(map_sizes=((2, 2), (1, 1)), scales=(0.3, 0.6)))
    class_ids = [1, 2, 3]
    params = det.init_detector_params(cfg, class_ids, rng)
    w = params.tensors["gc.w_v2"].data
    w[...] = rng.standard_normal(w.shape) * 0.5
    image = rng.uniform(0.0, 1.0, (3, 16, 16))
    saliency = rng.uniform(0.0, 1.0, (4, 4))
    anchors = det.generate_anchors(cfg.anchors)
    gt_boxes = np.array([[0.45, 0.5, 0.5, 0.55], [0.8, 0.75, 0.3, 0.4]])
    match = det.match_anchors(anchors, gt_boxes, [1, 3], cfg.pos_thr)
    probe = oracles.forward_per_call(image[None], saliency[None], params, cfg).single()
    mined = det.hard_negative_mining(det.background_ce(probe.logits.data),
                                     match, cfg.neg_pos_ratio)
    point = {name: t.data for name, t in params.tensors.items()}
    base_logits = rng.standard_normal((len(anchors), 3))
    base_offsets = rng.standard_normal((len(anchors), 4))
    hp = fs.Hyperparams()

    def outputs_of(ts):
        run = det.DetectorParams(dict(ts), class_ids)
        return run, oracles.forward_per_call(image[None], saliency[None], run, cfg).single()

    def f_base(ts):
        run, out = outputs_of(ts)
        return oracles.base_loss_per_call(out, mined, gt_boxes, anchors, run, cfg)[0]

    def f_obj(ts):
        run, out = outputs_of(ts)
        return oracles.object_concentration_loss_per_call(out.features, run.cls_rows,
                                                          mined, run)

    def f_bg(ts):
        run, out = outputs_of(ts)
        return fs.background_concentration_loss(out.features, run.cls_rows, mined)

    def f_dist(ts):
        _, out = outputs_of(ts)
        return oracles.distillation_loss_per_call(out, base_logits, base_offsets)

    def f_novel(ts):
        run, out = outputs_of(ts)
        return oracles.novel_loss_per_call(out, mined, gt_boxes, anchors, run, cfg, hp,
                                           base_logits, base_offsets)[0]

    return [(name, max(T.grad_check_sampled(f, point, h=1e-4, samples_per_leaf=2,
                                            rng=rng).values()))
            for name, f in (("base_loss", f_base), ("object_concentration_loss", f_obj),
                            ("background_concentration_loss", f_bg),
                            ("distillation_loss", f_dist), ("novel_loss", f_novel))]


def per_move_probe(f, point):
    """A batched probe that evaluates ``f`` once per move, at fresh leaves."""
    def probe(moves):
        values = []
        for name, idx, value in moves:
            ts = {k: Tensor(v) for k, v in point.items()}
            ts[name].data[idx] = value
            values.append(float(f(ts).data))
        return values
    return probe


def micro_base_loss(rng):
    """The suite's micro setup at rng, with its base-loss check as
    ``(point, f, probe)``: f for the taped pass, probe the suite's batched
    probe."""
    cfg, mined, targets, point, outputs_of, probe_of = gradcheck._micro_setup(rng)

    def base(run, out):
        return det.base_loss(out, mined, targets, cfg)[0]
    return point, (lambda ts: base(*outputs_of(ts))), probe_of(base)


class TestCheckerProbes:

    @staticmethod
    def suite_and_rebuilding_oracle(monkeypatch, seed):
        """The suite's floats at two points, by its batched probes and by a
        checker that runs the full forward afresh for every probe."""
        new = cli.gradcheck_suite(seed=seed, points=2)
        with monkeypatch.context() as m:
            m.setattr(T, "_check_coordinates", check_coordinates_rebuilding)
            old = cli.gradcheck_suite(seed=seed, points=2)
        assert [name for name, _ in new] == [name for name, _ in old]
        return [err.hex() for _, err in new], [err.hex() for _, err in old]

    def test_suite_equals_a_checker_that_rebuilds_every_leaf(self, monkeypatch):
        new, old = self.suite_and_rebuilding_oracle(monkeypatch, 0)
        assert new == old

    # 6 fails the tolerance at two points, so kinked probes are compared too
    @pytest.mark.parametrize("seed", [1, 2, 3, 6])
    def test_suite_equals_a_checker_that_rebuilds_every_leaf_at_more_seeds(
            self, monkeypatch, seed):
        new, old = self.suite_and_rebuilding_oracle(monkeypatch, seed)
        assert new == old
        if seed == 6:
            assert max(map(float.fromhex, new)) > gradcheck.TOLERANCE

    def test_suite_equals_one_that_rebuilds_gate_and_targets_per_probe(self, monkeypatch):
        """The composite checks build the micro detector's gate and loss
        targets once per point; rebuilt on every probe from the saliency map
        and the match, they give the same floats."""
        new = cli.gradcheck_suite(seed=0, points=2)
        monkeypatch.setattr(gradcheck, "_composite_checks", composite_checks_per_probe)
        old = cli.gradcheck_suite(seed=0, points=2)
        assert [name for name, _ in new] == [name for name, _ in old]
        assert [err.hex() for _, err in new] == [err.hex() for _, err in old]

    def test_a_group_runs_its_stage_per_move_and_later_stages_once(self, monkeypatch):
        """In one composite check the taped pass runs every stage. The moves
        of the leaves of stage k form one group: stage k runs once per move,
        then each later stage once over their stack, but a head whose input
        was made before stage k keeps the point's map (a backbone.3 group
        skips head.0, a head.0 group head.1). A cls.rows group runs only the
        tail, once per move."""
        runs = []  # the stages run, in order

        def counting(k, stage):
            def run(*args):
                runs.append(k)
                return stage(*args)
            return run

        monkeypatch.setattr(det, "STAGES", tuple(
            (prefix, counting(k, stage)) for k, (prefix, stage) in enumerate(det.STAGES)))
        groups = []  # per group: its stage, its move count and the stages it ran
        real_group = gradcheck._stage_group

        def group(k, group_runs, *args):
            runs.clear()
            outs = real_group(k, group_runs, *args)
            groups.append((k, len(group_runs), list(runs)))
            return outs

        monkeypatch.setattr(gradcheck, "_stage_group", group)
        rng = np.random.default_rng(np.random.SeedSequence([0, 11, 0]))
        point, f, probe = micro_base_loss(rng)
        assert runs == list(range(8))  # the point's own states
        runs.clear()
        taped = []

        def probe_after_the_taped_pass(moves):
            taped.extend(runs)
            return probe(moves)

        T.grad_check_sampled(f, point, h=1e-4, samples_per_leaf=2, rng=rng,
                             probe=probe_after_the_taped_pass)
        assert taped == list(range(8))
        later = {0: [1, 2, 3, 4, 5, 6, 7], 1: [2, 3, 4, 5, 6, 7], 2: [3, 4, 5, 6, 7],
                 3: [4, 5, 6, 7], 4: [6, 7], 5: [7], 6: [7], 7: []}
        leaves = [gradcheck._stage_of(name) for name in point]
        assert sorted(k for k, _, _ in groups) == list(range(8))
        for k, moves, ran in groups:
            assert moves == 4 * leaves.count(k)  # two coordinates, up and down
            assert ran == [k] * moves + later[k], k

    def test_a_leaf_in_another_stages_group_fails_its_check(self, monkeypatch):
        """A group runs the stages after its own with the point's
        parameters, so a leaf whose moves join the next stage's group
        (cls.rows's join stage 0's) reads stale states, and the check of
        that leaf at its steepest coordinate fails, for each of the 22
        leaves. In the suite's floats that shows for 21 leaves: head.1's 1x1
        map reads only the centre tap of its 3x3 kernels, which no sampled
        probe of head.1.feat.kernel at seed 0's two points hits."""
        want_suite = [err.hex() for _, err in cli.gradcheck_suite(seed=0, points=2)]

        def setup():
            return micro_base_loss(np.random.default_rng(np.random.SeedSequence([0, 11, 0])))

        point, f, probe = setup()
        assert len(point) == 22 and np.all(point["gc.w_v2"] != 0.0)
        leaves = {k: Tensor(v, requires_grad=True) for k, v in point.items()}
        with Tape() as tape:
            loss = f(leaves)
        T.backward(tape, loss)
        # each leaf's steepest coordinate, which a stale output cannot hide
        steepest = [np.unravel_index(np.argmax(np.abs(t.grad)), t.data.shape)
                    for t in leaves.values()]

        def check(probe):
            coordinates = iter(steepest)
            return T._check_coordinates(f, point, 1e-4, lambda shape: [next(coordinates)],
                                        probe)

        assert max(check(probe).values()) < gradcheck.TOLERANCE
        stage_of = gradcheck._stage_of
        for leaf in point:
            monkeypatch.setattr(gradcheck, "_stage_of", lambda name, leaf=leaf: (
                (stage_of(name) + 1) % len(det.STAGES) if name == leaf else stage_of(name)))
            assert check(setup()[2])[leaf] > 0.5, leaf
            suite = [err.hex() for _, err in cli.gradcheck_suite(seed=0, points=2)]
            assert (suite == want_suite) == (leaf == "head.1.feat.kernel"), leaf

    @pytest.mark.parametrize("sampled", [False, True])
    def test_a_per_move_probe_gives_the_default_report(self, monkeypatch, sampled):
        """On every elementary op check of a suite point, a probe that calls
        f once per move gives the report of the checker's own probes, to the
        bit."""
        pairs = []
        grad_check = T.grad_check

        def both(f, point, h=1e-3):
            def report(probe=None):
                if sampled:
                    return T.grad_check_sampled(f, point, h, rng=np.random.default_rng(7),
                                                probe=probe)
                # grad_check takes no probe; its full-coordinate core does
                return (grad_check(f, point, h) if probe is None
                        else T._check_coordinates(f, point, h, np.ndindex, probe))
            want = report()
            pairs.append((want, report(per_move_probe(f, point))))
            return want

        monkeypatch.setattr(T, "grad_check", both)
        gradcheck._elementary_checks(np.random.default_rng(np.random.SeedSequence([0, 11, 0])))
        assert len(pairs) == 23
        for want, got in pairs:
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    @pytest.mark.parametrize("sampled", [False, True])
    def test_callers_point_is_unchanged(self, sampled):
        rng = np.random.default_rng(50)
        point = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(4),
                 "c": np.asfortranarray(rng.standard_normal((2, 3)))}
        before = {k: (v.tobytes(), v.strides) for k, v in point.items()}
        ids = {k: id(v) for k, v in point.items()}

        def f(L):
            return T.sum_all(T.add(T.mul(L["a"], L["b"]), T.sum_all(T.square(L["c"]))))
        check = T.grad_check_sampled if sampled else T.grad_check
        report = check(f, point)
        assert max(report.values()) < 1e-4
        assert {k: (v.tobytes(), v.strides) for k, v in point.items()} == before
        assert {k: id(v) for k, v in point.items()} == ids

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf, -math.inf, np.float64(math.nan)])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_bad_step_is_rejected(self, h, sampled):
        check = T.grad_check_sampled if sampled else T.grad_check
        with pytest.raises(ValueError, match="h must be positive"):
            check(lambda L: T.sum_all(L["a"]), {"a": np.ones(3)}, h=h)

    @pytest.mark.parametrize("value", [1.7e308, -1.7e308])
    def test_overflowing_probe_raises(self, value):
        """A reshape copies values without a finiteness test, so only the
        checker's own test of the perturbed value catches the overflow."""
        with pytest.raises(T.NonFiniteError):
            T.grad_check(lambda L: T.reshape(L["a"], ()), {"a": np.array([[value]])}, h=1e308)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_overflowing_probe_raises_before_a_batched_probe_runs(self, sampled):
        def probe(moves):
            raise AssertionError("the probe ran")
        def f(L):
            return T.reshape(L["a"], ())
        point = {"a": np.array([[1.7e308]])}
        with pytest.raises(T.NonFiniteError):
            if sampled:
                T.grad_check_sampled(f, point, h=1e308, probe=probe)
            else:
                T._check_coordinates(f, point, 1e308, np.ndindex, probe)


def scaled_backward(op, factor):
    """``tensor._record`` with the backward of every ``op`` node returning
    its input gradients times ``factor``: a wrong backward of that op."""
    record = T._record

    def recording(name, inputs, out_data, backward_fn, finite=False):
        if name == op:
            right = backward_fn

            def backward_fn(g):
                return tuple(None if d is None else d * factor for d in right(g))
        return record(name, inputs, out_data, backward_fn, finite)
    return recording


class TestGateMutation:

    @staticmethod
    def elementary_row_ops(monkeypatch):
        """Each elementary row of a suite point, by name, with the op its
        check records first (the op under test, before the scalarizing mul
        and sum), and the set of ops the whole point records."""
        firsts, recorded = [], set()
        check, record = T.grad_check, T._record

        def checking(*args, **kwargs):
            firsts.append(None)
            return check(*args, **kwargs)

        def recording(op, *args, **kwargs):
            if firsts and firsts[-1] is None:
                firsts[-1] = op
            recorded.add(op)
            return record(op, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(T, "grad_check", checking)
            m.setattr(T, "_record", recording)
            rows = [name for name, _ in cli.gradcheck_suite(seed=0, points=1)]
        return dict(zip(rows, firsts)), recorded

    def test_a_wrong_backward_fails_its_ops_row_at_every_seed(self, monkeypatch):
        """The elementary rows pass at suite seeds 0-3 with one point each,
        and the backward of each op the suite records, scaled by 1.01,
        fails that op's row at each of those seeds. The tape names the full
        reductions sum and mean, their rows sum_all and mean_all."""
        row_op, recorded = self.elementary_row_ops(monkeypatch)
        assert len(row_op) == 23 and len(set(row_op.values())) == 23
        assert {row_op["sum_all"], row_op["mean_all"]} == {"sum", "mean"}
        assert recorded <= set(row_op.values())
        for seed in range(4):
            errors = dict(cli.gradcheck_suite(seed=seed, points=1))
            assert max(errors[row] for row in row_op) < gradcheck.TOLERANCE, seed
        for row, op in row_op.items():
            monkeypatch.setattr(T, "_record", scaled_backward(op, 1.01))
            for seed in range(4):
                errors = dict(cli.gradcheck_suite(seed=seed, points=1))
                assert errors[row] >= gradcheck.TOLERANCE, (row, seed)


# numpy 2.x file layout (checked on numpy 2.4): the Python-level wrappers of
# ndarray.sum/mean/var/max/any (_methods), of np.sum/np.any/np.swapaxes/
# np.take/np.cumsum (fromnumeric) and of np.broadcast_to (stride tricks).
WRAPPERS = ("numpy/_core/_methods.py", "numpy/_core/fromnumeric.py",
            "numpy/lib/_stride_tricks_impl.py")


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy 2.x file layout")
def test_tape_ops_call_no_numpy_python_wrappers():
    """A taped default training step and a composite gradcheck evaluation,
    under ``sys.setprofile``: no frame of fewdet/tensor.py, and no frame of
    the miner's ``detector.background_ce``, calls into numpy's Python-level
    reduction, fromnumeric or broadcast wrappers. No timing
    enters, so the result is deterministic."""
    cfg = dict(cli.DEFAULTS)
    dcfg = cli.detector_config(cfg)
    split = sd.make_split(1)
    bench = sd.build_benchmark(0, split, sizes=(1, 1, 1))
    train_cfg = dataclasses.replace(cli.train_config(cfg, "base"), epochs=1)
    provider = cli.saliency_provider(cfg, dcfg)
    point, f_base, probe = micro_base_loss(np.random.default_rng(0))
    calls = []

    def hook(frame, event, arg):
        if event != "call":
            return
        callee = frame.f_code.co_filename.replace("\\", "/")
        caller = frame.f_back
        if callee.endswith(WRAPPERS) and caller is not None:
            calls.append((caller.f_code.co_filename.replace("\\", "/"), caller.f_code.co_name,
                          frame.f_code.co_name))

    sys.setprofile(hook)
    try:
        np.ones(3).mean()  # the layout check: a wrapper call seen from this file
        fs.train_base(bench.base_train[:1], dcfg, train_cfg, sorted(split.base), seed=0,
                      saliency_provider=provider)
        # the checker with one probe per leaf, by its own probes and by the
        # suite's batched probe; grad_check_sampled's coordinate draw is left
        # out, as numpy's Generator.choice calls np.prod itself
        for batched in (None, probe):
            T._check_coordinates(f_base, point, 1e-4, lambda shape: [(0,) * len(shape)],
                                 batched)
    finally:
        sys.setprofile(None)
    assert any(c[0].endswith("test_tape_bitwise.py") for c in calls), "numpy's layout changed"
    guarded = sorted({c for c in calls if c[0].endswith("fewdet/tensor.py")
                      or (c[0].endswith("fewdet/detector.py") and c[1] == "background_ce")})
    assert guarded == []
