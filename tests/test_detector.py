"""Tests for anchors, matching, losses, NMS, and mAP evaluation."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewdet import cli
from fewdet import detector as D
from fewdet import synthdata as sd
from fewdet import tensor as T
from fewdet.attention import pool_saliency, topdown_map
from fewdet.detector import AnchorConfig, DetectorConfig, DetectorOutputs, MatchResult
from fewdet.tensor import Tensor, grad_check
from oracles import (brute_force_matcher, brute_force_nms, center_to_corners, decode_box,
                     detect_per_anchor, eleven_point_ap, encode_box,
                     evaluate_detector_per_scene, forward_one, forward_separate_heads,
                     iou, iou_corners, match_detections_per_pair)


def tiny_config(**overrides):
    base = dict(image_size=16, backbone_channels=(4, 6, 8, 10), feat_dim=6,
                anchors=AnchorConfig(map_sizes=((2, 2), (1, 1)), scales=(0.3, 0.6)))
    base.update(overrides)
    return DetectorConfig(**base)


def iou1(a, b) -> float:
    """The package's IoU of one pair of (cx, cy, w, h) boxes."""
    return float(D.iou_matrix(np.array([a]), np.array([b]))[0, 0])


def random_box(rng) -> tuple[float, float, float, float]:
    """A center-form (cx, cy, w, h) box inside the unit square."""
    return (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
            rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4))


class TestBoxAndIou:

    def test_identical_boxes(self):
        b = (0.5, 0.5, 0.2, 0.3)
        assert iou1(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou1((0.2, 0.2, 0.1, 0.1), (0.8, 0.8, 0.1, 0.1)) == 0.0

    def test_corner_case_one_seventh(self):
        """Unit-overlap 2x2 squares: intersection 1, union 7."""
        a = (1.0, 1.0, 2.0, 2.0)  # corners (0,0)-(2,2)
        b = (2.0, 2.0, 2.0, 2.0)  # corners (1,1)-(3,3)
        np.testing.assert_allclose(iou1(a, b), 1 / 7, atol=1e-15)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            v = iou1(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou1(b, a)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(1)
        boxes_a = [random_box(rng) for _ in range(7)]
        boxes_b = [random_box(rng) for _ in range(5)]
        m = D.iou_matrix(np.array(boxes_a), np.array(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert m[i, j] == iou(a, b)


class TestAnchors:

    def test_single_cell_single_scale(self):
        cfg = AnchorConfig(map_sizes=((1, 1),), scales=(0.5,), aspects=(1.0,))
        anchors = D.generate_anchors(cfg)
        assert anchors.tolist() == [[0.5, 0.5, 0.5, 0.5]]

    def test_two_by_two_centers(self):
        cfg = AnchorConfig(map_sizes=((2, 2),), scales=(0.3,), aspects=(1.0,))
        anchors = D.generate_anchors(cfg)
        centers = {(cx, cy) for cx, cy, _, _ in anchors.tolist()}
        assert centers == {(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)}

    def test_enumeration_oracle(self):
        """Scale-major, row-major, aspect-minor ordering, 24 anchors total."""
        cfg = AnchorConfig(map_sizes=((2, 2), (2, 2)), scales=(0.2, 0.4),
                           aspects=(1.0, 2.0, 0.5))
        anchors = D.generate_anchors(cfg)
        assert len(anchors) == 24
        expected = []
        for scale, (fh, fw) in [(0.2, (2, 2)), (0.4, (2, 2))]:
            for i in range(fh):
                for j in range(fw):
                    for a in (1.0, 2.0, 0.5):
                        expected.append(((j + 0.5) / fw, (i + 0.5) / fh,
                                         scale * math.sqrt(a), scale / math.sqrt(a)))
        np.testing.assert_allclose(anchors, expected, atol=1e-15)
        assert np.array_equal(anchors, D.generate_anchors(cfg))

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            D.generate_anchors(AnchorConfig(map_sizes=(), scales=()))


def random_box_array(rng, n) -> np.ndarray:
    return np.array([random_box(rng) for _ in range(n)])


class TestEncodeDecode:

    def test_identity_encoding(self):
        b = np.array([[0.4, 0.6, 0.2, 0.3]])
        np.testing.assert_allclose(D.encode_all(b, b), np.zeros((1, 4)), atol=1e-12)

    def test_hand_case(self):
        anchor = np.array([[0.5, 0.5, 0.2, 0.2]])
        gt = np.array([[0.52, 0.5, 0.4, 0.2]])
        np.testing.assert_allclose(D.encode_all(gt, anchor),
                                   [[1.0, 0.0, math.log(2) / 0.2, 0.0]], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        gts, anchors = random_box_array(rng, 100), random_box_array(rng, 100)
        back = D.decode_all(D.encode_all(gts, anchors), anchors)
        np.testing.assert_allclose(back, gts, atol=1e-12)

    def test_encode_all_matches_scalar(self):
        """Bit for bit: enough random size ratios that a log other than
        libm's would differ in the last bit somewhere."""
        rng = np.random.default_rng(11)
        gts, anchors = random_box_array(rng, 10000), random_box_array(rng, 10000)
        got = D.encode_all(gts, anchors)
        want = [encode_box(g, a) for g, a in zip(gts.tolist(), anchors.tolist())]
        assert got.tolist() == [list(w) for w in want]

    def test_decode_all_matches_scalar(self):
        rng = np.random.default_rng(3)
        anchors = random_box_array(rng, 2000)
        offsets = rng.standard_normal((2000, 4))
        got = D.decode_all(offsets, anchors)
        want = [decode_box(o, a) for o, a in zip(offsets.tolist(), anchors.tolist())]
        assert got.tolist() == [list(w) for w in want]


class TestMatching:

    def test_no_gt(self):
        anchors = D.generate_anchors(AnchorConfig())
        match = D.match_anchors(anchors, np.zeros((0, 4)), [])
        assert match.num_positives == 0
        assert not match.hard_negative.any()

    @pytest.mark.parametrize("gt_boxes, gt_labels", [
        ([[0.5, 0.5, 0.0, 0.1]], [1]),                        # zero width
        ([[0.5, 0.5, 0.2, 0.1], [0.3, 0.3, 0.1, -0.1]], [1, 2]),  # negative height
        ([[0.5, 0.5, 0.2, 0.1]], [1, 2]),                     # more labels than boxes
        ([[0.5, 0.5, 0.2, 0.1], [0.3, 0.3, 0.1, 0.1]], [1]),  # more boxes than labels
        ([0.5, 0.5, 0.2, 0.1], [1]),                          # not an [M,4] array
    ], ids=["zero-width", "negative-height", "extra-label", "extra-box", "flat"])
    def test_bad_ground_truth_rejected(self, gt_boxes, gt_labels):
        """Ground truth enters the detector here: a box side <= 0, or labels
        that do not pair one to one with [M,4] boxes, is an error."""
        anchors = D.generate_anchors(AnchorConfig())
        with pytest.raises(ValueError):
            D.match_anchors(anchors, np.array(gt_boxes), gt_labels)

    def test_exact_anchor_is_sole_positive(self):
        anchors = np.array([[0.2, 0.2, 0.2, 0.2], [0.8, 0.8, 0.2, 0.2]])
        match = D.match_anchors(anchors, np.array([[0.2, 0.2, 0.2, 0.2]]), [3])
        np.testing.assert_array_equal(match.positive_class, [3, 0])
        np.testing.assert_array_equal(match.matched_gt, [0, -1])

    def test_both_overlapping_anchors_positive(self):
        gt = (0.5, 0.5, 0.2, 0.2)
        a1 = (0.5, 0.5, 0.2 / math.sqrt(0.7), 0.2 / math.sqrt(0.7))  # IoU 0.7
        a2 = (0.5, 0.5, 0.2 / math.sqrt(0.6), 0.2 / math.sqrt(0.6))  # IoU 0.6
        anchors = np.array([a1, a2])
        np.testing.assert_allclose(iou1(a1, gt), 0.7, atol=1e-12)
        np.testing.assert_allclose(iou1(a2, gt), 0.6, atol=1e-12)
        match = D.match_anchors(anchors, np.array([gt]), [5], pos_thr=0.5)
        np.testing.assert_array_equal(match.positive_class, [5, 5])
        np.testing.assert_array_equal(match.matched_gt, [0, 0])

    def test_forced_match_claims_distinct_anchors(self):
        """Two gts whose best anchor coincides still both get one."""
        anchors = np.array([[0.5, 0.5, 0.3, 0.3], [0.52, 0.5, 0.3, 0.3]])
        gts = np.array([[0.5, 0.5, 0.29, 0.29], [0.5, 0.5, 0.28, 0.28]])
        match = D.match_anchors(anchors, gts, [1, 2], pos_thr=0.99)
        assert match.num_positives == 2
        assert set(match.matched_gt) == {0, 1}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        anchors = D.generate_anchors(AnchorConfig(
            map_sizes=((3, 3),), scales=(0.3,), aspects=(1.0, 2.0)))
        for _ in range(30):
            n_gt = int(rng.integers(1, 4))
            gts = [random_box(rng) for _ in range(n_gt)]
            labels = [int(rng.integers(1, 9)) for _ in range(n_gt)]
            match = D.match_anchors(anchors, np.array(gts), labels, pos_thr=0.4)
            want_pos, want_match = brute_force_matcher(anchors.tolist(), gts, labels, 0.4)
            np.testing.assert_array_equal(match.positive_class, want_pos)
            np.testing.assert_array_equal(match.matched_gt, want_match)

    def test_guarantees_n_at_least_gt_count(self):
        rng = np.random.default_rng(5)
        anchors = D.generate_anchors(AnchorConfig())
        for _ in range(20):
            gts = random_box_array(rng, 4)
            match = D.match_anchors(anchors, gts, [1, 2, 3, 4])
            assert match.num_positives >= 4


class TestMining:

    def make_match(self, n, pos_at=()):
        positive = np.zeros(n, dtype=np.int64)
        for i in pos_at:
            positive[i] = 1
        return MatchResult(positive, np.where(positive > 0, 0, -1),
                           np.zeros(n, dtype=bool))

    def test_count_contract(self):
        losses = np.linspace(1, 0, 20)
        match = self.make_match(20, pos_at=(0, 1))
        mined = D.hard_negative_mining(losses, match, neg_pos_ratio=3)
        assert mined.hard_negative.sum() == 6
        assert not mined.hard_negative[[0, 1]].any()

    def test_all_nonpositives_when_fewer(self):
        losses = np.ones(5)
        match = self.make_match(5, pos_at=(0, 1))
        mined = D.hard_negative_mining(losses, match, neg_pos_ratio=3)
        assert mined.hard_negative.sum() == 3

    def test_ties_take_lowest_indices(self):
        losses = np.ones(10)
        match = self.make_match(10, pos_at=(9,))
        mined = D.hard_negative_mining(losses, match, neg_pos_ratio=3)
        np.testing.assert_array_equal(np.where(mined.hard_negative)[0], [0, 1, 2])

    def test_zero_positives_keeps_one(self):
        losses = np.array([0.1, 0.9, 0.5])
        mined = D.hard_negative_mining(losses, self.make_match(3), neg_pos_ratio=3)
        np.testing.assert_array_equal(np.where(mined.hard_negative)[0], [1])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = 30
            losses = rng.standard_normal(n)
            pos = tuple(rng.choice(n, size=3, replace=False))
            match = self.make_match(n, pos_at=pos)
            mined = D.hard_negative_mining(losses, match, neg_pos_ratio=2)
            candidates = [i for i in range(n) if i not in pos]
            want = sorted(candidates, key=lambda i: (-losses[i], i))[:6]
            np.testing.assert_array_equal(np.where(mined.hard_negative)[0],
                                          sorted(want))

    def test_candidates_are_found_once_per_match(self):
        """Every mining of a match reads the one list of its non-positive
        anchors, which is the np.where list the miner used to rebuild."""
        match = self.make_match(12, pos_at=(2, 7))
        rng = np.random.default_rng(9)
        D.hard_negative_mining(rng.standard_normal(12), match)
        candidates = match.non_positive
        D.hard_negative_mining(rng.standard_normal(12), match)
        assert match.non_positive is candidates
        want = np.where(match.positive_class == 0)[0]
        assert candidates.dtype == want.dtype and candidates.tobytes() == want.tobytes()


def synthetic_outputs(logits, offsets):
    n, _ = logits.shape
    return DetectorOutputs(
        logits=Tensor(logits, requires_grad=False),
        offsets=Tensor(offsets, requires_grad=False),
        features=Tensor(np.ones((n, 3)), requires_grad=False))


class TestBaseLoss:

    def setup_method(self):
        self.params = D.DetectorParams(
            {"cls.rows": Tensor(np.zeros((3, 3)))}, class_ids=[1, 2])
        self.anchors = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2]])
        self.cfg = tiny_config()

    def loss(self, outputs, match, gt):
        return D.base_loss(outputs, match,
                           D.loss_targets(match, gt, self.anchors, self.params), self.cfg)

    def test_empty_is_zero(self):
        match = MatchResult(np.zeros(2, dtype=np.int64),
                            np.full(2, -1, dtype=np.int64),
                            np.zeros(2, dtype=bool))
        outputs = synthetic_outputs(np.zeros((2, 3)), np.zeros((2, 4)))
        loss, parts = self.loss(outputs, match, np.zeros((0, 4)))
        assert loss.data == 0.0
        assert parts == {"loss_cls": 0.0, "loss_bbox": 0.0}

    def test_perfect_offsets_zero_bbox_term(self):
        gt = np.array([[0.32, 0.3, 0.22, 0.2]])
        offsets = np.zeros((2, 4))
        offsets[0] = D.encode_all(gt, self.anchors[:1])[0]
        match = MatchResult(np.array([1, 0]), np.array([0, -1]),
                            np.array([False, True]))
        outputs = synthetic_outputs(np.zeros((2, 3)), offsets)
        _, parts = self.loss(outputs, match, gt)
        assert parts["loss_bbox"] == 0.0

    def test_hand_summed_toy_case(self):
        """One positive (class row 1), one hard negative, alpha = 1."""
        gt = np.array([[0.3, 0.3, 0.25, 0.2]])
        logits = np.array([[0.2, 1.1, -0.3], [0.9, -0.2, 0.4]])
        offsets = np.array([[0.5, -0.5, 0.25, 2.0], [0.0, 0.0, 0.0, 0.0]])
        match = MatchResult(np.array([1, 0]), np.array([0, -1]),
                            np.array([False, True]))
        outputs = synthetic_outputs(logits, offsets)
        loss, parts = self.loss(outputs, match, gt)

        def ce(row, k):
            return math.log(sum(math.exp(v) for v in row)) - row[k]

        target = D.encode_all(gt, self.anchors[:1])[0]
        diffs = offsets[0] - target
        sl1 = sum(0.5 * d * d if abs(d) < 1 else abs(d) - 0.5 for d in diffs)
        want = (ce(logits[0], 1) + ce(logits[1], 0) + sl1) / 1
        np.testing.assert_allclose(float(loss.data), want, atol=1e-12)
        np.testing.assert_allclose(parts["loss_cls"] + parts["loss_bbox"],
                                   want, atol=1e-12)

    def test_grad_check_on_loss_surface(self):
        rng = np.random.default_rng(7)
        gt = np.array([[0.3, 0.3, 0.25, 0.2]])
        match = MatchResult(np.array([1, 0]), np.array([0, -1]),
                            np.array([False, True]))

        def f(leaves):
            outputs = DetectorOutputs(logits=leaves["logits"],
                                      offsets=leaves["offsets"],
                                      features=leaves["logits"])
            loss, _ = self.loss(outputs, match, gt)
            return loss

        for _ in range(5):
            report = grad_check(f, {"logits": rng.standard_normal((2, 3)),
                                    "offsets": rng.standard_normal((2, 4))})
            assert max(report.values()) < 1e-4


class TestForward:

    def setup_method(self):
        self.cfg = tiny_config()
        self.rng = np.random.default_rng(8)
        self.params = D.init_detector_params(self.cfg, [1, 2, 3], self.rng)
        self.image = self.rng.uniform(0, 1, size=(3, 16, 16))[None]

    def test_output_shapes(self):
        out = D.forward(self.image, None, self.params, self.cfg)
        n = len(D.generate_anchors(self.cfg.anchors))
        assert out.logits.shape == (1, n, 4)
        assert out.offsets.shape == (1, n, 4)
        assert out.features.shape == (1, n, 6)
        assert out.topdown.shape == (1, 4, 4)
        single = out.single()
        assert (single.logits.shape, single.offsets.shape, single.features.shape,
                single.topdown.shape) == ((n, 4), (n, 4), (n, 6), (4, 4))

    def test_deterministic(self):
        a = D.forward(self.image, None, self.params, self.cfg)
        b = D.forward(self.image, None, self.params, self.cfg)
        assert np.array_equal(a.logits.data, b.logits.data)

    def test_cosine_bound_reached_for_aligned_row(self):
        out = D.forward(self.image, None, self.params, self.cfg)
        f0 = out.features.data[0, 0]
        self.params.cls_rows.data = self.params.cls_rows.data.copy()
        self.params.cls_rows.data[1] = f0  # align class-1 row with anchor 0
        out2 = D.forward(self.image, None, self.params, self.cfg)
        np.testing.assert_allclose(out2.logits.data[0, 0, 1],
                                   self.cfg.temperature, atol=1e-12)
        assert np.all(out2.logits.data <= self.cfg.temperature + 1e-12)

    def test_row_rescaling_invariance(self):
        out = D.forward(self.image, None, self.params, self.cfg)
        scaled = self.params.copy()
        scaled.cls_rows.data[2] *= 7.5
        out2 = D.forward(self.image, None, scaled, self.cfg)
        np.testing.assert_allclose(out2.logits.data, out.logits.data, atol=1e-12)
        assert np.array_equal(out.logits.data.argmax(axis=2),
                              out2.logits.data.argmax(axis=2))

    def test_zero_classifier_row_raises(self):
        bad = self.params.copy()
        bad.cls_rows.data[1] = 0.0
        with pytest.raises(ValueError):
            D.forward(self.image, None, bad, self.cfg)

    def test_saliency_changes_features_only_when_enabled(self):
        full = np.zeros((16, 16))
        full[4:10, 4:10] = 1.0
        sal = pool_saliency(full, *D.fusion_size(self.cfg))[None]
        gate = D.saliency_gate(sal, self.cfg)
        on = D.forward(self.image, gate, self.params, self.cfg)
        off_cfg = dataclasses.replace(self.cfg, use_bottom_up=False)
        assert D.saliency_gate(sal, off_cfg) is None
        off = D.forward(self.image, gate, self.params, off_cfg)
        plain = D.forward(self.image, None, self.params, self.cfg)
        assert not np.array_equal(on.logits.data, plain.logits.data)
        assert np.array_equal(off.logits.data, plain.logits.data)

    def test_gate_for_another_batch_rejected(self):
        gate = D.saliency_gate(np.zeros((1, 4, 4)), self.cfg)
        with pytest.raises(T.ShapeError):
            D.forward(np.concatenate([self.image, self.image]), gate, self.params, self.cfg)

    @pytest.mark.parametrize("side", [13, 16, 30, 33])
    def test_gate_has_the_fusion_resolution(self, side):
        """The gate is built at the stage-2 resolution of any image side,
        odd ones included, and forward accepts it."""
        cfg = tiny_config(image_size=side, anchors=AnchorConfig(
            map_sizes=(((side + 7) // 8,) * 2, ((side + 15) // 16,) * 2),
            scales=(0.3, 0.6)))
        h, w = D.fusion_size(cfg)
        gate = D.saliency_gate(pool_saliency(self.rng.uniform(0, 1, (h, w)), h, w)[None], cfg)
        assert gate.shape == (1, 1, h, w)
        params = D.init_detector_params(cfg, [1], self.rng)
        D.forward(self.rng.uniform(0, 1, (1, 3, side, side)), gate, params, cfg)

    def test_wrong_image_shape(self):
        with pytest.raises(T.ShapeError):
            D.forward(np.zeros((1, 3, 8, 8)), None, self.params, self.cfg)
        with pytest.raises(T.ShapeError):
            D.forward(np.zeros((3, 16, 16)), None, self.params, self.cfg)

    def test_topdown_is_the_stage2_attention_map(self):
        """forward returns the map the global-context block pooled with:
        bitwise the top-down map of the stage-2 features."""
        out = D.forward(self.image, None, self.params, self.cfg)
        t = self.params.tensors
        x = T.sub(T.scale(Tensor(self.image), 2.0), Tensor(np.float64(1.0)))
        for i in range(2):
            x = T.relu(T.conv2d(x, t[f"backbone.{i}.kernel"], t[f"backbone.{i}.bias"],
                                stride=2, padding=1))
        want = topdown_map(x, t["gc.w_k"]).data
        assert out.topdown.shape == (1, 4, 4)
        assert out.topdown.data.tobytes() == want.tobytes()
        assert abs(out.topdown.data.sum() - 1.0) <= 1e-12


class TestTapeSize:

    def test_default_training_step_records_51_nodes(self):
        """A taped training step of the default detector on a fixed scene:
        forward with saliency, hard-negative mining and the base loss. The
        backbone's ReLUs run inside its four convolutions, so the step
        records 51 nodes where a separate ReLU per stage recorded 55. A
        change that adds nodes to every step must change this number."""
        cfg = dict(cli.DEFAULTS)
        dcfg = cli.detector_config(cfg)
        split = sd.make_split(1)
        scene = sd.build_benchmark(0, split, sizes=(1, 1, 1)).base_train[0]
        saliency = cli.saliency_provider(cfg, dcfg)(scene)
        params = D.init_detector_params(dcfg, sorted(split.base), np.random.default_rng(0))
        anchors = D.generate_anchors(dcfg.anchors)
        boxes = scene.boxes[scene.annotated]
        match = D.match_anchors(anchors, boxes, scene.labels[scene.annotated], dcfg.pos_thr)
        gate = D.saliency_gate(saliency[None], dcfg)
        targets = D.loss_targets(match, boxes, anchors, params)
        with T.Tape() as tape:
            out = D.forward(scene.image[None], gate, params, dcfg).single()
            mined = D.hard_negative_mining(D.background_ce(out.logits.data), match,
                                           dcfg.neg_pos_ratio)
            loss, _ = D.base_loss(out, mined, targets, dcfg)
        assert len(tape) == 51
        assert [n.op for n in tape.nodes].count("relu") == 1  # gc_block's own
        assert loss.requires_grad


class TestStackedForward:
    """A stack is its scenes run alone: every output of scene b in a stack of
    B is bitwise that scene's output as a stack of one."""

    @staticmethod
    def setup_scenes(n):
        scenes = [sd.generate_scene(seed) for seed in range(n)]
        provider = cli.saliency_provider(dict(cli.DEFAULTS), CFG)
        return scenes, [provider(s) for s in scenes]

    @pytest.mark.parametrize("with_saliency", [True, False])
    def test_stacks_of_one_to_five_match_single_scenes(self, with_saliency):
        scenes, maps = self.setup_scenes(5)
        params = D.init_detector_params(CFG, [2, 3, 5, 6, 7, 8], np.random.default_rng(3))
        alone = [forward_one(s.image, m if with_saliency else None, params, CFG)
                 for s, m in zip(scenes, maps)]
        for n in range(1, 6):
            out = D.forward(np.stack([s.image for s in scenes[:n]]),
                            D.saliency_gate(np.stack(maps[:n]), CFG) if with_saliency
                            else None, params, CFG)
            got = (out.logits.data, out.offsets.data, out.features.data, out.topdown.data)
            for b in range(n):
                for stacked, single in zip(got, alone[b]):
                    assert stacked[b].tobytes() == single.tobytes()

    @pytest.mark.parametrize("with_saliency", [True, False])
    def test_forward_chunks_matches_single_scenes(self, with_saliency):
        """Each chunk's gate stacks that chunk's slice of the map list: image
        i's outputs, in a last short chunk too, are bitwise those of image i
        run alone with map i."""
        n = D.INFERENCE_CHUNK + 1
        scenes, maps = self.setup_scenes(n)
        params = D.init_detector_params(CFG, [2, 3, 5, 6, 7, 8], np.random.default_rng(6))
        got = list(D.forward_chunks([s.image for s in scenes],
                                    maps if with_saliency else None, params, CFG))
        assert len(got) == n
        for s, m, outputs in zip(scenes, maps, got):
            alone = forward_one(s.image, m if with_saliency else None, params, CFG)
            for chunked, single in zip(outputs, alone[:3]):
                assert chunked.tobytes() == single.tobytes()

    def test_fused_heads_match_separate_convs(self):
        """Values and every parameter gradient of a training-style loss are
        bitwise those of running each head's feature and regression convs
        separately, as two ops flattened one by one."""
        scenes, maps = self.setup_scenes(1)
        rng = np.random.default_rng(5)
        params = D.init_detector_params(CFG, [2, 3, 5, 6, 7, 8], rng)
        n = len(D.generate_anchors(CFG.anchors))
        weights = [Tensor(rng.standard_normal(shape))
                   for shape in ((n, 7), (n, 4), (n, CFG.feat_dim))]
        runs = []
        for fused in (True, False):
            params.zero_grads()
            with T.Tape() as tape:
                if fused:
                    out = D.forward(scenes[0].image[None],
                                    D.saliency_gate(maps[0][None], CFG), params,
                                    CFG).single()
                    outs = (out.logits, out.offsets, out.features)
                else:
                    outs = forward_separate_heads(scenes[0].image, maps[0], params, CFG)
                loss = T.sum_all(T.concat(
                    [T.reshape(T.sum_all(T.mul(o, w)), (1,)) for o, w in zip(outs, weights)],
                    axis=0))
            T.backward(tape, loss)
            runs.append([o.data.tobytes() for o in outs]
                        + [params.tensors[k].grad.tobytes() for k in sorted(params.tensors)])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n", [D.INFERENCE_CHUNK - 1, D.INFERENCE_CHUNK,
                                   D.INFERENCE_CHUNK + 1])
    def test_evaluate_detector_matches_per_scene_loop(self, n):
        scenes, _ = self.setup_scenes(n)
        provider = cli.saliency_provider(dict(cli.DEFAULTS), CFG)
        params = D.init_detector_params(CFG, [2, 3, 5, 6, 7, 8], np.random.default_rng(4))
        got = D.evaluate_detector(params, CFG, scenes, saliency_provider=provider,
                                  novel_ids=(1, 4))
        want = evaluate_detector_per_scene(params, CFG, scenes,
                                           saliency_provider=provider, novel_ids=(1, 4))
        assert json.dumps(got).encode() == json.dumps(want).encode()
        assert len(got["per_class_ap"]) > 0


CFG = cli.detector_config(dict(cli.DEFAULTS))


class TestTrunkAndHeads:
    """The stages of ``STAGES``, from the trunk's to the heads', each read
    the parameters of their own prefix."""

    @pytest.mark.parametrize("with_gate", [True, False])
    def test_each_stage_reads_exactly_the_leaves_of_its_prefix(self, with_gate):
        """Run stage by stage, each stage of ``STAGES`` reads the parameters
        named by its prefix and no other, and the prefixes share out every
        parameter. The gradient check's stage reuse rests on this."""
        scenes, maps = TestStackedForward.setup_scenes(1)
        gate = D.saliency_gate(maps[0][None], CFG) if with_gate else None
        params = D.init_detector_params(CFG, [2, 3], np.random.default_rng(7))
        state = D.forward_state(scenes[0].image[None], gate, CFG)
        covered = set()
        for prefix, stage in D.STAGES:
            params.zero_grads()
            with T.Tape() as tape:
                state = stage(state, params, CFG)
                # every tensor the stage made, summed
                fields = (state if isinstance(state, D.ForwardState) else
                          (state.logits, state.offsets, state.features))
                tensors = [t for f in fields for t in (f if isinstance(f, tuple) else (f,))]
                produced = {id(node.output) for node in tape.nodes}
                loss = T.sum_all(T.concat([T.reshape(T.sum_all(t), (1,)) for t in tensors
                                           if id(t) in produced], axis=0))
            T.backward(tape, loss)
            read = {k for k, t in params.tensors.items() if t.grad is not None}
            assert read and read == {k for k in params.tensors if k.startswith(prefix)}
            covered |= read
        assert covered == set(params.tensors)


class TestNms:

    def test_identical_boxes_collapse(self):
        boxes = np.array([[0.5, 0.5, 0.2, 0.2], [0.5, 0.5, 0.2, 0.2]])
        assert D.nms(boxes, np.array([0.9, 0.8]), iou_thr=0.5) == [0]

    def test_disjoint_boxes_survive(self):
        boxes = np.array([[0.2, 0.2, 0.1, 0.1], [0.8, 0.8, 0.1, 0.1],
                          [0.5, 0.5, 0.1, 0.1]])
        assert sorted(D.nms(boxes, np.array([0.5, 0.9, 0.7]), 0.5)) == [0, 1, 2]

    def test_boundary_iou_survives(self):
        """Suppression is strict: IoU exactly at the threshold is kept."""
        a = [1.0, 1.0, 2.0, 2.0]
        b = [2.0, 2.0, 2.0, 2.0]  # IoU exactly 1/7
        boxes = np.array([a, b])
        assert D.nms(boxes, np.array([0.9, 0.8]), iou_thr=1 / 7) == [0, 1]

    def test_score_threshold_and_top_k(self):
        boxes = np.array([[0.2, 0.2, 0.1, 0.1], [0.8, 0.8, 0.1, 0.1],
                          [0.5, 0.5, 0.1, 0.1]])
        scores = np.array([0.9, 0.04, 0.7])
        assert D.nms(boxes, scores, 0.5, score_thr=0.05) == [0, 2]
        assert D.nms(boxes, scores, 0.5, score_thr=0.05, top_k=1) == [0]
        assert D.nms(boxes, scores, 0.5, score_thr=0.05, top_k=0) == []

    def test_single_candidate_is_kept(self):
        """One box at or above score_thr is kept whatever its overlaps with
        the boxes below it, unless top_k is 0."""
        boxes = np.array([[0.5, 0.5, 0.2, 0.2]] * 3)
        scores = np.array([0.01, 0.3, 0.02])
        for top_k in (None, 1, 2):
            got = D.nms(boxes, scores, 0.5, score_thr=0.05, top_k=top_k)
            assert got == [1] == brute_force_nms(boxes.tolist(), scores.tolist(), 0.5,
                                                 score_thr=0.05, top_k=top_k)
            assert type(got[0]) is int
        assert D.nms(boxes, scores, 0.5, score_thr=0.05, top_k=0) == []
        assert D.nms(boxes[:1], scores[1:2], 0.5) == [0]

    def test_tie_prefers_lower_index(self):
        boxes = np.array([[0.5, 0.5, 0.2, 0.2], [0.5, 0.5, 0.2, 0.2]])
        assert D.nms(boxes, np.array([0.7, 0.7]), 0.5) == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = int(rng.integers(1, 21))
            boxes = np.column_stack([rng.uniform(0.2, 0.8, m), rng.uniform(0.2, 0.8, m),
                                     rng.uniform(0.05, 0.5, m), rng.uniform(0.05, 0.5, m)])
            scores = np.round(rng.uniform(0, 1, m), 2)  # rounding forces ties
            iou_thr = float(rng.uniform(0.1, 0.7))
            score_thr = float(np.round(rng.uniform(0, 0.5), 2))
            top_k = None if rng.random() < 0.3 else int(rng.integers(0, m + 1))
            got = D.nms(boxes, scores, iou_thr, score_thr=score_thr, top_k=top_k)
            want = brute_force_nms(boxes.tolist(), scores.tolist(), iou_thr,
                                   score_thr=score_thr, top_k=top_k)
            assert got == want


class TestDetect:
    """Array decode and clipping give the same detections, to the bit, as
    decoding, clipping and suppressing one anchor at a time."""

    @staticmethod
    def outputs(rng, anchors, n_classes):
        n = len(anchors)
        logits = rng.standard_normal((n, 1 + n_classes)) * 3.0
        offsets = rng.standard_normal((n, 4))
        # push a quarter of the centers far outside the unit square, so their
        # clipped boxes have no area
        far = rng.random(n) < 0.25
        offsets[far, int(rng.integers(2))] = rng.choice([-1e3, 1e3], far.sum())
        return DetectorOutputs(logits=Tensor(logits), offsets=Tensor(offsets),
                               features=Tensor(np.zeros((n, 1))))

    @pytest.mark.parametrize("score_thr", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("top_k", [None, 1, 50])
    def test_matches_per_anchor_reference(self, score_thr, top_k):
        rng = np.random.default_rng(17)
        anchors = D.generate_anchors(AnchorConfig())
        class_ids = [2, 3, 5, 6]
        params = D.DetectorParams({}, class_ids)
        cfg = DetectorConfig(score_thr=score_thr, top_k=top_k)
        for _ in range(8):
            out = self.outputs(rng, anchors, len(class_ids))
            labels, scores, boxes = D.detect(out.logits.data, out.offsets.data,
                                             anchors, params, cfg)
            got = list(zip(labels.tolist(), scores.tolist(), boxes.tolist()))
            want = detect_per_anchor(out.logits.data, out.offsets.data,
                                     anchors, class_ids, cfg.nms_iou,
                                     score_thr, top_k)
            assert len(want) > 0
            assert [(c, s.hex(), [v.hex() for v in b]) for c, s, b in got] == \
                [(c, s.hex(), [v.hex() for v in b]) for c, s, b in want]


def image_dets(*dets):
    """One image's (class, score, box) triples as detect's arrays."""
    return (np.array([c for c, _, _ in dets], dtype=np.int64),
            np.array([s for _, s, _ in dets], dtype=np.float64),
            np.array([b for _, _, b in dets], dtype=np.float64).reshape(-1, 4))


def image_gts(*gts):
    """One image's (class, box) pairs as a scene's (labels, boxes) arrays."""
    return (np.array([c for c, _ in gts], dtype=np.int64),
            np.array([b for _, b in gts], dtype=np.float64).reshape(-1, 4))


class TestEvaluateMap:

    def test_perfect_detections(self):
        gt = [image_gts((1, (0.3, 0.3, 0.2, 0.2)), (1, (0.7, 0.7, 0.2, 0.2)))]
        dets = [image_dets((1, 0.9, (0.3, 0.3, 0.2, 0.2)),
                           (1, 0.8, (0.7, 0.7, 0.2, 0.2)))]
        per_class, mean_ap = D.evaluate_map(dets, gt)
        assert per_class[1] == 1.0 and mean_ap == 1.0

    def test_zero_detections(self):
        gt = [image_gts((1, (0.3, 0.3, 0.2, 0.2)))]
        per_class, mean_ap = D.evaluate_map([image_dets()], gt)
        assert per_class[1] == 0.0 and mean_ap == 0.0

    def test_hand_computed_staircase(self):
        """Hits H,M,H,H,M at scores .9/.8/.7/.6/.5 over 3 gts -> 9.25/11."""
        g = [(0.2, 0.2, 0.1, 0.1), (0.5, 0.5, 0.1, 0.1), (0.8, 0.8, 0.1, 0.1)]
        far = (0.2, 0.8, 0.05, 0.05)
        gt = [image_gts(*[(1, b) for b in g])]
        dets = [image_dets((1, 0.9, g[0]), (1, 0.8, far), (1, 0.7, g[1]),
                           (1, 0.6, g[2]), (1, 0.5, far))]
        per_class, _ = D.evaluate_map(dets, gt)
        want = (4 * 1.0 + 7 * 0.75) / 11
        assert abs(per_class[1] - want) < 1e-12
        assert abs(per_class[1] - eleven_point_ap([1, 0, 1, 1, 0], 3)) < 1e-15

    def test_duplicate_detection_is_false_positive(self):
        box = (0.5, 0.5, 0.2, 0.2)
        gt = [image_gts((1, box))]
        dets = [image_dets((1, 0.9, box), (1, 0.8, box))]
        per_class, _ = D.evaluate_map(dets, gt)
        # recall 1 at precision 1 first, duplicate only hurts later precision
        assert per_class[1] == 1.0

    def test_map_is_mean_over_gt_classes(self):
        gt = [image_gts((1, (0.3, 0.3, 0.2, 0.2)), (2, (0.7, 0.7, 0.2, 0.2)))]
        dets = [image_dets((1, 0.9, (0.3, 0.3, 0.2, 0.2)))]
        per_class, mean_ap = D.evaluate_map(dets, gt)
        assert per_class[1] == 1.0 and per_class[2] == 0.0
        assert mean_ap == 0.5

    def test_iou_tie_goes_to_first_gt(self):
        """d1 overlaps gts a and b equally (IoU 0.6) and takes a, the first;
        d2 matches a exactly but finds it taken, so it is a false positive."""
        a, b = (0.375, 0.5, 0.5, 0.5), (0.625, 0.5, 0.5, 0.5)
        gt = [image_gts((1, a), (1, b))]
        dets = [image_dets((1, 0.9, (0.5, 0.5, 0.5, 0.5)), (1, 0.8, a))]
        per_class, _ = D.evaluate_map(dets, gt)
        assert per_class[1] == eleven_point_ap([1, 0], 2)

    def test_score_tie_goes_to_first_image_then_first_detection(self):
        """Equal scores rank by image, then by position within the image:
        the later detection of each tied pair finds its gt taken."""
        box = (0.5, 0.5, 0.2, 0.2)
        gt = [image_gts((1, box)), image_gts((1, box))]
        dets = [image_dets((1, 0.5, box), (1, 0.5, (0.52, 0.5, 0.2, 0.2))),
                image_dets((1, 0.5, (0.9, 0.9, 0.05, 0.05)), (1, 0.5, box))]
        per_class, _ = D.evaluate_map(dets, gt)
        assert per_class[1] == eleven_point_ap([1, 0, 0, 1], 2)

    def test_matches_per_pair_reference(self):
        """Random detections over random ground truth, with duplicated gts
        (exact IoU ties) and far-away detections (all-zero IoU rows)."""
        rng = np.random.default_rng(23)
        for _ in range(30):
            gts, dets = [], []
            for _ in range(int(rng.integers(1, 6))):
                g = [(int(rng.integers(1, 4)), random_box(rng))
                     for _ in range(int(rng.integers(0, 5)))]
                g += g[:int(rng.integers(0, 2))]
                gts.append(g)
                d = [(int(rng.integers(1, 4)), float(np.round(rng.random(), 1)),
                      random_box(rng)) for _ in range(int(rng.integers(0, 8)))]
                d += [(cid, float(rng.random()),
                       (b[0] + 0.01 * rng.random(), b[1], b[2], b[3]))
                      for cid, b in g]
                d.append((1, 0.3, (0.02, 0.02, 0.01, 0.01)))
                dets.append(d)
            per_class, _ = D.evaluate_map([image_dets(*d) for d in dets],
                                          [image_gts(*g) for g in gts])
            want = match_detections_per_pair(dets, gts, 0.5)
            assert set(per_class) == set(want)
            for c, (hits, n_gt) in want.items():
                assert per_class[c] == D.eleven_point_ap(hits, n_gt)

    def test_detected_class_absent_from_gt_ignored(self):
        gt = [image_gts((1, (0.3, 0.3, 0.2, 0.2)))]
        dets = [image_dets((1, 0.9, (0.3, 0.3, 0.2, 0.2)),
                           (7, 0.99, (0.5, 0.5, 0.2, 0.2)))]
        per_class, mean_ap = D.evaluate_map(dets, gt)
        assert set(per_class) == {1}
        assert mean_ap == 1.0


class TestCheckpointRoundTrip:

    def test_params_survive_save_load(self, tmp_path):
        cfg = tiny_config()
        rng = np.random.default_rng(10)
        params = D.init_detector_params(cfg, [1, 2], rng)
        path = tmp_path / "det.json"
        T.save_arrays(path, params.as_arrays(),
                      meta={"class_ids": params.class_ids})
        arrays, meta = T.load_arrays(path)
        loaded = D.DetectorParams.from_arrays(arrays, meta["class_ids"])
        image = rng.uniform(0, 1, size=(3, 16, 16))[None]
        a = D.forward(image, None, params, cfg)
        b = D.forward(image, None, loaded, cfg)
        assert np.array_equal(a.logits.data, b.logits.data)
        assert np.array_equal(a.offsets.data, b.offsets.data)


class TestProperties:

    @given(st.floats(0.05, 0.45), st.floats(0.05, 0.45),
           st.floats(0.2, 0.8), st.floats(0.2, 0.8))
    @settings(max_examples=40, deadline=None)
    def test_encode_decode_inverse(self, w, h, cx, cy):
        gt = np.array([[cx, cy, w, h]])
        anchor = np.array([[0.5, 0.5, 0.3, 0.3]])
        back = D.decode_all(D.encode_all(gt, anchor), anchor)
        assert np.all(np.abs(back - gt) < 1e-12)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=25, deadline=None)
    def test_iou_corner_pairs_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_box(rng), random_box(rng)
        want = iou_corners(center_to_corners(a), center_to_corners(b))
        np.testing.assert_allclose(iou1(a, b), want, atol=1e-12)
