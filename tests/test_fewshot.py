import dataclasses
import math

import numpy as np
import pytest

from fewdet import attention as att
from fewdet import cli
from fewdet import detector as det
from fewdet import fewshot as fs
from fewdet import synthdata as sd
from fewdet import tensor as T
from fewdet.detector import AnchorConfig, DetectorConfig, DetectorOutputs
from fewdet.synthdata import Scene
from fewdet.tensor import Tape, Tensor, backward, grad_check
from oracles import (base_loss_per_call, col2im_slices, forward_one, forward_per_call,
                     novel_loss_per_call, sgd_step_per_tensor)

TOL = 1e-12


def tiny_config(**overrides):
    base = dict(image_size=16, backbone_channels=(4, 6, 8, 10), feat_dim=6,
                bottleneck_ratio=2,
                anchors=AnchorConfig(map_sizes=((2, 2), (1, 1)),
                                     scales=(0.3, 0.6)))
    base.update(overrides)
    return DetectorConfig(**base)


def rows_params(rows: Tensor, class_ids) -> det.DetectorParams:
    # enough of DetectorParams for the concentration losses: rows + row map
    return det.DetectorParams({"cls.rows": rows}, list(class_ids))


def toy_scene(rng, cfg, class_id, box=(0.5, 0.5, 0.4, 0.4)) -> Scene:
    """One annotated object of the given class, drawn nowhere: the image is noise."""
    size = cfg.image_size
    image = rng.uniform(0.05, 0.6, size=(3, size, size))
    return Scene(image=image, boxes=np.array([box], dtype=np.float64),
                 labels=np.array([class_id]), masks=np.zeros((1, size, size), dtype=bool),
                 annotated=np.ones(1, dtype=bool))


def targets_of(match: det.MatchResult, params: det.DetectorParams) -> det.LossTargets:
    """The loss targets of a match on unit boxes: the concentration losses
    read only their positives and classifier rows."""
    n_gt = int(np.max(match.matched_gt, initial=-1)) + 1
    unit = np.full((len(match.positive_class), 4), 0.5)
    return det.loss_targets(match, unit[:n_gt], unit, params)


def make_match(n, positives: dict[int, int], negatives=()) -> det.MatchResult:
    positive = np.zeros(n, dtype=np.int64)
    matched = np.full(n, -1, dtype=np.int64)
    hard = np.zeros(n, dtype=bool)
    for g, (idx, cid) in enumerate(positives.items()):
        positive[idx] = cid
        matched[idx] = g
    hard[list(negatives)] = True
    return det.MatchResult(positive, matched, hard)


class TestObjectConcentration:
    def test_parallel_features_hit_minimum(self):
        rows = Tensor(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]))
        feats = Tensor(np.array([[0.0, 5.0], [0.7, 0.0], [0.0, 0.1]]))
        match = make_match(3, {0: 1, 1: 2})
        loss = fs.object_concentration_loss(feats, rows,
                                            targets_of(match, rows_params(rows, [1, 2])))
        assert abs(float(loss.data) - (-1.0)) < TOL

    def test_orthogonal_features_zero(self):
        rows = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        feats = Tensor(np.array([[1.0, 0.0], [0.0, 3.0]]))
        match = make_match(2, {0: 1})
        loss = fs.object_concentration_loss(feats, rows,
                                            targets_of(match, rows_params(rows, [1])))
        assert abs(float(loss.data)) < TOL

    def test_hand_mean_of_two_cosines(self):
        # cosines 0.6 and 0.2 -> loss -0.4; row 0 is background filler
        rows = Tensor(np.array([[9.0, 9.0], [1.0, 0.0], [0.0, 1.0]]))
        f1 = np.array([0.6, 0.8]) * 3.0                      # cos with e1 = 0.6
        f2 = np.array([math.sqrt(1 - 0.04), 0.2]) * 0.5      # cos with e2 = 0.2
        feats = Tensor(np.stack([f1, f2]))
        match = make_match(2, {0: 1, 1: 2})
        loss = fs.object_concentration_loss(feats, rows,
                                            targets_of(match, rows_params(rows, [1, 2])))
        assert abs(float(loss.data) - (-0.4)) < TOL

    def test_no_positives_returns_zero_constant(self):
        rows = Tensor(np.eye(2))
        feats = Tensor(np.ones((3, 2)))
        targets = targets_of(make_match(3, {}), rows_params(rows, [1]))
        loss = fs.object_concentration_loss(feats, rows, targets)
        assert float(loss.data) == 0.0
        assert not loss.requires_grad

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((4, 5))
        feats = rng.standard_normal((6, 5))
        match = make_match(6, {0: 2, 3: 1, 5: 3})
        params = rows_params(Tensor(rows), [1, 2, 3])
        a = fs.object_concentration_loss(Tensor(feats), Tensor(rows),
                                         targets_of(match, params))
        b = fs.object_concentration_loss(Tensor(feats * 7.3), Tensor(rows * 0.2),
                                         targets_of(match, params))
        assert abs(float(a.data) - float(b.data)) < TOL

    def test_bounded_by_unit_cosine(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            rows = rng.standard_normal((3, 4))
            feats = rng.standard_normal((5, 4))
            match = make_match(5, {1: 1, 2: 2})
            targets = targets_of(match, rows_params(Tensor(rows), [1, 2]))
            loss = float(fs.object_concentration_loss(Tensor(feats), Tensor(rows),
                                                      targets).data)
            assert -1.0 - TOL <= loss <= 1.0 + TOL

    def test_nonpositive_when_features_align(self):
        # nonnegative cosines (the trained regime) pin the loss into [-1, 0]
        rng = np.random.default_rng(42)
        for _ in range(25):
            rows = rng.uniform(0.1, 1.0, size=(3, 4))
            feats = rng.uniform(0.0, 1.0, size=(5, 4)) + 1e-3
            match = make_match(5, {1: 1, 2: 2})
            targets = targets_of(match, rows_params(Tensor(rows), [1, 2]))
            loss = float(fs.object_concentration_loss(Tensor(feats), Tensor(rows),
                                                      targets).data)
            assert -1.0 - TOL <= loss <= 0.0 + TOL

    def test_zero_norm_feature_rejected(self):
        rows = Tensor(np.eye(2))
        feats = Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            fs.object_concentration_loss(feats, rows,
                                         targets_of(make_match(2, {0: 1}), rows_params(rows, [1])))

    def test_grad_check(self):
        rng = np.random.default_rng(2)
        match = make_match(4, {0: 1, 2: 2})
        params_ids = [1, 2]

        def f(leaves):
            return fs.object_concentration_loss(
                leaves["f"], leaves["w"], targets_of(match, rows_params(leaves["w"], params_ids)))

        report = grad_check(f, {"f": rng.standard_normal((4, 3)),
                                "w": rng.standard_normal((3, 3))})
        assert max(report.values()) < 1e-4


class TestBackgroundConcentration:
    def test_parallel_to_background_maximal(self):
        rows = Tensor(np.array([[2.0, 0.0], [0.0, 1.0]]))
        feats = Tensor(np.array([[0.5, 0.0], [9.0, 0.0], [1.0, 1.0]]))
        loss = fs.background_concentration_loss(feats, rows,
                                                make_match(3, {}, negatives=(0, 1)))
        assert abs(float(loss.data) - 1.0) < TOL

    def test_orthogonal_zero(self):
        rows = Tensor(np.array([[1.0, 0.0]]))
        feats = Tensor(np.array([[0.0, 4.0]]))
        loss = fs.background_concentration_loss(feats, rows,
                                                make_match(1, {}, negatives=(0,)))
        assert abs(float(loss.data)) < TOL

    def test_opposite_cosines_cancel(self):
        # cosines +0.5 and -0.5 -> mean exactly 0
        rows = Tensor(np.array([[1.0, 0.0]]))
        feats = Tensor(np.array([[0.5, math.sqrt(3) / 2],
                                 [-0.5, math.sqrt(3) / 2]]))
        loss = fs.background_concentration_loss(feats, rows,
                                                make_match(2, {}, negatives=(0, 1)))
        assert float(loss.data) == 0.0

    def test_no_negatives_returns_zero(self):
        loss = fs.background_concentration_loss(Tensor(np.ones((2, 2))),
                                                Tensor(np.eye(2)),
                                                make_match(2, {}))
        assert float(loss.data) == 0.0 and not loss.requires_grad

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            rows = rng.standard_normal((2, 4))
            feats = rng.standard_normal((5, 4))
            loss = float(fs.background_concentration_loss(
                Tensor(feats), Tensor(rows),
                make_match(5, {}, negatives=(0, 2, 4))).data)
            assert -1.0 - TOL <= loss <= 1.0 + TOL

    def test_grad_check(self):
        rng = np.random.default_rng(4)
        match = make_match(3, {}, negatives=(1, 2))

        def f(leaves):
            return fs.background_concentration_loss(leaves["f"], leaves["w"],
                                                    match)

        report = grad_check(f, {"f": rng.standard_normal((3, 4)),
                                "w": rng.standard_normal((2, 4))})
        assert max(report.values()) < 1e-4


def outputs_from(logits: np.ndarray, offsets: np.ndarray) -> DetectorOutputs:
    return DetectorOutputs(logits=Tensor(logits, requires_grad=True),
                           offsets=Tensor(offsets, requires_grad=True),
                           features=Tensor(np.zeros((logits.shape[0], 2))))


class TestDistillation:
    def test_identical_outputs_zero(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 4))
        offsets = rng.standard_normal((6, 4))
        loss = fs.distillation_loss(outputs_from(logits, offsets),
                                    Tensor(logits), Tensor(offsets))
        assert float(loss.data) == 0.0

    def test_single_entry_constant_difference(self):
        # one of M logit entries off by c -> c^2 / M
        rng = np.random.default_rng(6)
        base_logits = rng.standard_normal((3, 3))
        offsets = rng.standard_normal((3, 4))
        c = 0.7
        novel_logits = np.concatenate(
            [base_logits, rng.standard_normal((3, 1))], axis=1)
        novel_logits[1, 2] += c
        loss = fs.distillation_loss(outputs_from(novel_logits, offsets),
                                    Tensor(base_logits), Tensor(offsets))
        assert abs(float(loss.data) - c * c / 9.0) < TOL

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        base_logits = rng.standard_normal((4, 3))
        base_offsets = rng.standard_normal((4, 4))
        novel_logits = rng.standard_normal((4, 5))
        novel_offsets = rng.standard_normal((4, 4))

        acc_l = sum((novel_logits[i, j] - base_logits[i, j]) ** 2
                    for i in range(4) for j in range(3)) / 12.0
        acc_r = sum((novel_offsets[i, j] - base_offsets[i, j]) ** 2
                    for i in range(4) for j in range(4)) / 16.0

        loss = fs.distillation_loss(outputs_from(novel_logits, novel_offsets),
                                    Tensor(base_logits), Tensor(base_offsets))
        assert abs(float(loss.data) - (acc_l + acc_r)) < TOL

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            loss = fs.distillation_loss(
                outputs_from(rng.standard_normal((3, 4)),
                             rng.standard_normal((3, 4))),
                Tensor(rng.standard_normal((3, 2))), Tensor(rng.standard_normal((3, 4))))
            assert float(loss.data) >= 0.0

    def test_anchor_count_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        out = outputs_from(rng.standard_normal((3, 4)),
                           rng.standard_normal((3, 4)))
        with pytest.raises(T.ShapeError):
            fs.distillation_loss(out, Tensor(rng.standard_normal((4, 2))),
                                 Tensor(rng.standard_normal((4, 4))))
        with pytest.raises(T.ShapeError):
            fs.distillation_loss(out, Tensor(rng.standard_normal((3, 5))),
                                 Tensor(rng.standard_normal((3, 4))))

    def test_gradient_reaches_only_novel_outputs(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((3, 3))
        offsets = rng.standard_normal((3, 4))
        out = outputs_from(logits + 0.5, offsets)
        with Tape() as tape:
            loss = fs.distillation_loss(out, Tensor(logits), Tensor(offsets))
        backward(tape, loss)
        assert out.logits.grad is not None
        assert out.offsets.grad is not None

    def test_grad_check(self):
        rng = np.random.default_rng(11)
        base_logits = Tensor(rng.standard_normal((3, 2)))
        base_offsets = Tensor(rng.standard_normal((3, 4)))

        def f(leaves):
            out = DetectorOutputs(logits=leaves["lg"], offsets=leaves["off"],
                                  features=Tensor(np.zeros((3, 2))))
            return fs.distillation_loss(out, base_logits, base_offsets)

        report = grad_check(f, {"lg": rng.standard_normal((3, 3)),
                                "off": rng.standard_normal((3, 4))})
        assert max(report.values()) < 1e-4


class TestNovelLoss:
    def _fixed_components(self, monkeypatch, cls_bbox, pos, neg, dist):
        monkeypatch.setattr(
            fs.det, "base_loss",
            lambda *a, **k: (Tensor(sum(cls_bbox)),
                             {"loss_cls": cls_bbox[0], "loss_bbox": cls_bbox[1]}))
        monkeypatch.setattr(fs, "object_concentration_loss",
                            lambda *a, **k: Tensor(pos))
        monkeypatch.setattr(fs, "background_concentration_loss",
                            lambda *a, **k: Tensor(neg))
        monkeypatch.setattr(fs, "distillation_loss",
                            lambda *a, **k: Tensor(dist))

    def _dummy_args(self):
        out = outputs_from(np.zeros((2, 3)), np.zeros((2, 4)))
        anchors = det.generate_anchors(AnchorConfig(map_sizes=((1, 1),),
                                                    scales=(0.5,),
                                                    aspects=(1.0,)))
        params = rows_params(Tensor(np.eye(3)), [1, 2])
        match = make_match(2, {})
        return out, match, det.loss_targets(match, np.zeros((0, 4)), anchors, params), params

    def test_hand_weighted_combination(self, monkeypatch):
        # components (0.4, 0.2, -0.5, 0.3, 0.1), weights (1, 2, 0.4, 0.5)
        # -> 0.4 + 0.2 - 1.0 + 0.12 + 0.05 = -0.23
        self._fixed_components(monkeypatch, (0.4, 0.2), -0.5, 0.3, 0.1)
        out, match, targets, params = self._dummy_args()
        hp = fs.Hyperparams(alpha=1.0, beta=2.0, eta=0.4, gamma=0.5)
        cfg = tiny_config()
        total, parts = fs.novel_loss(out, match, targets, params, cfg, hp,
                                     Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
        assert abs(float(total.data) - (-0.23)) < TOL
        assert abs(parts["loss_conc_pos"] - (-1.0)) < TOL
        assert abs(parts["loss_conc_neg"] - 0.12) < TOL
        assert abs(parts["loss_dist"] - 0.05) < TOL

    def test_all_components_zero(self, monkeypatch):
        self._fixed_components(monkeypatch, (0.0, 0.0), 0.0, 0.0, 0.0)
        out, match, targets, params = self._dummy_args()
        total, _ = fs.novel_loss(out, match, targets, params, tiny_config(),
                                 fs.Hyperparams(), Tensor(np.zeros((2, 3))),
                                 Tensor(np.zeros((2, 4))))
        assert float(total.data) == 0.0

    def test_zero_weights_reduce_to_base_loss_bitwise(self):
        rng = np.random.default_rng(12)
        cfg = tiny_config()
        anchors = det.generate_anchors(cfg.anchors)
        params = det.init_detector_params(cfg, [1, 2], rng)
        scene = toy_scene(rng, cfg, 1)
        match = det.match_anchors(anchors, scene.boxes, [1], cfg.pos_thr)
        out = det.forward(scene.image[None], None, params, cfg).single()
        mined = det.hard_negative_mining(det.background_ce(out.logits.data),
                                         match, cfg.neg_pos_ratio)
        targets = det.loss_targets(match, scene.boxes, anchors, params)

        base_total, base_parts = det.base_loss(out, mined, targets, cfg)
        hp = fs.Hyperparams(beta=0.0, eta=0.0, gamma=0.0)
        total, parts = fs.novel_loss(out, mined, targets, params, cfg, hp)
        assert float(total.data) == float(base_total.data)
        assert parts["loss_cls"] == base_parts["loss_cls"]
        assert parts["loss_bbox"] == base_parts["loss_bbox"]
        assert parts["loss_conc_pos"] == 0.0
        assert parts["loss_dist"] == 0.0

    def test_gamma_without_base_outputs_rejected(self):
        out, match, targets, params = self._dummy_args()
        with pytest.raises(ValueError):
            fs.novel_loss(out, match, targets, params, tiny_config(),
                          fs.Hyperparams(gamma=0.5))

    def test_end_to_end_gradients_finite(self):
        rng = np.random.default_rng(13)
        cfg = tiny_config()
        anchors = det.generate_anchors(cfg.anchors)
        params = det.init_detector_params(cfg, [1, 2], rng)
        base = params.copy()
        scene = toy_scene(rng, cfg, 1)
        match = det.match_anchors(anchors, scene.boxes, [1], cfg.pos_thr)
        base_out = det.forward(scene.image[None], None, base, cfg).single()
        with Tape() as tape:
            out = det.forward(scene.image[None], None, params, cfg).single()
            mined = det.hard_negative_mining(det.background_ce(out.logits.data),
                                             match, cfg.neg_pos_ratio)
            total, _ = fs.novel_loss(out, mined,
                                     det.loss_targets(match, scene.boxes, anchors, params),
                                     params, cfg, fs.Hyperparams(),
                                     Tensor(base_out.logits.data),
                                     Tensor(base_out.offsets.data))
        backward(tape, total)
        for name, t in params.tensors.items():
            assert t.grad is not None, name
            assert np.all(np.isfinite(t.grad)), name
        # the frozen ancestor never accumulates gradient
        assert all(t.grad is None for t in base.tensors.values())


class TestHyperparams:
    def test_defaults(self):
        hp = fs.Hyperparams()
        assert (hp.alpha, hp.beta, hp.eta, hp.gamma) == (1.0, 2.0, 0.4, 0.5)
        assert hp.epsilon == math.e
        assert hp.base_multiplier == 3

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            fs.Hyperparams(beta=-0.1)
        with pytest.raises(ValueError):
            fs.Hyperparams(epsilon=0.0)


class TestImprintRow:
    def test_single_feature_normalized(self):
        f = np.array([3.0, 4.0])
        row = fs.imprint_row([f])
        assert np.allclose(row, [0.6, 0.8], atol=TOL)

    def test_identical_features_keep_direction(self):
        f = np.array([1.0, 2.0, 2.0])
        row = fs.imprint_row([f * 5, f * 0.1])
        assert np.allclose(row, f / 3.0, atol=TOL)

    def test_orthogonal_features_average(self):
        f1 = np.array([5.0, 0.0])
        f2 = np.array([0.0, 3.0])
        row = fs.imprint_row([f1, f2])
        assert np.allclose(row, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=TOL)

    def test_unit_norm_always(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            feats = [rng.standard_normal(6) for _ in range(rng.integers(1, 5))]
            assert abs(np.linalg.norm(fs.imprint_row(feats)) - 1.0) < 1e-12

    def test_zero_feature_rejected(self):
        with pytest.raises(fs.ImprintError):
            fs.imprint_row([np.zeros(3)])

    def test_cancellation_rejected(self):
        f = np.array([1.0, 0.0])
        with pytest.raises(fs.ImprintError):
            fs.imprint_row([f, -f])


class TestInitNovelDetector:
    def _base(self, rng, cfg):
        return det.init_detector_params(cfg, [1, 2], rng)

    def _support_one(self, scene, cid):
        return fs.SupportSet(scenes=[scene], novel_instances={cid: [(0, 0)]},
                             base_instances={}, k=1)

    def test_one_shot_row_equals_normalized_feature(self):
        rng = np.random.default_rng(15)
        cfg = tiny_config()
        base = self._base(rng, cfg)
        scene = toy_scene(rng, cfg, 3)
        novel = fs.init_novel_detector(base, self._support_one(scene, 3), cfg)

        anchors = det.generate_anchors(cfg.anchors)
        out = det.forward(scene.image[None], None, base, cfg)
        ious = det.iou_matrix(anchors, scene.boxes)[:, 0]
        f = out.features.data[0, int(np.argmax(ious))]
        expected = f / np.linalg.norm(f)
        assert np.array_equal(novel.cls_rows.data[-1], expected)

    def test_everything_else_copied_verbatim(self):
        rng = np.random.default_rng(16)
        cfg = tiny_config()
        base = self._base(rng, cfg)
        scene = toy_scene(rng, cfg, 3)
        novel = fs.init_novel_detector(base, self._support_one(scene, 3), cfg)

        for name, t in base.tensors.items():
            if name == "cls.rows":
                assert np.array_equal(novel.tensors[name].data[:len(t.data)],
                                      t.data)
            else:
                assert np.array_equal(novel.tensors[name].data, t.data)
        assert novel.class_ids == [1, 2, 3]
        assert novel.cls_rows.data.shape[0] == base.cls_rows.data.shape[0] + 1

    def test_imprinted_rows_are_unit_vectors(self):
        rng = np.random.default_rng(17)
        cfg = tiny_config()
        base = self._base(rng, cfg)
        support = fs.SupportSet(
            scenes=[toy_scene(rng, cfg, 3), toy_scene(rng, cfg, 4)],
            novel_instances={3: [(0, 0)], 4: [(1, 0)]},
            base_instances={}, k=1)
        novel = fs.init_novel_detector(base, support, cfg)
        for row in novel.cls_rows.data[-2:]:
            assert abs(np.linalg.norm(row) - 1.0) < 1e-12

    def test_no_anchor_overlap_rejected(self):
        rng = np.random.default_rng(18)
        cfg = tiny_config()
        base = self._base(rng, cfg)
        scene = toy_scene(rng, cfg, 3, box=(5.0, 5.0, 0.05, 0.05))
        with pytest.raises(fs.ImprintError):
            fs.init_novel_detector(base, self._support_one(scene, 3), cfg)

    def test_existing_class_rejected(self):
        rng = np.random.default_rng(19)
        cfg = tiny_config()
        base = self._base(rng, cfg)
        scene = toy_scene(rng, cfg, 2)
        with pytest.raises(ValueError):
            fs.init_novel_detector(base, self._support_one(scene, 2), cfg)

    def test_base_params_untouched(self):
        rng = np.random.default_rng(20)
        cfg = tiny_config()
        base = self._base(rng, cfg)
        snapshot = {k: v.data.copy() for k, v in base.tensors.items()}
        scene = toy_scene(rng, cfg, 3)
        fs.init_novel_detector(base, self._support_one(scene, 3), cfg)
        for name, arr in snapshot.items():
            assert np.array_equal(base.tensors[name].data, arr)
        assert base.class_ids == [1, 2]


@pytest.fixture(scope="module")
def scene_pool():
    cfg = sd.GenConfig()
    return [sd.generate_scene(np.random.SeedSequence([91, i]), cfg)
            for i in range(80)]


class TestSampleSupportSet:
    def test_exact_counts_k1(self, scene_pool):
        split = sd.make_split(1)
        support = fs.sample_support_set(scene_pool, split, k=1, seed=5)
        counts = support.counts()
        for cid in split.novel:
            assert counts[cid] == 1
        for cid in split.base:
            assert counts[cid] == 3

    def test_exact_counts_k2(self, scene_pool):
        split = sd.make_split(2)
        support = fs.sample_support_set(scene_pool, split, k=2, seed=5)
        counts = support.counts()
        assert sum(counts[c] for c in split.novel) == 2 * 2
        assert sum(counts[c] for c in split.base) == 6 * 6

    def test_visibility_restricted_to_samples(self, scene_pool):
        split = sd.make_split(1)
        support = fs.sample_support_set(scene_pool, split, k=2, seed=6)
        sampled = {ref for refs in support.novel_instances.values()
                   for ref in refs}
        sampled |= {ref for refs in support.base_instances.values()
                    for ref in refs}
        visible = {(s_i, o_i)
                   for s_i, scene in enumerate(support.scenes)
                   for o_i in np.flatnonzero(scene.annotated).tolist()}
        assert visible == sampled

    def test_annotated_class_matches_reference(self, scene_pool):
        split = sd.make_split(1)
        support = fs.sample_support_set(scene_pool, split, k=1, seed=7)
        for cid, refs in {**support.novel_instances,
                          **support.base_instances}.items():
            for s_i, o_i in refs:
                assert support.scenes[s_i].labels[o_i] == cid
                assert support.scenes[s_i].annotated[o_i]

    def test_same_seed_identical(self, scene_pool):
        split = sd.make_split(1)
        a = fs.sample_support_set(scene_pool, split, k=2, seed=8)
        b = fs.sample_support_set(scene_pool, split, k=2, seed=8)
        assert a.novel_instances == b.novel_instances
        assert a.base_instances == b.base_instances
        assert [s.annotated.tolist() for s in a.scenes] == \
            [s.annotated.tolist() for s in b.scenes]

    def test_insufficient_instances_rejected(self, scene_pool):
        split = sd.make_split(1)
        with pytest.raises(fs.SupportError):
            fs.sample_support_set(scene_pool[:2], split, k=50, seed=9)

    def test_support_scenes_share_pool_arrays(self, scene_pool):
        """Only the annotated flags are new; the pool scene is not changed."""
        split = sd.make_split(1)
        before = [s.annotated.copy() for s in scene_pool]
        support = fs.sample_support_set(scene_pool, split, k=1, seed=7)
        by_image = {id(s.image): s for s in scene_pool}
        for scene in support.scenes:
            source = by_image[id(scene.image)]
            for name in ("boxes", "labels", "masks"):
                assert getattr(scene, name) is getattr(source, name)
            assert scene.annotated is not source.annotated
        assert all(np.array_equal(s.annotated, a) for s, a in zip(scene_pool, before))

    def test_k_must_be_positive(self, scene_pool):
        with pytest.raises(ValueError):
            fs.sample_support_set(scene_pool, sd.make_split(1), k=0, seed=1)


def small_train_setup(seed=21, n_scenes=3):
    rng = np.random.default_rng(seed)
    cfg = tiny_config()
    scenes = [toy_scene(rng, cfg, 1 + (i % 2)) for i in range(n_scenes)]
    return cfg, scenes


def hand_rolled_training(params, scenes, cfg, tc, seed, maps=None, hp=None,
                         base_outputs=None):
    """Training with fs._run_epochs's shuffling and batching, one tape per
    scene, and the per-tensor reference step; returns the number of steps
    whose clip engaged. Every step rebuilds what the package builds once per
    scene, with the per-call oracles: the gate from the scene's saliency map
    (``maps``, or None), and the match, positives, classifier rows and box
    targets. The loss is the detection loss, or with ``hp`` the novel-stage
    objective over the scenes' frozen (logits, offsets) ``base_outputs``."""
    anchors = det.generate_anchors(cfg.anchors)
    order = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    velocity, clipped = {}, 0
    for _ in range(tc.epochs):
        perm = order.permutation(len(scenes))
        for start in range(0, len(perm), tc.batch_size):
            batch = perm[start:start + tc.batch_size]
            params.zero_grads()
            for idx in batch:
                idx = int(idx)
                scene = scenes[idx]
                boxes = scene.boxes[scene.annotated]
                match = det.match_anchors(anchors, boxes, scene.labels[scene.annotated],
                                          cfg.pos_thr)
                with Tape() as tape:
                    out = forward_per_call(scene.image[None],
                                           None if maps is None else maps[idx][None],
                                           params, cfg).single()
                    mined = det.hard_negative_mining(
                        det.background_ce(out.logits.data), match, cfg.neg_pos_ratio)
                    if hp is None:
                        loss, _ = base_loss_per_call(out, mined, boxes, anchors, params, cfg)
                    else:
                        loss, _ = novel_loss_per_call(
                            out, mined, boxes, anchors, params, cfg, hp,
                            *(base_outputs[idx] if base_outputs else (None, None)))
                backward(tape, loss)
            clipped += sgd_step_per_tensor(params.tensors, velocity, len(batch),
                                           tc.clip_norm, tc.lr, tc.momentum,
                                           tc.weight_decay)
    return clipped


class TestTraining:
    def test_zero_epochs_leaves_parameters_at_init(self):
        cfg, scenes = small_train_setup()
        tc = fs.TrainConfig(epochs=0)
        params, metrics = fs.train_base(scenes, cfg, tc, [1, 2], seed=3)
        expected = det.init_detector_params(
            cfg, [1, 2], np.random.default_rng(np.random.SeedSequence([3, 1])))
        assert metrics == []
        for name, t in expected.tensors.items():
            assert np.array_equal(params.tensors[name].data, t.data)

    def test_single_scene_loss_trends_down(self):
        cfg, scenes = small_train_setup(n_scenes=1)
        tc = fs.TrainConfig(epochs=50, lr=0.01)
        _, metrics = fs.train_base(scenes, cfg, tc, [1, 2], seed=4)
        first = np.mean([m["loss_total"] for m in metrics[:10]])
        last = np.mean([m["loss_total"] for m in metrics[-10:]])
        assert last < first * 0.5

    def test_deterministic_given_seed(self):
        cfg, scenes = small_train_setup()
        tc = fs.TrainConfig(epochs=3, lr=0.005)
        p1, m1 = fs.train_base(scenes, cfg, tc, [1, 2], seed=5)
        p2, m2 = fs.train_base(scenes, cfg, tc, [1, 2], seed=5)
        assert m1 == m2
        for name in p1.tensors:
            assert np.array_equal(p1.tensors[name].data, p2.tensors[name].data)

    def test_metric_rows_have_fixed_keys(self):
        cfg, scenes = small_train_setup()
        tc = fs.TrainConfig(epochs=3, lr=0.005, lr_decay_epochs=(2,),
                            lr_decay=0.1)
        _, metrics = fs.train_base(scenes, cfg, tc, [1, 2], seed=6)
        for row in metrics:
            assert tuple(row.keys()) == fs.METRIC_KEYS
        assert metrics[0]["lr"] == 0.005
        assert abs(metrics[2]["lr"] - 0.0005) < TOL
        assert all(m["stage"] == "base" for m in metrics)

    def test_divergence_raises_with_diagnostic(self):
        # runaway weight decay grows parameters exponentially past float64
        cfg, scenes = small_train_setup()
        tc = fs.TrainConfig(epochs=80, lr=10.0, weight_decay=100.0,
                            clip_norm=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(fs.DivergenceError, match="epoch"):
                fs.train_base(scenes, cfg, tc, [1, 2], seed=7)

    def test_overflow_at_the_starting_parameters_is_no_divergence(self):
        """A base that overflows from the very parameters training starts at
        raises NonFiniteError, not DivergenceError: the input overflows,
        training did not diverge."""
        rng = np.random.default_rng(24)
        cfg = tiny_config()
        base = det.init_detector_params(cfg, [1, 2], rng)
        for s in range(2):  # weights and offsets of 1e308 overflow when squared
            base.tensors[f"head.{s}.reg.bias"].data[:] = 1e308
        support = fs.SupportSet(scenes=[toy_scene(rng, cfg, 3), toy_scene(rng, cfg, 1)],
                                novel_instances={3: [(0, 0)]}, base_instances={}, k=1)
        tc = fs.TrainConfig(epochs=1)
        with pytest.raises(T.NonFiniteError):
            fs.train_novel(base, support, cfg, tc, fs.Hyperparams(), seed=1)

    def test_step_non_finite_from_the_start_is_no_divergence(self):
        """The epoch loop re-runs a failing scene's step from the parameters
        training started at; non-finite there too, the NonFiniteError is
        raised as it is."""
        cfg, scenes = small_train_setup()
        params = det.init_detector_params(cfg, [1, 2], np.random.default_rng(0))
        caches = fs._prepare(scenes, None, cfg, det.generate_anchors(cfg.anchors), params)

        def loss_fn(out, mined, cache):
            return T.scale(T.sum_all(out.offsets), math.inf), {}

        with pytest.raises(T.NonFiniteError):
            fs._run_epochs(scenes, caches, params, cfg, fs.TrainConfig(epochs=1),
                           "base", 0, loss_fn)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_clip_rescales_gradients_whose_squares_overflow(self, scale):
        grads = [np.array([3.0, 0.0]) * scale, np.array([-4.0]) * scale]
        with np.errstate(over="ignore"):  # as in training, which detects overflow
            norm = fs._grad_norm(grads)
        assert norm == pytest.approx(5.0 * scale, rel=1e-15)
        clipped = np.concatenate(grads) * (0.5 / norm)  # the epoch loop's clip
        np.testing.assert_allclose(clipped, [0.3, 0.0, -0.4], rtol=1e-15)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("max_norm", [0.0, 5.0])
    def test_clip_rejects_non_finite_gradients(self, bad, max_norm):
        """A gradient that holds a non-finite value next to a huge one stops
        the step in the norm, with the clip on or off; the same step from
        the starting parameters fails too, so it is no divergence."""
        cfg, scenes = small_train_setup(n_scenes=1)
        params = det.init_detector_params(cfg, [1, 2], np.random.default_rng(0))
        caches = fs._prepare(scenes, None, cfg, det.generate_anchors(cfg.anchors), params)

        def loss_fn(out, mined, cache):
            def poisoned(g):
                grad = np.zeros(out.offsets.shape)
                grad.flat[:3] = (1e200, bad, 1.0)
                return (grad,)
            return T._record("poison", (out.offsets,), np.array(0.0), poisoned), {}

        with pytest.raises(T.NonFiniteError, match="gradients are not finite"):
            fs._run_epochs(scenes, caches, params, cfg,
                           fs.TrainConfig(epochs=1, clip_norm=max_norm), "base", 0,
                           loss_fn)

    def test_default_architecture_steps_match_slice_loop_col2im(self, monkeypatch):
        """Three base steps of the default architecture end on the same
        parameter bytes with the slice-loop col2im: a change to conv2d's
        scatter order fails here, without a benchmark run."""
        dcfg = cli.detector_config(cli.DEFAULTS)
        split = sd.make_split(int(cli.DEFAULTS["data.split"]))
        scenes = sd.build_benchmark(2, split, sizes=(3, 1, 1)).base_train
        maps = {id(s): cli.saliency_provider(cli.DEFAULTS, dcfg)(s) for s in scenes}
        tc = dataclasses.replace(cli.train_config(cli.DEFAULTS, "base"), epochs=1)

        def three_steps():
            params, _ = fs.train_base(scenes, dcfg, tc, sorted(split.base), seed=2,
                                      saliency_provider=lambda s: maps[id(s)])
            return params

        new = three_steps()
        monkeypatch.setattr(T, "_col2im", col2im_slices)
        old = three_steps()
        init = det.init_detector_params(dcfg, sorted(split.base),
                                        np.random.default_rng(np.random.SeedSequence([2, 1])))
        assert not np.array_equal(new.tensors["backbone.1.kernel"].data,
                                  init.tensors["backbone.1.kernel"].data)
        for name, t in new.tensors.items():
            assert t.data.tobytes() == old.tensors[name].data.tobytes(), name

    def test_novel_zero_weights_is_plain_finetune_bitwise(self):
        rng = np.random.default_rng(22)
        cfg = tiny_config()
        base = det.init_detector_params(cfg, [1, 2], rng)
        support = fs.SupportSet(
            scenes=[toy_scene(rng, cfg, 3), toy_scene(rng, cfg, 4)],
            novel_instances={3: [(0, 0)], 4: [(1, 0)]},
            base_instances={}, k=1)
        tc = fs.TrainConfig(epochs=4, batch_size=1, lr=0.005)
        seed = 11
        hp = fs.Hyperparams(beta=0.0, eta=0.0, gamma=0.0)
        trained, _ = fs.train_novel(base, support, cfg, tc, hp, seed=seed)

        # hand-rolled fine-tune: same init, same shuffling, base loss only
        params = fs.init_novel_detector(base, support, cfg)
        hand_rolled_training(params, support.scenes, cfg, tc, seed)
        for name in trained.tensors:
            assert np.array_equal(trained.tensors[name].data,
                                  params.tensors[name].data), name

    def test_batched_base_steps_match_per_tensor_loop_bitwise(self):
        """Base training at batch size 3, with weight decay and a clip that
        engages, ends on the bytes of the per-tensor reference step, last
        short batch included."""
        cfg, scenes = small_train_setup(n_scenes=4)
        tc = fs.TrainConfig(epochs=3, batch_size=3, lr=0.005, weight_decay=0.01,
                            clip_norm=60.0)
        seed = 13
        trained, _ = fs.train_base(scenes, cfg, tc, [1, 2], seed=seed)

        params = det.init_detector_params(
            cfg, [1, 2], np.random.default_rng(np.random.SeedSequence([seed, 1])))
        clipped = hand_rolled_training(params, scenes, cfg, tc, seed)
        assert 0 < clipped < 2 * tc.epochs  # the clip engaged, and not on every step
        for name in trained.tensors:
            assert trained.tensors[name].data.tobytes() == \
                params.tensors[name].data.tobytes(), name

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("bottom_up", [True, False])
    def test_stages_match_per_call_oracles_bitwise(self, batch_size, bottom_up):
        """Both stages, every novel term weighted (gamma > 0), saliency maps
        pooled from the image resolution: the gates and loss targets built
        once per scene end on the bytes of rebuilding them, the gate's
        pooling included, on every step."""
        rng = np.random.default_rng(25)
        cfg = tiny_config(use_bottom_up=bottom_up)
        boxes = [(0.5, 0.5, 0.4, 0.4), (0.35, 0.6, 0.5, 0.3), (0.6, 0.4, 0.3, 0.6)]
        scenes = [toy_scene(rng, cfg, 1 + i % 2, boxes[i % 3]) for i in range(5)]
        support = fs.SupportSet(
            scenes=[toy_scene(rng, cfg, c, boxes[i % 3]) for i, c in enumerate((3, 1, 4, 3))],
            novel_instances={3: [(0, 0), (3, 0)], 4: [(2, 0)]},
            base_instances={1: [(1, 0)]}, k=1)
        maps = {id(s): att.pool_saliency(s.image[0], *det.fusion_size(cfg))
                for s in scenes + support.scenes}

        def provider(scene):
            return maps[id(scene)]

        tc = fs.TrainConfig(epochs=3, batch_size=batch_size, lr=0.005, weight_decay=0.01)
        hp = fs.Hyperparams(beta=2.0, eta=0.4, gamma=0.5)
        seed = 17

        base, _ = fs.train_base(scenes, cfg, tc, [1, 2], seed=seed, saliency_provider=provider)
        novel, _ = fs.train_novel(base, support, cfg, tc, hp, seed=seed,
                                  saliency_provider=provider)

        params = det.init_detector_params(
            cfg, [1, 2], np.random.default_rng(np.random.SeedSequence([seed, 1])))
        hand_rolled_training(params, scenes, cfg, tc, seed,
                             maps=[maps[id(s)] for s in scenes])
        for name, t in base.tensors.items():
            assert t.data.tobytes() == params.tensors[name].data.tobytes(), name

        params = fs.init_novel_detector(base, support, cfg, provider)
        support_maps = [maps[id(s)] for s in support.scenes]
        frozen = [forward_one(s.image, m, base, cfg)[:2]
                  for s, m in zip(support.scenes, support_maps)]
        hand_rolled_training(params, support.scenes, cfg, tc, seed, maps=support_maps,
                             hp=hp, base_outputs=frozen)
        for name, t in novel.tensors.items():
            assert t.data.tobytes() == params.tensors[name].data.tobytes(), name
        assert not np.array_equal(novel.cls_rows.data[:3], base.cls_rows.data)

    def test_novel_metrics_report_all_terms(self):
        rng = np.random.default_rng(23)
        cfg = tiny_config()
        base = det.init_detector_params(cfg, [1, 2], rng)
        support = fs.SupportSet(
            scenes=[toy_scene(rng, cfg, 3)],
            novel_instances={3: [(0, 0)]}, base_instances={}, k=1)
        tc = fs.TrainConfig(epochs=2, lr=0.001)
        _, metrics = fs.train_novel(base, support, cfg, tc, fs.Hyperparams(),
                                    seed=12)
        assert all(m["stage"] == "novel" for m in metrics)
        # identical params at start: distillation no larger than rounding noise
        assert abs(metrics[0]["loss_dist"]) < 1e-20
        assert metrics[0]["loss_conc_pos"] != 0.0

    def test_novel_alpha_weights_the_novel_box_term(self):
        rng = np.random.default_rng(23)
        cfg = tiny_config()
        base = det.init_detector_params(cfg, [1, 2], rng)
        support = fs.SupportSet(
            scenes=[toy_scene(rng, cfg, 3)],
            novel_instances={3: [(0, 0)]}, base_instances={}, k=1)
        tc = fs.TrainConfig(epochs=2, lr=0.001)
        # detector.alpha weights the base stage only; hp.alpha the novel one
        _, with_box = fs.train_novel(base, support, tiny_config(alpha=0.0), tc,
                                     fs.Hyperparams(), seed=12)
        _, without = fs.train_novel(base, support, cfg, tc,
                                    fs.Hyperparams(alpha=0.0), seed=12)
        assert all(m["loss_bbox"] > 0.0 for m in with_box)
        assert all(m["loss_bbox"] == 0.0 for m in without)


class TestSaliencyCalls:
    def test_train_novel_asks_the_provider_once_per_support_scene(self):
        """Imprinting reads the maps the training caches hold, so a scene
        with a novel instance is not asked for twice; the imprinted rows
        are those a direct init_novel_detector call gives."""
        rng = np.random.default_rng(31)
        cfg = tiny_config()
        base = det.init_detector_params(cfg, [1, 2], rng)
        support = fs.SupportSet(
            scenes=[toy_scene(rng, cfg, 3), toy_scene(rng, cfg, 1),
                    toy_scene(rng, cfg, 4), toy_scene(rng, cfg, 3)],
            novel_instances={3: [(0, 0), (3, 0)], 4: [(2, 0)]},
            base_instances={1: [(1, 0)]}, k=1)
        calls = []

        def provider(scene):
            calls.append(scene)
            return att.pool_saliency(scene.image.mean(axis=0), *det.fusion_size(cfg))

        params, _ = fs.train_novel(base, support, cfg, fs.TrainConfig(epochs=0),
                                   fs.Hyperparams(), seed=5, saliency_provider=provider)
        assert len(calls) == len(support.scenes)
        assert {id(s) for s in calls} == {id(s) for s in support.scenes}
        direct = fs.init_novel_detector(base, support, cfg, provider)
        for name, t in direct.tensors.items():
            assert params.tensors[name].data.tobytes() == t.data.tobytes(), name


class TestSaliencyProvider:
    def test_shape_and_range(self):
        cfg = DetectorConfig()
        scene = sd.generate_scene(np.random.SeedSequence([95, 0]))
        provider = cli.saliency_provider(dict(cli.DEFAULTS), cfg)
        s = provider(scene)
        assert s.shape == (16, 16)
        assert s.min() >= 0.0 and s.max() <= 1.0
