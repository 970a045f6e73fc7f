"""End-to-end acceptance checks for the package.

The module-scoped ``matrix`` fixture retrains the detector from scratch over
five seeds under the tuned recipe and takes several minutes on one core;
every other test here finishes in seconds. Its tests carry the ``matrix``
marker: ``pytest -m "not matrix"`` runs the whole suite without them.

The matrix checks pool their statistic over all of ``SEEDS``. A trained base
depends on the floating-point platform (CPU features and BLAS kernels change
its bits), and so do per-seed outcomes such as whether a given support
instance ranks its own class first. No seed subset may therefore be chosen by
its result, and no such per-instance outcome is asserted.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from fewdet import attention as A
from fewdet import cli
from fewdet import detector as det
from fewdet import gradcheck
from fewdet import fewshot as fs
from fewdet import synthdata as sd
from fewdet.attention import pool_saliency
from fewdet.saliency import oracle_saliency
from fewdet.tensor import Tensor

SEEDS = (7, 11, 14, 15, 16)

TINY = ["--set", "seed=3", "--set", "data.base_train=4",
        "--set", "data.novel_pool=30", "--set", "data.test=4"]


def _oracle(scene):
    # ground-truth saliency at the fusion stage's 16x16 resolution
    return pool_saliency(oracle_saliency(scene), 16, 16)


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

class TestGradientCorrectness:

    def test_every_op_and_loss_passes_finite_differences(self):
        t0 = time.monotonic()
        report = cli.gradcheck_suite(seed=0, points=10)
        elapsed = time.monotonic() - t0

        names = [name for name, _ in report]
        assert len(names) == len(set(names))
        # elementary ops plus all five composite losses must be covered
        assert {"base_loss", "object_concentration_loss",
                "background_concentration_loss", "distillation_loss",
                "novel_loss"} <= set(names)
        assert len(names) >= 25

        failures = {name: err for name, err in report if not err < gradcheck.TOLERANCE}
        assert not failures
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# attention identities
# ---------------------------------------------------------------------------

class TestTopdownNormalization:

    def test_attention_map_sums_to_one_on_100_random_inputs(self):
        rng = _rng(41)
        for _ in range(100):
            c = int(rng.integers(1, 9))
            h, w = int(rng.integers(1, 11)), int(rng.integers(1, 11))
            feats = Tensor((rng.standard_normal((c, h, w)) * rng.uniform(0.05, 30))[None])
            w_k = Tensor(rng.standard_normal((1, c, 1, 1)))
            total = A.topdown_map(feats, w_k).data.sum()
            assert abs(total - 1.0) <= 1e-12


class TestResidualIdentity:

    def test_zero_up_projection_returns_input_bitwise(self):
        rng = _rng(42)
        for _ in range(10):
            c = int(rng.integers(2, 12))
            p = A.init_gc_params(rng, c, bottleneck_ratio=2)
            # everything except w_v2 randomized: the residual must still win
            p["ln_gain"].data = rng.uniform(0.5, 2.0, p["ln_gain"].data.shape)
            p["ln_bias"].data = rng.standard_normal(p["ln_bias"].data.shape)
            feats = Tensor((rng.standard_normal((c, 5, 3)) * rng.uniform(0.1, 10))[None])
            out = A.gc_block(feats, **p)[0]
            assert np.array_equal(out.data, feats.data)


class TestFusionNeutrality:

    def test_eps_e_zero_saliency_passes_features_through_bitwise(self):
        rng = _rng(43)
        for _ in range(10):
            z = Tensor((rng.standard_normal((6, 8, 8)) * rng.uniform(0.1, 40))[None])
            fused = A.fuse_bottom_up(z, A.bottom_up_gate(np.zeros((1, 8, 8)), math.e))
            assert np.array_equal(fused.data, z.data)

    def test_eps_e_constant_saliency_is_equally_neutral(self):
        # constant maps normalize to zero, so any flat input is a no-op
        rng = _rng(44)
        z = Tensor(rng.standard_normal((4, 8, 8))[None])
        gate = A.bottom_up_gate(pool_saliency(np.full((32, 32), 0.7), 8, 8)[None], math.e)
        fused = A.fuse_bottom_up(z, gate)
        assert np.array_equal(fused.data, z.data)

    def test_eps_one_zeroes_features_at_zero_saliency_pixels(self):
        rng = _rng(45)
        for _ in range(10):
            z = Tensor(rng.standard_normal((5, 4, 4))[None])
            s = rng.uniform(0.3, 1.0, (4, 4))
            s[2, 1] = 0.0
            gate = A.bottom_up_gate(pool_saliency(s, 4, 4)[None], epsilon=1.0)
            fused = A.fuse_bottom_up(z, gate)
            assert np.all(fused.data[0, :, 2, 1] == 0.0)
            assert np.all(fused.data[0, :, 0, 0] != 0.0)


# ---------------------------------------------------------------------------
# loss reductions
# ---------------------------------------------------------------------------

def _random_instance(rng):
    """A small random detector, scene, and matched anchors for loss checks."""
    cfg = det.DetectorConfig(
        image_size=16, backbone_channels=(4, 6, 8, 10), feat_dim=6,
        bottleneck_ratio=2,
        anchors=det.AnchorConfig(map_sizes=((2, 2), (1, 1)), scales=(0.3, 0.6)))
    class_ids = [1, 2, 3]
    params = det.init_detector_params(cfg, class_ids, rng)
    image = rng.uniform(0.0, 1.0, (3, 16, 16))
    saliency = rng.uniform(0.0, 1.0, (4, 4))
    anchors = det.generate_anchors(cfg.anchors)
    n_gt = int(rng.integers(1, 4))
    gt_boxes = np.array([[rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75),
                          rng.uniform(0.15, 0.45), rng.uniform(0.15, 0.45)]
                         for _ in range(n_gt)])
    gt_labels = [int(rng.integers(1, 4)) for _ in range(n_gt)]
    match = det.match_anchors(anchors, gt_boxes, gt_labels, cfg.pos_thr)
    gate = det.saliency_gate(pool_saliency(saliency, *det.fusion_size(cfg))[None], cfg)
    out = det.forward(image[None], gate, params, cfg).single()
    mined = det.hard_negative_mining(det.background_ce(out.logits.data), match,
                                     cfg.neg_pos_ratio)
    return cfg, det.loss_targets(match, gt_boxes, anchors, params), mined, params, out


class TestReductionIdentities:

    def test_novel_loss_with_zero_weights_is_base_loss_on_50_instances(self):
        hp0 = fs.Hyperparams(beta=0.0, eta=0.0, gamma=0.0)
        for trial in range(50):
            cfg, targets, mined, params, out = _random_instance(_rng(46, trial))
            base_total, base_parts = det.base_loss(out, mined, targets, cfg)
            novel_total, novel_parts = fs.novel_loss(out, mined, targets, params, cfg, hp0)
            assert float(novel_total.data) == float(base_total.data)
            assert novel_parts["loss_cls"] == base_parts["loss_cls"]
            assert novel_parts["loss_bbox"] == base_parts["loss_bbox"]
            assert novel_parts["loss_conc_pos"] == 0.0
            assert novel_parts["loss_conc_neg"] == 0.0
            assert novel_parts["loss_dist"] == 0.0

    def test_distillation_of_identical_outputs_is_exactly_zero(self):
        for trial in range(5):
            out = _random_instance(_rng(47, trial))[-1]
            loss = fs.distillation_loss(out, Tensor(out.logits.data.copy()),
                                        Tensor(out.offsets.data.copy()))
            assert float(loss.data) == 0.0


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

class TestOracleEquivalence:

    def test_nms_matches_brute_force_on_200_random_instances(self):
        rng = _rng(48)
        iou_choices = (0.3, 0.45, 0.6)
        score_choices = (0.0, 0.2, 0.5)
        topk_choices = (None, 3, 5)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            boxes = np.column_stack([
                rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n),
                rng.uniform(0.05, 0.5, n), rng.uniform(0.05, 0.5, n)])
            scores = rng.uniform(0.0, 1.0, n)
            # coarse scores on half the instances force ties
            if rng.integers(2):
                scores = np.round(scores, 1)
            if n >= 2 and rng.integers(2):
                boxes[0] = boxes[n - 1]  # exact duplicate must be suppressed
            iou_thr = iou_choices[int(rng.integers(3))]
            score_thr = score_choices[int(rng.integers(3))]
            top_k = topk_choices[int(rng.integers(3))]
            got = det.nms(boxes, scores, iou_thr, score_thr, top_k)
            want = oracles.brute_force_nms(boxes, scores, iou_thr, score_thr, top_k)
            assert got == want

    def test_eleven_point_ap_hand_case(self):
        # hits at ranks 1,3,5 of five detections against four ground truths:
        # precision envelope is 1 for recall <= .25, 2/3 at .5, 3/5 at .75,
        # zero beyond, so AP = (3*1 + 3*(2/3) + 2*(3/5)) / 11 = 31/55
        hits = [(0.9, True), (0.8, False), (0.7, True), (0.6, False), (0.5, True)]
        ap = det.eleven_point_ap(hits, n_gt=4)
        assert abs(ap - 31 / 55) <= 1e-12
        assert abs(oracles.eleven_point_ap([h for _, h in hits], 4) - ap) <= 1e-12

    def test_gc_block_matches_scalar_loop_oracle(self):
        rng = _rng(49)
        for _ in range(20):
            c = int(rng.integers(2, 9))
            h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            p = A.init_gc_params(rng, c, bottleneck_ratio=2)
            p["w_v2"].data = rng.standard_normal(p["w_v2"].data.shape) * 0.5
            p["ln_gain"].data = rng.uniform(0.5, 2.0, p["ln_gain"].data.shape)
            p["ln_bias"].data = rng.standard_normal(p["ln_bias"].data.shape) * 0.1
            feats = rng.standard_normal((c, h, w))
            got = A.gc_block(Tensor(feats[None]), **p)[0].data[0]
            want = oracles.gc_block_loops(
                feats, p["w_k"].data[0, :, 0, 0], p["w_v1"].data[:, :, 0, 0],
                p["ln_gain"].data, p["ln_bias"].data, p["w_v2"].data[:, :, 0, 0])
            assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class TestDeterminism:

    def test_train_base_rerun_from_snapshot_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = [*TINY, "--set", "base.epochs=2", "--set", "data.novel_pool=4"]
        assert cli.main(["train-base", "--out", str(a), *args]) == 0
        assert cli.main(["train-base", "--out", str(b),
                         "--config", str(a / "config.json")]) == 0
        for name in ("metrics.jsonl", "base.ckpt.json", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_train_novel_rerun_from_snapshot_is_byte_identical(self, tmp_path):
        base = tmp_path / "base"
        args = [*TINY, "--set", "base.epochs=1"]
        assert cli.main(["train-base", "--out", str(base), *args]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        nargs = [*TINY, "--set", "novel.epochs=1", "--set", "novel.k=1"]
        assert cli.main(["train-novel", "--out", str(a),
                         "--base-ckpt", str(base / "base.ckpt.json"), *nargs]) == 0
        assert cli.main(["train-novel", "--out", str(b),
                         "--base-ckpt", str(base / "base.ckpt.json"),
                         "--config", str(a / "config.json")]) == 0
        for name in ("metrics.jsonl", "novel.ckpt.json", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_train_base_is_byte_identical_across_blas_thread_counts(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=pythonpath,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "fewdet.cli", "train-base",
                            "--out", str(out), "--set", "data.base_train=30",
                            "--set", "data.test=20", "--set", "base.epochs=3"],
                           env=env, check=True, capture_output=True, timeout=300)
            outs.append(out)
        for name in ("base.ckpt.json", "metrics.jsonl", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# trained-model properties: imprinting, concentration, ablations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def matrix():
    """Full two-stage pipeline over five seeds under the tuned recipe.

    Per seed: a base detector with and without saliency fusion, then novel
    fine-tuning in four configurations (full model, no fusion, no
    distillation, no object concentration), all evaluated on 200 held-out
    scenes with oracle saliency.
    """
    split = sd.make_split(1)
    cfg_bu = det.DetectorConfig()
    cfg_td = dataclasses.replace(cfg_bu, use_bottom_up=False)
    tc_base = fs.TrainConfig(epochs=60, lr=0.01, lr_decay_epochs=(45,),
                             lr_decay=0.3)
    tc_novel = fs.TrainConfig(epochs=40, lr=0.002, lr_decay_epochs=(30,),
                              lr_decay=0.3)
    t0 = time.monotonic()
    rows = []
    for seed in SEEDS:
        bench = sd.build_benchmark(seed=seed, split=split, sizes=(200, 60, 200))
        base_td, _ = fs.train_base(bench.base_train, cfg_td, tc_base,
                                   sorted(split.base), seed=seed)
        base_bu, _ = fs.train_base(bench.base_train, cfg_bu, tc_base,
                                   sorted(split.base), seed=seed,
                                   saliency_provider=_oracle)
        support = fs.sample_support_set(bench.novel_pool, split, k=2, seed=seed)
        novel_bu, _ = fs.train_novel(base_bu, support, cfg_bu, tc_novel,
                                     fs.Hyperparams(), seed=seed,
                                     saliency_provider=_oracle)
        novel_td, _ = fs.train_novel(base_td, support, cfg_td, tc_novel,
                                     fs.Hyperparams(), seed=seed)
        novel_g0, _ = fs.train_novel(base_bu, support, cfg_bu, tc_novel,
                                     fs.Hyperparams(gamma=0.0), seed=seed,
                                     saliency_provider=_oracle)
        novel_b0, _ = fs.train_novel(base_bu, support, cfg_bu, tc_novel,
                                     fs.Hyperparams(beta=0.0), seed=seed,
                                     saliency_provider=_oracle)
        r_bu = det.evaluate_detector(novel_bu, cfg_bu, bench.test,
                                     saliency_provider=_oracle,
                                     novel_ids=split.novel)
        r_td = det.evaluate_detector(novel_td, cfg_td, bench.test,
                                     novel_ids=split.novel)
        r_g0 = det.evaluate_detector(novel_g0, cfg_bu, bench.test,
                                     saliency_provider=_oracle,
                                     novel_ids=split.novel)
        rows.append({
            "seed": seed,
            "base_params": base_bu,
            "support": support,
            "map_novel_bu": r_bu["map_novel"],
            "map_novel_td": r_td["map_novel"],
            "map_base_distilled": r_bu["map_base"],
            "map_base_plain": r_g0["map_base"],
            "cos_beta2": oracles.mean_positive_cosine(novel_bu, cfg_bu, bench.test,
                                                 saliency_provider=_oracle),
            "cos_beta0": oracles.mean_positive_cosine(novel_b0, cfg_bu, bench.test,
                                                 saliency_provider=_oracle),
        })
    return {"rows": rows, "cfg": cfg_bu, "elapsed": time.monotonic() - t0}


@pytest.mark.matrix
class TestMatrixImprinting:

    def test_support_instances_rank_own_class_first(self, matrix):
        # Whether a k=2 support instance ranks its own class first follows the
        # bits of the trained base, and a pooled margin cannot fail: with two
        # novel classes a class's two margins sum to |f1 + f2|(1 - r_a.r_b),
        # which is >= 0 for any base. What holds on every platform is the
        # imprinting identity: the own row is (f1 + f2)/|f1 + f2| for unit
        # support features f1, f2, so its cosine to either of them is
        # sqrt((1 + cos(f1, f2))/2).
        cfg = matrix["cfg"]
        anchors = det.generate_anchors(cfg.anchors)
        identity_err = {}
        for row in matrix["rows"]:
            base, support = row["base_params"], row["support"]
            novel = fs.init_novel_detector(base, support, cfg,
                                           saliency_provider=_oracle)
            novel_ids = sorted(support.novel_instances)
            rows_hat = novel.cls_rows.data / np.linalg.norm(
                novel.cls_rows.data, axis=1, keepdims=True)
            # the construction must actually produce distinct class rows
            for i, a in enumerate(novel_ids):
                for b in novel_ids[i + 1:]:
                    assert not np.array_equal(rows_hat[novel.row_of(a)],
                                              rows_hat[novel.row_of(b)])
            err = 0.0
            for cid in novel_ids:
                feats = []
                for scene_pos, obj_idx in support.novel_instances[cid]:
                    scene = support.scenes[scene_pos]
                    features = oracles.forward_one(scene.image, _oracle(scene), base,
                                                   cfg)[2]
                    ious = det.iou_matrix(anchors, scene.boxes[obj_idx:obj_idx + 1])[:, 0]
                    feat = features[int(np.argmax(ious))]
                    feats.append(feat / np.linalg.norm(feat))
                assert len(feats) == 2
                own_row = rows_hat[novel.row_of(cid)]
                want = math.sqrt((1.0 + float(feats[0] @ feats[1])) / 2.0)
                err = max(err, *(abs(float(f @ own_row) - want) for f in feats))
            identity_err[row["seed"]] = err
        assert max(identity_err.values()) <= 1e-12, identity_err


@pytest.mark.matrix
class TestMatrixConcentration:

    def test_object_concentration_raises_mean_positive_cosine(self, matrix):
        with_term = np.mean([r["cos_beta2"] for r in matrix["rows"]])
        without = np.mean([r["cos_beta0"] for r in matrix["rows"]])
        assert with_term > without


@pytest.mark.matrix
class TestMatrixAblations:

    def test_saliency_fusion_does_not_hurt_novel_map(self, matrix):
        fused = np.mean([r["map_novel_bu"] for r in matrix["rows"]])
        plain = np.mean([r["map_novel_td"] for r in matrix["rows"]])
        assert fused >= plain

    def test_distillation_preserves_base_map(self, matrix):
        distilled = np.mean([r["map_base_distilled"] for r in matrix["rows"]])
        plain = np.mean([r["map_base_plain"] for r in matrix["rows"]])
        assert distilled > plain

    def test_matrix_fits_runtime_budget(self, matrix):
        assert matrix["elapsed"] < 1800.0
