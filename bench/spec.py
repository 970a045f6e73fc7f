"""What the benchmark reports, and what each per-layer number should move.

The workload names and the metric names and units live in BENCHMARK.json
at the repository root; this module reads them from there and adds what that
file cannot hold: for each per-layer metric the end-to-end metrics and
workloads it should move, and the predicted no-change pairs. A workload's
operation ("item") is a training step on ``train_base``, an evaluated test
scene on ``eval``, a sweep cell on ``novel_sweep`` and a gradcheck point on
``gradcheck``. Per-layer values are per item of the measured phase, except
those whose unit ends in ``/setup``, which are per set-up.
"""

import json
from pathlib import Path

MANIFEST = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])
# (name, unit) of each metric, in BENCHMARK.json order
END_TO_END = tuple((m["name"], m["unit"]) for m in MANIFEST["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in MANIFEST["per_layer"])

# the end-to-end throughput metric under the name a user of each workload
# would give it; items_per_s is the same number in items per second
ITEM_RATE_ALIAS = {
    "train_base": ("train_steps_per_s", 1.0, "1/s"),
    "eval": ("eval_scenes_per_s", 1.0, "1/s"),
    "novel_sweep": ("sweep_cells_per_min", 60.0, "1/min"),
    "gradcheck": ("gradcheck_points_per_s", 1.0, "1/s"),
}

# the 23 public tape ops of fewdet.tensor
TAPE_OPS = ("add", "sub", "mul", "neg", "scale", "relu", "log_shift", "square",
            "smooth_l1", "sum_all", "mean_all", "sum_axes", "reshape",
            "transpose", "concat", "gather", "dot", "matmul", "l2_normalize",
            "softmax_spatial", "softmax_cross_entropy", "layer_norm", "conv2d")

# tape ops a detector training step records (forward, base loss, backward)
STEP_OPS = ("add", "sub", "mul", "scale", "relu", "smooth_l1", "sum_all",
            "sum_axes", "reshape", "transpose", "concat", "gather", "matmul",
            "l2_normalize", "softmax_spatial", "softmax_cross_entropy",
            "layer_norm", "conv2d")

TRAIN = ("items_per_s", "train_base")
EVAL = ("items_per_s", "eval")
SWEEP = ("items_per_s", "novel_sweep")
GRAD = ("items_per_s", "gradcheck")
SETUP = [("setup_s", w) for w in ("train_base", "eval", "novel_sweep")]


def _moves() -> dict:
    """Per-layer metric -> [(end-to-end metric, workload) it should move]."""
    moves = {}
    for op in TAPE_OPS:
        moves[f"tensor.{op}.calls"] = moves[f"tensor.{op}.s"] = (
            ([TRAIN] if op in STEP_OPS else []) + [GRAD])
    for name in ("tensor.ops.calls", "tensor.ops.s"):
        moves[name] = [TRAIN, GRAD]
    for name in ("tensor.backward.calls", "tensor.backward.s",
                 "tensor.backward.nodes", "tensor.sgd_momentum_step.calls",
                 "tensor.sgd_momentum_step.s"):
        moves[name] = [TRAIN, SWEEP]
    for name in ("tensor.grad_check.calls", "tensor.grad_check.s",
                 "tensor.grad_check_sampled.calls", "tensor.grad_check_sampled.s",
                 "cli.gradcheck_suite.self_s"):
        moves[name] = [GRAD]
    for fn in ("gc_block", "topdown_map", "fuse_bottom_up"):
        moves[f"attention.{fn}.calls"] = moves[f"attention.{fn}.self_s"] = [TRAIN]
    for name in ("attention.pool_saliency.calls", "attention.pool_saliency.s",
                 "saliency.bms_saliency.calls", "saliency.bms_saliency.s",
                 "saliency.distinct_ratio", "detector.nms.calls",
                 "detector.nms.s", "detector.nms.candidates", "detector.nms.kept",
                 "detector.evaluate_map.s"):
        moves[name] = [EVAL, SWEEP]
    for name in ("saliency.bms_saliency.setup_calls",
                 "saliency.bms_saliency.setup_s"):
        moves[name] = [("setup_s", "train_base")]
    for fn, fn_moves in (("forward", [TRAIN, EVAL, SWEEP]),
                         ("detect", [EVAL, SWEEP]),
                         ("evaluate_detector", [EVAL, SWEEP]),
                         ("base_loss", [TRAIN, SWEEP])):
        moves[f"detector.{fn}.calls"] = moves[f"detector.{fn}.self_s"] = fn_moves
    for name in ("detector.hard_negative_mining.s", "detector.background_ce.s",
                 "detector.match_anchors.calls", "detector.match_anchors.s"):
        moves[name] = [TRAIN, SWEEP]
    moves["fewshot.train_base.self_s"] = [TRAIN]
    for name in ("fewshot.train_novel.self_s", "fewshot.init_novel_detector.self_s",
                 "fewshot.novel_loss.self_s", "fewshot.object_concentration_loss.s",
                 "fewshot.background_concentration_loss.s",
                 "fewshot.distillation_loss.s", "fewshot.sample_support_set.s"):
        moves[name] = [SWEEP]
    for name in ("synthdata.build_benchmark.s", "synthdata.generate_scene.calls",
                 "synthdata.generate_scene.s"):
        moves[name] = SETUP
    # traced over untraced time per item; moves nothing, reads > 0 everywhere
    moves["trace.overhead_ratio"] = []
    return moves


MOVES = _moves()

# Predicted to stay flat: (per-layer metric, workload, value it keeps).
# train_base never runs inference or saliency in its measured phase, so an
# inference or saliency change cannot move it; eval never shows a scene
# twice, so a saliency cache finds nothing to reuse there.
NO_CHANGE = (
    ("detector.detect.calls", "train_base", 0.0),
    ("detector.nms.calls", "train_base", 0.0),
    ("saliency.bms_saliency.calls", "train_base", 0.0),
    ("saliency.distinct_ratio", "eval", 1.0),
)
