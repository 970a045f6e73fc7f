"""The gradient gate of ``fewdet gradcheck``: finite-difference checks of
every tape op, and of the five composite losses through a micro detector.

A composite probe moves one coordinate of one parameter, so it changes
nothing the detector computed before the stage (``detector.STAGES``) that
reads that parameter. Each point runs the stages once at the unperturbed
point and keeps the state before every stage. The checker hands a check's
probes over at once, and the probes of one stage's leaves form a group:
stage k runs once per probe, and the stages after it once over the stack
of those states, as ``forward`` gives each scene of a stack its own bits.
The taped pass of every check runs the full ``detector.forward``.
"""

from __future__ import annotations

import numpy as np

from . import attention as att
from . import detector as det
from . import fewshot as fs
from . import tensor as T

# the largest relative error a check may report and still pass
TOLERANCE = 1e-4


def _away_from(rng: np.random.Generator, shape, gap: float = 0.1,
               spread: float = 1.0) -> np.ndarray:
    """Values with |v| >= gap, so finite differences cannot cross a kink."""
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return sign * rng.uniform(gap, gap + spread, shape)


def _elementary_checks(rng: np.random.Generator) -> list[tuple[str, float]]:
    h = 1e-4

    def scalarized(name, build, **leaves):
        w_cache = {}

        def f(ts):
            out = build(ts)
            w = w_cache.get(out.data.shape)
            if w is None:
                w = w_cache[out.data.shape] = T.Tensor(rng.standard_normal(out.data.shape))
            return T.sum_all(T.mul(out, w))

        report = T.grad_check(f, leaves, h=h)
        return name, max(report.values())

    c = float(rng.uniform(0.5, 2.0))
    eps = float(rng.uniform(0.5, 3.0))
    a34 = rng.standard_normal((3, 4))
    idx = np.array([0, 2, 2, 4])
    targets = rng.integers(0, 3, size=7)
    checks = [
        scalarized("add", lambda ts: T.add(ts["a"], ts["b"]),
                   a=a34, b=rng.standard_normal((3, 4))),
        scalarized("sub", lambda ts: T.sub(ts["a"], ts["b"]),
                   a=rng.standard_normal((2, 5)), b=rng.standard_normal((2, 5))),
        scalarized("mul_broadcast", lambda ts: T.mul(ts["a"], ts["b"]),
                   a=a34, b=rng.standard_normal(4)),
        scalarized("neg", lambda ts: T.neg(ts["a"]), a=rng.standard_normal(6)),
        scalarized("scale", lambda ts: T.scale(ts["a"], c),
                   a=rng.standard_normal((3, 3))),
        scalarized("relu", lambda ts: T.relu(ts["a"]),
                   a=_away_from(rng, (4, 4))),
        scalarized("log_shift", lambda ts: T.log_shift(ts["a"], eps),
                   a=rng.uniform(0.1, 2.0, (3, 3))),
        scalarized("square", lambda ts: T.square(ts["a"]),
                   a=rng.standard_normal((2, 3))),
        scalarized("smooth_l1", lambda ts: T.smooth_l1(ts["a"], ts["b"]),
                   a=a34, b=a34 - _away_from(rng, (3, 4), gap=0.1, spread=0.7)),
        scalarized("sum_all", lambda ts: T.sum_all(ts["a"]),
                   a=rng.standard_normal(7)),
        scalarized("mean_all", lambda ts: T.mean_all(ts["a"]),
                   a=rng.standard_normal((3, 5))),
        scalarized("sum_axes", lambda ts: T.sum_axes(ts["a"], (0, 2)),
                   a=rng.standard_normal((2, 3, 4))),
        scalarized("reshape", lambda ts: T.reshape(ts["a"], (3, 4)),
                   a=rng.standard_normal((2, 6))),
        scalarized("transpose", lambda ts: T.transpose(ts["a"], (2, 0, 1)),
                   a=rng.standard_normal((2, 3, 4))),
        scalarized("concat", lambda ts: T.concat([ts["a"], ts["b"]], axis=0),
                   a=rng.standard_normal((2, 3)), b=rng.standard_normal((4, 3))),
        scalarized("gather", lambda ts: T.gather(ts["a"], idx, axis=0),
                   a=rng.standard_normal((5, 4))),
        scalarized("dot", lambda ts: T.dot(ts["a"], ts["b"]),
                   a=rng.standard_normal(6), b=rng.standard_normal(6)),
        scalarized("matmul", lambda ts: T.matmul(ts["a"], ts["b"]),
                   a=rng.standard_normal((3, 4)), b=rng.standard_normal((4, 5))),
        scalarized("l2_normalize", lambda ts: T.l2_normalize(ts["a"], axis=-1),
                   a=rng.standard_normal((4, 5)) + _away_from(rng, (4, 5), 0.2)),
        scalarized("softmax_spatial", lambda ts: T.softmax_spatial(ts["a"]),
                   a=rng.standard_normal((5, 5))),
        scalarized("softmax_cross_entropy",
                   lambda ts: T.softmax_cross_entropy(ts["a"], targets),
                   a=rng.standard_normal((7, 3))),
        scalarized("layer_norm",
                   lambda ts: T.layer_norm(ts["x"], ts["gain"], ts["bias"]),
                   x=rng.standard_normal(8), gain=rng.uniform(0.5, 1.5, 8),
                   bias=rng.standard_normal(8)),
        scalarized("conv2d",
                   lambda ts: T.conv2d(ts["x"], ts["k"], ts["b"],
                                       stride=1, padding=1),
                   x=rng.standard_normal((2, 5, 5)).reshape(1, 2, 5, 5),
                   k=rng.standard_normal((3, 2, 3, 3)) * 0.5,
                   b=rng.standard_normal(3)),
    ]
    return checks


def _micro_setup(rng: np.random.Generator):
    """A detector small enough for sampled finite differences.

    Returns the config, the mined anchors, the loss targets, the point,
    ``outputs_of(ts)`` (the run and single-scene outputs of the full
    forward at leaves ``ts``, for the taped pass) and ``probe_of(loss)``,
    the checker's batched probe of ``loss(run, outputs)``."""
    cfg = det.DetectorConfig(
        image_size=16, backbone_channels=(4, 6, 8, 10), feat_dim=6,
        bottleneck_ratio=2,
        anchors=det.AnchorConfig(map_sizes=((2, 2), (1, 1)), scales=(0.3, 0.6)))
    class_ids = [1, 2, 3]
    params = det.init_detector_params(cfg, class_ids, rng)
    # a nonzero up-projection, so that the losses read every leaf of the GC block
    w = params.tensors["gc.w_v2"].data
    w[...] = rng.standard_normal(w.shape) * 0.5
    image = rng.uniform(0.0, 1.0, (3, 16, 16))
    saliency = rng.uniform(0.0, 1.0, (4, 4))
    anchors = det.generate_anchors(cfg.anchors)
    gt_boxes = np.array([[0.45, 0.5, 0.5, 0.55], [0.8, 0.75, 0.3, 0.4]])
    gt_labels = [1, 3]
    match = det.match_anchors(anchors, gt_boxes, gt_labels, cfg.pos_thr)
    # the gate and the targets hold for every probe
    gate = det.saliency_gate(att.pool_saliency(saliency, *det.fusion_size(cfg))[None], cfg)
    targets = det.loss_targets(match, gt_boxes, anchors, params)

    # the unperturbed point's state before every stage, and its outputs
    before = [det.forward_state(image[None], gate, cfg)]
    for _, stage in det.STAGES:
        before.append(stage(before[-1], params, cfg))
    outputs = before.pop()
    mined = det.hard_negative_mining(det.background_ce(outputs.single().logits.data),
                                     match, cfg.neg_pos_ratio)
    point = {name: t.data for name, t in params.tensors.items()}
    stage_of = {name: _stage_of(name) for name in point}

    def outputs_of(ts):
        run = det.DetectorParams(dict(ts), class_ids)
        return run, det.forward(image[None], gate, run, cfg).single()

    def probe_of(loss):
        def probe(moves):
            runs, groups = [], {}
            for m, (name, idx, value) in enumerate(moves):
                moved = T.Tensor(point[name])
                moved.data[idx] = value
                runs.append(det.DetectorParams({**params.tensors, name: moved}, class_ids))
                groups.setdefault(stage_of[name], []).append(m)
            outs = {}
            for k, group in groups.items():
                outs.update(zip(group, _stage_group(k, [runs[m] for m in group],
                                                    before, params, cfg)))
            return [float(loss(run, outs[m]).data) for m, run in enumerate(runs)]
        return probe

    return cfg, mined, targets, point, outputs_of, probe_of


def _stage_of(name: str) -> int:
    """The index in ``detector.STAGES`` of the stage that reads parameter
    ``name``."""
    return next(k for k, (prefix, _) in enumerate(det.STAGES) if name.startswith(prefix))


# the index in ``detector.STAGES`` of head 0's stage; head s's stage follows it by s
_FIRST_HEAD = next(k for k, (prefix, _) in enumerate(det.STAGES) if prefix.startswith("head."))


def _stage_group(k: int, runs: list[det.DetectorParams], before: list[det.ForwardState],
                 params: det.DetectorParams, cfg: det.DetectorConfig
                 ) -> list[det.DetectorOutputs]:
    """Each run's single-scene outputs, where every run's leaves differ
    from ``params`` in stage k's alone, from the point's states ``before``
    each stage.

    Stage k runs once per run; the stages after it run once over the stack
    of those states, with the point's parameters. The point's head maps
    ride along, so a head whose input was made before stage k keeps its
    map and does not rerun. A ``cls.rows`` group (k = the tail) runs the
    tail once per run."""
    tail = len(det.STAGES) - 1
    start = before[k]._replace(maps=before[tail].maps)
    stage = det.STAGES[k][1]
    if k == tail:
        return [stage(start, run, cfg).single() for run in runs]
    state = _stack([stage(start, run, cfg) for run in runs])
    unmoved = len(before[k].head_inputs)  # the head inputs made before stage k
    for j in range(k + 1, tail):
        if j < _FIRST_HEAD or j - _FIRST_HEAD >= unmoved:
            state = det.STAGES[j][1](state, params, cfg)
    out = det.STAGES[tail][1](state, params, cfg)
    fields = (out.logits, out.offsets, out.features, out.topdown)
    return [det.DetectorOutputs(*(None if t is None else T.Tensor(t.data[m]) for t in fields))
            for m in range(len(runs))]


def _stack(states: list[det.ForwardState]) -> det.ForwardState:
    """The single-scene states as one stack along the batch axis."""
    def stack(values):
        if isinstance(values[0], tuple):
            return tuple(stack(v) for v in zip(*values))
        return None if values[0] is None else T.concat(values, axis=0)
    return det.ForwardState(*(stack(field) for field in zip(*states)))


def _composite_checks(rng: np.random.Generator) -> list[tuple[str, float]]:
    cfg, mined, targets, point, outputs_of, probe_of = _micro_setup(rng)
    n_anchors = len(mined.positive_class)
    base_logits = T.Tensor(rng.standard_normal((n_anchors, 3)))
    base_offsets = T.Tensor(rng.standard_normal((n_anchors, 4)))
    hp = fs.Hyperparams()

    def check(name, loss):
        report = T.grad_check_sampled(lambda ts: loss(*outputs_of(ts)), point, h=1e-4,
                                      samples_per_leaf=2, rng=rng, probe=probe_of(loss))
        return name, max(report.values())

    def base(run, out):
        return det.base_loss(out, mined, targets, cfg)[0]

    def obj(run, out):
        return fs.object_concentration_loss(out.features, run.cls_rows, targets)

    def bg(run, out):
        return fs.background_concentration_loss(out.features, run.cls_rows, mined)

    def dist(run, out):
        return fs.distillation_loss(out, base_logits, base_offsets)

    def novel(run, out):
        return fs.novel_loss(out, mined, targets, run, cfg, hp,
                             base_logits=base_logits,
                             base_offsets=base_offsets)[0]

    return [check("base_loss", base),
            check("object_concentration_loss", obj),
            check("background_concentration_loss", bg),
            check("distillation_loss", dist),
            check("novel_loss", novel)]


def gradcheck_suite(seed: int = 0, points: int = 10) -> list[tuple[str, float]]:
    """Finite-difference verification of every op and composite loss.

    Each check reports its maximum relative error over ``points`` random
    evaluation points; composite losses probe a coordinate sample of every
    parameter tensor instead of the full weight vector. A check passes when
    its error is below ``TOLERANCE``.
    """
    worst: dict[str, float] = {}
    order: list[str] = []
    for p in range(points):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11, p]))
        for name, err in _elementary_checks(rng) + _composite_checks(rng):
            if name not in worst:
                worst[name] = err
                order.append(name)
            else:
                worst[name] = max(worst[name], err)
    return [(name, worst[name]) for name in order]
