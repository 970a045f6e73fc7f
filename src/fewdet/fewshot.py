"""The novel-training stage: concentration and distillation losses, classifier
imprinting, support-set sampling, and the two training drivers.

Training is deliberately plain: SGD with momentum, per-epoch shuffling from a
seeded generator, gradients accumulated over a batch of independent tapes.
Everything is deterministic given (data, config, seed).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import detector as det
from . import tensor as T
# pool_saliency and bms_saliency are unused here; bench/selftest.py checks
# that its tracer rebinds these two ``from ... import`` bindings
from .attention import pool_saliency  # noqa: F401
from .detector import DetectorConfig, DetectorOutputs, DetectorParams, MatchResult
from .saliency import bms_saliency  # noqa: F401
from .synthdata import Scene, SplitSpec, class_instance_index
from .tensor import Tape, Tensor, backward


class ImprintError(Exception):
    """A support instance could not be tied to any anchor (best IoU zero)."""


class SupportError(Exception):
    """The dataset cannot supply the requested support counts."""


class DivergenceError(Exception):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class Hyperparams:
    alpha: float = 1.0
    beta: float = 2.0
    eta: float = 0.4
    gamma: float = 0.5
    epsilon: float = math.e
    k_shots: int = 2
    base_multiplier: int = 3

    def __post_init__(self):
        for name in ("alpha", "beta", "eta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 12
    batch_size: int = 1
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_decay_epochs: tuple[int, ...] = ()
    lr_decay: float = 0.1
    clip_norm: float = 5.0  # global gradient-norm cap per step; 0 disables


# ---------------------------------------------------------------------------
# loss terms specific to the novel stage
# ---------------------------------------------------------------------------

def object_concentration_loss(features: Tensor, rows: Tensor, match: MatchResult,
                              params: DetectorParams) -> Tensor:
    """Pull positive-anchor features toward their class rows.

    The negated mean cosine similarity over positive anchors; 0 when there
    are none. Features and rows are normalized inside the loss, so it is
    invariant to positive rescaling of either.
    """
    pos_idx = np.where(match.positive_class > 0)[0]
    if pos_idx.size == 0:
        return Tensor(0.0)
    row_idx = np.array([params.row_of(int(c))
                        for c in match.positive_class[pos_idx]], dtype=np.int64)
    fhat = T.l2_normalize(T.gather(features, pos_idx), axis=1)
    what = T.l2_normalize(T.gather(rows, row_idx), axis=1)
    return T.scale(T.sum_all(T.mul(fhat, what)), -1.0 / pos_idx.size)


def background_concentration_loss(features: Tensor, rows: Tensor,
                                  match: MatchResult) -> Tensor:
    """Push mined hard-negative features away from the background row.

    The mean cosine similarity between hard negatives and row 0, penalized
    with positive sign; 0 when no anchors were mined.
    """
    neg_idx = np.where(match.hard_negative)[0]
    if neg_idx.size == 0:
        return Tensor(0.0)
    fhat = T.l2_normalize(T.gather(features, neg_idx), axis=1)
    w0 = T.l2_normalize(T.gather(rows, np.zeros(neg_idx.size, dtype=np.int64)),
                        axis=1)
    return T.scale(T.sum_all(T.mul(fhat, w0)), 1.0 / neg_idx.size)


def distillation_loss(outputs: DetectorOutputs, base_logits: np.ndarray,
                      base_offsets: np.ndarray) -> Tensor:
    """Anchor the novel detector to its frozen ancestor's outputs.

    Mean squared difference over the logit columns the base detector also
    has (background + base categories) plus mean squared difference over all
    four regression outputs, equally weighted. The base outputs are plain
    arrays: nothing flows back into the frozen detector.
    """
    n, r_base = base_logits.shape
    if outputs.logits.data.shape[0] != n or outputs.offsets.data.shape != base_offsets.shape:
        raise T.ShapeError("novel and base outputs describe different anchor sets")
    if outputs.logits.data.shape[1] < r_base:
        raise T.ShapeError("novel detector has fewer classifier columns than base")
    cols = range(r_base)
    l_logit = T.mean_all(T.square(T.sub(T.gather(outputs.logits, cols, axis=1),
                                        Tensor(base_logits))))
    l_reg = T.mean_all(T.square(T.sub(outputs.offsets, Tensor(base_offsets))))
    return T.add(l_logit, l_reg)


def novel_loss(outputs: DetectorOutputs, match: MatchResult, gt_boxes: np.ndarray,
               anchors: np.ndarray, params: DetectorParams, cfg: DetectorConfig,
               hp: Hyperparams, base_logits: np.ndarray | None = None,
               base_offsets: np.ndarray | None = None
               ) -> tuple[Tensor, dict[str, float]]:
    """Full novel-stage objective: detection loss, its box term weighted by
    hp.alpha, plus weighted concentration and distillation terms. Zero-weight
    terms are skipped outright, so with beta = eta = gamma = 0 the returned
    tensor is the detection loss itself.
    """
    total, parts = det.base_loss(outputs, match, gt_boxes, anchors, params, cfg,
                                 alpha=hp.alpha)
    parts.update({"loss_conc_pos": 0.0, "loss_conc_neg": 0.0, "loss_dist": 0.0})
    if hp.beta != 0.0:
        l_pos = object_concentration_loss(outputs.features, params.cls_rows,
                                          match, params)
        total = T.add(total, T.scale(l_pos, hp.beta))
        parts["loss_conc_pos"] = hp.beta * float(l_pos.data)
    if hp.eta != 0.0:
        l_neg = background_concentration_loss(outputs.features, params.cls_rows,
                                              match)
        total = T.add(total, T.scale(l_neg, hp.eta))
        parts["loss_conc_neg"] = hp.eta * float(l_neg.data)
    if hp.gamma != 0.0:
        if base_logits is None or base_offsets is None:
            raise ValueError("gamma > 0 requires frozen base outputs")
        l_dist = distillation_loss(outputs, base_logits, base_offsets)
        total = T.add(total, T.scale(l_dist, hp.gamma))
        parts["loss_dist"] = hp.gamma * float(l_dist.data)
    return total, parts


# ---------------------------------------------------------------------------
# support sampling and imprinting
# ---------------------------------------------------------------------------

@dataclass
class SupportSet:
    """Scenes with visibility restricted to the sampled instances.

    Annotated flags are rewritten so that exactly k instances per novel class
    and base_multiplier * k per base class are visible; everything else in
    those images is present but unannotated.
    """

    scenes: list[Scene]
    novel_instances: dict[int, list[tuple[int, int]]]  # class -> (scene, obj)
    base_instances: dict[int, list[tuple[int, int]]]
    k: int

    def counts(self) -> dict[int, int]:
        out = {c: len(v) for c, v in self.novel_instances.items()}
        out.update({c: len(v) for c, v in self.base_instances.items()})
        return out


def sample_support_set(pool: list[Scene], split: SplitSpec, k: int, seed: int,
                       base_multiplier: int = 3) -> SupportSet:
    """Draw k instances per novel class and base_multiplier*k per base class,
    deterministically from the seed, and hide every other annotation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    index = class_instance_index(pool)
    rng = np.random.default_rng(np.random.SeedSequence([seed, split.split_id, 3]))

    wanted: list[tuple[int, int]] = []  # (class, count), novel first
    for cid in sorted(split.novel):
        wanted.append((cid, k))
    for cid in sorted(split.base):
        wanted.append((cid, base_multiplier * k))

    chosen: dict[int, list[tuple[int, int]]] = {}
    for cid, count in wanted:
        candidates = index.get(cid, [])
        if len(candidates) < count:
            raise SupportError(f"class {cid} has {len(candidates)} instances, "
                               f"need {count}")
        pick = rng.choice(len(candidates), size=count, replace=False)
        chosen[cid] = [candidates[i] for i in sorted(pick)]

    visible: dict[int, set[int]] = {}
    for refs in chosen.values():
        for s_i, o_i in refs:
            visible.setdefault(s_i, set()).add(o_i)

    scene_order = sorted(visible)
    position = {s_i: pos for pos, s_i in enumerate(scene_order)}
    scenes = []
    for s_i in scene_order:
        annotated = np.zeros(len(pool[s_i].labels), dtype=bool)
        annotated[sorted(visible[s_i])] = True
        # the pool scene's image, box, label and mask arrays, shared
        scenes.append(dataclasses.replace(pool[s_i], annotated=annotated))

    def remap(refs):
        return [(position[s_i], o_i) for s_i, o_i in refs]

    return SupportSet(
        scenes=scenes,
        novel_instances={c: remap(chosen[c]) for c in sorted(split.novel)},
        base_instances={c: remap(chosen[c]) for c in sorted(split.base)},
        k=k)


def imprint_row(features: list[np.ndarray]) -> np.ndarray:
    """Normalized mean of normalized support features: the imprinted weight.

    One shot returns the normalized feature itself; renormalizing it would
    only add rounding noise.
    """
    unit = []
    for f in features:
        norm = np.linalg.norm(f)
        if norm < 1e-30:
            raise ImprintError("support feature has zero norm")
        unit.append(f / norm)
    if len(unit) == 1:
        return unit[0]
    mean = np.mean(unit, axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-30:
        raise ImprintError("support features cancel out; cannot imprint")
    return mean / norm


def init_novel_detector(base_params: DetectorParams, support: SupportSet,
                        cfg: DetectorConfig,
                        saliency_provider=None) -> DetectorParams:
    """Novel detector from a trained base: copy every parameter, then append
    one imprinted classifier row per novel class.

    Each support instance contributes the penultimate feature of its
    best-IoU anchor; a best IoU of zero is an error. Backbone, attention,
    heads, and regression convs transfer verbatim; base classifier rows keep
    their positions, so base-category logits stay column-aligned.
    """
    params = base_params.copy()
    anchors = det.generate_anchors(cfg.anchors)
    novel = sorted(support.novel_instances)
    for cid in novel:
        if cid in params.class_ids:
            raise ValueError(f"class {cid} already present in the base detector")
    # one forward per support scene that holds a novel instance
    scene_pos = sorted({pos for cid in novel for pos, _ in support.novel_instances[cid]})
    saliency_of = ((lambda i: saliency_provider(support.scenes[scene_pos[i]]))
                   if saliency_provider else None)
    outputs = det.forward_chunks([support.scenes[pos].image for pos in scene_pos],
                                 saliency_of, base_params, cfg)
    features_of = {pos: features for pos, (_, _, features) in zip(scene_pos, outputs)}
    # column o: every anchor's IoU with the scene's object o
    ious_of = {pos: det.iou_matrix(anchors, support.scenes[pos].boxes)
               for pos in scene_pos}
    new_rows = [params.cls_rows.data]
    for cid in novel:
        feats = []
        for pos, obj_idx in support.novel_instances[cid]:
            ious = ious_of[pos][:, obj_idx]
            best = int(np.argmax(ious))
            if ious[best] == 0.0:
                raise ImprintError(
                    f"support instance of class {cid} overlaps no anchor")
            feats.append(features_of[pos][best])
        new_rows.append(imprint_row(feats)[None, :])
        params.class_ids.append(cid)
    params.tensors["cls.rows"] = Tensor(np.concatenate(new_rows, axis=0),
                                        requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# training drivers
# ---------------------------------------------------------------------------

METRIC_KEYS = ("stage", "epoch", "loss_total", "loss_cls", "loss_bbox",
               "loss_conc_pos", "loss_conc_neg", "loss_dist", "lr")


def _metric_row(stage: str, epoch: int, sums: dict[str, float], count: int,
                lr: float) -> dict:
    fixed = {"stage": stage, "epoch": epoch, "lr": lr}
    return {key: fixed[key] if key in fixed else sums.get(key, 0.0) / max(count, 1)
            for key in METRIC_KEYS}


@dataclass
class _SceneCache:
    saliency: np.ndarray | None
    gt_boxes: np.ndarray  # [G,4], the scene's annotated boxes
    match: MatchResult
    base_logits: np.ndarray | None = None
    base_offsets: np.ndarray | None = None


def _prepare(scenes: list[Scene], cfg: DetectorConfig, anchors: np.ndarray,
             saliency_provider) -> list[_SceneCache]:
    caches = []
    for scene in scenes:
        boxes = scene.boxes[scene.annotated]
        caches.append(_SceneCache(
            saliency=saliency_provider(scene) if saliency_provider else None,
            gt_boxes=boxes,
            match=det.match_anchors(anchors, boxes, scene.labels[scene.annotated],
                                    cfg.pos_thr)))
    return caches


def _joint_norm(arrays) -> float:
    total = 0.0  # array by array, in order: training follows these bits
    for a in arrays:
        total += float((a ** 2).sum())
    return math.sqrt(total)


def _clip_gradients(params: DetectorParams, max_norm: float) -> None:
    """Rescale all gradients so their joint L2 norm is at most max_norm; 0
    leaves them as they are. Non-finite gradients are a NonFiniteError.

    The first epochs produce violent steps that can push whole backbone
    stages into the dead half of the ReLU, from which no gradient returns;
    a norm cap keeps the early trajectory inside the recoverable region.
    """
    grads = [t.grad for t in params.tensors.values() if t.grad is not None]
    norm = _joint_norm(grads)
    if math.isinf(norm):
        # the squares overflow: take the norm of the gradients scaled down
        peak = max(float(np.abs(g).max()) for g in grads)
        norm = peak * _joint_norm([g / peak for g in grads])
    if not math.isfinite(norm):
        raise T.NonFiniteError("the gradients are not finite")
    if 0 < max_norm < norm:
        scale = max_norm / norm
        for t in params.tensors.values():
            if t.grad is not None:
                t.grad = t.grad * scale


def _run_epochs(scenes, caches, params, cfg, train_cfg, stage, seed, loss_fn):
    """Shared epoch loop: shuffle, batch, accumulate grads, step, log.

    A non-finite value is a DivergenceError, unless the failing scene's
    step is non-finite from the starting parameters as well: then those
    overflow on their own, and the NonFiniteError propagates.
    """
    order_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    initial = params.as_arrays()  # steps replace these arrays, never write into them
    velocity: dict[str, np.ndarray] = {}
    metrics = []
    lr = train_cfg.lr

    def scene_grads(idx):
        """Add scene idx's gradients; returns its loss and the loss's parts."""
        cache = caches[idx]
        sal = None if cache.saliency is None else cache.saliency[None]
        with Tape() as tape:
            out = det.forward(scenes[idx].image[None], sal, params, cfg).single()
            mined = det.hard_negative_mining(det.background_ce(out.logits.data),
                                             cache.match, cfg.neg_pos_ratio)
            loss, parts = loss_fn(out, mined, cache)
        if loss.requires_grad:
            backward(tape, loss)
        return loss, parts

    # a non-finite value is detected and raised as an error below, so numpy's
    # own warnings or errors on the way there are pure noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(train_cfg.epochs):
            if epoch in train_cfg.lr_decay_epochs:
                lr *= train_cfg.lr_decay
            perm = order_rng.permutation(len(scenes))
            sums: dict[str, float] = {}
            idx = -1
            try:
                for start in range(0, len(perm), train_cfg.batch_size):
                    batch = perm[start:start + train_cfg.batch_size]
                    params.zero_grads()
                    for idx in map(int, batch):
                        loss, parts = scene_grads(idx)
                        sums["loss_total"] = sums.get("loss_total", 0.0) + float(loss.data)
                        for key, value in parts.items():
                            sums[key] = sums.get(key, 0.0) + value
                    if len(batch) > 1:
                        for t in params.tensors.values():
                            if t.grad is not None:
                                t.grad = t.grad / len(batch)
                    _clip_gradients(params, train_cfg.clip_norm)
                    T.sgd_momentum_step(params.tensors, velocity, lr=lr,
                                        momentum=train_cfg.momentum,
                                        weight_decay=train_cfg.weight_decay)
            except T.NonFiniteError as e:
                params.zero_grads()
                for name, t in params.tensors.items():
                    t.data = initial[name]
                try:
                    scene_grads(idx)
                    _clip_gradients(params, 0.0)
                except T.NonFiniteError:
                    raise e  # no divergence: the starting parameters overflow
                raise DivergenceError(f"{stage} stage diverged at epoch {epoch} "
                                      f"near scene {idx}: {e}") from e
            metrics.append(_metric_row(stage, epoch, sums, len(perm), lr))
    return metrics


def train_base(scenes: list[Scene], cfg: DetectorConfig, train_cfg: TrainConfig,
               class_ids: list[int], seed: int, saliency_provider=None
               ) -> tuple[DetectorParams, list[dict]]:
    """Base stage: fresh parameters, detection loss only."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    params = det.init_detector_params(cfg, class_ids, rng)
    anchors = det.generate_anchors(cfg.anchors)
    caches = _prepare(scenes, cfg, anchors, saliency_provider)

    def loss_fn(out, mined, cache):
        return det.base_loss(out, mined, cache.gt_boxes, anchors, params, cfg,
                             alpha=cfg.alpha)

    metrics = _run_epochs(scenes, caches, params, cfg, train_cfg, "base", seed,
                          loss_fn)
    return params, metrics


def train_novel(base_params: DetectorParams, support: SupportSet,
                cfg: DetectorConfig, train_cfg: TrainConfig, hp: Hyperparams,
                seed: int, saliency_provider=None
                ) -> tuple[DetectorParams, list[dict]]:
    """Novel stage: imprint-initialized fine-tune with the combined loss.

    The frozen base detector's outputs are computed once per support scene
    (they cannot change) and fed to the distillation term as constants.
    """
    anchors = det.generate_anchors(cfg.anchors)
    scenes = support.scenes
    caches = _prepare(scenes, cfg, anchors, saliency_provider)
    # imprinting reads the maps just computed: one provider call per scene
    cached = {id(s): c.saliency for s, c in zip(scenes, caches)}
    params = init_novel_detector(base_params, support, cfg,
                                 (lambda s: cached[id(s)]) if saliency_provider else None)
    if hp.gamma != 0.0:
        outputs = det.forward_chunks([s.image for s in scenes],
                                     lambda i: caches[i].saliency, base_params, cfg)
        for cache, (logits, offsets, _) in zip(caches, outputs):
            cache.base_logits, cache.base_offsets = logits, offsets

    def loss_fn(out, mined, cache):
        return novel_loss(out, mined, cache.gt_boxes, anchors, params, cfg, hp,
                          cache.base_logits, cache.base_offsets)

    metrics = _run_epochs(scenes, caches, params, cfg, train_cfg, "novel", seed,
                          loss_fn)
    return params, metrics

