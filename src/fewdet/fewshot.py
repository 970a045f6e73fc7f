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
from .detector import (DetectorConfig, DetectorOutputs, DetectorParams, LossTargets,
                       MatchResult)
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

def object_concentration_loss(features: Tensor, rows: Tensor,
                              targets: LossTargets) -> Tensor:
    """Pull positive-anchor features toward their class rows.

    The negated mean cosine similarity over the positive anchors of
    ``targets``; 0 when there are none. Features and rows are normalized
    inside the loss, so it is invariant to positive rescaling of either.
    """
    pos_idx = targets.pos_idx
    if pos_idx.size == 0:
        return Tensor(0.0)
    fhat = T.l2_normalize(T.gather(features, pos_idx), axis=1)
    what = T.l2_normalize(T.gather(rows, targets.rows), axis=1)
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


def distillation_loss(outputs: DetectorOutputs, base_logits: Tensor,
                      base_offsets: Tensor) -> Tensor:
    """Anchor the novel detector to its frozen ancestor's outputs.

    Mean squared difference over the logit columns the base detector also
    has (background + base categories) plus mean squared difference over all
    four regression outputs, equally weighted. The base outputs are constant
    tensors, built once per scene: nothing flows back into the frozen
    detector.
    """
    n, r_base = base_logits.shape
    if outputs.logits.data.shape[0] != n or outputs.offsets.data.shape != base_offsets.shape:
        raise T.ShapeError("novel and base outputs describe different anchor sets")
    if outputs.logits.data.shape[1] < r_base:
        raise T.ShapeError("novel detector has fewer classifier columns than base")
    cols = range(r_base)
    l_logit = T.mean_all(T.square(T.sub(T.gather(outputs.logits, cols, axis=1),
                                        base_logits)))
    l_reg = T.mean_all(T.square(T.sub(outputs.offsets, base_offsets)))
    return T.add(l_logit, l_reg)


def novel_loss(outputs: DetectorOutputs, match: MatchResult, targets: LossTargets,
               params: DetectorParams, cfg: DetectorConfig, hp: Hyperparams,
               base_logits: Tensor | None = None, base_offsets: Tensor | None = None
               ) -> tuple[Tensor, dict[str, float]]:
    """Full novel-stage objective: detection loss, its box term weighted by
    hp.alpha, plus weighted concentration and distillation terms. Zero-weight
    terms are skipped outright, so with beta = eta = gamma = 0 the returned
    tensor is the detection loss itself. ``targets`` come from ``params``'s
    class-id row map and the match that was mined.
    """
    total, parts = det.base_loss(outputs, match, targets, cfg, alpha=hp.alpha)
    parts.update({"loss_conc_pos": 0.0, "loss_conc_neg": 0.0, "loss_dist": 0.0})
    if hp.beta != 0.0:
        l_pos = object_concentration_loss(outputs.features, params.cls_rows, targets)
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
                        cfg: DetectorConfig, features) -> DetectorParams:
    """Novel detector from a trained base: copy every parameter, then append
    one imprinted classifier row per novel class.

    ``features[pos]`` holds support scene pos's [N,d] base features. Each
    support instance contributes the feature of its best-IoU anchor; a best
    IoU of zero is an error. Backbone, attention, heads, and regression convs
    transfer verbatim; base classifier rows keep their positions, so
    base-category logits stay column-aligned.
    """
    params = base_params.copy()
    anchors = det.generate_anchors(cfg.anchors)
    novel = sorted(support.novel_instances)
    for cid in novel:
        if cid in params.class_ids:
            raise ValueError(f"class {cid} already present in the base detector")
    new_rows = [params.cls_rows.data]
    for cid in novel:
        feats = []
        for pos, obj_idx in support.novel_instances[cid]:
            ious = det.iou_matrix(anchors, support.scenes[pos].boxes[obj_idx:obj_idx + 1])[:, 0]
            best = int(np.argmax(ious))
            if ious[best] == 0.0:
                raise ImprintError(
                    f"support instance of class {cid} overlaps no anchor")
            feats.append(features[pos][best])
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
    """What a stage's steps read of one scene and never change: its
    bottom-up gate, its anchor match and the loss targets of that match."""

    gate: Tensor | None  # [1,1,h,w]
    match: MatchResult
    targets: LossTargets
    base_logits: Tensor | None = None
    base_offsets: Tensor | None = None


def _prepare(scenes: list[Scene], maps: list[np.ndarray] | None, cfg: DetectorConfig,
             anchors: np.ndarray, params: DetectorParams) -> list[_SceneCache]:
    """One cache per scene; ``maps`` holds each scene's saliency map, or is
    None for no bottom-up input."""
    caches = []
    for i, scene in enumerate(scenes):
        boxes = scene.boxes[scene.annotated]
        match = det.match_anchors(anchors, boxes, scene.labels[scene.annotated],
                                  cfg.pos_thr)
        caches.append(_SceneCache(
            gate=det.saliency_gate(None if maps is None else maps[i][None], cfg),
            match=match, targets=det.loss_targets(match, boxes, anchors, params)))
    return caches


def _grad_norm(grads) -> float:
    """The joint L2 norm of the gradient arrays, summed array by array in
    order (training follows these bits). Squares that overflow are summed
    from the arrays scaled down by their peak, so a huge but finite gradient
    has a finite norm; a non-finite gradient is a NonFiniteError."""
    total = 0.0
    for g in grads:
        total += float(np.add.reduce(g ** 2, None))
    norm = math.sqrt(total)
    if math.isinf(norm):  # scaled to a peak of 1, the squares cannot overflow
        peak = max(float(np.maximum.reduce(np.abs(g), None)) for g in grads)
        norm = peak * _grad_norm([g / peak for g in grads])
    if not math.isfinite(norm):
        raise T.NonFiniteError("the gradients are not finite")
    return norm


def _run_epochs(scenes, caches, params, cfg, train_cfg, stage, seed, loss_fn):
    """Shared epoch loop: shuffle, batch, accumulate grads, step, log.

    The parameters are views into one flat buffer, which each step updates
    in place together with a flat velocity buffer; on return they stay views
    into it. A non-finite value is a DivergenceError, unless the failing
    scene's step is non-finite from the starting parameters as well: then
    those overflow on their own, and the NonFiniteError propagates.
    """
    order_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    tensors = list(params.tensors.values())
    flat = np.concatenate([t.data for t in tensors], axis=None)
    views = np.split(flat, np.cumsum([t.data.size for t in tensors])[:-1])
    for t, view in zip(tensors, views):
        t.data = view.reshape(t.data.shape)
    initial, velocity = flat.copy(), np.zeros_like(flat)
    metrics = []
    lr = train_cfg.lr

    def scene_grads(idx):
        """Add scene idx's gradients; returns its loss and the loss's parts."""
        cache = caches[idx]
        with Tape() as tape:
            out = det.forward(scenes[idx].image[None], cache.gate, params, cfg).single()
            mined = det.hard_negative_mining(det.background_ce(out.logits.data),
                                             cache.match, cfg.neg_pos_ratio)
            loss, parts = loss_fn(out, mined, cache)
        if loss.requires_grad:
            backward(tape, loss)
        return loss, parts

    def step(batch_size, lr):
        """One SGD step on the flat buffers from the batch's mean gradient,
        scaled down to a norm of clip_norm when above it (0 disables).

        The first epochs produce violent steps that can push whole backbone
        stages into the dead half of the ReLU, from which no gradient
        returns; the cap keeps the early trajectory inside the recoverable
        region. The step's flat-size temporaries die on return, before the
        next batch's tapes run."""
        grads = [np.zeros(t.data.shape) if t.grad is None else t.grad for t in tensors]
        if batch_size > 1:
            grads = [g / batch_size for g in grads]
        norm = _grad_norm(grads)
        grad = np.concatenate(grads, axis=None)
        if 0 < train_cfg.clip_norm < norm:
            grad *= train_cfg.clip_norm / norm
        T.sgd_momentum_step(flat, grad, velocity, lr, train_cfg.momentum,
                            train_cfg.weight_decay)

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
                    step(len(batch), lr)
            except T.NonFiniteError as e:
                flat[...] = initial
                params.zero_grads()
                try:
                    scene_grads(idx)
                    _grad_norm([t.grad for t in tensors if t.grad is not None])
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
    caches = _prepare(scenes, [saliency_provider(s) for s in scenes]
                      if saliency_provider else None, cfg, anchors, params)

    def loss_fn(out, mined, cache):
        return det.base_loss(out, mined, cache.targets, cfg, alpha=cfg.alpha)

    metrics = _run_epochs(scenes, caches, params, cfg, train_cfg, "base", seed,
                          loss_fn)
    return params, metrics


def _check_squares(arrays, message: str) -> None:
    """A NonFiniteError with the message if a value of the arrays squares to
    a non-finite number. Values like that are a checkpoint's fault: the
    novel stage would overflow once a step moves them, and call it divergence."""
    with np.errstate(over="ignore"):
        if not all(np.isfinite(np.square(a)).all() for a in arrays):
            raise T.NonFiniteError(message)


def train_novel(base_params: DetectorParams, support: SupportSet,
                cfg: DetectorConfig, train_cfg: TrainConfig, hp: Hyperparams,
                seed: int, saliency_provider=None
                ) -> tuple[DetectorParams, list[dict]]:
    """Novel stage: imprint-initialized fine-tune with the combined loss.

    One no-grad pass of the frozen base detector over the support scenes
    gives the features that imprint the novel rows and, when gamma > 0, the
    outputs that the distillation term reads as constants (they cannot
    change). Saliency is asked once per scene and serves that pass and the
    steps' gates.
    """
    # backpropagation multiplies every weight by a gradient, and a weight
    # whose square overflows leaves a gradient no room above its own size
    _check_squares(base_params.as_arrays().values(),
                   "a weight overflows when squared, which leaves the "
                   "gradients through it no room")
    anchors = det.generate_anchors(cfg.anchors)
    scenes = support.scenes
    maps = [saliency_provider(s) for s in scenes] if saliency_provider else None
    base_out = list(det.forward_chunks([s.image for s in scenes], maps, base_params, cfg))
    params = init_novel_detector(base_params, support, cfg, [f for _, _, f in base_out])
    # the targets' classifier rows are the novel detector's
    caches = _prepare(scenes, maps, cfg, anchors, params)
    if hp.gamma != 0.0:
        for cache, (logits, offsets, _) in zip(caches, base_out):
            # the distillation term squares novel-minus-base differences, so
            # such an output overflows on the first step that moves it
            _check_squares([logits, offsets], "its outputs overflow when squared, "
                           "as the distillation term does")
            cache.base_logits, cache.base_offsets = Tensor(logits), Tensor(offsets)

    def loss_fn(out, mined, cache):
        return novel_loss(out, mined, cache.targets, params, cfg, hp,
                          cache.base_logits, cache.base_offsets)

    metrics = _run_epochs(scenes, caches, params, cfg, train_cfg, "novel", seed,
                          loss_fn)
    return params, metrics

