"""A miniature one-stage detector: anchors, matching, losses, NMS, and mAP.

The backbone is four stride-2 conv+ReLU stages from a 64x64x3 image; the
global-context block and saliency fusion sit after stage 2, and prediction
heads read stages 3 and 4. Classification is cosine-based throughout: both
the per-anchor feature and every classifier row are L2-normalized and their
dot product is scaled by a fixed temperature, so imprinted rows score on the
same footing as trained ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import attention as att
from . import tensor as T
from .tensor import Tensor

BACKGROUND = 0  # class id and classifier row reserved for background


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two [*,4] center-form box arrays -> [len(a), len(b)]."""
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    ax0, ay0 = a[:, 0] - a[:, 2] / 2, a[:, 1] - a[:, 3] / 2
    ax1, ay1 = a[:, 0] + a[:, 2] / 2, a[:, 1] + a[:, 3] / 2
    bx0, by0 = b[:, 0] - b[:, 2] / 2, b[:, 1] - b[:, 3] / 2
    bx1, by1 = b[:, 0] + b[:, 2] / 2, b[:, 1] + b[:, 3] / 2
    iw = np.maximum(0.0, np.minimum(ax1[:, None], bx1) - np.maximum(ax0[:, None], bx0))
    ih = np.maximum(0.0, np.minimum(ay1[:, None], by1) - np.maximum(ay0[:, None], by0))
    inter = iw * ih
    union = (a[:, 2] * a[:, 3])[:, None] + b[:, 2] * b[:, 3] - inter
    return np.where(inter > 0, inter / union, 0.0)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnchorConfig:
    map_sizes: tuple[tuple[int, int], ...] = ((8, 8), (4, 4))
    scales: tuple[float, ...] = (0.2, 0.42)
    aspects: tuple[float, ...] = (1.0, 2.0, 0.5)


def generate_anchors(cfg: AnchorConfig) -> np.ndarray:
    """Anchor grid as an [N,4] center-form array: scale-major, then
    row-major over cells, aspect-minor.

    The anchor for cell (i,j) of an H'xW' map is centered at
    ((j+0.5)/W', (i+0.5)/H'); aspect a maps a base scale s to sides
    (s*sqrt(a), s/sqrt(a)).
    """
    if not cfg.map_sizes or not cfg.scales:
        raise ValueError("anchor config needs at least one feature map and scale")
    if len(cfg.map_sizes) != len(cfg.scales):
        raise ValueError("one scale per feature map required")
    if min(cfg.scales) <= 0 or not cfg.aspects or min(cfg.aspects) <= 0:
        raise ValueError("anchor scales and aspects must be positive")
    rows = []
    for (fh, fw), scale in zip(cfg.map_sizes, cfg.scales):
        for i in range(fh):
            for j in range(fw):
                for a in cfg.aspects:
                    r = math.sqrt(a)
                    rows.append(((j + 0.5) / fw, (i + 0.5) / fh, scale * r, scale / r))
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


# ---------------------------------------------------------------------------
# matching and offset coding
# ---------------------------------------------------------------------------

@dataclass
class MatchResult:
    """Per-anchor assignment: positive class label (0 = none), matched
    ground-truth index (-1 = none), and hard-negative flags."""

    positive_class: np.ndarray  # [N] int64 class label, 0 when not positive
    matched_gt: np.ndarray      # [N] int64 gt index, -1 when not positive
    hard_negative: np.ndarray   # [N] bool

    @cached_property
    def non_positive(self) -> np.ndarray:
        """The anchors that are not positive, ascending: the candidates of
        every mining of this match, found once. A match is not edited after
        :func:`match_anchors` returns it."""
        return np.flatnonzero(self.positive_class == 0)

    @property
    def num_positives(self) -> int:
        return int(np.count_nonzero(self.positive_class))

    def validate(self) -> None:
        if np.any(self.hard_negative & (self.positive_class > 0)):
            raise ValueError("an anchor cannot be both positive and hard negative")


def match_anchors(anchors: np.ndarray, gt_boxes: np.ndarray, gt_labels,
                  pos_thr: float = 0.5) -> MatchResult:
    """Assign anchors to [G,4] center-form ground-truth boxes with [G] class
    labels; hard negatives are filled later. Every box side must be positive.

    Two passes: first every gt box claims its best-IoU still-unclaimed anchor
    (in gt order; IoU ties go to the lowest anchor index), which guarantees
    each gt at least one positive. Then every unclaimed anchor whose best gt
    IoU reaches pos_thr becomes positive for that gt (ties to the lowest gt
    index).
    """
    n = len(anchors)
    boxes = np.asarray(gt_boxes, dtype=np.float64)
    labels = np.asarray(gt_labels, dtype=np.int64)
    if boxes.shape != (len(labels), 4):
        raise ValueError(f"{len(labels)} gt labels need a [{len(labels)},4] box "
                         f"array, got shape {list(boxes.shape)}")
    if np.any(boxes[:, 2:] <= 0):
        raise ValueError("gt box sides must be positive")
    if labels.size and labels.min() < 1:
        raise ValueError("gt labels must be >= 1 (0 is background)")
    positive = np.zeros(n, dtype=np.int64)
    matched = np.full(n, -1, dtype=np.int64)
    result = MatchResult(positive, matched, np.zeros(n, dtype=bool))
    if not len(boxes):
        return result
    if len(boxes) > n:
        raise ValueError("more ground-truth boxes than anchors")

    m = iou_matrix(anchors, boxes)  # [N, G]
    claimed = np.zeros(n, dtype=bool)
    for g in range(len(boxes)):
        col = np.where(claimed, -1.0, m[:, g])
        best = int(np.argmax(col))  # argmax takes the lowest index on ties
        positive[best] = labels[g]
        matched[best] = g
        claimed[best] = True

    best_gt = np.argmax(m, axis=1)
    best_iou = m[np.arange(n), best_gt]
    eligible = ~claimed & (best_iou >= pos_thr)
    positive[eligible] = labels[best_gt[eligible]]
    matched[eligible] = best_gt[eligible]
    return result


VARIANCES = (0.1, 0.2)


def encode_all(gt: np.ndarray, anchor_array: np.ndarray) -> np.ndarray:
    """Offsets regressed from [N,4] anchors to [N,4] ground truth: scaled
    center deltas and log size ratios. The logs are libm's (math.log):
    numpy's vectorized log differs from it in the last bit on some ratios,
    and training follows those bits."""
    v0, v1 = VARIANCES
    out = np.empty_like(gt)
    out[:, 0] = (gt[:, 0] - anchor_array[:, 0]) / (v0 * anchor_array[:, 2])
    out[:, 1] = (gt[:, 1] - anchor_array[:, 1]) / (v0 * anchor_array[:, 3])
    ratios = gt[:, 2:] / anchor_array[:, 2:]
    out[:, 2:] = np.array([[math.log(rw), math.log(rh)] for rw, rh in ratios.tolist()],
                          dtype=np.float64).reshape(-1, 2) / v1
    return out


def decode_all(offsets: np.ndarray, anchor_array: np.ndarray) -> np.ndarray:
    """Boxes from [N,4] offsets against [N,4] anchors: the inverse of encode_all."""
    v0, v1 = VARIANCES
    out = np.empty_like(offsets)
    out[:, 0] = anchor_array[:, 0] + offsets[:, 0] * v0 * anchor_array[:, 2]
    out[:, 1] = anchor_array[:, 1] + offsets[:, 1] * v0 * anchor_array[:, 3]
    out[:, 2] = anchor_array[:, 2] * np.exp(offsets[:, 2] * v1)
    out[:, 3] = anchor_array[:, 3] * np.exp(offsets[:, 3] * v1)
    return out


# ---------------------------------------------------------------------------
# model configuration and parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorConfig:
    image_size: int = 64
    backbone_channels: tuple[int, ...] = (8, 16, 24, 32)
    feat_dim: int = 16
    bottleneck_ratio: int = 4
    anchors: AnchorConfig = field(default_factory=AnchorConfig)
    temperature: float = 10.0
    pos_thr: float = 0.5
    neg_pos_ratio: int = 3
    alpha: float = 1.0
    use_bottom_up: bool = True
    epsilon: float = math.e
    nms_iou: float = 0.45
    score_thr: float = 0.05
    top_k: int = 50

    @property
    def num_aspects(self) -> int:
        return len(self.anchors.aspects)


class DetectorParams:
    """Named parameter tensors plus the classifier's class-id row map.

    Classifier row 0 is background; row 1+i scores class_ids[i]. Checkpoints
    round-trip through the tensor-module array format.
    """

    def __init__(self, tensors: dict[str, Tensor], class_ids: list[int]):
        self.tensors = tensors
        self.class_ids = list(class_ids)

    @property
    def cls_rows(self) -> Tensor:
        return self.tensors["cls.rows"]

    def row_of(self, class_id: int) -> int:
        return 1 + self.class_ids.index(class_id)

    def set_requires_grad(self, flag: bool) -> None:
        for t in self.tensors.values():
            t.requires_grad = flag

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def copy(self) -> "DetectorParams":
        return DetectorParams(
            {k: Tensor(v.data.copy(), requires_grad=v.requires_grad)
             for k, v in self.tensors.items()},
            list(self.class_ids))

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.tensors.items()}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray],
                    class_ids: list[int]) -> "DetectorParams":
        return cls({k: Tensor(v, requires_grad=True)
                    for k, v in sorted(arrays.items())}, class_ids)


def init_detector_params(cfg: DetectorConfig, class_ids: list[int],
                         rng: np.random.Generator) -> DetectorParams:
    """Fresh parameters; draw order is fixed so a seed pins every value."""
    if len(set(class_ids)) != len(class_ids) or BACKGROUND in class_ids:
        raise ValueError("class ids must be unique and nonzero")
    if len(cfg.backbone_channels) != 4 or len(cfg.anchors.map_sizes) != 2:
        raise ValueError(f"the detector has 4 backbone stages and 2 heads, got "
                         f"{len(cfg.backbone_channels)} channel counts and "
                         f"{len(cfg.anchors.map_sizes)} anchor maps")
    tensors: dict[str, Tensor] = {}

    def conv(name, cout, cin, k, bias_scale=0.0):
        fan_in = cin * k * k
        kernel = rng.standard_normal((cout, cin, k, k)) * math.sqrt(2.0 / fan_in)
        bias = rng.standard_normal(cout) * bias_scale if bias_scale else np.zeros(cout)
        tensors[f"{name}.kernel"] = Tensor(kernel, requires_grad=True)
        tensors[f"{name}.bias"] = Tensor(bias, requires_grad=True)

    chans = (3,) + tuple(cfg.backbone_channels)
    for i in range(4):
        conv(f"backbone.{i}", chans[i + 1], chans[i], 3)

    gc = att.init_gc_params(rng, cfg.backbone_channels[1], cfg.bottleneck_ratio)
    for name, t in gc.items():
        tensors[f"gc.{name}"] = t

    a, d = cfg.num_aspects, cfg.feat_dim
    for s, cin in enumerate(cfg.backbone_channels[2:]):
        # nonzero feature bias keeps per-anchor features away from zero norm
        conv(f"head.{s}.feat", a * d, cin, 3, bias_scale=0.1)
        conv(f"head.{s}.reg", a * 4, cin, 3)

    rows = rng.standard_normal((1 + len(class_ids), d))
    tensors["cls.rows"] = Tensor(rows, requires_grad=True)
    return DetectorParams(tensors, class_ids)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class DetectorOutputs:
    """The detector's outputs for a stack of B scenes, or for one scene
    after :meth:`single` (the losses read that form)."""

    logits: Tensor    # [B, N_anchors, 1 + n_classes]
    offsets: Tensor   # [B, N_anchors, 4]
    features: Tensor  # [B, N_anchors, feat_dim], pre-normalization
    topdown: Tensor | None = None  # [B,H,W] top-down attention maps, set by forward

    def single(self) -> "DetectorOutputs":
        """A stack of one as that scene's [N,*] outputs and [H,W] map,
        reshaped on the active tape."""
        if self.logits.data.shape[0] != 1:
            raise T.ShapeError(f"single() needs a stack of one, got {self.logits.data.shape[0]}")
        return DetectorOutputs(*(None if t is None else T.reshape(t, t.data.shape[1:])
                                 for t in (self.logits, self.offsets, self.features,
                                           self.topdown)))


def fusion_size(cfg: DetectorConfig) -> tuple[int, int]:
    """The feature resolution at the saliency fusion: the image side after
    the first two backbone stages, 3x3 convs of stride 2 and padding 1."""
    side = cfg.image_size
    for _ in range(2):
        side = (side - 1) // 2 + 1
    return side, side


def saliency_gate(maps, cfg: DetectorConfig) -> Tensor | None:
    """The bottom-up gate :func:`forward` takes, from a [B,h,w] stack of
    saliency maps, one per image; None when there are no maps or
    cfg.use_bottom_up is off. It depends on the maps alone: build it once
    per scene or batch, not once per forward."""
    if maps is None or not cfg.use_bottom_up:
        return None
    return att.bottom_up_gate(maps, *fusion_size(cfg), cfg.epsilon)


def trunk(images, gate: Tensor | None, params: DetectorParams,
          cfg: DetectorConfig) -> tuple[list[Tensor], Tensor]:
    """The backbone half of :func:`forward`: image centering, the four
    backbone stages, the global-context block and the bottom-up fusion.

    Returns the two heads' input maps (stages 3 and 4) and the [B,h,w]
    top-down maps. It reads the ``backbone.*`` and ``gc.*`` parameters
    only, so its output holds for any change to the heads or classifier.
    """
    x = images if isinstance(images, Tensor) else Tensor(images)
    side = cfg.image_size
    if x.data.ndim != 4 or x.data.shape[1:] != (3, side, side):
        raise T.ShapeError(f"expected a [B,3,{side},{side}] image stack, "
                           f"got {x.data.shape}")
    # center [0,1] pixels; zero-mean inputs decorrelate whole-channel bias
    # shifts in the first conv, which otherwise invite dead-ReLU collapse
    x = T.sub(T.scale(x, 2.0), Tensor(np.float64(1.0)))
    t = params.tensors

    head_inputs = []
    for i in range(4):
        x = T.conv2d(x, t[f"backbone.{i}.kernel"], t[f"backbone.{i}.bias"],
                     stride=2, padding=1, relu=True)
        if i == 1:
            x, topdown = att.gc_block(x, t["gc.w_k"], t["gc.w_v1"], t["gc.ln_gain"],
                                      t["gc.ln_bias"], t["gc.w_v2"])
            if cfg.use_bottom_up and gate is not None:
                x = att.fuse_bottom_up(x, gate)
        if i >= 2:
            head_inputs.append(x)
    return head_inputs, topdown


def heads(head_inputs: list[Tensor], topdown: Tensor, params: DetectorParams,
          cfg: DetectorConfig) -> DetectorOutputs:
    """The prediction half of :func:`forward`, from :func:`trunk`'s output:
    the head convs and the cosine classifier. It reads the ``head.*``
    parameters and ``cls.rows``."""
    b = head_inputs[0].data.shape[0]
    t = params.tensors
    a, d = cfg.num_aspects, cfg.feat_dim
    per_head = []
    for s, xs in enumerate(head_inputs):
        expect = cfg.anchors.map_sizes[s]
        if xs.data.shape[2:] != expect:
            raise T.ShapeError(f"head {s} feature map {xs.data.shape[2:]} does not "
                               f"match anchor layout {expect}")
        # the feature and regression convs share the head's input: one op
        y = T.conv2d(xs, (t[f"head.{s}.feat.kernel"], t[f"head.{s}.reg.kernel"]),
                     (t[f"head.{s}.feat.bias"], t[f"head.{s}.reg.bias"]), padding=1)
        per_head.append(T.reshape(y, (b, a * (d + 4), expect[0] * expect[1])))

    # one row per position of both heads' maps, in anchor order: scale-major,
    # then row-major over cells; each row holds A*d feature then A*4 offset
    # channels, aspect-major. Splitting the rows (not the channels) hands the
    # head convs position-major gradients, the memory order that sets the
    # summation order of their bias gradients in numpy
    rows = T.transpose(T.concat(per_head, axis=2), (0, 2, 1))
    p = rows.data.shape[1]
    rows = T.reshape(rows, (b * p, a * (d + 4)))
    features = T.reshape(T.gather(rows, range(a * d), axis=1), (b, p * a, d))
    offsets = T.reshape(T.gather(rows, range(a * d, a * (d + 4)), axis=1),
                        (b, p * a, 4))
    fhat = T.l2_normalize(features, axis=-1)
    what = T.l2_normalize(params.cls_rows, axis=1)
    logits = T.scale(T.matmul(fhat, T.transpose(what, (1, 0))), cfg.temperature)
    return DetectorOutputs(logits=logits, offsets=offsets, features=features,
                           topdown=topdown)


def forward(images, gate: Tensor | None, params: DetectorParams,
            cfg: DetectorConfig) -> DetectorOutputs:
    """Run the detector on a stack of B images, [B,3,H,W]:
    ``heads(*trunk(...))``.

    ``gate`` is :func:`saliency_gate`'s [B,1,h,w] bottom-up gate for the
    images, or None; it is ignored unless cfg.use_bottom_up. Every output is
    per scene: scene b's outputs are bitwise those of a stack holding scene b
    alone. The outputs carry the global-context block's attention maps as
    ``topdown``. Records on the active tape, if any.
    """
    return heads(*trunk(images, gate, params, cfg), params, cfg)


# scenes per no-grad forward in evaluation, imprinting and the distillation
# precompute; README ("Package layout") has the speed and memory figures
INFERENCE_CHUNK = 4


def forward_chunks(images, saliency_of, params: DetectorParams,
                   cfg: DetectorConfig):
    """Run the detector over a list of [3,H,W] images, INFERENCE_CHUNK at a
    time, and yield each image's (logits, offsets, features) arrays in order.

    ``saliency_of(i)`` gives image i's map (None, or a None result: no
    bottom-up input); it is asked once per image, chunk by chunk, just
    before that chunk's forward, whose gate it builds.
    """
    for start in range(0, len(images), INFERENCE_CHUNK):
        idx = range(start, min(start + INFERENCE_CHUNK, len(images)))
        maps = [saliency_of(i) for i in idx] if saliency_of else [None]
        gate = saliency_gate(None if maps[0] is None else np.stack(maps), cfg)
        out = forward(np.stack([images[i] for i in idx]), gate, params, cfg)
        yield from zip(out.logits.data, out.offsets.data, out.features.data)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def background_ce(logits: np.ndarray) -> np.ndarray:
    """Per-anchor cross-entropy against the background class, for mining."""
    # the ufunc reduces give ndarray.max's and .sum's bits without their
    # Python wrappers
    m = np.maximum.reduce(logits, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.add.reduce(np.exp(logits - m), axis=1))
    return lse - logits[:, BACKGROUND]


def hard_negative_mining(cls_losses: np.ndarray, match: MatchResult,
                         neg_pos_ratio: int = 3) -> MatchResult:
    """Flag the highest-loss non-positive anchors as hard negatives.

    Keeps ratio * num_positives anchors (at least 1 when there are no
    positives at all), ties broken toward lower anchor indices.
    """
    if neg_pos_ratio < 0:
        raise ValueError("neg_pos_ratio must be >= 0")
    candidates = match.non_positive
    n_pos = match.num_positives
    want = neg_pos_ratio * n_pos if n_pos else min(1, len(candidates))
    want = min(want, len(candidates))
    hard = np.zeros_like(match.hard_negative)
    if want:
        order = np.argsort(-cls_losses[candidates], kind="stable")
        hard[candidates[order[:want]]] = True
    out = MatchResult(match.positive_class, match.matched_gt, hard)
    out.validate()
    return out


@dataclass(frozen=True)
class LossTargets:
    """A scene's parameter-free loss inputs, built once by :func:`loss_targets`."""

    pos_idx: np.ndarray  # [P] int64 positive anchors, ascending
    rows: np.ndarray     # [P] int64 classifier row of each positive's class
    boxes: Tensor        # [P,4] offsets encoded from each positive's matched gt


def loss_targets(match: MatchResult, gt_boxes: np.ndarray, anchors: np.ndarray,
                 params: DetectorParams) -> LossTargets:
    """The positives of a match, their classifier rows in ``params`` and
    their box targets encoded from the [G,4] ground truth. They depend on
    the match and the class-id row map, not on parameter values, so a
    scene's targets hold for every step of a stage."""
    pos_idx = np.where(match.positive_class > 0)[0]
    rows = np.array([params.row_of(int(c)) for c in match.positive_class[pos_idx]],
                    dtype=np.int64)
    boxes = encode_all(gt_boxes[match.matched_gt[pos_idx]], anchors[pos_idx])
    return LossTargets(pos_idx, rows, Tensor(boxes))


def base_loss(outputs: DetectorOutputs, match: MatchResult, targets: LossTargets,
              cfg: DetectorConfig, alpha: float | None = None
              ) -> tuple[Tensor, dict[str, float]]:
    """The detection loss: (cross-entropy + alpha * smooth-L1) / max(N, 1).

    Classification covers positives (their class row) and the mined hard
    negatives of ``match`` (the background row); regression covers
    positives only, against their encoded box targets. ``targets`` must come
    from the match that was mined. ``alpha`` defaults to cfg.alpha, the base
    stage's weight; the novel stage passes its own.
    """
    alpha = cfg.alpha if alpha is None else alpha
    pos_idx = targets.pos_idx
    neg_idx = np.where(match.hard_negative)[0]
    n = max(pos_idx.size, 1)
    zero = {"loss_cls": 0.0, "loss_bbox": 0.0}
    if pos_idx.size == 0 and neg_idx.size == 0:
        return Tensor(0.0), zero

    sel = np.concatenate([pos_idx, neg_idx])
    rows = np.concatenate([targets.rows, np.full(neg_idx.size, BACKGROUND, dtype=np.int64)])
    l_cls = T.sum_all(T.softmax_cross_entropy(T.gather(outputs.logits, sel), rows))

    if pos_idx.size:
        l_bbox = T.sum_all(T.smooth_l1(T.gather(outputs.offsets, pos_idx),
                                       targets.boxes))
        total = T.scale(T.add(l_cls, T.scale(l_bbox, alpha)), 1.0 / n)
        parts = {"loss_cls": float(l_cls.data) / n,
                 "loss_bbox": alpha * float(l_bbox.data) / n}
    else:
        total = T.scale(l_cls, 1.0 / n)
        parts = {"loss_cls": float(l_cls.data) / n, "loss_bbox": 0.0}
    return total, parts


# ---------------------------------------------------------------------------
# decoding, NMS, evaluation
# ---------------------------------------------------------------------------

def nms(boxes: np.ndarray, scores: np.ndarray, iou_thr: float,
        score_thr: float = 0.0, top_k: int | None = None) -> list[int]:
    """Greedy suppression over [M,4] center-form boxes; returns kept indices.

    Boxes below score_thr are dropped first. Processing order is score
    descending with the lower index winning ties; a kept box suppresses any
    later box with IoU strictly greater than iou_thr. At most top_k boxes
    are kept.
    """
    keep_mask = scores >= score_thr
    idx = np.where(keep_mask)[0]
    if idx.size == 0 or (top_k is not None and top_k < 1):
        return []
    if idx.size == 1:  # most per-class calls in evaluation: nothing to rank
        return [int(idx[0])]
    order = idx[np.argsort(-scores[idx], kind="stable")]
    ranked = boxes[order]
    overlaps = iou_matrix(ranked, ranked) > iou_thr
    suppressed = np.zeros(len(order), dtype=bool)
    kept: list[int] = []
    for pos, i in enumerate(order):
        if suppressed[pos]:
            continue
        kept.append(int(i))
        if top_k is not None and len(kept) == top_k:
            break
        suppressed |= overlaps[pos]
    return kept


def detect(logits: np.ndarray, offsets: np.ndarray, anchors: np.ndarray,
           params: DetectorParams, cfg: DetectorConfig
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode one image's [N, 1+C] logits and [N,4] offsets into per-class
    NMS-filtered detections: (class ids [K], scores [K], center-form boxes
    [K,4]), class by class in classifier-row order, score order within a
    class.

    Decoded boxes are clipped to the unit square; anchors whose clipped box
    has no area never reach NMS.
    """
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    probs = e / e.sum(axis=1, keepdims=True)
    decoded = decode_all(offsets, anchors)

    half_w, half_h = decoded[:, 2] / 2, decoded[:, 3] / 2
    x0 = np.maximum(0.0, decoded[:, 0] - half_w)
    y0 = np.maximum(0.0, decoded[:, 1] - half_h)
    x1 = np.minimum(1.0, decoded[:, 0] + half_w)
    y1 = np.minimum(1.0, decoded[:, 1] + half_h)
    clipped = np.stack([(x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0], axis=1)
    valid = (clipped[:, 2] > 0) & (clipped[:, 3] > 0)
    boxes, probs = clipped[valid], probs[valid]

    kept, cols = [], []
    for col in range(1, 1 + len(params.class_ids)):
        keep = nms(boxes, probs[:, col], cfg.nms_iou, cfg.score_thr, cfg.top_k)
        kept += keep
        cols += [col] * len(keep)
    kept, cols = np.array(kept, dtype=np.int64), np.array(cols, dtype=np.int64)
    labels = np.array([BACKGROUND] + params.class_ids, dtype=np.int64)[cols]
    return labels, probs[kept, cols], boxes[kept]


def eleven_point_ap(scored_hits: list[tuple[float, bool]], n_gt: int) -> float:
    """VOC-style 11-point interpolated AP from (score, is_tp) pairs."""
    if n_gt == 0:
        return 0.0
    tp = fp = 0
    points = []
    for _, hit in scored_hits:
        tp += 1 if hit else 0
        fp += 0 if hit else 1
        points.append((tp / n_gt, tp / (tp + fp)))
    ap = 0.0
    for t in np.arange(0.0, 1.1, 0.1):
        precisions = [p for r, p in points if r >= t]
        ap += max(precisions) if precisions else 0.0
    return ap / 11.0


def evaluate_map(detections_per_image, gt_per_image,
                 iou_thr: float = 0.5) -> tuple[dict[int, float], float]:
    """Per-class 11-point AP and mAP over the classes present in ground truth.

    Per image, detections are :func:`detect`'s (labels [K], scores [K],
    boxes [K,4]) and ground truth is (labels [M], boxes [M,4]). Each class's
    detections are matched greedily in descending score order, ties to the
    earlier image, then the earlier detection; each ground truth can satisfy
    only one detection, and a detection whose best-IoU gt of its class is
    already taken counts as a false positive.
    """
    if not gt_per_image:
        return {}, 0.0
    det_labels, scores, best, best_iou, gt_labels = [], [], [], [], []
    n_gt = 0
    for (d_labels, d_scores, d_boxes), (g_labels, g_boxes) in zip(
            detections_per_image, gt_per_image):
        # IoU with each gt of the detection's own class, 0 with the others;
        # the first strict maximum above 0 wins, all zeros match nothing
        overlaps = np.where(d_labels[:, None] == g_labels,
                            iou_matrix(d_boxes, g_boxes), 0.0)
        top = overlaps.max(axis=1, initial=0.0)
        first = overlaps.argmax(axis=1) if len(g_labels) else 0
        det_labels.append(d_labels)
        scores.append(d_scores)
        best.append(np.where(top > 0, n_gt + first, -1))
        best_iou.append(top)
        gt_labels.append(g_labels)
        n_gt += len(g_labels)
    det_labels, scores, best, best_iou, gt_labels = map(
        np.concatenate, (det_labels, scores, best, best_iou, gt_labels))

    taken = np.zeros(n_gt, dtype=bool)
    per_class: dict[int, float] = {}
    for c in sorted(set(gt_labels.tolist())):
        mine = np.flatnonzero(det_labels == c)
        scored_hits = []
        for i in mine[np.argsort(-scores[mine], kind="stable")].tolist():
            g = best[i]
            hit = g >= 0 and best_iou[i] >= iou_thr and not taken[g]
            if hit:
                taken[g] = True
            scored_hits.append((scores[i], hit))
        per_class[c] = eleven_point_ap(scored_hits,
                                       int(np.count_nonzero(gt_labels == c)))
    mean_ap = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, mean_ap


def evaluate_detector(params: DetectorParams, cfg: DetectorConfig, scenes,
                      saliency_provider=None, novel_ids=(),
                      iou_thr: float = 0.5) -> dict:
    """Full test-set evaluation; returns per-class AP plus base/novel/all mAP.

    Ground truth uses every object regardless of its annotated flag: the
    benchmark's annotation gaps are a training-time condition only.
    """
    anchors = generate_anchors(cfg.anchors)
    saliency_of = (lambda i: saliency_provider(scenes[i])) if saliency_provider else None
    outputs = forward_chunks([s.image for s in scenes], saliency_of, params, cfg)
    all_dets = [detect(logits, offsets, anchors, params, cfg)
                for logits, offsets, _ in outputs]
    all_gts = [(scene.labels, scene.boxes) for scene in scenes]
    per_class, map_all = evaluate_map(all_dets, all_gts, iou_thr)
    novel = set(novel_ids)
    base_aps = [ap for c, ap in per_class.items() if c not in novel]
    novel_aps = [ap for c, ap in per_class.items() if c in novel]
    return {
        "per_class_ap": {int(c): float(ap) for c, ap in sorted(per_class.items())},
        "map_all": float(map_all),
        "map_base": float(np.mean(base_aps)) if base_aps else 0.0,
        "map_novel": float(np.mean(novel_aps)) if novel_aps else 0.0,
    }
