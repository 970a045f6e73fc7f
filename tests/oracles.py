"""Independent reference implementations used to cross-check the package.

Everything here is written in the most literal style possible (scalar loops,
explicit flood fill, quadratic suppression) and deliberately shares no code
with the package under test.
"""

import math

import numpy as np


def gc_block_loops(y, wk, wv1, ln_gain, ln_bias, wv2, eps_ln=1e-5):
    """Straight-line scalar reimplementation of the global-context block.

    y: [C,H,W]; wk: [C]; wv1: [Cb,C]; ln_gain/ln_bias: [Cb]; wv2: [C,Cb].
    """
    c, h, w = y.shape
    cb = len(ln_gain)

    logits = [[sum(wk[ch] * y[ch][i][j] for ch in range(c)) for j in range(w)]
              for i in range(h)]
    m = max(max(row) for row in logits)
    exps = [[math.exp(v - m) for v in row] for row in logits]
    total = sum(sum(row) for row in exps)
    att = [[v / total for v in row] for row in exps]

    ctx = [sum(y[ch][i][j] * att[i][j] for i in range(h) for j in range(w))
           for ch in range(c)]

    t = [sum(wv1[b][ch] * ctx[ch] for ch in range(c)) for b in range(cb)]
    mean = sum(t) / cb
    var = sum((v - mean) ** 2 for v in t) / cb
    t = [ln_gain[b] * (t[b] - mean) / math.sqrt(var + eps_ln) + ln_bias[b]
         for b in range(cb)]
    t = [max(0.0, v) for v in t]

    add = [sum(wv2[ch][b] * t[b] for b in range(cb)) for ch in range(c)]
    out = np.empty_like(y)
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                out[ch][i][j] = y[ch][i][j] + add[ch]
    return out


def flood_fill_surroundedness(bmap):
    """Remove 4-connected true components that touch the border, via BFS."""
    bmap = np.asarray(bmap, dtype=bool)
    h, w = bmap.shape
    out = bmap.copy()
    seen = np.zeros_like(bmap)
    for si in range(h):
        for sj in range(w):
            if not bmap[si, sj] or seen[si, sj]:
                continue
            stack = [(si, sj)]
            seen[si, sj] = True
            component = []
            touches = False
            while stack:
                i, j = stack.pop()
                component.append((i, j))
                if i in (0, h - 1) or j in (0, w - 1):
                    touches = True
                for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    if 0 <= ni < h and 0 <= nj < w and bmap[ni, nj] and not seen[ni, nj]:
                        seen[ni, nj] = True
                        stack.append((ni, nj))
            if touches:
                for i, j in component:
                    out[i, j] = False
    return out


def iou_corners(a, b):
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    iy = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = ix * iy
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union > 0 else 0.0


def center_to_corners(box):
    cx, cy, w, h = box
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def encode_box(gt, anchor, variances=(0.1, 0.2)):
    """Offsets of one center-form gt box against one anchor, scalar by scalar."""
    v0, v1 = variances
    return ((gt[0] - anchor[0]) / (v0 * anchor[2]),
            (gt[1] - anchor[1]) / (v0 * anchor[3]),
            math.log(gt[2] / anchor[2]) / v1,
            math.log(gt[3] / anchor[3]) / v1)


def decode_box(offsets, anchor, variances=(0.1, 0.2)):
    """The center-form box that one anchor's offsets describe. The exp is
    numpy's, as in the package's decode: libm's differs from it in the last
    bit on a few percent of inputs."""
    v0, v1 = variances
    tx, ty, tw, th = offsets
    return (anchor[0] + tx * v0 * anchor[2],
            anchor[1] + ty * v0 * anchor[3],
            anchor[2] * float(np.exp(tw * v1)),
            anchor[3] * float(np.exp(th * v1)))


def brute_force_nms(boxes, scores, iou_thr, score_thr=0.0, top_k=None):
    """Quadratic greedy suppression; boxes are [M,4] center form.

    Returns at most top_k kept indices. A box is suppressed by any
    higher-ranked kept box with IoU strictly greater than iou_thr; ranking is
    score descending with lower index winning ties.
    """
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    order = [i for i in order if scores[i] >= score_thr]
    kept = []
    for i in order:
        if top_k is not None and len(kept) >= top_k:
            break
        ci = center_to_corners(boxes[i])
        suppressed = any(
            iou_corners(ci, center_to_corners(boxes[j])) > iou_thr for j in kept)
        if not suppressed:
            kept.append(i)
    return kept


def brute_force_matcher(anchor_boxes, gt_boxes, labels, pos_thr):
    """Literal restatement of the matching contract over center-form arrays."""
    n, m = len(anchor_boxes), len(gt_boxes)
    anchors_c = [center_to_corners(b) for b in anchor_boxes]
    gts_c = [center_to_corners(b) for b in gt_boxes]
    positive = [0] * n
    matched = [-1] * n
    claimed = set()
    for g in range(m):
        best, best_iou = None, -1.0
        for i in range(n):
            if i in claimed:
                continue
            v = iou_corners(anchors_c[i], gts_c[g])
            if v > best_iou:
                best, best_iou = i, v
        positive[best] = labels[g]
        matched[best] = g
        claimed.add(best)
    for i in range(n):
        if i in claimed:
            continue
        best, best_iou = None, -1.0
        for g in range(m):
            v = iou_corners(anchors_c[i], gts_c[g])
            if v > best_iou:
                best, best_iou = g, v
        if best is not None and best_iou >= pos_thr:
            positive[i] = labels[best]
            matched[i] = best
    return positive, matched


def eleven_point_ap(tp_flags, n_gt):
    """11-point interpolated AP from an ordered hit/miss sequence."""
    tp = fp = 0
    points = []
    for hit in tp_flags:
        tp += hit
        fp += not hit
        points.append((tp / n_gt, tp / (tp + fp)))
    total = 0.0
    for t in [i / 10 for i in range(11)]:
        best = max((p for r, p in points if r >= t), default=0.0)
        total += best
    return total / 11.0


def bms_saliency_per_map(image, thresholds_per_channel, opening_radius):
    """Boolean-map saliency one map at a time, with scipy's own labelling and
    binary opening: the reference for the stacked implementation.

    Returns the min-max normalized mean surroundedness (all zeros when the
    mean map is constant).
    """
    from scipy import ndimage

    cross = ndimage.generate_binary_structure(2, 1)
    t = thresholds_per_channel
    maps = []
    for channel in image:
        for k in range(1, t + 1):
            m = channel > k / (t + 1)
            maps.append(m)
            maps.append(~m)
    acc = np.zeros(image.shape[1:], dtype=np.float64)
    for bmap in maps:
        labels, n = ndimage.label(bmap, structure=cross)
        if n == 0:
            continue
        border = np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]])
        kept = bmap & ~np.isin(labels, np.unique(border[border > 0]))
        if opening_radius > 0 and kept.any():
            kept = ndimage.binary_opening(kept, structure=cross,
                                          iterations=opening_radius)
        acc += kept
    acc /= len(maps)
    lo, hi = acc.min(), acc.max()
    return (acc - lo) / (hi - lo) if hi > lo else np.zeros_like(acc)


def detect_per_anchor(logits, offsets, anchors, class_ids, nms_iou, score_thr,
                      top_k, variances=(0.1, 0.2)):
    """Decode, clip and suppress one anchor at a time.

    logits: [N, 1+C]; offsets and anchors: [N,4] center form. Anchors whose
    clipped box has no area keep a placeholder box and a score of -1.
    Returns (class_id, score, (cx, cy, w, h)) per kept detection, class by
    class in score order.
    """
    v0, v1 = variances
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    probs = e / e.sum(axis=1, keepdims=True)
    widths = anchors[:, 2] * np.exp(offsets[:, 2] * v1)
    heights = anchors[:, 3] * np.exp(offsets[:, 3] * v1)
    clipped = []
    for i in range(len(anchors)):
        cx = anchors[i, 0] + offsets[i, 0] * v0 * anchors[i, 2]
        cy = anchors[i, 1] + offsets[i, 1] * v0 * anchors[i, 3]
        x0 = max(0.0, cx - widths[i] / 2)
        y0 = max(0.0, cy - heights[i] / 2)
        x1 = min(1.0, cx + widths[i] / 2)
        y1 = min(1.0, cy + heights[i] / 2)
        if x1 - x0 <= 0 or y1 - y0 <= 0:
            clipped.append(None)
        else:
            clipped.append(((x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0))
    boxes = [b if b is not None else (0.5, 0.5, 1.0, 1.0) for b in clipped]
    out = []
    for col, cid in enumerate(class_ids, start=1):
        scores = [float(probs[i, col]) if clipped[i] is not None else -1.0
                  for i in range(len(anchors))]
        for i in brute_force_nms(boxes, scores, nms_iou, score_thr, top_k):
            out.append((cid, scores[i], tuple(float(v) for v in clipped[i])))
    return out


def match_detections_per_pair(detections, gts, iou_thr):
    """Greedy mAP matching with one scalar IoU per (detection, gt) pair.

    detections: per image, a list of (class_id, score, box); gts: per image,
    a list of (class_id, box); boxes are center form. Returns
    {class_id: (list of (score, hit) in rank order, number of gts)}. A
    detection matches the first gt with the strictly largest IoU above 0.
    """
    out = {}
    for c in sorted({cid for g in gts for cid, _ in g}):
        gts_c = [[center_to_corners(b) for cid, b in g if cid == c] for g in gts]
        taken = [[False] * len(g) for g in gts_c]
        ranked = sorted(((score, img, j, box)
                         for img, dets in enumerate(detections)
                         for j, (cid, score, box) in enumerate(dets) if cid == c),
                        key=lambda t: (-t[0], t[1], t[2]))
        hits = []
        for score, img, _, box in ranked:
            corners = center_to_corners(box)
            best, best_iou = -1, 0.0
            for g, gt in enumerate(gts_c[img]):
                v = iou_corners(corners, gt)
                if v > best_iou:
                    best, best_iou = g, v
            hit = best >= 0 and best_iou >= iou_thr and not taken[img][best]
            if hit:
                taken[img][best] = True
            hits.append((score, hit))
        out[c] = (hits, sum(len(g) for g in gts_c))
    return out


def iou(a, b):
    """Scalar IoU of two center-form (cx, cy, w, h) boxes, one float
    operation at a time in the order the package's iou_matrix takes them
    (areas as w * h)."""
    ax0, ay0, ax1, ay1 = center_to_corners(a)
    bx0, by0, bx1, by1 = center_to_corners(b)
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if inter > 0 else 0.0


def generate_scene_per_pair(seed, cfg=None):
    """synthdata.generate_scene with its placement test written out as one
    scalar IoU per (candidate, placed object) pair."""
    from fewdet import synthdata as sd

    cfg = cfg or sd.GenConfig()
    rng = np.random.default_rng(seed)
    size = cfg.image_size
    image = sd._background(rng, size)
    n_objects = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    labels, boxes, masks = [], [], []
    for _ in range(n_objects):
        class_id = int(rng.integers(1, sd.NUM_CLASSES + 1))
        shape_index, family = sd.shape_of(class_id)
        palette = sd._PALETTES[family]
        color = np.array(palette[int(rng.integers(len(palette)))])
        color = np.clip(color + rng.uniform(-0.04, 0.04, size=3), 0.45, 1.0)
        for _ in range(cfg.max_place_attempts):
            mask = sd._rasterize(shape_index, rng, cfg)
            if mask is None:
                continue
            box = tuple(sd._tight_box(mask, size).tolist())
            if all(iou(box, placed) <= cfg.overlap_cap for placed in boxes):
                break
        else:
            raise sd.GenerationError("placement failed")
        image[:, mask] = color[:, None]
        labels.append(class_id)
        boxes.append(box)
        masks.append(mask)
    return sd.Scene(image=image, boxes=np.array(boxes), labels=np.array(labels),
                    masks=np.array(masks), annotated=np.ones(len(labels), dtype=bool))


def forward_one(image, saliency, params, cfg):
    """The detector's outputs for one [3,H,W] image (and [h,w] map or None),
    as a stack of one run alone: ([N,1+C] logits, [N,4] offsets, [N,d]
    features, [H,W] top-down map) arrays."""
    from fewdet import detector as det

    out = det.forward(image[None], None if saliency is None else saliency[None],
                      params, cfg)
    return (out.logits.data[0], out.offsets.data[0], out.features.data[0],
            out.topdown.data[0])


def evaluate_detector_per_scene(params, cfg, scenes, saliency_provider=None,
                                novel_ids=(), iou_thr=0.5):
    """detector.evaluate_detector as a loop of one forward per scene."""
    from fewdet import detector as det

    anchors = det.generate_anchors(cfg.anchors)
    all_dets, all_gts = [], []
    for scene in scenes:
        sal = saliency_provider(scene) if saliency_provider else None
        logits, offsets, _, _ = forward_one(scene.image, sal, params, cfg)
        all_dets.append(det.detect(logits, offsets, anchors, params, cfg))
        all_gts.append((scene.labels, scene.boxes))
    per_class, map_all = det.evaluate_map(all_dets, all_gts, iou_thr)
    novel = set(novel_ids)
    base_aps = [ap for c, ap in per_class.items() if c not in novel]
    novel_aps = [ap for c, ap in per_class.items() if c in novel]
    return {
        "per_class_ap": {int(c): float(ap) for c, ap in sorted(per_class.items())},
        "map_all": float(map_all),
        "map_base": float(np.mean(base_aps)) if base_aps else 0.0,
        "map_novel": float(np.mean(novel_aps)) if novel_aps else 0.0,
    }


def mean_positive_cosine(params, cfg, scenes, saliency_provider=None):
    """Mean cosine similarity between positive-anchor features and their class
    rows, over all annotated objects in the given scenes."""
    from fewdet import detector as det

    anchors = det.generate_anchors(cfg.anchors)
    rows = params.cls_rows.data
    rows_hat = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    total, count = 0.0, 0
    for scene in scenes:
        if not scene.annotated.any():
            continue
        match = det.match_anchors(anchors, scene.boxes[scene.annotated],
                                  scene.labels[scene.annotated], cfg.pos_thr)
        sal = saliency_provider(scene) if saliency_provider else None
        features = forward_one(scene.image, sal, params, cfg)[2]
        pos_idx = np.where(match.positive_class > 0)[0]
        feats = features[pos_idx]
        feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        for f, cid in zip(feats, match.positive_class[pos_idx]):
            total += float(f @ rows_hat[params.row_of(int(cid))])
            count += 1
    return total / count if count else 0.0


def forward_separate_heads(image, saliency, params, cfg):
    """The detector's forward for one scene with each head's feature and
    regression convs run as two convs and flattened one by one: logits,
    offsets and features as [N,*] tensors on the active tape."""
    from fewdet import attention as att
    from fewdet import tensor as T
    from fewdet.tensor import Tensor

    t = params.tensors
    x = T.sub(T.scale(Tensor(image[None]), 2.0), Tensor(np.float64(1.0)))
    head_inputs = []
    for i in range(4):
        x = T.relu(T.conv2d(x, t[f"backbone.{i}.kernel"], t[f"backbone.{i}.bias"],
                            stride=2, padding=1))
        if i == 1:
            x, _ = att.gc_block(x, t["gc.w_k"], t["gc.w_v1"], t["gc.ln_gain"],
                                t["gc.ln_bias"], t["gc.w_v2"])
            if cfg.use_bottom_up and saliency is not None:
                x = att.fuse_bottom_up(x, saliency[None], cfg.epsilon)
        if i >= 2:
            head_inputs.append(x)

    a = cfg.num_aspects

    def flatten(y, per_anchor):
        _, _, h, w = y.data.shape
        y = T.transpose(T.reshape(y, (a, per_anchor, h, w)), (2, 3, 0, 1))
        return T.reshape(y, (h * w * a, per_anchor))

    feats, offs = [], []
    for s, xs in enumerate(head_inputs):
        f = T.conv2d(xs, t[f"head.{s}.feat.kernel"], t[f"head.{s}.feat.bias"], padding=1)
        r = T.conv2d(xs, t[f"head.{s}.reg.kernel"], t[f"head.{s}.reg.bias"], padding=1)
        feats.append(flatten(f, cfg.feat_dim))
        offs.append(flatten(r, 4))
    features, offsets = T.concat(feats, axis=0), T.concat(offs, axis=0)
    fhat = T.l2_normalize(features, axis=1)
    what = T.l2_normalize(params.cls_rows, axis=1)
    logits = T.scale(T.matmul(fhat, T.transpose(what, (1, 0))), cfg.temperature)
    return logits, offsets, features


def col2im_slices(gcols, shape, kh, kw, stride, pad, ho, wo):
    """conv2d's column scatter as kh*kw strided slice-adds onto a zeroed
    padded stack, kernel offset (i, j) in row-major order; the same
    signature as ``fewdet.tensor._col2im``."""
    b, c, h, w = shape
    gcols = gcols.reshape(b, c, kh, kw, ho, wo)
    gxp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, :, i, j]
    return gxp[:, :, pad:pad + h, pad:pad + w]
