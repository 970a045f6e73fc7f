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
