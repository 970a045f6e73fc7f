"""Bottom-up saliency maps: a boolean-map algorithm and a mask-based oracle.

Both producers are frozen: they are plain numpy computations that never touch
the autodiff tape, so no gradient can flow into saliency. Outputs are H x W
float maps in [0,1] at the source image's resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 4-connectivity: shared edges only, no diagonals
_CROSS = np.array([[False, True, False],
                   [True, True, True],
                   [False, True, False]])


@dataclass
class BmsConfig:
    thresholds_per_channel: int = 8
    opening_radius: int = 1  # 0 disables the opening entirely


# The labelled boolean maps of an image live on one row-major [H+2, N*(W+1)+1]
# canvas: the N maps sit side by side, framed by a True ring made of the top
# row, the bottom row and one column before each map and after the last. The
# ring is one 4-connected component, and every component that touches an
# image border joins it, so one 2-D labelling finds the surrounded regions of
# all the maps at once.

def _ringed_canvas(n: int, h: int, w: int) -> np.ndarray:
    """A canvas for n [h,w] maps whose ring is True and whose map cells are
    left for the caller to write."""
    canvas = np.empty((h + 2, n * (w + 1) + 1), dtype=bool)
    canvas[[0, -1]] = True
    canvas[:, ::w + 1] = True
    return canvas


def _maps(canvas: np.ndarray, w: int) -> np.ndarray:
    """The [H,N,W] view of the map cells of a canvas of [H,W] maps (or of an
    array of the canvas's shape)."""
    h, n = canvas.shape[0] - 2, (canvas.shape[1] - 1) // (w + 1)
    return canvas[1:-1, 1:].reshape(h, n, w + 1)[:, :, :w]


def threshold_levels(image: np.ndarray, config: BmsConfig) -> np.ndarray:
    """How many thresholds t_k = k/(T+1), k=1..T, each value exceeds.

    Thresholding is strict (value > t_k), so a value exactly at t_k stays
    below level k. Boolean map k of a channel is {level >= k} and its
    complement {level < k}. Returns a [3,H,W] integer array.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a [3,H,W] image, got shape {image.shape}")
    if not (image.min() >= 0.0 and image.max() <= 1.0):  # NaN fails both
        raise ValueError("image values must lie in [0,1]")
    t = config.thresholds_per_channel
    if t < 1:
        raise ValueError("thresholds_per_channel must be >= 1")
    # the maps' own compares, added in place: a [3,H,W,T] compare and sum
    # costs several times more
    level = np.zeros(image.shape, dtype=np.min_scalar_type(t))
    for k in range(1, t + 1):
        level += image > k / (t + 1)
    return level


def _surround(canvas: np.ndarray, opening_radius: int) -> np.ndarray:
    """Overwrite a ringed canvas with its maps' surrounded regions: drop the
    4-connected components that touch a map's border, then apply a
    cross-shaped opening of the given radius. Returns the canvas."""
    # imported where a map is first labelled: scipy.ndimage would cost a
    # process that labels none, such as the gradient check, tens of MB
    from scipy import ndimage

    # scipy numbers components in raster order: the ring holds the first
    # pixel, so it is component 1 and every surrounded component is above it
    np.greater(ndimage.label(canvas, structure=_CROSS)[0], 1, out=canvas)
    # the cross opening: r erosions, then r dilations, cells off the canvas
    # counting as False. The ring is False now; after r erosions every True
    # cell lies more than r cells from it, so r dilations leave it False and
    # no map leaks into its neighbour
    before = np.empty_like(canvas)
    for op in (np.logical_and, np.logical_or):
        for _ in range(opening_radius):
            np.copyto(before, canvas)
            for out, neighbour in ((canvas[1:], before[:-1]), (canvas[:-1], before[1:]),
                                   (canvas[:, 1:], before[:, :-1]),
                                   (canvas[:, :-1], before[:, 1:])):
                op(out, neighbour, out=out)
    return canvas


def surroundedness(bmap: np.ndarray, opening_radius: int = 1) -> np.ndarray:
    """Keep only enclosed regions: drop 4-connected components touching the
    border, then apply a cross-shaped morphological opening of the configured
    radius.

    Takes one [H,W] map or an [N,H,W] stack of maps. The maps are laid out on
    one ringed canvas and labelled in one pass; each map is processed
    independently of the others.
    """
    bmap = np.asarray(bmap, dtype=bool)
    stack = bmap[None] if bmap.ndim == 2 else bmap
    n, h, w = stack.shape
    canvas = _ringed_canvas(n, h, w)
    _maps(canvas, w)[...] = stack.transpose(1, 0, 2)
    kept = _surround(canvas, opening_radius)
    return _maps(kept, w).transpose(1, 0, 2).reshape(bmap.shape)


def bms_saliency(image: np.ndarray, config: BmsConfig) -> np.ndarray:
    """Mean surroundedness over all 3*T*2 boolean maps, min-max normalized.

    A constant mean map (e.g. from a constant image, where no boolean map has
    an enclosed region) normalizes to all zeros.

    The maps of a channel are nested, so only its distinct non-trivial ones
    are labelled. With present levels L_0 < ... < L_m, maps k <= L_0 are
    all-True and maps k > L_m all-False: neither they nor their complements
    keep a pixel. Maps L_{j-1} < k <= L_j all equal {level >= L_j}, which
    with its complement is labelled once and counted L_j - L_{j-1} times.
    Maps also repeat across channels (all three of a grey image's do), so
    each distinct map of the image is labelled once and counted as often as
    all its copies together. A map's pixel count, the sum of its channel's
    histogram from L_j up, is known without building it, and only maps of
    equal count are compared pixel by pixel. The counts are exact integers,
    so the mean is the one over all maps.
    """
    level = threshold_levels(image, config)
    _, h, w = level.shape
    # per channel, the levels of its maps that no earlier channel had; per
    # distinct map, its multiplicity; per pixel count, the (slot, channel,
    # level) of the distinct maps of that count
    fresh, weights, by_size = [], [], {}
    for channel in level:
        hist = np.bincount(channel.ravel())
        present = np.flatnonzero(hist).tolist()
        sizes = np.add.accumulate(hist[::-1])[::-1].tolist()
        fresh.append([])
        # a channel's map sizes strictly fall, so its own maps never tie
        for low, high in zip(present, present[1:]):
            same = by_size.setdefault(sizes[high], [])
            twin = next((slot for slot, other, at in same
                         if np.array_equal(channel >= high, other >= at)), None)
            if twin is None:
                same.append((len(weights), channel, high))
                weights.append(high - low)
                fresh[-1].append(high)
            else:
                weights[twin] += high - low
    n = len(weights)
    if n == 0:
        return np.zeros((h, w))
    canvas = _ringed_canvas(2 * n, h, w)
    pairs = _maps(canvas, w).reshape(h, n, 2, w)
    i = 0
    for channel, levels in zip(level, fresh):
        np.greater_equal(channel[:, None],
                         np.array(levels, dtype=channel.dtype)[:, None],
                         out=pairs[:, i:i + len(levels), 0])
        i += len(levels)
    np.logical_not(pairs[:, :, 0], out=pairs[:, :, 1])
    kept = _surround(canvas, config.opening_radius)
    counts = np.matmul(np.repeat(weights, 2), _maps(kept.view(np.uint8), w))
    return minmax_or_zeros(counts / (3 * config.thresholds_per_channel * 2))


def box_blur(m: np.ndarray) -> np.ndarray:
    """3x3 box blur with edge replication.

    All-zero and all-one maps pass through exactly (their window sums are
    small integers, so the division by 9 is lossless).
    """
    padded = np.pad(m, 1, mode="edge")
    acc = np.zeros_like(m)
    for di in range(3):
        for dj in range(3):
            acc += padded[di:di + m.shape[0], dj:dj + m.shape[1]]
    return acc / 9.0


def oracle_saliency(scene, blur_radius: int = 2) -> np.ndarray:
    """Ground-truth saliency for synthetic scenes: the union of the scene's
    [M,H,W] object masks (annotated or not), box-blurred blur_radius times, then min-max
    normalized. Constant maps are returned unchanged, so an empty scene gives
    zeros and a full-frame object gives ones."""
    masks = scene.masks
    if masks is None or masks.ndim != 3 or masks.shape[1:] != scene.image.shape[1:]:
        raise ValueError("scene lacks an [M,H,W] stack of instance masks")
    union = masks.any(axis=0).astype(np.float64)
    for _ in range(blur_radius):
        union = box_blur(union)
    return minmax_or_zeros(union) if union.max() > union.min() else union


def minmax_or_zeros(m: np.ndarray) -> np.ndarray:
    """Rescale a map linearly onto [0,1]; a constant map becomes all zeros."""
    lo, hi = np.minimum.reduce(m, None), np.maximum.reduce(m, None)
    if hi > lo:
        return (m - lo) / (hi - lo)
    return np.zeros_like(m)
