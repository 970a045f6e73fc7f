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


def boolean_maps(image: np.ndarray, config: BmsConfig) -> np.ndarray:
    """The image's 3T boolean maps as a [3T, H*W] stack, channel-major: row
    c*T + k-1 is {value > t_k} of channel c, t_k = k/(T+1), k=1..T.

    Thresholding is strict, so a value exactly at t_k is False in map k.
    An image outside [0,1], NaN included, is a ValueError.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a [3,H,W] image, got shape {image.shape}")
    if not (image.min() >= 0.0 and image.max() <= 1.0):  # NaN fails both
        raise ValueError("image values must lie in [0,1]")
    t = config.thresholds_per_channel
    if t < 1:
        raise ValueError("thresholds_per_channel must be >= 1")
    # k/(T+1) and arange(1,T+1)/(T+1) are the same correctly rounded doubles
    thresholds = np.arange(1, t + 1) / (t + 1)
    pixels = image[0].size
    return (image.reshape(3, 1, pixels) > thresholds[:, None]).reshape(3 * t, pixels)


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

    Only the image's distinct non-trivial maps are labelled. An all-True or
    all-False map keeps no pixel, and nor does its complement. Maps repeat
    within a channel (thresholds between two adjacent pixel values give one
    map) and across channels (all three of a grey image's do), so each distinct
    map is labelled once with its complement and counted as often as it
    occurs. Maps are told apart by their packed bits. The counts are exact
    integers, so the mean is the one over all maps.
    """
    maps = boolean_maps(image, config)
    _, h, w = np.shape(image)
    packed = np.packbits(maps, axis=1)
    size = packed.shape[1]
    trivial = {bytes(size), np.packbits(np.ones(h * w, dtype=bool)).tobytes()}
    # per distinct non-trivial map, its first row and its number of copies
    first, copies = {}, {}
    for row, key in enumerate(map(bytes, packed)):
        if key not in trivial:
            first.setdefault(key, row)
            copies[key] = copies.get(key, 0) + 1
    n = len(first)
    if n == 0:
        return np.zeros((h, w))
    canvas = _ringed_canvas(2 * n, h, w)
    pairs = _maps(canvas, w).reshape(h, n, 2, w)
    pairs[:, :, 0] = maps.reshape(-1, h, w)[list(first.values())].transpose(1, 0, 2)
    np.logical_not(pairs[:, :, 0], out=pairs[:, :, 1])
    kept = _surround(canvas, config.opening_radius)
    # float32 holds every partial count exactly: each is an integer <= 3T,
    # far below 2**24
    weights = np.repeat(np.array(list(copies.values()), dtype=np.float32), 2)
    counts = np.matmul(weights, _maps(kept.view(np.uint8), w))
    return minmax_or_zeros(np.divide(counts, 3 * config.thresholds_per_channel * 2,
                                     dtype=np.float64))


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
