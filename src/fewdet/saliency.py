"""Bottom-up saliency maps: a boolean-map algorithm and a mask-based oracle.

Both producers are frozen: they are plain numpy computations that never touch
the autodiff tape, so no gradient can flow into saliency. Outputs are H x W
float maps in [0,1] at the source image's resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

# 4-connectivity: shared edges only, no diagonals
_CROSS = ndimage.generate_binary_structure(2, 1)
# the same cross in the middle plane of a 3x3x3 structure: labelling an
# [N,H,W] stack with it never connects two maps
_STACK_CROSS = np.zeros((3, 3, 3), dtype=bool)
_STACK_CROSS[1] = _CROSS


@dataclass
class BmsConfig:
    thresholds_per_channel: int = 8
    opening_radius: int = 1  # 0 disables the opening entirely


def boolean_maps(image: np.ndarray, config: BmsConfig) -> np.ndarray:
    """Threshold each channel at t_k = k/(T+1), k=1..T; emit map and complement.

    Thresholding is strict (value > t_k), so pixels exactly at a threshold
    fall into the complement. Returns a [3*T*2, H, W] boolean stack,
    channel-major, then threshold, map before complement.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a [3,H,W] image, got shape {image.shape}")
    if image.min() < 0.0 or image.max() > 1.0:
        raise ValueError("image values must lie in [0,1]")
    t = config.thresholds_per_channel
    if t < 1:
        raise ValueError("thresholds_per_channel must be >= 1")
    thresholds = np.arange(1, t + 1) / (t + 1)
    above = image[:, None] > thresholds[None, :, None, None]  # [3,T,H,W]
    return np.stack([above, ~above], axis=2).reshape(-1, *image.shape[1:])


def surroundedness(bmap: np.ndarray, opening_radius: int = 1) -> np.ndarray:
    """Keep only enclosed regions: drop 4-connected components touching the
    border, then apply a cross-shaped morphological opening of the configured
    radius.

    Takes one [H,W] map or an [N,H,W] stack of maps. A stack is labelled in
    one pass with a structure that connects pixels within a map only, so
    every map is processed independently of the others.
    """
    bmap = np.asarray(bmap, dtype=bool)
    stack = bmap[None] if bmap.ndim == 2 else bmap
    labels, n = ndimage.label(stack, structure=_STACK_CROSS)
    touching = np.zeros(n + 1, dtype=bool)
    touching[0] = True  # background
    for edge in (labels[:, 0], labels[:, -1], labels[:, :, 0], labels[:, :, -1]):
        touching[edge] = True
    kept = ~touching[labels]
    for _ in range(opening_radius):
        kept = _cross_erode(kept)
    for _ in range(opening_radius):
        kept = _cross_dilate(kept)
    return kept.reshape(bmap.shape)


def _cross_erode(stack: np.ndarray) -> np.ndarray:
    """Erosion of every [H,W] plane by _CROSS, pixels outside counting as
    False. The edge rows and columns must already be False (surroundedness
    has removed everything touching the border), so they stay False."""
    out = stack.copy()
    out[:, 1:] &= stack[:, :-1]
    out[:, :-1] &= stack[:, 1:]
    out[:, :, 1:] &= stack[:, :, :-1]
    out[:, :, :-1] &= stack[:, :, 1:]
    return out


def _cross_dilate(stack: np.ndarray) -> np.ndarray:
    """Dilation of every [H,W] plane by _CROSS."""
    out = stack.copy()
    out[:, 1:] |= stack[:, :-1]
    out[:, :-1] |= stack[:, 1:]
    out[:, :, 1:] |= stack[:, :, :-1]
    out[:, :, :-1] |= stack[:, :, 1:]
    return out


def bms_saliency(image: np.ndarray, config: BmsConfig) -> np.ndarray:
    """Mean surroundedness over all boolean maps, min-max normalized.

    A constant mean map (e.g. from a constant image, where no boolean map has
    an enclosed region) normalizes to all zeros.
    """
    maps = boolean_maps(image, config)
    counts = surroundedness(maps, config.opening_radius).sum(axis=0)
    return minmax_or_zeros(counts / len(maps))


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
    lo, hi = m.min(), m.max()
    if hi > lo:
        return (m - lo) / (hi - lo)
    return np.zeros_like(m)
