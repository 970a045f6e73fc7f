"""Global-context attention with saliency fusion at one backbone stage.

The top-down half is a lightweight global-context block: a 1x1 conv scores
every position, a spatial softmax turns the scores into an attention map, the
map pools the features into one context vector, and a bottleneck transform of
that vector is added back residually at every position.

The bottom-up half multiplies the features channel-wise by ln(eps + s), where
s is an externally computed saliency map. The gate depends on the image
alone, so it is built once per scene or batch, apart from the forward that
applies it. Saliency never carries gradients; with eps = e and zero saliency
the gate is exactly ln(e) = 1 and the features pass through bit-identically.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .saliency import minmax_or_zeros
from .tensor import Tensor


def bottleneck_width(channels: int, ratio: int = 4) -> int:
    return max(1, channels // ratio)


def init_gc_params(rng: np.random.Generator, channels: int,
                   bottleneck_ratio: int = 4) -> dict[str, Tensor]:
    """Fresh block parameters for a C-channel stage, named as gc_block's
    arguments: w_k [1,C,1,1] scores positions; w_v1 [C_b,C,1,1] and w_v2
    [C,C_b,1,1] are the bottleneck's down and up projections; ln_gain and
    ln_bias [C_b] parameterize the normalization between them. w_v2 starts
    at zero, so the block starts as an identity."""
    cb = bottleneck_width(channels, bottleneck_ratio)
    w_k = rng.standard_normal((1, channels, 1, 1)) / math.sqrt(channels)
    w_v1 = rng.standard_normal((cb, channels, 1, 1)) * math.sqrt(2.0 / channels)
    arrays = {"w_k": w_k, "w_v1": w_v1, "ln_gain": np.ones(cb),
              "ln_bias": np.zeros(cb), "w_v2": np.zeros((channels, cb, 1, 1))}
    return {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}


def topdown_map(features: Tensor, w_k: Tensor) -> Tensor:
    """Soft attention maps over positions: per sample, the spatial softmax
    of 1x1-conv scores. [B,C,H,W] features -> [B,H,W] maps."""
    if features.data.ndim != 4:
        raise T.ShapeError(f"expected [B,C,H,W] features, got {features.shape}")
    b, _, h, w = features.shape
    logits = T.conv2d(features, w_k)
    return T.softmax_spatial(T.reshape(logits, (b, h, w)))


def global_context(features: Tensor, h: Tensor) -> Tensor:
    """Attention-weighted spatial pooling: y'[b,c] = sum_ij y[b,c,i,j] * h[b,i,j]."""
    b = features.data.shape[0]
    if features.data.ndim != 4 or h.data.shape != (b,) + features.data.shape[2:]:
        raise T.ShapeError(
            f"feature map {features.shape} does not match attention map {h.shape}")
    return T.sum_axes(T.mul(features, T.reshape(h, (b, 1) + h.data.shape[1:])), (2, 3))


def gc_block(features: Tensor, w_k: Tensor, w_v1: Tensor, ln_gain: Tensor,
             ln_bias: Tensor, w_v2: Tensor) -> tuple[Tensor, Tensor]:
    """Residual global-context transform: z = y + W_v2 ReLU(LN(W_v1 y')),
    per sample of a [B,C,H,W] stack.

    Returns (z, h): the transformed features and the [B,H,W] top-down
    attention maps that pooled them into y'. The bottleneck output is one
    C-vector per sample, broadcast to every position, so with w_v2 = 0 the
    block returns the features unchanged.
    """
    b, c = features.data.shape[:2]
    cb = w_v1.data.shape[0]
    h = topdown_map(features, w_k)
    y = global_context(features, h)
    t = T.reshape(T.matmul(T.reshape(w_v1, (cb, c)), T.reshape(y, (b, c, 1))), (b, cb))
    t = T.relu(T.layer_norm(t, ln_gain, ln_bias))
    u = T.matmul(T.reshape(w_v2, (c, cb)), T.reshape(t, (b, cb, 1)))
    return T.add(features, T.reshape(u, (b, c, 1, 1))), h


def pool_saliency(saliency: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Average-pool a saliency map to out_h x out_w, then re-min-max-normalize.

    Pooling requires integer downscale factors. A constant pooled map
    normalizes to all zeros.
    """
    s = np.asarray(saliency, dtype=np.float64)
    if s.ndim != 2:
        raise T.ShapeError(f"saliency must be 2-d, got shape {s.shape}")
    hs, ws = s.shape
    if (hs, ws) != (out_h, out_w):
        if hs % out_h or ws % out_w:
            raise T.ShapeError(
                f"cannot pool {hs}x{ws} saliency to {out_h}x{out_w}: "
                "non-integer factor")
        fh, fw = hs // out_h, ws // out_w
        s = s.reshape(out_h, fh, out_w, fw).mean(axis=(1, 3))
    return minmax_or_zeros(s)


def bottom_up_gate(maps: np.ndarray, epsilon: float = math.e) -> Tensor:
    """The bottom-up gate ln(eps + s) of a [B,h,w] stack of saliency maps,
    as a constant [B,1,h,w] Tensor for :func:`fuse_bottom_up`.

    The maps are :func:`pool_saliency`'s: pooled to the fusion grid and
    min-max normalized. The gate depends on the maps alone, so a caller
    builds it once per scene or batch and hands it to every forward over
    those images.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if np.ndim(maps) != 3:
        raise T.ShapeError(f"expected a [B,h,w] saliency stack, got shape {np.shape(maps)}")
    return Tensor(np.log(epsilon + np.asarray(maps, dtype=np.float64))[:, None])


def fuse_bottom_up(z: Tensor, gate: Tensor) -> Tensor:
    """Gate features by saliency: z'[b,c,i,j] = z[b,c,i,j] * gate[b,0,i,j].

    ``gate`` is :func:`bottom_up_gate`'s [B,1,h,w] tensor for the B samples
    of z, at z's resolution. It enters as a constant: gradients flow into z
    only.
    """
    if z.data.ndim != 4 or gate.data.shape != (z.data.shape[0], 1) + z.data.shape[2:]:
        raise T.ShapeError(f"expected [B,C,H,W] features and a [B,1,H,W] gate, got "
                           f"{z.data.shape} and {gate.data.shape}")
    return T.mul(z, gate)


def upsample_nearest(map2d: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor upscale of a 2-d map for rendering."""
    h, w = map2d.shape
    if out_h % h or out_w % w:
        raise T.ShapeError(f"cannot upsample {h}x{w} to {out_h}x{out_w}")
    return np.repeat(np.repeat(map2d, out_h // h, axis=0), out_w // w, axis=1)
