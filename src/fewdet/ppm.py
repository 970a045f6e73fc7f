"""Binary PPM (P6) image output, the repository's only raster format."""

from __future__ import annotations

import numpy as np

from .atomic import atomic_open


def write_ppm(path, image: np.ndarray) -> None:
    """Write an image as 8-bit binary PPM.

    Accepts [3,H,W] color or [H,W] grayscale float arrays in [0,1]; values
    map to bytes by round(255 * v). Grayscale is replicated to RGB triples.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        image = np.stack([image] * 3)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected [3,H,W] or [H,W] image, got shape {image.shape}")
    if image.min() < 0.0 or image.max() > 1.0:
        raise ValueError("pixel values must lie in [0,1]")
    h, w = image.shape[1:]
    data = np.rint(image * 255.0).astype(np.uint8).transpose(1, 2, 0)
    with atomic_open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM written by :func:`write_ppm` back to [3,H,W] floats."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(b"\n", 3)
    if parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError("not an 8-bit binary PPM")
    w, h = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3][:w * h * 3], dtype=np.uint8)
    return pixels.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0
