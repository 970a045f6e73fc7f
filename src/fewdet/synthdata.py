"""Seeded synthetic detection scenes with base/novel class splits.

Eight classes arise from four shapes (circle, square, triangle, bar) crossed
with two color families that share their palettes across shapes: color alone
identifies the family, shape alone the silhouette, and only the pair pins the
class. Every scene carries per-instance masks whose tight bounding box is the
annotation, so oracle saliency and box supervision agree exactly.

Benchmarks come in three fixed splits, each declaring a disjoint pair of
classes "novel". Base-training scenes keep novel objects in the pixels but
mark them unannotated; test scenes are fully annotated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .detector import iou_matrix
from .ppm import write_ppm


class GenerationError(Exception):
    """Object placement failed under the configured overlap cap."""


SHAPES = ("circle", "square", "triangle", "bar")
NUM_CLASSES = 8

# Two palettes shared by all four shapes; values stay well above the
# background band (<= 0.40) so objects are conspicuous.
_PALETTES = (
    ((0.85, 0.25, 0.20), (0.90, 0.55, 0.15), (0.80, 0.20, 0.50)),  # warm
    ((0.20, 0.40, 0.85), (0.15, 0.70, 0.65), (0.50, 0.25, 0.80)),  # cool
)

# split id -> novel class pair; pairwise disjoint across the three splits
_SPLIT_NOVEL = {1: (1, 4), 2: (3, 6), 3: (5, 8)}


def class_id_of(shape_index: int, family: int) -> int:
    return 1 + shape_index * 2 + family


def shape_of(class_id: int) -> tuple[int, int]:
    """class id -> (shape index, color family)."""
    if not 1 <= class_id <= NUM_CLASSES:
        raise ValueError(f"class id {class_id} out of range")
    return (class_id - 1) // 2, (class_id - 1) % 2


@dataclass(frozen=True)
class SplitSpec:
    categories: tuple[int, ...]
    novel: tuple[int, ...]
    split_id: int

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(c for c in self.categories if c not in self.novel)


def make_split(split_id: int) -> SplitSpec:
    if split_id not in _SPLIT_NOVEL:
        raise ValueError(f"split id must be one of {sorted(_SPLIT_NOVEL)}")
    return SplitSpec(categories=tuple(range(1, NUM_CLASSES + 1)),
                     novel=_SPLIT_NOVEL[split_id], split_id=split_id)


@dataclass
class Scene:
    """One image and its M object instances, one array row per instance."""

    image: np.ndarray      # float64 [3,S,S] in [0,1]
    boxes: np.ndarray      # float64 [M,4] center form, each its mask's tight bound
    labels: np.ndarray     # int64 [M] class ids
    masks: np.ndarray      # bool [M,S,S]
    annotated: np.ndarray  # bool [M]

    @classmethod
    def empty(cls, image: np.ndarray) -> "Scene":
        """A scene of ``image`` with no objects."""
        return cls(image, np.zeros((0, 4)), np.zeros(0, dtype=np.int64),
                   np.zeros((0, *image.shape[1:]), dtype=bool), np.zeros(0, dtype=bool))


@dataclass(frozen=True)
class GenConfig:
    image_size: int = 64
    min_objects: int = 1
    max_objects: int = 4
    size_range: tuple[int, int] = (12, 22)  # longer side, pixels
    overlap_cap: float = 0.3
    allow_empty: bool = False
    max_place_attempts: int = 100


def _tight_box(mask: np.ndarray, size: int) -> np.ndarray:
    """The mask's tight bounding box as a center-form [4] row."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    r0, r1 = rows[0], rows[-1]
    c0, c1 = cols[0], cols[-1]
    return np.array([(c0 + c1 + 1) / (2 * size), (r0 + r1 + 1) / (2 * size),
                     (c1 + 1 - c0) / size, (r1 + 1 - r0) / size])


def _rasterize(shape_index: int, rng: np.random.Generator,
               cfg: GenConfig) -> np.ndarray | None:
    """Draw one shape somewhere inside the frame; None if it came out empty."""
    s = cfg.image_size
    lo, hi = cfg.size_range
    extent = rng.uniform(lo, hi)
    yy, xx = np.mgrid[0:s, 0:s] + 0.5  # pixel centers
    margin = extent / 2 + 1.0

    def center():
        return (rng.uniform(margin, s - margin), rng.uniform(margin, s - margin))

    shape = SHAPES[shape_index]
    if shape == "circle":
        cx, cy = center()
        r = extent / 2
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    elif shape == "square":
        cx, cy = center()
        half = extent / 2
        mask = (np.abs(xx - cx) <= half) & (np.abs(yy - cy) <= half)
    elif shape == "triangle":
        cx, cy = center()
        w, h = extent, 0.9 * extent
        ax, ay = cx, cy - h / 2          # apex
        bx, by = cx - w / 2, cy + h / 2  # base left
        dx, dy = cx + w / 2, cy + h / 2  # base right

        def side(px, py, qx, qy):
            return (qx - px) * (yy - py) - (qy - py) * (xx - px)

        # vertices wind counterclockwise in image coordinates (y down)
        mask = (side(ax, ay, bx, by) <= 0) & (side(bx, by, dx, dy) <= 0) \
            & (side(dx, dy, ax, ay) <= 0)
    else:  # bar: wide thin rectangle
        w = extent
        h = max(3.0, extent / 3.0)
        cx = rng.uniform(w / 2 + 1, s - w / 2 - 1)
        cy = rng.uniform(h / 2 + 1, s - h / 2 - 1)
        mask = (np.abs(xx - cx) <= w / 2) & (np.abs(yy - cy) <= h / 2)
    return mask if mask.any() else None


def _background(rng: np.random.Generator, size: int) -> np.ndarray:
    base = rng.uniform(0.08, 0.30, size=3)
    coarse = rng.uniform(-1.0, 1.0, size=(3, 8, 8))
    reps = size // 8
    texture = np.repeat(np.repeat(coarse, reps, axis=1), reps, axis=2) * 0.04
    fine = rng.uniform(-1.0, 1.0, size=(3, size, size)) * 0.02
    return np.clip(base[:, None, None] + texture + fine, 0.02, 0.40)


def generate_scene(seed, cfg: GenConfig = GenConfig()) -> Scene:
    """One scene, fully determined by the seed: textured background plus 1-4
    colored shape instances with pairwise box IoU <= the overlap cap."""
    rng = np.random.default_rng(seed)
    size = cfg.image_size
    if size % 8:
        raise ValueError("image_size must be a multiple of 8")
    image = _background(rng, size)

    if cfg.max_objects == 0:
        if not cfg.allow_empty:
            raise GenerationError("max_objects=0 requires allow_empty")
        return Scene.empty(image)

    n_objects = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    labels, masks = [], []
    boxes = np.zeros((0, 4))
    for _ in range(n_objects):
        class_id = int(rng.integers(1, NUM_CLASSES + 1))
        shape_index, family = shape_of(class_id)
        palette = _PALETTES[family]
        color = np.array(palette[int(rng.integers(len(palette)))])
        color = np.clip(color + rng.uniform(-0.04, 0.04, size=3), 0.45, 1.0)

        for attempt in range(cfg.max_place_attempts):
            mask = _rasterize(shape_index, rng, cfg)
            if mask is None:
                continue
            box = _tight_box(mask, size)[None]
            if np.all(iou_matrix(box, boxes) <= cfg.overlap_cap):
                break
        else:
            raise GenerationError(
                f"could not place object {len(labels) + 1} of {n_objects} "
                f"after {cfg.max_place_attempts} attempts")
        image[:, mask] = color[:, None]
        labels.append(class_id)
        masks.append(mask)
        boxes = np.concatenate([boxes, box])

    return Scene(image=image, boxes=boxes, labels=np.array(labels, dtype=np.int64),
                 masks=np.array(masks, dtype=bool).reshape(-1, size, size),
                 annotated=np.ones(len(labels), dtype=bool))


@dataclass
class Benchmark:
    split: SplitSpec
    base_train: list[Scene]
    novel_pool: list[Scene]
    test: list[Scene]


DEFAULT_SIZES = (400, 200, 200)


def build_benchmark(seed: int, split: SplitSpec,
                    sizes: tuple[int, int, int] = DEFAULT_SIZES,
                    cfg: GenConfig = GenConfig()) -> Benchmark:
    """Three scene sets from one seed: base-train scenes hide novel-class
    annotations (the objects stay in the pixels), the pool and test set are
    fully annotated."""
    if any(s <= 0 for s in sizes):
        raise ValueError("all subset sizes must be positive")
    root = np.random.SeedSequence([int(seed), split.split_id])
    subsets = []
    for subset_seq, count in zip(root.spawn(3), sizes):
        subsets.append([generate_scene(s, cfg) for s in subset_seq.spawn(count)])
    base_train, novel_pool, test = subsets

    for scene in base_train:
        scene.annotated = ~np.isin(scene.labels, split.novel)
    return Benchmark(split=split, base_train=base_train,
                     novel_pool=novel_pool, test=test)


def class_instance_index(scenes: list[Scene]) -> dict[int, list[tuple[int, int]]]:
    """class id -> [(scene index, object index)] over all objects."""
    index: dict[int, list[tuple[int, int]]] = {}
    for s_i, scene in enumerate(scenes):
        for o_i, class_id in enumerate(scene.labels.tolist()):
            index.setdefault(class_id, []).append((s_i, o_i))
    return index


def dump_scene(scene: Scene, directory, name: str) -> None:
    """Optional corpus export: <name>.ppm plus a JSON annotation sidecar."""
    write_ppm(f"{directory}/{name}.ppm", scene.image)
    doc = {"objects": [
        {"class": label, "box": box, "annotated": annotated}
        for label, box, annotated in zip(scene.labels.tolist(), scene.boxes.tolist(),
                                         scene.annotated.tolist())]}
    with atomic_open(f"{directory}/{name}.json") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
