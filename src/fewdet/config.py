"""The config schema: every key's default and bound in one table, a run's
settings resolved from the defaults, a JSON config file and ``--set``
overrides and then checked, and the builders that turn settings into the
detector, training, loss and saliency objects the pipeline runs with."""

from __future__ import annotations

import json
import math
import weakref

import numpy as np

from . import attention as att
from . import detector as det
from . import fewshot as fs
from . import saliency as sal
from . import synthdata as sd
from . import tensor as T


class UsageError(Exception):
    """Bad invocation: unknown key, missing artifact, mismatched metadata."""


# key -> (default, bound). The bound is at once the range test, the tail of
# the key's error line and README's bound cell: ">= x", "> x", an interval
# such as "in [0,1)", "multiple of n" and an interval, "known" for split
# ids, a string key's quoted choices, or None where only the blank-detector
# probe can judge the value. A list key's bound applies to every item, so a
# sweep grid is checked before its first cell trains.
KEYS: dict[str, tuple[object, str | None]] = {
    "seed": (0, ">= 0"),
    "data.split": (1, "known"),
    "data.base_train": (200, ">= 1"),
    "data.novel_pool": (40, ">= 1"),
    "data.test": (200, ">= 1"),
    # scenes are drawn on an 8x8 texture grid, and objects 12-22 px long
    # often fail to place on sides below 32
    "detector.image_size": (64, "multiple of 8 in [32,1024]"),
    "detector.backbone_channels": ([8, 16, 24, 32], ">= 1"),
    "detector.feat_dim": (16, ">= 1"),
    "detector.bottleneck_ratio": (4, ">= 1"),
    "detector.temperature": (10.0, "> 0"),
    "detector.pos_thr": (0.5, "in (0,1)"),
    "detector.neg_pos_ratio": (3, ">= 0"),
    "detector.alpha": (1.0, ">= 0"),
    "detector.use_bottom_up": (True, None),
    "detector.epsilon": (math.e, "> 0"),
    "detector.nms_iou": (0.45, "in (0,1)"),
    "detector.score_thr": (0.05, ">= 0"),
    "detector.top_k": (50, ">= 1"),
    "anchors.map_sizes": ([[8, 8], [4, 4]], None),
    "anchors.scales": ([0.2, 0.42], "> 0"),
    "anchors.aspects": ([1.0, 2.0, 0.5], "> 0"),
    # checked as well as in full_saliency: with bottom-up off the mode is
    # never read before render-attention, but it is stored all the same
    "saliency.mode": ("bms", "'bms' or 'oracle'"),
    # each radius is a loop's round count, and BMS draws 3 maps per threshold
    "saliency.blur_radius": (2, "in [0,255]"),
    "saliency.thresholds_per_channel": (8, "in [1,255]"),
    "saliency.opening_radius": (1, "in [0,255]"),
    "base.epochs": (60, ">= 0"),
    "base.batch_size": (1, ">= 1"),
    "base.lr": (0.01, "> 0"),
    "base.momentum": (0.9, "in [0,1)"),
    "base.weight_decay": (0.0, ">= 0"),
    "base.lr_decay_epochs": ([45], ">= 0"),
    "base.lr_decay": (0.3, "> 0"),
    "base.clip_norm": (5.0, ">= 0"),
    "novel.epochs": (40, ">= 0"),
    "novel.batch_size": (1, ">= 1"),
    "novel.lr": (0.002, "> 0"),
    "novel.momentum": (0.9, "in [0,1)"),
    "novel.weight_decay": (0.0, ">= 0"),
    "novel.lr_decay_epochs": ([30], ">= 0"),
    "novel.lr_decay": (0.3, "> 0"),
    "novel.clip_norm": (5.0, ">= 0"),
    "novel.k": (2, ">= 1"),
    "novel.base_multiplier": (3, ">= 0"),
    "novel.alpha": (1.0, ">= 0"),
    "novel.beta": (2.0, ">= 0"),
    "novel.eta": (0.4, ">= 0"),
    "novel.gamma": (0.5, ">= 0"),
    "render.scene_seed": (0, ">= 0"),
    "gradcheck.points": (10, ">= 1"),
    "sweep.beta": ([2.0], ">= 0"),
    "sweep.eta": ([0.4], ">= 0"),
    "sweep.epsilon": ([math.e], "> 0"),
    "sweep.gamma": ([0.5], ">= 0"),
    "sweep.k": ([2], ">= 1"),
    "sweep.split": ([1], "known"),
    "sweep.seeds": ([7, 8, 9], ">= 0"),
}

DEFAULTS: dict[str, object] = {key: default for key, (default, _) in KEYS.items()}

# the key groups a checkpoint stores and a detector is built from
ARCHITECTURE = ("detector", "anchors", "saliency")


def resolve_config(config_path: str | None, sets: list[str]) -> dict[str, object]:
    """defaults < config file < --set overrides; unknown keys are rejected."""
    cfg = dict(DEFAULTS)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"config file not found: {config_path}")
        except json.JSONDecodeError as e:
            raise UsageError(f"config file is not valid JSON: {e}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        for key in loaded:
            if key not in DEFAULTS:
                raise UsageError(f"unknown config key {key!r}")
        cfg.update(loaded)
    for item in sets:
        key, sep, raw = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects key=value, got {item!r}")
        if key not in DEFAULTS:
            raise UsageError(f"unknown config key {key!r}")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    validate_config(cfg)
    return cfg


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _fits(value, default) -> bool:
    """Whether a config value has the JSON type of the key's default; a
    list's items are checked against the default's first item."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return is_int(value)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    return isinstance(value, type(default))


def _finite(value) -> bool:
    """Whether every number in a config value is finite: the snapshot is
    strict JSON, which has no NaN or infinity."""
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _in_bound(value, bound: str) -> bool:
    """Whether one value, or one item of a list key, is within a bound."""
    if bound == "known":
        try:
            sd.make_split(value)
        except ValueError:
            return False
        return True
    if bound.startswith("'"):
        return f"'{value}'" in bound.split(" or ")
    if bound.startswith("multiple of "):
        step, interval = bound[len("multiple of "):].split(" ", 1)
        return value % int(step) == 0 and _in_bound(value, interval)
    if bound.startswith("in "):
        lo, hi = (float(x) for x in bound[4:-1].split(","))
        return (lo <= value if bound[3] == "[" else lo < value) and \
            (value <= hi if bound[-1] == "]" else value < hi)
    op, limit = bound.split()
    return value >= float(limit) if op == ">=" else value > float(limit)


def _requirement(key: str) -> str:
    """What a bounded key's value must be, as its error line says: a noun
    from the type of the key's default, then the bound."""
    default, bound = KEYS[key]
    many = isinstance(default, list)
    item = default[0] if many else default
    if isinstance(item, str):
        return bound
    if bound == "known":
        noun, tail = "known split id", ""
    else:
        noun, tail = "integer" if isinstance(item, int) else "number", f" {bound}"
    if many:
        return f"a list of {noun}s{tail}"
    return f"{'an' if noun == 'integer' else 'a'} {noun}{tail}"


def validate_config(cfg: dict[str, object]) -> None:
    """Reject values the pipeline cannot run with, naming the key: a value
    whose JSON type differs from its default's, a NaN or infinity, one
    outside its key's bound, or architecture settings whose detector cannot
    be built and run once on a blank scene."""
    for key, (default, bound) in KEYS.items():
        value = cfg[key]
        if not _fits(value, default):
            raise UsageError(f"{key} must have the type of its default "
                             f"{json.dumps(default)}, got {json.dumps(value)}")
        if not _finite(value):
            raise UsageError(f"{key} must be finite, got {json.dumps(value)}")
        items = value if isinstance(value, list) else [value]
        if bound is not None and not all(_in_bound(v, bound) for v in items):
            raise UsageError(f"{key} must be {_requirement(key)}, got {json.dumps(value)}")
    try:
        dcfg = detector_config(cfg)
        side = dcfg.image_size
        blank = sd.Scene.empty(np.zeros((3, side, side)))
        provider = saliency_provider(cfg, dcfg)
        det.generate_anchors(dcfg.anchors)
        params = det.init_detector_params(dcfg, [1], np.random.default_rng(0))
        det.forward(blank.image[None],
                    det.saliency_gate(provider(blank)[None] if provider else None, dcfg),
                    params, dcfg)
    except (T.TensorError, ValueError, ArithmeticError, MemoryError) as e:
        changed = [f"{k}={json.dumps(v)}" for k, v in cfg.items()
                   if k.split(".")[0] in ARCHITECTURE and v != DEFAULTS[k]]
        raise UsageError(f"the settings {', '.join(changed) or '(defaults)'} do not "
                         f"describe a working detector: {e}")


def detector_config(cfg: dict[str, object]) -> det.DetectorConfig:
    anchors = det.AnchorConfig(
        map_sizes=tuple(tuple(int(v) for v in ms) for ms in cfg["anchors.map_sizes"]),
        scales=tuple(float(s) for s in cfg["anchors.scales"]),
        aspects=tuple(float(a) for a in cfg["anchors.aspects"]))
    return det.DetectorConfig(
        image_size=int(cfg["detector.image_size"]),
        backbone_channels=tuple(int(c) for c in cfg["detector.backbone_channels"]),
        feat_dim=int(cfg["detector.feat_dim"]),
        bottleneck_ratio=int(cfg["detector.bottleneck_ratio"]),
        anchors=anchors,
        temperature=float(cfg["detector.temperature"]),
        pos_thr=float(cfg["detector.pos_thr"]),
        neg_pos_ratio=int(cfg["detector.neg_pos_ratio"]),
        alpha=float(cfg["detector.alpha"]),
        use_bottom_up=bool(cfg["detector.use_bottom_up"]),
        epsilon=float(cfg["detector.epsilon"]),
        nms_iou=float(cfg["detector.nms_iou"]),
        score_thr=float(cfg["detector.score_thr"]),
        top_k=int(cfg["detector.top_k"]))


def train_config(cfg: dict[str, object], stage: str) -> fs.TrainConfig:
    g = lambda name: cfg[f"{stage}.{name}"]
    return fs.TrainConfig(
        epochs=int(g("epochs")), batch_size=int(g("batch_size")),
        lr=float(g("lr")), momentum=float(g("momentum")),
        weight_decay=float(g("weight_decay")),
        lr_decay_epochs=tuple(int(e) for e in g("lr_decay_epochs")),
        lr_decay=float(g("lr_decay")), clip_norm=float(g("clip_norm")))


def hyperparams(cfg: dict[str, object]) -> fs.Hyperparams:
    return fs.Hyperparams(
        alpha=float(cfg["novel.alpha"]), beta=float(cfg["novel.beta"]),
        eta=float(cfg["novel.eta"]), gamma=float(cfg["novel.gamma"]),
        epsilon=float(cfg["detector.epsilon"]), k_shots=int(cfg["novel.k"]),
        base_multiplier=int(cfg["novel.base_multiplier"]))


def full_saliency(cfg: dict[str, object], scene: sd.Scene) -> np.ndarray:
    """Image-resolution bottom-up map, before pooling to the fusion grid."""
    mode = cfg["saliency.mode"]
    if mode == "oracle":
        return sal.oracle_saliency(scene, blur_radius=int(cfg["saliency.blur_radius"]))
    if mode == "bms":
        bms = sal.BmsConfig(
            thresholds_per_channel=int(cfg["saliency.thresholds_per_channel"]),
            opening_radius=int(cfg["saliency.opening_radius"]))
        return sal.bms_saliency(scene.image, bms)
    raise UsageError(f"saliency.mode must be 'bms' or 'oracle', got {mode!r}")


def saliency_provider(cfg: dict[str, object], dcfg: det.DetectorConfig):
    """The pooled bottom-up map of a scene, computed once per scene object.

    A map depends on the scene alone, so it is kept, read-only, while its
    scene lives: the entry is keyed on the scene's id and dropped by the
    callback of a weak reference to it, which runs before that id can be
    reused. A copy of a scene (a support scene) is another object and is
    computed again.
    """
    if not dcfg.use_bottom_up:
        return None
    size = det.fusion_size(dcfg)
    memo: dict[int, tuple[weakref.ref, np.ndarray]] = {}

    def provider(scene: sd.Scene) -> np.ndarray:
        key = id(scene)
        entry = memo.get(key)
        if entry is not None and entry[0]() is scene:
            return entry[1]
        pooled = att.pool_saliency(full_saliency(cfg, scene), *size)
        pooled.flags.writeable = False
        memo[key] = (weakref.ref(scene, lambda _: memo.pop(key, None)), pooled)
        return pooled

    return provider
