"""Command-line pipeline: data generation, two-stage training, evaluation,
gradient verification, attention rendering, and hyperparameter sweeps.

Every command resolves its settings from built-in defaults, an optional JSON
config file of flat dotted keys, and repeatable ``--set key=value`` overrides,
then writes the resolved snapshot next to its outputs. Reruns from a snapshot
are byte-identical; nothing here stamps timestamps or hostnames.

Exit codes: 0 success, 1 usage or I/O error, 2 numeric failure (training
divergence, failed gradient check).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys

import numpy as np

from . import attention as att
from . import detector as det
from . import fewshot as fs
from . import saliency as sal
from . import synthdata as sd
from . import tensor as T
from .atomic import atomic_open, fsync_directory
from .gradcheck import TOLERANCE, gradcheck_suite
from .ppm import write_ppm


class UsageError(Exception):
    """Bad invocation: unknown key, missing artifact, mismatched metadata."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "data.split": 1,
    "data.base_train": 200,
    "data.novel_pool": 40,
    "data.test": 200,
    "detector.image_size": 64,
    "detector.backbone_channels": [8, 16, 24, 32],
    "detector.feat_dim": 16,
    "detector.bottleneck_ratio": 4,
    "detector.temperature": 10.0,
    "detector.pos_thr": 0.5,
    "detector.neg_pos_ratio": 3,
    "detector.alpha": 1.0,
    "detector.use_bottom_up": True,
    "detector.epsilon": math.e,
    "detector.nms_iou": 0.45,
    "detector.score_thr": 0.05,
    "detector.top_k": 50,
    "anchors.map_sizes": [[8, 8], [4, 4]],
    "anchors.scales": [0.2, 0.42],
    "anchors.aspects": [1.0, 2.0, 0.5],
    "saliency.mode": "bms",
    "saliency.blur_radius": 2,
    "saliency.thresholds_per_channel": 8,
    "saliency.opening_radius": 1,
    "base.epochs": 60,
    "base.batch_size": 1,
    "base.lr": 0.01,
    "base.momentum": 0.9,
    "base.weight_decay": 0.0,
    "base.lr_decay_epochs": [45],
    "base.lr_decay": 0.3,
    "base.clip_norm": 5.0,
    "novel.epochs": 40,
    "novel.batch_size": 1,
    "novel.lr": 0.002,
    "novel.momentum": 0.9,
    "novel.weight_decay": 0.0,
    "novel.lr_decay_epochs": [30],
    "novel.lr_decay": 0.3,
    "novel.clip_norm": 5.0,
    "novel.k": 2,
    "novel.base_multiplier": 3,
    "novel.alpha": 1.0,
    "novel.beta": 2.0,
    "novel.eta": 0.4,
    "novel.gamma": 0.5,
    "render.scene_seed": 0,
    "gradcheck.points": 10,
    "sweep.beta": [2.0],
    "sweep.eta": [0.4],
    "sweep.epsilon": [math.e],
    "sweep.gamma": [0.5],
    "sweep.k": [2],
    "sweep.split": [1],
    "sweep.seeds": [7, 8, 9],
}


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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _fits(value, default) -> bool:
    """Whether a config value has the JSON type of the key's default; a
    list's items are checked against the default's first item."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return _is_int(value)
    if isinstance(default, float):
        return _is_number(value)
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    return isinstance(value, type(default))


def _finite(value) -> bool:
    """Whether every number in a config value is finite: the snapshot is
    strict JSON, which has no NaN or infinity."""
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


# the key groups a checkpoint stores and a detector is built from
ARCHITECTURE = ("detector", "anchors", "saliency")


def _known_split(v) -> bool:
    try:
        sd.make_split(v)
    except ValueError:
        return False
    return True


# key -> (range test, what the key must be); a list key's test applies to
# every item, so a sweep grid is checked before its first cell trains
RULES = {
    "seed": (lambda v: v >= 0, "an integer >= 0"),
    "render.scene_seed": (lambda v: v >= 0, "an integer >= 0"),
    "data.split": (_known_split, "a known split id"),
    "data.base_train": (lambda v: v >= 1, "an integer >= 1"),
    "data.novel_pool": (lambda v: v >= 1, "an integer >= 1"),
    "data.test": (lambda v: v >= 1, "an integer >= 1"),
    "base.epochs": (lambda v: v >= 0, "an integer >= 0"),
    "novel.epochs": (lambda v: v >= 0, "an integer >= 0"),
    "base.batch_size": (lambda v: v >= 1, "an integer >= 1"),
    "novel.batch_size": (lambda v: v >= 1, "an integer >= 1"),
    "base.lr": (lambda v: v > 0, "a number > 0"),
    "novel.lr": (lambda v: v > 0, "a number > 0"),
    "base.momentum": (lambda v: 0 <= v < 1, "a number in [0,1)"),
    "novel.momentum": (lambda v: 0 <= v < 1, "a number in [0,1)"),
    "base.weight_decay": (lambda v: v >= 0, "a number >= 0"),
    "novel.weight_decay": (lambda v: v >= 0, "a number >= 0"),
    "base.clip_norm": (lambda v: v >= 0, "a number >= 0"),
    "novel.clip_norm": (lambda v: v >= 0, "a number >= 0"),
    "base.lr_decay": (lambda v: v > 0, "a number > 0"),
    "novel.lr_decay": (lambda v: v > 0, "a number > 0"),
    "base.lr_decay_epochs": (lambda v: v >= 0, "a list of integers >= 0"),
    "novel.lr_decay_epochs": (lambda v: v >= 0, "a list of integers >= 0"),
    "novel.k": (lambda v: v >= 1, "an integer >= 1"),
    "novel.base_multiplier": (lambda v: v >= 0, "an integer >= 0"),
    "novel.alpha": (lambda v: v >= 0, "a number >= 0"),
    "novel.beta": (lambda v: v >= 0, "a number >= 0"),
    "novel.eta": (lambda v: v >= 0, "a number >= 0"),
    "novel.gamma": (lambda v: v >= 0, "a number >= 0"),
    "detector.bottleneck_ratio": (lambda v: v >= 1, "an integer >= 1"),
    "detector.neg_pos_ratio": (lambda v: v >= 0, "an integer >= 0"),
    "detector.alpha": (lambda v: v >= 0, "a number >= 0"),
    "detector.temperature": (lambda v: v > 0, "a number > 0"),
    "detector.pos_thr": (lambda v: 0 < v < 1, "a number in (0,1)"),
    "detector.nms_iou": (lambda v: 0 < v < 1, "a number in (0,1)"),
    "detector.score_thr": (lambda v: v >= 0, "a number >= 0"),
    "detector.top_k": (lambda v: v >= 1, "an integer >= 1"),
    "detector.image_size": (lambda v: 1 <= v <= 1024, "an integer in [1,1024]"),
    # checked here as well as in full_saliency: with bottom-up off the mode
    # is never read before render-attention, but it is stored all the same
    "saliency.mode": (lambda v: v in ("bms", "oracle"), "'bms' or 'oracle'"),
    # each saliency loop runs as many rounds as its key says
    "saliency.thresholds_per_channel": (lambda v: 1 <= v <= 255, "an integer in [1,255]"),
    "saliency.blur_radius": (lambda v: 0 <= v <= 255, "an integer in [0,255]"),
    "saliency.opening_radius": (lambda v: 0 <= v <= 255, "an integer in [0,255]"),
    "gradcheck.points": (lambda v: v >= 1, "an integer >= 1"),
    "sweep.beta": (lambda v: v >= 0, "a list of numbers >= 0"),
    "sweep.eta": (lambda v: v >= 0, "a list of numbers >= 0"),
    "sweep.epsilon": (lambda v: v > 0, "a list of numbers > 0"),
    "sweep.gamma": (lambda v: v >= 0, "a list of numbers >= 0"),
    "sweep.k": (lambda v: v >= 1, "a list of integers >= 1"),
    "sweep.split": (_known_split, "a list of known split ids"),
    "sweep.seeds": (lambda v: v >= 0, "a list of integers >= 0"),
}


def validate_config(cfg: dict[str, object]) -> None:
    """Reject values the pipeline cannot run with, naming the key: a value
    whose JSON type differs from its default's, a NaN or infinity, one
    outside its key's rule, or architecture settings whose detector cannot
    be built and run once on a blank scene."""
    for key, default in DEFAULTS.items():
        if not _fits(cfg[key], default):
            raise UsageError(f"{key} must have the type of its default "
                             f"{json.dumps(default)}, got {json.dumps(cfg[key])}")
        if not _finite(cfg[key]):
            raise UsageError(f"{key} must be finite, got {json.dumps(cfg[key])}")
    for key, (in_range, need) in RULES.items():
        value = cfg[key]
        if not all(map(in_range, value if isinstance(value, list) else [value])):
            raise UsageError(f"{key} must be {need}, got {json.dumps(cfg[key])}")
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


def write_snapshot(cfg: dict[str, object], outdir: str) -> None:
    with atomic_open(os.path.join(outdir, "config.json")) as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


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


def hyperparams(cfg: dict[str, object], epsilon: float) -> fs.Hyperparams:
    return fs.Hyperparams(
        alpha=float(cfg["novel.alpha"]), beta=float(cfg["novel.beta"]),
        eta=float(cfg["novel.eta"]), gamma=float(cfg["novel.gamma"]),
        epsilon=epsilon, k_shots=int(cfg["novel.k"]),
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
    if not dcfg.use_bottom_up:
        return None
    side = dcfg.image_size // 4

    def provider(scene: sd.Scene) -> np.ndarray:
        return att.pool_saliency(full_saliency(cfg, scene), side, side)

    return provider


def benchmark(cfg: dict[str, object]) -> tuple[sd.Benchmark, sd.SplitSpec]:
    split = sd.make_split(int(cfg["data.split"]))
    sizes = (int(cfg["data.base_train"]), int(cfg["data.novel_pool"]),
             int(cfg["data.test"]))
    return sd.build_benchmark(int(cfg["seed"]), split, sizes=sizes), split


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def checkpoint_meta(cfg: dict[str, object], stage: str,
                    params: det.DetectorParams, split_id: int) -> dict:
    keep = [k for k in sorted(cfg) if k.split(".")[0] in ARCHITECTURE]
    return {"stage": stage, "class_ids": list(params.class_ids),
            "split": split_id, "seed": int(cfg["seed"]),
            "config": {k: cfg[k] for k in keep}}


def save_checkpoint(path: str, params: det.DetectorParams, meta: dict) -> None:
    T.save_arrays(path, params.as_arrays(), meta=meta)


def load_checkpoint(path: str) -> tuple[det.DetectorParams, dict]:
    """Read a checkpoint and check it against the architecture its metadata
    describes: the parameter names and shapes must be exactly those a
    detector built from ``meta["config"]`` and ``meta["class_ids"]`` has."""
    if not os.path.exists(path):
        raise UsageError(f"checkpoint not found: {path}")
    arrays, meta = T.load_arrays(path)
    if "class_ids" not in meta or "config" not in meta or "split" not in meta:
        raise UsageError(f"checkpoint {path} lacks required metadata")
    class_ids, config = meta["class_ids"], meta["config"]
    if not isinstance(class_ids, list) or not all(_is_int(c) for c in class_ids):
        raise UsageError(f"checkpoint {path}: class_ids must be a list of integers")
    if not isinstance(config, dict):
        raise UsageError(f"checkpoint {path}: config must be an object")
    if not _is_int(meta["split"]):
        raise UsageError(f"checkpoint {path}: split must be an integer")
    unknown = sorted(set(config) - set(DEFAULTS))
    if unknown:
        raise UsageError(f"checkpoint {path}: unknown config key {unknown[0]!r}")
    run_cfg = dict(DEFAULTS)
    run_cfg.update(config)
    try:
        validate_config(run_cfg)
    except UsageError as e:
        raise UsageError(f"checkpoint {path}: {e}")
    try:
        # the initializer is the one place that names parameters and shapes
        reference = det.init_detector_params(
            detector_config(run_cfg), class_ids, np.random.default_rng(0))
    except ValueError as e:
        raise UsageError(f"checkpoint {path} does not describe a detector: {e}")
    for name, t in sorted(reference.tensors.items()):
        if name not in arrays:
            raise UsageError(f"checkpoint {path} lacks parameter {name!r}")
        if arrays[name].shape != t.data.shape:
            raise UsageError(f"checkpoint {path}: parameter {name!r} has shape "
                             f"{list(arrays[name].shape)}, the architecture "
                             f"needs {list(t.data.shape)}")
    extra = sorted(set(arrays) - set(reference.tensors))
    if extra:
        raise UsageError(f"checkpoint {path} has unexpected parameter {extra[0]!r}")
    rows = arrays["cls.rows"]
    with np.errstate(over="ignore"):  # an overflowing row is not a zero one
        zero = np.flatnonzero(np.sqrt(np.sum(rows * rows, axis=1)) < T.MIN_L2_NORM)
    if zero.size:
        raise UsageError(f"checkpoint {path}: parameter 'cls.rows' row {zero[0]} has "
                         "zero norm, which the cosine classifier cannot normalize")
    return det.DetectorParams.from_arrays(arrays, class_ids), meta


def meta_run_config(cfg: dict[str, object], meta: dict) -> dict[str, object]:
    """The checkpoint's own detector/anchor/saliency settings win over the
    invocation's, so an artifact always evaluates under the architecture it
    was trained with."""
    merged = dict(cfg)
    merged.update(meta["config"])
    return merged


def write_metrics(path: str, rows: list[dict]) -> None:
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, allow_nan=False) + "\n")


def write_report(path: str, report: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(report, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def print_report(report: dict) -> None:
    print("class  AP")
    for cid in sorted(report["per_class_ap"], key=int):
        print(f"{cid:>5}  {report['per_class_ap'][cid]:.4f}")
    print(f"mAP base={report['map_base']:.4f} novel={report['map_novel']:.4f} "
          f"all={report['map_all']:.4f}")


def eval_report(params: det.DetectorParams, dcfg: det.DetectorConfig,
                scenes: list[sd.Scene], provider, novel_ids) -> dict:
    result = det.evaluate_detector(params, dcfg, scenes,
                                   saliency_provider=provider,
                                   novel_ids=novel_ids)
    return {"per_class_ap": {str(k): v for k, v in result["per_class_ap"].items()},
            "map_base": result["map_base"], "map_novel": result["map_novel"],
            "map_all": result["map_all"]}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(cfg: dict[str, object], args: argparse.Namespace) -> int:
    outdir = ensure_outdir(cfg, args)
    bench, split = benchmark(cfg)
    counts = {}
    for name, scenes in (("base_train", bench.base_train),
                         ("novel_pool", bench.novel_pool),
                         ("test", bench.test)):
        subdir = os.path.join(outdir, name)
        os.makedirs(subdir, exist_ok=True)
        for i, scene in enumerate(scenes):
            sd.dump_scene(scene, subdir, f"scene_{i:04d}")
        counts[name] = len(scenes)
    manifest = {"counts": counts, "seed": int(cfg["seed"]),
                "split": split.split_id, "novel_class_ids": sorted(split.novel)}
    write_report(os.path.join(outdir, "manifest.json"), manifest)
    print(f"wrote {sum(counts.values())} scenes to {outdir}")
    return 0


def cmd_train_base(cfg: dict[str, object], args: argparse.Namespace) -> int:
    outdir = ensure_outdir(cfg, args)
    bench, split = benchmark(cfg)
    dcfg = detector_config(cfg)
    provider = saliency_provider(cfg, dcfg)
    params, metrics = fs.train_base(bench.base_train, dcfg,
                                    train_config(cfg, "base"),
                                    sorted(split.base), seed=int(cfg["seed"]),
                                    saliency_provider=provider)
    save_checkpoint(os.path.join(outdir, "base.ckpt.json"), params,
                    checkpoint_meta(cfg, "base", params, split.split_id))
    write_metrics(os.path.join(outdir, "metrics.jsonl"), metrics)
    report = eval_report(params, dcfg, bench.test, provider, split.novel)
    write_report(os.path.join(outdir, "report.json"), report)
    print_report(report)
    return 0


def cmd_train_novel(cfg: dict[str, object], args: argparse.Namespace) -> int:
    outdir = ensure_outdir(cfg, args)
    base_params, meta = load_checkpoint(args.base_ckpt)
    if meta.get("stage") != "base":
        raise UsageError(f"{args.base_ckpt} is a {meta.get('stage')!r} checkpoint; "
                         "train-novel needs a base checkpoint")
    run_cfg = meta_run_config(cfg, meta)
    if int(run_cfg["data.split"]) != int(meta["split"]):
        raise UsageError(f"checkpoint was trained on split {meta['split']}, "
                         f"config asks for split {run_cfg['data.split']}")
    bench, split = benchmark(run_cfg)
    dcfg = detector_config(run_cfg)
    provider = saliency_provider(run_cfg, dcfg)
    hp = hyperparams(run_cfg, epsilon=dcfg.epsilon)
    support = fs.sample_support_set(bench.novel_pool, split, hp.k_shots,
                                    seed=int(run_cfg["seed"]),
                                    base_multiplier=hp.base_multiplier)
    params, metrics = fs.train_novel(base_params, support, dcfg,
                                     train_config(run_cfg, "novel"), hp,
                                     seed=int(run_cfg["seed"]),
                                     saliency_provider=provider)
    save_checkpoint(os.path.join(outdir, "novel.ckpt.json"), params,
                    checkpoint_meta(run_cfg, "novel", params, split.split_id))
    write_metrics(os.path.join(outdir, "metrics.jsonl"), metrics)
    report = eval_report(params, dcfg, bench.test, provider, split.novel)
    write_report(os.path.join(outdir, "report.json"), report)
    print_report(report)
    return 0


def cmd_eval(cfg: dict[str, object], args: argparse.Namespace) -> int:
    outdir = ensure_outdir(cfg, args)
    params, meta = load_checkpoint(args.ckpt)
    run_cfg = meta_run_config(cfg, meta)
    if int(run_cfg["data.split"]) != int(meta["split"]):
        raise UsageError(f"checkpoint was trained on split {meta['split']}, "
                         f"config asks for split {run_cfg['data.split']}")
    bench, split = benchmark(run_cfg)
    dcfg = detector_config(run_cfg)
    provider = saliency_provider(run_cfg, dcfg)
    report = eval_report(params, dcfg, bench.test, provider, split.novel)
    report["stage"] = meta.get("stage", "")
    write_report(os.path.join(outdir, "report.json"), report)
    print_report(report)
    return 0


def cmd_render_attention(cfg: dict[str, object], args: argparse.Namespace) -> int:
    outdir = ensure_outdir(cfg, args)
    params, meta = load_checkpoint(args.ckpt)
    run_cfg = meta_run_config(cfg, meta)
    dcfg = detector_config(run_cfg)
    params.set_requires_grad(False)
    scene_seed = int(run_cfg["render.scene_seed"])
    scene = sd.generate_scene(scene_seed)
    side = dcfg.image_size // 4

    full = full_saliency(run_cfg, scene)
    pooled = att.pool_saliency(full, side, side) if dcfg.use_bottom_up else None
    out = det.forward(scene.image[None],
                      det.saliency_gate(None if pooled is None else pooled[None], dcfg),
                      params, dcfg)

    write_ppm(os.path.join(outdir, "image.ppm"), scene.image)
    write_ppm(os.path.join(outdir, "saliency.ppm"), full)
    h = out.topdown.data[0]
    peak = h.max()
    h_vis = h / peak if peak > 0 else np.zeros_like(h)
    write_ppm(os.path.join(outdir, "topdown.ppm"),
              att.upsample_nearest(h_vis, dcfg.image_size, dcfg.image_size))

    anchors = det.generate_anchors(dcfg.anchors)
    labels, scores, boxes = det.detect(out.logits.data[0], out.offsets.data[0], anchors,
                                       params, dcfg)
    with atomic_open(os.path.join(outdir, "detections.json")) as fh:
        for label, score, box in zip(labels.tolist(), scores.tolist(), boxes.tolist()):
            fh.write(json.dumps({"image_id": scene_seed, "class": label,
                                 "score": score, "box": box}) + "\n")
    print(f"rendered scene {scene_seed} with {len(labels)} detections to {outdir}")
    return 0


def cmd_gradcheck(cfg: dict[str, object], args: argparse.Namespace) -> int:
    outdir = ensure_outdir(cfg, args)
    results = gradcheck_suite(seed=int(cfg["seed"]),
                              points=int(cfg["gradcheck.points"]))
    width = max(len(name) for name, _ in results)
    failed = []
    for name, err in results:
        status = "ok" if err < TOLERANCE else "FAIL"
        print(f"{name:<{width}}  {err:.3e}  {status}")
        if err >= TOLERANCE:
            failed.append(name)
    write_report(os.path.join(outdir, "report.json"),
                 {name: err for name, err in results})
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(cfg: dict[str, object], args: argparse.Namespace) -> int:
    outdir = ensure_outdir(cfg, args)
    csv_path = os.path.join(outdir, "sweep.csv")
    columns = ("beta", "eta", "epsilon", "gamma", "split", "k", "seed",
               "map_base", "map_novel", "map_all")
    done: set[tuple[str, ...]] = set()
    complete = 0
    if os.path.exists(csv_path):
        with open(csv_path, "rb+") as fh:
            raw = fh.read()
            # a killed run can leave a torn last row: cut back to the last line
            # end, so that row's cell is computed again
            complete = raw.rfind(b"\n") + 1
            fh.truncate(complete)
        for row in csv.DictReader(raw[:complete].decode().splitlines()):
            done.add(tuple(row[c] for c in columns[:7]))
    fresh = complete == 0

    base_cache: dict[tuple, det.DetectorParams] = {}
    # the grid runs split and seed outermost, so the cells of one (split,
    # seed) are consecutive and share its scenes, which no cell changes:
    # only the current pair's are kept
    built_for, built = None, None
    with open(csv_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(columns)
            fh.flush()
            os.fsync(fh.fileno())
            fsync_directory(outdir)
        grid = itertools.product(
            cfg["sweep.split"], cfg["sweep.seeds"], cfg["sweep.epsilon"],
            cfg["sweep.beta"], cfg["sweep.eta"], cfg["sweep.gamma"], cfg["sweep.k"])
        for split_id, seed, eps, beta, eta, gamma, k in grid:
            key = tuple(str(v) for v in (beta, eta, eps, gamma, split_id, k, seed))
            if key in done:
                continue
            if built_for != (split_id, seed):
                built = None  # the old pair's scenes go before the new ones come
                built = benchmark({**cfg, "seed": int(seed), "data.split": int(split_id)})
                built_for = (split_id, seed)
            row = sweep_cell(cfg, beta, eta, eps, gamma, split_id, k, seed,
                             base_cache, built)
            writer.writerow(key + row)
            fh.flush()
            os.fsync(fh.fileno())  # a finished cell survives a power cut
            print(",".join(key + row), flush=True)
    print(f"sweep table: {csv_path}")
    return 0


def sweep_cell(cfg: dict[str, object], beta, eta, eps, gamma, split_id, k, seed,
               base_cache: dict, built: tuple[sd.Benchmark, sd.SplitSpec]
               ) -> tuple[str, str, str]:
    """One grid cell over ``built``, the benchmark of its (split, seed)."""
    cell = dict(cfg)
    cell.update({"seed": int(seed), "data.split": int(split_id),
                 "detector.epsilon": float(eps), "novel.beta": float(beta),
                 "novel.eta": float(eta), "novel.gamma": float(gamma),
                 "novel.k": int(k)})
    bench, split = built
    dcfg = detector_config(cell)
    provider = saliency_provider(cell, dcfg)

    cache_key = (int(split_id), int(seed), float(eps))
    if cache_key not in base_cache:
        base_cache[cache_key], _ = fs.train_base(
            bench.base_train, dcfg, train_config(cell, "base"),
            sorted(split.base), seed=int(seed), saliency_provider=provider)
    hp = hyperparams(cell, epsilon=dcfg.epsilon)
    support = fs.sample_support_set(bench.novel_pool, split, hp.k_shots,
                                    seed=int(seed),
                                    base_multiplier=hp.base_multiplier)
    params, _ = fs.train_novel(base_cache[cache_key], support, dcfg,
                               train_config(cell, "novel"), hp, seed=int(seed),
                               saliency_provider=provider)
    result = det.evaluate_detector(params, dcfg, bench.test,
                                   saliency_provider=provider,
                                   novel_ids=split.novel)
    return (f"{result['map_base']:.6f}", f"{result['map_novel']:.6f}",
            f"{result['map_all']:.6f}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def ensure_outdir(cfg: dict[str, object], args: argparse.Namespace) -> str:
    root = os.environ.get("FEWDET_OUT", "runs")
    outdir = args.out if args.out else os.path.join(root, args.command)
    os.makedirs(outdir, exist_ok=True)
    write_snapshot(cfg, outdir)
    return outdir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewdet",
        description="few-shot detection pipeline on seeded synthetic scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, ckpt_flags=()):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config of flat dotted keys")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (JSON value or bare string)")
        p.add_argument("--out", help="output directory "
                       "(default: $FEWDET_OUT/<command> or runs/<command>)")
        for flag, help_flag in ckpt_flags:
            p.add_argument(flag, required=True, help=help_flag)
        p.set_defaults(func=func)
        return p

    add("gen-data", cmd_gen_data, "dump benchmark scenes as PPM plus sidecars")
    add("train-base", cmd_train_base, "train the base detector")
    add("train-novel", cmd_train_novel, "imprint and fine-tune novel classes",
        ckpt_flags=[("--base-ckpt", "base-stage checkpoint path")])
    add("eval", cmd_eval, "evaluate a checkpoint on the test split",
        ckpt_flags=[("--ckpt", "checkpoint path")])
    add("gradcheck", cmd_gradcheck, "finite-difference gradient verification")
    add("render-attention", cmd_render_attention,
        "write image, saliency, top-down map, and detections for one scene",
        ckpt_flags=[("--ckpt", "checkpoint path")])
    add("sweep", cmd_sweep, "hyperparameter grid over (beta, eta, epsilon, "
        "gamma, split, k, seed), resumable CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    # weights can be finite and still overflow float64 in use; numpy's
    # floating-point warnings are raised instead, to end in one error line
    ckpt = getattr(args, "ckpt", None) or getattr(args, "base_ckpt", None)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = resolve_config(args.config, args.set)
            return args.func(cfg, args)
    except (FloatingPointError, T.NonFiniteError) as e:
        source = f"checkpoint {ckpt}: its weights overflow" if ckpt else \
            f"{args.command}: numeric overflow"
        print(f"error: {source} ({e})", file=sys.stderr)
        return 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except fs.DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (T.CheckpointError, sd.GenerationError, fs.SupportError,
            fs.ImprintError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
