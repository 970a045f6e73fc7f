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
import os
import sys

import numpy as np

from . import attention as att
from . import detector as det
from . import fewshot as fs
from . import synthdata as sd
from . import tensor as T
from .atomic import atomic_open, fsync_directory
from .config import (ARCHITECTURE, DEFAULTS, UsageError, detector_config, full_saliency,
                     hyperparams, is_int, resolve_config, saliency_provider, train_config,
                     validate_config)
from .gradcheck import TOLERANCE, gradcheck_suite
from .ppm import write_ppm


def benchmark(cfg: dict[str, object]) -> tuple[sd.Benchmark, sd.SplitSpec]:
    split = sd.make_split(int(cfg["data.split"]))
    sizes = (int(cfg["data.base_train"]), int(cfg["data.novel_pool"]),
             int(cfg["data.test"]))
    gen = sd.GenConfig(image_size=int(cfg["detector.image_size"]))
    return sd.build_benchmark(int(cfg["seed"]), split, sizes=sizes, cfg=gen), split


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def write_snapshot(cfg: dict[str, object], outdir: str) -> None:
    with atomic_open(os.path.join(outdir, "config.json")) as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def checkpoint_meta(cfg: dict[str, object], stage: str,
                    params: det.DetectorParams, split_id: int) -> dict:
    keep = [k for k in sorted(cfg) if k.split(".")[0] in ARCHITECTURE]
    return {"stage": stage, "class_ids": list(params.class_ids),
            "split": split_id, "seed": int(cfg["seed"]),
            "config": {k: cfg[k] for k in keep}}


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
    if not isinstance(class_ids, list) or not all(is_int(c) for c in class_ids):
        raise UsageError(f"checkpoint {path}: class_ids must be a list of integers")
    if not isinstance(config, dict):
        raise UsageError(f"checkpoint {path}: config must be an object")
    if not is_int(meta["split"]):
        raise UsageError(f"checkpoint {path}: split must be an integer")
    unknown = sorted(set(config) - set(DEFAULTS))
    if unknown:
        raise UsageError(f"checkpoint {path}: unknown config key {unknown[0]!r}")
    # the invocation's settings govern everything but the architecture
    foreign = sorted(k for k in config if k.split(".")[0] not in ARCHITECTURE)
    if foreign:
        raise UsageError(f"checkpoint {path}: config key {foreign[0]!r} is not a "
                         "detector, anchors or saliency setting")
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
    T.save_arrays(os.path.join(outdir, "base.ckpt.json"), params.as_arrays(),
                  meta=checkpoint_meta(cfg, "base", params, split.split_id))
    write_metrics(os.path.join(outdir, "metrics.jsonl"), metrics)
    report = det.evaluate_detector(params, dcfg, bench.test, saliency_provider=provider,
                                   novel_ids=split.novel)
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
    hp = hyperparams(run_cfg)
    support = fs.sample_support_set(bench.novel_pool, split, hp.k_shots,
                                    seed=int(run_cfg["seed"]),
                                    base_multiplier=hp.base_multiplier)
    params, metrics = fs.train_novel(base_params, support, dcfg,
                                     train_config(run_cfg, "novel"), hp,
                                     seed=int(run_cfg["seed"]),
                                     saliency_provider=provider)
    T.save_arrays(os.path.join(outdir, "novel.ckpt.json"), params.as_arrays(),
                  meta=checkpoint_meta(run_cfg, "novel", params, split.split_id))
    write_metrics(os.path.join(outdir, "metrics.jsonl"), metrics)
    report = det.evaluate_detector(params, dcfg, bench.test, saliency_provider=provider,
                                   novel_ids=split.novel)
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
    report = det.evaluate_detector(params, dcfg, bench.test, saliency_provider=provider,
                                   novel_ids=split.novel)
    report["stage"] = meta.get("stage", "")
    write_report(os.path.join(outdir, "report.json"), report)
    print_report(report)
    return 0


def cmd_render_attention(cfg: dict[str, object], args: argparse.Namespace) -> int:
    outdir = ensure_outdir(cfg, args)
    params, meta = load_checkpoint(args.ckpt)
    run_cfg = meta_run_config(cfg, meta)
    dcfg = detector_config(run_cfg)
    scene_seed = int(run_cfg["render.scene_seed"])
    scene = sd.generate_scene(scene_seed, sd.GenConfig(image_size=dcfg.image_size))
    full = full_saliency(run_cfg, scene)
    pooled = att.pool_saliency(full, *det.fusion_size(dcfg)) if dcfg.use_bottom_up else None
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
    # no sweep.* key changes a saliency map, so every cell reads one memo
    provider = saliency_provider(cfg, detector_config(cfg))
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
                             base_cache, built, provider)
            writer.writerow(key + row)
            fh.flush()
            os.fsync(fh.fileno())  # a finished cell survives a power cut
            print(",".join(key + row), flush=True)
    print(f"sweep table: {csv_path}")
    return 0


def sweep_cell(cfg: dict[str, object], beta, eta, eps, gamma, split_id, k, seed,
               base_cache: dict, built: tuple[sd.Benchmark, sd.SplitSpec], provider
               ) -> tuple[str, str, str]:
    """One grid cell over ``built``, the benchmark of its (split, seed), with
    the sweep's saliency ``provider``."""
    cell = dict(cfg)
    cell.update({"seed": int(seed), "data.split": int(split_id),
                 "detector.epsilon": float(eps), "novel.beta": float(beta),
                 "novel.eta": float(eta), "novel.gamma": float(gamma),
                 "novel.k": int(k)})
    bench, split = built
    dcfg = detector_config(cell)

    cache_key = (int(split_id), int(seed), float(eps))
    if cache_key not in base_cache:
        base_cache[cache_key], _ = fs.train_base(
            bench.base_train, dcfg, train_config(cell, "base"),
            sorted(split.base), seed=int(seed), saliency_provider=provider)
    hp = hyperparams(cell)
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
