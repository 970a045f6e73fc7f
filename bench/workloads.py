"""The four benchmark workloads, built on fewdet's public functions.

Each workload turns the seed into inputs in ``setup`` (scenes, saliency
lookups, a trained base detector), then ``run`` performs one repetition,
which is timed. A repetition covers ``items`` items: training steps, test
scenes, a sweep cell, gradcheck points. Repetition ``rep`` runs the inputs
of slot ``rep % cycle``; a slot's output must be the same every time it
runs, except on eval, whose inputs are fresh each time.

The package sees only what the benchmark generates: scenes, saliency maps,
configs and parameters. Sizes are fixed here and are the same for every seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from fewdet import cli
from fewdet import detector as det
from fewdet import fewshot as fs
from fewdet import synthdata as sd

CONFIG = dict(cli.DEFAULTS)  # default architecture, BMS saliency, recipes
DCFG = cli.detector_config(CONFIG)
SPLIT = sd.make_split(int(CONFIG["data.split"]))
BASE_IDS = sorted(SPLIT.base)

# The detector that eval and novel_sweep start from is trained in set-up
# from the CLI's default seed, not the workload seed: its detection count
# sets the cost of decode and NMS, and it differs between seeds by more
# than the bound, so the workload seed draws only the scenes it is run on.
# Trained 8 epochs over 60 scenes, it keeps 847 detections on the 200
# default test scenes, against 469 for the default recipe (60 epochs over 200
# scenes) and 55,651 for a random-init detector; NMS is about 1% of eval
# time for both trained ones. NOTES.md has the measurement.
MODEL_SEED = int(CONFIG["seed"])
SETUP_TRAIN_SCENES = 60
SETUP_TRAIN_EPOCHS = 8

GRADCHECK_TOL = 1e-4  # the tolerance of `fewdet gradcheck`
# mAP below this fails a repetition: a random-init detector scored 0.006 to
# 0.015 per 50-scene eval pass, the set-up detector 0.07 to 0.19
MAP_FLOOR = 0.03


def _train_config(stage: str, epochs: int) -> fs.TrainConfig:
    return dataclasses.replace(cli.train_config(CONFIG, stage), epochs=epochs)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, det.DetectorParams):
            for name, arr in sorted(part.as_arrays().items()):
                h.update(name.encode())
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(json.dumps(part.class_ids).encode())
        else:
            h.update(json.dumps(part, sort_keys=True, allow_nan=True).encode())
    return h.hexdigest()


def _saliency_lookup(scenes):
    """Precompute the package's BMS maps; the paper treats saliency as an
    external input, so training reads them from a table."""
    provider = cli.saliency_provider(CONFIG, DCFG)
    table = {id(s): provider(s) for s in scenes}
    return lambda scene: table[id(scene)]


def _map_check(report: dict) -> tuple[float, list[str]]:
    value = report["map_all"]
    if value >= MAP_FLOOR:
        return value, []
    return value, [f"map_all {value} below floor {MAP_FLOOR}"]


def _trained_base() -> det.DetectorParams:
    scenes = sd.build_benchmark(MODEL_SEED, SPLIT,
                                sizes=(SETUP_TRAIN_SCENES, 1, 1)).base_train
    params, _ = fs.train_base(
        scenes, DCFG, _train_config("base", SETUP_TRAIN_EPOCHS), BASE_IDS,
        seed=MODEL_SEED, saliency_provider=_saliency_lookup(scenes))
    return params


class TrainBase:
    """fewshot.train_base at batch size 1 over precomputed saliency."""

    name = "train_base"
    fresh_inputs = False
    cycle = 1
    scenes = 40
    epochs = 2
    quality_key = "train_loss_last"

    def setup(self, seed: int):
        bench = sd.build_benchmark(seed, SPLIT, sizes=(self.scenes, 1, 1))
        return {"seed": seed, "scenes": bench.base_train,
                "lookup": _saliency_lookup(bench.base_train)}

    def setup_digest(self, state) -> str:
        return _digest([state["lookup"](s).tolist() for s in state["scenes"]])

    def inputs(self, state, rep: int):
        return None

    def items(self, state, inputs) -> int:
        return self.scenes * self.epochs

    def run(self, state, inputs):
        return fs.train_base(state["scenes"], DCFG,
                             _train_config("base", self.epochs), BASE_IDS,
                             seed=state["seed"],
                             saliency_provider=state["lookup"])

    def digest(self, result) -> str:
        return _digest(*result)

    def check(self, result) -> tuple[float, list[str]]:
        metrics = result[1]
        first, last = metrics[0]["loss_total"], metrics[-1]["loss_total"]
        problems = []
        if not (math.isfinite(last) and last < first):
            problems.append(f"training loss did not fall: {first} -> {last}")
        return last, problems


class Eval:
    """detector.evaluate_detector with the real BMS provider, fresh scenes
    on every repetition."""

    name = "eval"
    fresh_inputs = True
    cycle = 1
    scenes = 50
    quality_key = "map_all"

    def setup(self, seed: int):
        return {"seed": seed, "params": _trained_base(),
                "provider": cli.saliency_provider(CONFIG, DCFG)}

    def setup_digest(self, state) -> str:
        return _digest(state["params"])

    def inputs(self, state, rep: int):
        root = np.random.SeedSequence([state["seed"], 101, rep])
        return [sd.generate_scene(s) for s in root.spawn(self.scenes)]

    def items(self, state, inputs) -> int:
        return len(inputs)

    def run(self, state, inputs):
        return det.evaluate_detector(state["params"], DCFG, inputs,
                                     saliency_provider=state["provider"],
                                     novel_ids=SPLIT.novel)

    def digest(self, result) -> str:
        return _digest(result)

    def check(self, result) -> tuple[float, list[str]]:
        return _map_check(result)


class NovelSweep:
    """Sweep cells as `fewdet sweep` runs them: support sampling, the novel
    stage and a test-set evaluation, over one base detector. A repetition
    is one cell; a cycle is the whole sweep."""

    name = "novel_sweep"
    fresh_inputs = False
    pool = 60
    test = 30
    epochs = 2
    k = int(CONFIG["novel.k"])
    # (beta, eta, gamma), all above zero so every novel loss term runs; each
    # setting runs on every support draw, as `fewdet sweep` runs every
    # setting on every seed, so support scenes recur across settings
    settings = ((2.0, 0.4, 0.5), (1.0, 0.4, 0.5), (2.0, 0.2, 0.25))
    draws = 2
    cycle = draws * len(settings)
    quality_key = "map_all"

    def setup(self, seed: int):
        bench = sd.build_benchmark(seed, SPLIT, sizes=(1, self.pool, self.test))
        return {"seed": seed, "params": _trained_base(), "pool": bench.novel_pool,
                "test": bench.test,
                "provider": cli.saliency_provider(CONFIG, DCFG)}

    def setup_digest(self, state) -> str:
        return _digest(state["params"])

    def inputs(self, state, rep: int):
        draw, setting = divmod(rep % self.cycle, len(self.settings))
        beta, eta, gamma = self.settings[setting]
        hp = fs.Hyperparams(beta=beta, eta=eta, gamma=gamma,
                            epsilon=DCFG.epsilon, k_shots=self.k,
                            base_multiplier=int(CONFIG["novel.base_multiplier"]))
        return state["seed"] * self.draws + draw, hp

    def items(self, state, inputs) -> int:
        return 1

    def run(self, state, inputs):
        seed, hp = inputs
        provider = state["provider"]
        support = fs.sample_support_set(state["pool"], SPLIT, hp.k_shots,
                                        seed=seed,
                                        base_multiplier=hp.base_multiplier)
        params, metrics = fs.train_novel(state["params"], support, DCFG,
                                         _train_config("novel", self.epochs),
                                         hp, seed=seed, saliency_provider=provider)
        report = det.evaluate_detector(params, DCFG, state["test"],
                                       saliency_provider=provider,
                                       novel_ids=SPLIT.novel)
        return params, metrics, report

    def digest(self, result) -> str:
        return _digest(*result)

    def check(self, result) -> tuple[float, list[str]]:
        return _map_check(result[2])


class Gradcheck:
    """The first points of the `fewdet gradcheck` gate, at its shipped seed.

    The suite seed is the CLI default rather than the workload seed: the
    composite checks exceed the tolerance at some other suite seeds (see
    NOTES.md), and this workload measures the gate that changes must pass.
    Two points per repetition keep repetitions short enough for a median.
    """

    name = "gradcheck"
    fresh_inputs = False
    cycle = 1
    suite_seed = int(CONFIG["seed"])
    points = 2
    quality_key = "gradcheck_max_err"

    def setup(self, seed: int):
        # warm-up: one point loads every code path the suite touches
        cli.gradcheck_suite(seed=self.suite_seed, points=1)
        return {"seed": seed}

    def setup_digest(self, state) -> str:
        return ""

    def inputs(self, state, rep: int):
        return None

    def items(self, state, inputs) -> int:
        return self.points

    def run(self, state, inputs):
        return cli.gradcheck_suite(seed=self.suite_seed, points=self.points)

    def digest(self, result) -> str:
        return _digest(result)

    def check(self, result) -> tuple[float, list[str]]:
        worst = max(err for _, err in result)
        problems = [f"{name} error {err:.3e} >= {GRADCHECK_TOL}"
                    for name, err in result if not err < GRADCHECK_TOL]
        return worst, problems


WORKLOADS = {w.name: w for w in (TrainBase(), Eval(), NovelSweep(), Gradcheck())}
