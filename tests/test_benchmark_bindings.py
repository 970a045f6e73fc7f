"""The benchmark's tracer wraps fewdet functions by name and rebinds names
brought in with ``from ... import``; renaming a traced function or dropping
such an import breaks only the benchmark. This runs the benchmark
self-test's static groups (manifest and bindings), and traces a short
training run and an evaluation for the call counts the self-test needs, in
subprocesses because the tracer rebinds module attributes while it is
installed."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CHECK = f"""
import sys
sys.path.insert(0, {str(ROOT / "bench")!r})
import selftest
selftest.check_manifest()
selftest.check_bindings()
print("\\n".join(selftest.FAILURES))
sys.exit(1 if selftest.FAILURES else 0)
"""


def test_benchmark_manifest_and_bindings_hold():
    proc = subprocess.run([sys.executable, "-c", CHECK], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


INSTALLED = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "bench")!r})
sys.path.insert(0, {str(ROOT / "src")!r})
import fewdet.cli
from tracer import Tracer
print(json.dumps(Tracer().install()))
"""


def test_tracer_patches_the_gate_in_cli_and_in_its_module():
    """The gate lives in fewdet.gradcheck and cli imports it; the tracer
    rebinds both names, so the benchmark's ``cli.gradcheck_suite`` calls
    are traced under that name. It also rebinds the ``pool_saliency`` and
    ``bms_saliency`` names fewshot imports, which bench/selftest.py
    requires."""
    proc = subprocess.run([sys.executable, "-c", INSTALLED], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    patched = json.loads(proc.stdout.splitlines()[-1])
    assert {"fewdet.cli.gradcheck_suite", "fewdet.gradcheck.gradcheck_suite"} <= set(patched)
    assert {"fewdet.fewshot.pool_saliency", "fewdet.fewshot.bms_saliency"} <= set(patched)


def test_benchmark_reads_the_schema_through_cli():
    """bench/workloads.py reads the config schema off fewdet.cli, which
    imports it from fewdet.config: every name it reads there must resolve,
    and the defaults must be the schema's own table."""
    from fewdet import cli, config
    assert cli.DEFAULTS is config.DEFAULTS
    names = set(re.findall(r"\bcli\.(\w+)", (ROOT / "bench" / "workloads.py").read_text()))
    assert names and [n for n in sorted(names) if not hasattr(cli, n)] == []


def test_benchmark_gradcheck_tolerance_is_the_gates():
    """The benchmark fails a gradcheck repetition at its own copy of the
    tolerance; it must be the one `fewdet gradcheck` applies."""
    from fewdet import gradcheck
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.GRADCHECK_TOL == gradcheck.TOLERANCE


def test_gradcheck_point_calls_both_checkers_through_the_tensor_module(monkeypatch):
    """bench/selftest.py requires tensor.grad_check_sampled to read above
    zero on the gradcheck workload, and the tracer counts calls through the
    tensor module: one point of the suite makes 23 ``T.grad_check`` calls
    (the elementary op checks) and 5 ``T.grad_check_sampled`` calls (the
    composite checks), however their probes run."""
    from fewdet import gradcheck
    from fewdet import tensor as T
    calls = {"grad_check": 0, "grad_check_sampled": 0}

    def counting(name):
        real = getattr(T, name)

        def check(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return check

    for name in calls:
        monkeypatch.setattr(T, name, counting(name))
    gradcheck.gradcheck_suite(seed=0, points=1)
    assert calls == {"grad_check": 23, "grad_check_sampled": 5}


TRACED_COUNTS = f"""
import dataclasses, json, sys
sys.path.insert(0, {str(ROOT / "bench")!r})
sys.path.insert(0, {str(ROOT / "src")!r})
from fewdet import cli
from fewdet import detector as det
from fewdet import fewshot as fs
from fewdet import synthdata as sd
import spec
from tracer import TRACED, Phase, Tracer

cfg = dict(cli.DEFAULTS)
dcfg = cli.detector_config(cfg)
split = sd.make_split(1)
bench = sd.build_benchmark(0, split, sizes=(3, 1, det.INFERENCE_CHUNK + 1))
provider = cli.saliency_provider(cfg, dcfg)
tracer = Tracer()
train, evaluation = Phase(), Phase()
with tracer.recording(train):
    params, _ = fs.train_base(
        bench.base_train, dcfg,
        dataclasses.replace(cli.train_config(cfg, "base"), epochs=1, batch_size=2),
        sorted(split.base), seed=0, saliency_provider=provider)
with tracer.recording(evaluation):
    det.evaluate_detector(params, dcfg, bench.test, saliency_provider=provider,
                          novel_ids=split.novel)

def calls(phase, name):
    span = phase.spans.get(name)
    return span.calls if span else 0

traced = {{f"{{module}}.{{fn}}" for module, fns in TRACED.items() for fn in fns}}
train_spans = sorted({{name.rsplit(".", 1)[0] for name, moves in spec.MOVES.items()
                      if ("items_per_s", "train_base") in moves}} & traced)

print(json.dumps({{
    "unrecorded_step_ops": [op for op in spec.STEP_OPS
                            if calls(train, "tensor." + op) == 0],
    "chunk": det.INFERENCE_CHUNK,
    "eval_forward": calls(evaluation, "detector.forward"),
    "eval_bms": calls(evaluation, "saliency.bms_saliency"),
    "eval_pool": calls(evaluation, "attention.pool_saliency"),
    "train_scenes": len(bench.base_train),
    "train_sgd": calls(train, "tensor.sgd_momentum_step"),
    "train_spans": train_spans,
    "unread_train_spans": [name for name in train_spans if calls(train, name) == 0],
    "per_scene": {{name: calls(train, name) for name in (
        "detector.forward", "attention.fuse_bottom_up", "detector.base_loss")}},
}}))
"""


@pytest.fixture(scope="module")
def traced_counts():
    proc = subprocess.run([sys.executable, "-c", TRACED_COUNTS], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_training_step_records_every_step_op(traced_counts):
    """bench/selftest.py requires every tape op in spec.STEP_OPS to read
    above zero on the train_base workload."""
    assert traced_counts["unrecorded_step_ops"] == []


def test_training_reads_every_span_mapped_to_train_base(traced_counts):
    """bench/selftest.py requires every per-layer metric spec.MOVES maps to
    train_base's items_per_s to read above zero there; a span whose call
    moves out of the training step (into a per-scene cache, say) fails here
    first."""
    assert {"attention.fuse_bottom_up", "attention.gc_block", "attention.topdown_map",
            "detector.forward", "detector.base_loss", "detector.hard_negative_mining",
            "detector.background_ce", "detector.match_anchors", "tensor.backward",
            "tensor.sgd_momentum_step"} <= set(traced_counts["train_spans"])
    assert traced_counts["unread_train_spans"] == []


def test_training_runs_forward_fusion_and_loss_once_per_scene(traced_counts):
    """The gate and the loss targets are built once per scene, but every
    step still runs the forward, the fusion and the detection loss."""
    n = traced_counts["train_scenes"]
    assert traced_counts["per_scene"] == {"detector.forward": n,
                                          "attention.fuse_bottom_up": n,
                                          "detector.base_loss": n}


def test_training_runs_one_sgd_step_per_batch(traced_counts):
    """bench/selftest.py requires tensor.sgd_momentum_step to read above
    zero on train_base and novel_sweep, so the epoch loop must call it
    through the tensor module once per optimizer step: two batches of at
    most two scenes for three scenes."""
    assert traced_counts["train_scenes"] == 3
    assert traced_counts["train_sgd"] == 2


def test_evaluation_runs_one_forward_per_chunk_and_bms_per_scene(traced_counts):
    """Evaluating chunk + 1 scenes runs two forwards, and BMS once per
    scene: the benchmark's eval workload reads saliency.bms_saliency.calls
    as one per item."""
    assert traced_counts["eval_forward"] == 2
    assert traced_counts["eval_bms"] == traced_counts["chunk"] + 1


def test_evaluation_pools_each_scenes_saliency_once(traced_counts):
    """The provider pools each scene's map to the fusion grid, and the gate
    takes it as it is: evaluating chunk + 1 scenes pools chunk + 1 maps.
    bench/selftest.py requires attention.pool_saliency to read above zero
    on eval and novel_sweep, so the provider's pooling must stay a call
    through the attention module."""
    assert traced_counts["eval_pool"] == traced_counts["chunk"] + 1


TWO_CELLS = f"""
import dataclasses, json, sys
import numpy as np
sys.path.insert(0, {str(ROOT / "bench")!r})
sys.path.insert(0, {str(ROOT / "src")!r})
from fewdet import cli
from fewdet import detector as det
from fewdet import fewshot as fs
from fewdet import synthdata as sd
from tracer import Phase, Tracer

cfg = dict(cli.DEFAULTS)
dcfg = cli.detector_config(cfg)
split = sd.make_split(1)
bench = sd.build_benchmark(0, split, sizes=(1, 60, 3))
base = det.init_detector_params(dcfg, sorted(split.base), np.random.default_rng(0))
provider = cli.saliency_provider(cfg, dcfg)
hp = cli.hyperparams(cfg)
train_cfg = dataclasses.replace(cli.train_config(cfg, "novel"), epochs=1)
tracer = Tracer()
cells = []
for seed in (0, 1):
    phase = Phase()
    with tracer.recording(phase):
        support = fs.sample_support_set(bench.novel_pool, split, hp.k_shots, seed=seed,
                                        base_multiplier=hp.base_multiplier)
        params, _ = fs.train_novel(base, support, dcfg, train_cfg, hp, seed=seed,
                                   saliency_provider=provider)
        det.evaluate_detector(params, dcfg, bench.test, saliency_provider=provider,
                              novel_ids=split.novel)
    cells.append({{"bms": phase.spans["saliency.bms_saliency"].calls,
                   "support": len(support.scenes)}})
print(json.dumps({{"cells": cells, "test": len(bench.test)}}))
"""


def test_sweep_cells_sharing_a_provider_still_run_bms_on_support_scenes():
    """The novel_sweep workload's cells share one provider and one test
    list, and draw a new support set each. The provider memoizes per scene
    object, so a later cell computes no test scene's map again, but every
    support scene is a new object and is computed: bench/selftest.py
    requires saliency.bms_saliency to read above zero on novel_sweep. A
    memo keyed on the scene's arrays would bring these calls to zero and
    fail that group, so it waits for the benchmark change that retargets
    the check."""
    proc = subprocess.run([sys.executable, "-c", TWO_CELLS], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    first, second = out["cells"]
    assert first["bms"] == first["support"] + out["test"]
    assert second["support"] > 0
    assert second["bms"] == second["support"]
