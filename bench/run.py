#!/usr/bin/env python3
"""fewdet benchmark: end-to-end throughput, or a traced per-layer breakdown.

    python3 bench/run.py --workload eval --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one caller, a closed loop: each repetition starts when the
previous one has returned. BLAS is pinned to one thread before numpy is
imported. The package is imported from ``src/`` next to this directory.

With ``--trace 0`` the run sets up three times or more (the median is
``setup_s``), then repeats the workload for ``--seconds`` and reports the
median rate. Both are scaled to a reference CPU speed (see REFERENCE_S).
With ``--trace 1`` it sets up once under the tracer, then alternates
untraced and traced repetitions; it reports per-layer numbers from the
traced ones and their cost over the untraced ones as ``trace.overhead_ratio``.

Every repetition's output is digested. On workloads whose repetitions share
their inputs the digest must equal the first one's; eval, which draws fresh
scenes each time, reruns its first repetition at the end instead. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spec

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3  # at least; short set-ups repeat for SETUP_SECONDS
SETUP_SECONDS = 5.0
MIN_CYCLES = 2  # the digest check and the traced/untraced pair need two

# The CPU speed a process gets on a shared host drifts by a third over
# minutes, with no change in the program. A fixed calibration pass, timed
# before every set-up and repetition and once after the last, tracks that
# drift. Each set-up and repetition time is scaled by REFERENCE_S over the
# mean of the pass times just before and just after it: seconds on a
# machine where the pass takes REFERENCE_S. Raw times are printed beside them.
# The pass mixes the kinds of work fewdet does: pure-Python arithmetic, a
# small matmul, ufuncs over a 64x64 image's worth of doubles and many ops on
# tiny arrays. It tracked the workloads better than a pure-Python loop did.
CALIBRATION_N = 30_000
REFERENCE_S = 0.0035


def import_package():
    """Import fewdet from this checkout's src/, or exit non-zero without a result."""
    if not (SRC / "fewdet" / "__init__.py").is_file():
        sys.exit(f"error: no fewdet sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import fewdet
    if Path(fewdet.__file__).resolve().parent != SRC / "fewdet":
        sys.exit(f"error: imported fewdet from {fewdet.__file__}, not {SRC}")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.split()[-1]})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "blas_threads_env": {v: os.environ[v] for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "seed": seed}


def calibration_s() -> float:
    """Median time of three calibration passes."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((32, 72)), rng.standard_normal((72, 64))
    image, tiny = rng.standard_normal(4096), rng.standard_normal(16)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_N):
            acc += i * i
        for _ in range(20):
            a @ b
            np.exp(image * 0.5) + np.where(image > 0, image, 0.0)
        for _ in range(300):
            tiny + tiny * 2.0
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """Counts and timings of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.untraced: list[float] = []  # seconds per item, one per rep
        self.untraced_cal: list[int] = []  # index of the calibration before it
        self.traced: list[float] = []
        self.calibrations: list[float] = []  # calibration_s() samples
        self.traced_items = 0
        self.first: dict[int, tuple[str, float]] = {}  # slot -> digest, quality

    def fail(self, items: int, problem: str) -> None:
        self.failed += items
        self.problems.append(problem)

    @property
    def digest(self) -> str:
        return hashlib.sha256(" ".join(
            d for _, (d, _) in sorted(self.first.items())).encode()).hexdigest()

    @property
    def quality(self) -> float:
        return statistics.fmean(q for _, q in self.first.values())


def _recording(tracer, phase):
    return tracer.recording(phase) if tracer is not None else contextlib.nullcontext()


def _run_rep(workload, state, inputs, tracer, phase):
    """One repetition, traced into ``phase`` when a tracer is given."""
    with _recording(tracer, phase):
        t0 = time.perf_counter()
        result = workload.run(state, inputs)
        return result, time.perf_counter() - t0


def measure(workload, state, seconds: float, tracer, phase, run: Run) -> None:
    """Repeat the workload for ``seconds``, ending on a whole cycle.

    Slot ``rep % cycle`` names the inputs of a repetition; every slot's
    output must digest-equal that slot's first output. When tracing, every
    other cycle is traced.
    """
    cycle = workload.cycle
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < MIN_CYCLES * cycle or rep % cycle or time.perf_counter() < deadline:
        slot = rep % cycle
        traced = tracer is not None and (rep // cycle) % 2 == 1
        if traced and slot == 0:
            phase.start_rep()
        inputs = workload.inputs(state, rep)
        items = workload.items(state, inputs)
        run.attempted += items
        run.calibrations.append(calibration_s())
        try:
            result, elapsed = _run_rep(workload, state, inputs,
                                       tracer if traced else None, phase)
        except Exception as exc:  # a failed item counts; the run goes on
            traceback.print_exc(file=sys.stderr)
            run.fail(items, f"rep {rep}: {type(exc).__name__}: {exc}")
            rep += 1
            continue
        digest = workload.digest(result)
        quality, problems = workload.check(result)
        if slot not in run.first:
            run.first[slot] = (digest, quality)
        elif not workload.fresh_inputs and digest != run.first[slot][0]:
            problems.append(f"rep {rep} digest {digest} differs from its first run")
        if problems:
            run.fail(items, f"rep {rep}: " + "; ".join(problems))
        elif traced:
            run.traced.append(elapsed / items)
            run.traced_items += items
        else:
            run.untraced.append(elapsed / items)
            run.untraced_cal.append(len(run.calibrations) - 1)
        rep += 1
    run.calibrations.append(calibration_s())  # brackets the last repetition
    if workload.fresh_inputs and 0 in run.first:
        # byte-identical rerun of the first repetition, traced when tracing
        inputs = workload.inputs(state, 0)
        result, _ = _run_rep(workload, state, inputs, tracer, type(phase)())
        digest = workload.digest(result)
        if digest != run.first[0][0]:
            run.fail(workload.items(state, inputs),
                     f"rerun of rep 0 gave digest {digest}, first {run.first[0][0]}")


def layer_metrics(setup, phase, items: int, overhead: float) -> dict:
    def field(ph, span_name, attr):
        s = ph.spans.get(span_name)
        return getattr(s, attr) if s is not None else 0

    out = {}
    for name, unit in spec.PER_LAYER:
        if name == "trace.overhead_ratio":
            value = overhead
        elif name == "saliency.distinct_ratio":
            calls = field(phase, "saliency.bms_saliency", "calls")
            value = phase.bms_distinct / calls if calls else 0.0
        else:
            span_name, attr = name.rsplit(".", 1)
            ph, per = (setup, 1) if unit.endswith("/setup") else (phase, items)
            attr = {"s": "incl", "self_s": "self", "setup_s": "incl",
                    "setup_calls": "calls"}.get(attr, attr)
            if span_name == "tensor.ops":
                total = sum(field(ph, f"tensor.{op}", attr) for op in spec.TAPE_OPS)
            elif attr in ("calls", "incl", "self"):
                total = field(ph, span_name, attr)
            else:
                total = ph.counters.get(name, 0.0)
            value = total / per
        out[name] = {"value": float(value), "unit": unit}
    return out


def run_workload(args) -> int:
    import_package()
    import workloads
    from tracer import Phase, Tracer

    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    run = Run()

    setup_times, setup_digests = [], []
    tracer = Tracer() if args.trace else None
    setup_phase, phase = Phase(), Phase()
    while not setup_times or not args.trace and (
            len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS):
        run.calibrations.append(calibration_s())
        with _recording(tracer, setup_phase):
            t0 = time.perf_counter()
            state = workload.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
        setup_digests.append(workload.setup_digest(state))
    if len(set(setup_digests)) != 1:
        run.problems.append(f"set-ups differ: {setup_digests}")

    measure(workload, state, args.seconds, tracer, phase, run)

    if args.trace:
        overhead = (statistics.median(run.traced) / statistics.median(run.untraced)
                    if run.traced and run.untraced else 0.0)
        metrics = layer_metrics(setup_phase, phase, run.traced_items, overhead)
        for label, ph, per in (("setup", setup_phase, 1),
                               ("item", phase, max(run.traced_items, 1))):
            print(f"spans per {label}: calls, inclusive s, self s")
            for name, st in sorted(ph.spans.items(), key=lambda kv: -kv[1].incl):
                print(f"  {name:<42} {st.calls / per:10.4g} {st.incl / per:10.4g} "
                      f"{st.self / per:10.4g}")
        for name, m in metrics.items():
            print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    else:
        cal = run.calibrations

        def scaled(seconds: float, k: int) -> float:
            """``seconds`` timed between calibrations ``k`` and ``k + 1``."""
            return seconds * 2 * REFERENCE_S / (cal[k] + cal[k + 1])

        # set-up k runs between calibrations k and k + 1
        setups = [scaled(t, k) for k, t in enumerate(setup_times)]
        rates = [1.0 / scaled(t, k) for t, k in zip(run.untraced, run.untraced_cal)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"items_per_s": statistics.median(rates) if rates else 0.0,
                  "setup_s": statistics.median(setups), "peak_rss_mb": rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spec.END_TO_END}
        for name, m in metrics.items():
            print(f"{name:<20} {m['value']:.6g} {m['unit']}")
        alias, scale, unit = spec.ITEM_RATE_ALIAS[args.workload]
        print(f"{alias:<20} {values['items_per_s'] * scale:.6g} {unit}")
        raw_rates = [1.0 / t for t in run.untraced]
        for label, xs in (("rates", rates), ("raw rates", raw_rates)):
            if len(xs) > 1:
                q1, q2, q3 = statistics.quantiles(xs, n=4)
                print(f"{label:<20} quartiles {q1:.6g} {q2:.6g} {q3:.6g} 1/s, "
                      f"{len(xs)} reps")
        print(f"{'setup_s each':<20} " + " ".join(f"{t:.4f}" for t in setups))
        print(f"{'raw setup_s each':<20} " + " ".join(f"{t:.4f}" for t in setup_times))
        print(f"{'calibration_ms':<20} {statistics.median(cal) * 1000:.4f} median "
              f"(reference {REFERENCE_S * 1000:g}, {len(cal)} samples)")
    if run.first:
        print(f"{workload.quality_key:<20} {run.quality!r}")
    print(f"{'digest':<20} {run.digest}")
    print(f"{'failed/attempted':<20} {run.failed}/{run.attempted}")
    for problem in run.problems:
        print(f"problem: {problem}")

    correct = not run.problems and run.attempted > 0
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined, sort_keys=True), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
