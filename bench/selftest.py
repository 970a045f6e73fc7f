#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of fewdet).

    python3 bench/selftest.py [--seed 3] [--seconds 2]

Checks that spec.py maps every per-layer metric BENCHMARK.json names; that the
tracer rebinds every fewdet namespace holding a traced function, including
names brought in with ``from ... import``; and, per workload, that a traced
run digest-equals an untraced one, fails nothing, reads non-zero on every
per-layer metric mapped to that workload, and keeps the predicted no-change
values. Exits 1 on the first failed group of checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        FAILURES.append(message)


def check_manifest() -> None:
    names = {name for name, _ in spec.PER_LAYER}
    check(names == set(spec.MOVES),
          f"per-layer metrics without a spec.MOVES entry: "
          f"{sorted(names - set(spec.MOVES))}; spec.MOVES entries not in "
          f"BENCHMARK.json: {sorted(set(spec.MOVES) - names)}")
    check(set(spec.ITEM_RATE_ALIAS) == set(spec.WORKLOADS),
          "spec.ITEM_RATE_ALIAS does not name every workload")
    for name, workload, _ in spec.NO_CHANGE:
        check(name in names and workload in spec.WORKLOADS,
              f"spec.NO_CHANGE names unknown {name} or {workload}")


def check_bindings() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import fewdet.cli  # noqa: F401  (loads every traced module)
    from fewdet import fewshot, tensor
    from tracer import Tracer

    tracer = Tracer()
    original = fewshot.backward
    patched = tracer.install()
    try:
        for name in ("fewdet.fewshot.backward", "fewdet.fewshot.pool_saliency",
                     "fewdet.fewshot.bms_saliency", "fewdet.tensor.conv2d"):
            check(name in patched, f"tracer did not rebind {name}")
        check(tracer.unpatched() == [],
              f"bindings left untraced: {tracer.unpatched()}")
        check(fewshot.backward is tensor.backward is not original,
              "fewshot.backward and tensor.backward are not the same wrapper")
    finally:
        tracer.uninstall()
    check(fewshot.backward is original, "uninstall did not restore fewshot.backward")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    fields = {}
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
    return json.loads(lines[-1]), fields


def check_workload(workload: str, seed: int, seconds: int) -> None:
    plain, plain_fields = run(workload, seed, seconds, trace=0)
    traced, traced_fields = run(workload, seed, seconds, trace=1)
    for label, result in (("untraced", plain), ("traced", traced)):
        check(result["correct"] and result["failed"] == 0,
              f"{workload} {label}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
    check(plain_fields["digest"] == traced_fields["digest"],
          f"{workload}: traced digest {traced_fields['digest']} != "
          f"untraced {plain_fields['digest']}")
    check(set(plain["metrics"]) == {m for m, _ in spec.END_TO_END},
          f"{workload}: untraced metrics {sorted(plain['metrics'])}")
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    check(set(values) == {name for name, _ in spec.PER_LAYER},
          f"{workload}: traced metric names differ from BENCHMARK.json")
    for name, moves in spec.MOVES.items():
        if any(w == workload for _, w in moves):
            check(values.get(name, 0.0) > 0.0,
                  f"{workload}: mapped metric {name} reads {values.get(name)}")
    check(values.get("trace.overhead_ratio", 0.0) > 0.0,
          f"{workload}: trace.overhead_ratio is not positive")
    for name, w, expected in spec.NO_CHANGE:
        if w == workload:
            check(values.get(name) == expected,
                  f"{workload}: {name} reads {values.get(name)}, predicted {expected}")


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    groups = [("manifest", check_manifest), ("bindings", check_bindings)]
    groups += [(w, lambda w=w: check_workload(w, args.seed, args.seconds))
               for w in spec.WORKLOADS]
    for label, fn in groups:
        fn()
        print(f"{label}: {'FAIL' if FAILURES else 'ok'}", flush=True)
        if FAILURES:
            print("\n".join(FAILURES), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
