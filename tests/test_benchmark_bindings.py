"""The benchmark's tracer wraps fewdet functions by name and rebinds names
brought in with ``from ... import``; renaming a traced function or dropping
such an import breaks only the benchmark. This runs the benchmark
self-test's static groups (manifest and bindings), in a subprocess because
the tracer rebinds module attributes while it is installed."""

import subprocess
import sys
from pathlib import Path

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
