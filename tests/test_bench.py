"""The benchmark harness must keep running against the package.

``bench/spans.py`` wraps package functions by name for the traced run, and
``bench/workloads.py`` calls the engine and the CLI. Running the harness's
own self-check (about 20 s) here makes a removed or renamed function fail
the test suite instead of a later benchmark run.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
