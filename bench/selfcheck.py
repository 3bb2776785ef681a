"""Self-check of the benchmark harness at tiny sizes.

    python3 bench/selfcheck.py

Proves that every metric named in BENCHMARK.json is emitted with its unit
(untraced and traced), that traced counts repeat exactly across two
processes with the same seed, that a corrupted reference value shows up as
a failed operation on every workload, that an unknown workload name is an
error, and that the benchmark refuses to run without the package source.
Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads as wl

RUN = [sys.executable, str(run.BENCH / "run.py")]


def invoke(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), cwd=run.ROOT, capture_output=True, text=True,
                          timeout=300)


def result_line(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> list[str]:
    errors = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in run.WORKLOAD_NAMES:
            result = result_line(invoke("--workload", name, "--seed", "3", "--seconds", "1",
                                        "--trace", str(trace), "--tiny"))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                differ = sorted(k for k in wanted.keys() | got.keys() if wanted.get(k) != got.get(k))
                errors.append(f"{name} --trace {trace}: metric names or units differ from "
                              f"{section}: {differ}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{name} --trace {trace}: {result['failed']} failed operations")
            if trace:
                again = result_line(invoke("--workload", name, "--seed", "3", "--seconds", "1",
                                           "--trace", "1", "--tiny"))
                counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}
                counts_again = {k: v["value"] for k, v in again["metrics"].items()
                                if v["unit"] != "s"}
                if counts != counts_again:
                    errors.append(f"{name}: traced counts differ between two processes")
    return errors


def _corrupt(op: wl.Op, ref: dict) -> None:
    if op.kind == "exact":
        ref["fidelity"] += 1e-6
    elif op.kind == "traj":
        ref["fidelity"] += 1.0
    else:
        name = sorted(ref)[0]
        text = ref[name]
        last = list(wl.NUMBER.finditer(text))[-1]
        ref[name] = f"{text[:last.start()]}{float(last.group()) + 0.5}{text[last.end():]}"


def check_corruption() -> list[str]:
    errors = []
    with run.scratch_dir() as scratch:
        for name in run.WORKLOAD_NAMES:
            runner = run.Runner(name, 3, True, scratch)
            op = runner.ops[0]
            _corrupt(op, runner.refs[op.key])
            runner.run_pass()
            if runner.failed == 0:
                errors.append(f"{name}: corrupted reference of {op.key!r} was not detected")
    return errors


def check_refusals() -> list[str]:
    errors = []
    done = invoke("--workload", "no_such_workload", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    if done.returncode == 0 or done.stdout.strip():
        errors.append("an unknown workload name was not an error")
    with run.scratch_dir() as bare:
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact_ladder",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        if done.returncode == 0 or done.stdout.strip():
            errors.append("the benchmark ran without the package source")
    return errors


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failed = False
    for label, check in (
        ("every metric emitted with its unit; traced counts repeat", lambda: check_metrics(spec)),
        ("a corrupted reference value is a failed operation", check_corruption),
        ("unknown workload and missing source are errors", check_refusals),
    ):
        errors = check()
        print(f"{'FAIL' if errors else 'PASS'} {label}")
        for error in errors:
            print(f"  {error}")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
