"""fanout-sim benchmark: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload exact_branching --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
BLAS and OpenMP pools are pinned to one thread before numpy is imported.

One run of a workload, after set-up, repeats the workload's fixed list of
operations (a pass) until ``--seconds`` would be exceeded, at least twice,
and checks every operation against ``reference.json``.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh processes of importing fanout_sim, loading
  the noise model and building the circuits and lookup tables;
* ``wall_s``: median wall time of a pass (time to the workload's table);
* ``op_p50_s``: median time of one operation;
* ``op_tail_s``: the time exceeded by exactly ten operations (its percentile
  and the sample count are in the report);
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates traced and untraced passes (traced first and last)
and prints per-layer metrics: call counts of the public functions of each
module, module self times, ``states.peak_qubits``,
``states.bytes_touched_computed``, ``cli.bytes_written`` and
``trace.overhead_s`` (median traced minus median untraced pass time). It
fails if two traced passes disagree on any count.

Every run prints a JSON report (environment, workload rationale, per-function
self times, fail_ratio) and, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Temporary files (CLI tables) go here, inside the checkout.
SCRATCH = ROOT / ".bench_tmp"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORKLOAD_NAMES = ("exact_branching", "exact_ladder", "trajectories", "cli_tables")
MIN_PASSES = 2
#: Setup probes (fresh processes) per run; the median is reported.
SETUP_PROBES = 7
#: No pass starts when it would likely end after this many seconds of a run.
HARD_LIMIT_S = 140.0
#: End-to-end metrics of a --trace 0 run (name -> unit), as BENCHMARK.json lists them.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB"}
#: Per-layer counts of a --trace 1 run besides the call counts (name -> unit).
EXTRA_COUNT_UNITS = {"states.peak_qubits": "qubits", "states.bytes_touched_computed": "B",
                     "cli.bytes_written": "B"}


@contextmanager
def scratch_dir():
    """A fresh temporary directory under SCRATCH, removed afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as path:
            yield Path(path)
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:  # still in use by another run
            pass


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def setup_probe(workload: str, tiny: bool) -> float:
    """Time import, noise model and circuit/table build in this fresh process."""
    start = time.perf_counter()
    import workloads

    workloads.setup(workload, tiny)
    return time.perf_counter() - start


def measure_setup(workload: str, tiny: bool) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(1 if tiny else SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than eleven samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Runs passes of one workload and keeps their times and outcomes."""

    def __init__(self, workload: str, seed: int, tiny: bool, scratch: Path):
        import workloads

        self.wl = workloads
        self.ctx = workloads.setup(workload, tiny)
        self.ops = workloads.make_ops(workload, seed, tiny)
        self.refs = workloads.load_reference()
        self.scratch = scratch
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run_pass(self) -> tuple[float, list[float], int]:
        """One pass: (wall time, operation times, CLI bytes written)."""
        times, outputs = [], []
        start = time.perf_counter()
        for op in self.ops:
            try:
                elapsed, out = self.wl.run_op(op, self.ctx, self.scratch)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            times.append(elapsed)
            outputs.append(out)
        wall = time.perf_counter() - start
        ok = self.wl.check_pass(self.ops, outputs, self.refs)
        self.attempted += len(ok)
        self.failed += ok.count(False)
        self.failures += [f"{op.key}: reference mismatch"
                          for op, good, out in zip(self.ops, ok, outputs)
                          if not good and out is not None]
        written = sum(out.get("bytes", 0) for out in outputs if out is not None)
        return wall, times, written


def _keep_going(started: float, passes: int, per_pass: float, seconds: float) -> bool:
    """Whether to start another pass that is expected to take ``per_pass``."""
    elapsed = time.perf_counter() - started
    if elapsed + per_pass > HARD_LIMIT_S:
        return False
    return passes < MIN_PASSES or elapsed + per_pass <= seconds


def run_untraced(runner: Runner, seconds: float) -> dict:
    walls, times = [], []
    started = time.perf_counter()
    while not walls or _keep_going(started, len(walls), statistics.median(walls), seconds):
        wall, op_times, _ = runner.run_pass()
        walls.append(wall)
        times += op_times
    tail_value, tail_pct = tail(times)
    return {
        "passes": len(walls),
        "pass_wall_s": walls,
        "samples": len(times),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "op_tail_percentile": tail_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    import spans

    tracer = spans.Tracer()
    traced, untraced, summaries = [], [], []
    started = time.perf_counter()
    while True:
        tracer.install()
        try:
            wall, _, written = runner.run_pass()
        finally:
            tracer.uninstall()
        traced.append(wall)
        summary = tracer.summary()
        summary["counts"]["cli.bytes_written"] = written
        summaries.append(summary)
        tracer.reset()
        if summary["counts"] != summaries[0]["counts"]:
            raise RuntimeError("traced passes of one seed disagree on a count: "
                               f"{_count_diff(summaries[0]['counts'], summary['counts'])}")
        if len(traced) >= MIN_PASSES and not _keep_going(
                started, len(traced), statistics.median(traced) + statistics.median(untraced),
                seconds):
            break
        untraced.append(runner.run_pass()[0])
    self_s = {name: statistics.median(s["self_s"][name] for s in summaries)
              for name in summaries[0]["self_s"]}
    return {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "traced_wall_s": statistics.median(traced),
        "untraced_wall_s": statistics.median(untraced),
        "counts": summaries[0]["counts"],
        "self_s": self_s,
        "module_self_s": spans.module_totals(self_s),
    }


def _count_diff(first: dict, second: dict) -> dict:
    return {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
            if first.get(k) != second.get(k)}


def per_layer_metrics(traced: dict) -> dict:
    import spans

    counts = traced["counts"]
    metrics = {f"{name}.calls": {"value": counts[name], "unit": "count"}
               for name in spans.target_names()}
    metrics.update({name: {"value": counts[name], "unit": unit}
                    for name, unit in EXTRA_COUNT_UNITS.items()})
    metrics.update({f"{module}.self_s": {"value": traced["module_self_s"][module], "unit": "s"}
                    for module in spans.ALWAYS_EXERCISED})
    metrics["trace.overhead_s"] = {
        "value": traced["traced_wall_s"] - traced["untraced_wall_s"], "unit": "s"}
    return metrics


def run_workload(args) -> int:
    import workloads

    report = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload]["why"],
        "predictions": workloads.WORKLOADS[args.workload]["predictions"],
        "seconds": args.seconds,
        "tiny": args.tiny,
        "environment": environment(args.seed),
    }
    with scratch_dir() as scratch:
        if args.trace:
            runner = Runner(args.workload, args.seed, args.tiny, scratch)
            traced = run_traced(runner, args.seconds)
            report["traced"] = traced
            metrics = per_layer_metrics(traced)
        else:
            setup_times = measure_setup(args.workload, args.tiny)
            runner = Runner(args.workload, args.seed, args.tiny, scratch)
            untraced = run_untraced(runner, args.seconds)
            untraced["setup_s"] = statistics.median(setup_times)
            untraced["setup_probes_s"] = setup_times
            report["untraced"] = untraced
            metrics = {name: {"value": untraced[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    report["attempted"] = runner.attempted
    report["failed"] = runner.failed
    report["fail_ratio"] = runner.failed / runner.attempted
    report["failures"] = runner.failures[:20]
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return fail(f"workload {name} exited with status {done.returncode}")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:16s} {metric:40s} {entry['value']:>16.6g} {entry['unit']}")
        print(f"{name:16s} {'fail_ratio':40s} {result['failed'] / result['attempted']:>16.6g} "
              f"ratio ({result['failed']}/{result['attempted']})")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the harness self-check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fanout_sim" / "__init__.py").is_file():
        return fail(f"no fanout_sim package under {SRC}; run from a source checkout")
    if not (BENCH / "reference.json").is_file():
        return fail("bench/reference.json is missing; run bench/make_reference.py")
    if args.setup_probe:
        print(setup_probe(args.workload, args.tiny))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
