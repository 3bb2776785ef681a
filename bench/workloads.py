"""Workloads of the fanout-sim benchmark: inputs, operations and checks.

Each workload is a fixed list of operations drawn from a seed. One
operation is one library call (``run_exact`` or ``run_trajectory`` followed
by ``output_fidelity`` and ``joint_x_expectation``) or one CLI call
(``fanout_sim.cli.main`` in process). The seed only picks inputs from the
catalogues below, so every possible input has a checked-in reference value
in ``reference.json`` (written by ``make_reference.py`` from the seed code).

Importing this module imports ``fanout_sim``; the caller puts the package's
source directory on ``sys.path`` first.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from fanout_sim import circuits, cli, engine, feedforward
from fanout_sim.circuits import Circuit
from fanout_sim.engine import RunConfig
from fanout_sim.noise import NoiseModel

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Absolute tolerance of exact fidelity, joint-X and histogram values.
EXACT_ATOL = 1e-9
#: Absolute tolerance of every number parsed from a CLI table.
CLI_ATOL = 1e-9
#: Trajectory estimates must lie within this many standard errors of the
#: high-shot reference (pooled over one family's operations in a pass).
TRAJ_SIGMAS = 6.0

CARDINALS = ("0", "1", "+", "-", "+i", "-i")
EXACT_INPUTS = CARDINALS + ("theta=1.0,phi=0.5", "theta=2.2,phi=4.0")
TRAJ_INPUTS = CARDINALS
RATE_SETS = (
    ("eps_cnot=0.012", "eps_meas=0.006", "t2=48e-6"),
    ("eps_cnot=0.008", "eps_meas=0.004", "t2=60e-6"),
    ("eps_cnot=0.015", "eps_meas=0.01", "t2=30e-6"),
)
FF, PF, UNITARY = "feedforward", "pauli_frame", "unitary"
TRAJ_SHOTS = 10

WORKLOADS = {
    "exact_branching": {
        "why": (
            "Noisy exact runs of both constant-depth families at n = 4: the paper's "
            "headline fidelity table. Each run enumerates 4^6 measurement branches, so "
            "branch enumeration and per-call overhead on small density matrices dominate. "
            "n = 3 runs are left to cli_tables: their times spread about twice as much "
            "between runs on a shared host and would set this workload's op_p50_s."
        ),
        "predictions": [
            "states.density.apply_matrix, states.branch_z and noise.apply_depolarizing "
            "calls and self time move wall_s and op_p50_s here (by call count)",
            "states.branch_z.calls moves only this workload: collapsing the branch "
            "tree cuts it here and changes nothing on exact_ladder",
            "circuits.measure_count accesses and engine self time (the Python walk) "
            "move wall_s here",
        ],
    },
    "exact_ladder": {
        "why": (
            "Noisy exact unitary CNOT ladder at n = 9-10: the same density kernels "
            "through about 130 calls on one 16 MB matrix, no branching. Memory "
            "traffic dominates, not call count; the simulated side of the crossover."
        ),
        "predictions": [
            "states.density.apply_matrix and noise.apply_depolarizing move wall_s and "
            "peak_rss_mb here by bytes touched (states.bytes_touched_computed), not by calls",
            "states.branch_z.calls is zero here: branch-tree changes predict no change",
        ],
    },
    "trajectories": {
        "why": (
            "Seeded Monte-Carlo trajectories at n = 6 (16 qubits) for both constant-depth "
            "families: statevector kernels, Pauli sampling and Pauli frames do the work; "
            "density kernels and branch enumeration do none."
        ),
        "predictions": [
            "states.pure.apply_matrix, states.measure_z and states.remove_collapsed move "
            "wall_s and op_p50_s here",
            "noise.sample_pauli_error and noise.noisy_readout move wall_s here",
            "feedforward.frame_update and adjust_pauli move wall_s here",
            "density kernels are idle here: density-only changes predict no change",
        ],
    },
    "cli_tables": {
        "why": (
            "The five CLI commands in process at small sizes: the only workload where "
            "cli, tomography and error_model get a visible share, along with per-run "
            "fixed costs (circuit build, lookup table, idle accounting)."
        ),
        "predictions": [
            "tomography.*, error_model.* and cli.main self time move wall_s only here",
            "circuits.build_circuit, circuits.idle_events and feedforward.build_lookup_table "
            "move wall_s here as per-run fixed costs",
            "cli.bytes_written is the table volume; it changes only if a table format changes",
        ],
    },
}


@dataclass(frozen=True)
class Op:
    """One benchmark operation and the key of its reference value."""

    kind: str  # "exact" | "traj" | "cli"
    key: str
    family: str = ""
    n: int = 0
    input: str = ""
    shots: int = 0
    seed: int = 0
    argv: tuple[str, ...] = ()


def exact_op(family: str, n: int, inp: str) -> Op:
    return Op("exact", f"exact|{family}|n={n}|{inp}", family, n, inp)


def traj_op(family: str, n: int, inp: str, seed: int, shots: int = TRAJ_SHOTS) -> Op:
    return Op("traj", f"traj|{family}|n={n}|{inp}", family, n, inp, shots, seed)


def cli_op(*argv: str) -> Op:
    return Op("cli", " ".join(argv), argv=tuple(argv))


def simulate_op(family: str, n: int, inp: str) -> Op:
    return cli_op("simulate", "--family", family, "--n", str(n), f"--input={inp}",
                  "--noise", "default")


def sweep_op(family: str, n: int, sweep: str) -> Op:
    return cli_op("sweep", "--family", family, "--n", str(n), "--sweep", sweep, "--points", "5",
                  "--noise", "default")


def tomo_op(family: str, n: int, inp: str) -> Op:
    return cli_op("tomo", "--family", family, "--n", str(n), f"--input={inp}", "--shots", "500",
                  "--noise", "default", "--seed", "7")


def model_op(rates: tuple[str, ...]) -> Op:
    return cli_op("model", "--n-min", "2", "--n-max", "30", "--rates", *rates)


def crossover_op(rates: tuple[str, ...]) -> Op:
    return cli_op("crossover", "--rates", *rates)


CLI_GRID = tuple((family, n) for family in (UNITARY, FF, PF) for n in (2, 3))
TOMO_SIZES = ((FF, 2), (PF, 2), (UNITARY, 2), (FF, 3))


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's fixed operation list; the seed picks only the inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact_branching":
        sizes = ((2, 1), (3, 1)) if tiny else ((4, 1),)
        return [
            exact_op(family, n, inp)
            for family in (FF, PF)
            for n, count in sizes
            for inp in rng.sample(EXACT_INPUTS, count)
        ]
    if workload == "exact_ladder":
        sizes = ((4, 1), (3, 1)) if tiny else ((10, 2), (9, 6))
        return [
            exact_op(UNITARY, n, inp)
            for n, count in sizes
            for inp in rng.sample(EXACT_INPUTS, count)
        ]
    if workload == "trajectories":
        n, count = (2, 2) if tiny else (6, 4)
        return [
            traj_op(family, n, inp, rng.randrange(2**32))
            for family in (FF, PF)
            for inp in rng.sample(TRAJ_INPUTS, count)
        ]
    if workload == "cli_tables":
        simulate, sweep, tomo = (
            ([(FF, 2)], [(PF, 2)], [(UNITARY, 2)]) if tiny else (CLI_GRID, CLI_GRID, TOMO_SIZES)
        )
        return (
            [simulate_op(f, n, rng.choice(CARDINALS)) for f, n in simulate]
            + [sweep_op(f, n, rng.choice(("theta", "phi"))) for f, n in sweep]
            + [tomo_op(f, n, rng.choice(CARDINALS)) for f, n in tomo]
            + [model_op(rng.choice(RATE_SETS)), crossover_op(rng.choice(RATE_SETS))]
        )
    raise ValueError(f"unknown workload {workload!r}")


def all_reference_ops() -> list[Op]:
    """Every operation any seed can draw, at full and tiny sizes."""
    return (
        [
            exact_op(family, n, inp)
            for family, sizes in ((FF, (2, 3, 4)), (PF, (2, 3, 4)), (UNITARY, (3, 4, 9, 10)))
            for n in sizes
            for inp in EXACT_INPUTS
        ]
        + [traj_op(family, n, inp, 0) for family in (FF, PF) for n in (2, 6)
           for inp in TRAJ_INPUTS]
        + [simulate_op(f, n, inp) for f, n in CLI_GRID for inp in CARDINALS]
        + [sweep_op(f, n, s) for f, n in CLI_GRID for s in ("theta", "phi")]
        + [tomo_op(f, n, inp) for f, n in TOMO_SIZES for inp in CARDINALS]
        + [model_op(r) for r in RATE_SETS]
        + [crossover_op(r) for r in RATE_SETS]
    )


@dataclass
class Context:
    """What set-up builds: the noise model, circuits and lookup tables."""

    noise: NoiseModel | None
    circuits: dict[tuple[str, int], Circuit]
    tables: dict[int, dict[str, tuple[int, ...]]]


def setup(workload: str, tiny: bool = False) -> Context:
    """Load the noise model and build the workload's circuits and lookup tables."""
    noise = cli.load_noise("default")
    sizes = {(op.family, op.n) for op in make_ops(workload, 0, tiny) if op.kind != "cli"}
    if workload == "cli_tables":
        sizes = {(f, n) for f in (UNITARY, FF, PF) for n in ((2,) if tiny else (2, 3))}
    built = {key: circuits.build_circuit(*key) for key in sorted(sizes)}
    tables = {
        n: feedforward.build_lookup_table(n)
        for family, n in sorted(sizes)
        if family != UNITARY
    }
    return Context(noise, built, tables)


def run_op(op: Op, ctx: Context, scratch: Path) -> tuple[float, dict]:
    """Execute one operation; return its wall time and its output."""
    if op.kind == "cli":
        return _run_cli(op, scratch)
    circuit = ctx.circuits[(op.family, op.n)]
    inp = cli.parse_input(op.input)
    if op.kind == "exact":
        config = RunConfig(input=inp, noise=ctx.noise)
    else:
        config = RunConfig(input=inp, noise=ctx.noise, mode="trajectories",
                           shots=op.shots, seed=op.seed)
    start = time.perf_counter()
    result = engine.run(circuit, config)
    fid = engine.output_fidelity(result, inp)
    jx = engine.joint_x_expectation(result)
    elapsed = time.perf_counter() - start
    return elapsed, {"fidelity": fid, "joint_x": jx, "histogram": result.histogram}


def _run_cli(op: Op, scratch: Path) -> tuple[float, dict]:
    out = scratch / "cli"
    shutil.rmtree(out, ignore_errors=True)
    argv = [*op.argv[:1], "--out", str(out), *op.argv[1:]]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        status = cli.main(argv)
        elapsed = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"cli exited with status {status}")
    files = {p.name: p.read_text() for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    return elapsed, {"files": files, "bytes": sum(len(t.encode()) for t in files.values())}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def check_pass(ops: list[Op], outputs: list[dict | None], refs: dict) -> list[bool]:
    """Reference check of one pass; an operation that raised has output None."""
    ok = [out is not None for out in outputs]
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        ref = refs.get(op.key)
        if ref is None:
            ok[i] = False
        elif op.kind == "exact":
            ok[i] = _exact_matches(out, ref)
        elif op.kind == "cli":
            ok[i] = _tables_match(out["files"], ref)
        else:  # the statistical check below needs every shot accounted for
            ok[i] = sum(out["histogram"].values()) == op.shots
    for family in {op.family for op in ops if op.kind == "traj"}:
        members = [i for i, op in enumerate(ops)
                   if op.kind == "traj" and op.family == family and ok[i]]
        if members and not _trajectories_agree([ops[i] for i in members],
                                               [outputs[i] for i in members], refs):
            for i in members:
                ok[i] = False
    return ok


def _exact_matches(out: dict, ref: dict) -> bool:
    if abs(out["fidelity"] - ref["fidelity"]) > EXACT_ATOL:
        return False
    if abs(out["joint_x"] - ref["joint_x"]) > EXACT_ATOL:
        return False
    hist, ref_hist = out["histogram"], ref["histogram"]
    # An outcome missing on one side has probability 0 there, so keeping or
    # pruning branches far below the tolerance does not count as a mismatch.
    return all(
        abs(hist.get(k, 0.0) - ref_hist.get(k, 0.0)) <= EXACT_ATOL
        for k in hist.keys() | ref_hist.keys()
    )


def _trajectories_agree(ops: list[Op], outputs: list[dict], refs: dict) -> bool:
    """Pooled z-test of fidelity and joint-X against the high-shot reference.

    The variance is the reference's per-shot variance over the shots drawn
    plus the reference's own standard error, so a sampler that consumes
    randomness differently passes as long as its distribution is unchanged.
    """
    for metric in ("fidelity", "joint_x"):
        diff = var = 0.0
        for op, out in zip(ops, outputs):
            ref = refs[op.key]
            mean, sd, ref_shots = ref[metric], ref[metric + "_sd"], ref["shots"]
            diff += op.shots * (out[metric] - mean)
            var += op.shots * sd**2 + op.shots**2 * sd**2 / ref_shots
        # EXACT_ATOL per shot absorbs round-off where every shot gives the same value.
        if abs(diff) > TRAJ_SIGMAS * math.sqrt(var) + EXACT_ATOL * sum(op.shots for op in ops):
            return False
    return True


NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _table_shape(text: str) -> tuple[list[str], list[float]]:
    """Line templates with numbers blanked, and the numbers in order.

    The ``# fanout-sim <version>`` line is dropped so a version bump does not
    count as a mismatch.
    """
    lines = [line for line in text.splitlines() if not line.startswith("# fanout-sim ")]
    templates = [NUMBER.sub("#", line) for line in lines]
    numbers = [float(x) for line in lines for x in NUMBER.findall(line)]
    return templates, numbers


def _tables_match(files: dict[str, str], ref: dict[str, str]) -> bool:
    if files.keys() != ref.keys():
        return False
    for name, text in ref.items():
        templates, numbers = _table_shape(files[name])
        ref_templates, ref_numbers = _table_shape(text)
        if templates != ref_templates or len(numbers) != len(ref_numbers):
            return False
        if any(abs(a - b) > CLI_ATOL for a, b in zip(numbers, ref_numbers)):
            return False
    return True
