"""Check that two source trees of fanout_sim give bit-identical results.

Usage: python tools/compare_trees.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the ``fanout_sim`` package (a checkout's
``src``). Each tree runs the grid below in its own Python subprocess, with
its directory first on ``sys.path``, and pickles its results to a temporary
file; this process then compares the two, field by field. A configuration
is reported ``identical`` when every field has equal bytes (signed zeros
included), ``array_equal`` when every field passes ``np.array_equal`` but
some bytes differ, and ``DIFFERENT`` otherwise; a float field that differs
is listed with its largest absolute difference, a text field with its old
and new value. The exit status is 1 unless every configuration passes
``np.array_equal``.

The grid: feedforward and pauli_frame at n = 2, 3, 4 and unitary at
n = 3, 4, 9, each with four inputs, noiseless, with device-median noise,
with device noise and ``noisy_recovery``, and (n <= 3) with strong noise and
``noisy_recovery``. Each configuration is one dense exact run (output
state, histogram, pruned mass and, when noiseless, every branch), one exact
run through ``run`` (the Pauli law of a built circuit: fidelity, joint-X and
``pauli_law``) and one seeded 300-shot trajectory run (outcome keys,
frames, histogram, and each shot's fidelity and joint-X, from one-record
results through the tree's own ``output_fidelity`` and
``joint_x_expectation``). Each engine's configurations are tallied apart.

The "law" engine also runs past the dense ceiling, at n = 32 and 200 for
all three families, with the same inputs and noise modes: fidelity, joint-X,
``pauli_law`` and, without listing the 4^(n-1) outcomes, the histogram's
probabilities of its first key and of that key's complement.

The CLI catalogue of the benchmark (``bench/workloads.py``) runs too: every
``sweep`` of its ``CLI_GRID`` (theta and phi) and every ``tomo`` of its
``TOMO_SIZES`` with each of the six cardinal inputs, in process. Each "cli"
configuration's fields are the tables' text fields (version line aside):
each ``# key`` of a header, each cell of a CSV data row as ``column[row]``
and each entry of ``tomo_rho.txt`` as ``rho[row,column]``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CIRCUITS = (
    ("feedforward", 2), ("feedforward", 3), ("feedforward", 4),
    ("pauli_frame", 2), ("pauli_frame", 3), ("pauli_frame", 4),
    ("unitary", 3), ("unitary", 4), ("unitary", 9),
)
INPUTS = {
    "1": (math.pi, 0.0),
    "+": (math.pi / 2.0, 0.0),
    "-i": (math.pi / 2.0, 3.0 * math.pi / 2.0),
    "theta=1.0,phi=0.5": (1.0, 0.5),
}
MODES = ("noiseless", "device", "device+noisy_recovery", "strong+noisy_recovery")
#: Circuits past the dense ceiling, run as a law only.
LARGE_CIRCUITS = tuple((family, n) for family in ("feedforward", "pauli_frame", "unitary")
                       for n in (32, 200))
SHOTS = 300
SEED = 17
#: A configuration's verdict is its worst field's, in this order.
VERDICTS = ("different", "array_equal", "identical")


def _noise(mode: str):
    from fanout_sim.noise import ConfusionMatrix, NoiseModel

    if mode == "noiseless":
        return None
    if mode.startswith("device"):
        return NoiseModel.device_medians()
    return NoiseModel(
        two_qubit_depol=0.2,
        single_qubit_depol=0.2,
        confusion=ConfusionMatrix(p01=0.15, p10=0.02),
        t2_echo=5e-6,
    )


def grid():
    for family, n in CIRCUITS:
        for label in INPUTS:
            for mode in MODES:
                if mode.startswith("strong") and n > 3:
                    continue
                yield family, n, label, mode


def _histogram(result) -> dict:
    return {
        "histogram.keys": list(result.histogram),
        "histogram.values": np.array(list(result.histogram.values()), dtype=float),
    }


def _run_grid() -> dict:
    """Every configuration's fields: name -> array or list of strings."""
    from fanout_sim.circuits import build_circuit
    from fanout_sim.engine import (
        RunConfig,
        joint_x_expectation,
        output_fidelity,
        run,
        run_exact,
        run_trajectory,
    )
    from fanout_sim.states import InputState

    results = {}
    for family, n, label, mode in grid():
        circuit = build_circuit(family, n)
        inp = InputState(*INPUTS[label])
        noise, noisy_recovery = _noise(mode), mode.endswith("noisy_recovery")
        name = f"{family} n={n} input={label} {mode}"

        config = RunConfig(input=inp, noise=noise, noisy_recovery=noisy_recovery)
        exact = run_exact(circuit, config)
        fields = {"output_state": exact.output_state.matrix,
                  "pruned_mass": np.array(exact.pruned_mass), **_histogram(exact)}
        if exact.branches is not None:
            fields["branches.keys"] = [key for key, _, _ in exact.branches]
            fields["branches.probs"] = np.array([prob for _, prob, _ in exact.branches])
            fields["branches.states"] = np.stack([s.amplitudes for _, _, s in exact.branches])
        results["exact " + name] = fields

        results["law " + name] = _law_fields(run(circuit, config), inp)

        traj = run_trajectory(circuit, dataclasses.replace(
            config, mode="trajectories", shots=SHOTS, seed=SEED))
        records = traj.records
        shots = [dataclasses.replace(traj, records=[r], shots=1) for r in records]
        results["trajectories " + name] = {
            "keys": [r.outcome_key for r in records],
            "frames.x": np.array([r.frame.x_flips for r in records], dtype=bool),
            "frames.z": np.array([r.frame.z_flips for r in records], dtype=bool),
            "shots.fidelity": np.array([output_fidelity(shot, inp) for shot in shots]),
            "shots.joint_x": np.array([joint_x_expectation(shot) for shot in shots]),
            **_histogram(traj),
        }
    for family, n in LARGE_CIRCUITS:
        circuit = build_circuit(family, n)
        for label in INPUTS:
            inp = InputState(*INPUTS[label])
            for mode in MODES:
                config = RunConfig(input=inp, noise=_noise(mode),
                                   noisy_recovery=mode.endswith("noisy_recovery"))
                law = run(circuit, config)
                first = next(iter(law.histogram))
                complement = first.translate(str.maketrans("01", "10"))
                results[f"law {family} n={n} input={label} {mode}"] = {
                    **_law_fields(law, inp),
                    "histogram.first": np.array(law.histogram[first]),
                    "histogram.complement": np.array(law.histogram.get(complement, 0.0)),
                }
    return results


def _law_fields(law, inp) -> dict:
    from fanout_sim.engine import joint_x_expectation, output_fidelity

    return {
        "fidelity": np.array(output_fidelity(law, inp)),
        "joint_x": np.array(joint_x_expectation(law)),
        "pauli_law": law.pauli_law,
    }


def _table_fields(name: str, text: str) -> dict[str, str]:
    """The text fields of one CLI table, named as in the module docstring."""
    fields, columns, row = {}, None, 0
    for line in text.splitlines():
        if line.startswith("# fanout-sim "):
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            fields[f"{name} # {key}"] = value
        elif name.endswith(".csv") and columns is None:
            columns = line.split(",")
        else:
            cells = line.split(",") if columns else line.split()
            for col, cell in enumerate(cells):
                label = f"{columns[col]}[{row}]" if columns else f"rho[{row},{col}]"
                fields[f"{name} {label}"] = cell
            row += 1
    return fields


def _run_cli_catalogue() -> dict:
    """Every configuration's table fields: name -> text."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads as wl
    from fanout_sim.cli import main

    ops = [wl.sweep_op(f, n, sweep) for f, n in wl.CLI_GRID for sweep in ("theta", "phi")]
    ops += [wl.tomo_op(f, n, inp) for f, n in wl.TOMO_SIZES for inp in wl.CARDINALS]
    results = {}
    with tempfile.TemporaryDirectory() as workdir:
        for i, op in enumerate(ops):
            out = Path(workdir) / str(i)
            with contextlib.redirect_stdout(io.StringIO()):
                status = main([*op.argv[:1], "--out", str(out), *op.argv[1:]])
            fields = {"exit status": str(status)}
            for path in sorted(out.iterdir()) if out.is_dir() else ():
                fields.update(_table_fields(path.name, path.read_text()))
            results["cli " + op.key] = fields
    return results


def _dump(src: str, out: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    import fanout_sim

    package = Path(fanout_sim.__file__).resolve().parent
    if package.parent != Path(src).resolve():
        raise SystemExit(f"imported fanout_sim from {package}, not from {src}")
    with open(out, "wb") as f:
        pickle.dump(_run_grid() | _run_cli_catalogue(), f)


def _load(src: str, workdir: str, tag: str) -> dict:
    out = Path(workdir) / f"{tag}.pickle"
    subprocess.run([sys.executable, __file__, "--dump", src, str(out)], check=True)
    with open(out, "rb") as f:  # written just now by our own subprocess
        return pickle.load(f)


def _compare(a, b) -> str:
    """'identical', 'array_equal' or 'different' for one field (None: missing)."""
    if a is None or b is None:
        return "identical" if a is b else "different"
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
        return "identical" if a == b else "different"
    if a.shape != b.shape or a.dtype != b.dtype or not np.array_equal(a, b):
        return "different"
    return "identical" if a.tobytes() == b.tobytes() else "array_equal"


def _max_difference(a, b) -> float | None:
    """Largest absolute difference of two float fields of one shape, else None."""
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray) or a.shape != b.shape:
        return None
    if not (np.issubdtype(a.dtype, np.inexact) and np.issubdtype(b.dtype, np.inexact)):
        return None
    return float(np.max(np.abs(a - b), initial=0.0))


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--dump":
        _dump(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        old, new = (_load(src, workdir, tag) for src, tag in zip(argv, ("old", "new")))
    tally: dict[str, dict[str, int]] = {}
    largest: dict[str, float] = {}
    for name, fields in old.items():
        engine = name.split()[0]
        other = new[name]
        verdicts = {field: _compare(fields.get(field), other.get(field))
                    for field in dict.fromkeys([*fields, *other])}
        worst = next((v for v in VERDICTS if v in verdicts.values()), "identical")
        detail = []
        for field, verdict in verdicts.items():
            a, b = fields.get(field), other.get(field)
            diff = _max_difference(a, b)
            if verdict == "different" and diff is not None:
                detail.append(f"{field} max |diff| {diff:.3g}")
                largest[engine] = max(largest.get(engine, 0.0), diff)
            elif verdict == "different" and (isinstance(a, str) or isinstance(b, str)):
                detail.append(f"{field} {a} -> {b}")
            elif verdict != "identical":
                detail.append(field)
        print(f"{name}: {worst if worst != 'different' else 'DIFFERENT'}"
              + (f" ({', '.join(detail)})" if detail else ""))
        counts = tally.setdefault(engine, dict.fromkeys(VERDICTS, 0))
        counts[worst] += 1
    for engine, counts in tally.items():
        total = sum(counts.values())
        print(f"{engine}: {total - counts['different']} of {total} array_equal, "
              f"{counts['identical']} of {total} byte-identical"
              + (f", largest float difference {largest[engine]:.3g}" if engine in largest else ""))
    return 1 if any(counts["different"] for counts in tally.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
