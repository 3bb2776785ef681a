"""Check that two source trees of fanout_sim give bit-identical results.

Usage: python tools/compare_trees.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the ``fanout_sim`` package (a checkout's
``src``). Each tree runs the grid below in its own Python subprocess, with
its directory first on ``sys.path``, and pickles its results to a temporary
file; this process then compares the two, field by field. A configuration
is reported ``identical`` when every field has equal bytes (signed zeros
included), ``array_equal`` when every field passes ``np.array_equal`` but
some bytes differ, and ``DIFFERENT`` otherwise; a float field that differs
is listed with its largest absolute difference. The exit status is 1 unless
every configuration passes ``np.array_equal``.

The grid: feedforward and pauli_frame at n = 2, 3, 4 and unitary at
n = 3, 4, 9, each with four inputs, noiseless, with device-median noise,
with device noise and ``noisy_recovery``, and (n <= 3) with strong noise and
``noisy_recovery``. Each configuration is one exact run (output state,
histogram, pruned mass and, when noiseless, every branch) and one seeded
300-shot trajectory run (outcome keys, frames, histogram, and each shot's
fidelity and joint-X, from one-record results through the tree's own
``output_fidelity`` and ``joint_x_expectation``).
"""
from __future__ import annotations

import dataclasses
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

        exact = run_exact(circuit, RunConfig(input=inp, noise=noise, noisy_recovery=noisy_recovery))
        fields = {"output_state": exact.output_state.matrix,
                  "pruned_mass": np.array(exact.pruned_mass), **_histogram(exact)}
        if exact.branches is not None:
            fields["branches.keys"] = [key for key, _, _ in exact.branches]
            fields["branches.probs"] = np.array([prob for _, prob, _ in exact.branches])
            fields["branches.states"] = np.stack([s.amplitudes for _, _, s in exact.branches])
        results["exact " + name] = fields

        config = RunConfig(input=inp, noise=noise, mode="trajectories", shots=SHOTS, seed=SEED,
                           noisy_recovery=noisy_recovery)
        traj = run_trajectory(circuit, config)
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
    return results


def _dump(src: str, out: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    import fanout_sim

    package = Path(fanout_sim.__file__).resolve().parent
    if package.parent != Path(src).resolve():
        raise SystemExit(f"imported fanout_sim from {package}, not from {src}")
    with open(out, "wb") as f:
        pickle.dump(_run_grid(), f)


def _load(src: str, workdir: str, tag: str) -> dict:
    out = Path(workdir) / f"{tag}.pickle"
    subprocess.run([sys.executable, __file__, "--dump", src, str(out)], check=True)
    with open(out, "rb") as f:  # written just now by our own subprocess
        return pickle.load(f)


def _compare(a, b) -> str:
    """'identical', 'array_equal' or 'different' for one field."""
    if isinstance(a, list) or isinstance(b, list):
        return "identical" if a == b else "different"
    if a.shape != b.shape or a.dtype != b.dtype or not np.array_equal(a, b):
        return "different"
    return "identical" if a.tobytes() == b.tobytes() else "array_equal"


def _max_difference(a, b) -> float | None:
    """Largest absolute difference of two float fields of one shape, else None."""
    if isinstance(a, list) or isinstance(b, list) or a.shape != b.shape:
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
        verdicts = {field: _compare(value, new[name][field]) for field, value in fields.items()}
        worst = next((v for v in VERDICTS if v in verdicts.values()), "identical")
        detail = []
        for field, verdict in verdicts.items():
            diff = _max_difference(fields[field], new[name][field])
            if verdict == "different" and diff is not None:
                detail.append(f"{field} max |diff| {diff:.3g}")
                largest[engine] = max(largest.get(engine, 0.0), diff)
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
