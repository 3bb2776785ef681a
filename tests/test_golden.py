"""Checked-in CLI outputs: every table must match its golden file byte for byte.

The golden files under ``tests/golden/`` guard refactors of the engine,
the kernels and the CLI against any change of the printed digits. Only the
package-version line is ignored. To re-baseline after a deliberate change
of the numbers, run ``python tests/test_golden.py [CASE ...]`` with ``src``
on ``PYTHONPATH`` (no case names rewrites every case) and say in the change
log which digits moved and why. The trajectory cases pin the seeded random
streams of the frame sampler as well as its numbers.
"""
from pathlib import Path

import pytest

from fanout_sim.cli import main

GOLDEN = Path(__file__).with_name("golden")

_SIMULATE = [
    (f"simulate_{family}_n{n}_{noise}",
     ["simulate", "--family", family, "--n", str(n), "--noise", noise])
    for family in ("unitary", "feedforward", "pauli_frame")
    for n in (2, 3)
    for noise in ("default", "none")
]

#: (case name, CLI arguments without --out). tomo at n = 3 with input 1 is
#: the configuration whose reconstruction is most sensitive to round-off.
CASES = _SIMULATE + [
    ("sweep_feedforward_n2", ["sweep", "--family", "feedforward", "--n", "2"]),
    ("sweep_pauli_frame_n2_phi",
     ["sweep", "--family", "pauli_frame", "--n", "2", "--sweep", "phi", "--points", "6"]),
    ("tomo_feedforward_n3",
     ["tomo", "--family", "feedforward", "--n", "3", "--input=1", "--seed", "7"]),
] + [
    (f"simulate_{family}_n3_trajectories",
     ["simulate", "--family", family, "--n", "3", "--mode", "trajectories",
      "--shots", "2000", "--seed", "7"])
    for family in ("feedforward", "pauli_frame")
]


def _strip_version(data: bytes) -> bytes:
    return b"\n".join(
        line for line in data.split(b"\n") if not line.startswith(b"# fanout-sim ")
    )


def _run(args: list[str], out: Path) -> dict[str, bytes]:
    assert main(args + ["--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name,args", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, args, tmp_path):
    expected_dir = GOLDEN / name
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    produced = _run(args, tmp_path)
    assert sorted(produced) == sorted(expected)
    for filename, data in produced.items():
        assert _strip_version(data) == _strip_version(expected[filename]), (
            f"{name}/{filename} differs from its golden file"
        )


def write_golden(names=None) -> None:
    """Regenerate the named golden directories (default: all) from the code
    on ``sys.path``."""
    import contextlib
    import io
    import shutil

    for name, args in CASES:
        if names and name not in names:
            continue
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            _run(args, target)


if __name__ == "__main__":
    import sys

    write_golden(sys.argv[1:])
