"""Write bench/reference.json: the reference value of every benchmark operation.

Run from the repository root on the code the references should pin:

    python3 bench/make_reference.py

Exact runs store fidelity, joint-X and the outcome histogram. CLI calls
store the text of every table they write. Trajectory operations store the
per-shot mean and standard deviation of fidelity and joint-X over a
high-shot run, for the statistical check in ``workloads.check_pass``.
It takes about a quarter of an hour on one core, most of it the n = 6
trajectories.
"""
from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import zlib

import run  # pins thread pools and puts src/ on sys.path before numpy loads
import workloads as wl
from fanout_sim import engine
from fanout_sim.engine import RunConfig

#: Shots of the high-shot trajectory reference, by fan-out size.
REFERENCE_SHOTS = {2: 4000, 6: 1500}


def trajectory_reference(op: wl.Op, ctx: wl.Context) -> dict:
    inp = wl.cli.parse_input(op.input)
    shots = REFERENCE_SHOTS[op.n]
    config = RunConfig(input=inp, noise=ctx.noise, mode="trajectories", shots=shots,
                       seed=zlib.crc32(op.key.encode()))
    result = engine.run_trajectory(ctx.circuits[(op.family, op.n)], config)
    per_shot = [dataclasses.replace(result, records=[rec], shots=1) for rec in result.records]
    fid = [engine.output_fidelity(r, inp) for r in per_shot]
    jx = [engine.joint_x_expectation(r) for r in per_shot]
    return {
        "shots": shots,
        "fidelity": statistics.fmean(fid),
        "fidelity_sd": statistics.stdev(fid),
        "joint_x": statistics.fmean(jx),
        "joint_x_sd": statistics.stdev(jx),
    }


def main() -> int:
    # CLI calls first: they are quick and fail early on a bad argument list.
    ops = sorted(wl.all_reference_ops(), key=lambda op: ("cli", "exact", "traj").index(op.kind))
    noise = wl.cli.load_noise("default")
    sizes = sorted({(op.family, op.n) for op in ops if op.kind != "cli"})
    ctx = wl.Context(noise, {key: wl.circuits.build_circuit(*key) for key in sizes}, {})
    refs = {}
    with run.scratch_dir() as scratch:
        for op in ops:
            if op.kind == "traj":
                refs[op.key] = trajectory_reference(op, ctx)
            else:
                _, out = wl.run_op(op, ctx, scratch)
                refs[op.key] = out["files"] if op.kind == "cli" else out
            print(op.key, file=sys.stderr, flush=True)
    wl.REFERENCE_PATH.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
