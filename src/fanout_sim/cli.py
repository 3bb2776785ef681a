"""Batch experiment runner: simulate | sweep | tomo | model | crossover.

Every command writes plain-text tables whose header lines echo the full
configuration and package version, and is byte-reproducible under a fixed
seed. Exit code 0 on success, 2 on a configuration error. A fault of the
program itself is not a configuration error and surfaces as a traceback.
"""
from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import CONSTANT_DEPTH_FAMILIES, FAMILIES, FAMILY_UNITARY, build_circuit
from .engine import (
    CeilingError,
    RunConfig,
    joint_x_expectation,
    output_fidelity,
    run,
    run_exact,
    run_inputs,
    serialize_run_result,
    target_state,
)
from .error_model import ErrorRates, crossover, scaling_curve
from .noise import NoiseModel
from .states import CARDINAL_INPUTS, InputState, fidelity
from . import tomography as tomo

#: Reference crossover sizes extrapolated for the characterized device.
REFERENCE_CROSSOVERS = {"feedforward": 25, "pauli_frame": 17}

_CARDINALS = dict(CARDINAL_INPUTS)


class ConfigError(ValueError):
    pass


@contextmanager
def _config_errors(kind: type[ValueError] = ValueError):
    """Re-raise ``kind`` as ConfigError: the input is at fault, not the program."""
    try:
        yield
    except ConfigError:
        raise
    except kind as exc:
        raise ConfigError(str(exc)) from exc


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse a flat ``key = value`` document; '#' starts a comment line."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def load_noise(spec: str) -> NoiseModel | None:
    if spec == "none":
        return None
    if spec == "default":
        text = resources.files("fanout_sim").joinpath("data/median_device_params.txt").read_text()
    else:
        path = Path(spec)
        if not path.is_file():
            raise ConfigError(f"noise file {spec!r} not found")
        text = path.read_text()
    with _config_errors():
        return NoiseModel.from_mapping(parse_flat_config(text))


def parse_input(spec: str) -> InputState:
    """Input spec: a cardinal label (0, 1, +, -, +i, -i) or theta=..,phi=.."""
    if spec in _CARDINALS:
        return _CARDINALS[spec]
    values: dict[str, float] = {}
    for item in spec.split(","):
        key, _, value = item.partition("=")
        if key.strip() not in ("theta", "phi") or not value:
            raise ConfigError(f"bad input spec {spec!r}; use e.g. theta=1.5708,phi=0")
        with _config_errors():
            values[key.strip()] = float(value)
    if "theta" not in values:
        raise ConfigError("input spec needs a theta value")
    with _config_errors():
        return InputState(values["theta"], values.get("phi", 0.0))


_RATE_KEYS = {
    "eps_cnot": "eps_cnot_avg",
    "eps_meas": "eps_meas_avg",
    "t2": "t2_echo",
    "t_cnot": "t_cnot",
    "mu": "mu",
    "idle_law": "idle_law",
}


def parse_rates(pairs: list[str] | None) -> ErrorRates:
    kwargs = {}
    for item in pairs or []:
        key, _, value = item.partition("=")
        if key not in _RATE_KEYS or not value:
            raise ConfigError(
                f"bad rate {item!r}; known keys: {', '.join(sorted(_RATE_KEYS))}"
            )
        field = _RATE_KEYS[key]
        with _config_errors():
            kwargs[field] = value if field == "idle_law" else float(value)
    with _config_errors():
        return ErrorRates(**kwargs)


def _header(command: str, pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# fanout-sim {__version__}", f"# command = {command}"]
    lines += [f"# {key} = {value}" for key, value in pairs]
    return lines


def _write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _rates_pairs(rates: ErrorRates) -> list[tuple[str, object]]:
    return [
        ("eps_cnot_avg", f"{rates.eps_cnot_avg:g}"),
        ("eps_meas_avg", f"{rates.eps_meas_avg:g}"),
        ("eps_idle_avg", f"{rates.eps_idle_avg:.8g}"),
        ("t2_echo_s", f"{rates.t2_echo:g}"),
        ("t_cnot_s", f"{rates.t_cnot:.8g}"),
        ("mu", f"{rates.mu:g}"),
        ("idle_law", rates.idle_law),
    ]


def cmd_simulate(args) -> int:
    noise = load_noise(args.noise)
    inp = parse_input(args.input)
    with _config_errors():
        circuit = build_circuit(args.family, args.n)
        config = RunConfig(
            input=inp, noise=noise, mode=args.mode, shots=args.shots, seed=args.seed
        )
    result = run(circuit, config)
    fid = output_fidelity(result, inp)
    jx = joint_x_expectation(result)
    header = _header(
        "simulate",
        [
            ("family", args.family),
            ("n", args.n),
            ("input_theta", f"{inp.theta:.10g}"),
            ("input_phi", f"{inp.phi:.10g}"),
            ("noise", args.noise),
            ("mode", args.mode),
            ("shots", args.shots if args.mode == "trajectories" else "-"),
            ("seed", args.seed),
        ],
    )
    out = Path(args.out)
    _write(
        out / "simulate.csv",
        header
        + [
            "fidelity,joint_x,duration_ns",
            f"{fid:.10f},{jx:.10f},{result.duration_ns:g}",
        ],
    )
    _write(out / "result.txt", header + serialize_run_result(result, inp).splitlines())
    print(f"fidelity={fid:.6f} joint_x={jx:.6f} duration_ns={result.duration_ns:g}")
    return 0


def cmd_sweep(args) -> int:
    noise = load_noise(args.noise)
    if args.points < 4:
        raise ConfigError("sweep needs at least four points for the sinusoid fit")
    with _config_errors():
        if args.sweep == "theta":
            angles = np.linspace(0.0, math.pi, args.points)
            inputs = [InputState(a, args.phi) for a in angles]
        else:
            angles = np.linspace(0.0, 2.0 * math.pi, args.points, endpoint=False)
            inputs = [InputState(args.theta, a) for a in angles]
        circuit = build_circuit(args.family, args.n)
        configs = [
            RunConfig(input=inp, noise=noise, mode=args.mode, shots=args.shots, seed=args.seed)
            for inp in inputs
        ]
    # An exact sweep of a constant-depth family evaluates one Pauli law at
    # every point. The unitary ladder's keeps the dense engine: a theta
    # sweep's true phase is 0, which contrast_fit folds into [0, 2pi), so
    # whether it prints 0 or 2pi follows 1e-17 rounding of joint-X, and the
    # benchmark reference pins the dense engine's 0 for the n = 2 ladder.
    with _config_errors(CeilingError):
        if args.mode == "exact" and args.family == FAMILY_UNITARY:
            results = [run_exact(circuit, config) for config in configs]
        else:
            results = run_inputs(circuit, configs)
    rows, fids, jxs = [], [], []
    for angle, inp, result in zip(angles, inputs, results):
        fid = output_fidelity(result, inp)
        jx = joint_x_expectation(result)
        fids.append(fid)
        jxs.append(jx)
        rows.append(
            f"{angle:.10f},{inp.theta:.10f},{inp.phi:.10f},{fid:.10f},{jx:.10f}"
        )
    contrast, phase, offset = tomo.contrast_fit(angles, jxs)
    mean_fid = float(np.mean(fids))
    header = _header(
        "sweep",
        [
            ("family", args.family),
            ("n", args.n),
            ("sweep", args.sweep),
            ("points", args.points),
            ("fixed_theta", f"{args.theta:.10g}"),
            ("fixed_phi", f"{args.phi:.10g}"),
            ("noise", args.noise),
            ("mode", args.mode),
            ("shots", args.shots if args.mode == "trajectories" else "-"),
            ("seed", args.seed),
            ("contrast", f"{contrast:.10f}"),
            ("phase", f"{phase:.10f}"),
            ("offset", f"{offset:.10f}"),
            ("mean_fidelity", f"{mean_fid:.10f}"),
        ],
    )
    _write(
        Path(args.out) / "sweep.csv",
        header + ["angle,theta,phi,fidelity,joint_x"] + rows,
    )
    print(f"contrast={contrast:.6f} mean_fidelity={mean_fid:.6f}")
    return 0


def cmd_tomo(args) -> int:
    noise = load_noise(args.noise)
    inp = parse_input(args.input)
    if args.shots < 1:
        raise ConfigError("tomography needs at least one shot per setting")
    with _config_errors():
        circuit = build_circuit(args.family, args.n)
    with _config_errors(CeilingError):
        truth = run_exact(circuit, RunConfig(input=inp, noise=noise)).output_state
    rng = np.random.default_rng(args.seed)
    confusion = noise.confusion if noise is not None else None
    data = tomo.collect_tomogram(truth, args.shots, confusion, rng)
    rec = tomo.reconstruct(data)
    ideal = target_state(inp, args.n).to_density()
    fid_truth = fidelity(rec.rho, truth)
    fid_ideal = fidelity(rec.rho, ideal)
    table = tomo.pauli_table(rec.rho)
    ideal_table = tomo.pauli_table(ideal)
    nonzero, zero = tomo.split_by_ideal(table, ideal_table)
    zero_band = max(abs(v) for v in zero.values()) if zero else 0.0
    nonzero_mean = (
        float(np.mean([abs(v) for v in nonzero.values()])) if nonzero else 0.0
    )
    header = _header(
        "tomo",
        [
            ("family", args.family),
            ("n", args.n),
            ("input_theta", f"{inp.theta:.10g}"),
            ("input_phi", f"{inp.phi:.10g}"),
            ("noise", args.noise),
            ("shots_per_setting", args.shots),
            ("seed", args.seed),
            ("fidelity_to_simulated", f"{fid_truth:.10f}"),
            ("fidelity_to_ideal", f"{fid_ideal:.10f}"),
            ("nonzero_ideal_mean_abs", f"{nonzero_mean:.10f}"),
            ("zero_ideal_band", f"{zero_band:.10f}"),
            ("projection_adjustment", f"{rec.adjustment:.10f}"),
        ],
    )
    out = Path(args.out)
    pauli_rows = ["pauli,measured,ideal"]
    pauli_rows += [
        f"{p},{table[p]:.10f},{ideal_table[p]:.10f}" for p in sorted(table)
    ]
    _write(out / "tomo_pauli.csv", header + pauli_rows)
    _write(out / "tomo_rho.txt", header + tomo.serialize_density(rec.rho).splitlines())
    _write(out / "tomo_counts.csv", header + tomo.serialize_tomogram(data).splitlines())
    print(
        f"fidelity_to_simulated={fid_truth:.6f} fidelity_to_ideal={fid_ideal:.6f} "
        f"zero_band={zero_band:.6f}"
    )
    return 0


def cmd_model(args) -> int:
    rates = parse_rates(args.rates)
    if args.n_max < args.n_min or args.n_min < 2:
        raise ConfigError("need 2 <= n_min <= n_max")
    ns = range(args.n_min, args.n_max + 1)
    header = _header(
        "model",
        [("n_min", args.n_min), ("n_max", args.n_max)] + _rates_pairs(rates),
    )
    rows = ["family,n,error"]
    for family in FAMILIES:
        curve = scaling_curve(rates, family, ns)
        rows += [
            f"{family},{n},{eps:.10f}" for n, eps in zip(curve.ns, curve.errors)
        ]
    _write(Path(args.out) / "model.csv", header + rows)
    print(f"wrote scaling curves for n={args.n_min}..{args.n_max}")
    return 0


def cmd_crossover(args) -> int:
    rates = parse_rates(args.rates)
    if args.n_max < 2:
        raise ConfigError("n_max must be at least 2")
    results = {}
    for family in CONSTANT_DEPTH_FAMILIES:
        results[family] = crossover(rates, family, "unitary", args.n_max)
    lines = _header("crossover", [("n_max", args.n_max)] + _rates_pairs(rates))
    lines.append("family,crossover_n,reference_n")
    for family in CONSTANT_DEPTH_FAMILIES:
        value = results[family]
        lines.append(
            f"{family},{value if value is not None else 'none'},"
            f"{REFERENCE_CROSSOVERS[family]}"
        )
    lines.append(
        "# reference_n: crossover extrapolated for the characterized device."
    )
    lines.append(
        "# The exact parameter set behind that extrapolation is not pinned by the"
    )
    lines.append(
        "# characterization, so computed values depend on the rates echoed above."
    )
    _write(Path(args.out) / "crossover.txt", lines)
    for family, value in results.items():
        print(
            f"{family}: crossover at n={value} "
            f"(reference {REFERENCE_CROSSOVERS[family]})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanout-sim",
        description="Fan-out protocol simulator and error-model explorer",
    )
    parser.add_argument("--version", action="version", version=f"fanout-sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, families=FAMILIES):
        p.add_argument("--family", choices=families, default="feedforward")
        p.add_argument("--n", type=int, default=4, help="number of output qubits")
        p.add_argument("--noise", default="default", help="noise file | default | none")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("simulate", help="single protocol run")
    add_common(p)
    p.add_argument("--input", default="+", help="cardinal label or theta=..,phi=..")
    p.add_argument("--mode", choices=("exact", "trajectories"), default="exact")
    p.add_argument("--shots", type=int, default=1000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="fidelity and joint-X over an input-angle sweep")
    add_common(p)
    p.add_argument("--sweep", choices=("theta", "phi"), default="theta")
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--theta", type=float, default=math.pi / 2.0, help="fixed theta for phi sweeps")
    p.add_argument("--phi", type=float, default=0.0, help="fixed phi for theta sweeps")
    p.add_argument("--mode", choices=("exact", "trajectories"), default="exact")
    p.add_argument("--shots", type=int, default=1000)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tomo", help="simulated tomography of the output state")
    add_common(p)
    p.add_argument("--input", default="1", help="cardinal label or theta=..,phi=..")
    p.add_argument("--shots", type=int, default=1000, help="shots per setting")
    p.set_defaults(func=cmd_tomo)

    p = sub.add_parser("model", help="success-probability scaling curves")
    p.add_argument("--rates", nargs="*", metavar="KEY=VALUE")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("crossover", help="constant-depth vs unitary crossover sizes")
    p.add_argument("--rates", nargs="*", metavar="KEY=VALUE")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_crossover)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
