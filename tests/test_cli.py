"""Command-line interface tests: outputs, reproducibility, exit codes."""
import math

import numpy as np
import pytest

from fanout_sim.cli import (
    ConfigError,
    load_noise,
    main,
    parse_flat_config,
    parse_input,
    parse_rates,
)
from fanout_sim.noise import NoiseModel


def read_rows(path, columns):
    """Data rows of a headered CSV as a list of dicts."""
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            assert header == columns
            continue
        rows.append(dict(zip(header, line.split(","))))
    return rows


def read_header(path):
    values = {}
    for line in path.read_text().splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            values[key] = value
    return values


class TestParsing:
    def test_flat_config_parses_comments_and_pairs(self):
        values = parse_flat_config("# c\n\n a = 1 \nb=two\n")
        assert values == {"a": "1", "b": "two"}

    def test_flat_config_rejects_bare_lines(self):
        with pytest.raises(ConfigError):
            parse_flat_config("not a pair")

    def test_input_cardinal_labels(self):
        assert parse_input("1").theta == pytest.approx(math.pi)
        assert parse_input("+i").phi == pytest.approx(math.pi / 2)

    def test_input_angle_pairs(self):
        inp = parse_input("theta=1.5708,phi=0.5")
        assert inp.theta == pytest.approx(1.5708)
        assert inp.phi == pytest.approx(0.5)

    def test_input_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_input("up")

    def test_rates_overrides(self):
        rates = parse_rates(["eps_cnot=0", "eps_meas=0", "t2=inf"])
        assert rates.eps_cnot_avg == 0.0
        assert rates.eps_meas_avg == 0.0
        assert math.isinf(rates.t2_echo)
        assert rates.eps_idle_avg == 0.0

    def test_rates_reject_unknown_keys(self):
        with pytest.raises(ConfigError):
            parse_rates(["bogus=1"])

    def test_default_noise_matches_device_medians(self):
        model = load_noise("default")
        ref = NoiseModel.device_medians()
        assert model.two_qubit_depol == pytest.approx(ref.two_qubit_depol)
        assert model.single_qubit_depol == pytest.approx(ref.single_qubit_depol)
        assert model.confusion == ref.confusion
        assert model.t2_echo == pytest.approx(ref.t2_echo)

    def test_noise_none(self):
        assert load_noise("none") is None

    def test_noise_file(self, tmp_path):
        path = tmp_path / "noise.txt"
        path.write_text("eps_2q = 0.02\nreadout_p01 = 0.01\n")
        model = load_noise(str(path))
        assert model.two_qubit_depol == pytest.approx(0.02 * 4 / 3)
        assert model.confusion.p01 == pytest.approx(0.01)


class TestSimulateCommand:
    def test_noisy_four_output_fidelity(self, tmp_path):
        code = main(
            [
                "simulate", "--family", "feedforward", "--n", "4",
                "--input", "theta=1.5708,phi=0", "--noise", "default",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_rows(tmp_path / "simulate.csv", ["fidelity", "joint_x", "duration_ns"])
        assert float(rows[0]["fidelity"]) == pytest.approx(0.8, abs=0.05)
        assert float(rows[0]["duration_ns"]) == 1888.0

    def test_noiseless_unitary(self, tmp_path):
        code = main(
            [
                "simulate", "--family", "unitary", "--n", "4",
                "--input", "+", "--noise", "none", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_rows(tmp_path / "simulate.csv", ["fidelity", "joint_x", "duration_ns"])
        assert float(rows[0]["fidelity"]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows[0]["duration_ns"]) == 560.0

    def test_exact_beyond_the_register_ceiling(self, tmp_path):
        """n = 5 is a 13-qubit register, past the dense engine's ceiling; the
        exact law of a built circuit has none, and lists all 4^4 outcomes."""
        args = ["simulate", "--n", "5", "--noise", "default", "--out", str(tmp_path)]
        assert main(args) == 0
        rows = read_rows(tmp_path / "simulate.csv", ["fidelity", "joint_x", "duration_ns"])
        assert 0.0 < float(rows[0]["fidelity"]) < 1.0
        histogram = (tmp_path / "result.txt").read_text().split("histogram:\n")[1].splitlines()
        assert len(histogram) == 4**4

    def test_trajectories_beyond_the_register_ceiling(self, tmp_path):
        """n = 8 is a 22-qubit register; trajectory mode caps only the outputs."""
        args = ["simulate", "--mode", "trajectories", "--n", "8", "--shots", "50"]
        assert main(args + ["--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "args",
        [["--n", "30"], ["--family", "unitary", "--n", "21"]],
        ids=["feedforward-n30", "unitary-n21"],
    )
    def test_trajectories_have_no_output_cap(self, args, tmp_path):
        """Past the paper's 25-output crossover, with the default 1000 shots."""
        assert main(["simulate", "--mode", "trajectories", *args, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "simulate.csv", ["fidelity", "joint_x", "duration_ns"])
        assert 0.0 < float(rows[0]["fidelity"]) < 1.0

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        args = [
            "simulate", "--family", "feedforward", "--n", "2", "--input", "+",
            "--noise", "default", "--mode", "trajectories", "--shots", "64",
            "--seed", "7",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("simulate.csv", "result.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestSweepCommand:
    def test_noiseless_theta_sweep_has_unit_contrast(self, tmp_path):
        code = main(
            [
                "sweep", "--family", "feedforward", "--n", "2", "--sweep", "theta",
                "--points", "9", "--noise", "none", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        header = read_header(tmp_path / "sweep.csv")
        assert float(header["contrast"]) == pytest.approx(1.0, abs=1e-9)
        assert float(header["mean_fidelity"]) == pytest.approx(1.0, abs=1e-9)

    def test_noiseless_phi_sweep_traces_cosine(self, tmp_path):
        code = main(
            [
                "sweep", "--family", "feedforward", "--n", "2", "--sweep", "phi",
                "--points", "8", "--noise", "none", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_rows(
            tmp_path / "sweep.csv", ["angle", "theta", "phi", "fidelity", "joint_x"]
        )
        for row in rows:
            assert float(row["joint_x"]) == pytest.approx(
                math.cos(float(row["angle"])), abs=1e-9
            )

    def test_too_few_points_is_config_error(self, tmp_path):
        code = main(
            ["sweep", "--n", "2", "--points", "2", "--noise", "none", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_exact_constant_depth_sweep_beyond_the_register_ceiling(self, tmp_path):
        """n = 6 is 16 qubits, past the dense engine's ceiling: one Pauli law
        serves every point."""
        code = main(
            ["sweep", "--family", "feedforward", "--n", "6", "--noise", "default",
             "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "sweep.csv", ["angle", "theta", "phi", "fidelity", "joint_x"])
        assert len(rows) == 9
        assert all(0.0 < float(row["fidelity"]) < 1.0 for row in rows)


class TestTomoCommand:
    def test_noiseless_bell_reconstruction(self, tmp_path):
        code = main(
            [
                "tomo", "--family", "feedforward", "--n", "2", "--input", "+",
                "--shots", "10000", "--noise", "none", "--seed", "5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        header = read_header(tmp_path / "tomo_pauli.csv")
        assert float(header["fidelity_to_ideal"]) >= 0.99
        assert float(header["zero_ideal_band"]) <= 0.05

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        args = [
            "tomo", "--n", "2", "--input", "1", "--shots", "400",
            "--noise", "default", "--seed", "9",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("tomo_pauli.csv", "tomo_rho.txt", "tomo_counts.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_shots_is_config_error(self, tmp_path):
        assert main(["tomo", "--n", "2", "--shots", "0", "--out", str(tmp_path)]) == 2


class TestModelCommand:
    def test_default_rates_match_measured_errors(self, tmp_path):
        code = main(["model", "--n-min", "2", "--n-max", "4", "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "model.csv", ["family", "n", "error"])
        table = {(r["family"], int(r["n"])): float(r["error"]) for r in rows}
        measured = {
            ("feedforward", 2): 0.09,
            ("feedforward", 3): 0.14,
            ("feedforward", 4): 0.20,
            ("pauli_frame", 2): 0.044,
            ("pauli_frame", 3): 0.09,
            ("pauli_frame", 4): 0.14,
        }
        for key, value in measured.items():
            assert table[key] == pytest.approx(value, abs=0.03)

    def test_zero_rates_zero_errors(self, tmp_path):
        code = main(
            [
                "model", "--rates", "eps_cnot=0", "eps_meas=0", "t2=inf",
                "--n-max", "6", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_rows(tmp_path / "model.csv", ["family", "n", "error"])
        assert all(float(r["error"]) == 0.0 for r in rows)

    def test_bad_range_is_config_error(self, tmp_path):
        assert main(["model", "--n-min", "5", "--n-max", "3", "--out", str(tmp_path)]) == 2


class TestCrossoverCommand:
    def test_report_structure_and_ordering(self, tmp_path):
        code = main(["crossover", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "crossover.txt").read_text()
        values = {}
        for line in text.splitlines():
            if line.startswith(("feedforward,", "pauli_frame,")):
                family, found, reference = line.split(",")
                values[family] = (int(found), int(reference))
        assert values["feedforward"][1] == 25
        assert values["pauli_frame"][1] == 17
        assert 4 < values["pauli_frame"][0] < values["feedforward"][0]
        # the parameter set behind the report is echoed in the header
        header = read_header(tmp_path / "crossover.txt")
        assert "eps_cnot_avg" in header and "mu" in header

    def test_rerun_is_byte_identical(self, tmp_path):
        """Also with another command between the two, on the one parser
        that every ``main`` call of the process shares."""
        assert main(["crossover", "--out", str(tmp_path / "a")]) == 0
        assert main(["crossover", "--rates", "eps_cnot=0.02", "--n-max", "50",
                     "--out", str(tmp_path / "other")]) == 0
        assert main(["crossover", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "crossover.txt").read_bytes() == (
            tmp_path / "b" / "crossover.txt"
        ).read_bytes()


def test_headers_echo_config_and_version(tmp_path):
    main(["model", "--out", str(tmp_path)])
    text = (tmp_path / "model.csv").read_text()
    assert text.startswith("# fanout-sim 0.1.0")
    assert "# command = model" in text


def test_unknown_family_exits_with_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--family", "bogus", "--out", str(tmp_path)])
    assert err.value.code == 2


class TestErrorBoundary:
    """Bad input exits with status 2; a fault of the program does not."""

    def test_parsers_report_bad_values_as_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_input("theta=abc")
        with pytest.raises(ConfigError):
            parse_input("theta=4.0")
        with pytest.raises(ConfigError):
            parse_rates(["eps_cnot=x"])
        with pytest.raises(ConfigError):
            parse_rates(["eps_cnot=2"])
        path = tmp_path / "noise.txt"
        path.write_text("eps_2q = 3\n")
        with pytest.raises(ConfigError):
            load_noise(str(path))

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--n", "1", "--noise", "none"],
            ["simulate", "--n", "2", "--mode", "trajectories", "--shots", "0"],
            ["simulate", "--n", "2", "--input", "theta=9"],
            ["sweep", "--n", "2", "--sweep", "theta", "--phi", "7", "--noise", "none"],
            ["tomo", "--n", "5", "--noise", "default"],
            ["model", "--rates", "mu=-1"],
        ],
        ids=["n1", "zero-shots", "theta", "phi", "tomo-ceiling", "rates"],
    )
    def test_bad_configuration_exits_2(self, args, tmp_path, capsys):
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--n", "2", "--mode", "trajectories", "--shots", "4"],
            ["sweep", "--n", "2", "--mode", "trajectories", "--shots", "4"],
            ["tomo", "--n", "2", "--shots", "4"],
        ],
        ids=["simulate", "sweep", "tomo"],
    )
    def test_negative_seed_exits_2(self, args, tmp_path, capsys):
        assert main(args + ["--seed", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be non-negative")

    def test_singular_tomo_confusion_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "noise.txt"
        path.write_text("readout_p01 = 0.5\nreadout_p10 = 0.5\n")

        def sampled(*args):
            raise AssertionError("the tomogram was sampled")

        monkeypatch.setattr("fanout_sim.tomography.collect_tomogram", sampled)
        args = ["tomo", "--n", "2", "--noise", str(path), "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: confusion matrix is singular")
        assert not (tmp_path / "out").exists()

    def test_engine_fault_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken_run(circuit, config):
            raise ValueError("engine fault")

        monkeypatch.setattr("fanout_sim.cli.run", broken_run)
        with pytest.raises(ValueError, match="engine fault") as err:
            main(["simulate", "--n", "2", "--noise", "none", "--out", str(tmp_path)])
        assert not isinstance(err.value, ConfigError)
