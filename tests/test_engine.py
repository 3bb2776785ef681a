"""Protocol engine tests: exact branch enumeration and trajectories."""
import dataclasses
import functools
import json
import math
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from fanout_sim.circuits import (
    FAMILIES,
    FAMILY_FEEDFORWARD,
    Circuit,
    Layer,
    PrepareInputOp,
    build_circuit,
    build_constant_depth,
    build_unitary,
)
from fanout_sim.engine import (
    BRANCH_PRUNE,
    RunConfig,
    _conjugate,
    cardinal_error,
    joint_x_expectation,
    output_fidelity,
    run,
    run_exact,
    run_trajectory,
    serialize_run_result,
)
from fanout_sim.noise import ConfusionMatrix, NoiseModel
from fanout_sim.states import (
    PAULI_MATRICES,
    DensityState,
    GateOp,
    InputState,
    QubitRegister,
    gate_matrix,
)

PLUS = InputState(math.pi / 2.0, 0.0)
ONE = InputState(math.pi, 0.0)

#: Trajectory-versus-exact inputs: a cardinal point and one off them.
ORACLE_INPUTS = {"+": PLUS, "theta=1.0,phi=0.5": InputState(1.0, 0.5)}
ORACLE_SHOTS = 50_000

#: Every (family, n, input label, noisy_recovery) case of ``exact_oracle``.
ORACLE_CASES = list(product(FAMILIES, (2, 3, 4), ORACLE_INPUTS, (False, True)))
REFERENCE = Path(__file__).with_name("exact_reference.json")


def noiseless(inp, **kwargs):
    return RunConfig(input=inp, noise=None, **kwargs)


@functools.lru_cache(maxsize=None)
def exact_oracle(family, n, label, noisy_recovery):
    """Noisy exact run at the device medians, shared (not to be mutated) across tests."""
    config = RunConfig(
        input=ORACLE_INPUTS[label],
        noise=NoiseModel.device_medians(),
        noisy_recovery=noisy_recovery,
    )
    return run_exact(build_circuit(family, n), config)


def _case_id(family, n, label, noisy_recovery) -> str:
    return f"{family}-n{n}-{label}-{'noisy_recovery' if noisy_recovery else 'clean'}"


def _reference_values(result, inp) -> dict:
    return {
        "fidelity": output_fidelity(result, inp),
        "joint_x": joint_x_expectation(result),
        "histogram": result.histogram,
    }


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[_case_id(*case) for case in ORACLE_CASES])
def test_exact_oracle_matches_reference(case):
    """The noisy exact runs match values checked in from an earlier engine.

    ``python tests/test_engine.py`` rewrites the reference from the code on
    ``sys.path``; only feedforward circuits carry recovery pulses, so the
    other families share the runs of their clean cases.
    """
    family, n, label, noisy_recovery = case
    expected = json.loads(REFERENCE.read_text())[_case_id(*case)]
    result = exact_oracle(family, n, label, noisy_recovery and family == FAMILY_FEEDFORWARD)
    actual = _reference_values(result, ORACLE_INPUTS[label])
    assert actual["fidelity"] == pytest.approx(expected["fidelity"], abs=1e-12)
    assert actual["joint_x"] == pytest.approx(expected["joint_x"], abs=1e-12)
    assert list(actual["histogram"]) == list(expected["histogram"])
    np.testing.assert_allclose(
        list(actual["histogram"].values()), list(expected["histogram"].values()), rtol=0, atol=1e-12
    )


def write_reference() -> None:
    """Rewrite ``exact_reference.json`` from the code on ``sys.path``."""
    values = {
        _case_id(*case): _reference_values(exact_oracle(*case), ORACLE_INPUTS[case[2]])
        for case in ORACLE_CASES
    }
    REFERENCE.write_text(json.dumps(values, indent=1) + "\n")


class TestRunExactNoiseless:
    def test_bell_output_from_two_outputs(self):
        """theta=pi/2 teleports to (|00> + |11>)/sqrt2 on every branch."""
        result = run_exact(build_constant_depth(2), noiseless(PLUS))
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert output_fidelity(result, PLUS) == pytest.approx(1.0, abs=1e-10)
        assert len(result.branches) == 4
        for _, prob, state in result.branches:
            assert prob == pytest.approx(0.25, abs=1e-12)
            assert abs(np.vdot(bell, state.amplitudes)) ** 2 == pytest.approx(
                1.0, abs=1e-10
            )

    @pytest.mark.parametrize("family", ["feedforward", "pauli_frame"])
    def test_random_inputs_reach_unit_fidelity(self, family):
        rng = np.random.default_rng(21)
        circuit = build_constant_depth(4, family=family)
        for _ in range(5):
            inp = InputState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            result = run_exact(circuit, noiseless(inp))
            assert output_fidelity(result, inp) >= 1.0 - 1e-9

    def test_families_give_identical_noiseless_outputs(self):
        inp = InputState(0.8, 1.3)
        ff = run_exact(build_constant_depth(3), noiseless(inp))
        pfu = run_exact(build_constant_depth(3, family="pauli_frame"), noiseless(inp))
        np.testing.assert_allclose(
            ff.output_state.matrix, pfu.output_state.matrix, atol=1e-12
        )

    def test_unitary_ladder_copies_input(self):
        result = run_exact(build_unitary(5), noiseless(PLUS))
        assert output_fidelity(result, PLUS) == pytest.approx(1.0, abs=1e-10)

    def test_histogram_is_uniform_for_equator_input(self):
        result = run_exact(build_constant_depth(2), noiseless(PLUS))
        assert set(result.histogram) == {"00", "01", "10", "11"}
        np.testing.assert_allclose(list(result.histogram.values()), 0.25, atol=1e-12)

    def test_exact_mode_ignores_seed(self):
        a = run_exact(build_constant_depth(2), RunConfig(input=PLUS, seed=1))
        b = run_exact(build_constant_depth(2), RunConfig(input=PLUS, seed=999))
        np.testing.assert_array_equal(a.output_state.matrix, b.output_state.matrix)


class TestRunExactNoisy:
    def test_excited_input_fidelity_near_measured(self):
        """Four-output run with device noise lands near the measured 0.797."""
        noise = NoiseModel.device_medians()
        result = run_exact(build_constant_depth(4), RunConfig(input=ONE, noise=noise))
        assert output_fidelity(result, ONE) == pytest.approx(0.80, abs=0.05)

    def test_pauli_frame_beats_feedforward_with_noise(self):
        noise = NoiseModel.device_medians()
        ff = cardinal_error(build_constant_depth(2), noise)
        pfu = cardinal_error(build_constant_depth(2, family="pauli_frame"), noise)
        assert pfu < ff

    def test_qubit_ceiling_enforced(self):
        noise = NoiseModel.device_medians()
        circuit = build_constant_depth(5)  # 13 qubits
        with pytest.raises(ValueError):
            run_exact(circuit, RunConfig(input=PLUS, noise=noise))

    def test_output_state_is_valid_density(self):
        noise = NoiseModel.device_medians()
        result = run_exact(build_constant_depth(2), RunConfig(input=PLUS, noise=noise))
        rho = result.output_state
        rho.validate(psd=True)
        assert sum(result.histogram.values()) == pytest.approx(1.0, abs=1e-9)


class TestPrunedMass:
    def test_noiseless_run_prunes_nothing(self):
        result = run_exact(build_constant_depth(3), noiseless(InputState(1.0, 0.5)))
        assert abs(result.pruned_mass) <= 1e-12

    def test_noisy_run_prunes_at_most_one_threshold_per_branch(self):
        result = exact_oracle(FAMILY_FEEDFORWARD, 4, "+", False)
        assert 0.0 <= result.pruned_mass < 4**6 * BRANCH_PRUNE

    def test_trajectory_runs_carry_none(self):
        config = noiseless(PLUS, mode="trajectories", shots=4, seed=1)
        assert run_trajectory(build_constant_depth(2), config).pruned_mass is None


class TestRunTrajectory:
    def test_noiseless_shots_all_reach_target(self):
        config = noiseless(PLUS, mode="trajectories", shots=64, seed=3)
        result = run_trajectory(build_constant_depth(3), config)
        for record in result.records:
            shot = dataclasses.replace(result, records=[record], shots=1)
            assert output_fidelity(shot, PLUS) >= 1.0 - 1e-9
        assert sum(result.histogram.values()) == 64

    def test_fixed_seed_reproduces_bitwise(self):
        config = RunConfig(
            input=PLUS,
            noise=NoiseModel.device_medians(),
            mode="trajectories",
            shots=40,
            seed=11,
        )
        a = run_trajectory(build_constant_depth(2), config)
        b = run_trajectory(build_constant_depth(2), config)
        assert [r.outcome_key for r in a.records] == [r.outcome_key for r in b.records]
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.state.amplitudes, rb.state.amplitudes)
            assert ra.frame == rb.frame

    @pytest.mark.parametrize("label", list(ORACLE_INPUTS))
    @pytest.mark.parametrize("noisy_recovery", [False, True], ids=["clean", "noisy_recovery"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mean_matches_exact_within_monte_carlo_error(self, family, n, noisy_recovery, label):
        """At the device medians, a 50k-shot run matches the exact run.

        The fidelity and histogram bounds stay below 0.01; the joint-X bound
        reaches about 0.02, since per-shot values of +-1 need about 130k
        shots for 0.01.
        """
        inp = ORACLE_INPUTS[label]
        # Only feedforward circuits carry recovery pulses to make noisy.
        exact = exact_oracle(family, n, label, noisy_recovery and family == FAMILY_FEEDFORWARD)
        config = RunConfig(
            input=inp,
            noise=NoiseModel.device_medians(),
            mode="trajectories",
            shots=ORACLE_SHOTS,
            seed=7,
            noisy_recovery=noisy_recovery,
        )
        result = run_trajectory(build_circuit(family, n), config)
        assert_within_five_standard_errors(result, exact, inp, max_bound=0.01)

    @pytest.mark.parametrize("noisy_recovery", [False, True], ids=["clean", "noisy_recovery"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_strong_noise_matches_exact(self, family, n, noisy_recovery):
        """Errors some 100 times the device's, and readout that favours 0,
        make every noise site and each readout direction move the result
        by far more than the 5-standard-error bound."""
        inp = ORACLE_INPUTS["theta=1.0,phi=0.5"]
        noise = NoiseModel(
            two_qubit_depol=0.2,
            single_qubit_depol=0.2,
            confusion=ConfusionMatrix(p01=0.15, p10=0.02),
            t2_echo=5e-6,
        )
        circuit = build_circuit(family, n)
        exact = run_exact(circuit, RunConfig(input=inp, noise=noise, noisy_recovery=noisy_recovery))
        config = RunConfig(
            input=inp, noise=noise, mode="trajectories", shots=20_000, seed=3,
            noisy_recovery=noisy_recovery,
        )
        result = run_trajectory(circuit, config)
        assert_within_five_standard_errors(result, exact, inp)

    def test_pauli_frame_records_carry_frames(self):
        config = RunConfig(
            input=ONE,
            noise=NoiseModel.device_medians(),
            mode="trajectories",
            shots=200,
            seed=5,
        )
        result = run_trajectory(build_constant_depth(2, family="pauli_frame"), config)
        assert any(any(r.frame.x_flips) or any(r.frame.z_flips) for r in result.records)
        assert output_fidelity(result, ONE) == pytest.approx(1.0, abs=0.08)

    def test_non_clifford_rotation_rejected(self):
        circuit = _one_qubit_circuit(PrepareInputOp(0), GateOp("RX", (0,), 0.3))
        with pytest.raises(ValueError, match="RX"):
            run_trajectory(circuit, noiseless(PLUS, mode="trajectories", shots=8, seed=1))
        # Exact mode still runs it: RX commutes with X, so |+> only picks up a phase.
        assert output_fidelity(run_exact(circuit, noiseless(PLUS)), PLUS) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_late_input_pulse_rejected(self):
        circuit = _one_qubit_circuit(GateOp("H", (0,)), PrepareInputOp(0))
        with pytest.raises(ValueError, match="PrepareInputOp"):
            run_trajectory(circuit, noiseless(PLUS, mode="trajectories", shots=8, seed=1))


@dataclasses.dataclass(frozen=True)
class _UnknownOp:
    qubit: int


@pytest.mark.parametrize("mode", ["exact", "trajectories"])
def test_unknown_operation_rejected(mode):
    circuit = _one_qubit_circuit(_UnknownOp(0))
    with pytest.raises(TypeError, match="unexpected operation"):
        run(circuit, noiseless(PLUS, mode=mode, seed=1))


def assert_within_five_standard_errors(result, exact, inp, max_bound=None):
    """Fidelity, joint-X and every histogram bin of a trajectory run lie
    within 5 standard errors of the exact run.

    Per-shot fidelities lie in [0, 1] and per-shot joint-X values in
    [-1, 1], so their variances are at most F(1-F) and 1-J^2 (the
    Bhatia-Davis bound); the standard errors use those bounds. With
    ``max_bound`` set, the fidelity and histogram bounds must be tighter.
    """
    shots = result.shots
    assert sum(result.histogram.values()) == shots
    fid, jx = output_fidelity(exact, inp), joint_x_expectation(exact)
    bounds = {"fidelity": 5 * math.sqrt(fid * (1 - fid) / shots)}
    assert abs(output_fidelity(result, inp) - fid) <= bounds["fidelity"]
    assert abs(joint_x_expectation(result) - jx) <= 5 * math.sqrt((1 - jx * jx) / shots)
    for key in exact.histogram.keys() | result.histogram.keys():
        p = exact.histogram.get(key, 0.0)
        bounds[key] = 5 * math.sqrt(p * (1 - p) / shots)
        assert abs(result.histogram.get(key, 0) / shots - p) <= bounds[key], key
    if max_bound is not None:
        assert max(bounds.values()) < max_bound


def _one_qubit_circuit(*ops) -> Circuit:
    layers = [Layer(32.0, "prepare", [op]) for op in ops]
    return Circuit("unitary", 1, QubitRegister(("q",)), layers, (0,))


def _dense_pauli(x_bits, z_bits) -> np.ndarray:
    """X^x Z^z on each qubit, qubit 0 most significant."""
    factors = [
        np.linalg.matrix_power(PAULI_MATRICES["X"], int(xb))
        @ np.linalg.matrix_power(PAULI_MATRICES["Z"], int(zb))
        for xb, zb in zip(x_bits, z_bits)
    ]
    return reduce(np.kron, factors)


FRAME_GATES = [
    GateOp("H", (0,)),
    GateOp("X", (0,)),
    GateOp("Z", (0,)),
    *(GateOp(kind, (0,), angle) for kind in ("RX", "RY", "RZ")
      for angle in (math.pi / 2, -math.pi / 2, math.pi, -math.pi)),
    GateOp("CZ", (0, 1)),
    GateOp("CNOT", (0, 1)),
    GateOp("CNOT", (1, 0)),
]


@pytest.mark.parametrize("gate", FRAME_GATES, ids=lambda g: f"{g.kind}{g.targets}{g.angle or ''}")
def test_frame_rule_matches_dense_conjugation(gate):
    """Each frame update equals U P U^dagger up to phase, for every Pauli P."""
    width = 2 if len(gate.targets) == 2 else 1
    paulis = list(product((0, 1), repeat=2 * width))
    x = np.array([p[:width] for p in paulis], dtype=bool)
    z = np.array([p[width:] for p in paulis], dtype=bool)
    new_x, new_z = x.copy(), z.copy()
    _conjugate(new_x, new_z, gate)
    u = gate_matrix(gate.kind, gate.angle)
    if gate.targets == (1, 0):
        swap = np.eye(4)[[0, 2, 1, 3]]
        u = swap @ u @ swap
    for row in range(len(paulis)):
        conjugated = u @ _dense_pauli(x[row], z[row]) @ u.conj().T
        expected = _dense_pauli(new_x[row], new_z[row])
        overlap = np.trace(expected.conj().T @ conjugated) / len(u)
        assert abs(abs(overlap) - 1.0) < 1e-12, (paulis[row], new_x[row], new_z[row])


class TestOutputFidelity:
    def test_ideal_against_itself(self):
        result = run_exact(build_constant_depth(2), noiseless(PLUS))
        assert output_fidelity(result, PLUS) == pytest.approx(1.0, abs=1e-10)

    def test_pole_input_gives_ground_output(self):
        inp = InputState(0.0, 0.0)
        result = run_exact(build_constant_depth(2), noiseless(inp))
        assert result.output_state.matrix[0, 0].real == pytest.approx(1.0, abs=1e-10)
        assert output_fidelity(result, inp) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_against_bell_target(self):
        result = run_exact(build_constant_depth(2), noiseless(PLUS))
        result.output_state = DensityState.maximally_mixed(2)
        assert output_fidelity(result, PLUS) == pytest.approx(0.25, abs=1e-12)


class TestJointX:
    def test_equator_input_saturates(self):
        result = run_exact(build_constant_depth(3), noiseless(PLUS))
        assert joint_x_expectation(result) == pytest.approx(1.0, abs=1e-9)

    def test_pole_input_vanishes(self):
        result = run_exact(build_constant_depth(3), noiseless(InputState(0.0, 0.0)))
        assert joint_x_expectation(result) == pytest.approx(0.0, abs=1e-9)

    def test_theta_sweep_traces_sine(self):
        circuit = build_constant_depth(2)
        for theta in np.linspace(0.0, math.pi, 7):
            result = run_exact(circuit, noiseless(InputState(float(theta), 0.0)))
            assert joint_x_expectation(result) == pytest.approx(
                math.sin(theta), abs=1e-9
            )

    def test_phi_sweep_traces_cosine(self):
        circuit = build_constant_depth(2)
        for phi in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
            result = run_exact(circuit, noiseless(InputState(math.pi / 2, float(phi))))
            assert joint_x_expectation(result) == pytest.approx(
                math.cos(phi), abs=1e-9
            )


class TestCardinalError:
    def test_noiseless_error_vanishes(self):
        assert cardinal_error(build_constant_depth(2)) == pytest.approx(0.0, abs=1e-9)
        assert cardinal_error(build_unitary(3)) == pytest.approx(0.0, abs=1e-9)

    def test_feedforward_two_outputs_near_measured(self):
        noise = NoiseModel.device_medians()
        eps = cardinal_error(build_constant_depth(2), noise)
        assert eps == pytest.approx(0.09, abs=0.03)

    def test_pauli_frame_two_outputs_near_measured(self):
        noise = NoiseModel.device_medians()
        eps = cardinal_error(build_constant_depth(2, family="pauli_frame"), noise)
        assert eps == pytest.approx(0.044, abs=0.03)

    def test_fidelity_is_input_independent(self):
        """Fidelity varies by at most +-0.03 over a (theta, phi) grid."""
        noise = NoiseModel.device_medians()
        circuit = build_constant_depth(2)
        fids = []
        for theta in (0.0, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi):
            for phi in (0.0, math.pi / 2):
                inp = InputState(theta, phi)
                result = run_exact(circuit, RunConfig(input=inp, noise=noise))
                fids.append(output_fidelity(result, inp))
        mean = float(np.mean(fids))
        assert max(abs(f - mean) for f in fids) <= 0.03


def test_serialize_run_result_structure():
    result = run_exact(build_constant_depth(2), noiseless(PLUS))
    text = serialize_run_result(result, PLUS)
    assert "fidelity = 1.0000000000" in text
    assert "duration_ns = 1888" in text
    assert "histogram:" in text


def test_noisy_recovery_option_adds_error():
    noise = NoiseModel.device_medians()
    circuit = build_constant_depth(2)
    clean = cardinal_error(circuit, noise, noisy_recovery=False)
    noisy = cardinal_error(circuit, noise, noisy_recovery=True)
    assert noisy > clean


if __name__ == "__main__":
    write_reference()
