"""State backend tests: gates, measurement, expectations, fidelity."""
import math

import numpy as np
import pytest

from fanout_sim.states import (
    CARDINAL_INPUTS,
    DensityState,
    GateOp,
    InputState,
    PureState,
    QubitRegister,
    fidelity,
    gate_matrix,
)

SQ2 = 1.0 / math.sqrt(2.0)


def random_unitary(rng, dim=2):
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng, n):
    dim = 2**n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityState(m / np.trace(m), validate=False)


def overlap(state, amplitudes):
    return abs(np.vdot(np.asarray(amplitudes, dtype=complex), state.amplitudes)) ** 2


class TestInitState:
    def test_single_qubit_ground(self):
        state = PureState.zeros(1)
        np.testing.assert_allclose(state.amplitudes, [1, 0])

    def test_two_qubit_ground(self):
        state = PureState.zeros(2)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])

    def test_ten_qubit_ground(self):
        state = PureState.zeros(10)
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            QubitRegister(("a", "a"))


class TestPrepareInput:
    def test_theta_zero_keeps_ground(self):
        state = PureState.zeros(1).prepare_input(0, InputState(0.0, 0.0))
        assert overlap(state, [1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_theta_pi_gives_excited(self):
        state = PureState.zeros(1).prepare_input(0, InputState(math.pi, 0.0))
        assert overlap(state, [0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_equator_phase(self):
        """theta=pi/2, phi=pi/2 maps to (1/sqrt2, i/sqrt2)."""
        state = PureState.zeros(1).prepare_input(0, InputState(math.pi / 2, math.pi / 2))
        np.testing.assert_allclose(state.amplitudes, [SQ2, 1j * SQ2], atol=1e-12)

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError):
            PureState.zeros(1).prepare_input(1, InputState(0.1, 0.0))

    def test_occupied_target_rejected(self):
        state = PureState.zeros(1).apply_gate(GateOp("X", (0,)))
        with pytest.raises(ValueError):
            state.prepare_input(0, InputState(0.5, 0.0))

    def test_angle_ranges_validated(self):
        with pytest.raises(ValueError):
            InputState(-0.1, 0.0)
        with pytest.raises(ValueError):
            InputState(1.0, 2.0 * math.pi)


class TestApplyGate:
    def test_hadamard_plus_state(self):
        state = PureState.zeros(1).apply_gate(GateOp("H", (0,)))
        np.testing.assert_allclose(state.amplitudes, [SQ2, SQ2], atol=1e-12)

    def test_cnot_flips_target(self):
        state = PureState.zeros(2).apply_gate(GateOp("X", (0,)))
        state.apply_gate(GateOp("CNOT", (0, 1)))
        assert overlap(state, [0, 0, 0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_sandwich_equals_z(self):
        """RX(pi/2) RY(pi) RX(-pi/2) acts as Z up to a global phase."""
        seq = (
            gate_matrix("RX", math.pi / 2)
            @ gate_matrix("RY", math.pi)
            @ gate_matrix("RX", -math.pi / 2)
        )
        state = PureState.zeros(1).apply_gate(GateOp("H", (0,)))
        state.apply_matrix(seq, (0,))
        assert overlap(state, [SQ2, -SQ2]) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_zero_is_most_significant(self):
        """X on qubit 0 of |00> populates basis index 2 = |10>."""
        state = PureState.zeros(2).apply_gate(GateOp("X", (0,)))
        assert abs(state.amplitudes[2]) == pytest.approx(1.0)

    def test_malformed_gates_rejected(self):
        with pytest.raises(ValueError):
            GateOp("CZ", (1, 1))
        with pytest.raises(ValueError):
            GateOp("RX", (0,), angle=float("nan"))
        with pytest.raises(ValueError):
            GateOp("SWAP", (0, 1))
        with pytest.raises(ValueError):
            PureState.zeros(1).apply_gate(GateOp("H", (3,)))

    @pytest.mark.parametrize("seed", range(3))
    def test_norm_and_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        pure = PureState.zeros(3)
        dense = DensityState.zeros(3)
        for _ in range(20):
            q = int(rng.integers(3))
            gate = GateOp("RY", (q,), float(rng.uniform(-math.pi, math.pi)))
            pure.apply_gate(gate)
            dense.apply_gate(gate)
            q2 = int(rng.integers(3))
            if q2 != q:
                pure.apply_gate(GateOp("CZ", (q, q2)))
                dense.apply_gate(GateOp("CZ", (q, q2)))
        assert abs(np.linalg.norm(pure.amplitudes) - 1.0) < 1e-10
        assert abs(np.trace(dense.matrix).real - 1.0) < 1e-10


class _LargestDraw:
    """A generator whose every draw is the largest double below 1."""

    def random(self):
        return 1.0 - 2.0**-53


class TestMeasureZ:
    def test_excited_state_deterministic(self):
        rng = np.random.default_rng(0)
        state = PureState.zeros(1).apply_gate(GateOp("X", (0,)))
        outcome, _, prob = state.measure_z(0, rng)
        assert outcome == 1 and prob == pytest.approx(1.0)

    def test_plus_state_even_probabilities(self):
        state = PureState.zeros(1).apply_gate(GateOp("H", (0,)))
        np.testing.assert_allclose(state.probabilities_z(0), [0.5, 0.5], atol=1e-12)

    def test_ghz_collapse(self):
        """Measuring one GHZ qubit leaves |000> or |111> with prob 1/2."""
        rng = np.random.default_rng(5)
        for force in (0, 1):
            state = PureState.zeros(3).apply_gate(GateOp("H", (0,)))
            state.apply_gate(GateOp("CNOT", (0, 1))).apply_gate(GateOp("CNOT", (1, 2)))
            outcome, post, prob = state.measure_z(0, rng, force=force)
            assert prob == pytest.approx(0.5)
            expected = np.zeros(8)
            expected[0 if force == 0 else 7] = 1.0
            assert overlap(post, expected) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_branch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            PureState.zeros(1).measure_z(0, rng, force=1)

    def test_density_backend_agrees(self):
        rng = np.random.default_rng(6)
        dense = DensityState.zeros(2)
        dense.apply_gate(GateOp("H", (0,)))
        outcome, post, prob = dense.measure_z(0, rng, force=1)
        assert prob == pytest.approx(0.5)
        assert post.expectation("ZI") == pytest.approx(-1.0)

    @pytest.mark.parametrize("density", [False, True], ids=["pure", "density"])
    def test_measure_keeps_its_branch(self, density):
        """A measurement keeps exactly one branch of ``branch_z`` and draws
        one random number; an outcome below ``ZERO_PROB`` is never kept."""
        rng = np.random.default_rng(9)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)

        def make(amplitudes):
            pure = PureState(amplitudes / np.linalg.norm(amplitudes))
            return pure.to_density() if density else pure

        def array(state):
            return state.matrix if density else state.amplitudes

        for outcome, branch, prob in make(amps).branch_z(1):
            _, post, p = make(amps).measure_z(1, rng, force=outcome)
            assert p == prob
            assert np.array_equal(array(post), array(branch))
        draws, reference = np.random.default_rng(4), np.random.default_rng(4)
        make(amps).measure_z(1, draws)
        assert draws.random() == (reference.random(), reference.random())[1]
        # Outcome 0 has probability 1e-15, so even the largest draw keeps 1.
        nearly_one = make(np.array([np.sqrt(1e-15), np.sqrt(1 - 1e-15)]))
        assert nearly_one.measure_z(0, _LargestDraw())[0] == 1


class TestBranchZ:
    def test_plus_state_two_branches(self):
        state = PureState.zeros(1).apply_gate(GateOp("H", (0,)))
        branches = state.branch_z(0)
        assert [(b[0], b[2]) for b in branches] == [(0, pytest.approx(0.5)), (1, pytest.approx(0.5))]

    def test_ground_state_single_branch(self):
        branches = PureState.zeros(1).branch_z(0)
        assert len(branches) == 1 and branches[0][0] == 0 and branches[0][2] == pytest.approx(1.0)

    def test_unbalanced_amplitudes(self):
        state = PureState(np.array([math.sqrt(0.8), math.sqrt(0.2)], dtype=complex))
        probs = [p for _, _, p in state.branch_z(0)]
        np.testing.assert_allclose(probs, [0.8, 0.2], atol=1e-12)

    def test_probabilities_sum_and_dephased_reassembly(self):
        """sum_k p_k rho_k equals the input with the measured qubit dephased."""
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        branches = rho.branch_z(0)
        assert sum(p for _, _, p in branches) == pytest.approx(1.0, abs=1e-12)
        rebuilt = sum(p * b.matrix for _, b, p in branches)
        dephased = rho.matrix.copy()
        dephased[:2, 2:] = 0.0
        dephased[2:, :2] = 0.0
        np.testing.assert_allclose(rebuilt, dephased, atol=1e-12)


class TestValidateBatch:
    """``DensityState`` checks every member of a batch."""

    def _batch(self):
        rng = np.random.default_rng(8)
        return np.stack([random_density(rng, 2).matrix for _ in range(3)])

    def test_valid_batch_accepted(self):
        DensityState(self._batch()).validate(psd=True)

    def test_one_non_hermitian_member_rejected(self):
        batch = self._batch()
        batch[1, 0, 3] += 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityState(batch)

    def test_one_wrong_trace_member_rejected(self):
        batch = self._batch()
        batch[2] *= 1.1
        with pytest.raises(ValueError, match="trace"):
            DensityState(batch)

    def test_one_negative_member_rejected(self):
        batch = self._batch()
        batch[0] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="negative"):
            DensityState(batch).validate(psd=True)


class TestExpectation:
    def test_ground_z(self):
        assert PureState.zeros(1).expectation("Z") == pytest.approx(1.0)

    def test_ground_joint_x_vanishes(self):
        assert PureState.zeros(4).expectation("XXXX") == pytest.approx(0.0, abs=1e-12)

    def test_ghz_joint_x(self):
        amps = np.zeros(16, dtype=complex)
        amps[0] = amps[-1] = SQ2
        assert PureState(amps).expectation("XXXX") == pytest.approx(1.0)

    def test_identity_string_exact(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 3)
        assert rho.expectation("III") == pytest.approx(1.0, abs=1e-12)

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError):
            PureState.zeros(1).expectation("Q")
        with pytest.raises(ValueError):
            PureState.zeros(2).expectation("X")

    def test_backends_agree_on_random_circuit(self):
        """Statevector and density backends match on every Pauli string."""
        rng = np.random.default_rng(9)
        pure = PureState.zeros(3)
        for _ in range(15):
            q = int(rng.integers(3))
            gate = GateOp(
                rng.choice(["RX", "RY", "RZ"]), (q,), float(rng.uniform(-3, 3))
            )
            pure.apply_gate(gate)
            other = int(rng.integers(3))
            if other != q:
                pure.apply_gate(GateOp("CNOT", (q, other)))
        dense = pure.to_density()
        from itertools import product

        for letters in product("IXYZ", repeat=3):
            pauli = "".join(letters)
            assert dense.expectation(pauli) == pytest.approx(
                pure.expectation(pauli), abs=1e-9
            )


class TestDiscardQubits:
    def test_product_state_reduces(self):
        rho = DensityState.zeros(2).discard_qubits([1])
        np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-12)

    def test_bell_pair_reduces_to_mixed(self):
        pure = PureState.zeros(2).apply_gate(GateOp("H", (0,)))
        pure.apply_gate(GateOp("CNOT", (0, 1)))
        reduced = pure.to_density().discard_qubits([0])
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_empty_discard_is_identity(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(rho.discard_qubits([]).matrix, rho.matrix)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        reduced = rho.discard_qubits([0, 2])
        assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, 2)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_states(self):
        zero = PureState.zeros(1).to_density()
        one = PureState.zeros(1).apply_gate(GateOp("X", (0,))).to_density()
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_pure_against_mixed(self):
        zero = PureState.zeros(1).to_density()
        assert fidelity(zero, DensityState.maximally_mixed(1)) == pytest.approx(0.5)

    def test_symmetric_arguments(self):
        rng = np.random.default_rng(13)
        a, b = random_density(rng, 2), random_density(rng, 2)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fidelity(DensityState.zeros(1), DensityState.zeros(2))

    @pytest.mark.parametrize("seed", range(4))
    def test_unitary_invariance(self, seed):
        """F(U rho U+, U sigma U+) = F(rho, sigma) for single-qubit U."""
        rng = np.random.default_rng(seed)
        a, b = random_density(rng, 2), random_density(rng, 2)
        base = fidelity(a, b)
        u = random_unitary(rng)
        a.apply_matrix(u, (1,))
        b.apply_matrix(u, (1,))
        assert fidelity(a, b) == pytest.approx(base, abs=1e-9)

    def test_large_negative_eigenvalue_rejected(self):
        bad = DensityState(np.diag([1.5, -0.5]).astype(complex), validate=False)
        with pytest.raises(ValueError):
            fidelity(bad, bad)


def test_cardinal_inputs_cover_the_bloch_sphere():
    assert len(CARDINAL_INPUTS) == 6
    labels = [label for label, _ in CARDINAL_INPUTS]
    assert labels == ["0", "1", "+", "-", "+i", "-i"]
