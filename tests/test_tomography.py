"""Tomography tests: settings, sampling, inversion, projection, fitting."""
import math
from functools import reduce
from itertools import product

import numpy as np
import pytest

from fanout_sim.noise import ConfusionMatrix
from fanout_sim.states import PAULI_MATRICES, DensityState, GateOp, PureState, fidelity
from fanout_sim import tomography
from fanout_sim.tomography import (
    BASIS_ROTATIONS,
    TomogramData,
    collect_tomogram,
    contrast_fit,
    linear_inversion,
    mle_project,
    pauli_table,
    reconstruct,
    settings,
    simulate_shots,
    serialize_tomogram,
    split_by_ideal,
)


def bell_density():
    state = PureState.zeros(2).apply_gate(GateOp("H", (0,)))
    state.apply_gate(GateOp("CNOT", (0, 1)))
    return state.to_density()


def random_pure_density(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(amps / np.linalg.norm(amps), validate=False).to_density()


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum()


class TestSettings:
    def test_single_qubit(self):
        assert settings(1) == ["X", "Y", "Z"]

    def test_two_qubits(self):
        assert len(settings(2)) == 9

    def test_four_qubits(self):
        result = settings(4)
        assert len(result) == 81
        assert result[0] == "XXXX" and result[-1] == "ZZZZ"


class TestSimulateShots:
    def test_ground_state_in_z(self):
        rng = np.random.default_rng(0)
        counts = simulate_shots(DensityState.zeros(1), "Z", 500, None, rng)
        assert counts == {"0": 500}

    def test_plus_state_in_x(self):
        rng = np.random.default_rng(1)
        plus = PureState.zeros(1).apply_gate(GateOp("H", (0,))).to_density()
        counts = simulate_shots(plus, "X", 500, None, rng)
        assert counts == {"0": 500}

    def test_bell_in_zz_correlates(self):
        rng = np.random.default_rng(2)
        counts = simulate_shots(bell_density(), "ZZ", 10_000, None, rng)
        assert set(counts) == {"00", "11"}
        assert abs(counts["00"] - 5000) < 5 * math.sqrt(10_000 * 0.25)

    def test_confusion_flips_bits(self):
        rng = np.random.default_rng(3)
        conf = ConfusionMatrix(p01=0.0, p10=1.0)
        counts = simulate_shots(DensityState.zeros(1), "Z", 100, conf, rng)
        assert counts == {"1": 100}


class TestLinearInversion:
    def test_exact_ground_state_counts(self):
        """Infinite-shot limit: exact per-setting frequencies return |0><0|."""
        shots = 1000
        counts = {
            "X": {"0": 500, "1": 500},
            "Y": {"0": 500, "1": 500},
            "Z": {"0": 1000},
        }
        rho = linear_inversion(TomogramData(counts=counts, shots=shots))
        np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-12)

    def test_maximally_mixed_recovered(self):
        rng = np.random.default_rng(4)
        data = collect_tomogram(DensityState.maximally_mixed(2), 20_000, None, rng)
        rho = linear_inversion(data)
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=0.02)

    def test_random_two_qubit_state_close_in_trace_distance(self):
        rng = np.random.default_rng(5)
        truth = random_pure_density(rng, 2)
        data = collect_tomogram(truth, 10_000, None, rng)
        estimate = DensityState(linear_inversion(data), validate=False)
        assert trace_distance(estimate, truth) < 0.05

    def test_confusion_correction_is_unbiased(self):
        """Readout flips in sampling are undone by the inversion."""
        rng = np.random.default_rng(6)
        truth = bell_density()
        conf = ConfusionMatrix(0.05, 0.05)
        data = collect_tomogram(truth, 40_000, conf, rng)
        estimate = DensityState(linear_inversion(data), validate=False)
        assert trace_distance(estimate, truth) < 0.05

    def test_confusion_is_inverted_once_per_reconstruction(self, monkeypatch):
        """One inverse serves all 27 settings of a three-qubit tomogram."""
        rng = np.random.default_rng(7)
        data = collect_tomogram(random_pure_density(rng, 3), 200, ConfusionMatrix(0.05, 0.02), rng)
        calls = []
        inverse = ConfusionMatrix.inverse

        def spy(self):
            calls.append(self)
            return inverse(self)

        monkeypatch.setattr(ConfusionMatrix, "inverse", spy)
        reconstruct(data)
        assert len(calls) == 1

    def test_missing_settings_rejected(self):
        with pytest.raises(ValueError):
            linear_inversion(TomogramData(counts={"Z": {"0": 10}}, shots=10))

    def test_averaging_reconstructions_converges(self):
        """The estimator is unbiased: averaged estimates approach the truth."""
        rng = np.random.default_rng(7)
        truth = random_pure_density(rng, 1)
        singles, accumulated = [], np.zeros((2, 2), dtype=complex)
        for _ in range(25):
            data = collect_tomogram(truth, 400, None, rng)
            est = linear_inversion(data)
            singles.append(trace_distance(DensityState(est, validate=False), truth))
            accumulated += est
        averaged = DensityState(accumulated / 25, validate=False)
        assert trace_distance(averaged, truth) < np.mean(singles) / 2.0


class TestMleProject:
    def test_valid_density_unchanged(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        m /= np.trace(m)
        result = mle_project(m)
        np.testing.assert_allclose(result.rho.matrix, m, atol=1e-12)
        assert result.adjustment == 0.0

    def test_single_negative_eigenvalue(self):
        result = mle_project(np.diag([1.1, -0.1]).astype(complex))
        np.testing.assert_allclose(np.diag(result.rho.matrix).real, [1.0, 0.0], atol=1e-12)
        assert result.adjustment == pytest.approx(0.1)

    def test_redistribution_over_positives(self):
        result = mle_project(np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex))
        eigs = sorted(np.diag(result.rho.matrix).real, reverse=True)
        np.testing.assert_allclose(eigs, [0.6, 0.4, 0.0, 0.0], atol=1e-12)

    def test_cascading_redistribution(self):
        """A redistribution that drives small eigenvalues negative iterates."""
        result = mle_project(np.diag([1.32, 0.02, 0.02, -0.36]).astype(complex))
        eigs = sorted(np.diag(result.rho.matrix).real, reverse=True)
        np.testing.assert_allclose(eigs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert np.trace(result.rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_output_always_psd_trace_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = (m + m.conj().T) / 2.0
            m = m / np.trace(m).real
            if abs(np.trace(m).real - 1.0) > 1e-6:
                continue
            result = mle_project(m)
            w = np.linalg.eigvalsh(result.rho.matrix)
            assert w.min() >= -1e-12
            assert np.trace(result.rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        result = mle_project(np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex))
        again = mle_project(result.rho.matrix)
        np.testing.assert_allclose(again.rho.matrix, result.rho.matrix, atol=1e-12)
        assert again.adjustment == pytest.approx(0.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            mle_project(np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex))


class TestPauliTable:
    def test_ghz_support(self):
        """theta=pi/2 target: 16 unit-magnitude strings, the rest vanish."""
        amps = np.zeros(16, dtype=complex)
        amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
        table = pauli_table(PureState(amps).to_density())
        nonzero = {p for p, v in table.items() if abs(v) > 1e-9}
        assert len(nonzero) == 16
        assert all(abs(table[p]) == pytest.approx(1.0, abs=1e-9) for p in nonzero)
        assert table["XXXX"] == pytest.approx(1.0)
        assert table["XXYY"] == pytest.approx(-1.0)
        assert table["ZZII"] == pytest.approx(1.0)

    def test_maximally_mixed_vanishes(self):
        table = pauli_table(DensityState.maximally_mixed(2))
        for pauli, value in table.items():
            expected = 1.0 if pauli == "II" else 0.0
            assert value == pytest.approx(expected, abs=1e-12)

    def test_split_by_ideal_excludes_identity(self):
        rho = DensityState.maximally_mixed(2)
        table = pauli_table(rho)
        nonzero, zero = split_by_ideal(table, pauli_table(bell_density()))
        assert "II" not in nonzero and "II" not in zero
        assert len(nonzero) + len(zero) == 15


class TestContrastFit:
    def test_unit_sine_recovered(self):
        angles = np.linspace(0.0, math.pi, 8)
        amplitude, phase, offset = contrast_fit(angles, np.sin(angles))
        assert amplitude == pytest.approx(1.0, abs=1e-6)
        assert phase == pytest.approx(0.0, abs=1e-6)
        assert offset == pytest.approx(0.0, abs=1e-9)

    def test_damped_sine_recovered(self):
        angles = np.linspace(0.0, math.pi, 8)
        amplitude, _, _ = contrast_fit(angles, 0.73 * np.sin(angles))
        assert amplitude == pytest.approx(0.730, abs=1e-6)

    def test_constant_data_reports_zero_amplitude(self):
        amplitude, _, offset = contrast_fit(np.linspace(0, 6, 10), np.full(10, 0.3))
        assert amplitude == 0.0
        assert offset == pytest.approx(0.3)

    def test_phase_normalized(self):
        angles = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
        amplitude, phase, _ = contrast_fit(angles, np.cos(angles))
        assert amplitude == pytest.approx(1.0, abs=1e-9)
        assert phase == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            contrast_fit([0.0, 1.0], [0.0, 1.0])


class TestPipeline:
    def test_two_qubit_reconstruction_quality(self):
        """Bell output at 1e4 shots/setting reconstructs above 0.99."""
        rng = np.random.default_rng(10)
        truth = bell_density()
        data = collect_tomogram(truth, 10_000, None, rng)
        result = reconstruct(data)
        assert fidelity(result.rho, truth) >= 0.99

    def test_reconstruction_is_physical(self):
        rng = np.random.default_rng(11)
        truth = random_pure_density(rng, 2)
        result = reconstruct(collect_tomogram(truth, 2000, None, rng))
        w = np.linalg.eigvalsh(result.rho.matrix)
        assert w.min() >= -1e-12
        assert np.trace(result.rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_serialize_tomogram_row_format(self):
        rng = np.random.default_rng(12)
        data = collect_tomogram(DensityState.zeros(1), 5, None, rng)
        lines = serialize_tomogram(data).splitlines()
        assert lines[0] == "setting,bitstring,count"
        assert "Z,0,5" in lines


def random_mixed_density(rng, n):
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    m = g @ g.conj().T
    return DensityState(m / np.trace(m).real, validate=False)


def kernel_probabilities(state, setting):
    """Reference: rotate a copy of the state qubit by qubit with the density
    kernel, then read its diagonal."""
    rho = state.copy()
    for q, letter in enumerate(setting):
        rho.apply_matrix(BASIS_ROTATIONS[letter], (q,))
    probs = np.clip(np.real(np.diagonal(rho.matrix)), 0.0, None)
    return probs / probs.sum()


def kron_pauli(pauli):
    """Reference: a Pauli string as a Kronecker product of 2 x 2 matrices."""
    return reduce(np.kron, [PAULI_MATRICES[letter] for letter in pauli])


def kron_linear_inversion(data):
    """Reference: ``linear_inversion`` summing dense Kronecker-product Pauli
    matrices, with the same accumulation order."""
    k = data.n_qubits
    outcomes = np.arange(2**k)
    inv = data.confusion.inverse() if data.confusion is not None else None
    sums, hits = {}, {}
    for setting in settings(k):
        freq = tomography._corrected_frequencies(data, setting, inv)
        for subset in range(2**k):
            signs = 1 - 2 * (np.bitwise_count(outcomes & subset).astype(np.int64) & 1)
            pauli = "".join(
                setting[q] if subset & (1 << (k - 1 - q)) else "I" for q in range(k)
            )
            sums[pauli] = sums.get(pauli, 0.0) + float(np.dot(signs, freq))
            hits[pauli] = hits.get(pauli, 0) + 1
    rho = np.zeros((2**k, 2**k), dtype=complex)
    for pauli, total in sums.items():
        rho += (total / hits[pauli]) * kron_pauli(pauli)
    return rho / 2**k


@pytest.mark.parametrize("k", [1, 2, 3, 4])
class TestContractionAgainstKernels:
    """The tomography analysis contracts rho once; the per-setting kernel
    path and the Kronecker-product Pauli matrices are its references."""

    def test_rotated_distributions_match_kernel_rotations(self, k):
        state = random_mixed_density(np.random.default_rng(20 + k), k)
        batched = tomography._rotated_distributions(state)
        for setting, probs in zip(settings(k), batched):
            np.testing.assert_allclose(probs, kernel_probabilities(state, setting),
                                       rtol=0, atol=1e-15)

    def test_collect_tomogram_samples_like_simulate_shots(self, k):
        state = random_mixed_density(np.random.default_rng(30 + k), k)
        confusion = ConfusionMatrix(0.05, 0.02)
        data = collect_tomogram(state, 200, confusion, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        for setting in settings(k):
            assert data.counts[setting] == simulate_shots(state, setting, 200, confusion, rng)

    def test_pauli_table_matches_kernel_expectations(self, k):
        state = random_mixed_density(np.random.default_rng(40 + k), k)
        table = pauli_table(state)
        assert list(table) == ["".join(p) for p in product("IXYZ", repeat=k)]
        for pauli, value in table.items():
            assert value == pytest.approx(state.expectation(pauli), abs=1e-15)
            assert value == pytest.approx(np.trace(kron_pauli(pauli) @ state.matrix).real,
                                          abs=1e-15)

    def test_linear_inversion_is_bit_identical_to_dense_paulis(self, k):
        rng = np.random.default_rng(50 + k)
        state = random_mixed_density(rng, k)
        for confusion in (None, ConfusionMatrix(0.04, 0.01)):
            data = collect_tomogram(state, 300, confusion, rng)
            assert linear_inversion(data).tobytes() == kron_linear_inversion(data).tobytes()


def test_invalid_basis_letter_rejected():
    with pytest.raises(ValueError, match="invalid basis letter 'Q'"):
        simulate_shots(DensityState.zeros(2), "XQ", 10, None, np.random.default_rng(0))
