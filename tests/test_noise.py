"""Noise channel tests: depolarizing, readout confusion, idle law."""
import math

import numpy as np
import pytest

from fanout_sim.noise import (
    ConfusionMatrix,
    NoiseModel,
    apply_depolarizing,
    depol_from_average_error,
    depolarizing_sample_prob,
    idle_error_probability,
    idle_law_linear,
    noisy_readout,
    noisy_readouts,
    sample_pauli_error,
    sample_pauli_errors,
)
from fanout_sim.states import DensityState, GateOp, PAULI_MATRICES, PureState


def plus_state_density():
    return PureState.zeros(1).apply_gate(GateOp("H", (0,))).to_density()


class TestApplyDepolarizing:
    def test_zero_probability_is_identity(self):
        rho = plus_state_density()
        before = rho.matrix.copy()
        apply_depolarizing(rho, (0,), 0.0)
        np.testing.assert_allclose(rho.matrix, before)

    def test_full_depolarizing_gives_mixed(self):
        rho = DensityState.zeros(1)
        apply_depolarizing(rho, (0,), 1.0)
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_half_probability_halves_bloch_vector(self):
        rho = plus_state_density()
        apply_depolarizing(rho, (0,), 0.5)
        assert rho.expectation("X") == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError):
            apply_depolarizing(DensityState.zeros(1), (0,), 1.5)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = g @ g.conj().T
        rho = DensityState(m / np.trace(m), validate=False)
        apply_depolarizing(rho, (0, 2), 0.3)
        apply_depolarizing(rho, (1,), 0.2)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)

    def test_two_applications_compose(self):
        """p1 then p2 equals 1-(1-p1)(1-p2) on non-identity expectations."""
        rng = np.random.default_rng(1)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        base = DensityState(m / np.trace(m), validate=False)
        p1, p2 = 0.13, 0.21
        combined = 1.0 - (1.0 - p1) * (1.0 - p2)
        twice = base.copy()
        apply_depolarizing(apply_depolarizing(twice, (0,), p1), (0,), p2)
        once = apply_depolarizing(base.copy(), (0,), combined)
        from itertools import product

        for letters in product("IXYZ", repeat=2):
            pauli = "".join(letters)
            if pauli == "II":
                continue
            assert twice.expectation(pauli) == pytest.approx(
                once.expectation(pauli), abs=1e-10
            )


class TestSamplePauliError:
    def test_zero_probability_always_identity(self):
        rng = np.random.default_rng(2)
        assert all(
            sample_pauli_error((0,), 0.0, rng) == ("I",) for _ in range(100)
        )

    def test_certain_error_uniform_over_three(self):
        # The one-shot sampler draws through sample_pauli_errors; draw in bulk.
        rng = np.random.default_rng(3)
        draws = 100_000
        x, z = sample_pauli_errors(draws, 1, 1.0, rng)
        counts = {"X": np.sum(x & ~z), "Y": np.sum(x & z), "Z": np.sum(~x & z)}
        assert sum(counts.values()) == draws
        for letter in counts:
            # 5 sigma of a Binomial(draws, 1/3)
            assert abs(counts[letter] / draws - 1 / 3) < 5 * math.sqrt(2 / 9 / draws)

    def test_two_qubit_errors_cover_fifteen_paulis(self):
        rng = np.random.default_rng(4)
        seen = {sample_pauli_error((0, 1), 1.0, rng) for _ in range(2000)}
        assert len(seen) == 15 and ("I", "I") not in seen

    def test_bulk_errors_hit_at_the_sampling_rate(self):
        rng = np.random.default_rng(9)
        draws, p = 200_000, 0.3
        x, z = sample_pauli_errors(draws, 2, p, rng)
        hit = (x | z).any(axis=1)
        assert abs(hit.mean() - p) < 5 * math.sqrt(p * (1 - p) / draws)
        codes = (x[hit] + 2 * z[hit]) @ np.array([1, 4])  # 1..15, uniform
        counts = np.bincount(codes, minlength=16)
        assert counts[0] == 0
        expected = hit.sum() / 15
        assert np.all(np.abs(counts[1:] - expected) < 5 * math.sqrt(expected))
        none_x, none_z = sample_pauli_errors(100, 2, 0.0, rng)
        assert not none_x.any() and not none_z.any()

    def test_trajectory_average_matches_channel(self):
        """Sampled Paulis at the converted rate reproduce apply_depolarizing."""
        rng = np.random.default_rng(5)
        p_channel = 0.4
        base = PureState.zeros(1).apply_gate(GateOp("RY", (0,), 1.1))
        exact = apply_depolarizing(base.to_density(), (0,), p_channel)
        samples = 20_000
        acc = {"X": 0.0, "Y": 0.0, "Z": 0.0}
        q = depolarizing_sample_prob(p_channel, 1)
        for _ in range(samples):
            shot = base.copy()
            (letter,) = sample_pauli_error((0,), q, rng)
            if letter != "I":
                shot.apply_matrix(PAULI_MATRICES[letter], (0,))
            for pauli in acc:
                acc[pauli] += shot.expectation(pauli)
        for pauli in acc:
            mean = acc[pauli] / samples
            sigma = 1.0 / math.sqrt(samples)
            assert abs(mean - exact.expectation(pauli)) < 5 * sigma


class TestNoisyReadout:
    def test_no_confusion_is_faithful(self):
        rng = np.random.default_rng(6)
        conf = ConfusionMatrix(0.0, 0.0)
        assert all(noisy_readout(b, conf, rng) == b for b in (0, 1) for _ in range(50))

    def test_certain_misassignment(self):
        rng = np.random.default_rng(7)
        conf = ConfusionMatrix(p01=1.0, p10=0.0)
        assert all(noisy_readout(1, conf, rng) == 0 for _ in range(50))

    def test_flip_frequency(self):
        # The one-shot readout draws through noisy_readouts; draw in bulk.
        rng = np.random.default_rng(8)
        conf = ConfusionMatrix(0.006, 0.006)
        draws = 1_000_000
        flips = int(noisy_readouts(np.zeros(draws, dtype=bool), conf, rng).sum())
        sigma = math.sqrt(draws * 0.006 * 0.994)
        assert abs(flips - draws * 0.006) < 3 * sigma

    def test_bulk_flips_follow_the_true_value(self):
        rng = np.random.default_rng(10)
        conf = ConfusionMatrix(p01=0.2, p10=0.05)
        true = np.arange(200_000) % 2 == 1
        reported = noisy_readouts(true, conf, rng)
        for value, p in ((False, conf.p10), (True, conf.p01)):
            rate = np.mean(reported[true == value] != value)
            assert abs(rate - p) < 5 * math.sqrt(p * (1 - p) / 100_000)

    def test_epsilon_ro_average(self):
        assert ConfusionMatrix(0.004, 0.008).epsilon_ro == pytest.approx(0.006)


class TestIdleError:
    def test_zero_duration(self):
        assert idle_error_probability(0.0, 48e-6) == 0.0

    def test_one_t2(self):
        assert idle_error_probability(48e-6, 48e-6) == pytest.approx(1 - math.exp(-1))

    def test_cnot_time_at_device_t2(self):
        p = idle_error_probability(106.7e-9, 48e-6)
        assert p == pytest.approx(0.00222, abs=2e-5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            idle_error_probability(-1e-9, 48e-6)

    def test_linear_law_alternative(self):
        law = idle_law_linear(48e-6)
        assert law(48e-7) == pytest.approx(0.1)
        assert law(1.0) == 1.0

    def test_idle_law_monotone(self):
        model = NoiseModel.device_medians()
        probs = [model.idle_probability(t * 1e-9) for t in (0, 100, 400, 928, 5000)]
        assert probs == sorted(probs) and probs[0] == 0.0


class TestNoiseModel:
    def test_median_defaults_convert_benchmarking_errors(self):
        model = NoiseModel.device_medians()
        assert model.two_qubit_depol == pytest.approx(0.011 * 4 / 3)
        assert model.single_qubit_depol == pytest.approx(0.001)
        assert model.confusion.epsilon_ro == pytest.approx(0.006)
        assert model.t2_echo == pytest.approx(48e-6)

    def test_conversion_relation(self):
        assert depol_from_average_error(0.011, 2) == pytest.approx(0.011 * 4 / 3)
        assert depol_from_average_error(0.0005, 1) == pytest.approx(0.001)

    def test_from_mapping_matches_defaults(self):
        model = NoiseModel.from_mapping(
            {"eps_1q": "0.0005", "eps_2q": "0.011", "t2_echo_s": "48e-6"}
        )
        ref = NoiseModel.device_medians()
        assert model.two_qubit_depol == pytest.approx(ref.two_qubit_depol)
        assert model.single_qubit_depol == pytest.approx(ref.single_qubit_depol)

    def test_idle_law_is_a_law_name(self):
        model = NoiseModel.from_mapping({"t2_echo_s": "20e-6", "idle_law": "linear"})
        assert model.idle_law == "linear"
        assert model.idle_probability(1e-6) == idle_law_linear(20e-6)(1e-6)
        assert NoiseModel().idle_probability(1e-6) == idle_error_probability(1e-6, 48e-6)
        with pytest.raises(ValueError, match="unknown idle law"):
            NoiseModel(idle_law="cubic")
        with pytest.raises(ValueError, match="unknown idle law"):
            NoiseModel.from_mapping({"idle_law": "cubic"})

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            NoiseModel.from_mapping({"t1": "1.0"})

    def test_confusion_override_per_qubit(self):
        special = ConfusionMatrix(0.1, 0.2)
        model = NoiseModel(confusion_overrides={3: special})
        assert model.confusion_for(3) is special
        assert model.confusion_for(0) is model.confusion
