"""Recovery rules, lookup tables, frames, and observable adjustment."""
from itertools import product

import numpy as np
import pytest

from fanout_sim.feedforward import (
    BellOutcome,
    PauliFrame,
    RecoveryOp,
    adjust_pauli,
    build_lookup_table,
    frame_update,
    recovery_indices,
    recovery_ops,
    serialize_lookup_table,
)
from fanout_sim.states import PAULI_MATRICES, PureState


def all_outcomes(n):
    for bits in product((0, 1), repeat=2 * (n - 1)):
        yield BellOutcome(z=bits[0::2], x=bits[1::2])


class TestRecoveryOps:
    def test_all_zero_outcomes_are_identity(self):
        ops = recovery_ops(BellOutcome(z=(0,), x=(0,)), 2)
        assert [op.label for op in ops] == ["I", "I"]

    def test_both_bits_set(self):
        ops = recovery_ops(BellOutcome(z=(1,), x=(1,)), 2)
        assert [op.label for op in ops] == ["ZX", "X"]

    def test_x_parity_cancellation(self):
        ops = recovery_ops(BellOutcome(z=(0, 0), x=(1, 1)), 3)
        assert [op.label for op in ops] == ["X", "I", "I"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            recovery_ops(BellOutcome(z=(0,), x=(0,)), 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_last_output_never_needs_z(self, n):
        for outcome in all_outcomes(n):
            assert recovery_ops(outcome, n)[-1].apply_z == 0

    def test_index_encoding(self):
        assert RecoveryOp(0, 0).index == 0
        assert RecoveryOp(1, 0).index == 1
        assert RecoveryOp(0, 1).index == 2
        assert RecoveryOp(1, 1).index == 3


def loop_recovery_indices(outcome, n):
    """Reference: the recovery rule written out one output at a time."""
    indices, parity = [], 0
    for q in range(1, n):
        parity ^= outcome.x[q - 1]
        indices.append(2 * outcome.z[q - 1] + parity)
    return indices + [parity]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vectorized_rule_matches_loop_reference(n):
    outcomes = list(all_outcomes(n))
    z = np.array([o.z for o in outcomes])
    x = np.array([o.x for o in outcomes])
    expected = np.array([loop_recovery_indices(o, n) for o in outcomes])
    np.testing.assert_array_equal(recovery_indices(z, x), expected)


class TestLookupTable:
    def test_table_sizes(self):
        assert len(build_lookup_table(2)) == 4
        assert len(build_lookup_table(4)) == 64

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_table_equals_recovery_ops_exhaustively(self, n):
        table = build_lookup_table(n)
        for outcome in all_outcomes(n):
            expected = tuple(op.index for op in recovery_ops(outcome, n))
            assert table[outcome.key()] == expected

    def test_all_zero_key_maps_to_identity(self):
        assert build_lookup_table(3)["0000"] == (0, 0, 0)

    def test_serialization_round_trip_text(self):
        text = serialize_lookup_table(build_lookup_table(2))
        assert text.splitlines() == [
            "00 -> 0 0",
            "01 -> 1 1",
            "10 -> 2 0",
            "11 -> 3 1",
        ]


class TestFrameUpdate:
    def test_identity_plus_zero_outcome(self):
        frame = frame_update(PauliFrame.identity(2), BellOutcome(z=(0,), x=(0,)))
        assert frame == PauliFrame.identity(2)

    def test_same_outcome_twice_cancels(self):
        outcome = BellOutcome(z=(1, 0), x=(0, 1))
        frame = frame_update(PauliFrame.identity(3), outcome)
        assert frame_update(frame, outcome) == PauliFrame.identity(3)

    def test_accumulated_flags(self):
        frame = frame_update(PauliFrame.identity(2), BellOutcome(z=(1,), x=(1,)))
        assert frame.x_flips == (1, 1)
        assert frame.z_flips == (1, 0)


class TestAdjustPauli:
    def test_identity_frame_never_flips(self):
        frame = PauliFrame.identity(3)
        for letters in product("IXYZ", repeat=3):
            sign, observable = adjust_pauli("".join(letters), frame)
            assert sign == 1 and observable == "".join(letters)

    def test_frame_x_flips_measured_z(self):
        frame = PauliFrame(x_flips=(1, 0), z_flips=(0, 0))
        assert adjust_pauli("ZI", frame)[0] == -1
        assert adjust_pauli("XI", frame)[0] == 1

    def test_frame_z_flips_measured_x(self):
        frame = PauliFrame(x_flips=(0, 0), z_flips=(1, 0))
        assert adjust_pauli("XX", frame)[0] == -1
        assert adjust_pauli("ZX", frame)[0] == 1

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError):
            adjust_pauli("QA", PauliFrame.identity(2))


def random_output_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(amps / np.linalg.norm(amps), validate=False)


def apply_physical_recovery(state, outcome, n):
    out = state.copy()
    for q, op in enumerate(recovery_ops(outcome, n)):
        if op.apply_x:
            out.apply_matrix(PAULI_MATRICES["X"], (q,))
        if op.apply_z:
            out.apply_matrix(PAULI_MATRICES["Z"], (q,))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_path_equals_physical_path(n):
    """frame_update + adjust_pauli reproduces physically recovered expectations."""
    rng = np.random.default_rng(17)
    outcomes = list(all_outcomes(n))
    if n == 4:
        outcomes = [outcomes[i] for i in rng.choice(len(outcomes), size=40, replace=False)]
    observables = ["".join(p) for p in product("IXYZ", repeat=n)]
    if n == 4:
        observables = list(rng.choice(observables, size=40, replace=False))
    for outcome in outcomes:
        state = random_output_state(rng, n)
        frame = frame_update(PauliFrame.identity(n), outcome)
        recovered = apply_physical_recovery(state, outcome, n)
        for observable in observables:
            sign, _ = adjust_pauli(observable, frame)
            assert sign * state.expectation(observable) == pytest.approx(
                recovered.expectation(observable), abs=1e-9
            )
