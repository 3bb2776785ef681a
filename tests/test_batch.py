"""Batched kernels: a batch of k states gets exactly the bits of k single calls."""
import math

import numpy as np
import pytest

from fanout_sim.noise import apply_depolarizing
from fanout_sim.states import DensityState, InputState, PureState

K = 5
TARGETS = {
    "1q": (2,),
    "adjacent": (1, 2),
    "non-adjacent": (0, 3),
    "reversed": (3, 1),
}


def random_pure(rng, k, n):
    amps = rng.normal(size=(k, 2**n)) + 1j * rng.normal(size=(k, 2**n))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def random_density(rng, k, n):
    a = rng.normal(size=(k, 2**n, 2**n)) + 1j * rng.normal(size=(k, 2**n, 2**n))
    m = a @ np.conj(np.swapaxes(a, 1, 2))
    return m / np.trace(m, axis1=1, axis2=2)[:, None, None]


def random_unitary(rng, k):
    a = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    q, _ = np.linalg.qr(a)
    return q


def reference_depolarizing(matrix, targets, p):
    """The out-of-place kernel: move the targets to the front, trace, rebuild."""
    n = matrix.shape[0].bit_length() - 1
    k, dim_t = len(targets), 2 ** len(targets)
    axes = tuple(targets) + tuple(n + q for q in targets)
    t = np.moveaxis(matrix.reshape((2,) * (2 * n)), axes, tuple(range(2 * k)))
    rest = t.shape[2 * k:]
    t = t.reshape((dim_t, dim_t) + rest).copy()
    tau = np.trace(t, axis1=0, axis2=1)
    t *= 1.0 - p
    for i in range(dim_t):
        t[i, i] += (p / dim_t) * tau
    t = np.moveaxis(t.reshape((2,) * (2 * k) + rest), tuple(range(2 * k)), axes)
    return t.reshape(matrix.shape)


@pytest.mark.parametrize("targets", TARGETS.values(), ids=TARGETS.keys())
def test_apply_matrix_pure_batch(targets):
    rng = np.random.default_rng(1)
    amps = random_pure(rng, K, 4)
    u = random_unitary(rng, len(targets))
    batch = PureState(amps.copy(), validate=False).apply_matrix(u, targets)
    assert batch.batch == (K,)
    for i in range(K):
        single = PureState(amps[i].copy(), validate=False).apply_matrix(u, targets)
        assert np.array_equal(batch.amplitudes[i], single.amplitudes)


@pytest.mark.parametrize("targets", TARGETS.values(), ids=TARGETS.keys())
def test_apply_matrix_density_batch(targets):
    rng = np.random.default_rng(2)
    m = random_density(rng, K, 4)
    u = random_unitary(rng, len(targets))
    batch = DensityState(m.copy(), validate=False).apply_matrix(u, targets)
    for i in range(K):
        single = DensityState(m[i].copy(), validate=False).apply_matrix(u, targets)
        assert np.array_equal(batch.matrix[i], single.matrix)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("targets", TARGETS.values(), ids=TARGETS.keys())
def test_depolarizing_batch_matches_singles_and_reference(targets, p):
    rng = np.random.default_rng(3)
    m = random_density(rng, K, 4)
    batch = apply_depolarizing(DensityState(m.copy(), validate=False), targets, p)
    for i in range(K):
        single = apply_depolarizing(DensityState(m[i].copy(), validate=False), targets, p)
        assert np.array_equal(batch.matrix[i], single.matrix)
        assert np.array_equal(single.matrix, reference_depolarizing(m[i], targets, p))


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (6, 1), (6, 2)])
def test_depolarizing_matches_reference_on_whole_and_partial_registers(n, k):
    """Including the register made only of the targets, which sums pairwise."""
    rng = np.random.default_rng(10 * n + k)
    for _ in range(200):
        m = random_density(rng, 1, n)[0]
        targets = tuple(int(q) for q in rng.choice(n, k, replace=False))
        p = float(rng.uniform())
        state = apply_depolarizing(DensityState(m.copy(), validate=False), targets, p)
        assert np.array_equal(state.matrix, reference_depolarizing(m, targets, p))


def test_depolarizing_in_place_leaves_copy_untouched():
    rng = np.random.default_rng(4)
    state = DensityState(random_density(rng, 1, 3)[0], validate=False)
    saved = state.copy()
    before = saved.matrix.copy()
    apply_depolarizing(state, (0, 2), 0.4)
    assert np.array_equal(saved.matrix, before)
    assert not np.array_equal(state.matrix, before)


def test_depolarizing_accepts_non_contiguous_and_read_only_matrices():
    rng = np.random.default_rng(5)
    m = random_density(rng, 1, 3)[0]
    expected = reference_depolarizing(m, (1,), 0.25)
    transposed = np.ascontiguousarray(m.T).T  # the same values, Fortran order
    read_only = m.copy()
    read_only.flags.writeable = False
    for matrix in (transposed, read_only):
        state = apply_depolarizing(DensityState(matrix, validate=False), (1,), 0.25)
        assert np.array_equal(state.matrix, expected)
    assert np.array_equal(read_only, m)


def test_apply_matrix_accepts_non_contiguous_and_read_only_gates():
    rng = np.random.default_rng(6)
    m = random_density(rng, 1, 3)[0]
    u = random_unitary(rng, 2)
    expected = DensityState(m.copy(), validate=False).apply_matrix(u, (0, 2)).matrix
    fortran = np.asfortranarray(u)
    read_only = u.copy()
    read_only.flags.writeable = False
    for gate in (fortran, read_only):
        state = DensityState(m.copy(), validate=False).apply_matrix(gate, (0, 2))
        assert np.array_equal(state.matrix, expected)


@pytest.mark.parametrize("qubit", [0, 2, 3])
def test_density_measurement_split_batch(qubit):
    rng = np.random.default_rng(7)
    m = random_density(rng, K, 4)
    m[1] = 0.0  # member 1 is |0000><0000|: only outcome 0 if qubit measured
    m[1, 0, 0] = 1.0
    split = DensityState(m, validate=False).branch_z(qubit)
    assert [outcome for outcome, _, _ in split] == [0, 1]
    reduced = [post.discard_qubits((qubit,)) for _, post, _ in split]
    for i in range(K):
        singles = {
            outcome: (post, prob)
            for outcome, post, prob in DensityState(m[i], validate=False).branch_z(qubit)
        }
        for outcome, post, probs in split:
            if outcome not in singles:
                assert probs[i] == 0.0
                continue
            single, prob = singles[outcome]
            assert probs[i] == prob
            assert np.array_equal(post.matrix[i], single.matrix)
            assert np.array_equal(
                reduced[outcome].matrix[i], single.discard_qubits((qubit,)).matrix
            )


@pytest.mark.parametrize("qubit", [0, 1, 3])
def test_pure_measurement_split_batch(qubit):
    rng = np.random.default_rng(8)
    amps = random_pure(rng, K, 4)
    amps[2] = 0.0
    amps[2, 0] = 1.0
    split = PureState(amps, validate=False).branch_z(qubit)
    reduced = [post.remove_collapsed(qubit, outcome) for outcome, post, _ in split]
    for i in range(K):
        singles = {
            outcome: (post.remove_collapsed(qubit, outcome), prob)
            for outcome, post, prob in PureState(amps[i], validate=False).branch_z(qubit)
        }
        for outcome, _, probs in split:
            if outcome not in singles:
                assert probs[i] == 0.0
                continue
            single, prob = singles[outcome]
            assert probs[i] == prob
            assert np.array_equal(reduced[outcome].amplitudes[i], single.amplitudes)


def test_prepare_input_batch():
    inp = InputState(1.1, 0.4)
    zeros = np.zeros((3, 8), dtype=complex)
    zeros[:, 0] = 1.0
    batch = PureState(zeros.copy(), validate=False).prepare_input(1, inp)
    single = PureState.zeros(3).prepare_input(1, inp)
    for row in batch.amplitudes:
        assert np.array_equal(row, single.amplitudes)
    assert single.amplitudes[0] == pytest.approx(math.cos(0.55))

