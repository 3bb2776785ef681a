"""State kernels: a batch of k states gets exactly the bits of k single calls, and
each copy-free kernel gets the bits of the contraction or copies it replaced."""
import math
from itertools import permutations

import numpy as np
import pytest

from fanout_sim.circuits import MeasureOp
from fanout_sim.engine import _branch_measurement
from fanout_sim.engine import _members as engine_members
from fanout_sim.noise import ConfusionMatrix, apply_depolarizing
from fanout_sim.states import (
    ZERO_PROB,
    GateOp,
    DensityState,
    InputState,
    PureState,
    _apply_axis,
    gate_matrix,
)
from fanout_sim.tomography import BASIS_ROTATIONS

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


def reference_apply_to_axes(tensor, u, axes):
    """The tensordot contraction every gate took before the axis kernel."""
    k = len(axes)
    u_t = u.reshape((2,) * (2 * k))
    out = np.tensordot(u_t, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def assert_same_bits(actual, expected):
    """Equal values and equal bytes, so signed zeros match too."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def with_zeros(rng, array):
    """``array`` with about a fifth of its entries set to +0 or -0."""
    array = array.copy()
    hit = rng.random(array.shape) < 0.2
    array[hit] = 0.0
    array[hit & (rng.random(array.shape) < 0.5)] = complex(-0.0, -0.0)
    return array


def _input_pulse(theta, phi):
    a = InputState(theta, phi).amplitudes()
    return np.array([[a[0], -a[1].conj()], [a[1], a[0].conj()]], dtype=complex)


#: Every 2x2 matrix the package applies, an off-grid input pulse and a random unitary.
ONE_QUBIT_MATRICES = {
    "H": gate_matrix("H"),
    "X": gate_matrix("X"),
    "Z": gate_matrix("Z"),
    **{f"{kind}({angle:+.2f})": gate_matrix(kind, angle)
       for kind in ("RX", "RY", "RZ")
       for angle in (math.pi / 2, -math.pi / 2, math.pi, -math.pi)},
    "input(1.1,0.4)": _input_pulse(1.1, 0.4),
    **{f"basis-{letter}": u for letter, u in BASIS_ROTATIONS.items()},
    "random": random_unitary(np.random.default_rng(12), 1),
}
BATCHES = {"unbatched": (), "batch-1": (1,), "batch-3": (3,), "batch-4": (4,)}


@pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_axis_kernel_matches_tensordot(n, kind, batch):
    """Every axis position, so every trailing size from 1 up, and the
    layouts too small for a view, which keep the contraction."""
    rng = np.random.default_rng(100 * n + len(batch))
    qubit_axes = n if kind == "pure" else 2 * n
    shape = batch + (2,) * qubit_axes
    array = with_zeros(rng, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    flat = array.reshape(batch + ((2**n,) if kind == "pure" else (2**n, 2**n)))
    for name, u in ONE_QUBIT_MATRICES.items():
        for axis in range(qubit_axes):
            expected = reference_apply_to_axes(array, u, (len(batch) + axis,)).reshape(flat.shape)
            assert_same_bits(_apply_axis(flat, u, 2 ** (qubit_axes - 1 - axis)), expected)
        for q in range(n):  # through the state classes, both sides of a density matrix
            lead = len(batch)
            if kind == "pure":
                state = PureState(flat.copy(), validate=False).apply_matrix(u, (q,))
                expected = reference_apply_to_axes(array, u, (lead + q,))
                assert_same_bits(state.amplitudes, expected.reshape(flat.shape))
            else:
                state = DensityState(flat.copy(), validate=False).apply_matrix(u, (q,))
                t = reference_apply_to_axes(array, u, (lead + q,))
                t = reference_apply_to_axes(t, u.conj(), (lead + n + q,))
                assert_same_bits(state.matrix, t.reshape(flat.shape))


def test_axis_kernel_ignores_gate_memory_order():
    rng = np.random.default_rng(13)
    m = random_density(rng, 1, 3)[0]
    u = random_unitary(rng, 1)
    expected = DensityState(m.copy(), validate=False).apply_matrix(u, (1,)).matrix
    read_only = u.copy()
    read_only.flags.writeable = False
    for gate in (np.asfortranarray(u), read_only):
        state = DensityState(m.copy(), validate=False).apply_matrix(gate, (1,))
        assert_same_bits(state.matrix, expected)


@pytest.mark.parametrize("batch", [(), (3,)], ids=["unbatched", "batch-3"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cz_sign_flips_match_contraction(n, batch):
    """Every ordered target pair, against the 4x4 contraction on each side.
    The contraction can turn a -0 entry into +0, so values are compared."""
    rng = np.random.default_rng(20 + n)
    cz = gate_matrix("CZ")
    k = batch[0] if batch else 1
    pure = with_zeros(rng, random_pure(rng, k, n)).reshape(batch + (2**n,))
    dense = with_zeros(rng, random_density(rng, k, n)).reshape(batch + (2**n, 2**n))
    lead = len(batch)
    for a, b in permutations(range(n), 2):
        state = PureState(pure.copy(), validate=False).apply_cz((a, b))
        t = reference_apply_to_axes(pure.reshape(batch + (2,) * n), cz, (lead + a, lead + b))
        assert np.array_equal(state.amplitudes, t.reshape(pure.shape))
        state = DensityState(dense.copy(), validate=False).apply_cz((a, b))
        t = dense.reshape(batch + (2,) * (2 * n))
        t = reference_apply_to_axes(t, cz, (lead + a, lead + b))
        t = reference_apply_to_axes(t, cz, (lead + n + a, lead + n + b))
        assert np.array_equal(state.matrix, t.reshape(dense.shape))
        via_gate = DensityState(dense.copy(), validate=False).apply_gate(GateOp("CZ", (a, b)))
        assert_same_bits(via_gate.matrix, state.matrix)


def test_cz_rejects_equal_targets():
    with pytest.raises(ValueError, match="distinct"):
        DensityState.zeros(2).apply_cz((1, 1))
    with pytest.raises(ValueError, match="out of range"):
        PureState.zeros(2).apply_cz((0, 2))


@pytest.mark.parametrize("make", [PureState, DensityState], ids=["pure", "density"])
def test_cz_in_place_leaves_copy_untouched(make):
    rng = np.random.default_rng(14)
    array = random_pure(rng, 1, 3)[0] if make is PureState else random_density(rng, 1, 3)[0]
    state = make(array, validate=False)
    saved = state.copy()
    before = array.copy()
    state.apply_cz((0, 2))
    saved_array = saved.amplitudes if make is PureState else saved.matrix
    assert np.array_equal(saved_array, before)
    assert not np.array_equal(state.amplitudes if make is PureState else state.matrix, before)


@pytest.mark.parametrize("make", [PureState, DensityState], ids=["pure", "density"])
def test_cz_accepts_non_contiguous_and_read_only_arrays(make):
    rng = np.random.default_rng(15)
    if make is PureState:
        array = random_pure(rng, 1, 3)[0]
        non_contiguous = np.empty(2 * array.size, dtype=complex)[::2]
        non_contiguous[:] = array
    else:
        array = random_density(rng, 1, 3)[0]
        non_contiguous = np.ascontiguousarray(array.T).T  # the same values, Fortran order
    expected = make(array.copy(), validate=False).apply_cz((1, 2))
    expected = expected.amplitudes if make is PureState else expected.matrix
    read_only = array.copy()
    read_only.flags.writeable = False
    for source in (non_contiguous, read_only):
        state = make(source, validate=False).apply_cz((1, 2))
        assert_same_bits(state.amplitudes if make is PureState else state.matrix, expected)
    assert np.array_equal(read_only, array)


def _collapse_inputs(rng, make):
    """K members with signed zeros, one pure |0000> member (outcome 1 has
    probability 0) and one whose outcome 1 has probability 1e-16."""
    if make is PureState:
        array = with_zeros(rng, random_pure(rng, K, 4))
        array[1] = 0.0
        array[1, 0] = 1.0
        array[3] = 0.0
        array[3, 0] = math.sqrt(1.0 - 1e-16)
        array[3, -1] = 1e-8
    else:
        array = with_zeros(rng, random_density(rng, K, 4))
        array[1] = 0.0
        array[1, 0, 0] = 1.0
        array[3] = 0.0
        array[3, 0, 0] = 1.0 - 1e-16
        array[3, -1, -1] = 1e-16
    return array


def _reduce(post, qubit, outcome):
    if isinstance(post, PureState):
        return post.remove_collapsed(qubit, outcome).amplitudes
    return post.discard_qubits((qubit,)).matrix


@pytest.mark.parametrize("qubit", [0, 1, 2, 3])
@pytest.mark.parametrize("make", [PureState, DensityState], ids=["pure", "density"])
def test_collapse_matches_branch_then_reduce(make, qubit):
    """The exact engine's measurement step collapses a batch in one pass:
    each child, in the order parent, true outcome, reported bit, has the bits
    of its parent member alone through ``branch_z`` then ``remove_collapsed``
    or ``discard_qubits``, its weight and its reported record. An outcome
    below ``ZERO_PROB`` (members 1 and 3 on outcome 1) has no child."""
    rng = np.random.default_rng(16 + qubit)
    array = _collapse_inputs(rng, make)
    state = make(array, validate=False)
    probs = state.probabilities_z(qubit)
    assert probs[1, 1] == 0.0 and 0.0 < probs[3, 1] < ZERO_PROB
    weights = rng.uniform(0.5, 1.0, size=K).tolist()
    reported = rng.random((K, 4)) < 0.5
    op, conf = MeasureOp(qubit, "x", 1), ConfusionMatrix(p01=0.1, p10=0.2)
    children, new_weights, new_reported = _branch_measurement(
        state, weights, reported.copy(), op, qubit, conf
    )
    flips = (conf.p10, conf.p01)
    expected_children, expected_weights, expected_reported = [], [], []
    for member in range(K):
        for outcome, post, p in make(array[member], validate=False).branch_z(qubit):
            for bit, w in ((outcome, 1.0 - flips[outcome]), (1 - outcome, flips[outcome])):
                expected_children.append(_reduce(post.copy(), qubit, outcome))
                expected_weights.append(weights[member] * p * w)
                row = reported[member].copy()
                row[op.column] = bit
                expected_reported.append(row)
    assert len(expected_children) == 4 * K - 4
    assert_same_bits(engine_members(children), np.stack(expected_children))
    assert new_weights == expected_weights
    assert np.array_equal(new_reported, np.stack(expected_reported))


def test_collapse_keeps_no_children():
    """Parents too light for any child to pass ``BRANCH_PRUNE`` leave an
    empty batch with the measured qubit gone."""
    state = DensityState(random_density(np.random.default_rng(17), 2, 3), validate=False)
    reported = np.zeros((2, 2), dtype=bool)
    children, weights, reported = _branch_measurement(
        state, [1e-13, 1e-13], reported, MeasureOp(1, "z", 0), 1, ConfusionMatrix()
    )
    assert children.batch == (0,) and children.n == 2
    assert weights == [] and reported.shape == (0, 2)


def test_density_prepare_input_rejects_excited_target_in_any_member():
    rng = np.random.default_rng(18)
    m = np.zeros((3, 8, 8), dtype=complex)
    m[:, 0, 0] = 1.0
    excited = DensityState(random_density(rng, 1, 3)[0], validate=False)
    m[2] = excited.matrix
    with pytest.raises(ValueError, match=r"\|0>"):
        DensityState(m.copy(), validate=False).prepare_input(1, InputState(1.0, 0.0))
    # Population up to 1e-9 on |1> is accepted, as PureState's norm check accepts it.
    m[2] = 0.0
    m[2, 0, 0] = 1.0 - 1e-10
    m[2, 2, 2] = 1e-10  # qubit 1 of |010>
    DensityState(m, validate=False).prepare_input(1, InputState(1.0, 0.0))


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

