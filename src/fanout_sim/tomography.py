"""Simulated state tomography: settings, shot sampling, and reconstruction.

Reconstruction is linear inversion over the full Pauli basis followed by a
deterministic eigenvalue projection: negative eigenvalues are clamped to
zero, iterating from the most negative, with each deficit redistributed
uniformly over the remaining positive eigenvalues; the trace is then
renormalized to one. Per-qubit readout confusion is inverted on the
rotated-basis outcome frequencies before Pauli averaging.

The outcome distributions of all 3^k settings, and the expectations of all
4^k Pauli strings, come from one contraction of rho per qubit over that
qubit's (row, column) axis pair, not from rotating or multiplying the state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .noise import ConfusionMatrix, noisy_readouts
from .states import PAULI_MATRICES, DensityState, gate_matrix

#: Rotations mapping each Pauli eigenbasis onto the computational basis.
_S_DAGGER = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)
BASIS_ROTATIONS = {
    "X": gate_matrix("H"),
    "Y": gate_matrix("H") @ _S_DAGGER,
    "Z": np.eye(2, dtype=complex),
}


@dataclass(frozen=True)
class TomogramData:
    """Counted outcomes per measurement setting."""

    counts: dict[str, dict[str, int]]  # setting -> bitstring -> count
    shots: int
    confusion: ConfusionMatrix | None = None

    def __post_init__(self):
        for setting, table in self.counts.items():
            if sum(table.values()) != self.shots:
                raise ValueError(f"counts for setting {setting} do not sum to shots")

    @property
    def n_qubits(self) -> int:
        return len(next(iter(self.counts)))


@dataclass(frozen=True)
class ReconstructionResult:
    rho: DensityState
    adjustment: float  # total eigenvalue weight clamped away by the projection


def settings(k: int) -> list[str]:
    """All 3^k measurement settings over {X, Y, Z}, lexicographic."""
    if k < 1:
        raise ValueError("need at least one qubit")
    return ["".join(s) for s in product("XYZ", repeat=k)]


#: _OUTCOME_WEIGHTS[2 l + b, 2 i + j] = R[b, i] conj(R[b, j]) for the rotation
#: R of basis letter l (X, Y, Z): the weight of a qubit's density entry
#: (i, j) in the probability of its outcome b.
_ROTATIONS = np.array([BASIS_ROTATIONS[letter] for letter in "XYZ"])
_OUTCOME_WEIGHTS = (_ROTATIONS[..., :, None] * _ROTATIONS.conj()[..., None, :]).reshape(6, 4)

#: _PAULI_WEIGHTS[l, 2 i + j] = P[j, i] for the Pauli of letter l (I, X, Y,
#: Z): the weight of a qubit's density entry (i, j) in Tr(P rho).
_PAULI_WEIGHTS = np.array([PAULI_MATRICES[letter].T.ravel() for letter in "IXYZ"])

#: Letters to the bits of a Pauli string's X part and Z part (Y has both).
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


def _contract_pairs(state: DensityState, weights: np.ndarray) -> np.ndarray:
    """One ``tensordot`` per qubit of ``weights`` (m x 4) over the qubit's
    (row, column) axis pair in rho: shape (m,) * k."""
    k = state.n
    pairs = [axis for q in range(k) for axis in (q, k + q)]
    t = state.matrix.reshape((2,) * (2 * k)).transpose(pairs).reshape((4,) * k)
    for _ in range(k):  # each contracts the leading axis and appends its own
        t = np.tensordot(t, weights, axes=([0], [1]))
    return t


def _rotated_distributions(state: DensityState) -> np.ndarray:
    """Outcome distributions of every setting: one row per setting in the
    order of ``settings``, one column per outcome with qubit 0 the most
    significant bit."""
    k = state.n
    t = _contract_pairs(state, _OUTCOME_WEIGHTS).reshape((3, 2) * k)
    t = t.transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)])
    probs = np.clip(t.real.reshape(3**k, 2**k), 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


def _sample(
    probs: np.ndarray, shots: int, confusion: ConfusionMatrix | None, rng: np.random.Generator
) -> dict[str, int]:
    """Counts of ``shots`` outcomes drawn from ``probs``, with optional
    misassignment."""
    if shots < 1:
        raise ValueError("need at least one shot")
    k = probs.size.bit_length() - 1
    outcomes = rng.choice(2**k, size=shots, p=probs)
    if confusion is not None:
        weights = 1 << np.arange(k - 1, -1, -1)  # qubit 0 is the most significant bit
        bits = (outcomes[:, None] & weights) > 0
        for q in range(k):
            bits[:, q] = noisy_readouts(bits[:, q], confusion, rng)
        outcomes = bits @ weights
    values, counts = np.unique(outcomes, return_counts=True)
    return {format(v, f"0{k}b"): int(c) for v, c in zip(values, counts)}


def simulate_shots(
    state: DensityState,
    setting: str,
    shots: int,
    confusion: ConfusionMatrix | None,
    rng: np.random.Generator,
) -> dict[str, int]:
    """Sample readout bitstrings for one setting, with optional misassignment."""
    if len(setting) != state.n:
        raise ValueError("setting length must match the state size")
    bad = set(setting) - set("XYZ")
    if bad:
        raise ValueError(f"invalid basis letter {min(bad)!r}")
    row = settings(state.n).index(setting)
    return _sample(_rotated_distributions(state)[row], shots, confusion, rng)


def collect_tomogram(
    state: DensityState,
    shots: int,
    confusion: ConfusionMatrix | None,
    rng: np.random.Generator,
) -> TomogramData:
    """Full tomogram: one counted dataset per setting, sampled in the order
    of ``settings`` as ``simulate_shots`` would."""
    counts = {s: _sample(p, shots, confusion, rng)
              for s, p in zip(settings(state.n), _rotated_distributions(state))}
    return TomogramData(counts=counts, shots=shots, confusion=confusion)


def _corrected_frequencies(data: TomogramData, setting: str, inv: np.ndarray | None) -> np.ndarray:
    """Outcome frequencies of one setting, with the confusion inverse ``inv``
    (None: no correction) applied on every qubit."""
    k = data.n_qubits
    freq = np.zeros(2**k)
    for bits, count in data.counts[setting].items():
        freq[int(bits, 2)] = count / data.shots
    if inv is not None:
        freq = freq.reshape((2,) * k)
        for q in range(k):
            freq = np.tensordot(inv, freq, axes=([1], [q]))
            freq = np.moveaxis(freq, 0, q)
        freq = freq.reshape(-1)
    return freq


def linear_inversion(data: TomogramData) -> np.ndarray:
    """Hermitian estimate (1/2^k) sum_P <P> P over all Pauli strings.

    Each <P> is averaged over every setting whose letters cover P's support;
    requires the complete 3^k setting set.
    """
    k = data.n_qubits
    expected = set(settings(k))
    missing = expected - set(data.counts)
    if missing:
        raise ValueError(f"missing tomography settings, e.g. {sorted(missing)[:3]}")

    # Parity sign of each outcome over each support subset; a subset mask
    # shares the outcome bit layout (qubit 0 = MSB).
    outcomes = np.arange(2**k)
    subset_signs = {}
    for subset in range(2**k):
        subset_signs[subset] = 1 - 2 * (np.bitwise_count(outcomes & subset).astype(np.int64) & 1)

    inv = data.confusion.inverse() if data.confusion is not None else None
    sums: dict[str, float] = {}
    hits: dict[str, int] = {}
    for setting in sorted(expected):
        freq = _corrected_frequencies(data, setting, inv)
        for subset in range(2**k):
            letters = [setting[q] if subset & (1 << (k - 1 - q)) else "I" for q in range(k)]
            pauli = "".join(letters)
            value = float(np.dot(subset_signs[subset], freq))
            sums[pauli] = sums.get(pauli, 0.0) + value
            hits[pauli] = hits.get(pauli, 0) + 1

    # Each Pauli string has one nonzero entry per row: row i holds the phase
    # (-i)^(#Y) (-1)^|i & z| in column i ^ x, for x the X/Y letters and z the
    # Y/Z letters. Adding only those entries, string by string, gives each
    # entry the sums of the dense (1/2^k) sum_P <P> P bit for bit.
    dim = 2**k
    rows = np.arange(dim)
    rho = np.zeros((dim, dim), dtype=complex)
    for pauli, total in sums.items():
        x = int(pauli.translate(_X_BITS), 2)
        z = int(pauli.translate(_Z_BITS), 2)
        phases = (-1j) ** pauli.count("Y") * np.where(np.bitwise_count(rows & z) & 1, -1, 1)
        rho[rows, rows ^ x] += (total / hits[pauli]) * phases
    return rho / dim


def mle_project(matrix: np.ndarray) -> ReconstructionResult:
    """Project a Hermitian, near-trace-1 matrix onto the density-matrix cone."""
    m = np.asarray(matrix, dtype=complex)
    if not np.allclose(m, m.conj().T, atol=1e-8):
        raise ValueError("matrix is not Hermitian within 1e-8")
    if abs(np.trace(m).real - 1.0) > 1e-6:
        raise ValueError("matrix trace is not close to 1")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = w.copy()
    adjustment = 0.0
    order = np.argsort(w)  # most negative first
    for idx in order:
        if w[idx] >= 0.0:
            continue
        deficit = w[idx]
        adjustment += -deficit
        w[idx] = 0.0
        positive = [j for j in order if w[j] > 0.0]
        if not positive:
            raise ValueError("projection ran out of positive eigenvalues")
        share = deficit / len(positive)
        for j in positive:
            w[j] += share
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    rho = (v * w) @ v.conj().T
    return ReconstructionResult(rho=DensityState(rho, validate=False), adjustment=adjustment)


def reconstruct(data: TomogramData) -> ReconstructionResult:
    """Linear inversion followed by the eigenvalue projection."""
    return mle_project(linear_inversion(data))


def pauli_table(rho: DensityState) -> dict[str, float]:
    """Exact expectation of every Pauli string, lexicographic order."""
    values = _contract_pairs(rho, _PAULI_WEIGHTS).real.ravel()
    return {"".join(s): float(v) for s, v in zip(product("IXYZ", repeat=rho.n), values)}


def split_by_ideal(
    table: dict[str, float], ideal_table: dict[str, float], tol: float = 1e-9
) -> tuple[dict[str, float], dict[str, float]]:
    """Split measured expectations into ideal-nonzero and ideal-zero sets.

    The identity string is excluded from both. The second set's extrema give
    the background band of a measured-vs-ideal expectation chart.
    """
    nonzero, zero = {}, {}
    for pauli, ideal in ideal_table.items():
        if set(pauli) == {"I"}:
            continue
        (nonzero if abs(ideal) > tol else zero)[pauli] = table[pauli]
    return nonzero, zero


def contrast_fit(angles, values) -> tuple[float, float, float]:
    """Least-squares fit of A sin(angle + delta) + c with A >= 0.

    Returns (A, delta in [0, 2pi), c); constant data yields A = 0.
    """
    angles = np.asarray(angles, dtype=float)
    values = np.asarray(values, dtype=float)
    if angles.shape != values.shape or angles.size < 4:
        raise ValueError("need at least four (angle, value) points")
    design = np.column_stack([np.sin(angles), np.cos(angles), np.ones_like(angles)])
    (a, b, c), *_ = np.linalg.lstsq(design, values, rcond=None)
    amplitude = math.hypot(a, b)
    if amplitude < 1e-12:
        return 0.0, 0.0, float(c)
    delta = math.atan2(b, a) % (2.0 * math.pi)
    return float(amplitude), float(delta), float(c)


def serialize_tomogram(data: TomogramData) -> str:
    """Tabular text: setting, bitstring, count."""
    lines = ["setting,bitstring,count"]
    for setting in sorted(data.counts):
        for bits in sorted(data.counts[setting]):
            lines.append(f"{setting},{bits},{data.counts[setting][bits]}")
    return "\n".join(lines) + "\n"


def serialize_density(rho: DensityState) -> str:
    """Real/imaginary pair table, one matrix row per line."""
    lines = []
    for row in rho.matrix:
        lines.append(" ".join(f"{v.real:+.10f}{v.imag:+.10f}j" for v in row))
    return "\n".join(lines) + "\n"
