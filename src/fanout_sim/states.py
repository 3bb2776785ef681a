"""Statevector and density-matrix backends for small qubit registers.

Basis convention: qubit 0 is the most significant bit, so the
computational-basis index of |q0 q1 ... q_{n-1}> is sum_i q_i * 2**(n-1-i).
State objects are single-owner and mutated in place; pass explicit RNG
streams to every stochastic operation.

A state may also hold a batch: its array then carries leading axes (the
``batch`` shape) in front of the qubit axes. The kernels ``apply_matrix``,
``apply_cz``, ``apply_gate``, ``prepare_input``, ``probabilities_z``,
``branch_z``, ``discard_qubits``, ``remove_collapsed`` and
``noise.apply_depolarizing`` act on the trailing qubit axes, so one call
updates every member and an unbatched state is a batch of one. Each member
gets exactly the bits it would get on its own. The remaining methods expect
an unbatched state.

Which kernel each gate takes (``apply_gate`` dispatches on the kind):

* one-qubit gates (and the input pulse): ``_apply_axis``, one BLAS call on
  a reshaped view of the array, with no transposing copy; a density matrix
  takes it once per side;
* CZ: ``apply_cz``, sign flips in place;
* CNOT and any other 4x4 matrix: ``_contract``, the general ``tensordot``
  contraction.

The exact engine measures with ``branch_z``, then removes the measured
qubit with ``remove_collapsed`` (statevector) or ``discard_qubits``
(density matrix).

These kernels are bit-identical to the contraction and copies they
replaced, signed zeros included (``tests/test_batch.py`` checks each, and
``tools/compare_trees.py`` checks whole runs against another source tree).
The contract exists because the tomography fidelity ``fidelity(rec.rho,
truth)`` is ill-conditioned when the reconstruction is rank-deficient: a
change of 1e-16 in the simulated state can move it by about 1e-8, which
would move the ``tomo`` tables past their 1e-9 checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-12
PSD_CLAMP = 1e-10

#: Measurement outcomes below this probability are not branched on.
ZERO_PROB = 1e-14

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

GATE_KINDS = ("RX", "RY", "RZ", "H", "X", "Z", "CZ", "CNOT")
_ROTATIONS = ("RX", "RY", "RZ")
_TWO_QUBIT = ("CZ", "CNOT")


def gate_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """Unitary matrix for a named gate (2x2 or 4x4)."""
    if kind == "RX":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array(
            [[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=complex
        )
    if kind == "H":
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    if kind == "X":
        return PAULI_MATRICES["X"].copy()
    if kind == "Z":
        return PAULI_MATRICES["Z"].copy()
    if kind == "CZ":
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    if kind == "CNOT":
        m = np.eye(4, dtype=complex)
        m[[2, 3]] = m[[3, 2]]
        return m
    raise ValueError(f"unknown gate kind {kind!r}")


@dataclass(frozen=True)
class GateOp:
    """A named gate acting on one or two qubit indices."""

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(self.targets))
        expected = 2 if self.kind in _TWO_QUBIT else 1
        if len(self.targets) != expected:
            raise ValueError(f"{self.kind} takes {expected} target(s)")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"{self.kind} targets must be distinct")
        if self.kind in _ROTATIONS:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} requires a finite angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    def matrix(self) -> np.ndarray:
        return gate_matrix(self.kind, self.angle)


@dataclass(frozen=True)
class QubitRegister:
    """Ordered register of qubits identified by unique role labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 1:
            raise ValueError("register needs at least one qubit")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("register labels must be unique")

    @property
    def count(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class InputState:
    """Single-qubit input cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError("phi must lie in [0, 2*pi)")

    def amplitudes(self) -> np.ndarray:
        return np.array(
            [
                math.cos(self.theta / 2.0),
                np.exp(1j * self.phi) * math.sin(self.theta / 2.0),
            ],
            dtype=complex,
        )


#: The six cardinal input states: poles and the four equator points.
CARDINAL_INPUTS: tuple[tuple[str, InputState], ...] = (
    ("0", InputState(0.0, 0.0)),
    ("1", InputState(math.pi, 0.0)),
    ("+", InputState(math.pi / 2.0, 0.0)),
    ("-", InputState(math.pi / 2.0, math.pi)),
    ("+i", InputState(math.pi / 2.0, math.pi / 2.0)),
    ("-i", InputState(math.pi / 2.0, 3.0 * math.pi / 2.0)),
)


def _check_pauli_string(pauli: str, count: int) -> None:
    if len(pauli) != count:
        raise ValueError(f"pauli string length {len(pauli)} != register size {count}")
    bad = set(pauli) - set("IXYZ")
    if bad:
        raise ValueError(f"invalid pauli letters {sorted(bad)}")


def _contract(tensor: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract matrix u (2^k x 2^k) into the given tensor axes.

    The general path: ``tensordot`` copies the tensor with the axes moved to
    the front, and the caller's reshape copies the result back.
    """
    k = len(axes)
    u_t = u.reshape((2,) * (2 * k))
    out = np.tensordot(u_t, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def _apply_axis(array: np.ndarray, u: np.ndarray, r: int) -> np.ndarray:
    """A new array: the 2x2 ``u`` applied to the axis of C-ordered ``array``
    whose trailing size is ``r``.

    One BLAS call on a reshaped view, with no transposing copy: per block
    of ``r`` (r >= 32), against ``kron(u, I_r)`` (2 <= r <= 16), or, with the
    axis paired with the one before it, against ``kron(I_2, u)`` (r = 1).
    Below r = 32 one call per block of ``r`` costs more than the Kronecker
    product's zero terms. Each gives the bits of ``_contract``; the zero
    terms add only signed zeros. An array whose size is not a multiple
    of 8 (one or two qubits in a small batch) keeps ``_contract``: there its
    BLAS call takes a remainder path whose bits no view reproduces.
    """
    if array.size % 8:
        out = _contract(array.reshape(-1, 2, r), u, (1,))
    elif r >= 32:
        out = np.matmul(u, array.reshape(-1, 2, r))
    elif r > 1:
        out = array.reshape(-1, 2 * r) @ np.kron(u, np.eye(r)).T
    else:
        out = array.reshape(-1, 4) @ np.kron(np.eye(2), u).T
    return out.reshape(array.shape)


def _negate(tensor: np.ndarray, axes: tuple[int, ...]) -> None:
    """Negate, in place, the entries whose index is 1 on each of ``axes``."""
    index = [slice(None)] * tensor.ndim
    for axis in axes:
        index[axis] = slice(1, 2)  # a view, never a scalar
    block = tensor[tuple(index)]
    np.negative(block, out=block)


def _writable(array: np.ndarray) -> np.ndarray:
    """``array``, or a C-ordered copy if it is not C-contiguous and writable,
    for kernels that work in place through reshaped views."""
    if array.flags.c_contiguous and array.flags.writeable:
        return array
    return array.copy()


def _cz_targets(state, targets) -> tuple[int, int]:
    a, b = (int(q) for q in targets)
    state._check_qubit(a)
    state._check_qubit(b)
    if a == b:
        raise ValueError("CZ targets must be distinct")
    return a, b


def _per_member(values: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` over the last axis of each batch member, one member at a
    time: a batched reduction could order its additions differently."""
    if values.ndim == 1:
        return reduce(values)
    flat = values.reshape(-1, values.shape[-1])
    return np.array([reduce(v) for v in flat]).reshape(values.shape[:-1] + (-1,))


def _outcomes(probs: np.ndarray):
    """(outcome, probability, divisor) for each Z outcome to branch on.

    Unbatched, an outcome below ``ZERO_PROB`` is left out. In a batch every
    outcome is kept; a member below ``ZERO_PROB`` reads probability 0 and
    divisor 1, so its state stays unnormalized and its caller drops it.
    """
    for outcome in (0, 1):
        if probs.ndim == 1:
            p = probs[outcome]
            if p >= ZERO_PROB:
                yield outcome, p, p
            continue
        p = probs[..., outcome]
        live = p >= ZERO_PROB
        yield outcome, np.where(live, p, 0.0), np.where(live, p, 1.0)


def _pick_branch(branches, rng: np.random.Generator, force: int | None):
    """The branch of ``branch_z`` that a measurement keeps: outcome
    ``force``, or outcome 1 with its probability. An outcome below
    ``ZERO_PROB`` has no branch, so a draw keeps the other one."""
    live = {branch[0]: branch for branch in branches}
    if force is None:
        outcome = 1 if rng.random() < (live[1][2] if 1 in live else 0.0) else 0
        return live.get(outcome, branches[0])
    if int(force) not in live:
        raise ValueError(f"forced outcome {force} has zero probability")
    return live[int(force)]


class PureState:
    """Pure statevector over ``n`` qubits, mutated in place."""

    def __init__(self, amplitudes: np.ndarray, validate: bool = True):
        amps = np.asarray(amplitudes, dtype=complex)
        dim = amps.shape[-1] if amps.ndim else 0
        if dim == 0 or dim & (dim - 1):
            raise ValueError("amplitudes must be a complex vector of length 2^n")
        self.amplitudes = amps
        self.n = dim.bit_length() - 1
        if validate:
            norm = np.linalg.norm(amps, axis=-1)
            if np.any(np.abs(norm - 1.0) > 1e-9):
                raise ValueError(f"statevector norm {norm} is not 1")

    @property
    def batch(self) -> tuple[int, ...]:
        return self.amplitudes.shape[:-1]

    @classmethod
    def zeros(cls, count: int) -> "PureState":
        if count < 1:
            raise ValueError("need at least one qubit")
        amps = np.zeros(2**count, dtype=complex)
        amps[0] = 1.0
        return cls(amps, validate=False)

    def copy(self) -> "PureState":
        return PureState(self.amplitudes.copy(), validate=False)

    def _tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.batch + (2,) * self.n)

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.n:
            raise ValueError(f"qubit {qubit} out of range for {self.n} qubits")

    def prepare_input(self, qubit: int, inp: InputState) -> "PureState":
        """Load an input superposition onto a qubit currently in |0>."""
        self._check_qubit(qubit)
        axis = len(self.batch) + qubit
        t = np.moveaxis(self._tensor(), axis, 0)
        if np.linalg.norm(t[1]) > 1e-9:
            raise ValueError("prepare_input target must be in |0>")
        a0, a1 = inp.amplitudes()
        t[1] = a1 * t[0]
        t[0] = a0 * t[0]
        self.amplitudes = np.moveaxis(t, 0, axis).reshape(self.amplitudes.shape)
        return self

    def _split(self, qubit: int) -> np.ndarray:
        """The amplitudes as (batch..., 2^qubit, 2, rest), ``qubit``'s axis in the middle."""
        return self.amplitudes.reshape(self.batch + (2**qubit, 2, 2 ** (self.n - 1 - qubit)))

    def apply_matrix(self, u: np.ndarray, targets: tuple[int, ...]) -> "PureState":
        for q in targets:
            self._check_qubit(q)
        if len(targets) == 1:
            self.amplitudes = _apply_axis(self.amplitudes, u, 2 ** (self.n - 1 - targets[0]))
            return self
        axes = tuple(len(self.batch) + q for q in targets)
        self.amplitudes = _contract(self._tensor(), u, axes).reshape(self.amplitudes.shape)
        return self

    def apply_cz(self, targets: tuple[int, ...]) -> "PureState":
        """CZ in place: negate the amplitudes where both target bits are set."""
        a, b = _cz_targets(self, targets)
        self.amplitudes = _writable(self.amplitudes)
        lead = len(self.batch)
        _negate(self._tensor(), (lead + a, lead + b))
        return self

    def apply_gate(self, gate: GateOp, targets: tuple[int, ...] | None = None) -> "PureState":
        """``gate`` on its own targets, or on ``targets`` (register positions)
        when given. CZ flips signs in place; other gates go through
        ``apply_matrix``."""
        targets = gate.targets if targets is None else targets
        if gate.kind == "CZ":
            return self.apply_cz(targets)
        return self.apply_matrix(gate.matrix(), targets)

    def apply_pauli(self, pauli: str) -> "PureState":
        _check_pauli_string(pauli, self.n)
        for q, letter in enumerate(pauli):
            if letter != "I":
                self.apply_matrix(PAULI_MATRICES[letter], (q,))
        return self

    def probabilities_z(self, qubit: int) -> np.ndarray:
        self._check_qubit(qubit)
        shape = (2,) * self.n

        def reduce(amps):
            t = np.moveaxis(amps.reshape(shape), qubit, 0).reshape(2, -1)
            return np.array([np.vdot(t[0], t[0]).real, np.vdot(t[1], t[1]).real])

        return _per_member(self.amplitudes, reduce)

    def measure_z(self, qubit: int, rng: np.random.Generator, force: int | None = None):
        """Projective Z measurement. Returns (outcome, self, probability)."""
        outcome, post, p = _pick_branch(self.branch_z(qubit), rng, force)
        self.amplitudes = post.amplitudes
        return outcome, self, p

    def branch_z(self, qubit: int):
        """Both Z branches as fresh states: list of (outcome, state, prob).

        For a batch, ``prob`` holds one probability per member (see ``_outcomes``).
        """
        split = self._split(qubit)
        branches = []
        for outcome, p, divisor in _outcomes(self.probabilities_z(qubit)):
            amps = np.zeros(split.shape, dtype=complex)
            amps[..., outcome, :] = split[..., outcome, :] / np.sqrt(divisor)[..., None, None]
            amps = amps.reshape(self.amplitudes.shape)
            branches.append((outcome, PureState(amps, validate=False), p))
        return branches

    def remove_collapsed(self, qubit: int, outcome: int) -> "PureState":
        """Drop a qubit whose state has collapsed to |outcome>."""
        self._check_qubit(qubit)
        t = np.moveaxis(self._tensor(), len(self.batch) + qubit, 0)
        if np.linalg.norm(t[1 - outcome]) > 1e-9:
            raise ValueError("qubit is not collapsed to the requested outcome")
        self.amplitudes = t[outcome].reshape(self.batch + (-1,))
        self.n -= 1
        return self

    def expectation(self, pauli: str) -> float:
        _check_pauli_string(pauli, self.n)
        phi = self.copy().apply_pauli(pauli)
        return float(np.vdot(self.amplitudes, phi.amplitudes).real)

    def to_density(self) -> "DensityState":
        return DensityState(np.outer(self.amplitudes, self.amplitudes.conj()), validate=False)


class DensityState:
    """Mixed state as a 2^n x 2^n density matrix, mutated in place."""

    def __init__(self, matrix: np.ndarray, validate: bool = True):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] & (m.shape[-1] - 1):
            raise ValueError("density matrix must be square with dimension 2^n")
        self.matrix = m
        self.n = m.shape[-1].bit_length() - 1
        if validate:
            self.validate()

    @property
    def batch(self) -> tuple[int, ...]:
        return self.matrix.shape[:-2]

    @classmethod
    def zeros(cls, count: int) -> "DensityState":
        if count < 1:
            raise ValueError("need at least one qubit")
        m = np.zeros((2**count, 2**count), dtype=complex)
        m[0, 0] = 1.0
        return cls(m, validate=False)

    @classmethod
    def maximally_mixed(cls, count: int) -> "DensityState":
        return cls(np.eye(2**count, dtype=complex) / 2**count, validate=False)

    def copy(self) -> "DensityState":
        return DensityState(self.matrix.copy(), validate=False)

    def validate(self, psd: bool = False) -> None:
        """Check every member: Hermitian, trace 1 and, with ``psd``, no
        eigenvalue below ``-PSD_CLAMP``."""
        m = self.matrix
        adjoint = np.swapaxes(m, -1, -2).conj()
        if not np.allclose(m, adjoint, atol=1e-8):
            raise ValueError("density matrix is not Hermitian")
        trace = np.trace(m, axis1=-2, axis2=-1).real
        if np.any(np.abs(trace - 1.0) > 1e-8):
            raise ValueError(f"density matrix trace {trace} is not 1")
        if psd and np.linalg.eigvalsh((m + adjoint) / 2.0).min() < -PSD_CLAMP:
            raise ValueError("density matrix has a significantly negative eigenvalue")

    def _tensor(self) -> np.ndarray:
        return self.matrix.reshape(self.batch + (2,) * (2 * self.n))

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.n:
            raise ValueError(f"qubit {qubit} out of range for {self.n} qubits")

    def _split(self, qubit: int) -> np.ndarray:
        """The matrix as (batch..., 2^qubit, 2, rest, 2^qubit, 2, rest), with
        ``qubit``'s row and column axes in the middle of each side."""
        side = (2**qubit, 2, 2 ** (self.n - 1 - qubit))
        return self.matrix.reshape(self.batch + side + side)

    def prepare_input(self, qubit: int, inp: InputState) -> "DensityState":
        """Load an input superposition onto a qubit currently in |0> in every
        member; only the diagonal is read to check that."""
        self._check_qubit(qubit)
        diag = np.diagonal(self.matrix, axis1=-2, axis2=-1).real
        excited = diag.reshape(self.batch + (2**qubit, 2, -1))[..., 1, :].sum(axis=(-2, -1))
        if np.any(excited > 1e-9):
            raise ValueError("prepare_input target must be in |0>")
        a = inp.amplitudes()
        u = np.array([[a[0], -a[1].conj()], [a[1], a[0].conj()]], dtype=complex)
        return self.apply_matrix(u, (qubit,))

    def apply_matrix(self, u: np.ndarray, targets: tuple[int, ...]) -> "DensityState":
        for q in targets:
            self._check_qubit(q)
        if len(targets) == 1:
            r = 2 ** (self.n - 1 - targets[0])
            m = _apply_axis(self.matrix, u, r * 2**self.n)
            self.matrix = _apply_axis(m, u.conj(), r)
            return self
        lead = len(self.batch)
        t = _contract(self._tensor(), u, tuple(lead + q for q in targets))
        t = _contract(t, u.conj(), tuple(lead + self.n + q for q in targets))
        self.matrix = t.reshape(self.matrix.shape)
        return self

    def apply_cz(self, targets: tuple[int, ...]) -> "DensityState":
        """CZ in place: negate the entries where exactly one of the row and
        column indices has both target bits set (the rows' flips, then the
        columns', so entries with both are flipped back)."""
        a, b = _cz_targets(self, targets)
        self.matrix = _writable(self.matrix)
        t = self._tensor()
        lead, n = len(self.batch), self.n
        _negate(t, (lead + a, lead + b))
        _negate(t, (lead + n + a, lead + n + b))
        return self

    def apply_gate(self, gate: GateOp, targets: tuple[int, ...] | None = None) -> "DensityState":
        """``gate`` on its own targets, or on ``targets`` (register positions)
        when given. CZ flips signs in place; other gates go through
        ``apply_matrix``."""
        targets = gate.targets if targets is None else targets
        if gate.kind == "CZ":
            return self.apply_cz(targets)
        return self.apply_matrix(gate.matrix(), targets)

    def probabilities_z(self, qubit: int) -> np.ndarray:
        self._check_qubit(qubit)
        shape = (2,) * self.n
        other = tuple(i for i in range(self.n) if i != qubit)
        diag = np.real(np.diagonal(self.matrix, axis1=-2, axis2=-1))
        return _per_member(diag, lambda d: d.reshape(shape).sum(axis=other))

    def measure_z(self, qubit: int, rng: np.random.Generator, force: int | None = None):
        """Projective Z measurement. Returns (outcome, self, probability)."""
        outcome, post, p = _pick_branch(self.branch_z(qubit), rng, force)
        self.matrix = post.matrix
        return outcome, self, p

    def branch_z(self, qubit: int):
        """Both Z branches as fresh states: list of (outcome, state, prob).

        For a batch, ``prob`` holds one probability per member (see ``_outcomes``).
        """
        split = self._split(qubit)
        branches = []
        for outcome, p, divisor in _outcomes(self.probabilities_z(qubit)):
            block = (..., outcome, slice(None), slice(None), outcome, slice(None))
            post = np.zeros(split.shape, dtype=complex)
            post[block] = split[block] / np.asarray(divisor)[..., None, None, None, None]
            post = post.reshape(self.matrix.shape)
            branches.append((outcome, DensityState(post, validate=False), p))
        return branches

    def discard_qubits(self, qubits) -> "DensityState":
        """Partial trace over the listed qubits; returns a new state."""
        drop = sorted(set(int(q) for q in qubits), reverse=True)
        for q in drop:
            self._check_qubit(q)
        if not drop:
            return self.copy()
        t = self._tensor()
        lead, n = len(self.batch), self.n
        for q in drop:
            t = np.trace(t, axis1=lead + q, axis2=lead + n + q)
            n -= 1
        dim = 2**n
        return DensityState(t.reshape(self.batch + (dim, dim)), validate=False)

    def expectation(self, pauli: str) -> float:
        _check_pauli_string(pauli, self.n)
        m = self.matrix
        for q, letter in enumerate(pauli):
            if letter != "I":
                m = _apply_axis(m, PAULI_MATRICES[letter], 2 ** (2 * self.n - 1 - q))
        return float(np.trace(m).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def _sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    if w.min() < -PSD_CLAMP:
        raise ValueError(f"matrix eigenvalue {w.min()} below the PSD clamp")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: DensityState, sigma: DensityState) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1]."""
    if rho.n != sigma.n:
        raise ValueError(f"dimension mismatch: {rho.n} vs {sigma.n} qubits")
    # A pure argument reduces the fidelity to an overlap expectation.
    for pure, other in ((rho, sigma), (sigma, rho)):
        if abs(pure.purity() - 1.0) < 1e-12:
            w, v = np.linalg.eigh((pure.matrix + pure.matrix.conj().T) / 2.0)
            psi = v[:, -1]
            val = float(np.real(psi.conj() @ other.matrix @ psi))
            return min(max(val, 0.0), 1.0)
    sr = _sqrt_psd(rho.matrix)
    inner = sr @ sigma.matrix @ sr
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    val = float(np.sum(np.sqrt(w)) ** 2)
    return min(max(val, 0.0), 1.0)
