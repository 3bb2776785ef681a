"""Error channels: depolarizing gate/idle noise and readout misassignment.

All channels preserve trace and Hermiticity. A depolarizing channel of p
is a uniform non-identity Pauli applied with probability p (d^2 - 1) / d^2
(``depolarizing_sample_prob``), which ``sample_pauli_errors`` draws for many
shots at once; ``noisy_readouts`` flips many bits at once, as tomography
does. ``sample_pauli_error`` and ``noisy_readout`` are their one-shot forms.
Trajectory runs draw the faults of the engine's fault table instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from .states import DensityState, _writable


@dataclass(frozen=True)
class ConfusionMatrix:
    """Readout misassignment probabilities for a single qubit."""

    p01: float = 0.0  # P(read 0 | prepared 1)
    p10: float = 0.0  # P(read 1 | prepared 0)

    def __post_init__(self):
        for name, p in (("p01", self.p01), ("p10", self.p10)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")

    @property
    def epsilon_ro(self) -> float:
        """Two-state readout error, the average of both misassignments."""
        return 0.5 * (self.p01 + self.p10)

    def matrix(self) -> np.ndarray:
        """Column-stochastic matrix M[reported, true]."""
        return np.array([[1.0 - self.p10, self.p01], [self.p10, 1.0 - self.p01]])

    def inverse(self) -> np.ndarray:
        det = 1.0 - self.p01 - self.p10
        if abs(det) < 1e-12:
            raise ValueError("confusion matrix is singular and cannot be inverted")
        return np.linalg.inv(self.matrix())


def idle_error_probability(duration: float, t2_echo: float) -> float:
    """Idle depolarizing probability 1 - exp(-duration / t2_echo), in seconds."""
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    if not t2_echo > 0.0:
        raise ValueError("t2_echo must be positive")
    if math.isinf(t2_echo):
        return 0.0
    return 1.0 - math.exp(-duration / t2_echo)


def idle_law_exponential(t2_echo: float) -> Callable[[float], float]:
    return lambda duration: idle_error_probability(duration, t2_echo)


def idle_law_linear(t2_echo: float) -> Callable[[float], float]:
    """Alternative small-time reading p = duration / t2_echo, capped at 1."""
    if not t2_echo > 0.0:
        raise ValueError("t2_echo must be positive")

    def law(duration: float) -> float:
        if duration < 0.0:
            raise ValueError("duration must be nonnegative")
        return min(duration / t2_echo, 1.0)

    return law


IDLE_LAWS = {"exponential": idle_law_exponential, "linear": idle_law_linear}

#: Median average gate errors from randomized benchmarking.
MEDIAN_EPS_1Q = 0.0005
MEDIAN_EPS_2Q = 0.011


def depol_from_average_error(eps: float, n_qubits: int) -> float:
    """Depolarizing probability matching an average gate error.

    A depolarizing channel of probability p has average gate fidelity
    1 - p (d-1)/d, so benchmarking errors convert as p = eps * d / (d-1).
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"average error {eps} outside [0, 1]")
    d = 2**n_qubits
    return eps * d / (d - 1)


@dataclass
class NoiseModel:
    """Depolarizing gate/idle rates plus per-qubit readout confusion.

    ``two_qubit_depol`` and ``single_qubit_depol`` are depolarizing channel
    probabilities; the defaults convert the median benchmarking errors via
    ``depol_from_average_error``. ``idle_law`` names the law in
    ``IDLE_LAWS`` that maps an idle duration in seconds, at ``t2_echo``, to
    an error probability. The functional form is configurable because only
    the rate and duration are pinned by the device characterization.
    """

    two_qubit_depol: float = depol_from_average_error(MEDIAN_EPS_2Q, 2)
    single_qubit_depol: float = depol_from_average_error(MEDIAN_EPS_1Q, 1)
    confusion: ConfusionMatrix = field(default_factory=lambda: ConfusionMatrix(0.006, 0.006))
    t2_echo: float = 48e-6
    idle_law: str = "exponential"
    confusion_overrides: dict[int, ConfusionMatrix] = field(default_factory=dict)

    def __post_init__(self):
        for name, p in (
            ("two_qubit_depol", self.two_qubit_depol),
            ("single_qubit_depol", self.single_qubit_depol),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        if not self.t2_echo > 0.0:
            raise ValueError("t2_echo must be positive")
        if self.idle_law not in IDLE_LAWS:
            raise ValueError(f"unknown idle law {self.idle_law!r}")

    @classmethod
    def device_medians(cls) -> "NoiseModel":
        """Median device parameters: gate, readout, and coherence figures."""
        return cls()

    def idle_probability(self, duration_s: float) -> float:
        p = IDLE_LAWS[self.idle_law](self.t2_echo)(duration_s)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"idle law returned {p}, outside [0, 1]")
        return p

    def confusion_for(self, qubit: int) -> ConfusionMatrix:
        return self.confusion_overrides.get(qubit, self.confusion)

    @classmethod
    def from_mapping(cls, values: dict) -> "NoiseModel":
        """Build from a flat key/value mapping (e.g. a parsed config file).

        ``eps_1q``/``eps_2q`` give average gate errors (converted to channel
        probabilities); ``single_qubit_depol``/``two_qubit_depol`` set the
        channel probabilities directly.
        """
        known = {
            "eps_1q",
            "eps_2q",
            "two_qubit_depol",
            "single_qubit_depol",
            "readout_p01",
            "readout_p10",
            "t2_echo_s",
            "idle_law",
        }
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown noise parameters: {sorted(unknown)}")
        if "eps_2q" in values and "two_qubit_depol" in values:
            raise ValueError("give eps_2q or two_qubit_depol, not both")
        if "eps_1q" in values and "single_qubit_depol" in values:
            raise ValueError("give eps_1q or single_qubit_depol, not both")
        t2 = float(values.get("t2_echo_s", 48e-6))
        if "two_qubit_depol" in values:
            p2 = float(values["two_qubit_depol"])
        else:
            p2 = depol_from_average_error(float(values.get("eps_2q", MEDIAN_EPS_2Q)), 2)
        if "single_qubit_depol" in values:
            p1 = float(values["single_qubit_depol"])
        else:
            p1 = depol_from_average_error(float(values.get("eps_1q", MEDIAN_EPS_1Q)), 1)
        return cls(
            two_qubit_depol=p2,
            single_qubit_depol=p1,
            confusion=ConfusionMatrix(
                p01=float(values.get("readout_p01", 0.006)),
                p10=float(values.get("readout_p10", 0.006)),
            ),
            t2_echo=t2,
            idle_law=str(values.get("idle_law", "exponential")),
        )


def apply_depolarizing(state: DensityState, qubits, p: float) -> DensityState:
    """Depolarize the target qubits in place: rho -> (1-p) rho + p * (mixed x rest).

    Works on a batch of density matrices too. The diagonal blocks are summed
    in the order ``np.trace`` uses on one state (sequentially, or pairwise
    when the targets are the whole register), so results are bit-stable.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    targets = tuple(int(q) for q in qubits)
    if len(targets) not in (1, 2) or len(set(targets)) != len(targets):
        raise ValueError("depolarizing acts on one or two distinct qubits")
    for q in targets:
        state._check_qubit(q)
    if p == 0.0:
        return state
    state.matrix = _writable(state.matrix)
    t = state._tensor()
    lead, n = len(state.batch), state.n
    blocks = []
    for bits in product((0, 1), repeat=len(targets)):
        index = [slice(None)] * t.ndim
        for q, b in zip(targets, bits):
            index[lead + q] = index[lead + n + q] = slice(b, b + 1)  # a view, never a scalar
        blocks.append(t[tuple(index)])
    if len(blocks) == 4 and n == 2:
        tau = (blocks[0] + blocks[1]) + (blocks[2] + blocks[3])
    else:
        tau = blocks[0] + blocks[1]
        for block in blocks[2:]:
            tau += block
    tau *= p / len(blocks)
    state.matrix *= 1.0 - p
    for block in blocks:
        block += tau
    return state


def sample_pauli_errors(
    shots: int, width: int, p: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Independent errors for many shots: per shot, all-identity with
    probability 1-p, else a uniform non-identity Pauli on ``width`` qubits.

    Returns the X and Z bits as two boolean arrays of shape (shots, width);
    both bits set is Y.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"error probability {p} outside [0, 1]")
    x = np.zeros((shots, width), dtype=bool)
    z = np.zeros((shots, width), dtype=bool)
    if p > 0.0:
        hit = np.flatnonzero(rng.random(shots) < p)
        # 2 bits per qubit, x then z; 0 (the identity) is never drawn.
        pauli = rng.integers(1, 4**width, size=hit.size)
        for j in range(width):
            x[hit, j] = (pauli >> (2 * j)) & 1
            z[hit, j] = (pauli >> (2 * j + 1)) & 1
    return x, z


def sample_pauli_error(qubits, p: float, rng: np.random.Generator) -> tuple[str, ...]:
    """Sample an error: all-identity with probability 1-p, else a uniform
    non-identity Pauli on the targets."""
    targets = tuple(qubits)
    if len(targets) not in (1, 2):
        raise ValueError("pauli errors act on one or two qubits")
    x, z = sample_pauli_errors(1, len(targets), p, rng)
    return tuple("IXZY"[xb + 2 * zb] for xb, zb in zip(x[0], z[0]))


def depolarizing_sample_prob(p: float, n_qubits: int) -> float:
    """Non-identity sampling probability whose trajectory average equals a
    depolarizing channel of probability p on ``n_qubits`` targets."""
    d2 = 4**n_qubits
    return p * (d2 - 1) / d2


def noisy_readouts(
    true_bits: np.ndarray, confusion: ConfusionMatrix, rng: np.random.Generator
) -> np.ndarray:
    """Reported bits: each true bit flips with the confusion probability of
    its value (``p10`` for 0, ``p01`` for 1), independently."""
    true_bits = np.asarray(true_bits, dtype=bool)
    if confusion.p01 == 0.0 and confusion.p10 == 0.0:
        return true_bits.copy()
    flip_p = np.where(true_bits, confusion.p01, confusion.p10)
    return true_bits ^ (rng.random(true_bits.shape) < flip_p)


def noisy_readout(true_outcome: int, confusion: ConfusionMatrix, rng: np.random.Generator) -> int:
    """Classically flip a measured bit according to the confusion matrix."""
    if true_outcome not in (0, 1):
        raise ValueError("outcome must be a bit")
    return int(noisy_readouts(np.array([true_outcome]), confusion, rng)[0])
