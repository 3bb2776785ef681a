"""Success-probability error model: totals, scaling curves, and crossovers.

The total sequence error multiplies independent success probabilities of
every CNOT, measurement, and idle slot: 1 - eps_tot = prod_i (1 - eps_i).
For sizes beyond the characterized circuits the per-instance errors are
replaced by device averages raised to the occurrence counts of each family.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuits import FAMILIES, table_counts
from .noise import IDLE_LAWS


@dataclass(frozen=True)
class ErrorRates:
    """Average device error rates and the timing constants tying them to n.

    ``eps_cnot_avg`` bundles one two-qubit gate error plus two single-qubit
    errors. ``t_cnot`` is the idle normalization time; the default equals
    latency / mu so that the stated latency ratio holds exactly, while the
    decomposed-ladder rung time (176 ns) can be selected instead.
    """

    eps_cnot_avg: float = 0.012
    eps_meas_avg: float = 0.006
    t2_echo: float = 48e-6
    t_cnot: float = 800e-9 / 7.5
    mu: float = 7.5
    idle_law: str = "exponential"

    def __post_init__(self):
        for name, p in (("eps_cnot_avg", self.eps_cnot_avg), ("eps_meas_avg", self.eps_meas_avg)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        if not self.t2_echo > 0.0:
            raise ValueError("t2_echo must be positive")
        if not self.t_cnot > 0.0:
            raise ValueError("t_cnot must be positive")
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")
        if self.idle_law not in IDLE_LAWS:
            raise ValueError(f"unknown idle law {self.idle_law!r}")

    @classmethod
    def device_medians(cls) -> "ErrorRates":
        return cls()

    @property
    def eps_idle_avg(self) -> float:
        """Idle error of one qubit idling for one CNOT time."""
        return IDLE_LAWS[self.idle_law](self.t2_echo)(self.t_cnot)


@dataclass(frozen=True)
class ScalingCurve:
    family: str
    ns: tuple[int, ...]
    errors: tuple[float, ...]

    def __post_init__(self):
        if len(self.ns) != len(self.errors):
            raise ValueError("ns and errors must have equal length")
        for eps in self.errors:
            if not 0.0 <= eps <= 1.0:
                raise ValueError(f"error {eps} outside [0, 1]")
        for a, b in zip(self.errors, self.errors[1:]):
            if b < a - 1e-12:
                raise ValueError("predicted error must be nondecreasing in n")


def total_error_individual(cnot_errs, meas_errs, idle_errs) -> float:
    """Total error from per-instance error lists via the product formula."""
    total = 1.0
    for name, errs in (("cnot", cnot_errs), ("meas", meas_errs), ("idle", idle_errs)):
        for eps in errs:
            if not 0.0 <= eps <= 1.0:
                raise ValueError(f"{name} error {eps} outside [0, 1]")
            total *= 1.0 - eps
    return 1.0 - total


def total_error_average(rates: ErrorRates, family: str, n: int) -> float:
    """Average-rate total error using the closed-form occurrence counts."""
    counts = table_counts(family, n, rates.mu)
    success = (
        (1.0 - rates.eps_cnot_avg) ** counts.n_cnot
        * (1.0 - rates.eps_meas_avg) ** counts.n_meas
        * (1.0 - rates.eps_idle_avg) ** counts.n_idle
    )
    return 1.0 - success


def scaling_curve(rates: ErrorRates, family: str, n_range) -> ScalingCurve:
    ns = tuple(int(n) for n in n_range)
    if not ns:
        raise ValueError("empty n range")
    errors = tuple(total_error_average(rates, family, n) for n in ns)
    return ScalingCurve(family, ns, errors)


def crossover(rates: ErrorRates, family_a: str, family_b: str, n_max: int) -> int | None:
    """Smallest n <= n_max where family_a's predicted error drops strictly
    below family_b's, or None if it never does."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    for fam in (family_a, family_b):
        if fam not in FAMILIES:
            raise ValueError(f"unknown circuit family {fam!r}")
    for n in range(2, n_max + 1):
        if total_error_average(rates, family_a, n) < total_error_average(rates, family_b, n):
            return n
    return None
