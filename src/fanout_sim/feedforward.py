"""Classical control: recovery rules, lookup tables, and Pauli-frame tracking.

A fan-out run with n outputs measures n-1 qubit pairs, yielding bits
(z_1, x_1, ..., z_{n-1}, x_{n-1}). The recovery on output q is X raised to
the parity of x_1..x_q followed by Z raised to z_q; the last output needs
no Z. Two-bit recovery indices are encoded 0=I, 1=X, 2=Z, 3=Z*X.
``recovery_indices`` is the one implementation of that rule; it acts on
arrays of reported bits, one row per shot.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RECOVERY_LABELS = ("I", "X", "Z", "ZX")


@dataclass(frozen=True)
class BellOutcome:
    """Measurement record of the n-1 pair measurements."""

    z: tuple[int, ...]
    x: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(int(b) for b in self.z))
        object.__setattr__(self, "x", tuple(int(b) for b in self.x))
        if len(self.z) != len(self.x):
            raise ValueError("z and x bit vectors must have equal length")
        for b in self.z + self.x:
            if b not in (0, 1):
                raise ValueError("outcome entries must be bits")

    @property
    def pairs(self) -> int:
        return len(self.z)

    def key(self) -> str:
        """Interleaved bit key z1 x1 z2 x2 ..."""
        return "".join(f"{z}{x}" for z, x in zip(self.z, self.x))


@dataclass(frozen=True)
class RecoveryOp:
    """Conditional correction on one output qubit: X^apply_x then Z^apply_z."""

    apply_x: int
    apply_z: int

    def __post_init__(self):
        if self.apply_x not in (0, 1) or self.apply_z not in (0, 1):
            raise ValueError("recovery flags must be bits")

    @property
    def index(self) -> int:
        return 2 * self.apply_z + self.apply_x

    @property
    def label(self) -> str:
        return RECOVERY_LABELS[self.index]


@dataclass(frozen=True)
class PauliFrame:
    """X/Z flags, one pair per output qubit, of a Pauli: accumulated virtual
    corrections, or a trajectory shot's output Pauli on the ideal state."""

    x_flips: tuple[int, ...]
    z_flips: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "x_flips", tuple(map(int, self.x_flips)))
        object.__setattr__(self, "z_flips", tuple(map(int, self.z_flips)))
        if len(self.x_flips) != len(self.z_flips):
            raise ValueError("frame flag vectors must have equal length")

    @classmethod
    def identity(cls, n: int) -> "PauliFrame":
        return cls((0,) * n, (0,) * n)

    @property
    def size(self) -> int:
        return len(self.x_flips)


def recovery_indices(z, x) -> np.ndarray:
    """Recovery indices of the n outputs for each row of pair bits.

    ``z`` and ``x`` hold the n-1 z and x bits in their last axis (one row
    per shot, or a single row); the result holds the n two-bit indices in
    its last axis, as uint8: a row of bits per shot takes a byte per bit.
    """
    z = np.asarray(z, dtype=np.uint8)
    x = np.asarray(x, dtype=np.uint8)
    parity = np.bitwise_xor.accumulate(x, axis=-1)
    apply_x = np.concatenate([parity, parity[..., -1:]], axis=-1)
    apply_z = np.concatenate([z, np.zeros_like(z[..., :1])], axis=-1)
    return 2 * apply_z + apply_x


def recovery_ops(outcome: BellOutcome, n: int) -> list[RecoveryOp]:
    """Recovery for each of the n outputs given a pair-measurement record."""
    if outcome.pairs != n - 1:
        raise ValueError(f"outcome holds {outcome.pairs} pairs, expected {n - 1}")
    indices = recovery_indices(outcome.z, outcome.x).tolist()
    return [RecoveryOp(apply_x=i & 1, apply_z=i >> 1) for i in indices]


def build_lookup_table(n: int) -> dict[str, tuple[int, ...]]:
    """All 2^(2(n-1)) outcome keys mapped to n two-bit recovery indices."""
    if n < 2:
        raise ValueError("need at least two outputs")
    width = 2 * (n - 1)
    codes = np.arange(2**width)
    bits = (codes[:, None] >> np.arange(width - 1, -1, -1)) & 1  # key order z1 x1 z2 x2 ...
    indices = recovery_indices(bits[:, 0::2], bits[:, 1::2]).tolist()
    return {format(code, f"0{width}b"): tuple(row) for code, row in zip(codes.tolist(), indices)}


def frame_update(frame: PauliFrame, outcome: BellOutcome) -> PauliFrame:
    """XOR the recovery implied by an outcome into the frame."""
    n = frame.size
    ops = recovery_ops(outcome, n)
    return PauliFrame(
        x_flips=tuple(f ^ op.apply_x for f, op in zip(frame.x_flips, ops)),
        z_flips=tuple(f ^ op.apply_z for f, op in zip(frame.z_flips, ops)),
    )


def adjust_pauli(observable: str, frame: PauliFrame) -> tuple[int, str]:
    """Sign picked up by an observable measured under a Pauli frame.

    The observable itself is unchanged; the sign flips once for every
    anticommuting pair (frame X against measured Z or Y, frame Z against
    measured X or Y).
    """
    if len(observable) != frame.size:
        raise ValueError("observable length must match the frame size")
    sign = 1
    for letter, xf, zf in zip(observable, frame.x_flips, frame.z_flips):
        if letter not in "IXYZ":
            raise ValueError(f"invalid pauli letter {letter!r}")
        if xf and letter in "ZY":
            sign = -sign
        if zf and letter in "XY":
            sign = -sign
    return sign, observable


def serialize_lookup_table(table: dict[str, tuple[int, ...]]) -> str:
    """Plain-text table: one ``key -> indices`` line per outcome."""
    lines = [f"{key} -> {' '.join(str(i) for i in table[key])}" for key in sorted(table)]
    return "\n".join(lines) + "\n"
