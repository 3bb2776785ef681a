"""Protocol execution: an exact Pauli law, dense branch enumeration, and
trajectory sampling.

All three execute one walk of the circuit (``_walk``), which resolves every
operation's register positions, noise sites and readout confusion in one
place, and keep reported bits as boolean arrays (one row per branch, shot
or fault) from which ``feedforward.recovery_indices`` picks each recovery.

Every operation of a circuit that ``build_circuit`` makes is Clifford after
the input pulse and all noise is Pauli, after the CHP tableau (Aaronson &
Gottesman, arXiv:quant-ph/0406196) and Stim's frame sampler (Gidney,
arXiv:2103.02202). Its noisy output is therefore a law of Paulis on the
ideal state |t>, sum_E p(E) E|t><t|E, and a Pauli X^x Z^z moves
a|0...0> + b|1...1> to a|x> + s b|~x> with s = (-1)^|z|. The boolean
arrays X and Z of Pauli frames carry faults and shots through the walk,
and each gate, fault, readout flip and recovery (physical for feedforward,
a recorded ``PauliFrame`` for frame update) updates them in one step.

``run_pauli`` is the exact engine for those circuits, and ``run`` sends
them to it, at any n. Fidelity and joint-X read only whether x is 0...0,
1...1 or neither, and s. In the difference bits d_q = x_q ^ x_(q+1) each
fault flips at most two adjacent d bits, so one walk tables every fault
as independent flips and a left-to-right scan over the d bits gives that
law exactly, in time linear in the faults.

``run_exact`` walks a density matrix (statevector when noiseless) through
every measurement branch (true outcome times reported outcome under
readout confusion), applies the conditional recovery of the reported bits
and averages the surviving output states. All live branches are stacked
into one batched state, so each step is one kernel call across every
branch. It runs any circuit up to a qubit ceiling, and it is the oracle the
law is tested against.

``run_trajectory`` samples the same model: each shot is its noiseless
output (a known Pauli on |t>) times a sampled frame. A shot keeps its
output Pauli, never 2^n amplitudes; the metrics read its bits.
"""
from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .circuits import (
    FAMILY_UNITARY,
    Circuit,
    DecoupleOp,
    FrameMarkOp,
    GateOp,
    MeasureOp,
    Operation,
    PrepareInputOp,
    RecoverOp,
    build_constant_depth,
    build_unitary,
    idle_events,
)
from .feedforward import PauliFrame, recovery_indices
from .noise import (
    ConfusionMatrix,
    NoiseModel,
    apply_depolarizing,
    depolarizing_sample_prob,
    noisy_readouts,
    sample_pauli_errors,
    sample_site_errors,
)
from .states import (
    CARDINAL_INPUTS,
    ZERO_PROB,
    DensityState,
    InputState,
    PureState,
    fidelity,
)

#: Branches below this probability are dropped (and the average renormalized).
BRANCH_PRUNE = 1e-12

#: Exact density-matrix simulation is limited to this many qubits.
DENSITY_QUBIT_CEILING = 12

#: Noiseless exact runs (a statevector per branch) get a looser cap on qubits.
PURE_QUBIT_CEILING = 20

_HALF_PI = math.pi / 2.0


class CeilingError(ValueError):
    """The register is larger than the requested simulation mode supports."""


@dataclass
class RunConfig:
    """How to execute a circuit: input state, noise, and sampling mode."""

    input: InputState
    noise: NoiseModel | None = None
    mode: str = "exact"  # "exact" | "trajectories"
    shots: int = 1
    seed: int | None = None
    noisy_recovery: bool = False

    def __post_init__(self):
        if self.mode not in ("exact", "trajectories"):
            raise ValueError(f"unknown run mode {self.mode!r}")
        if self.mode == "trajectories" and self.shots < 1:
            raise ValueError("trajectory mode needs at least one shot")


@dataclass
class ShotRecord:
    """One trajectory: reported outcome key, recorded Pauli frame, and the
    output Pauli before that frame. The shot's state is ``pauli`` applied to
    ``target_state`` of the run's input, up to a global phase."""

    outcome_key: str
    frame: PauliFrame
    pauli: PauliFrame


@dataclass
class RunResult:
    """What a run produced.

    ``pruned_mass`` is the probability an exact run dropped (branches below
    ``BRANCH_PRUNE``, outcomes below ``states.ZERO_PROB``) before it
    renormalized what remained: 0 for a Pauli law, which drops nothing, and
    None for trajectory runs.

    ``pauli_law`` (set by ``run_pauli`` only) has shape (3, 2): entry [i, k]
    is the probability that the output is X^x Z^z on the ideal state with
    |z| of parity k, and x = 0...0 (i = 0), x = 1...1 (i = 1) or any other
    x (i = 2). Such a law result, like a trajectory result, has
    ``output_state`` None (``run_exact`` gives the dense state), and its
    ``histogram`` is a read-only mapping that computes each probability on
    access and yields its keys in sorted order.
    """

    family: str
    n_outputs: int
    duration_ns: float
    output_state: DensityState | None
    histogram: Mapping[str, float]
    shots: int | None = None
    records: list[ShotRecord] | None = None
    branches: list[tuple[str, float, PureState]] | None = None
    input: InputState | None = None
    pruned_mass: float | None = None
    pauli_law: np.ndarray | None = None

    @property
    def is_exact(self) -> bool:
        return self.records is None


def target_state(inp: InputState, n: int) -> PureState:
    """Ideal fan-out output cos(theta/2)|0...0> + e^{i phi} sin(theta/2)|1...1>."""
    a = inp.amplitudes()
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = a[0]
    amps[-1] = a[1]
    return PureState(amps, validate=False)


def _recovery_pulses(index: int, qubit: int) -> tuple[GateOp, ...]:
    """Pulse sequence for a two-bit recovery index (0=I, 1=X, 2=Z, 3=Z*X).

    X is one pulse; Z is three x/y rotations, equal to Z up to a global phase.
    """
    pulses: tuple[GateOp, ...] = ()
    if index & 1:
        pulses += (GateOp("X", (qubit,)),)
    if index & 2:
        pulses += (
            GateOp("RX", (qubit,), -_HALF_PI),
            GateOp("RY", (qubit,), math.pi),
            GateOp("RX", (qubit,), _HALF_PI),
        )
    return pulses


@dataclass(frozen=True)
class _Noise:
    """A depolarizing site: probability ``p`` on ``qubits``."""

    qubits: tuple[int, ...]
    p: float


@dataclass(frozen=True)
class _Idle:
    """The idle slots of one layer: a one-qubit depolarizing site of
    probability ``probs[i]`` on each of ``qubits[i]``."""

    qubits: tuple[int, ...]
    probs: tuple[float, ...]


def _walk(circuit: Circuit, config: RunConfig):
    """The steps that every engine executes, in order, as (op, positions, arg).

    ``op`` is an operation of the circuit (decoupling pulses, simulated as
    identity, are left out), a ``_Noise`` site or an ``_Idle`` step: with
    noise, a site follows every gate and the input pulse, and a layer with
    idle slots ends with one step for all of them. ``positions`` are the
    qubits' axes in the exact engine's register, which drops each qubit when
    it is measured. ``arg`` is a measurement's readout confusion (perfect
    when noiseless) or the depolarizing probability after each recovery
    pulse (None unless ``noisy_recovery``).
    """
    noise = config.noise
    recovery_p = noise.single_qubit_depol if noise is not None and config.noisy_recovery else None
    idle: dict[int, list[tuple[int, float]]] = {}
    idle_p = functools.cache(lambda duration: noise.idle_probability(duration * 1e-9))
    for layer_idx, qubit, duration in idle_events(circuit) if noise is not None else ():
        idle.setdefault(layer_idx, []).append((qubit, idle_p(duration)))
    measured: list[int] = []  # sorted

    def axes(qubits) -> tuple[int, ...]:  # each index less the measured qubits below it
        return tuple(q - bisect.bisect(measured, q) for q in qubits)

    for layer_idx, layer in enumerate(circuit.layers):
        for op in layer.ops:
            if not isinstance(op, Operation):
                raise TypeError(f"unexpected operation {op!r}")
            if isinstance(op, DecoupleOp):
                continue
            qubits = op.targets if isinstance(op, GateOp) else (op.qubit,)
            pos = axes(qubits)
            if isinstance(op, MeasureOp):
                yield op, pos, ConfusionMatrix() if noise is None else noise.confusion_for(op.qubit)
                bisect.insort(measured, op.qubit)
            elif isinstance(op, RecoverOp):
                yield op, pos, recovery_p
            elif isinstance(op, FrameMarkOp):
                yield op, pos, None
            else:  # a gate or the input pulse, then its depolarizing site
                yield op, pos, None
                if noise is not None:
                    p = noise.two_qubit_depol if len(qubits) == 2 else noise.single_qubit_depol
                    yield _Noise(qubits, p), pos, None
        if layer_idx in idle:
            qubits, probs = zip(*idle[layer_idx])
            yield _Idle(qubits, probs), axes(qubits), None


def _members(state: PureState | DensityState) -> np.ndarray:
    """The stacked array of a batched state, one member per branch."""
    return state.amplitudes if isinstance(state, PureState) else state.matrix


def _recovery_groups(reported: np.ndarray, op: RecoverOp | FrameMarkOp):
    """(index, rows) for each recovery index 1..3 that some row of reported
    bits (columns z1 x1 z2 x2 ...) gives ``op``'s output."""
    index = recovery_indices(reported[:, 0::2], reported[:, 1::2])[:, op.output_index - 1]
    for value in (1, 2, 3):
        rows = np.flatnonzero(index == value)
        if rows.size:
            yield value, rows


def _bit_strings(bits: np.ndarray) -> list[str]:
    """Each row of 0/1 entries as a string, in column order. Strings of one
    width sort as the integers they spell, at any width."""
    rows, width = bits.shape
    if not width:
        return [""] * rows
    chars = np.ascontiguousarray(bits, dtype=np.uint8) + np.uint8(ord("0"))
    return [row.decode() for row in chars.view(f"S{width}").ravel().tolist()]


def _shared_frames(x: np.ndarray, z: np.ndarray) -> list[PauliFrame]:
    """A ``PauliFrame`` per row of X and Z bits (0/1); equal rows share one."""
    labels = _bit_strings(np.concatenate([x, z], axis=1))
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    frames = [PauliFrame(x[row].tolist(), z[row].tolist()) for row in first]
    return [frames[i] for i in inverse]


def run_exact(circuit: Circuit, config: RunConfig) -> RunResult:
    """Exact output state by full measurement-branch enumeration.

    Every live branch is one member of a single batched state, next to its
    weight and its row of reported bits, so each step of the walk is one
    kernel call across all branches.
    """
    noise = config.noise
    ceiling = PURE_QUBIT_CEILING if noise is None else DENSITY_QUBIT_CEILING
    if circuit.qubit_count > ceiling:
        raise CeilingError(
            f"{circuit.qubit_count} qubits exceed the {ceiling}-qubit exact ceiling"
        )
    pure_mode = noise is None
    single = (PureState if pure_mode else DensityState).zeros(circuit.qubit_count)
    state = type(single)(_members(single)[None], validate=False)  # a batch of one branch
    weights = [1.0]
    reported = np.zeros((1, circuit.measure_count), dtype=bool)  # columns z1 x1 z2 x2 ...

    for op, pos, arg in _walk(circuit, config):
        if isinstance(op, _Noise):
            apply_depolarizing(state, pos, op.p)
        elif isinstance(op, _Idle):
            for q, p in zip(pos, op.probs):
                apply_depolarizing(state, (q,), p)
        elif isinstance(op, GateOp):
            state.apply_gate(op, pos)
        elif isinstance(op, PrepareInputOp):
            state.prepare_input(pos[0], config.input)
        elif isinstance(op, MeasureOp):
            state, weights, reported = _branch_measurement(state, weights, reported, op, pos[0], arg)
        else:
            _recover(state, _recovery_groups(reported, op), pos[0], arg)

    # Sequential sums in branch order: a pairwise np.sum would move the low bits.
    total = sum(weights)
    dim = 2**circuit.n_outputs
    acc = np.zeros((dim, dim), dtype=complex)
    histogram: dict[str, float] = {}
    kept_pure: list[tuple[str, float, PureState]] = []
    for key, weight, member in zip(_bit_strings(reported), weights, _members(state)):
        prob = weight / total
        histogram[key] = histogram.get(key, 0.0) + prob
        if pure_mode:
            acc += prob * np.outer(member, member.conj())
            kept_pure.append((key, prob, PureState(member, validate=False)))
        else:
            acc += prob * member
    return RunResult(
        family=circuit.family,
        n_outputs=circuit.n_outputs,
        duration_ns=circuit.duration_ns,
        output_state=DensityState(acc, validate=False),
        histogram={key: histogram[key] for key in sorted(histogram)},
        branches=kept_pure if pure_mode else None,
        input=config.input,
        pruned_mass=1.0 - total,
    )


def _branch_measurement(state, weights: list, reported: np.ndarray, op: MeasureOp, q: int,
                        conf: ConfusionMatrix):
    """Split every branch on a Z measurement of axis ``q`` and its reported bit.

    Children keep the order parent, true outcome, reported bit (true first).
    An outcome below ``ZERO_PROB`` is not branched on, and a child whose
    weight falls below ``BRANCH_PRUNE`` is dropped. Each child is its
    parent's block for its outcome (``collapse_z``), made only once it is kept.
    """
    probs = state.probabilities_z(q)
    flips = (conf.p10, conf.p01)  # by true outcome
    outcomes, parents, new_weights, bits = [], [], [], []
    for parent, weight in enumerate(weights):
        for outcome in (0, 1):
            p = probs[parent, outcome]
            if p < ZERO_PROB:
                continue
            flip = flips[outcome]
            for bit, w in ((outcome, 1.0 - flip), (1 - outcome, flip)):
                new_weight = weight * p * w
                if new_weight < BRANCH_PRUNE:
                    continue
                outcomes.append(outcome)
                parents.append(parent)
                new_weights.append(new_weight)
                bits.append(bit)
    reported = reported[parents]
    reported[:, op.column] = bits
    return state.collapse_z(q, parents, outcomes, probs), new_weights, reported


def _recover(state, groups, q: int, p: float | None) -> None:
    """Apply each group's recovery pulses to axis ``q`` of its branches,
    with depolarizing noise of ``p`` after each pulse when it is set."""
    members = _members(state)
    for value, rows in groups:
        group = type(state)(members[rows], validate=False)
        for pulse in _recovery_pulses(value, q):
            group.apply_gate(pulse, (q,))
            if p is not None:
                apply_depolarizing(group, (q,), p)
        members[rows] = _members(group)


def run_pauli(circuit: Circuit, config: RunConfig) -> RunResult:
    """Exact run of a circuit that ``build_circuit`` makes (any other raises
    ValueError), as the law of the Pauli on the ideal output |t>, at any n.

    The noiseless bits are uniform whatever the input, so the true bits are
    too, independent of the faults, and each reported bit r_j is 1 with
    probability (p10 + 1 - p01)/2, independently: the histogram is that
    product. A fault acts through its output Pauli times the recovery of
    the reported bits it flips, and a k-qubit depolarizing site of p is each
    of its 4^k - 1 Paulis applied independently with probability
    (1 - (1 - p)^(1 / (2 4^(k-1)))) / 2. A readout flip has its law given
    r_j, and with ``noisy_recovery`` the site after each recovery pulse
    counts once per pulse that r fires; the pulses of a recovery multiply to
    a Pauli, so they leave every frame's bits as they are, and a
    depolarizing site commutes with them. See ``_scan`` for the law.
    """
    _check_built(circuit)
    return _run_law(circuit, config)


#: _PARITY[u, v]: whether a flip of the 4 scan bits v (bit 0 the difference
#: bit being closed, bit 1 the next one, bit 2 x_1, bit 3 the Z parity)
#: changes the sign of the character u.
_PARITY = np.array([[bin(u & v).count("1") % 2 for v in range(16)] for u in range(16)], dtype=bool)
_HADAMARD = 1.0 - 2.0 * _PARITY


def _run_law(circuit: Circuit, config: RunConfig) -> RunResult:
    """``run_pauli`` of a circuit that ``_check_built`` accepted.

    One walk tables the faults in frame arrays X and Z with one row per
    qubit and one column per fault, and the reported bits each fault flips. An independent fault has the contrast 1 - 2 P(fault);
    a readout flip and a recovery pulse's fault depend on the reported bits,
    so they are kept to the scan step of their pair and output.
    """
    steps = list(_walk(circuit, config))
    total = sum(_fault_count(op, arg) for op, _, arg in steps)  # at most this many columns
    x = np.zeros((circuit.qubit_count, total), dtype=bool)
    z = np.zeros_like(x)
    flips = np.zeros((circuit.measure_count, total), dtype=bool)
    contrast = np.ones(total)
    fixed = np.full(total, -1)  # the scan step of a fault that depends on the reported bits
    pulse = np.zeros(total, dtype=bool)  # the faults of a noisy recovery's pulses
    open_site = np.full(circuit.qubit_count, -1)  # see _add_one_qubit_sites
    outcomes, readouts, start = [], [], 0
    for op, _, arg in steps:
        if isinstance(op, GateOp):
            _conjugate(x.T, z.T, op)
            open_site[list(op.targets)] = -1
        elif isinstance(op, MeasureOp):
            flips[op.column] = x[op.qubit]
            flips[op.column, start] = True
            fixed[start] = op.slot
            outcomes.append((op.column, (arg.p01 + 1.0 - arg.p10) / 2.0,
                             (arg.p10 + 1.0 - arg.p01) / 2.0))
            readouts.append((start, op, arg))
            open_site[op.qubit] = -1
            start += 1
        elif isinstance(op, _Noise):  # after a gate, so it never joins an open site
            width = len(op.qubits)
            _add_faults(x, z, start, op.qubits)
            contrast[start:start + 4**width - 1] = (1.0 - op.p) ** (0.5 / 4 ** (width - 1))
            if width == 1:
                open_site[op.qubits] = start
            start += 4**width - 1
        elif isinstance(op, _Idle):
            start = _add_one_qubit_sites(x, z, contrast, open_site, start, op.qubits, op.probs)
        elif isinstance(op, RecoverOp) and arg is not None:  # the site after each pulse
            _add_faults(x, z, start, (op.qubit,))
            rows = slice(start, start + 3)
            contrast[rows] = math.sqrt(1.0 - arg)
            fixed[rows] = op.output_index - 1
            pulse[rows] = True
            start += 3
    x, z, flips = x[:, :start], z[:, :start], flips[:, :start]
    contrast, fixed, pulse = contrast[:start], fixed[:start], pulse[:start]
    step, code = _fault_codes(circuit, x, z, flips, fixed)
    del x, z, flips
    return RunResult(
        family=circuit.family,
        n_outputs=circuit.n_outputs,
        duration_ns=circuit.duration_ns,
        output_state=None,
        histogram=_OutcomeLaw(outcomes),
        input=config.input,
        pruned_mass=0.0,
        pauli_law=_scan(circuit.n_outputs, step, code, contrast, fixed < 0, pulse, readouts),
    )


def _fault_count(op, arg) -> int:
    """Fault columns of one step of the walk: the non-identity Paulis of a
    depolarizing site or of each idle slot (the site of noisy recovery
    pulses counts once), or the flip of a readout."""
    if isinstance(op, _Noise):
        return 4 ** len(op.qubits) - 1
    if isinstance(op, _Idle):
        return 3 * len(op.qubits)
    if isinstance(op, MeasureOp):
        return 1
    return 3 if isinstance(op, RecoverOp) and arg is not None else 0


#: The X and Z bits, one row per qubit, of the non-identity Paulis of a site
#: on 1 or 2 qubits (2 bits per qubit in the Pauli's index, x then z).
_SITE_PAULIS = {k: [(np.arange(1, 4**k) >> bit) & 1 for bit in range(2 * k)] for k in (1, 2)}


def _add_faults(x: np.ndarray, z: np.ndarray, start: int, qubits) -> None:
    """Set the X and Z bits of every non-identity Pauli of a site on
    ``qubits`` in the fault columns from ``start`` on."""
    bits = _SITE_PAULIS[len(qubits)]
    cols = slice(start, start + len(bits[0]))
    for j, q in enumerate(qubits):
        x[q, cols] = bits[2 * j]
        z[q, cols] = bits[2 * j + 1]


def _add_one_qubit_sites(x, z, contrast, open_site, start: int, qubits, probs) -> int:
    """Add a one-qubit depolarizing site of ``probs[i]`` on each ``qubits[i]``
    and return the next free fault column.

    ``open_site[q]`` is the first of the three columns of the last such site
    on q, while no gate or readout has touched q since (else -1). Its faults
    are then still X, Y and Z on q, so a new site there only multiplies their
    contrasts; a site on any other qubit takes three new columns.
    """
    qubits = np.array(qubits)
    c = np.sqrt(1.0 - np.array(probs))[:, None]
    first = open_site[qubits]
    joined = first >= 0
    contrast[first[joined, None] + np.arange(3)] *= c[joined]
    new = qubits[~joined, None]
    cols = start + np.arange(3 * len(new)).reshape(-1, 3)
    x[new, cols], z[new, cols] = _SITE_PAULIS[1]
    contrast[cols] = c[~joined]
    open_site[new[:, 0]] = cols[:, 0]
    return start + cols.size


def _fault_codes(circuit: Circuit, x: np.ndarray, z: np.ndarray, flips: np.ndarray,
                 fixed: np.ndarray):
    """Each fault's scan step and its 4 scan bits (see ``_PARITY``).

    The output frame of a fault, times the recovery of its reported bits,
    is written as difference bits d_1 ... d_(n-1), x_1 and the Z parity.
    Step t closes d_t (d_0 and d_n are kept 0) with d_(t+1) pending; a fault
    goes to the step of its lowest d bit unless ``fixed`` names one, and
    must flip no d bit but those two.
    """
    n, faults = circuit.n_outputs, x.shape[1]
    outputs = list(circuit.outputs)
    xo = x[outputs]
    parity = np.bitwise_xor.reduce(z[outputs], axis=0)
    d = np.zeros((n + 1, faults), dtype=bool)
    np.not_equal(xo[:-1], xo[1:], out=d[1:n])
    x1 = xo[0]
    # The recovery of each measured column alone, as output X and Z bits.
    width = len(flips)
    none = np.zeros((width, circuit.qubit_count), dtype=bool)
    rx, rz = _output_frames(circuit, none, none, np.eye(width, dtype=bool))
    for column, bits in enumerate(flips):
        d[1 + np.flatnonzero(rx[column, :-1] != rx[column, 1:])] ^= bits
    x1 ^= np.bitwise_xor.reduce(flips[rx[:, 0]], axis=0)
    parity ^= np.bitwise_xor.reduce(flips[np.count_nonzero(rz, axis=1) & 1 == 1], axis=0)
    step = np.where(fixed < 0, np.argmax(d, axis=0), fixed)
    cols = np.arange(faults)
    a, b = d[step, cols], d[step + 1, cols]
    if not np.array_equal(np.count_nonzero(d, axis=0), a.astype(int) + b):
        raise RuntimeError("a fault flips difference bits beyond two adjacent ones")
    return step, a + 2 * b + 4 * x1 + 8 * parity


def _scan(n: int, step: np.ndarray, code: np.ndarray, contrast: np.ndarray,
          independent: np.ndarray, pulse: np.ndarray, readouts) -> np.ndarray:
    """The (3, 2) law of x (0...0, 1...1, other) and the Z parity.

    The scan's state is a probability over the 4 scan bits of the current
    step, whether some closed d bit was 1 (the x = other row), and the
    parity of the reported x bits so far, which picks each output's X
    recovery (``recovery_indices``). Each step works in the Walsh-Hadamard
    basis of the 4 bits, where every flip of contrast c multiplies each
    character it changes by c: its independent faults, its pair's reported
    bits r_x and r_z, weighted P(r) with their readout flip given r, and the
    pulses of its output's noisy recovery (X when the parity is 1, three for
    Z when r_z is 1). Then it closes its d bit.
    """
    group, site = (_step_characters(n, step[chosen], code[chosen], contrast[chosen])
                   for chosen in (independent, pulse))
    keep, move, zsum = np.ones((n, 16)), np.zeros((n, 16)), np.ones((n, 16))
    for row, op, conf in readouts:
        flipped = _PARITY[code[row]]
        by_bit = ((conf.p01 + 1.0 - conf.p10) / 2.0 - np.where(flipped, conf.p01, 0.0),
                  (conf.p10 + 1.0 - conf.p01) / 2.0 - np.where(flipped, conf.p10, 0.0))
        if op.role == "x":
            keep[op.slot], move[op.slot] = by_bit
        else:
            zsum[op.slot] = by_bit[0] + by_bit[1] * site[op.slot] ** 3
    power = np.stack([np.ones_like(site), site], axis=2)  # site^P for P = 0, 1
    keep = (group * zsum * keep)[:, :, None] * power
    move = (group * zsum * move)[:, :, None] * power
    state = np.zeros(64)
    state[0] = 1.0
    for t in range(n):
        spec = (_HADAMARD @ state.reshape(16, 4)).reshape(16, 2, 2)
        spec = keep[t, :, None] * spec + move[t, :, None] * spec[:, :, ::-1]
        state = _CLOSE @ spec.ravel()
    state = state.reshape(16, 2, 2).sum(axis=2)
    return np.array([state[[0, 8], 0], state[[4, 12], 0], state[[0, 8], 1]])


def _closing() -> np.ndarray:
    """The map from a step's spectrum back to probabilities that also closes
    its d bit: mass not yet in the other row whose closing bit is 0 moves
    the next d bit into the closing slot, and the rest joins the other row,
    keeping only its Z parity and r_x parity.

    A scan state has 64 entries, 4 v + 2 g + P: v the 4 scan bits, g whether
    x is in the other row, P the parity of the reported x bits so far; its
    spectrum is indexed alike, with the character u in place of v.
    """
    close = np.zeros((64, 64))
    for v, other, parity in itertools.product(range(16), (0, 1), (0, 1)):
        kept = not other and not v & 1
        w = (v & 12) | (v >> 1 & 1) if kept else v & 8
        close[4 * w + 2 * (not kept) + parity, 2 * other + parity::4] += _HADAMARD[v] / 16.0
    return close


_CLOSE = _closing()


def _step_characters(n: int, step, code, contrast) -> np.ndarray:
    """Per step and character, the product of the contrasts of the faults
    that change it."""
    per_code = np.ones(16 * n)
    np.multiply.at(per_code, 16 * step + code, contrast)
    return np.where(_PARITY, per_code.reshape(n, 1, 16), 1.0).prod(axis=2)


class _OutcomeLaw(Mapping):
    """The reported bits of a law run: a read-only mapping from each key of
    nonzero probability, in sorted order, to its probability, a product of
    one factor per measurement in walk order computed on access."""

    def __init__(self, factors):
        self._factors = factors  # (column, P(0), P(1)) per measurement
        self._digits = [[d for d, p in zip("01", probs) if p > 0.0]
                        for _, *probs in sorted(factors)]

    def __getitem__(self, key):
        if not isinstance(key, str) or len(key) != len(self._factors):
            raise KeyError(key)
        prob = 1.0
        for column, *probs in self._factors:
            digit = "01".find(key[column])
            if digit < 0 or probs[digit] <= 0.0:
                raise KeyError(key)
            prob *= probs[digit]
        return prob

    def __iter__(self):
        return map("".join, itertools.product(*self._digits))

    def __len__(self):
        return math.prod(len(d) for d in self._digits)


def _output_frames(circuit: Circuit, x: np.ndarray, z: np.ndarray, bits: np.ndarray):
    """The output columns of frames ``x`` and ``z``, times the recovery Pauli
    of each row of measured ``bits`` (columns z1 x1 z2 x2 ...)."""
    outputs = list(circuit.outputs)
    x, z = x[:, outputs], z[:, outputs]
    if bits.shape[1]:
        index = recovery_indices(bits[:, 0::2], bits[:, 1::2])
        x ^= (index & 1).astype(bool)
        z ^= (index >> 1).astype(bool)
    return x, z


def run_trajectory(circuit: Circuit, config: RunConfig) -> RunResult:
    """Monte-Carlo unraveling by Pauli-frame sampling of a circuit that
    ``build_circuit`` makes (any other raises ValueError).

    Its noiseless outcome m is uniform whatever the input and leaves R(m)|t>
    on the outputs (R(m) the recovery Pauli of m, |t> the ideal state). So
    each shot draws m uniformly and carries a Pauli frame, and its record
    holds its output frame times R(m), the Pauli that takes |t> to its state.
    The frames of all shots are boolean arrays of shape (shots, qubits) that
    each step of the walk updates at once.
    """
    if config.mode != "trajectories":
        raise ValueError("run_trajectory requires trajectory mode")
    n_out = circuit.n_outputs
    _check_built(circuit)
    shots, width = config.shots, circuit.measure_count
    rng = np.random.default_rng(config.seed)
    ref = rng.integers(0, 2, size=(shots, width), dtype=bool)  # columns z1 x1 z2 x2 ...
    x = np.zeros((shots, circuit.qubit_count), dtype=bool)
    z = np.zeros_like(x)
    reported = np.zeros_like(ref)
    marks = np.zeros((shots, n_out), dtype=int)  # recovery indices a FrameMarkOp records

    for op, _, arg in _walk(circuit, config):
        if isinstance(op, _Noise):
            _add_errors(x, z, op.qubits, op.p, rng)
        elif isinstance(op, _Idle):
            cols = list(op.qubits)
            ex, ez = sample_site_errors(shots, depolarizing_sample_prob(np.array(op.probs), 1), rng)
            x[:, cols] ^= ex
            z[:, cols] ^= ez
        elif isinstance(op, GateOp):
            _conjugate(x, z, op)
        elif isinstance(op, MeasureOp):
            bits = ref[:, op.column] ^ x[:, op.qubit]
            reported[:, op.column] = noisy_readouts(bits, arg, rng)
        elif isinstance(op, RecoverOp):
            _recover_frames(x, z, _recovery_groups(reported, op), op.qubit, arg, rng)
        elif isinstance(op, FrameMarkOp) and op.output_index == 1:
            marks = recovery_indices(reported[:, 0::2], reported[:, 1::2])

    # R(m) acts on |t> at the end of the circuit, so it joins the output
    # frames after the walk; without measurements it is the identity.
    x, z = _output_frames(circuit, x, z, ref)
    keys = _bit_strings(reported)
    counts = Counter(keys)
    frames = _shared_frames(marks & 1, marks >> 1)
    records = [ShotRecord(*shot) for shot in zip(keys, frames, _shared_frames(x, z))]
    return RunResult(
        family=circuit.family,
        n_outputs=n_out,
        duration_ns=circuit.duration_ns,
        output_state=None,
        histogram={key: counts[key] for key in sorted(counts)},
        shots=shots,
        records=records,
        input=config.input,
    )


def _check_built(circuit: Circuit) -> None:
    """Reject a circuit that the frame engines (the law and the sampler)
    cannot run.

    Frames follow only Clifford gates after an input pulse that comes first
    on its qubit, and the uniform outcomes and output states they rest on
    hold for the circuits ``build_circuit`` makes, so any other is refused.
    """
    n = circuit.n_outputs
    if n >= 2 and circuit == _built(circuit.family, n, circuit.timing):
        return
    _check_frame_ops(circuit)
    raise ValueError(
        "trajectory mode samples only circuits equal to "
        "build_circuit(family, n_outputs, timing); use exact mode"
    )


@functools.lru_cache(maxsize=64)
def _built(family: str, n: int, timing) -> Circuit:
    """``build_circuit(family, n, timing)``, checked by ``_check_frame_ops``
    once and kept for later runs. It calls the family's builder directly, so
    the ``build_circuit`` calls that a traced benchmark pass counts do not
    depend on what the cache holds."""
    if family == FAMILY_UNITARY:
        circuit = build_unitary(n, timing)
    else:
        circuit = build_constant_depth(n, timing, family)
    _check_frame_ops(circuit)
    return circuit


def _check_frame_ops(circuit: Circuit) -> None:
    """Raise unless every gate is Clifford and each input pulse comes first
    on its qubit."""
    touched: set[int] = set()
    for op in circuit.operations():
        if not isinstance(op, Operation):
            raise TypeError(f"unexpected operation {op!r}")
        if isinstance(op, PrepareInputOp) and op.qubit in touched:
            raise ValueError(f"trajectory mode needs {op} to be the first operation on its qubit")
        if isinstance(op, GateOp) and op.angle is not None:
            _quarter_turns(op)
        touched.update(op.targets if isinstance(op, GateOp) else (op.qubit,))


def _quarter_turns(gate: GateOp) -> int:
    """Quarter turns of a rotation, which must be a Clifford gate."""
    turns = round(gate.angle / _HALF_PI)
    if abs(gate.angle - turns * _HALF_PI) > 1e-12:
        raise ValueError(f"trajectory mode needs multiples of pi/2; {gate} is not Clifford")
    return turns


def _conjugate(x: np.ndarray, z: np.ndarray, gate: GateOp) -> None:
    """Carry every shot's frame through a Clifford gate, in place.

    ``x`` and ``z`` hold the frames' X and Z bits, one row per shot and one
    column per qubit. X, Z and half turns map each Pauli to itself up to a
    sign, so they leave the bits alone.
    """
    if gate.kind == "CZ":
        a, b = gate.targets
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]
    elif gate.kind == "CNOT":
        c, t = gate.targets
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    elif gate.kind == "H" or (gate.angle is not None and _quarter_turns(gate) % 2):
        (a,) = gate.targets
        if gate.kind == "RX":
            x[:, a] ^= z[:, a]
        elif gate.kind == "RZ":
            z[:, a] ^= x[:, a]
        else:  # H and RY swap X and Z
            x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()


def _add_errors(x: np.ndarray, z: np.ndarray, qubits, p: float, rng) -> None:
    """XOR into every frame a sampled Pauli whose average is a depolarizing
    channel of p on the qubits."""
    cols = list(qubits)
    ex, ez = sample_pauli_errors(len(x), len(cols), depolarizing_sample_prob(p, len(cols)), rng)
    x[:, cols] ^= ex
    z[:, cols] ^= ez


def _recover_frames(x, z, groups, qubit: int, p: float | None, rng) -> None:
    """Apply each group's recovery pulses to its shots' frames.

    The pulses multiply to the recovery Pauli, so each group's frames are
    carried through them (with a sampled error after each pulse when ``p``
    is set) and the recovery Pauli is XORed in.
    """
    for value, rows in groups:
        gx, gz = x[rows], z[rows]
        for pulse in _recovery_pulses(value, qubit):
            _conjugate(gx, gz, pulse)
            if p is not None:
                _add_errors(gx, gz, (qubit,), p, rng)
        gx[:, qubit] ^= bool(value & 1)
        gz[:, qubit] ^= bool(value & 2)
        x[rows], z[rows] = gx, gz


def run(circuit: Circuit, config: RunConfig) -> RunResult:
    """Run in the config's mode. Exact runs of circuits that ``build_circuit``
    makes are Pauli laws (``run_pauli``); any other circuit walks the dense
    ``run_exact``."""
    if config.mode == "trajectories":
        return run_trajectory(circuit, config)
    return _run_law(circuit, config) if _is_built(circuit) else run_exact(circuit, config)


def run_inputs(circuit: Circuit, configs: list[RunConfig]) -> list[RunResult]:
    """``run`` of each config, where the configs differ only in ``input``.

    A Pauli law does not depend on the input (only the result's ``input``
    field does), so exact runs of a circuit that ``build_circuit`` makes
    share one law; otherwise each config goes to ``run``.
    """
    if any(dataclasses.replace(c, input=configs[0].input) != configs[0] for c in configs[1:]):
        raise ValueError("run_inputs needs configs that differ only in input")
    if not configs or configs[0].mode != "exact" or not _is_built(circuit):
        return [run(circuit, c) for c in configs]
    law = _run_law(circuit, configs[0])
    return [dataclasses.replace(law, input=c.input) for c in configs]


def _is_built(circuit: Circuit) -> bool:
    """Whether ``_check_built`` accepts the circuit."""
    try:
        _check_built(circuit)
    except ValueError:
        return False
    return True


def _output_paulis(result: RunResult):
    """The Paulis P = X^x Z^z that a law or trajectory result puts on its
    input's a|0...0> + b|1...1>, giving a|x> + s b|~x> up to a phase with
    s = (-1)^|z|. Returns per Pauli whether x is all 0, whether it is all 1,
    and s; their probabilities (None: equally likely shots); and (a, b)."""
    if result.input is None:
        raise ValueError("a Pauli-law or trajectory result needs its input to evaluate it")
    if result.pauli_law is not None:
        row = np.repeat([0, 1, 2], 2)  # x = 0...0, 1...1, other
        sign = np.tile([1.0, -1.0], 3)
        return row == 0, row == 1, sign, result.pauli_law.ravel(), result.input.amplitudes()
    records = result.records
    x = np.array([r.pauli.x_flips for r in records], dtype=bool)
    x ^= np.array([r.frame.x_flips for r in records], dtype=bool)
    z_count = np.array([sum(r.pauli.z_flips) + sum(r.frame.z_flips) for r in records])
    sign = np.where(z_count & 1, -1.0, 1.0)
    return ~x.any(axis=1), x.all(axis=1), sign, None, result.input.amplitudes()


def _average(values: np.ndarray, probs: np.ndarray | None) -> float:
    """Mean of per-Pauli values under their probabilities (None: equal)."""
    return float(np.mean(values) if probs is None else probs @ values)


def output_fidelity(result: RunResult, inp: InputState) -> float:
    """Uhlmann fidelity of the run output against the ideal fan-out state."""
    if result.is_exact and result.pauli_law is None:
        if result.output_state.n != result.n_outputs:
            raise ValueError("result state does not cover the output register")
        return fidelity(result.output_state, target_state(inp, result.n_outputs).to_density())
    # Overlap of a|x> + s b|~x> with a'|0...0> + b'|1...1>.
    zeros, ones, sign, probs, (a, b) = _output_paulis(result)
    ca, cb = np.conj(inp.amplitudes())
    overlaps = np.where(zeros, ca * a + cb * sign * b, np.where(ones, ca * sign * b + cb * a, 0.0))
    return _average(overlaps.real**2 + overlaps.imag**2, probs)


def joint_x_expectation(result: RunResult) -> float:
    """<X x ... x X> over the output qubits (frame-adjusted for trajectories)."""
    if result.is_exact and result.pauli_law is None:
        return result.output_state.expectation("X" * result.n_outputs)
    # X on every qubit swaps |x> and |~x>: <X...X> = s 2 Re(conj(a) b).
    _, _, sign, probs, (a, b) = _output_paulis(result)
    return _average(sign * 2.0 * (np.conj(a) * b).real, probs)


def cardinal_error(
    circuit: Circuit, noise: NoiseModel | None = None, noisy_recovery: bool = False
) -> float:
    """Mean infidelity over the six cardinal input states."""
    configs = [RunConfig(input=inp, noise=noise, noisy_recovery=noisy_recovery)
               for _, inp in CARDINAL_INPUTS]
    fidelities = [output_fidelity(result, result.input)
                  for result in run_inputs(circuit, configs)]
    return 1.0 - sum(fidelities) / len(fidelities)


def serialize_run_result(result: RunResult, inp: InputState | None = None) -> str:
    """Structured text document: fidelity, joint-X, duration, histogram."""
    inp = inp or result.input
    lines = [
        f"family = {result.family}",
        f"n_outputs = {result.n_outputs}",
        f"duration_ns = {result.duration_ns:g}",
        f"fidelity = {output_fidelity(result, inp):.10f}",
        f"joint_x = {joint_x_expectation(result):.10f}",
    ]
    if result.shots is not None:
        lines.append(f"shots = {result.shots}")
    lines.append("histogram:")
    for key, value in result.histogram.items():
        label = key if key else "-"
        if result.shots is None:
            lines.append(f"{label} {value:.10f}")
        else:
            lines.append(f"{label} {int(value)}")
    return "\n".join(lines) + "\n"
