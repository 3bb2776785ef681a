"""Protocol execution: an exact Pauli law, dense branch enumeration, and
trajectory sampling.

The law and the sampler share one fault table (``_fault_table``) in two
parts. The faults' structure, with every table of the law's scan that
depends only on the circuit, comes from one walk of the circuit (``_walk``)
and is cached by circuit, noise on or off and noisy recovery
(``_structure``), as Stim analyses a circuit once and samples it many
times; each run then reads its noise values into the faults' contrasts and
readout confusions, so a noise model edited between runs takes effect.
``run_exact`` runs the walk alone, on its dense state, with the same noise
values. The walk lists every operation's qubits and noise sites in one
place, and every engine keeps reported bits as boolean arrays (one row per
branch, shot or fault) from which ``feedforward.recovery_indices`` picks
each recovery.

Every operation of a circuit that ``build_circuit`` makes is Clifford after
the input pulse and all noise is Pauli, after the CHP tableau (Aaronson &
Gottesman, arXiv:quant-ph/0406196) and Stim's frame sampler (Gidney,
arXiv:2103.02202). Its noisy output is therefore a law of Paulis on the
ideal state |t>, sum_E p(E) E|t><t|E, and a Pauli X^x Z^z moves
a|0...0> + b|1...1> to a|x> + s b|~x> with s = (-1)^|z|. The X and Z bits
of Pauli frames carry every fault through the walk at once, one column
per fault, and each gate updates them in one step.

``run`` takes only circuits that ``build_circuit`` makes, in either mode;
any other raises ValueError. In exact mode it gives their law, at any n.
Fidelity and joint-X read only whether x is 0...0, 1...1 or neither, and
s. In the difference bits d_q = x_q ^ x_(q+1) each fault flips at most two
adjacent d bits, so one walk tables every fault as independent flips and a
left-to-right scan over the d bits gives that law exactly, in time linear
in the faults.

``run_exact`` walks a density matrix (statevector when noiseless) through
every measurement branch (true outcome times reported outcome under
readout confusion), applies the conditional recovery of the reported bits
and averages the surviving output states. All live branches are stacked
into one batched state, so each step is one kernel call across every
branch. It runs any circuit up to a qubit ceiling, and it is the oracle the
law is tested against.

``run_trajectory`` samples the same table: a shot's output is a Pauli on
|t>, never 2^n amplitudes, and the metrics read its bits.
"""
from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
import weakref
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .circuits import (
    FAMILY_FEEDFORWARD,
    FAMILY_PAULI_FRAME,
    FAMILY_UNITARY,
    Circuit,
    DecoupleOp,
    FrameMarkOp,
    GateOp,
    MeasureOp,
    Operation,
    PrepareInputOp,
    RecoverOp,
    _idle_events,
    build_constant_depth,
    build_unitary,
)
from .feedforward import PauliFrame, recovery_indices
from .noise import ConfusionMatrix, NoiseModel, apply_depolarizing
from .states import (
    CARDINAL_INPUTS,
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
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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

    ``pauli_law`` (set by exact ``run`` only) has shape (3, 2): entry [i, k]
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
    """The depolarizing site after a gate or the input pulse, on ``qubits``."""

    qubits: tuple[int, ...]


@dataclass(frozen=True)
class _Idle:
    """The idle slots of one layer: a one-qubit depolarizing site on each of
    ``qubits``, ``qubits[i]`` idle for ``durations[i]`` ns."""

    qubits: tuple[int, ...]
    durations: tuple[float, ...]


def _walk(circuit: Circuit, noisy: bool):
    """The steps that every engine executes, in order, as (op, qubits).

    ``op`` is an operation of the circuit (decoupling pulses, simulated as
    identity, are left out), a ``_Noise`` site or an ``_Idle`` step: when
    ``noisy``, a site follows every gate and the input pulse, and a layer
    with idle slots ends with one step for all of them. ``qubits`` are the
    ones it acts on. The walk reads no noise values; each engine resolves
    them from its ``NoiseModel``.
    """
    idle: dict[int, list[tuple[int, float]]] = {}
    for layer_idx, qubit, duration in _idle_events(circuit) if noisy else ():
        idle.setdefault(layer_idx, []).append((qubit, duration))
    for layer_idx, layer in enumerate(circuit.layers):
        for op in layer.ops:
            if not isinstance(op, Operation):
                raise TypeError(f"unexpected operation {op!r}")
            if isinstance(op, DecoupleOp):
                continue
            qubits = op.targets if isinstance(op, GateOp) else (op.qubit,)
            yield op, qubits
            if noisy and isinstance(op, (GateOp, PrepareInputOp)):
                yield _Noise(qubits), qubits
        if layer_idx in idle:
            qubits, durations = zip(*idle[layer_idx])
            yield _Idle(qubits, durations), qubits


def _confusion(noise: NoiseModel | None, qubit: int) -> ConfusionMatrix:
    """The readout confusion of ``qubit`` (perfect when noiseless)."""
    return ConfusionMatrix() if noise is None else noise.confusion_for(qubit)


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
    x, z = x.astype(np.int8), z.astype(np.int8)  # whose tolist gives ints, not bools
    frames = {label: PauliFrame(x[row].tolist(), z[row].tolist())  # from one row per label
              for label, row in dict(zip(labels, range(len(labels)))).items()}
    return [frames[label] for label in labels]


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
    measured: list[int] = []  # sorted: the register drops each qubit when it is measured
    recovery_p = noise.single_qubit_depol if noise is not None and config.noisy_recovery else None
    idle_p = functools.cache(lambda duration: noise.idle_probability(duration * 1e-9))

    for op, qubits in _walk(circuit, noise is not None):
        pos = tuple(q - bisect.bisect(measured, q) for q in qubits)  # the qubits' axes
        if isinstance(op, _Noise):
            p = noise.two_qubit_depol if len(qubits) == 2 else noise.single_qubit_depol
            apply_depolarizing(state, pos, p)
        elif isinstance(op, _Idle):
            for q, duration in zip(pos, op.durations):
                apply_depolarizing(state, (q,), idle_p(duration))
        elif isinstance(op, GateOp):
            state.apply_gate(op, pos)
        elif isinstance(op, PrepareInputOp):
            state.prepare_input(pos[0], config.input)
        elif isinstance(op, MeasureOp):
            state, weights, reported = _branch_measurement(state, weights, reported, op, pos[0],
                                                           _confusion(noise, op.qubit))
            bisect.insort(measured, op.qubit)
        else:
            _recover(state, _recovery_groups(reported, op), pos[0],
                     recovery_p if isinstance(op, RecoverOp) else None)

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

    Children keep the order parent, true outcome, reported bit (true first),
    and a child whose weight falls below ``BRANCH_PRUNE`` is dropped (an
    outcome below ``states.ZERO_PROB`` has weight 0).
    """
    split = state.branch_z(q)
    if isinstance(state, PureState):
        reduced = [post.remove_collapsed(q, outcome) for outcome, post, _ in split]
    else:
        reduced = [post.discard_qubits((q,)) for _, post, _ in split]
    flips = (conf.p10, conf.p01)  # by true outcome
    outcomes, parents, new_weights, bits = [], [], [], []
    for parent, weight in enumerate(weights):
        for outcome, _, probs in split:
            flip = flips[outcome]
            for bit, w in ((outcome, 1.0 - flip), (1 - outcome, flip)):
                new_weight = weight * probs[parent] * w
                if new_weight < BRANCH_PRUNE:
                    continue
                outcomes.append(outcome)
                parents.append(parent)
                new_weights.append(new_weight)
                bits.append(bit)
    children = np.stack([_members(r) for r in reduced])[outcomes, parents]
    reported = reported[parents]
    reported[:, op.column] = bits
    return type(state)(children, validate=False), new_weights, reported


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


#: _PARITY[u, v]: whether a flip of the 4 scan bits v (bit 0 the difference
#: bit being closed, bit 1 the next one, bit 2 x_1, bit 3 the Z parity)
#: changes the sign of the character u.
_PARITY = np.array([[bin(u & v).count("1") % 2 for v in range(16)] for u in range(16)], dtype=bool)
_HADAMARD = 1.0 - 2.0 * _PARITY


def _run_law(circuit: Circuit, config: RunConfig) -> RunResult:
    """Exact run of a circuit that ``_check_built`` accepted, as the law of
    the Pauli on the ideal output |t>, at any n.

    The noiseless bits are uniform whatever the input, so the true bits are
    too, independent of the faults, and each reported bit r_j is 1 with
    probability (p10 + 1 - p01)/2, independently: the histogram is that
    product. A fault acts through its output Pauli times the recovery of
    the reported bits it flips. Of the faults of ``_fault_table``, an
    independent one has the contrast 1 - 2 P(fault); a readout flip, which
    has its law given r_j, and a recovery pulse's fault, which counts once
    per pulse that r fires, depend on the reported bits, so they are kept
    to the scan step of their pair and output. See ``_scan`` for the law:
    it reads the faults' cached scan tables and this run's contrasts.
    """
    faults, contrast, p01, p10 = _fault_table(circuit, config)
    p0, p1 = (p01 + 1.0 - p10) / 2.0, (p10 + 1.0 - p01) / 2.0
    outcomes = list(zip(faults.readout_column.tolist(), p0.tolist(), p1.tolist()))
    return RunResult(circuit.family, circuit.n_outputs, circuit.duration_ns, None,
                     _OutcomeLaw(outcomes), input=config.input, pruned_mass=0.0,
                     pauli_law=_scan(circuit.n_outputs, faults, contrast, p0, p1, p01, p10))


#: The most fault structures ``_structure`` keeps, least recently used out.
_STRUCTURES = 8

#: The ``kind`` of a fault whose contrast a one-qubit gate's site, a
#: two-qubit gate's site or a recovery pulse's site sets (0: a readout
#: flip's or an idle site's).
_GATE_1Q, _GATE_2Q, _PULSE = 1, 2, 3


def _fault_table(circuit: Circuit, config: RunConfig):
    """Every fault of a run of a built circuit as an independent Pauli
    flip, one column each: the circuit's cached ``_structure`` and the
    values that the run's noise gives them.

    A k-qubit depolarizing site of p is each of its 4^k - 1 Paulis applied
    independently with probability (1 - (1 - p)^(1 / (2 4^(k-1)))) / 2,
    that is with contrast (1 - p)^(1 / (2 4^(k-1))); idle slots that join
    an open site multiply its contrasts in walk order, and the site after
    noisy recovery pulses is tabled once (the pulses multiply to a Pauli,
    which leaves the frames' bits and commutes with the site).

    Returns (faults, contrast, p01, p10): the ``_structure``, each fault's
    contrast 1 - 2 P and each readout's confusion, in walk order. Only the
    structure is cached, so a noise model edited between runs takes effect.
    """
    noise = config.noise
    faults = _structure(circuit.family, circuit.n_outputs, circuit.timing, noise is not None,
                        noise is not None and config.noisy_recovery)
    qubit = faults.readout_qubit
    if noise is None:
        p01 = p10 = np.zeros(len(qubit))
        return faults, np.ones(len(faults.fixed)), p01, p10
    p01 = np.full(len(qubit), noise.confusion.p01, dtype=float)
    p10 = np.full(len(qubit), noise.confusion.p10, dtype=float)
    for q, conf in noise.confusion_overrides.items():
        p01[qubit == q], p10[qubit == q] = conf.p01, conf.p10
    values = np.array([1.0, (1.0 - noise.single_qubit_depol) ** 0.5,
                       (1.0 - noise.two_qubit_depol) ** (0.5 / 4),
                       math.sqrt(1.0 - noise.single_qubit_depol)])
    contrast = values[faults.kind]
    idle_c = np.sqrt(1.0 - np.array([noise.idle_probability(d * 1e-9) for d in faults.durations]))
    first, duration = faults.idle_sites
    contrast[first[:, None] + np.arange(3)] = idle_c[duration, None]
    first, duration = faults.idle_joins  # a joined site's three columns are equal
    np.multiply.at(contrast, first, idle_c[duration])
    contrast[faults.joined[:, None] + np.arange(1, 3)] = contrast[faults.joined, None]
    return faults, contrast, p01, p10


@functools.lru_cache(maxsize=_STRUCTURES)
def _structure(family: str, n: int, timing, noisy: bool, noisy_recovery: bool) -> SimpleNamespace:
    """The faults of ``_built(family, n, timing)``, with noise on or off and
    noisy recovery pulses or not, apart from their noise values: one walk
    carries every fault to the end of the circuit. Every array is read-only.

    ``x``, ``z`` and ``flips`` hold each fault's X and Z bits on the
    outputs and the measured columns it flips, a row each, packed 8 faults
    to a byte (see ``_add_faults``). ``fixed`` is the scan step of a fault
    that depends on the reported bits (a readout flip's pair, a noisy
    recovery pulse's output; else -1), ``step`` and ``code`` its scan step
    and scan bits (``_fault_codes``), and ``kind`` what sets its contrast.
    ``independent`` and ``pulses`` list the faults with no fixed step and
    those that follow a recovery pulse, and ``independent_cells`` and
    ``pulse_cells`` their ``16 step + code``. Each idle slot is a column
    (its site's first fault, the index of its duration in ``durations``) of
    ``idle_sites`` if it opened the site and of ``idle_joins`` if it joined
    an open one, in walk order; ``joined`` lists the first faults of the
    sites that some slot joined. Per measurement, in walk order,
    ``readout_qubit``, ``readout_column``, ``readout_slot`` and
    ``readout_x`` hold its qubit, reported column, recovery slot and
    whether its role is x, and ``readout_flipped`` the ``_PARITY`` row of
    its readout flip's scan code.

    It reads no noise value and calls no function that a traced benchmark
    pass counts (``idle_events``, ``measure_count``), so a run on a cached
    entry does the same counted work as one that builds it.
    """
    circuit = _built(family, n, timing)
    steps = list(_walk(circuit, noisy))
    # At most this many columns: a site's Paulis, a readout flip, and for each
    # qubit at its start and after each gate or readout, one idle site's.
    total = 3 * circuit.qubit_count + sum(
        4 ** len(qubits) - 1 + 3 * len(qubits) if isinstance(op, _Noise)
        else 4 if isinstance(op, MeasureOp) else 3 * (noisy_recovery and isinstance(op, RecoverOp))
        for op, qubits in steps)
    frames = np.zeros((2, circuit.qubit_count, -(-total // 8)), dtype=np.uint8)
    x, z = frames  # the X and Z bits
    flips = np.zeros((len(circuit.measurements()), x.shape[1]), dtype=np.uint8)
    fixed = np.full(total, -1)  # the scan step of a fault that depends on the reported bits
    kind = np.zeros(total, dtype=np.uint8)
    open_site = np.full(circuit.qubit_count, -1)  # see _add_one_qubit_sites
    readouts, durations, start = [], {}, 0
    idle_first, idle_joined, idle_duration = [], [], []  # per idle slot, in walk order
    for op, qubits in steps:
        if isinstance(op, GateOp):
            _conjugate(x.T, z.T, op)
            open_site[list(qubits)] = -1
        elif isinstance(op, MeasureOp):
            flips[op.column] = x[op.qubit]
            flips[op.column, start >> 3] |= 128 >> (start & 7)
            fixed[start] = op.slot
            readouts.append((start, op))
            open_site[op.qubit] = -1
            start += 1
        elif isinstance(op, _Noise):  # after a gate, so it never joins an open site
            width = len(qubits)
            _add_faults(frames, start, qubits)
            kind[start:start + 4**width - 1] = _GATE_1Q if width == 1 else _GATE_2Q
            if width == 1:
                open_site[qubits] = start
            start += 4**width - 1
        elif isinstance(op, _Idle):
            first, joined, start = _add_one_qubit_sites(frames, open_site, start, qubits)
            idle_first.append(first)
            idle_joined.append(joined)
            idle_duration += [durations.setdefault(d, len(durations)) for d in op.durations]
        elif isinstance(op, RecoverOp) and noisy_recovery:  # the site after each pulse
            _add_faults(frames, start, qubits)
            kind[start:start + 3] = _PULSE
            fixed[start:start + 3] = op.output_index - 1
            start += 3
    outputs, used = list(circuit.outputs), -(-start // 8)
    x, z, flips = x[outputs, :used], z[outputs, :used], flips[:, :used].copy()
    fixed, kind = fixed[:start].copy(), kind[:start].copy()
    step, code = _fault_codes(circuit, x, z, flips, fixed)
    # Per idle slot, in walk order: its site's first column and its duration's index.
    slots = np.array([np.concatenate([np.zeros(0, dtype=int)] + idle_first), idle_duration],
                     dtype=np.int32).reshape(2, -1)
    joined = np.concatenate([np.zeros(0, dtype=bool)] + idle_joined)
    heads = np.zeros(start, dtype=bool)
    heads[slots[0, joined]] = True
    independent, pulses = np.flatnonzero(fixed < 0), np.flatnonzero(kind == _PULSE)
    flip, qubit, column, slot, role_x = np.array(
        [(start, op.qubit, op.column, op.slot, op.role == "x") for start, op in readouts],
        dtype=int).reshape(-1, 5).T.copy()
    faults = SimpleNamespace(x=x, z=z, flips=flips, fixed=fixed, step=step, code=code, kind=kind,
                             independent=independent, pulses=pulses,
                             independent_cells=16 * step[independent] + code[independent],
                             pulse_cells=16 * step[pulses] + code[pulses],
                             idle_sites=slots[:, ~joined], idle_joins=slots[:, joined],
                             joined=np.flatnonzero(heads), durations=tuple(durations),
                             readout_qubit=qubit, readout_column=column, readout_slot=slot,
                             readout_x=role_x.astype(bool), readout_flipped=_PARITY[code[flip]])
    for value in vars(faults).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return faults


#: The X bits (plane 0) and Z bits (plane 1), one row per qubit, of the non-identity
#: Paulis of a site on 1 or 2 qubits (2 bits per qubit in the Pauli's index, x then z).
_SITE_PAULIS = {k: (np.arange(1, 4**k) >> np.arange(2 * k).reshape(k, 2).T[:, :, None]) & 1
                for k in (1, 2)}


def _add_faults(frames: np.ndarray, start: int, qubits) -> None:
    """Set the X and Z bits of every non-identity Pauli of a site on
    ``qubits`` in the fault columns from ``start`` on, in ``frames``: the X
    and Z planes, faults packed 8 to a byte as ``np.packbits`` packs them."""
    first = start >> 3
    for q, bits in zip(qubits, _site_bytes(len(qubits), start & 7)):
        frames[:, q, first:first + bits.shape[1]] |= bits


@functools.cache
def _site_bytes(k: int, offset: int) -> tuple[np.ndarray, ...]:
    """Per qubit, the planes of ``_SITE_PAULIS[k]`` packed from bit ``offset`` of a byte on."""
    packed = np.packbits(np.pad(_SITE_PAULIS[k], ((0, 0), (0, 0), (offset, 0))), axis=2)
    return tuple(packed.transpose(1, 0, 2))


def _add_one_qubit_sites(frames, open_site, start: int, qubits):
    """Add a one-qubit depolarizing site on each of ``qubits``. Returns the
    first of each site's three fault columns, whether it joined an open
    site, and the next free fault column.

    ``open_site[q]`` is the first of the three columns of the last such site
    on q, while no gate or readout has touched q since (else -1). Its faults
    are then still X, Y and Z on q, so a new site there only multiplies their
    contrasts; a site on any other qubit takes three new columns.
    """
    qubits = np.array(qubits)
    first = open_site[qubits]
    joined = first >= 0
    new = qubits[~joined]
    first[~joined] = start + 3 * np.arange(len(new))
    for q, col in zip(new.tolist(), first[~joined].tolist()):
        _add_faults(frames, col, (q,))
    open_site[new] = first[~joined]
    return first, joined, start + 3 * len(new)


def _fault_codes(circuit: Circuit, x: np.ndarray, z: np.ndarray, flips: np.ndarray,
                 fixed: np.ndarray):
    """Each fault's scan step and its 4 scan bits (see ``_PARITY``), from
    the packed output rows ``x`` and ``z`` and flipped columns ``flips`` of
    its ``_structure``.

    The output frame of a fault, times the recovery of its reported bits,
    is written as difference bits d_1 ... d_(n-1), x_1 and the Z parity.
    Step t closes d_t (d_0 and d_n are kept 0) with d_(t+1) pending; a fault
    goes to the step of its lowest d bit unless ``fixed`` names one, and
    must flip no d bit but those two. The bits are combined packed, and
    only the d bits, x_1 and the parity are unpacked.
    """
    n, faults = circuit.n_outputs, len(fixed)
    d = np.zeros((n + 1, x.shape[1]), dtype=np.uint8)
    np.bitwise_xor(x[:-1], x[1:], out=d[1:n])
    # The recovery of each measured column alone, as output X and Z bits.
    rx, rz = _recovery(np.eye(len(flips), dtype=bool), n)
    for column, bits in enumerate(flips):
        d[1 + np.flatnonzero(rx[column, :-1] != rx[column, 1:])] ^= bits
    x1 = x[0] ^ np.bitwise_xor.reduce(flips[rx[:, 0]], axis=0)
    odd = np.count_nonzero(rz, axis=1) & 1 == 1  # columns whose recovery flips the Z parity
    parity = np.bitwise_xor.reduce(np.concatenate([z, flips[odd]]), axis=0)
    d, (x1, parity) = _unpack(d, faults), _unpack(np.stack([x1, parity]), faults)
    step = np.where(fixed < 0, np.argmax(d, axis=0), fixed)
    cols = np.arange(faults)
    a, b = d[step, cols], d[step + 1, cols]
    if not np.array_equal(np.count_nonzero(d, axis=0), a.astype(int) + b):
        raise RuntimeError("a fault flips difference bits beyond two adjacent ones")
    return step, a + 2 * b + 4 * x1 + 8 * parity


def _scan(n: int, faults, contrast: np.ndarray, p0: np.ndarray, p1: np.ndarray,
          p01: np.ndarray, p10: np.ndarray) -> np.ndarray:
    """The (3, 2) law of x (0...0, 1...1, other) and the Z parity, from the
    ``_structure`` of the faults, their contrasts, and each readout's P(0),
    P(1) and confusion.

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
    group = _step_characters(n, faults.independent_cells, contrast[faults.independent])
    site = (_step_characters(n, faults.pulse_cells, contrast[faults.pulses]) if faults.pulses.size
            else np.ones((n, 16)))
    flipped, x = faults.readout_flipped, faults.readout_x
    by_0 = p0[:, None] - np.where(flipped, p01[:, None], 0.0)  # per readout and character
    by_1 = p1[:, None] - np.where(flipped, p10[:, None], 0.0)
    keep, move, zsum = np.ones((n, 16)), np.zeros((n, 16)), np.ones((n, 16))
    slot = faults.readout_slot[x]
    keep[slot], move[slot] = by_0[x], by_1[x]
    slot = faults.readout_slot[~x]
    zsum[slot] = by_0[~x] + by_1[~x] * site[slot] ** 3
    power = np.stack([np.ones_like(site), site], axis=2)  # site^P for P = 0, 1
    # Per step, indexed (u, g, P) as a step's spectrum is, equal for both g.
    keep = ((group * zsum * keep)[:, :, None] * power).reshape(n, 16, 1, 2)
    move = ((group * zsum * move)[:, :, None] * power).reshape(n, 16, 1, 2)
    # One set of buffers for every step, with fixed views of them.
    state, spec, moved = np.zeros(64), np.empty((16, 2, 2)), np.empty((16, 2, 2))
    state[0] = 1.0
    state_4, spec_4, spec_64, swapped = (state.reshape(16, 4), spec.reshape(16, 4),
                                         spec.reshape(64), spec[:, :, ::-1])
    for keep_t, move_t in zip(keep, move):
        np.dot(_HADAMARD, state_4, out=spec_4)
        np.multiply(move_t, swapped, out=moved)
        np.multiply(keep_t, spec, out=spec)
        np.add(spec, moved, out=spec)
        np.dot(_CLOSE, spec_64, out=state)
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


def _step_characters(n: int, cells, contrast) -> np.ndarray:
    """Per step and character, the product of the contrasts of the faults
    whose ``16 step + code`` are ``cells`` that change it."""
    per_code = np.ones(16 * n)
    np.multiply.at(per_code, cells, contrast)
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


def _recovery(bits: np.ndarray, n: int):
    """The X and Z bits, one column per output, of the recovery Pauli of each
    row of reported ``bits`` (columns z1 x1 z2 x2 ...; none: the identity)."""
    if not bits.shape[1]:
        return np.zeros((2, len(bits), n), dtype=bool)
    index = recovery_indices(bits[:, 0::2], bits[:, 1::2])
    return (index & 1).astype(bool), (index >> 1).astype(bool)


def run_trajectory(circuit: Circuit, config: RunConfig) -> RunResult:
    """Monte-Carlo unraveling by Pauli-frame sampling of a circuit that
    ``build_circuit`` makes (any other raises ValueError): shots drawn from
    its ``_fault_table``, the one that its law is computed from, whose
    structure a later run of the circuit reuses."""
    if config.mode != "trajectories":
        raise ValueError("run_trajectory requires trajectory mode")
    _check_built(circuit)
    return _sample(circuit, config, _fault_table(circuit, config))


def _sample(circuit: Circuit, config: RunConfig, table) -> RunResult:
    """Draw ``config.shots`` shots of a run from its fault table.

    The noiseless outcome m is uniform whatever the input and leaves R(m)|t>
    on the outputs (R the recovery Pauli, |t> the ideal state). A shot draws
    m, and the faults that fire XOR in their output Paulis and flipped bits;
    each readout flips given its true bit, and each noisy recovery pulse
    fires its fault once per pulse of the reported bits' recovery, which
    joins the frame (feedforward) or is the recorded ``PauliFrame`` (frame
    update). The record holds the frame times R(m). All trials are drawn at
    once: each independent fault, each readout at the larger of its flip
    probabilities (a success flips with the true bit's share), and 4 slots
    per pulse fault, of which a shot keeps as many as its recovery has.
    """
    structure, contrast, p01, p10 = table
    x, z, flips, fixed = structure.x, structure.z, structure.flips, structure.fixed
    faults, pulses, column = structure.independent, structure.pulses, structure.readout_column
    n, shots = circuit.n_outputs, config.shots
    rng = np.random.default_rng(config.seed)
    ref = rng.integers(0, 2, size=(shots, len(flips)), dtype=bool)  # columns z1 x1 z2 x2 ...
    p_max = np.maximum(p10, p01)
    trials = np.concatenate([(1.0 - contrast[faults]) / 2.0, p_max,
                             np.tile((1.0 - contrast[pulses]) / 2.0, 4)])
    shot, cell = _bernoulli_hits(rng, shots, trials)

    # The output X bits, output Z bits and flipped bits, packed, of the fault
    # of each cell that succeeds: row ``at[cell]`` of ``rows`` (a readout's is unused).
    succeeded = np.bincount(cell, minlength=trials.size) > 0
    at = np.cumsum(succeeded) - 1
    fired = np.concatenate([faults, np.zeros_like(column), np.tile(pulses, 4)])[succeeded]
    mask = (128 >> (fired & 7)).astype(np.uint8)
    rows = np.concatenate([np.packbits(bits[:, fired >> 3] & mask != 0, axis=0)
                           for bits in (x, z, flips)]).T
    ends = np.cumsum([0] + [-(-len(bits) // 8) for bits in (x, z, flips)])
    frame = np.zeros((shots, ends[-1]), dtype=np.uint8)
    hit = cell < faults.size
    _xor_rows(frame, shot[hit], rows[at[cell[hit]]])

    reported = ref ^ _unpack(frame[:, ends[2]:], len(flips))  # the true bits
    hit = (cell >= faults.size) & (cell < faults.size + column.size)
    read, r = shot[hit], cell[hit] - faults.size
    flip = rng.random(read.size) * p_max[r] < np.where(reported[read, column[r]], p01[r], p10[r])
    reported[read[flip], column[r[flip]]] ^= True

    rx, rz = _recovery(reported, n)
    hit = cell >= faults.size + column.size
    if pulses.size:
        slot, index = np.divmod(cell[hit] - faults.size - column.size, pulses.size)
        hit[hit] = slot < (rx + 3 * rz)[shot[hit], fixed[pulses[index]]]  # X is 1 pulse, Z 3
        _xor_rows(frame, shot[hit], rows[at[cell[hit]]])
    x, z = _unpack(frame[:, :ends[1]], n), _unpack(frame[:, ends[1]:ends[2]], n)
    del shot, cell, succeeded, at, fired, rows, frame, hit  # before the records, the peak
    if circuit.family == FAMILY_FEEDFORWARD:
        x, z = x ^ rx, z ^ rz
    if circuit.family != FAMILY_PAULI_FRAME:  # only a frame update records R(reported)
        rx[:] = rz[:] = False
    mx, mz = _recovery(ref, n)  # R(m); the identity without measurements
    keys = _bit_strings(reported)
    counts = Counter(keys)
    records = [ShotRecord(*shot) for shot in zip(keys, _shared_frames(rx, rz),
                                                   _shared_frames(x ^ mx, z ^ mz))]
    return RunResult(circuit.family, n, circuit.duration_ns, None,
                     {key: counts[key] for key in sorted(counts)},
                     shots=shots, records=records, input=config.input)


def _bernoulli_hits(rng, shots: int, probs: np.ndarray):
    """The successes of ``shots`` independent trials of each cell i, each of
    probability ``probs[i]``, as (shot, cell) arrays sorted by shot, then
    cell, in time and memory that go with the successes: a cell's count is
    binomial and its shots a uniform set of that many, drawn uniformly with
    the shots it drew twice drawn again."""
    cells = len(probs)
    want = rng.binomial(shots, probs)
    key = np.zeros(0, dtype=np.int64)  # shot * cells + cell
    missing = want
    while missing.any():
        cell = np.repeat(np.arange(cells), missing)
        key = np.sort(np.concatenate([key, rng.integers(0, shots, size=cell.size) * cells + cell]))
        key = key[np.diff(key, prepend=-1) != 0]
        missing = want - np.bincount(key % cells, minlength=cells)
    return np.divmod(key, cells)


def _xor_rows(out: np.ndarray, shot: np.ndarray, rows: np.ndarray) -> None:
    """XOR each of ``rows`` into the row of ``out`` that ``shot`` (sorted) names."""
    if shot.size:
        first = np.flatnonzero(np.diff(shot, prepend=-1))
        out[shot[first]] ^= np.bitwise_xor.reduceat(rows, first, axis=0)


def _unpack(packed: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` bits of each row of ``packed``, as booleans."""
    return np.unpackbits(packed, axis=1, count=width).view(bool)


def _check_built(circuit: Circuit) -> None:
    """Reject a circuit that the frame engines (the law and the sampler)
    cannot run.

    Frames follow only Clifford gates after an input pulse that comes first
    on its qubit, and the uniform outcomes and output states they rest on
    hold for the circuits ``build_circuit`` makes, so any other is refused.
    A ``Circuit`` is frozen, so one that passed is remembered by identity,
    as long as it lives, and is not compared again.
    """
    if _accepted.get(id(circuit)) is circuit:
        return
    n = circuit.n_outputs
    if n >= 2 and circuit == _built(circuit.family, n, circuit.timing):
        _accepted[id(circuit)] = circuit
        return
    _check_frame_ops(circuit)
    raise ValueError(
        "run takes only circuits equal to build_circuit(family, n_outputs, timing); "
        "use run_exact for any other"
    )


#: The circuits that ``_check_built`` accepted, by id, while they live.
_accepted: weakref.WeakValueDictionary[int, Circuit] = weakref.WeakValueDictionary()


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
            raise ValueError(f"run needs {op} to be the first operation on its qubit; "
                             "use run_exact for any other circuit")
        if isinstance(op, GateOp) and op.angle is not None:
            _quarter_turns(op)
        touched.update(op.targets if isinstance(op, GateOp) else (op.qubit,))


def _quarter_turns(gate: GateOp) -> int:
    """Quarter turns of a rotation, which must be a Clifford gate."""
    turns = round(gate.angle / _HALF_PI)
    if abs(gate.angle - turns * _HALF_PI) > 1e-12:
        raise ValueError(f"run needs rotations by multiples of pi/2; {gate} is not Clifford, "
                         "use run_exact for it")
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


def run(circuit: Circuit, config: RunConfig) -> RunResult:
    """Run a circuit that ``build_circuit`` makes in the config's mode: a
    Pauli law in exact mode, sampled frames in trajectory mode. Any other
    circuit raises ValueError; ``run_exact`` runs it."""
    if config.mode == "trajectories":
        return run_trajectory(circuit, config)
    _check_built(circuit)
    return _run_law(circuit, config)


def run_inputs(circuit: Circuit, configs: list[RunConfig]) -> list[RunResult]:
    """``run`` of each config, where the configs differ only in ``input``.

    Neither a Pauli law nor a fault table depends on the input (only the
    result's ``input`` field does), so exact runs share one law, and
    trajectory runs share one fault table that each samples with its seed.
    The table's structure is cached across calls (``_structure``); only its
    noise values are read once per call.
    """
    if any(dataclasses.replace(c, input=configs[0].input) != configs[0] for c in configs[1:]):
        raise ValueError("run_inputs needs configs that differ only in input")
    if not configs:
        return []
    _check_built(circuit)
    if configs[0].mode == "trajectories":
        table = _fault_table(circuit, configs[0])
        return [_sample(circuit, c, table) for c in configs]
    law = _run_law(circuit, configs[0])
    return [dataclasses.replace(law, input=c.input) for c in configs]


#: Per entry of a raveled ``pauli_law``: whether x is 0...0, whether it is
#: 1...1, and s.
_LAW_ZEROS, _LAW_ONES = np.repeat([0, 1, 2], 2) == 0, np.repeat([0, 1, 2], 2) == 1
_LAW_SIGN = np.tile([1.0, -1.0], 3)


def _output_paulis(result: RunResult):
    """The Paulis P = X^x Z^z that a law or trajectory result puts on its
    input's a|0...0> + b|1...1>, giving a|x> + s b|~x> up to a phase with
    s = (-1)^|z|. Returns per Pauli whether x is all 0, whether it is all 1,
    and s; their probabilities (None: equally likely shots); and (a, b)."""
    if result.input is None:
        raise ValueError("a Pauli-law or trajectory result needs its input to evaluate it")
    if result.pauli_law is not None:
        return _LAW_ZEROS, _LAW_ONES, _LAW_SIGN, result.pauli_law.ravel(), result.input.amplitudes()
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
