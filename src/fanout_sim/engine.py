"""Protocol execution: exact branch enumeration and trajectory sampling.

Exact mode walks the layered circuit on a density matrix (statevector when
noiseless), enumerating every measurement branch (true outcome times
reported outcome under readout confusion), applying the conditional
recovery implied by the reported bits, and averaging the surviving output
states. All live branches are stacked into one batched state, next to
their weights and reported bits, so each gate, noise channel, idle slot and
measurement is one kernel call across every branch; each branch still gets
exactly the bits a walk of its own would give. Trajectory mode unravels the
same model into per-shot pure states with sampled Pauli errors, readout
flips, and either physical recovery (feedforward) or a recorded Pauli frame
(frame update).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit,
    DecoupleOp,
    FrameMarkOp,
    GateOp,
    MeasureOp,
    PrepareInputOp,
    RecoverOp,
    idle_events,
)
from .feedforward import (
    BellOutcome,
    PauliFrame,
    adjust_pauli,
    build_lookup_table,
    frame_update,
)
from .noise import (
    NoiseModel,
    apply_depolarizing,
    depolarizing_sample_prob,
    noisy_readout,
    sample_pauli_error,
)
from .states import (
    CARDINAL_INPUTS,
    PAULI_MATRICES,
    DensityState,
    InputState,
    PureState,
    fidelity,
    gate_matrix,
)

#: Branches below this probability are dropped (and the average renormalized).
BRANCH_PRUNE = 1e-12

#: Exact density-matrix simulation is limited to this many qubits.
DENSITY_QUBIT_CEILING = 12

#: Statevector paths (noiseless exact, trajectories) get a looser cap.
PURE_QUBIT_CEILING = 20

_HALF_PI = math.pi / 2.0


class CeilingError(ValueError):
    """The register is larger than the requested simulation mode supports."""


# Recovery pulses: X is one pulse; Z is decomposed into three x/y rotations
# (equal to Z up to a global phase).
_RECOVERY_X = (gate_matrix("X"),)
_RECOVERY_Z = (
    gate_matrix("RX", -_HALF_PI),
    gate_matrix("RY", math.pi),
    gate_matrix("RX", _HALF_PI),
)


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
    """One trajectory: reported outcome key, frame, and raw output state."""

    outcome_key: str
    frame: PauliFrame
    state: PureState


@dataclass
class RunResult:
    family: str
    n_outputs: int
    duration_ns: float
    output_state: DensityState | None
    histogram: dict[str, float]
    shots: int | None = None
    records: list[ShotRecord] | None = None
    branches: list[tuple[str, float, PureState]] | None = None
    input: InputState | None = None

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


def _idle_by_layer(circuit: Circuit) -> dict[int, list[tuple[int, float]]]:
    by_layer: dict[int, list[tuple[int, float]]] = {}
    for layer_idx, qubit, duration in idle_events(circuit):
        by_layer.setdefault(layer_idx, []).append((qubit, duration))
    return by_layer


def _recovery_pulses(index: int) -> tuple[np.ndarray, ...]:
    """Pulse sequence for a two-bit recovery index (0=I, 1=X, 2=Z, 3=Z*X)."""
    pulses: tuple[np.ndarray, ...] = ()
    if index & 1:
        pulses += _RECOVERY_X
    if index & 2:
        pulses += _RECOVERY_Z
    return pulses


class _Walk:
    """Shared bookkeeping for one circuit execution."""

    def __init__(self, circuit: Circuit, config: RunConfig):
        self.circuit = circuit
        self.config = config
        self.noise = config.noise
        self.alive = list(range(circuit.qubit_count))
        self.idle_by_layer = _idle_by_layer(circuit)
        self.measure_count = circuit.measure_count
        self.slots = range(self.measure_count // 2)
        self.table = build_lookup_table(circuit.n_outputs) if self.measure_count else None

    def pos(self, qubit: int) -> int:
        return self.alive.index(qubit)

    def outcome(self, z_bits: dict[int, int], x_bits: dict[int, int]) -> BellOutcome:
        return BellOutcome(
            z=tuple(z_bits[s] for s in self.slots), x=tuple(x_bits[s] for s in self.slots)
        )

    def recovery_indices(self, outcome: BellOutcome) -> tuple[int, ...]:
        return self.table[outcome.key()]


def _members(state: PureState | DensityState) -> np.ndarray:
    """The stacked array of a batched state, one member per branch."""
    return state.amplitudes if isinstance(state, PureState) else state.matrix


def run_exact(circuit: Circuit, config: RunConfig) -> RunResult:
    """Exact output state by full measurement-branch enumeration.

    Every live branch is one member of a single batched state, next to its
    weight and its reported-bit key (interleaved z1 x1 z2 x2 ...), so each
    operation is one kernel call across all branches.
    """
    noise = config.noise
    ceiling = PURE_QUBIT_CEILING if noise is None else DENSITY_QUBIT_CEILING
    if circuit.qubit_count > ceiling:
        raise CeilingError(
            f"{circuit.qubit_count} qubits exceed the {ceiling}-qubit exact ceiling"
        )
    walk = _Walk(circuit, config)
    n_out = circuit.n_outputs
    pure_mode = noise is None
    single = (PureState if pure_mode else DensityState).zeros(circuit.qubit_count)
    state = type(single)(_members(single)[None], validate=False)  # a batch of one branch
    weights = [1.0]
    keys = ["?" * walk.measure_count]

    for layer_idx, layer in enumerate(circuit.layers):
        for op in layer.ops:
            if isinstance(op, DecoupleOp):
                continue
            if isinstance(op, MeasureOp):
                state, weights, keys = _branch_measurement(walk, state, weights, keys, op)
                walk.alive.remove(op.qubit)
            elif isinstance(op, PrepareInputOp):
                q = walk.pos(op.qubit)
                state.prepare_input(q, config.input)
                if noise is not None:
                    apply_depolarizing(state, (q,), noise.single_qubit_depol)
            elif isinstance(op, GateOp):
                targets = tuple(walk.pos(q) for q in op.targets)
                state.apply_matrix(op.matrix(), targets)
                if noise is not None:
                    p = noise.two_qubit_depol if len(targets) == 2 else noise.single_qubit_depol
                    apply_depolarizing(state, targets, p)
            elif isinstance(op, (RecoverOp, FrameMarkOp)):
                _recover(walk, state, keys, op)
            else:
                raise TypeError(f"unexpected operation {op!r}")
        if noise is not None:
            for qubit, duration in walk.idle_by_layer.get(layer_idx, ()):
                p = noise.idle_probability(duration * 1e-9)
                apply_depolarizing(state, (walk.pos(qubit),), p)

    assert walk.alive == list(circuit.outputs)
    # Sequential sums in branch order: a pairwise np.sum would move the low bits.
    total = sum(weights)
    dim = 2**n_out
    acc = np.zeros((dim, dim), dtype=complex)
    histogram: dict[str, float] = {}
    kept_pure: list[tuple[str, float, PureState]] = []
    for key, weight, member in zip(keys, weights, _members(state)):
        prob = weight / total
        histogram[key] = histogram.get(key, 0.0) + prob
        if pure_mode:
            acc += prob * np.outer(member, member.conj())
            kept_pure.append((key, prob, PureState(member, validate=False)))
        else:
            acc += prob * member
    return RunResult(
        family=circuit.family,
        n_outputs=n_out,
        duration_ns=circuit.duration_ns,
        output_state=DensityState(acc, validate=False),
        histogram=dict(sorted(histogram.items())),
        branches=kept_pure if pure_mode else None,
        input=config.input,
    )


def _branch_measurement(walk: _Walk, state, weights: list, keys: list[str], op: MeasureOp):
    """Split every branch on a Z measurement and its reported bit.

    Children keep the order parent, true outcome, reported bit (true first),
    and a child whose weight falls below ``BRANCH_PRUNE`` is dropped.
    """
    q = walk.pos(op.qubit)
    split = state.branch_z(q)
    if isinstance(state, PureState):
        reduced = [post.remove_collapsed(q, outcome) for outcome, post, _ in split]
    else:
        reduced = [post.discard_qubits((q,)) for _, post, _ in split]
    conf = walk.noise.confusion_for(op.qubit) if walk.noise is not None else None
    flips = (0.0, 0.0) if conf is None else (conf.p10, conf.p01)  # by true outcome
    col = 2 * op.slot + (op.role == "x")
    outcomes, parents, new_weights, new_keys = [], [], [], []
    for parent, (weight, key) in enumerate(zip(weights, keys)):
        for outcome, _, probs in split:
            flip = flips[outcome]
            for reported, w in ((outcome, 1.0 - flip), (1 - outcome, flip)):
                new_weight = weight * probs[parent] * w
                if new_weight < BRANCH_PRUNE:
                    continue
                outcomes.append(outcome)
                parents.append(parent)
                new_weights.append(new_weight)
                new_keys.append(f"{key[:col]}{reported}{key[col + 1:]}")
    children = np.stack([_members(r) for r in reduced])[outcomes, parents]
    return type(state)(children, validate=False), new_weights, new_keys


def _recover(walk: _Walk, state, keys: list[str], op: RecoverOp | FrameMarkOp) -> None:
    """Apply each branch's recovery pulses, one group per recovery index."""
    q = walk.pos(op.qubit)
    noise = walk.noise
    noisy = walk.config.noisy_recovery and noise is not None and isinstance(op, RecoverOp)
    index = np.array([walk.table[key][op.output_index - 1] for key in keys])
    members = _members(state)
    for value in (1, 2, 3):
        rows = np.flatnonzero(index == value)
        if not rows.size:
            continue
        group = type(state)(members[rows], validate=False)
        for pulse in _recovery_pulses(value):
            group.apply_matrix(pulse, (q,))
            if noisy:
                apply_depolarizing(group, (q,), noise.single_qubit_depol)
        members[rows] = _members(group)


def run_trajectory(circuit: Circuit, config: RunConfig) -> RunResult:
    """Monte-Carlo unraveling: per-shot pure states plus Pauli frames."""
    if config.mode != "trajectories":
        raise ValueError("run_trajectory requires trajectory mode")
    if circuit.qubit_count > PURE_QUBIT_CEILING:
        raise CeilingError(
            f"{circuit.qubit_count} qubits exceed the "
            f"{PURE_QUBIT_CEILING}-qubit statevector ceiling"
        )
    noise = config.noise
    seeds = np.random.SeedSequence(config.seed).spawn(config.shots)
    records: list[ShotRecord] = []
    histogram: dict[str, float] = {}
    n_out = circuit.n_outputs
    walk = _Walk(circuit, config)

    for seed in seeds:
        rng = np.random.default_rng(seed)
        walk.alive = list(range(circuit.qubit_count))
        state = PureState.zeros(circuit.qubit_count)
        z_bits: dict[int, int] = {}
        x_bits: dict[int, int] = {}
        frame = PauliFrame.identity(n_out)
        for layer_idx, layer in enumerate(circuit.layers):
            for op in layer.ops:
                if isinstance(op, DecoupleOp):
                    continue
                if isinstance(op, PrepareInputOp):
                    state.prepare_input(walk.pos(op.qubit), config.input)
                    _sample_gate_error(state, walk, (op.qubit,), rng)
                elif isinstance(op, GateOp):
                    state.apply_matrix(
                        op.matrix(), tuple(walk.pos(q) for q in op.targets)
                    )
                    _sample_gate_error(state, walk, op.targets, rng)
                elif isinstance(op, MeasureOp):
                    outcome, _, _ = state.measure_z(walk.pos(op.qubit), rng)
                    state.remove_collapsed(walk.pos(op.qubit), outcome)
                    walk.alive.remove(op.qubit)
                    if noise is not None:
                        outcome = noisy_readout(
                            outcome, noise.confusion_for(op.qubit), rng
                        )
                    (z_bits if op.role == "z" else x_bits)[op.slot] = outcome
                elif isinstance(op, RecoverOp):
                    indices = walk.recovery_indices(walk.outcome(z_bits, x_bits))
                    q = walk.pos(op.qubit)
                    for pulse in _recovery_pulses(indices[op.output_index - 1]):
                        state.apply_matrix(pulse, (q,))
                        if config.noisy_recovery and noise is not None:
                            _sample_error(state, walk, (op.qubit,), noise.single_qubit_depol, rng)
                elif isinstance(op, FrameMarkOp):
                    if op.output_index == 1:
                        frame = frame_update(frame, walk.outcome(z_bits, x_bits))
                else:
                    raise TypeError(f"unexpected operation {op!r}")
            for qubit, duration in walk.idle_by_layer.get(layer_idx, ()):
                if noise is None:
                    continue
                _sample_error(state, walk, (qubit,), noise.idle_probability(duration * 1e-9), rng)
        key = walk.outcome(z_bits, x_bits).key() if walk.measure_count else ""
        histogram[key] = histogram.get(key, 0) + 1
        records.append(ShotRecord(outcome_key=key, frame=frame, state=state))

    return RunResult(
        family=circuit.family,
        n_outputs=n_out,
        duration_ns=circuit.duration_ns,
        output_state=None,
        histogram=dict(sorted(histogram.items())),
        shots=config.shots,
        records=records,
        input=config.input,
    )


def _sample_gate_error(state: PureState, walk: _Walk, qubits, rng) -> None:
    noise = walk.noise
    if noise is None:
        return
    p = noise.two_qubit_depol if len(qubits) == 2 else noise.single_qubit_depol
    _sample_error(state, walk, qubits, p, rng)


def _sample_error(state: PureState, walk: _Walk, qubits, p: float, rng) -> None:
    """Insert a sampled Pauli whose average is a depolarizing channel of p."""
    letters = sample_pauli_error(qubits, depolarizing_sample_prob(p, len(qubits)), rng)
    for q, letter in zip(qubits, letters):
        if letter != "I":
            state.apply_matrix(PAULI_MATRICES[letter], (walk.pos(q),))


def run(circuit: Circuit, config: RunConfig) -> RunResult:
    if config.mode == "exact":
        return run_exact(circuit, config)
    return run_trajectory(circuit, config)


def _framed_state(record: ShotRecord) -> PureState:
    """Shot state with its Pauli frame applied as virtual gates."""
    state = record.state.copy()
    for q, (xf, zf) in enumerate(zip(record.frame.x_flips, record.frame.z_flips)):
        if xf:
            state.apply_matrix(PAULI_MATRICES["X"], (q,))
        if zf:
            state.apply_matrix(PAULI_MATRICES["Z"], (q,))
    return state


def output_fidelity(result: RunResult, inp: InputState) -> float:
    """Uhlmann fidelity of the run output against the ideal fan-out state."""
    target = target_state(inp, result.n_outputs)
    if result.is_exact:
        if result.output_state.n != result.n_outputs:
            raise ValueError("result state does not cover the output register")
        return fidelity(result.output_state, target.to_density())
    total = 0.0
    for record in result.records:
        amp = np.vdot(target.amplitudes, _framed_state(record).amplitudes)
        total += abs(amp) ** 2
    return total / len(result.records)


def joint_x_expectation(result: RunResult) -> float:
    """<X x ... x X> over the output qubits (frame-adjusted for trajectories)."""
    observable = "X" * result.n_outputs
    if result.is_exact:
        return result.output_state.expectation(observable)
    total = 0.0
    for record in result.records:
        sign, _ = adjust_pauli(observable, record.frame)
        total += sign * record.state.expectation(observable)
    return total / len(result.records)


def cardinal_error(
    circuit: Circuit, noise: NoiseModel | None = None, noisy_recovery: bool = False
) -> float:
    """Mean infidelity over the six cardinal input states."""
    fidelities = []
    for _, inp in CARDINAL_INPUTS:
        config = RunConfig(input=inp, noise=noise, noisy_recovery=noisy_recovery)
        result = run_exact(circuit, config)
        fidelities.append(output_fidelity(result, inp))
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
