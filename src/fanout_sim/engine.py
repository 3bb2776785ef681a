"""Protocol execution: exact branch enumeration and trajectory sampling.

Both modes execute one walk of the circuit (``_walk``), which resolves every
operation's register positions, noise sites and readout confusion in one
place, and both keep the reported bits as a boolean array (one row per
branch or shot) from which ``feedforward.recovery_indices`` picks each
recovery.

Exact mode walks a density matrix (statevector when noiseless), enumerating
every measurement branch (true outcome times reported outcome under readout
confusion), applying the conditional recovery implied by the reported bits,
and averaging the surviving output states. All live branches are stacked
into one batched state, next to their weights and reported bits, so each
step is one kernel call across every branch; each branch still gets
exactly the bits a walk of its own would give.

Trajectory mode samples the same model by Pauli frames, after the CHP
tableau (Aaronson & Gottesman, arXiv:quant-ph/0406196) and Stim's frame
sampler (Gidney, arXiv:2103.02202). Every operation after the input pulse
is Clifford and all noise is Pauli, so a shot is one noiseless reference
statevector times a Pauli frame. A run computes the reference once and
carries the frames of all shots as boolean arrays, which each gate, sampled
error, readout flip and recovery (physical for feedforward, a recorded
``PauliFrame`` for frame update) updates in one vectorized step.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit,
    DecoupleOp,
    FrameMarkOp,
    GateOp,
    MeasureOp,
    Operation,
    PrepareInputOp,
    RecoverOp,
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
)
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

#: Statevector paths (noiseless exact, trajectories) get a looser cap.
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
    output state before that frame (the physical one up to a global phase)."""

    outcome_key: str
    frame: PauliFrame
    state: PureState


@dataclass
class RunResult:
    """What a run produced.

    ``pruned_mass`` is the probability an exact run dropped (branches below
    ``BRANCH_PRUNE``, outcomes below ``states.ZERO_PROB``) before it
    renormalized what remained; trajectory runs leave it None.
    """

    family: str
    n_outputs: int
    duration_ns: float
    output_state: DensityState | None
    histogram: dict[str, float]
    shots: int | None = None
    records: list[ShotRecord] | None = None
    branches: list[tuple[str, float, PureState]] | None = None
    input: InputState | None = None
    pruned_mass: float | None = None

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


def _walk(circuit: Circuit, config: RunConfig):
    """The steps that both engines execute, in order, as (op, positions, arg).

    ``op`` is an operation of the circuit (decoupling pulses, simulated as
    identity, are left out) or a ``_Noise`` site: with noise, one follows
    every gate and the input pulse, and each layer ends with one per idle
    slot. ``positions`` are the qubits' axes in the exact engine's register,
    which drops each qubit when it is measured. ``arg`` is a measurement's
    readout confusion (perfect when noiseless) or the depolarizing
    probability after each recovery pulse (None unless ``noisy_recovery``).
    """
    noise = config.noise
    recovery_p = noise.single_qubit_depol if noise is not None and config.noisy_recovery else None
    idle: dict[int, list[_Noise]] = {}
    for layer_idx, qubit, duration in idle_events(circuit) if noise is not None else ():
        site = _Noise((qubit,), noise.idle_probability(duration * 1e-9))
        idle.setdefault(layer_idx, []).append(site)
    position = {q: q for q in range(circuit.qubit_count)}
    for layer_idx, layer in enumerate(circuit.layers):
        for op in layer.ops:
            if not isinstance(op, Operation):
                raise TypeError(f"unexpected operation {op!r}")
            if isinstance(op, DecoupleOp):
                continue
            qubits = op.targets if isinstance(op, GateOp) else (op.qubit,)
            pos = tuple(position[q] for q in qubits)
            if isinstance(op, MeasureOp):
                yield op, pos, ConfusionMatrix() if noise is None else noise.confusion_for(op.qubit)
                del position[op.qubit]
                position = {q: i for i, q in enumerate(position)}
            elif isinstance(op, RecoverOp):
                yield op, pos, recovery_p
            elif isinstance(op, FrameMarkOp):
                yield op, pos, None
            else:  # a gate or the input pulse, then its depolarizing site
                yield op, pos, None
                if noise is not None:
                    p = noise.two_qubit_depol if len(qubits) == 2 else noise.single_qubit_depol
                    yield _Noise(qubits, p), pos, None
        for site in idle.get(layer_idx, ()):
            yield site, (position[site.qubits[0]],), None


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


def _masks(bits: np.ndarray) -> np.ndarray:
    """Integer codes of boolean bit rows, the first column most significant."""
    return bits @ (1 << np.arange(bits.shape[1] - 1, -1, -1))


def _keys(codes, width: int) -> dict[int, str]:
    """Histogram key of each reported-bit code: its ``width`` bits, in order."""
    return {code: format(code, f"0{width}b") if width else "" for code in codes}


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
    width = circuit.measure_count
    reported = np.zeros((1, width), dtype=bool)  # columns z1 x1 z2 x2 ...

    for op, pos, arg in _walk(circuit, config):
        if isinstance(op, _Noise):
            apply_depolarizing(state, pos, op.p)
        elif isinstance(op, GateOp):
            state.apply_matrix(op.matrix(), pos)
        elif isinstance(op, PrepareInputOp):
            state.prepare_input(pos[0], config.input)
        elif isinstance(op, MeasureOp):
            state, weights, reported = _branch_measurement(state, weights, reported, op, pos[0], arg)
        else:
            _recover(state, _recovery_groups(reported, op), pos[0], arg)

    # Sequential sums in branch order: a pairwise np.sum would move the low bits.
    total = sum(weights)
    codes = _masks(reported).tolist()
    keys = _keys(codes, width)
    dim = 2**circuit.n_outputs
    acc = np.zeros((dim, dim), dtype=complex)
    histogram: dict[int, float] = {}
    kept_pure: list[tuple[str, float, PureState]] = []
    for code, weight, member in zip(codes, weights, _members(state)):
        prob = weight / total
        histogram[code] = histogram.get(code, 0.0) + prob
        if pure_mode:
            acc += prob * np.outer(member, member.conj())
            kept_pure.append((keys[code], prob, PureState(member, validate=False)))
        else:
            acc += prob * member
    return RunResult(
        family=circuit.family,
        n_outputs=circuit.n_outputs,
        duration_ns=circuit.duration_ns,
        output_state=DensityState(acc, validate=False),
        histogram={keys[code]: histogram[code] for code in sorted(histogram)},
        branches=kept_pure if pure_mode else None,
        input=config.input,
        pruned_mass=1.0 - total,
    )


def _branch_measurement(state, weights: list, reported: np.ndarray, op: MeasureOp, q: int,
                        conf: ConfusionMatrix):
    """Split every branch on a Z measurement of axis ``q`` and its reported bit.

    Children keep the order parent, true outcome, reported bit (true first),
    and a child whose weight falls below ``BRANCH_PRUNE`` is dropped.
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
            group.apply_matrix(pulse.matrix(), (q,))
            if p is not None:
                apply_depolarizing(group, (q,), p)
        members[rows] = _members(group)


def run_trajectory(circuit: Circuit, config: RunConfig) -> RunResult:
    """Monte-Carlo unraveling by Pauli-frame sampling.

    One noiseless reference statevector of the whole register (measurements
    deferred, which is valid because no operation follows a measurement on
    its qubit) gives every shot's reference outcome and output slice. Each
    shot then carries a Pauli frame; the frames of all shots are boolean
    arrays of shape (shots, qubits) that each gate, noise site, readout and
    recovery of the walk updates in one vectorized step.
    """
    if config.mode != "trajectories":
        raise ValueError("run_trajectory requires trajectory mode")
    if circuit.qubit_count > PURE_QUBIT_CEILING:
        raise CeilingError(
            f"{circuit.qubit_count} qubits exceed the "
            f"{PURE_QUBIT_CEILING}-qubit statevector ceiling"
        )
    shots, count = config.shots, circuit.qubit_count
    rng = np.random.default_rng(config.seed)
    measured = [op.qubit for op in circuit.measurements()]
    outputs = list(circuit.outputs)
    # A view of the reference with the measured qubits' axes first; the
    # reductions below make no full-size temporaries.
    tensor = _reference(circuit, config.input).amplitudes.reshape((2,) * count)
    tensor = np.transpose(tensor, measured + outputs)
    axes, kept = list(range(count)), list(range(len(measured)))
    probs = np.einsum(tensor.real, axes, tensor.real, axes, kept)
    probs = (probs + np.einsum(tensor.imag, axes, tensor.imag, axes, kept)).reshape(-1)
    cdf = np.cumsum(probs)  # inverse-CDF draw of each shot's reference outcome
    ref = np.searchsorted(cdf, rng.random(shots) * cdf[-1], side="right")
    ref = np.minimum(ref, probs.size - 1)
    ref_bits = (ref[:, None] >> np.arange(len(measured) - 1, -1, -1)) & 1  # measured order
    column = {qubit: j for j, qubit in enumerate(measured)}
    x = np.zeros((shots, count), dtype=bool)
    z = np.zeros((shots, count), dtype=bool)
    reported = np.zeros((shots, len(measured)), dtype=bool)  # columns z1 x1 z2 x2 ...
    marks = None  # recovery indices recorded by a FrameMarkOp

    for op, _, arg in _walk(circuit, config):
        if isinstance(op, _Noise):
            _add_errors(x, z, op.qubits, op.p, rng)
        elif isinstance(op, GateOp):
            _conjugate(x, z, op)
        elif isinstance(op, MeasureOp):
            bits = ref_bits[:, column[op.qubit]] ^ x[:, op.qubit]
            reported[:, op.column] = noisy_readouts(bits, arg, rng)
        elif isinstance(op, RecoverOp):
            _recover_frames(x, z, _recovery_groups(reported, op), op.qubit, arg, rng)
        elif isinstance(op, FrameMarkOp) and op.output_index == 1:
            marks = recovery_indices(reported[:, 0::2], reported[:, 1::2])

    n_out = circuit.n_outputs
    # Each shot's output slice; the leading zero index also serves a circuit
    # without measurements.
    slices = tensor[None][(np.zeros(shots, dtype=np.intp), *ref_bits.T)].reshape(shots, -1)
    slices /= np.sqrt(probs[ref])[:, None]
    states = _apply_paulis(slices, _masks(x[:, outputs]), _masks(z[:, outputs]))
    # Shots with equal bits share one key string and one (frozen) PauliFrame.
    codes = _masks(reported).tolist()
    counts = Counter(codes)
    keys = _keys(counts, len(measured))
    if marks is None:
        frame_codes, frames = [0] * shots, {0: PauliFrame.identity(n_out)}
    else:
        frame_codes = (marks @ 4 ** np.arange(n_out)).tolist()
        rows = dict(zip(frame_codes, marks))
        frames = {code: PauliFrame(row & 1, row >> 1) for code, row in rows.items()}
    records = [
        ShotRecord(keys[k], frames[f], PureState(state, validate=False))
        for k, f, state in zip(codes, frame_codes, states)
    ]
    return RunResult(
        family=circuit.family,
        n_outputs=n_out,
        duration_ns=circuit.duration_ns,
        output_state=None,
        histogram={keys[code]: counts[code] for code in sorted(counts)},
        shots=shots,
        records=records,
        input=config.input,
    )


def _reference(circuit: Circuit, inp: InputState) -> PureState:
    """The noiseless state of the whole register with every measurement
    deferred; rejects a circuit that Pauli frames cannot follow."""
    state = PureState.zeros(circuit.qubit_count)
    touched: set[int] = set()
    for op in circuit.operations():
        if isinstance(op, PrepareInputOp):
            if op.qubit in touched:
                raise ValueError(
                    f"trajectory mode needs {op} to be the first operation on its qubit"
                )
            state.prepare_input(op.qubit, inp)
        elif isinstance(op, GateOp):
            if op.angle is not None:
                _quarter_turns(op)
            state.apply_matrix(op.matrix(), op.targets)
        touched.update(op.targets if isinstance(op, GateOp) else (op.qubit,))
    return state


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


def _apply_paulis(amps: np.ndarray, x_masks: np.ndarray, z_masks: np.ndarray) -> np.ndarray:
    """X^x Z^z applied to each row of ``amps``; a mask's bits select qubits in
    basis-index order (qubit 0 is the most significant bit)."""
    index = np.arange(amps.shape[-1])
    signed = np.where(np.bitwise_count(index & z_masks[:, None]) & 1, -amps, amps)
    return np.take_along_axis(signed, index ^ x_masks[:, None], axis=1)


def run(circuit: Circuit, config: RunConfig) -> RunResult:
    if config.mode == "exact":
        return run_exact(circuit, config)
    return run_trajectory(circuit, config)


def _framed_states(records: list[ShotRecord]) -> np.ndarray:
    """Each shot's state with its Pauli frame applied, one row per shot."""
    amps = np.stack([record.state.amplitudes for record in records])
    x = np.array([record.frame.x_flips for record in records], dtype=bool)
    z = np.array([record.frame.z_flips for record in records], dtype=bool)
    return _apply_paulis(amps, _masks(x), _masks(z))


def output_fidelity(result: RunResult, inp: InputState) -> float:
    """Uhlmann fidelity of the run output against the ideal fan-out state."""
    target = target_state(inp, result.n_outputs)
    if result.is_exact:
        if result.output_state.n != result.n_outputs:
            raise ValueError("result state does not cover the output register")
        return fidelity(result.output_state, target.to_density())
    overlaps = _framed_states(result.records) @ target.amplitudes.conj()
    return float(np.mean(overlaps.real**2 + overlaps.imag**2))


def joint_x_expectation(result: RunResult) -> float:
    """<X x ... x X> over the output qubits (frame-adjusted for trajectories)."""
    observable = "X" * result.n_outputs
    if result.is_exact:
        return result.output_state.expectation(observable)
    # X on every qubit maps basis index i to its complement, the reversed row.
    framed = _framed_states(result.records)
    return float(np.mean(np.sum(framed.conj() * framed[:, ::-1], axis=1).real))


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
