"""Protocol execution: an exact Pauli law, dense branch enumeration, and
trajectory sampling.

All three execute one walk of the circuit (``_walk``), which resolves every
operation's register positions, noise sites and readout confusion in one
place, and keep reported bits as boolean arrays (one row per branch, shot
or outcome) from which ``feedforward.recovery_indices`` picks each recovery.

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
them to it. It walks one frame per fault (each non-identity Pauli of a
depolarizing site, each readout flip) and XOR-convolves the faults'
output cells (x, s) into the law, batched over the reported outcomes.

``run_exact`` walks a density matrix (statevector when noiseless) through
every measurement branch (true outcome times reported outcome under
readout confusion), applies the conditional recovery of the reported bits
and averages the surviving output states. All live branches are stacked
into one batched state, so each step is one kernel call across every
branch. It runs any circuit, and it is the oracle the law is tested
against.

``run_trajectory`` samples the same model: each shot is its noiseless
output (a known Pauli on |t>) times a sampled frame. A shot keeps its
output Pauli, never 2^n amplitudes; the metrics read its bits.
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
    build_circuit,
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

    ``pauli_law`` (set by ``run_pauli`` only) has shape (2^n, 2): entry
    [x, k] is the probability that the output is X^x Z^z on the ideal state
    with |z| of parity k, x in register order with output 0 most significant.
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


def _walk(circuit: Circuit, config: RunConfig):
    """The steps that every engine executes, in order, as (op, positions, arg).

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
    ValueError), as the law of the Pauli on the ideal output |t>.

    One walk carries a Pauli frame per fault: each non-identity Pauli of a
    depolarizing site, with probability p/4^k, and each readout flip. Its
    output Pauli, times the recovery of the reported bits it flips, gives
    its cell (x, s) of the law. The noiseless bits are uniform whatever the
    input, so the true bits are too, independent of the faults, and each
    reported bit is 1 with probability (p10 + 1 - p01)/2. The law is
    batched over every row r of reported bits, weighted P(r): a row's
    readout flips follow their law given r, and with ``noisy_recovery``
    the site after each recovery pulse counts once per pulse that r fires.
    The pulses of a recovery multiply to a Pauli, so they leave every
    frame's bits as they are, and a depolarizing site commutes with them.
    """
    _check_built(circuit)
    return _run_law(circuit, config)


def _run_law(circuit: Circuit, config: RunConfig) -> RunResult:
    """``run_pauli`` of a circuit that ``_check_built`` accepted."""
    ceiling = PURE_QUBIT_CEILING if config.noise is None else DENSITY_QUBIT_CEILING
    if circuit.qubit_count > ceiling:
        raise CeilingError(
            f"{circuit.qubit_count} qubits exceed the {ceiling}-qubit exact ceiling"
        )
    n, width = circuit.n_outputs, circuit.measure_count
    steps = list(_walk(circuit, config))
    counts = [_fault_count(op, arg) for op, _, arg in steps]
    x = np.zeros((sum(counts), circuit.qubit_count), dtype=bool)
    z = np.zeros_like(x)
    flips = np.zeros((len(x), width), dtype=bool)  # the reported bits each fault flips
    sites, start = [], 0
    for (op, _, arg), count in zip(steps, counts):
        rows = slice(start, start + count)
        start += count
        if count:
            sites.append((rows, op, arg))
        if isinstance(op, GateOp):
            _conjugate(x, z, op)
        elif isinstance(op, MeasureOp):
            flips[:, op.column] = x[:, op.qubit]
            flips[rows, op.column] = True
        elif count:  # a depolarizing site, or the one after a recovery's pulses
            qubits = op.qubits if isinstance(op, _Noise) else (op.qubit,)
            paulis = np.arange(1, count + 1)  # 2 bits per qubit, x then z
            for j, q in enumerate(qubits):
                x[rows, q] = (paulis >> 2 * j) & 1
                z[rows, q] = (paulis >> 2 * j + 1) & 1
    x, z = _output_frames(circuit, x, z, flips)
    cells = 2 * (x @ (1 << np.arange(n - 1, -1, -1))) + (np.count_nonzero(z, axis=1) & 1)

    reported = ((np.arange(2**width)[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(bool)
    weights = np.ones(len(reported))
    law = np.zeros((len(reported), 2 ** (n + 1)))
    law[:, 0] = 1.0
    for rows, op, arg in sites:
        faults = cells[rows]
        if isinstance(op, _Noise):
            law = _convolve(law, faults, np.full(len(faults), op.p / 4 ** len(op.qubits)))
        elif isinstance(op, MeasureOp):
            bit = reported[:, op.column]
            prob = np.where(bit, arg.p10 + 1.0 - arg.p01, arg.p01 + 1.0 - arg.p10) / 2.0
            flip = np.where(bit, arg.p10, arg.p01) / 2.0  # P(r_j, flipped)
            weights *= prob
            law = _convolve(law, faults, np.divide(flip, prob, out=np.zeros_like(flip),
                                                   where=prob > 0.0)[:, None])
        else:
            for value, members in _recovery_groups(reported, op):
                for _ in _recovery_pulses(value, op.qubit):
                    law[members] = _convolve(law[members], faults, np.full(3, arg / 4.0))
    pauli_law = (weights @ law).reshape(2**n, 2)
    kept = weights > 0.0
    return RunResult(
        family=circuit.family,
        n_outputs=n,
        duration_ns=circuit.duration_ns,
        output_state=_law_state(pauli_law, config.input),
        histogram=dict(zip(_bit_strings(reported[kept]), weights[kept].tolist())),
        input=config.input,
        pruned_mass=0.0,
        pauli_law=pauli_law,
    )


def _fault_count(op, arg) -> int:
    """Fault frames of one step of the walk: the non-identity Paulis of a
    depolarizing site (the site of noisy recovery pulses counts once), or
    the flip of a readout."""
    if isinstance(op, _Noise):
        return 4 ** len(op.qubits) - 1
    if isinstance(op, MeasureOp):
        return 1
    return 3 if isinstance(op, RecoverOp) and arg is not None else 0


def _convolve(law: np.ndarray, cells: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """XOR-convolve a site into every row of ``law``: fault i moves weight
    from cell c to c ^ cells[i] with probability probs[..., i] (one value
    per fault, or one row of them per row of ``law``); the rest stays."""
    probs = np.broadcast_to(probs, (len(law), len(cells)))
    shifted = law[:, np.arange(law.shape[1])[:, None] ^ cells]  # (rows, cells, faults)
    return law * (1.0 - probs.sum(axis=1))[:, None] + np.einsum("rcf,rf->rc", shifted, probs)


def _law_state(law: np.ndarray, inp: InputState) -> DensityState:
    """Sum over cells (x, s) of the law times the projector onto a|x> + s b|~x>:
    only the entries (x, x), (x, ~x), (~x, x) and (~x, ~x) are nonzero."""
    a, b = inp.amplitudes()
    total, signed = law.sum(axis=1), law[:, 0] - law[:, 1]
    x = np.arange(len(law))
    rho = np.zeros((len(law), len(law)), dtype=complex)
    rho[x, x] = abs(a) ** 2 * total + abs(b) ** 2 * total[::-1]  # ~x is x reversed
    rho[x, x[::-1]] = a * np.conj(b) * signed + np.conj(a) * b * signed[::-1]
    return DensityState(rho, validate=False)


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
    touched: set[int] = set()
    for op in circuit.operations():
        if not isinstance(op, Operation):
            raise TypeError(f"unexpected operation {op!r}")
        if isinstance(op, PrepareInputOp) and op.qubit in touched:
            raise ValueError(f"trajectory mode needs {op} to be the first operation on its qubit")
        if isinstance(op, GateOp) and op.angle is not None:
            _quarter_turns(op)
        touched.update(op.targets if isinstance(op, GateOp) else (op.qubit,))
    n = circuit.n_outputs
    if n < 2 or circuit != build_circuit(circuit.family, n, circuit.timing):
        raise ValueError(
            "trajectory mode samples only circuits equal to "
            "build_circuit(family, n_outputs, timing); use exact mode"
        )


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
    try:
        _check_built(circuit)
    except ValueError:
        return run_exact(circuit, config)
    return _run_law(circuit, config)


def _output_paulis(result: RunResult):
    """The Paulis P = X^x Z^z that a law or trajectory result puts on its
    input's a|0...0> + b|1...1>, giving a|x> + s b|~x> up to a phase with
    s = (-1)^|z|. Returns per Pauli whether x is all 0, whether it is all 1,
    and s; their probabilities (None: equally likely shots); and (a, b)."""
    if result.input is None:
        raise ValueError("a Pauli-law or trajectory result needs its input to evaluate it")
    if result.pauli_law is not None:
        x = np.repeat(np.arange(len(result.pauli_law)), 2)
        sign = np.tile([1.0, -1.0], len(result.pauli_law))
        return x == 0, x == x[-1], sign, result.pauli_law.ravel(), result.input.amplitudes()
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
    fidelities = []
    for _, inp in CARDINAL_INPUTS:
        config = RunConfig(input=inp, noise=noise, noisy_recovery=noisy_recovery)
        result = run(circuit, config)
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
