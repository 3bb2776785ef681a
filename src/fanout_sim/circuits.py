"""Time-layered circuit IR, fan-out circuit builders, and the timing model.

Three circuit families are built here:

* ``unitary``      -- nearest-neighbor CNOT ladder; the input qubit is output 1.
* ``feedforward``  -- four-step constant-depth protocol with a physical
                      recovery window after the mid-circuit measurement.
* ``pauli_frame``  -- same protocol, recovery tracked classically; the
                      timeline keeps the recovery window but the output
                      qubits accrue no idle error during it.

The constant-depth register is ``in, a1, b1, c1, ..., a_{n-1}, b_{n-1},
c_{n-1}`` (3n-2 qubits on a line); outputs are b_1..b_{n-1} and c_{n-1}.
CNOTs are decomposed as RY(pi/2) . CZ . RY(-pi/2) on the target, and each
Bell pair is measured after CNOT(left->right) + H(left), with the z bit
read from the left qubit and the x bit from the right.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .states import GateOp, QubitRegister

FAMILY_UNITARY = "unitary"
FAMILY_FEEDFORWARD = "feedforward"
FAMILY_PAULI_FRAME = "pauli_frame"
FAMILIES = (FAMILY_UNITARY, FAMILY_FEEDFORWARD, FAMILY_PAULI_FRAME)
CONSTANT_DEPTH_FAMILIES = (FAMILY_FEEDFORWARD, FAMILY_PAULI_FRAME)

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class TimingModel:
    """Gate, readout, and step durations in nanoseconds; only the feedforward
    step is set, the others follow from the gates of the constant-depth schedule."""

    t_1q: float = 32.0
    t_cz_total: float = 144.0
    t_readout: float = 400.0
    t_ff_latency: float = 800.0
    step_feedforward: float = 928.0

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not value > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.recovery_window < 4.0 * self.t_1q:  # the pulses of a Z*X recovery
            raise ValueError(f"recovery window of {self.recovery_window:g} ns is under 4 t_1q")

    @property
    def step_prepare(self) -> float:
        return 2.0 * self.t_1q + 2.0 * self.t_cz_total

    @property
    def step_entangle(self) -> float:
        return 2.0 * self.t_1q + self.t_cz_total

    @property
    def step_measure(self) -> float:
        return self.t_readout

    @property
    def constant_depth_total(self) -> float:
        return (
            self.step_prepare + self.step_entangle + self.step_measure + self.step_feedforward
        )

    @property
    def cnot_layer(self) -> float:
        """Per-rung time of the unitary ladder: one CZ plus the closing RY."""
        return self.t_cz_total + self.t_1q

    @property
    def recovery_window(self) -> float:
        return self.step_feedforward - self.t_ff_latency

    def unitary_duration(self, n: int) -> float:
        return self.t_1q + (n - 1) * self.cnot_layer


@dataclass(frozen=True)
class PrepareInputOp:
    """Placeholder for the input-state pulse; angles bound at run time."""

    qubit: int


@dataclass(frozen=True)
class MeasureOp:
    """Computational-basis readout feeding recovery slot ``slot``."""

    qubit: int
    role: str  # "z" or "x"
    slot: int

    def __post_init__(self):
        if self.role not in ("z", "x"):
            raise ValueError(f"measurement role must be 'z' or 'x', got {self.role!r}")

    @property
    def column(self) -> int:
        """Position of the reported bit in the record z1 x1 z2 x2 ..."""
        return 2 * self.slot + (self.role == "x")


@dataclass(frozen=True)
class RecoverOp:
    """Physical conditional recovery pulse on an output qubit."""

    qubit: int
    output_index: int  # 1-based output number


@dataclass(frozen=True)
class FrameMarkOp:
    """Virtual recovery marker: the correction is tracked classically."""

    qubit: int
    output_index: int


@dataclass(frozen=True)
class DecoupleOp:
    """Decoupling pulse during the recovery latency; simulated as identity."""

    qubit: int


Operation = GateOp | PrepareInputOp | MeasureOp | RecoverOp | FrameMarkOp | DecoupleOp


def _op_qubits(op: Operation) -> tuple[int, ...]:
    if isinstance(op, GateOp):
        return op.targets
    return (op.qubit,)


@dataclass(frozen=True)
class Layer:
    duration_ns: float
    step: str
    ops: tuple[Operation, ...]

    def __post_init__(self):
        if not self.duration_ns > 0.0:
            raise ValueError("layer duration must be positive")
        object.__setattr__(self, "ops", tuple(self.ops))
        seen: set[int] = set()
        for op in self.ops:
            for q in _op_qubits(op):
                if q in seen:
                    raise ValueError(f"qubit {q} appears twice in one layer")
                seen.add(q)


@dataclass(frozen=True)
class Circuit:
    family: str
    n_outputs: int
    register: QubitRegister
    layers: tuple[Layer, ...]
    outputs: tuple[int, ...]
    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown circuit family {self.family!r}")
        measured = [op.qubit for op in self.operations() if isinstance(op, MeasureOp)]
        if len(measured) != len(set(measured)):
            raise ValueError("a qubit is measured more than once")
        done, count = set(), self.register.count
        for layer in self.layers:
            for op in layer.ops:
                for q in _op_qubits(op):
                    if q in done:
                        raise ValueError(f"operation on qubit {q} after its measurement")
                    if not 0 <= q < count:
                        raise ValueError(f"qubit {q} lies outside the {count}-qubit register")
            done.update(op.qubit for op in layer.ops if isinstance(op, MeasureOp))
        unmeasured = tuple(q for q in range(count) if q not in done)
        if self.outputs != unmeasured:
            raise ValueError(f"outputs {self.outputs} must be the unmeasured qubits {unmeasured}")
        columns = sorted(op.column for op in self.measurements())
        if columns != list(range(len(columns))):
            raise ValueError(f"measurement columns {columns} must be distinct and below {len(columns)}")

    def operations(self):
        for layer in self.layers:
            yield from layer.ops

    @property
    def qubit_count(self) -> int:
        return self.register.count

    @property
    def duration_ns(self) -> float:
        return sum(layer.duration_ns for layer in self.layers)

    def layer_starts(self) -> list[float]:
        starts, t = [], 0.0
        for layer in self.layers:
            starts.append(t)
            t += layer.duration_ns
        return starts

    def step_durations(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in self.layers:
            out[layer.step] = out.get(layer.step, 0.0) + layer.duration_ns
        return out

    @property
    def cz_count(self) -> int:
        return sum(1 for op in self.operations() if isinstance(op, GateOp) and op.kind == "CZ")

    @property
    def measure_count(self) -> int:
        return sum(1 for op in self.operations() if isinstance(op, MeasureOp))

    def measurements(self) -> list[MeasureOp]:
        return [op for op in self.operations() if isinstance(op, MeasureOp)]


@dataclass(frozen=True)
class OccurrenceCounts:
    """Occurrences of the dominating error sources in one circuit."""

    n_idle: float
    n_cnot: int
    n_meas: int

    def __post_init__(self):
        if self.n_idle < 0 or self.n_cnot < 0 or self.n_meas < 0:
            raise ValueError("occurrence counts must be nonnegative")


def table_counts(family: str, n: int, mu: float) -> OccurrenceCounts:
    """Closed-form error-source occurrences per family vs output count."""
    if n < 2:
        raise ValueError("need at least two outputs")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if family == FAMILY_UNITARY:
        return OccurrenceCounts((n * n - 3 * n + 2) / 2.0, n - 1, 0)
    if family == FAMILY_FEEDFORWARD:
        return OccurrenceCounts(n * (mu + 2.0) - 1.0, 3 * n - 3, 2 * n - 2)
    if family == FAMILY_PAULI_FRAME:
        return OccurrenceCounts(2.0 * n - 1.0, 3 * n - 3, 2 * n - 2)
    raise ValueError(f"unknown circuit family {family!r}")


def _group(i: int) -> tuple[int, int, int]:
    """Register indices (a_i, b_i, c_i) for 1-based group i."""
    return 3 * i - 2, 3 * i - 1, 3 * i


def constant_depth_register(n: int) -> QubitRegister:
    labels = ["in"]
    for i in range(1, n):
        labels += [f"a{i}", f"b{i}", f"c{i}"]
    return QubitRegister(tuple(labels))


def build_constant_depth(
    n: int, timing: TimingModel | None = None, family: str = FAMILY_FEEDFORWARD
) -> Circuit:
    """Four-step constant-depth fan-out circuit on 3n-2 qubits."""
    if n < 2:
        raise ValueError("need at least two outputs")
    if family not in CONSTANT_DEPTH_FAMILIES:
        raise ValueError(f"{family!r} is not a constant-depth family")
    timing = timing or TimingModel()
    register = constant_depth_register(n)
    groups = [_group(i) for i in range(1, n)]
    outputs = [b for _, b, _ in groups] + [groups[-1][2]]
    # Bell pairs (left, right): (in, a1) and (c_i, a_{i+1}) across boundaries.
    pairs = [(0, groups[0][0])]
    pairs += [(groups[i][2], groups[i + 1][0]) for i in range(n - 2)]

    t1, tcz = timing.t_1q, timing.t_cz_total
    ry_open = lambda q: GateOp("RY", (q,), -_HALF_PI)  # noqa: E731
    ry_close = lambda q: GateOp("RY", (q,), _HALF_PI)  # noqa: E731

    layers = [
        Layer(t1, "prepare", [PrepareInputOp(0)]
              + [GateOp("H", (b,)) for _, b, _ in groups]
              + [ry_open(a) for a, _, _ in groups]
              + [ry_open(c) for _, _, c in groups]),
        Layer(tcz, "prepare", [GateOp("CZ", (b, a)) for a, b, _ in groups]),
        Layer(tcz, "prepare", [GateOp("CZ", (b, c)) for _, b, c in groups]
              + [ry_close(a) for a, _, _ in groups]),
        Layer(t1, "prepare", [ry_close(c) for _, _, c in groups]),
        Layer(t1, "entangle", [ry_open(right) for _, right in pairs]),
        Layer(tcz, "entangle", [GateOp("CZ", (left, right)) for left, right in pairs]),
        Layer(t1, "entangle", [ry_close(right) for _, right in pairs]
              + [GateOp("H", (left,)) for left, _ in pairs]),
        Layer(timing.t_readout, "measure",
              [MeasureOp(left, "z", i) for i, (left, _) in enumerate(pairs)]
              + [MeasureOp(right, "x", i) for i, (_, right) in enumerate(pairs)]),
    ]
    if family == FAMILY_FEEDFORWARD:
        half = timing.t_ff_latency / 2.0
        layers += [
            Layer(half, "feedforward", [DecoupleOp(q) for q in outputs]),
            Layer(half, "feedforward", [DecoupleOp(q) for q in outputs]),
            Layer(timing.recovery_window, "feedforward",
                  [RecoverOp(q, k + 1) for k, q in enumerate(outputs)]),
        ]
    else:
        layers += [
            Layer(timing.step_feedforward, "feedforward",
                  [FrameMarkOp(q, k + 1) for k, q in enumerate(outputs)]),
        ]
    return Circuit(family, n, register, tuple(layers), tuple(outputs), timing)


def build_unitary(n: int, timing: TimingModel | None = None) -> Circuit:
    """Sequential nearest-neighbor CNOT ladder copying the input to n qubits."""
    if n < 2:
        raise ValueError("need at least two outputs")
    timing = timing or TimingModel()
    register = QubitRegister(("in",) + tuple(f"out{j}" for j in range(2, n + 1)))
    layers = [
        Layer(timing.t_1q, "prepare",
              [PrepareInputOp(0)] + [GateOp("RY", (q,), -_HALF_PI) for q in range(1, n)]),
    ]
    for j in range(n - 1):
        layers.append(Layer(timing.t_cz_total, "ladder", [GateOp("CZ", (j, j + 1))]))
        layers.append(Layer(timing.t_1q, "ladder", [GateOp("RY", (j + 1,), _HALF_PI)]))
    return Circuit(FAMILY_UNITARY, n, register, tuple(layers), tuple(range(n)), timing)


def build_circuit(family: str, n: int, timing: TimingModel | None = None) -> Circuit:
    if family == FAMILY_UNITARY:
        return build_unitary(n, timing)
    return build_constant_depth(n, timing, family)


def count_occurrences(circuit: Circuit, mu: float = 7.5) -> OccurrenceCounts:
    """Exact CNOT/measurement counts from the layers; idle occurrences from
    the closed forms (the schedule-derived idle time is validated separately
    for its scaling behavior only)."""
    closed = table_counts(circuit.family, circuit.n_outputs, mu)
    return OccurrenceCounts(closed.n_idle, circuit.cz_count, circuit.measure_count)


def idle_events(circuit: Circuit) -> list[tuple[int, int, float]]:
    """Idle noise slots as (layer_index, qubit, duration_ns).

    A qubit idles in every layer between its first and last activity in
    which it carries no operation. Feedforward circuits additionally idle
    every output qubit for the whole recovery window (latency plus pulses),
    attributed to the first feedforward layer.
    """
    return _idle_events(circuit)


def _idle_events(circuit: Circuit) -> list[tuple[int, int, float]]:
    """``idle_events``, for the engine's walk: its calls, which a fault
    table cache makes depend on what the cache holds, do not count as calls
    of ``idle_events`` in a traced benchmark pass."""
    events: list[tuple[int, int, float]] = []
    active: dict[int, list[int]] = {q: [] for q in range(circuit.qubit_count)}
    for idx, layer in enumerate(circuit.layers):
        for op in layer.ops:
            for q in _op_qubits(op):
                active[q].append(idx)
    for q, hits in active.items():
        if not hits:
            continue
        busy = set(hits)
        for idx in range(min(hits), max(hits) + 1):
            if idx not in busy:
                events.append((idx, q, circuit.layers[idx].duration_ns))
    if circuit.family == FAMILY_FEEDFORWARD:
        ff_start = next(
            i for i, layer in enumerate(circuit.layers) if layer.step == "feedforward"
        )
        for q in circuit.outputs:
            events.append((ff_start, q, circuit.timing.step_feedforward))
    events.sort()
    return events


def idle_intervals(circuit: Circuit) -> dict[int, list[tuple[float, float]]]:
    """Per-qubit idle windows as (start_ns, duration_ns)."""
    starts = circuit.layer_starts()
    out: dict[int, list[tuple[float, float]]] = {q: [] for q in range(circuit.qubit_count)}
    for idx, q, duration in idle_events(circuit):
        out[q].append((starts[idx], duration))
    return out


def total_idle_time(circuit: Circuit) -> float:
    return sum(duration for _, _, duration in idle_events(circuit))


def _format_op(op: Operation) -> str:
    if isinstance(op, GateOp):
        qubits = ",".join(f"q{t}" for t in op.targets)
        if op.angle is not None:
            return f"{op.kind.lower()}({op.angle:+.6f}) {qubits}"
        return f"{op.kind.lower()} {qubits}"
    if isinstance(op, PrepareInputOp):
        return f"prep_input q{op.qubit}"
    if isinstance(op, MeasureOp):
        return f"measure q{op.qubit} role={op.role} slot={op.slot}"
    if isinstance(op, RecoverOp):
        return f"recover q{op.qubit} output={op.output_index}"
    if isinstance(op, FrameMarkOp):
        return f"frame_mark q{op.qubit} output={op.output_index}"
    if isinstance(op, DecoupleOp):
        return f"decouple q{op.qubit}"
    raise TypeError(f"unknown operation {op!r}")


def serialize_circuit(circuit: Circuit) -> str:
    """Readable operation list with layer timestamps in ns."""
    lines = [
        f"# family = {circuit.family}",
        f"# n_outputs = {circuit.n_outputs}",
        f"# qubits = {circuit.qubit_count}",
        f"# labels = {' '.join(circuit.register.labels)}",
        f"# outputs = {' '.join(f'q{q}' for q in circuit.outputs)}",
        f"# duration_ns = {circuit.duration_ns:g}",
    ]
    for idx, (start, layer) in enumerate(zip(circuit.layer_starts(), circuit.layers)):
        lines.append(f"layer {idx} t={start:g} dur={layer.duration_ns:g} step={layer.step}")
        lines.extend(f"  {_format_op(op)}" for op in layer.ops)
    return "\n".join(lines) + "\n"
