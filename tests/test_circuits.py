"""Circuit builder, timing, occurrence-count, and idle-accounting tests."""
import pytest

from helpers import fit_scaling_degree

from fanout_sim.circuits import (
    FAMILIES,
    CONSTANT_DEPTH_FAMILIES,
    Circuit,
    Layer,
    MeasureOp,
    TimingModel,
    build_constant_depth,
    build_unitary,
    count_occurrences,
    idle_intervals,
    serialize_circuit,
    table_counts,
    total_idle_time,
)
from fanout_sim.states import GateOp, QubitRegister

GOLDEN_N2 = """\
# family = feedforward
# n_outputs = 2
# qubits = 4
# labels = in a1 b1 c1
# outputs = q2 q3
# duration_ns = 1888
layer 0 t=0 dur=32 step=prepare
  prep_input q0
  h q2
  ry(-1.570796) q1
  ry(-1.570796) q3
layer 1 t=32 dur=144 step=prepare
  cz q2,q1
layer 2 t=176 dur=144 step=prepare
  cz q2,q3
  ry(+1.570796) q1
layer 3 t=320 dur=32 step=prepare
  ry(+1.570796) q3
layer 4 t=352 dur=32 step=entangle
  ry(-1.570796) q1
layer 5 t=384 dur=144 step=entangle
  cz q0,q1
layer 6 t=528 dur=32 step=entangle
  ry(+1.570796) q1
  h q0
layer 7 t=560 dur=400 step=measure
  measure q0 role=z slot=0
  measure q1 role=x slot=0
layer 8 t=960 dur=400 step=feedforward
  decouple q2
  decouple q3
layer 9 t=1360 dur=400 step=feedforward
  decouple q2
  decouple q3
layer 10 t=1760 dur=128 step=feedforward
  recover q2 output=1
  recover q3 output=2
"""


class TestConstantDepthBuilder:
    def test_smallest_instance_shape(self):
        """n=2 uses 4 qubits, 3 CNOTs (one CZ each), and 2 measurements."""
        circuit = build_constant_depth(2)
        assert circuit.qubit_count == 4
        assert circuit.cz_count == 3
        assert circuit.measure_count == 2

    def test_four_output_instance_shape(self):
        circuit = build_constant_depth(4)
        assert circuit.qubit_count == 10
        assert circuit.cz_count == 9
        assert circuit.measure_count == 6

    @pytest.mark.parametrize("family", CONSTANT_DEPTH_FAMILIES)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_duration_independent_of_n(self, family, n):
        circuit = build_constant_depth(n, family=family)
        assert circuit.duration_ns == 1888.0
        assert circuit.step_durations() == {
            "prepare": 352.0,
            "entangle": 208.0,
            "measure": 400.0,
            "feedforward": 928.0,
        }

    def test_register_size_and_outputs(self):
        circuit = build_constant_depth(3)
        assert circuit.register.labels == ("in", "a1", "b1", "c1", "a2", "b2", "c2")
        assert circuit.outputs == (2, 5, 6)  # b1, b2, c2

    def test_measured_qubits_measured_exactly_once(self):
        circuit = build_constant_depth(4)
        measured = [op.qubit for op in circuit.measurements()]
        assert len(measured) == len(set(measured)) == 6

    def test_too_few_outputs_rejected(self):
        with pytest.raises(ValueError):
            build_constant_depth(1)

    def test_serialization_golden(self):
        assert serialize_circuit(build_constant_depth(2)) == GOLDEN_N2


class TestUnitaryBuilder:
    def test_four_output_duration(self):
        assert build_unitary(4).duration_ns == 560.0

    def test_two_output_duration(self):
        assert build_unitary(2).duration_ns == 208.0

    def test_cnot_layer_time_from_anchor(self):
        """The per-rung time solves the 560 ns anchor: (560-32)/3 = 176."""
        timing = TimingModel()
        assert timing.cnot_layer == pytest.approx((560.0 - 32.0) / 3.0)
        assert timing.unitary_duration(4) == 560.0

    def test_duration_affine_in_n(self):
        durations = [build_unitary(n).duration_ns for n in range(2, 11)]
        second_differences = {
            durations[i + 2] - 2 * durations[i + 1] + durations[i]
            for i in range(len(durations) - 2)
        }
        assert second_differences == {0.0}

    def test_gate_counts(self):
        circuit = build_unitary(4)
        assert circuit.cz_count == 3
        assert circuit.measure_count == 0

    def test_input_is_first_output(self):
        assert build_unitary(3).outputs == (0, 1, 2)


class TestOccurrenceCounts:
    def test_unitary_example(self):
        counts = count_occurrences(build_unitary(4))
        assert (counts.n_cnot, counts.n_meas) == (3, 0)
        assert counts.n_idle == 3.0

    def test_feedforward_example(self):
        counts = count_occurrences(build_constant_depth(4), mu=7.5)
        assert counts.n_idle == 37.0
        assert counts.n_cnot == 9
        assert counts.n_meas == 6

    def test_pauli_frame_example(self):
        counts = count_occurrences(build_constant_depth(2, family="pauli_frame"))
        assert (counts.n_idle, counts.n_cnot, counts.n_meas) == (3.0, 3, 2)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_built_circuits_match_closed_forms(self, family, n):
        if family == "unitary":
            circuit = build_unitary(n)
        else:
            circuit = build_constant_depth(n, family=family)
        counts = count_occurrences(circuit, mu=7.5)
        closed = table_counts(family, n, 7.5)
        assert counts == closed

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            table_counts("bogus", 4, 7.5)


class TestIdleIntervals:
    def test_unitary_two_outputs_have_no_idle(self):
        intervals = idle_intervals(build_unitary(2))
        assert all(not spans for spans in intervals.values())

    def test_unitary_last_qubit_waits_two_cnot_layers(self):
        intervals = idle_intervals(build_unitary(4))
        waited = sum(duration for _, duration in intervals[3])
        assert waited == pytest.approx(2 * 176.0)

    def test_feedforward_outputs_idle_through_recovery_window(self):
        circuit = build_constant_depth(4)
        intervals = idle_intervals(circuit)
        for q in circuit.outputs:
            windows = [w for w in intervals[q] if w == (960.0, 928.0)]
            assert len(windows) == 1

    def test_pauli_frame_outputs_skip_recovery_window(self):
        circuit = build_constant_depth(4, family="pauli_frame")
        intervals = idle_intervals(circuit)
        for q in circuit.outputs:
            assert all(start + dur <= 960.0 for start, dur in intervals[q])

    def test_unitary_total_matches_closed_form(self):
        for n in range(2, 11):
            total = total_idle_time(build_unitary(n))
            assert total == pytest.approx(176.0 * (n - 1) * (n - 2) / 2.0)

    def test_scaling_degrees(self):
        """Idle time is quadratic for the ladder, linear for constant depth."""
        ns = range(2, 11)
        unitary = [total_idle_time(build_unitary(n)) for n in ns]
        assert fit_scaling_degree(list(ns), unitary) == 2
        for family in CONSTANT_DEPTH_FAMILIES:
            totals = [total_idle_time(build_constant_depth(n, family=family)) for n in ns]
            assert fit_scaling_degree(list(ns), totals) == 1


class TestCircuitValidation:
    def test_qubit_twice_in_layer_rejected(self):
        with pytest.raises(ValueError):
            Layer(32.0, "prepare", (GateOp("H", (0,)), GateOp("X", (0,))))

    def test_operation_after_measurement_rejected(self):
        register = QubitRegister(("in", "a1"))
        layers = (
            Layer(400.0, "measure", (MeasureOp(0, "z", 0),)),
            Layer(32.0, "feedforward", (GateOp("X", (0,)),)),
        )
        with pytest.raises(ValueError):
            Circuit("feedforward", 2, register, layers, (1,))

    def test_double_measurement_rejected(self):
        register = QubitRegister(("in", "a1"))
        layers = (
            Layer(400.0, "measure", (MeasureOp(0, "z", 0),)),
            Layer(400.0, "measure", (MeasureOp(0, "x", 0),)),
        )
        with pytest.raises(ValueError):
            Circuit("feedforward", 2, register, layers, (1,))

    def test_qubit_outside_register_rejected(self):
        register = QubitRegister(("in", "a1"))
        layers = (Layer(32.0, "prepare", (GateOp("H", (5,)),)),)
        with pytest.raises(ValueError, match="outside"):
            Circuit("unitary", 2, register, layers, (0, 1))

    def test_measured_output_rejected(self):
        register = QubitRegister(("in", "a1", "b1"))
        layers = (Layer(400.0, "measure", (MeasureOp(0, "z", 0), MeasureOp(1, "x", 0))),)
        with pytest.raises(ValueError, match="unmeasured"):
            Circuit("feedforward", 2, register, layers, (1, 2))

    def test_colliding_measurement_columns_rejected(self):
        register = QubitRegister(("in", "a1", "b1"))
        layers = (Layer(400.0, "measure", (MeasureOp(0, "z", 0), MeasureOp(1, "z", 0))),)
        with pytest.raises(ValueError, match="columns"):
            Circuit("feedforward", 2, register, layers, (2,))

    def test_timing_model_validation(self):
        with pytest.raises(ValueError):
            TimingModel(t_1q=0.0)

    def test_constant_depth_totals(self):
        timing = TimingModel()
        assert timing.constant_depth_total == 1888.0
        assert timing.recovery_window == 128.0
        assert timing.t_ff_latency == 800.0


def test_idle_intervals_cover_input_wait():
    """The input qubit waits out the group preparation before entangling."""
    intervals = idle_intervals(build_constant_depth(2))
    total = sum(duration for _, duration in intervals[0])
    assert total == pytest.approx(352.0)


def test_virtual_z_rotations_take_no_layer_time():
    """Input prep occupies one 32 ns pulse slot; its phase is layered in."""
    circuit = build_constant_depth(2)
    assert circuit.layers[0].duration_ns == 32.0


def test_decoupling_pulses_occupy_latency_window():
    circuit = build_constant_depth(3)
    decouple_layers = [
        layer for layer in circuit.layers
        if any(type(op).__name__ == "DecoupleOp" for op in layer.ops)
    ]
    assert sum(layer.duration_ns for layer in decouple_layers) == pytest.approx(800.0)
    assert all(layer.step == "feedforward" for layer in decouple_layers)
