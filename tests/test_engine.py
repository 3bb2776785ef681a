"""Protocol engine tests: exact branch enumeration and trajectories."""
import dataclasses
import functools
import json
import math
import pickle
import sys
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from fanout_sim.circuits import (
    FAMILIES,
    FAMILY_FEEDFORWARD,
    Circuit,
    Layer,
    PrepareInputOp,
    TimingModel,
    build_circuit,
    build_constant_depth,
    build_unitary,
)
from fanout_sim import circuits as circuits_module
from fanout_sim import engine
from fanout_sim import noise as noise_module
from fanout_sim.engine import (
    BRANCH_PRUNE,
    RunConfig,
    _conjugate,
    _run_law,
    cardinal_error,
    joint_x_expectation,
    output_fidelity,
    run,
    run_exact,
    run_inputs,
    run_trajectory,
    serialize_run_result,
    target_state,
)
from fanout_sim.feedforward import recovery_indices
from fanout_sim.noise import ConfusionMatrix, NoiseModel
from fanout_sim.states import (
    CARDINAL_INPUTS,
    PAULI_MATRICES,
    DensityState,
    GateOp,
    InputState,
    PureState,
    QubitRegister,
    gate_matrix,
)

PLUS = InputState(math.pi / 2.0, 0.0)
ONE = InputState(math.pi, 0.0)

#: Trajectory-versus-exact inputs: a cardinal point and one off them.
ORACLE_INPUTS = {"+": PLUS, "theta=1.0,phi=0.5": InputState(1.0, 0.5)}
ORACLE_SHOTS = 50_000

#: Every (family, n, input label, noisy_recovery) case of ``exact_oracle``.
ORACLE_CASES = list(product(FAMILIES, (2, 3, 4), ORACLE_INPUTS, (False, True)))
REFERENCE = Path(__file__).with_name("exact_reference.json")


def noiseless(inp, **kwargs):
    return RunConfig(input=inp, noise=None, **kwargs)


@functools.lru_cache(maxsize=None)
def exact_oracle(family, n, label, noisy_recovery):
    """Noisy exact run at the device medians, shared (not to be mutated) across tests."""
    config = RunConfig(
        input=ORACLE_INPUTS[label],
        noise=NoiseModel.device_medians(),
        noisy_recovery=noisy_recovery,
    )
    return run_exact(build_circuit(family, n), config)


def _case_id(family, n, label, noisy_recovery) -> str:
    return f"{family}-n{n}-{label}-{'noisy_recovery' if noisy_recovery else 'clean'}"


def _reference_values(result, inp) -> dict:
    return {
        "fidelity": output_fidelity(result, inp),
        "joint_x": joint_x_expectation(result),
        "histogram": result.histogram,
    }


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[_case_id(*case) for case in ORACLE_CASES])
def test_exact_oracle_matches_reference(case):
    """The noisy exact runs match values checked in from an earlier engine.

    ``python tests/test_engine.py`` rewrites the reference from the code on
    ``sys.path``; only feedforward circuits carry recovery pulses, so the
    other families share the runs of their clean cases.
    """
    family, n, label, noisy_recovery = case
    expected = json.loads(REFERENCE.read_text())[_case_id(*case)]
    result = exact_oracle(family, n, label, noisy_recovery and family == FAMILY_FEEDFORWARD)
    actual = _reference_values(result, ORACLE_INPUTS[label])
    assert actual["fidelity"] == pytest.approx(expected["fidelity"], abs=1e-12)
    assert actual["joint_x"] == pytest.approx(expected["joint_x"], abs=1e-12)
    assert list(actual["histogram"]) == list(expected["histogram"])
    np.testing.assert_allclose(
        list(actual["histogram"].values()), list(expected["histogram"].values()), rtol=0, atol=1e-12
    )


def write_reference() -> None:
    """Rewrite ``exact_reference.json`` from the code on ``sys.path``."""
    values = {
        _case_id(*case): _reference_values(exact_oracle(*case), ORACLE_INPUTS[case[2]])
        for case in ORACLE_CASES
    }
    REFERENCE.write_text(json.dumps(values, indent=1) + "\n")


#: Noise models of the law-versus-oracle check. The strong one has errors
#: some 100 times the device's, readout that favours 0, and an override on
#: qubit 1 that favours 1, so every site and each readout direction counts.
LAW_NOISES = {
    "none": None,
    "device": NoiseModel.device_medians(),
    "strong": NoiseModel(
        two_qubit_depol=0.2,
        single_qubit_depol=0.2,
        confusion=ConfusionMatrix(p01=0.15, p10=0.02),
        t2_echo=5e-6,
        confusion_overrides={1: ConfusionMatrix(p01=0.05, p10=0.3)},
    ),
}
#: Mode name -> (noise name, noisy_recovery).
LAW_MODES = {
    "none": ("none", False),
    "device": ("device", False),
    "device+noisy_recovery": ("device", True),
    "strong+noisy_recovery": ("strong", True),
}
LAW_INPUTS = dict(CARDINAL_INPUTS) | {
    "theta=1.0,phi=0.5": InputState(1.0, 0.5),
    "theta=2.2,phi=4.0": InputState(2.2, 4.0),
}
LAW_CIRCUITS = [(family, n) for family in ("feedforward", "pauli_frame") for n in (2, 3, 4)]
LAW_CIRCUITS += [("unitary", n) for n in (2, 3, 4, 5)]


@functools.lru_cache(maxsize=None)
def dense_run(family, n, label, noise, noisy_recovery):
    """The oracle's run, shared (not to be mutated) across the modes that
    give it the same arguments."""
    config = RunConfig(input=LAW_INPUTS[label], noise=LAW_NOISES[noise],
                       noisy_recovery=noisy_recovery)
    return run_exact(build_circuit(family, n), config)


def _law_corners(law: np.ndarray, inp: InputState) -> np.ndarray:
    """The entries (0...0 | 1...1)^2 of the output state that a (3, 2) law
    fixes: |a|^2 and |b|^2 weigh the rows x = 0...0 and 1...1, and the
    coherences carry their Z parity, s = +1 in column 0 and -1 in column 1."""
    a, b = inp.amplitudes()
    total, signed = law.sum(axis=1), law[:, 0] - law[:, 1]
    diagonal = abs(a) ** 2 * total[:2] + abs(b) ** 2 * total[1::-1]
    coherence = a * np.conj(b) * signed[0] + np.conj(a) * b * signed[1]
    return np.array([[diagonal[0], coherence], [np.conj(coherence), diagonal[1]]])


@pytest.mark.parametrize("label", list(LAW_INPUTS))
@pytest.mark.parametrize("mode", list(LAW_MODES))
@pytest.mark.parametrize("family,n", LAW_CIRCUITS)
def test_pauli_law_matches_dense_oracle(family, n, mode, label):
    """Exact ``run`` against ``run_exact``: fidelity, joint-X, the four
    corner entries of the output state and every histogram value (a missing
    key counts as 0) agree within twice the probability the oracle pruned
    and renormalized away, plus 1e-12. The strong mode checks the law of
    reported bits under p01 != p10 against the oracle's branch weights."""
    noise, noisy_recovery = LAW_MODES[mode]
    inp = LAW_INPUTS[label]
    # Only feedforward circuits carry recovery pulses to make noisy.
    dense = dense_run(family, n, label, noise, noisy_recovery and family == FAMILY_FEEDFORWARD)
    config = RunConfig(input=inp, noise=LAW_NOISES[noise], noisy_recovery=noisy_recovery)
    law = run(build_circuit(family, n), config)
    tol = 2.0 * dense.pruned_mass + 1e-12
    assert abs(output_fidelity(law, inp) - output_fidelity(dense, inp)) <= tol
    assert abs(joint_x_expectation(law) - joint_x_expectation(dense)) <= tol
    corners = np.ix_([0, -1], [0, -1])
    assert np.abs(_law_corners(law.pauli_law, inp) - dense.output_state.matrix[corners]).max() <= tol
    assert law.pauli_law.sum() == pytest.approx(1.0, abs=1e-12)
    for key in law.histogram.keys() | dense.histogram.keys():
        assert abs(law.histogram.get(key, 0.0) - dense.histogram.get(key, 0.0)) <= tol, key


@pytest.mark.parametrize("noisy_recovery", [False, True], ids=["clean", "noisy_recovery"])
@pytest.mark.parametrize("n", [8, 32, 200])
@pytest.mark.parametrize("family", FAMILIES)
def test_pauli_law_matches_trajectories_past_the_dense_ceiling(family, n, noisy_recovery):
    """Past the oracle's ceiling, the law's fidelity and joint-X lie within
    4 standard errors (the Bhatia-Davis bounds of
    ``assert_within_five_standard_errors``) of a seeded trajectory run, plus
    the range term of Bernstein's inequality at the same confidence,
    (2/3) 8 b / shots for per-shot values within b of the mean. That term
    keeps the bound valid where a good shot is rare: at n = 200 the
    fidelity is about 2e-5, and one shot in 2000 moves the mean by 5e-4."""
    inp, shots = ORACLE_INPUTS["theta=1.0,phi=0.5"], 2000
    circuit = build_circuit(family, n)
    config = RunConfig(input=inp, noise=NoiseModel.device_medians(), noisy_recovery=noisy_recovery)
    law = run(circuit, config)
    sampled = run_trajectory(circuit, dataclasses.replace(config, mode="trajectories",
                                                          shots=shots, seed=n))
    assert law.output_state is None
    assert law.pauli_law.sum() == pytest.approx(1.0, abs=1e-12)
    fid, jx = output_fidelity(law, inp), joint_x_expectation(law)
    fid_bound = 4 * math.sqrt(fid * (1 - fid) / shots) + 16 / 3 / shots
    jx_bound = 4 * math.sqrt((1 - jx * jx) / shots) + 2 * 16 / 3 / shots
    assert abs(output_fidelity(sampled, inp) - fid) <= fid_bound
    assert abs(joint_x_expectation(sampled) - jx) <= jx_bound


#: Gate errors 3 and 200 times the device's, T2 twice its, readout that
#: favours 0 and one qubit whose readout favours 1.
CELL_NOISE = NoiseModel(
    two_qubit_depol=0.05,
    single_qubit_depol=0.1,
    confusion=ConfusionMatrix(p01=0.15, p10=0.02),
    t2_echo=100e-6,
    confusion_overrides={1: ConfusionMatrix(p01=0.05, p10=0.3)},
)


@pytest.mark.parametrize(
    "family,n", [(f, n) for f in ("feedforward", "pauli_frame") for n in (2, 3, 4)]
    + [("unitary", 3), ("unitary", 4)])
def test_sampled_cells_and_keys_match_the_law(family, n):
    """100k seeded shots against the law, cell by cell: the frequency of
    each of the six ``pauli_law`` cells (x = 0...0, 1...1 or other, times
    the Z parity), counted from the records, and of each reported key lies
    within 5 binomial standard errors of its probability under the law.
    The noise is strong, but not so strong that the cells saturate: a
    sampler that drew each output's pulse faults once, whatever its
    recovery, would move a feedforward cell by some 8 standard errors."""
    shots = 100_000
    circuit = build_circuit(family, n)
    config = RunConfig(input=PLUS, noise=CELL_NOISE, noisy_recovery=True)
    law = run(circuit, config)
    sampled = run(circuit, dataclasses.replace(config, mode="trajectories", shots=shots, seed=18))
    x = np.array([r.pauli.x_flips for r in sampled.records], dtype=bool)
    x ^= np.array([r.frame.x_flips for r in sampled.records], dtype=bool)
    parity = np.array([sum(r.pauli.z_flips) + sum(r.frame.z_flips) for r in sampled.records]) & 1
    cell = np.where(~x.any(axis=1), 0, np.where(x.all(axis=1), 1, 2))
    counts = np.zeros((3, 2))
    np.add.at(counts, (cell, parity), 1)
    probs = law.pauli_law
    np.testing.assert_array_less(np.abs(counts / shots - probs),
                                 5 * np.sqrt(probs * (1 - probs) / shots) + 1e-12)
    assert set(sampled.histogram) <= set(law.histogram)
    for key, p in law.histogram.items():
        assert abs(sampled.histogram.get(key, 0) / shots - p) <= 5 * math.sqrt(p * (1 - p) / shots)


class TestRunDispatch:
    def test_built_circuit_runs_as_a_pauli_law(self):
        config = RunConfig(input=PLUS, noise=NoiseModel.device_medians())
        result = run(build_constant_depth(3), config)
        assert result.pauli_law.shape == (3, 2)
        assert result.output_state is None
        assert result.branches is None
        assert result.pruned_mass == 0.0

    def test_law_histogram_is_a_product_computed_per_key(self):
        """At n = 200 the 4^199 outcomes are never listed: the first key in
        sorted order is all zeros, and each key's probability is the product
        of its bits' P(r_j), (p01 + 1 - p10)/2 for 0 and (p10 + 1 - p01)/2 for 1."""
        noise = NoiseModel(confusion=ConfusionMatrix(p01=0.1, p10=0.02))
        histogram = run(build_constant_depth(200), RunConfig(input=PLUS, noise=noise)).histogram
        zeros = next(iter(histogram))
        assert zeros == "0" * 398
        p0, p1 = (0.1 + 1.0 - 0.02) / 2.0, (0.02 + 1.0 - 0.1) / 2.0
        assert histogram[zeros] == pytest.approx(p0**398, rel=1e-12)
        assert histogram["1" + zeros[1:]] == pytest.approx(p0**397 * p1, rel=1e-12)
        assert "2" + zeros[1:] not in histogram and zeros[1:] not in histogram

    @pytest.mark.parametrize("gate", [GateOp("H", (0,)), GateOp("RX", (0,), 0.3)], ids=["H", "RX"])
    @pytest.mark.parametrize("noise", [None, NoiseModel.device_medians()], ids=["noiseless", "noisy"])
    def test_other_circuits_are_refused_and_run_exact_runs_them(self, gate, noise):
        """A hand-made circuit, Clifford or not, is refused by ``run``,
        ``run_inputs`` and ``cardinal_error``, with a message that names
        ``run_exact``; ``run_exact`` runs it, to the same bytes each time and
        within the noise of the ideal U|in>."""
        circuit = _one_qubit_circuit(PrepareInputOp(0), gate)
        config = RunConfig(input=InputState(1.0, 0.5), noise=noise)
        with pytest.raises(ValueError, match="run_exact"):
            run(circuit, config)
        with pytest.raises(ValueError, match="run_exact"):
            run_inputs(circuit, [config, dataclasses.replace(config, input=PLUS)])
        with pytest.raises(ValueError, match="run_exact"):
            cardinal_error(circuit, noise)
        dense, again = run_exact(circuit, config), run_exact(circuit, config)
        assert dense.pauli_law is None
        assert dense.output_state.matrix.tobytes() == again.output_state.matrix.tobytes()
        assert list(dense.histogram.items()) == list(again.histogram.items())
        assert (dense.branches is None) == (noise is not None)
        ideal = gate.matrix() @ config.input.amplitudes()
        gap = np.abs(dense.output_state.matrix - np.outer(ideal, ideal.conj())).max()
        assert gap <= (1e-15 if noise is None else 1e-3)

    @pytest.mark.parametrize("noisy_recovery", [False, True], ids=["clean", "noisy_recovery"])
    @pytest.mark.parametrize("n", [4, 64])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_cardinal_error_builds_one_law(self, family, n, noisy_recovery, monkeypatch):
        """One law serves the six cardinals, with the value of six ``run`` calls."""
        circuit, noise = build_circuit(family, n), NoiseModel.device_medians()
        fidelities = []
        for _, inp in CARDINAL_INPUTS:
            config = RunConfig(input=inp, noise=noise, noisy_recovery=noisy_recovery)
            fidelities.append(output_fidelity(run(circuit, config), inp))
        laws = []

        def spy(circuit, config):
            laws.append(config.input)
            return _run_law(circuit, config)

        monkeypatch.setattr(engine, "_run_law", spy)
        assert cardinal_error(circuit, noise, noisy_recovery) == 1.0 - sum(fidelities) / 6
        assert len(laws) == 1

    def test_run_inputs_rejects_configs_that_differ_beyond_input(self):
        configs = [RunConfig(input=PLUS), RunConfig(input=ONE, noise=NoiseModel())]
        with pytest.raises(ValueError, match="differ only in input"):
            run_inputs(build_constant_depth(2), configs)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fault_structure_is_built_once_per_key(self, family, monkeypatch):
        """A 5-point trajectory sweep builds the circuit's fault structure
        with one walk, and each point's records and histogram are those of
        its own ``run``, byte for byte. A later run of the same circuit with
        another noise model, seed and input builds nothing; noisy recovery,
        no noise and another timing each build one structure."""
        circuit = build_circuit(family, 3)
        configs = [RunConfig(input=InputState(float(a), 0.5), noise=CELL_NOISE, mode="trajectories",
                             shots=300, seed=7)
                   for a in np.linspace(0.0, math.pi, 5)]
        expected = [run(circuit, config) for config in configs]
        engine._structure.cache_clear()
        walks = []

        def spy(circuit, noisy, _original=engine._walk):
            walks.append(noisy)
            return _original(circuit, noisy)

        monkeypatch.setattr(engine, "_walk", spy)
        results = run_inputs(circuit, configs)
        assert len(walks) == 1
        for result, want, config in zip(results, expected, configs):
            assert result.input == config.input
            assert pickle.dumps(result.records) == pickle.dumps(want.records)
            assert pickle.dumps(result.histogram) == pickle.dumps(want.histogram)
        other = dataclasses.replace(configs[0], input=ONE, noise=NoiseModel(), seed=11)
        run(circuit, other)
        run(circuit, dataclasses.replace(other, mode="exact"))
        assert len(walks) == 1
        timing = TimingModel(t_ff_latency=400.0, step_feedforward=528.0)
        for variant, config in ((circuit, dataclasses.replace(other, noisy_recovery=True)),
                                (circuit, dataclasses.replace(other, noise=None)),
                                (build_circuit(family, 3, timing), other)):
            built = len(walks)
            run(variant, config)
            run(variant, dataclasses.replace(config, mode="exact", input=PLUS))
            assert len(walks) == built + 1
        assert engine._structure.cache_info().misses == 4


def _set_override(noise: NoiseModel, qubit: int) -> None:
    noise.confusion_overrides[qubit] = ConfusionMatrix(p01=0.3, p10=0.1)


#: In-place edits of a ``NoiseModel``, each with a function of it and the
#: circuit's first measured qubit.
NOISE_EDITS = {
    "two_qubit_depol": lambda noise, q: setattr(noise, "two_qubit_depol", 0.08),
    "single_qubit_depol": lambda noise, q: setattr(noise, "single_qubit_depol", 0.02),
    "t2_echo": lambda noise, q: setattr(noise, "t2_echo", 10e-6),
    "idle_law": lambda noise, q: setattr(noise, "idle_law", "linear"),
    "confusion": lambda noise, q: setattr(noise, "confusion", ConfusionMatrix(p01=0.2, p10=0.05)),
    "confusion_overrides": _set_override,
}


class TestFaultStructureCache:
    """The fault structure of a built circuit is cached by circuit, noise on
    or off and noisy recovery; the noise values are read on every run."""

    @pytest.mark.parametrize("edit", NOISE_EDITS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_noise_edited_in_place_takes_effect_on_a_warm_cache(self, family, n, edit):
        """After an in-place edit, exact and seeded trajectory runs on the
        warm cache equal, bit for bit, the same runs after ``cache_clear``."""
        circuit = build_circuit(family, n)
        noise = NoiseModel()
        exact = RunConfig(input=InputState(1.0, 0.5), noise=noise, noisy_recovery=True)
        sampled = dataclasses.replace(exact, mode="trajectories", shots=400, seed=5)
        before = run(circuit, exact).pauli_law
        run(circuit, sampled)
        measured = circuit.measurements()
        NOISE_EDITS[edit](noise, measured[0].qubit if measured else 0)

        def runs():
            law, shots = run(circuit, exact), run(circuit, sampled)
            return (law.pauli_law.tobytes(), pickle.dumps(list(law.histogram.items())),
                    pickle.dumps(shots.records), pickle.dumps(shots.histogram))

        hits = engine._structure.cache_info().hits
        warm = runs()
        assert engine._structure.cache_info().hits == hits + 2
        engine._structure.cache_clear()
        assert runs() == warm
        idles = circuits_module.idle_events(circuit)
        acts_on = {"t2_echo": idles, "idle_law": idles, "confusion": measured,
                   "confusion_overrides": measured}
        if acts_on.get(edit, True):
            assert warm[0] != before.tobytes()

    def test_cached_arrays_are_read_only(self):
        config = RunConfig(input=PLUS, noise=CELL_NOISE, noisy_recovery=True)
        faults, *_ = engine._fault_table(build_circuit("feedforward", 3), config)
        arrays = {name: value for name, value in vars(faults).items()
                  if isinstance(value, np.ndarray)}
        assert set(arrays) >= {"x", "z", "flips", "fixed", "pulse", "step", "code", "kind"}
        for name, array in arrays.items():
            assert array.size, name
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0

    @pytest.mark.parametrize("mode", ["exact", "trajectories"])
    def test_idle_law_check_fires_on_a_warm_cache(self, mode, monkeypatch):
        circuit = build_circuit("feedforward", 3)
        config = RunConfig(input=PLUS, noise=NoiseModel(), mode=mode, shots=10, seed=1)
        run(circuit, config)
        monkeypatch.setitem(noise_module.IDLE_LAWS, "exponential", lambda t2: lambda duration: 1.5)
        hits = engine._structure.cache_info().hits
        with pytest.raises(ValueError, match=r"idle law returned 1.5, outside \[0, 1\]"):
            run(circuit, config)
        assert engine._structure.cache_info().hits == hits + 1

    def test_traced_call_counts_do_not_depend_on_the_cache(self, monkeypatch):
        """``idle_events`` and ``measure_count``, counted as a traced
        benchmark pass counts them (every module attribute bound to the
        function), are called as often on a cold cache as on a warm one."""
        counts = {"idle_events": 0, "measure_count": 0}
        original_idle = circuits_module.idle_events

        def idle_events(circuit):
            counts["idle_events"] += 1
            return original_idle(circuit)

        for module in [m for key, m in sys.modules.items() if key.startswith("fanout_sim")]:
            for key, value in list(vars(module).items()):
                if value is original_idle:
                    monkeypatch.setattr(module, key, idle_events)
        measure_count = Circuit.__dict__["measure_count"].fget

        def counted(circuit):
            counts["measure_count"] += 1
            return measure_count(circuit)

        monkeypatch.setattr(Circuit, "measure_count", property(counted))

        def one_pass():  # 6 fault structures, which the cache holds at once
            for family in FAMILIES:
                circuit = build_circuit(family, 4)
                config = RunConfig(input=PLUS, noise=NoiseModel(), noisy_recovery=True)
                run(circuit, config)
                run(circuit, dataclasses.replace(config, mode="trajectories", shots=20, seed=2))
                cardinal_error(circuit)
                run_exact(build_circuit(family, 2), RunConfig(input=PLUS, noise=NoiseModel()))
            circuits_module.total_idle_time(circuit)
            return dict(counts)

        engine._structure.cache_clear()
        cold = one_pass()
        counts.update(idle_events=0, measure_count=0)
        misses = engine._structure.cache_info().misses
        assert one_pass() == cold
        assert engine._structure.cache_info().misses == misses == 6
        assert cold["idle_events"] > 0 and cold["measure_count"] > 0


#: The inputs of a 9-point exact sweep: theta over [0, pi] at phi = 0, and phi
#: over [0, 2 pi) at theta = pi/2, as ``fanout-sim sweep`` builds them.
SWEEP_INPUTS = [InputState(float(a), 0.0) for a in np.linspace(0.0, math.pi, 9)] + [
    InputState(math.pi / 2.0, float(a))
    for a in np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", ["feedforward", "pauli_frame"])
def test_sweep_on_one_law_matches_dense_points(family, n):
    """Every point of an exact sweep on one shared law agrees with its own
    ``run_exact``, within the tolerance of ``test_pauli_law_matches_dense_oracle``."""
    circuit, noise = build_circuit(family, n), NoiseModel.device_medians()
    configs = [RunConfig(input=inp, noise=noise) for inp in SWEEP_INPUTS]
    for inp, config, result in zip(SWEEP_INPUTS, configs, run_inputs(circuit, configs)):
        dense = run_exact(circuit, config)
        tol = 2.0 * dense.pruned_mass + 1e-12
        assert result.input == inp
        assert abs(output_fidelity(result, inp) - output_fidelity(dense, inp)) <= tol
        assert abs(joint_x_expectation(result) - joint_x_expectation(dense)) <= tol


@pytest.mark.parametrize(
    "noise,kind,reduction",
    [(NoiseModel.device_medians(), DensityState, "discard_qubits"),
     (None, PureState, "remove_collapsed")],
    ids=["noisy", "noiseless"],
)
def test_run_exact_measures_with_branch_z(noise, kind, reduction, monkeypatch):
    """Each of the 4 measurements of feedforward n = 3 is one batched
    ``branch_z``, and each of its 2 outcomes one reduction of that batch."""
    calls = {"branch_z": 0, reduction: 0}
    for name in calls:
        def counted(self, *args, _original=getattr(kind, name), _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(kind, name, counted)
    run_exact(build_circuit(FAMILY_FEEDFORWARD, 3), RunConfig(input=PLUS, noise=noise))
    assert calls == {"branch_z": 4, reduction: 8}


class TestRunExactNoiseless:
    def test_bell_output_from_two_outputs(self):
        """theta=pi/2 teleports to (|00> + |11>)/sqrt2 on every branch."""
        result = run_exact(build_constant_depth(2), noiseless(PLUS))
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert output_fidelity(result, PLUS) == pytest.approx(1.0, abs=1e-10)
        assert len(result.branches) == 4
        for _, prob, state in result.branches:
            assert prob == pytest.approx(0.25, abs=1e-12)
            assert abs(np.vdot(bell, state.amplitudes)) ** 2 == pytest.approx(
                1.0, abs=1e-10
            )

    @pytest.mark.parametrize("family", ["feedforward", "pauli_frame"])
    def test_random_inputs_reach_unit_fidelity(self, family):
        rng = np.random.default_rng(21)
        circuit = build_constant_depth(4, family=family)
        for _ in range(5):
            inp = InputState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            result = run_exact(circuit, noiseless(inp))
            assert output_fidelity(result, inp) >= 1.0 - 1e-9

    def test_families_give_identical_noiseless_outputs(self):
        inp = InputState(0.8, 1.3)
        ff = run_exact(build_constant_depth(3), noiseless(inp))
        pfu = run_exact(build_constant_depth(3, family="pauli_frame"), noiseless(inp))
        np.testing.assert_allclose(
            ff.output_state.matrix, pfu.output_state.matrix, atol=1e-12
        )

    def test_unitary_ladder_copies_input(self):
        result = run_exact(build_unitary(5), noiseless(PLUS))
        assert output_fidelity(result, PLUS) == pytest.approx(1.0, abs=1e-10)

    def test_histogram_is_uniform_for_equator_input(self):
        result = run_exact(build_constant_depth(2), noiseless(PLUS))
        assert set(result.histogram) == {"00", "01", "10", "11"}
        np.testing.assert_allclose(list(result.histogram.values()), 0.25, atol=1e-12)

    def test_exact_mode_ignores_seed(self):
        a = run_exact(build_constant_depth(2), RunConfig(input=PLUS, seed=1))
        b = run_exact(build_constant_depth(2), RunConfig(input=PLUS, seed=999))
        np.testing.assert_array_equal(a.output_state.matrix, b.output_state.matrix)


class TestRunExactNoisy:
    def test_excited_input_fidelity_near_measured(self):
        """Four-output run with device noise lands near the measured 0.797."""
        noise = NoiseModel.device_medians()
        result = run_exact(build_constant_depth(4), RunConfig(input=ONE, noise=noise))
        assert output_fidelity(result, ONE) == pytest.approx(0.80, abs=0.05)

    def test_pauli_frame_beats_feedforward_with_noise(self):
        noise = NoiseModel.device_medians()
        ff = cardinal_error(build_constant_depth(2), noise)
        pfu = cardinal_error(build_constant_depth(2, family="pauli_frame"), noise)
        assert pfu < ff

    def test_qubit_ceiling_enforced(self):
        noise = NoiseModel.device_medians()
        circuit = build_constant_depth(5)  # 13 qubits
        with pytest.raises(ValueError):
            run_exact(circuit, RunConfig(input=PLUS, noise=noise))

    def test_output_state_is_valid_density(self):
        noise = NoiseModel.device_medians()
        result = run_exact(build_constant_depth(2), RunConfig(input=PLUS, noise=noise))
        rho = result.output_state
        rho.validate(psd=True)
        assert sum(result.histogram.values()) == pytest.approx(1.0, abs=1e-9)


class TestPrunedMass:
    def test_noiseless_run_prunes_nothing(self):
        result = run_exact(build_constant_depth(3), noiseless(InputState(1.0, 0.5)))
        assert abs(result.pruned_mass) <= 1e-12

    def test_noisy_run_prunes_at_most_one_threshold_per_branch(self):
        result = exact_oracle(FAMILY_FEEDFORWARD, 4, "+", False)
        assert 0.0 <= result.pruned_mass < 4**6 * BRANCH_PRUNE

    def test_trajectory_runs_carry_none(self):
        config = noiseless(PLUS, mode="trajectories", shots=4, seed=1)
        assert run_trajectory(build_constant_depth(2), config).pruned_mass is None


class TestRunTrajectory:
    def test_noiseless_shots_all_reach_target(self):
        config = noiseless(PLUS, mode="trajectories", shots=64, seed=3)
        result = run_trajectory(build_constant_depth(3), config)
        for record in result.records:
            shot = dataclasses.replace(result, records=[record], shots=1)
            assert output_fidelity(shot, PLUS) >= 1.0 - 1e-9
        assert sum(result.histogram.values()) == 64

    def test_fixed_seed_reproduces_bitwise(self):
        config = RunConfig(
            input=PLUS,
            noise=NoiseModel.device_medians(),
            mode="trajectories",
            shots=40,
            seed=11,
        )
        a = run_trajectory(build_constant_depth(2), config)
        b = run_trajectory(build_constant_depth(2), config)
        assert [r.outcome_key for r in a.records] == [r.outcome_key for r in b.records]
        for ra, rb in zip(a.records, b.records):
            assert ra.pauli == rb.pauli
            assert ra.frame == rb.frame

    @pytest.mark.parametrize("label", list(ORACLE_INPUTS))
    @pytest.mark.parametrize("noisy_recovery", [False, True], ids=["clean", "noisy_recovery"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mean_matches_exact_within_monte_carlo_error(self, family, n, noisy_recovery, label):
        """At the device medians, a 50k-shot run matches the exact run.

        The fidelity and histogram bounds stay below 0.01; the joint-X bound
        reaches about 0.02, since per-shot values of +-1 need about 130k
        shots for 0.01.
        """
        inp = ORACLE_INPUTS[label]
        # Only feedforward circuits carry recovery pulses to make noisy.
        exact = exact_oracle(family, n, label, noisy_recovery and family == FAMILY_FEEDFORWARD)
        config = RunConfig(
            input=inp,
            noise=NoiseModel.device_medians(),
            mode="trajectories",
            shots=ORACLE_SHOTS,
            seed=7,
            noisy_recovery=noisy_recovery,
        )
        result = run_trajectory(build_circuit(family, n), config)
        assert_within_five_standard_errors(result, exact, inp, max_bound=0.01)

    @pytest.mark.parametrize("noisy_recovery", [False, True], ids=["clean", "noisy_recovery"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_strong_noise_matches_exact(self, family, n, noisy_recovery):
        """Errors some 100 times the device's, and readout that favours 0,
        make every noise site and each readout direction move the result
        by far more than the 5-standard-error bound."""
        inp = ORACLE_INPUTS["theta=1.0,phi=0.5"]
        noise = NoiseModel(
            two_qubit_depol=0.2,
            single_qubit_depol=0.2,
            confusion=ConfusionMatrix(p01=0.15, p10=0.02),
            t2_echo=5e-6,
        )
        circuit = build_circuit(family, n)
        exact = run_exact(circuit, RunConfig(input=inp, noise=noise, noisy_recovery=noisy_recovery))
        config = RunConfig(
            input=inp, noise=noise, mode="trajectories", shots=20_000, seed=3,
            noisy_recovery=noisy_recovery,
        )
        result = run_trajectory(circuit, config)
        assert_within_five_standard_errors(result, exact, inp)

    def test_pauli_frame_records_carry_frames(self):
        config = RunConfig(
            input=ONE,
            noise=NoiseModel.device_medians(),
            mode="trajectories",
            shots=200,
            seed=5,
        )
        result = run_trajectory(build_constant_depth(2, family="pauli_frame"), config)
        assert any(any(r.frame.x_flips) or any(r.frame.z_flips) for r in result.records)
        assert output_fidelity(result, ONE) == pytest.approx(1.0, abs=0.08)

    def test_non_clifford_rotation_rejected(self):
        circuit = _one_qubit_circuit(PrepareInputOp(0), GateOp("RX", (0,), 0.3))
        with pytest.raises(ValueError, match="RX"):
            run_trajectory(circuit, noiseless(PLUS, mode="trajectories", shots=8, seed=1))
        # run_exact still runs it: RX commutes with X, so |+> only picks up a phase.
        assert output_fidelity(run_exact(circuit, noiseless(PLUS)), PLUS) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_late_input_pulse_rejected(self):
        circuit = _one_qubit_circuit(GateOp("H", (0,)), PrepareInputOp(0))
        with pytest.raises(ValueError, match="PrepareInputOp"):
            run_trajectory(circuit, noiseless(PLUS, mode="trajectories", shots=8, seed=1))

    def test_circuit_not_built_by_build_circuit_rejected(self):
        """A hand-built Clifford circuit passes the gate checks, but the
        sampler's outcome law and output states hold only for built ones."""
        circuit = _one_qubit_circuit(PrepareInputOp(0), GateOp("H", (0,)))
        with pytest.raises(ValueError, match="build_circuit"):
            run_trajectory(circuit, noiseless(PLUS, mode="trajectories", shots=8, seed=1))
        # run_exact still runs it: H maps |+> to |0>.
        result = run_exact(circuit, noiseless(PLUS))
        assert output_fidelity(result, InputState(0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_constant_depth_beyond_the_register_ceiling(self):
        """n = 8 is 22 qubits, more than a statevector of the register allows;
        the sampler keeps only each shot's Pauli."""
        circuit = build_constant_depth(8)
        assert circuit.qubit_count == 22
        inp = InputState(2.2, 4.0)
        result = run_trajectory(circuit, noiseless(inp, mode="trajectories", shots=32, seed=4))
        for record in result.records:
            shot = dataclasses.replace(result, records=[record], shots=1)
            assert output_fidelity(shot, inp) >= 1.0 - 1e-9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_noiseless_shots_far_past_the_output_count_of_a_statevector(self, family):
        """n = 40 (118 qubits for constant depth, 40 for the ladder): every
        shot reaches the target, and the 78-bit keys, wider than an int64,
        spell each shot's reported bits. Noiseless readouts report the
        uniform bits that the seeded generator draws first."""
        inp, shots, seed = InputState(2.2, 4.0), 16, 9
        circuit = build_circuit(family, 40)
        result = run_trajectory(circuit, noiseless(inp, mode="trajectories", shots=shots, seed=seed))
        for record in result.records:
            shot = dataclasses.replace(result, records=[record], shots=1)
            assert output_fidelity(shot, inp) == pytest.approx(1.0, abs=1e-12)
        width = circuit.measure_count
        assert width == (0 if family == "unitary" else 78)
        drawn = np.random.default_rng(seed).integers(0, 2, size=(shots, width), dtype=bool)
        keys = ["".join("1" if bit else "0" for bit in row) for row in drawn]
        assert [r.outcome_key for r in result.records] == keys
        assert list(result.histogram) == sorted(set(keys))
        if family == "pauli_frame":
            index = recovery_indices(drawn[:, 0::2], drawn[:, 1::2])
            assert [r.frame.x_flips for r in result.records] == [tuple(row) for row in index & 1]
            assert [r.frame.z_flips for r in result.records] == [tuple(row) for row in index >> 1]

    def test_metrics_need_the_run_input(self):
        config = noiseless(PLUS, mode="trajectories", shots=4, seed=1)
        result = dataclasses.replace(run_trajectory(build_constant_depth(2), config), input=None)
        with pytest.raises(ValueError, match="input"):
            output_fidelity(result, PLUS)
        with pytest.raises(ValueError, match="input"):
            joint_x_expectation(result)


def _dense_shot_state(record, inp, n) -> np.ndarray:
    """A shot's 2^n state, its frame applied, built the dense way: X^x Z^z
    of its Pauli and then of its frame on the ideal state, by basis index
    (qubit 0 most significant). Equal to the physical state up to a phase."""
    amps = target_state(inp, n).amplitudes
    index = np.arange(2**n)
    for pauli in (record.pauli, record.frame):
        x_mask, z_mask = _bit_masks([pauli.x_flips, pauli.z_flips])
        amps = np.where(np.bitwise_count(index & z_mask) & 1, -amps, amps)[index ^ x_mask]
    return amps


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_metrics_match_dense_shot_states(family, n):
    """Per-shot fidelity and joint-X in closed form equal those of each
    shot's dense state, against the run's input and against another one.
    Strong noise and readout flips give shots many distinct Paulis and frames."""
    noise = NoiseModel(
        two_qubit_depol=0.2,
        single_qubit_depol=0.2,
        confusion=ConfusionMatrix(p01=0.15, p10=0.02),
        t2_echo=5e-6,
    )
    circuit = build_circuit(family, n)
    targets = [PLUS, InputState(2.2, 4.0), ONE]
    for inp in (InputState(1.0, 0.5), ONE):
        config = RunConfig(input=inp, noise=noise, mode="trajectories", shots=40, seed=n,
                           noisy_recovery=True)
        result = run_trajectory(circuit, config)
        for record in result.records:
            shot = dataclasses.replace(result, records=[record], shots=1)
            state = _dense_shot_state(record, inp, n)
            jx = np.vdot(state, state[::-1]).real  # X on every qubit reverses the index
            assert joint_x_expectation(shot) == pytest.approx(jx, abs=1e-12)
            for target in targets + [inp]:
                expected = abs(np.vdot(target_state(target, n).amplitudes, state)) ** 2
                assert output_fidelity(shot, target) == pytest.approx(expected, abs=1e-12)


#: Inputs of the premise check: both poles and two points off the grid.
PREMISE_INPUTS = {
    "0": InputState(0.0, 0.0),
    "1": InputState(math.pi, 0.0),
    "theta=1.0,phi=0.5": InputState(1.0, 0.5),
    "theta=2.2,phi=4.0": InputState(2.2, 4.0),
}


def _deferred_statevector(circuit, inp) -> PureState:
    """The noiseless state of the whole register with every measurement
    deferred: the reference that trajectory mode no longer builds."""
    state = PureState.zeros(circuit.qubit_count)
    for op in circuit.operations():
        if isinstance(op, PrepareInputOp):
            state.prepare_input(op.qubit, inp)
        elif isinstance(op, GateOp):
            state.apply_gate(op)
    return state


def _bit_masks(bits) -> np.ndarray:
    """Integer code of each row of bits, the first column most significant."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[1] - 1, -1, -1))


@pytest.mark.parametrize("label", list(PREMISE_INPUTS))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("family", FAMILIES)
def test_outcomes_are_uniform_and_leave_the_recovery_on_the_target(family, n, label):
    """The premise of the frame sampler, against the deferred statevector:
    every noiseless outcome m is equally likely whatever the input, and its
    normalised output slice is R(m)|t> up to a global phase."""
    inp = PREMISE_INPUTS[label]
    circuit = build_circuit(family, n)
    measured = sorted(circuit.measurements(), key=lambda op: op.column)
    width = len(measured)
    tensor = _deferred_statevector(circuit, inp).amplitudes.reshape((2,) * circuit.qubit_count)
    order = [op.qubit for op in measured] + list(circuit.outputs)
    slices = np.transpose(tensor, order).reshape(2**width, 2**n)
    probs = np.sum(np.abs(slices) ** 2, axis=1)
    np.testing.assert_allclose(probs, 2.0**-width, rtol=0, atol=1e-12)
    slices = slices / np.sqrt(probs)[:, None]
    # R(m) = X^x Z^z maps a|0...0> + b|1...1> to a|x> + (-1)^|z| b|~x>.
    bits = (np.arange(2**width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    index = recovery_indices(bits[:, 0::2], bits[:, 1::2])
    x, z_parity = _bit_masks(index & 1), np.bitwise_count(_bit_masks(index >> 1)) & 1
    a, b = inp.amplitudes()
    rows = np.arange(2**width)
    overlaps = (np.conj(a) * slices[rows, x]
                + np.conj(b) * (-1.0) ** z_parity * slices[rows, x ^ (2**n - 1)])
    np.testing.assert_allclose(np.abs(overlaps), 1.0, rtol=0, atol=1e-12)


@dataclasses.dataclass(frozen=True)
class _UnknownOp:
    qubit: int


@pytest.mark.parametrize("mode", ["exact", "trajectories"])
def test_unknown_operation_rejected(mode):
    circuit = _one_qubit_circuit(_UnknownOp(0))
    with pytest.raises(TypeError, match="unexpected operation"):
        run(circuit, noiseless(PLUS, mode=mode, seed=1))


@pytest.mark.parametrize("noise", [None, NoiseModel.device_medians()], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("mode", ["exact", "trajectories"])
def test_input_onto_excited_qubit_rejected(mode, noise):
    """Noisy exact runs loaded the input onto |1> and reported a fidelity
    of 0.25; every mode now refuses, as the noiseless ones did."""
    layers = [
        Layer(32.0, "prepare", [GateOp("X", (0,))]),
        Layer(32.0, "prepare", [PrepareInputOp(0)]),
        Layer(144.0, "entangle", [GateOp("CZ", (0, 1))]),
    ]
    circuit = Circuit("unitary", 2, QubitRegister(("q0", "q1")), layers, (0, 1))
    config = RunConfig(input=PLUS, noise=noise, mode=mode, seed=1)
    with pytest.raises(ValueError, match="PrepareInputOp|must be in"):
        run(circuit, config)


def assert_within_five_standard_errors(result, exact, inp, max_bound=None):
    """Fidelity, joint-X and every histogram bin of a trajectory run lie
    within 5 standard errors of the exact run.

    Per-shot fidelities lie in [0, 1] and per-shot joint-X values in
    [-1, 1], so their variances are at most F(1-F) and 1-J^2 (the
    Bhatia-Davis bound); the standard errors use those bounds. With
    ``max_bound`` set, the fidelity and histogram bounds must be tighter.
    """
    shots = result.shots
    assert sum(result.histogram.values()) == shots
    fid, jx = output_fidelity(exact, inp), joint_x_expectation(exact)
    bounds = {"fidelity": 5 * math.sqrt(fid * (1 - fid) / shots)}
    assert abs(output_fidelity(result, inp) - fid) <= bounds["fidelity"]
    assert abs(joint_x_expectation(result) - jx) <= 5 * math.sqrt((1 - jx * jx) / shots)
    for key in exact.histogram.keys() | result.histogram.keys():
        p = exact.histogram.get(key, 0.0)
        bounds[key] = 5 * math.sqrt(p * (1 - p) / shots)
        assert abs(result.histogram.get(key, 0) / shots - p) <= bounds[key], key
    if max_bound is not None:
        assert max(bounds.values()) < max_bound


def _one_qubit_circuit(*ops) -> Circuit:
    layers = [Layer(32.0, "prepare", [op]) for op in ops]
    return Circuit("unitary", 1, QubitRegister(("q",)), layers, (0,))


def _dense_pauli(x_bits, z_bits) -> np.ndarray:
    """X^x Z^z on each qubit, qubit 0 most significant."""
    factors = [
        np.linalg.matrix_power(PAULI_MATRICES["X"], int(xb))
        @ np.linalg.matrix_power(PAULI_MATRICES["Z"], int(zb))
        for xb, zb in zip(x_bits, z_bits)
    ]
    return reduce(np.kron, factors)


FRAME_GATES = [
    GateOp("H", (0,)),
    GateOp("X", (0,)),
    GateOp("Z", (0,)),
    *(GateOp(kind, (0,), angle) for kind in ("RX", "RY", "RZ")
      for angle in (math.pi / 2, -math.pi / 2, math.pi, -math.pi)),
    GateOp("CZ", (0, 1)),
    GateOp("CNOT", (0, 1)),
    GateOp("CNOT", (1, 0)),
]


@pytest.mark.parametrize("gate", FRAME_GATES, ids=lambda g: f"{g.kind}{g.targets}{g.angle or ''}")
def test_frame_rule_matches_dense_conjugation(gate):
    """Each frame update equals U P U^dagger up to phase, for every Pauli P."""
    width = 2 if len(gate.targets) == 2 else 1
    paulis = list(product((0, 1), repeat=2 * width))
    x = np.array([p[:width] for p in paulis], dtype=bool)
    z = np.array([p[width:] for p in paulis], dtype=bool)
    new_x, new_z = x.copy(), z.copy()
    _conjugate(new_x, new_z, gate)
    u = gate_matrix(gate.kind, gate.angle)
    if gate.targets == (1, 0):
        swap = np.eye(4)[[0, 2, 1, 3]]
        u = swap @ u @ swap
    for row in range(len(paulis)):
        conjugated = u @ _dense_pauli(x[row], z[row]) @ u.conj().T
        expected = _dense_pauli(new_x[row], new_z[row])
        overlap = np.trace(expected.conj().T @ conjugated) / len(u)
        assert abs(abs(overlap) - 1.0) < 1e-12, (paulis[row], new_x[row], new_z[row])


class TestOutputFidelity:
    def test_ideal_against_itself(self):
        result = run_exact(build_constant_depth(2), noiseless(PLUS))
        assert output_fidelity(result, PLUS) == pytest.approx(1.0, abs=1e-10)

    def test_pole_input_gives_ground_output(self):
        inp = InputState(0.0, 0.0)
        result = run_exact(build_constant_depth(2), noiseless(inp))
        assert result.output_state.matrix[0, 0].real == pytest.approx(1.0, abs=1e-10)
        assert output_fidelity(result, inp) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_against_bell_target(self):
        result = run_exact(build_constant_depth(2), noiseless(PLUS))
        result.output_state = DensityState.maximally_mixed(2)
        assert output_fidelity(result, PLUS) == pytest.approx(0.25, abs=1e-12)


class TestJointX:
    def test_equator_input_saturates(self):
        result = run_exact(build_constant_depth(3), noiseless(PLUS))
        assert joint_x_expectation(result) == pytest.approx(1.0, abs=1e-9)

    def test_pole_input_vanishes(self):
        result = run_exact(build_constant_depth(3), noiseless(InputState(0.0, 0.0)))
        assert joint_x_expectation(result) == pytest.approx(0.0, abs=1e-9)

    def test_theta_sweep_traces_sine(self):
        circuit = build_constant_depth(2)
        for theta in np.linspace(0.0, math.pi, 7):
            result = run_exact(circuit, noiseless(InputState(float(theta), 0.0)))
            assert joint_x_expectation(result) == pytest.approx(
                math.sin(theta), abs=1e-9
            )

    def test_phi_sweep_traces_cosine(self):
        circuit = build_constant_depth(2)
        for phi in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
            result = run_exact(circuit, noiseless(InputState(math.pi / 2, float(phi))))
            assert joint_x_expectation(result) == pytest.approx(
                math.cos(phi), abs=1e-9
            )


class TestCardinalError:
    def test_noiseless_error_vanishes(self):
        assert cardinal_error(build_constant_depth(2)) == pytest.approx(0.0, abs=1e-9)
        assert cardinal_error(build_unitary(3)) == pytest.approx(0.0, abs=1e-9)

    def test_feedforward_two_outputs_near_measured(self):
        noise = NoiseModel.device_medians()
        eps = cardinal_error(build_constant_depth(2), noise)
        assert eps == pytest.approx(0.09, abs=0.03)

    def test_pauli_frame_two_outputs_near_measured(self):
        noise = NoiseModel.device_medians()
        eps = cardinal_error(build_constant_depth(2, family="pauli_frame"), noise)
        assert eps == pytest.approx(0.044, abs=0.03)

    def test_fidelity_is_input_independent(self):
        """Fidelity varies by at most +-0.03 over a (theta, phi) grid."""
        noise = NoiseModel.device_medians()
        circuit = build_constant_depth(2)
        fids = []
        for theta in (0.0, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi):
            for phi in (0.0, math.pi / 2):
                inp = InputState(theta, phi)
                result = run_exact(circuit, RunConfig(input=inp, noise=noise))
                fids.append(output_fidelity(result, inp))
        mean = float(np.mean(fids))
        assert max(abs(f - mean) for f in fids) <= 0.03


def test_serialize_run_result_structure():
    result = run_exact(build_constant_depth(2), noiseless(PLUS))
    text = serialize_run_result(result, PLUS)
    assert "fidelity = 1.0000000000" in text
    assert "duration_ns = 1888" in text
    assert "histogram:" in text


def test_noisy_recovery_option_adds_error():
    noise = NoiseModel.device_medians()
    circuit = build_constant_depth(2)
    clean = cardinal_error(circuit, noise, noisy_recovery=False)
    noisy = cardinal_error(circuit, noise, noisy_recovery=True)
    assert noisy > clean


if __name__ == "__main__":
    write_reference()
