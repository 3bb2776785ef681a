"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` replaces the public functions of each fanout_sim module
with wrappers: class methods on ``PureState``/``DensityState`` and the
``Circuit.measure_count`` property on their classes, and module functions
in every fanout_sim module that holds them as an attribute (the way
``engine`` and ``cli`` import them). A wrapper records one span (name,
start, end, parent) per call. A function's self time is the sum of its
spans' durations minus the time covered by their child spans.

For every call into ``states`` or ``noise.apply_depolarizing`` the tracer
also records the largest register seen (``states.peak_qubits``) and a
computed byte count (``states.bytes_touched_computed``): one read and one
write of each state argument's array as it was at entry. The count ignores
temporaries and caches, so it is computed, not measured.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

from fanout_sim import (
    circuits,
    cli,
    engine,
    error_model,
    feedforward,
    noise,
    states,
    tomography,
)

_PURE, _DENSITY = states.PureState, states.DensityState

#: (metric name, owner, attribute). A name listed twice sums both owners.
TARGETS = (
    ("states.density.apply_matrix", _DENSITY, "apply_matrix"),
    ("states.pure.apply_matrix", _PURE, "apply_matrix"),
    ("states.branch_z", _DENSITY, "branch_z"),
    ("states.branch_z", _PURE, "branch_z"),
    ("states.discard_qubits", _DENSITY, "discard_qubits"),
    ("states.remove_collapsed", _PURE, "remove_collapsed"),
    ("states.measure_z", _DENSITY, "measure_z"),
    ("states.measure_z", _PURE, "measure_z"),
    ("states.expectation", _DENSITY, "expectation"),
    ("states.expectation", _PURE, "expectation"),
    ("states.fidelity", states, "fidelity"),
    ("noise.apply_depolarizing", noise, "apply_depolarizing"),
    ("noise.sample_pauli_error", noise, "sample_pauli_error"),
    ("noise.noisy_readout", noise, "noisy_readout"),
    ("circuits.build_circuit", circuits, "build_circuit"),
    ("circuits.idle_events", circuits, "idle_events"),
    ("circuits.measure_count", circuits.Circuit, "measure_count"),
    ("feedforward.build_lookup_table", feedforward, "build_lookup_table"),
    ("feedforward.frame_update", feedforward, "frame_update"),
    ("feedforward.adjust_pauli", feedforward, "adjust_pauli"),
    ("engine.run_exact", engine, "run_exact"),
    ("engine.run_trajectory", engine, "run_trajectory"),
    ("engine.output_fidelity", engine, "output_fidelity"),
    ("engine.joint_x_expectation", engine, "joint_x_expectation"),
    ("tomography.collect_tomogram", tomography, "collect_tomogram"),
    ("tomography.reconstruct", tomography, "reconstruct"),
    ("tomography.pauli_table", tomography, "pauli_table"),
    ("tomography.contrast_fit", tomography, "contrast_fit"),
    ("error_model.scaling_curve", error_model, "scaling_curve"),
    ("error_model.crossover", error_model, "crossover"),
    ("cli.main", cli, "main"),
)

#: Modules that every workload calls; their self times are per-layer metrics.
#: A function or module that a workload never calls has a self time of
#: exactly zero on every run, so those stay in the report only.
ALWAYS_EXERCISED = ("states", "noise", "circuits", "engine")


def target_names() -> list[str]:
    return list(dict.fromkeys(name for name, _, _ in TARGETS))


def module_totals(self_s: dict[str, float]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        totals[name.split(".")[0]] += value
    return dict(totals)


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if key == "fanout_sim" or key.startswith("fanout_sim.")]


class Tracer:
    def __init__(self):
        self._names = target_names()
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.peak_qubits = 0
        self.bytes_touched = 0

    def reset(self) -> None:
        for arr in (self._start, self._end, self._name, self._parent):
            del arr[:]
        self.peak_qubits = 0
        self.bytes_touched = 0

    def install(self) -> None:
        for name, owner, attr in TARGETS:
            sized = name.startswith("states.") or name == "noise.apply_depolarizing"
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    patched = property(self._wrap(name, original.fget, sized))
                else:
                    patched = self._wrap(name, original, sized)
                self._patch(owner, attr, patched)
                continue
            original = getattr(owner, attr)
            patched = self._wrap(name, original, sized)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, sized: bool):
        nid = self._names.index(name)
        starts, ends, names, parents = self._start, self._end, self._name, self._parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sized:
                self._size(args)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _size(self, args) -> None:
        for arg in args:
            if isinstance(arg, _DENSITY):
                self.bytes_touched += 2 * arg.matrix.nbytes
            elif isinstance(arg, _PURE):
                self.bytes_touched += 2 * arg.amplitudes.nbytes
            else:
                continue
            self.peak_qubits = max(self.peak_qubits, arg.n)

    def summary(self) -> dict:
        """Call counts and self times per name over the spans recorded so far."""
        count = len(self._name)
        durations = [self._end[i] - self._start[i] for i in range(count)]
        child = [0.0] * count
        for i, parent in enumerate(self._parent):
            if parent >= 0:
                child[parent] += durations[i]
        calls = Counter({name: 0 for name in self._names})
        self_s = {name: 0.0 for name in self._names}
        for i, nid in enumerate(self._name):
            name = self._names[nid]
            calls[name] += 1
            self_s[name] += durations[i] - child[i]
        counts = dict(calls)
        counts["states.peak_qubits"] = self.peak_qubits
        counts["states.bytes_touched_computed"] = self.bytes_touched
        return {"counts": counts, "self_s": self_s}
