"""Constant-depth quantum fan-out simulator.

Exact and trajectory simulation of a teleportation-based fan-out gate with
mid-circuit measurement and classical feedforward, plus the matching noise
model, state tomography, and success-probability error scaling analysis.
"""

__version__ = "0.1.0"

from .circuits import (
    Circuit,
    FAMILIES,
    OccurrenceCounts,
    TimingModel,
    build_circuit,
    build_constant_depth,
    build_unitary,
    count_occurrences,
    idle_intervals,
    serialize_circuit,
)
from .engine import (
    RunConfig,
    RunResult,
    cardinal_error,
    joint_x_expectation,
    output_fidelity,
    run,
    run_exact,
    run_inputs,
    run_trajectory,
    target_state,
)
from .error_model import (
    ErrorRates,
    ScalingCurve,
    crossover,
    scaling_curve,
    total_error_average,
    total_error_individual,
)
from .feedforward import (
    BellOutcome,
    PauliFrame,
    RecoveryOp,
    adjust_pauli,
    build_lookup_table,
    frame_update,
    recovery_ops,
)
from .noise import (
    ConfusionMatrix,
    NoiseModel,
    apply_depolarizing,
    idle_error_probability,
    noisy_readout,
    sample_pauli_error,
)
from .states import (
    CARDINAL_INPUTS,
    DensityState,
    GateOp,
    InputState,
    PureState,
    QubitRegister,
    fidelity,
)

__all__ = [
    "BellOutcome",
    "CARDINAL_INPUTS",
    "Circuit",
    "ConfusionMatrix",
    "DensityState",
    "ErrorRates",
    "FAMILIES",
    "GateOp",
    "InputState",
    "NoiseModel",
    "OccurrenceCounts",
    "PauliFrame",
    "PureState",
    "QubitRegister",
    "RecoveryOp",
    "RunConfig",
    "RunResult",
    "ScalingCurve",
    "TimingModel",
    "adjust_pauli",
    "apply_depolarizing",
    "build_circuit",
    "build_constant_depth",
    "build_lookup_table",
    "build_unitary",
    "cardinal_error",
    "count_occurrences",
    "crossover",
    "fidelity",
    "frame_update",
    "idle_error_probability",
    "idle_intervals",
    "joint_x_expectation",
    "noisy_readout",
    "output_fidelity",
    "recovery_ops",
    "run",
    "run_exact",
    "run_inputs",
    "run_trajectory",
    "sample_pauli_error",
    "scaling_curve",
    "serialize_circuit",
    "target_state",
    "total_error_average",
    "total_error_individual",
]
