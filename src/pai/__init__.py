"""Probabilistic angle interpolation for discretized quantum rotations.

Rotation gates whose angles are restricted to a finite grid ("notches",
e.g. the values representable in a B-bit angle register) cannot realize an
arbitrary target angle.  This package decomposes the target rotation
channel into a signed mixture of three realizable channels, samples
circuit variants from the mixture and reweights measurement outcomes so
that expectation-value estimates stay unbiased, at a quantifiable sampling
overhead.  It also provides the discretized-hardware baselines (nearest
rounding, sign-free two-notch interpolation), a spin-ring benchmark model
with Trotterized evolution and a variational ground-state loop, and a CLI
for the standard experiments.
"""

from .estimate import (
    EnumerationLimitError,
    EstimateResult,
    FidelityPoint,
    RmsPoint,
    ShotBank,
    continuous_expectation,
    continuous_shot_bank,
    exact_pai_expectation,
    nearest_notch_shot_bank,
    pai_estimate,
    pai_shot_bank,
    per_variant_rows,
    rms_vs_shots,
    two_notch_fidelity_profile,
)
from .models import (
    EstimatorConfig,
    SpinRingModel,
    TrotterSpec,
    VqeResult,
    dense_hamiltonian,
    energy,
    estimate_energy,
    gradient,
    ground_energy,
    hva_circuit,
    neel_prep_circuit,
    notch_floor_energy,
    spin_ring,
    trotter_circuit,
    vqe_run,
)
from .notch import (
    AnglePosition,
    NotchGrid,
    antipolar_notch,
    locate,
    nearest_notch,
    round_params_to_grid,
)
from .quasiprob import (
    CircuitDecomposition,
    DegenerateSettingsError,
    GateQuasiProb,
    decompose_circuit,
    decompose_gate,
    gamma_general,
    gamma_uniform,
    interpolation_residual,
    max_gates_for_bits,
    refined_overhead,
    settings_from_uniforms,
    worst_case_overhead,
)
from .rng import stream
from .statevector import (
    MAX_QUBITS,
    Observable,
    PauliString,
    Statevector,
    expectation,
    fidelity,
    pauli_expectation,
    run_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MAX_QUBITS",
    "PauliString",
    "Observable",
    "Statevector",
    "run_circuit",
    "pauli_expectation",
    "expectation",
    "fidelity",
    "NotchGrid",
    "AnglePosition",
    "locate",
    "nearest_notch",
    "antipolar_notch",
    "DegenerateSettingsError",
    "gamma_uniform",
    "gamma_general",
    "interpolation_residual",
    "GateQuasiProb",
    "decompose_gate",
    "CircuitDecomposition",
    "decompose_circuit",
    "settings_from_uniforms",
    "worst_case_overhead",
    "refined_overhead",
    "max_gates_for_bits",
    "EnumerationLimitError",
    "EstimateResult",
    "ShotBank",
    "FidelityPoint",
    "RmsPoint",
    "pai_shot_bank",
    "pai_estimate",
    "nearest_notch_shot_bank",
    "continuous_shot_bank",
    "continuous_expectation",
    "exact_pai_expectation",
    "two_notch_fidelity_profile",
    "rms_vs_shots",
    "per_variant_rows",
    "SpinRingModel",
    "spin_ring",
    "TrotterSpec",
    "trotter_circuit",
    "hva_circuit",
    "neel_prep_circuit",
    "energy",
    "dense_hamiltonian",
    "ground_energy",
    "EstimatorConfig",
    "estimate_energy",
    "gradient",
    "VqeResult",
    "vqe_run",
    "round_params_to_grid",
    "notch_floor_energy",
    "stream",
]
