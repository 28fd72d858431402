"""Simulator and compiler for discrete time crystals built from
quantum repetition codes.

Exact Pauli-rotation Floquet operators on coupled spin-1/2 chains, a
lowering pipeline down to iSWAP-plus-rotations circuits, logical
eigenstate oracles, and a disorder-sweep harness with figure presets.
"""

from .compiler import (
    Circuit,
    CompilationError,
    ISwapRotation,
    LOWERING_LEVELS,
    RotationGroup,
    decompose,
    lower_program,
    lower_rotation_native,
    lower_to_native,
    verify_equivalence,
)
from .disorder import (
    DisorderSpec,
    SeedPlan,
    sample_error_fraction,
    sample_init_jitter,
    sample_model_params,
)
from .floquet_oracle import (
    build_2t_eigenstates,
    build_logical_eigenstate,
    check_quasienergy_spectrum,
    predicted_quasienergy,
)
from .harness import (
    CapacityError,
    ConfigError,
    ExperimentConfig,
    PRESETS,
    RunRecord,
    describe,
    estimate_seconds,
    list_presets,
    load_config_file,
    run_experiment,
    run_realization,
)
from .models import (
    ChainLayout,
    CnotParams,
    FloquetProgram,
    Layer,
    MODELS,
    ModelParams,
    build_model,
    default_targets,
    ideal_model_params,
    logical_basis_index,
)
from .observables import (
    Spectrum,
    TimeSeries,
    power_spectrum,
    prepare_initial_state,
    stroboscopic_run,
    subharmonic_lifetime,
    subharmonic_score,
)
from .pauli import PauliRotation, PauliString, anticommutes, multiply
from .statevector import MAX_QUBITS, StateVector

__version__ = "0.1.0"
