"""fockforge: truncated-Fock-space laboratory for measurement-induced
nonlinearities in passive linear optics."""

from .fock import (
    CutoffTooSmallError,
    FockBasis,
    FockOperator,
    MixedState,
    PerModeCutoff,
    PureState,
    TotalPhotonCutoff,
    coherent_state,
    displacement_operator,
    number_polynomial,
    partial_trace,
)
from .interferometer import (
    BeamSplitterParams,
    ModeUnitary,
    NetworkDescription,
    PhaseShifterParams,
    bs_matrix,
    compose,
    random_unitary,
)
from .permanent import (
    PermanentSizeError,
    check_appendix_bounds,
    permanent_naive,
    permanent_ryser,
    subpermanent,
)
from .conditioning import (
    AncillaSpec,
    ConditionalExtractor,
    ConditionalOperator,
    DetectionSpec,
    extract_conditional_operator,
    extract_with_ancilla_state,
    lift_unitary,
    success_probability,
    verify_proposition,
)
from .optimizer import (
    InfeasibleAtBudgetError,
    Objective,
    OptimizationResult,
    optimize_gate,
)
from .gates import (
    cnot_obstruction_search,
    cphase_gate,
    engineer_state,
    hadamard_gate,
    kill_operator,
    nss_gate_klm,
    pauli_xy_gate,
    procrustean_filter,
    ralph_cz_check,
    su3_phase_gate,
    swap_gate,
    tmsv_state,
    vacuum_detector_transmissions,
)
from .lossy import (
    DetectorModel,
    LossyBSParams,
    choose_T_for_sigma_z,
    noisy_sigma_z_experiment,
    povm_element,
)

__version__ = "0.1.0"
