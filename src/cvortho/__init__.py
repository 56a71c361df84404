"""Truncated-Fock-space simulator for state orthogonalization and CV qubits.

Core layers: ``fock`` (states, operators, the sector beam splitter), ``schemes``
(orthogonalizers, qubit generator, conditional beam-splitter models),
``phasespace`` (Wigner maps, quadrature marginals, detection loss),
``homodyne`` (sampling and maximum-likelihood tomography), ``cli``
(config-driven experiment runner).
"""

__version__ = "0.1.0"

from .fock import (
    DensityMatrix,
    HeraldImpossibleError,
    ModeOperator,
    StateVector,
    Truncation,
    TruncationError,
    beam_splitter_op,
    coherent_state,
    density_from_json,
    density_json_text,
    density_to_json,
    displacement_op,
    expectation,
    fidelity,
    fock_state,
    identity_op,
    inner_product,
    ladder_operators,
    min_dim_for_coherent,
    project_density,
    project_state,
    state_from_json,
    state_to_json,
    unitarity_defect,
)
from .homodyne import (
    DataError,
    MaxLikTomography,
    QuadratureSamples,
    ReconstructionResult,
    SamplingPlan,
    maxlik_reconstruct,
    sample_quadratures,
    uniform_phases,
)
from .phasespace import (
    LossChannel,
    PhaseGrid,
    QuadratureDistribution,
    WignerMap,
    apply_loss,
    hermite_functions,
    marginal,
    wigner,
    wigner_point,
)
from .schemes import (
    DegenerateDenominatorError,
    EigenstateError,
    HeraldModel,
    OperatorKind,
    OrthogonalizerSpec,
    QubitSpec,
    SingularConfigurationError,
    beta_for_addition_orthogonalizer,
    build_orthogonalizer,
    heralded_addition_model,
    ideal_addition_operator,
    ideal_number_operator,
    number_scheme_model,
    orthogonal_family,
    orthogonalize,
    qubit_decomposition,
    qubit_operator,
    theta_for_number_orthogonalizer,
    two_operator_orthogonalizer,
)
