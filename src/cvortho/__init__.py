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
    StateVector,
    Truncation,
    TruncationError,
    beam_splitter_op,
    coherent_state,
    density_from_json,
    density_json_text,
    expectation,
    fidelity,
    fock_state,
    inner_product,
    ladder_operators,
    min_dim_for_coherent,
    project_density,
)
from .homodyne import (
    ReconstructionResult,
    maxlik_reconstruct,
    sample_quadratures,
    uniform_phases,
)
from .phasespace import (
    PhaseGrid,
    apply_loss,
    hermite_functions,
    marginal,
    wigner,
)
from .schemes import (
    OperatorKind,
    OrthogonalizerSpec,
    beta_for_addition_orthogonalizer,
    heralded_addition_model,
    ideal_addition_operator,
    ideal_number_operator,
    number_scheme_model,
    orthogonal_family,
    orthogonalize,
    theta_for_number_orthogonalizer,
    two_operator_orthogonalizer,
)
