"""Operator constructions: orthogonalizers, CV-qubit generator, heralded schemes.

Given any operator C and its mean <C> on a known input state, the operator
C - <C> 1 maps that input to a state orthogonal to it, and
C + (c - <C>) 1 superposes the input with its orthogonal at a weight set by
the coefficient c.  Two conditional beam-splitter realizations are modeled
explicitly: a photon-addition branch mixed with a coherent ancilla (giving
t a_dag - r beta 1 on the signal after heralding on |1>|0>), and a
two-branch number scheme (giving t e^{i phi} a_dag a - r a a_dag).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import (
    ZERO_NORM_TOL,
    HeraldImpossibleError,
    ModeOperator,
    StateVector,
    Truncation,
    beam_splitter_op,
    check_tail,
    coherent_state,
    expectation,
    identity_op,
    inner_product,
    ladder_operators,
)

__all__ = [
    "OperatorKind",
    "OrthogonalizerSpec",
    "QubitSpec",
    "HeraldModel",
    "EigenstateError",
    "SingularConfigurationError",
    "DegenerateDenominatorError",
    "build_orthogonalizer",
    "orthogonalize",
    "orthogonal_family",
    "qubit_operator",
    "qubit_decomposition",
    "two_operator_orthogonalizer",
    "heralded_addition_model",
    "number_scheme_model",
    "ideal_addition_operator",
    "ideal_number_operator",
    "beta_for_addition_orthogonalizer",
    "theta_for_number_orthogonalizer",
]

_MEAN_MATCH_TOL = 1e-8
_EIGENSTATE_TOL = 1e-12
_DENOMINATOR_TOL = 1e-12

# The herald truncation only has to hold the addition scheme's coherent
# ancilla well enough to calibrate success probabilities: the |1>|0> click
# reads the one-photon sector, so only the ancilla's |0> and |1> amplitudes
# enter, and the truncation acts only through the ancilla's renormalization,
# which scales the success probability by at most 1 / (1 - tail_tol).  A
# looser tail guard than the signal default is therefore safe.
_HERALD_DIM_CAP = 12
_HERALD_TAIL_TOL = 5e-3


class EigenstateError(ValueError):
    """Input is an eigenstate of the chosen operator; success probability is zero."""


class SingularConfigurationError(ValueError):
    """Beam-splitter setting t = r leaves the number scheme undefined."""


class DegenerateDenominatorError(ValueError):
    """<C2> vanishes on the input, so the two-operator ratio is undefined."""


class OperatorKind(Enum):
    CREATION = "creation"
    NUMBER = "number"
    CUSTOM = "custom"


@dataclass(frozen=True)
class OrthogonalizerSpec:
    """Choice of operator C together with its mean on the intended input.

    For ``NUMBER`` the mean is the mean photon number and must be real.
    ``CUSTOM`` carries the operator matrix explicitly.
    """

    kind: OperatorKind
    mean_value: complex
    operator: ModeOperator | None = None

    def __post_init__(self):
        if self.kind is OperatorKind.NUMBER and abs(complex(self.mean_value).imag) >= 1e-12:
            raise ValueError("number-operator mean must be real")
        if self.kind is OperatorKind.CUSTOM and self.operator is None:
            raise ValueError("custom specs must carry the operator matrix")
        if self.kind is not OperatorKind.CUSTOM and self.operator is not None:
            raise ValueError("operator matrix is only meaningful for custom specs")

    @classmethod
    def from_state(cls, kind: OperatorKind, psi: StateVector, operator: ModeOperator | None = None):
        """Measure <C> on ``psi`` and record it as the spec mean."""
        base = _base_operator(kind, psi.trunc, operator)
        mean = expectation(base, psi)
        if kind is OperatorKind.NUMBER:
            mean = mean.real
        return cls(kind, mean, operator)


@dataclass(frozen=True)
class QubitSpec:
    """Coefficient c and the resulting superposition weights.

    ``weight_input`` and ``weight_orthogonal`` are the amplitudes of the
    normalized output on the input state and its orthogonal, respectively;
    they must square-sum to 1.
    """

    c: complex
    weight_input: complex
    weight_orthogonal: complex

    def __post_init__(self):
        total = abs(self.weight_input) ** 2 + abs(self.weight_orthogonal) ** 2
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights must square-sum to 1, got {total:.12g}")


@dataclass(frozen=True)
class HeraldModel:
    """Conditional beam-splitter configuration.

    t = cos(theta) and r = sin(theta).  ``phi`` rotates the ancilla
    amplitude, so the addition scheme realizes t a_dag - r beta e^{i phi} 1.
    ``herald_trunc`` is the basis of the addition scheme's coherent ancilla
    and defaults to min(signal dim, 12) with a loose tail guard; the number
    scheme has no ancilla and ignores it.
    """

    beta: complex
    theta: float
    phi: float = 0.0
    herald_trunc: Truncation | None = None

    @property
    def t(self) -> float:
        return math.cos(self.theta)

    @property
    def r(self) -> float:
        return math.sin(self.theta)

    def herald_truncation(self, signal_trunc: Truncation) -> Truncation:
        if self.herald_trunc is not None:
            return self.herald_trunc
        return Truncation(min(signal_trunc.dim, _HERALD_DIM_CAP), tail_tol=_HERALD_TAIL_TOL)


def _base_operator(kind: OperatorKind, trunc: Truncation, operator: ModeOperator | None) -> ModeOperator:
    if kind is OperatorKind.CREATION:
        return ladder_operators(trunc)[1]
    if kind is OperatorKind.NUMBER:
        return ladder_operators(trunc)[2]
    if operator is None:
        raise ValueError("custom specs must carry the operator matrix")
    if operator.trunc.dim != trunc.dim:
        raise ValueError(f"dimension mismatch: {operator.trunc.dim} vs {trunc.dim}")
    return operator


# ---------------------------------------------------------------------------
# ideal operators


def build_orthogonalizer(spec: OrthogonalizerSpec, trunc: Truncation) -> ModeOperator:
    """C - <C> 1 for the operator named by ``spec``."""
    base = _base_operator(spec.kind, trunc, spec.operator)
    return base - complex(spec.mean_value) * identity_op(trunc)


def qubit_operator(spec: OrthogonalizerSpec, c: complex, trunc: Truncation) -> ModeOperator:
    """C + (c - <C>) 1; reduces to the orthogonalizer at c = 0.

    Applied to the matching input and normalized, the output decomposes as
    (c |psi> + |psi_perp>) / sqrt(1 + |c|^2) with unnormalized |psi_perp>
    direction (C - <C>)|psi>.  On coherent input with the creation operator
    this is the displaced qubit D(alpha)(|1> + c|0>) up to normalization.
    """
    base = _base_operator(spec.kind, trunc, spec.operator)
    return base + (complex(c) - complex(spec.mean_value)) * identity_op(trunc)


def orthogonalize(psi: StateVector, spec: OrthogonalizerSpec) -> StateVector:
    """Apply the orthogonalizer and normalize; output satisfies <psi|out> = 0.

    The recorded mean must match the measured expectation on ``psi`` (the
    premise is that this mean is known beforehand).  Eigenstates of C are
    rejected: their orthogonalized norm, hence success probability, is zero.

    The output tail guard applies to the ladder-derived kinds, where the
    finite matrix approximates an infinite-dimensional operator and weight
    at the top level signals leakage.  Custom operators act on the
    truncated space by definition, so no guard applies to them.
    """
    base = _base_operator(spec.kind, psi.trunc, spec.operator)
    measured = expectation(base, psi)
    if abs(measured - complex(spec.mean_value)) > _MEAN_MATCH_TOL:
        raise ValueError(
            f"spec mean {complex(spec.mean_value):.6g} does not match the measured "
            f"expectation {measured:.6g} on this input"
        )
    raw = base.apply(psi).amps - complex(spec.mean_value) * psi.amps
    nrm = float(np.linalg.norm(raw))
    if nrm < _EIGENSTATE_TOL:
        raise EigenstateError(
            "input is an eigenstate of the chosen operator; orthogonalization "
            "success probability drops to zero"
        )
    out = StateVector(raw / nrm, psi.trunc)
    if spec.kind is not OperatorKind.CUSTOM:
        check_tail(out, context="orthogonalized output")
    return out


def orthogonal_family(psi: StateVector, spec: OrthogonalizerSpec, k: int) -> list:
    """Repeated application of the creation-operator orthogonalizer.

    Returns the normalized states O^m |psi> for m = 1..k, which are mutually
    orthogonal (for coherent input they are the displaced number states).
    """
    if spec.kind is not OperatorKind.CREATION:
        raise ValueError("the orthogonal family requires the creation-operator scheme")
    if k < 1:
        raise ValueError("family size k must be >= 1")
    op = build_orthogonalizer(spec, psi.trunc).elems
    family = []
    cur = psi.amps
    for _ in range(k):
        cur = op @ cur
        nrm = float(np.linalg.norm(cur))
        if nrm < _EIGENSTATE_TOL:
            raise EigenstateError("repeated orthogonalization annihilated the state")
        cur = cur / nrm
        member = StateVector(cur, psi.trunc)
        check_tail(member, context="orthogonal family member")
        family.append(member)
    return family


def qubit_decomposition(psi: StateVector, spec: OrthogonalizerSpec, c: complex) -> QubitSpec:
    """Weights of the normalized qubit output on {input, orthogonal} basis."""
    psi_n = psi.normalized()
    perp = orthogonalize(psi_n, spec)
    out = qubit_operator(spec, c, psi.trunc).apply(psi_n).normalized()
    return QubitSpec(
        c=complex(c),
        weight_input=inner_product(psi_n, out),
        weight_orthogonal=inner_product(perp, out),
    )


def two_operator_orthogonalizer(c1: ModeOperator, c2: ModeOperator, psi: StateVector) -> ModeOperator:
    """C1 - (<C1>/<C2>) C2, orthogonalizing ``psi`` with two operators.

    Reduces to the single-operator form when C2 is the identity.
    """
    mean1 = expectation(c1, psi)
    mean2 = expectation(c2, psi)
    if abs(mean2) <= _DENOMINATOR_TOL:
        raise DegenerateDenominatorError(
            f"<C2> = {mean2:.3e} vanishes on the input; the operator ratio is undefined"
        )
    return c1 - (mean1 / mean2) * c2


# ---------------------------------------------------------------------------
# heralded beam-splitter realizations


def ideal_addition_operator(model: HeraldModel, trunc: Truncation) -> ModeOperator:
    """t a_dag - r beta e^{i phi} 1: the heralded addition scheme's target."""
    _, a_dag, _ = ladder_operators(trunc)
    shift = model.r * complex(model.beta) * cmath.exp(1j * model.phi)
    return model.t * a_dag - shift * identity_op(trunc)


def ideal_number_operator(model: HeraldModel, trunc: Truncation) -> ModeOperator:
    """t e^{i phi} a_dag a - r a a_dag: the number scheme's target."""
    a, a_dag, n_op = ladder_operators(trunc)
    return model.t * cmath.exp(1j * model.phi) * n_op - model.r * (a @ a_dag)


def beta_for_addition_orthogonalizer(mean_creation: complex, theta: float) -> complex:
    """Ancilla amplitude that tunes the addition scheme into an orthogonalizer.

    Solves r beta = t <a_dag> for beta at fixed theta (phi = 0), keeping the
    herald truncation requirement set by the beam-splitter angle alone.
    """
    r = math.sin(theta)
    if abs(r) < 1e-12:
        raise ValueError("theta = 0 leaves no ancilla path; cannot tune beta")
    return (math.cos(theta) / r) * complex(mean_creation)


def theta_for_number_orthogonalizer(n_mean: float) -> float:
    """Beam-splitter angle with r/(t - r) equal to the mean photon number."""
    if n_mean < 0:
        raise ValueError("mean photon number must be nonnegative")
    return math.atan(n_mean / (1.0 + n_mean))


def _herald_one_zero(theta: float, from_one_zero: np.ndarray, from_zero_one: np.ndarray,
                     signal_trunc: Truncation):
    """Signal state heralded by the click |1>|0> after the beam splitter.

    The splitter conserves photon number, so the click reads only the
    one-photon sector: ``from_one_zero`` and ``from_zero_one`` are the
    (unnormalized) signal vectors paired with the herald inputs |1>|0> and
    |0>|1>.  Returns the normalized conditional signal state and the
    outcome probability.
    """
    row = beam_splitter_op(theta, 1)[0]
    amps = row[0] * from_one_zero + row[1] * from_zero_one
    prob = float(np.real(np.vdot(amps, amps)))
    nrm = math.sqrt(prob)
    if nrm < ZERO_NORM_TOL:
        raise HeraldImpossibleError(f"herald outcome (1, 0) has vanishing probability ({prob:.3e})")
    return StateVector(amps / nrm, signal_trunc), prob


def heralded_addition_model(psi: StateVector, model: HeraldModel):
    """Physical realization of t a_dag - r beta e^{i phi} 1 on the signal.

    The herald modes (idler, ancilla) carry a photon-addition branch
    |1>|beta'> x a_dag|psi> and an identity branch |0>|beta'> x |psi>
    (beta' = beta e^{i phi}).  They meet on the beam splitter and are
    heralded on |1>|0>, which keeps the parts |1>|0> x anc_0 a_dag|psi> and
    |0>|1> x anc_1 |psi>, where anc_n are the ancilla amplitudes on the
    herald truncation.  Returns the normalized conditional signal state and
    the outcome probability.
    """
    check_tail(psi, context="addition-scheme input")
    _, a_dag, _ = ladder_operators(psi.trunc)
    added = a_dag.apply(psi)
    check_tail(added, context="photon-added branch")

    ht = model.herald_truncation(psi.trunc)
    ancilla = coherent_state(complex(model.beta) * cmath.exp(1j * model.phi), ht).amps
    return _herald_one_zero(model.theta, ancilla[0] * added.amps, ancilla[1] * psi.amps, psi.trunc)


def number_scheme_model(psi: StateVector, model: HeraldModel):
    """Physical realization of t e^{i phi} a_dag a - r a a_dag on the signal.

    Starts from the two-branch herald superposition
    e^{i phi} a_dag a |psi> x |1>|0> + a a_dag |psi> x |0>|1>, mixes the
    herald modes on the beam splitter, and heralds on |1>|0>.  At phi = 0
    the conditional operator is proportional to n - r/(t-r) 1 on the
    commutator-valid subspace.
    """
    if abs(model.t - model.r) < 1e-12:
        raise SingularConfigurationError(
            "t = r makes the heralded number operator's identity weight diverge"
        )
    check_tail(psi, context="number-scheme input")
    a, a_dag, n_op = ladder_operators(psi.trunc)
    branch_n = cmath.exp(1j * model.phi) * n_op.apply(psi).amps
    branch_an = (a @ a_dag).apply(psi).amps
    return _herald_one_zero(model.theta, branch_n, branch_an, psi.trunc)
