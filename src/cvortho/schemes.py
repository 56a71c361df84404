"""Operator constructions: orthogonalizers, CV-qubit generator, heralded schemes.

Given any operator C and its mean <C> on a known input state, the operator
C - <C> 1 maps that input to a state orthogonal to it, and
C + (c - <C>) 1 superposes the input with its orthogonal at a weight set by
the coefficient c.  Two conditional beam-splitter realizations are modeled
explicitly, each taking only the parameters it reads, and each is that qubit
generator, ``orthogonalize(psi, spec, c)``, at the c that its parameters set
(t = cos(theta), r = sin(theta)): a photon-addition branch mixed with a
coherent ancilla |beta> gives t a_dag - r beta 1 on the signal after
heralding on |1>|0>, which reads the ancilla's |0> and |1> amplitudes, in
closed form, so c = <a_dag> - tan(theta) beta; a two-branch number scheme
gives t e^{i phi} a_dag a - r a a_dag, so c = <n> - r/(t e^{i phi} - r).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import (
    ZERO_NORM_TOL,
    StateVector,
    Truncation,
    TruncationError,
    beam_splitter_op,
    check_tail,
    expectation,
    ladder_operators,
    min_dim_for_coherent,
    _int_rule,
    _read_only,
    _require,
    _require_operator_on,
)

__all__ = [
    "OperatorKind",
    "OrthogonalizerSpec",
    "orthogonalize",
    "orthogonal_family",
    "two_operator_orthogonalizer",
    "heralded_addition_model",
    "number_scheme_model",
    "beta_for_addition_orthogonalizer",
    "theta_for_number_orthogonalizer",
]

_MEAN_MATCH_TOL = 1e-8
_DENOMINATOR_TOL = 1e-12
_ANGLE_TOL = 1e-12  # a sine or cosine of a beam-splitter angle this close to 0 counts as 0

# The refusal gate on the addition scheme's coherent ancilla: a herald basis of herald_dim levels, by default
# min(signal dim, 12), must hold it at this tail tolerance.  The |1>|0> click reads only the ancilla's |0> and |1>
# amplitudes, which come in closed form, so the basis changes no output, only which betas are refused.
_HERALD_DIM_CAP = 12
_HERALD_TAIL_TOL = 5e-3


class OperatorKind(Enum):
    CREATION = "creation"
    NUMBER = "number"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class OrthogonalizerSpec:
    """Choice of operator C together with its mean on the intended input.

    For ``NUMBER`` the mean is the mean photon number and must be real.
    ``CUSTOM`` carries the operator matrix explicitly, as a read-only complex
    copy of the caller's matrix.
    """

    kind: OperatorKind
    mean_value: complex
    operator: np.ndarray | None = None
    OPERATOR_SHAPE = (lambda shape: len(shape) == 2 and shape[0] == shape[1]), "a square matrix"

    def __post_init__(self):
        if self.kind is OperatorKind.NUMBER and abs(complex(self.mean_value).imag) >= 1e-12:
            raise ValueError("number-operator mean must be real")
        if self.kind is OperatorKind.CUSTOM and self.operator is None:
            raise ValueError("custom specs must carry the operator matrix")
        if self.kind is not OperatorKind.CUSTOM and self.operator is not None:
            raise ValueError("operator matrix is only meaningful for custom specs")
        if self.operator is not None:
            operator = np.array(self.operator, dtype=np.complex128)
            _require("operator shape", self.OPERATOR_SHAPE, operator.shape)
            object.__setattr__(self, "operator", _read_only(operator))

    @classmethod
    def from_state(cls, kind: OperatorKind, psi: StateVector, operator: np.ndarray | None = None):
        """Measure <C> on ``psi`` and record it as the spec mean; the kind and operator are checked first."""
        mean = expectation(_base_operator(cls(kind, 0.0, operator), psi.trunc), psi)
        return cls(kind, mean.real if kind is OperatorKind.NUMBER else mean, operator)


def _base_operator(spec: OrthogonalizerSpec, trunc: Truncation) -> np.ndarray:
    if spec.kind is OperatorKind.CREATION:
        return ladder_operators(trunc)[1]
    if spec.kind is OperatorKind.NUMBER:
        return ladder_operators(trunc)[2]
    _require_operator_on(spec.operator, trunc.dim)  # a spec built for another basis fails at its first use
    return spec.operator


# ---------------------------------------------------------------------------
# ideal operators


def _shifted(base: np.ndarray, shift: complex, psi: StateVector, context: str | None) -> StateVector:
    """(base - shift 1)|psi>, normalized, as one vector step; with a ``context``, tail-guarded under that name."""
    scale = 2.0 ** -max(0, math.frexp(max(abs(shift.real), abs(shift.imag)))[1])  # exact; a huge shift stays finite
    raw = scale * (base @ psi.amps) - (scale * shift) * psi.amps
    if np.linalg.norm(raw) < ZERO_NORM_TOL * scale:
        raise ValueError(f"the input is an eigenstate of the operator with eigenvalue {shift:.6g}; "
                         "the output norm, hence the success probability, drops to zero")
    out = StateVector(raw, psi.trunc)
    if context:
        check_tail(out, context=context)
    return out


def orthogonalize(psi: StateVector, spec: OrthogonalizerSpec, c: complex = 0.0) -> StateVector:
    """Apply C + (c - <C>) 1 and normalize: the orthogonalizer at c = 0, the qubit generator otherwise.

    The output is (c |psi> + |psi_perp>) / sqrt(|c|^2 + ||psi_perp||^2) with
    |psi_perp> = (C - <C>)|psi> orthogonal to ``psi``.  The recorded mean
    must match the measured expectation on ``psi`` (the premise is that this
    mean is known beforehand).  At c = 0 an eigenstate of C is rejected: its
    output norm, hence success probability, is zero.

    The output tail guard applies to the ladder-derived kinds, where the
    finite matrix approximates an infinite-dimensional operator and weight
    at the top level signals leakage; the creation kind guards its input
    too, whose top level the truncated a_dag drops.  Custom operators act
    on the truncated space by definition, so no guard applies to them.
    """
    if spec.kind is OperatorKind.CREATION:
        check_tail(psi, context="creation-operator input")
    base = _base_operator(spec, psi.trunc)
    measured = expectation(base, psi)
    if abs(measured - complex(spec.mean_value)) > _MEAN_MATCH_TOL:
        raise ValueError(
            f"spec mean {complex(spec.mean_value):.6g} does not match the measured "
            f"expectation {measured:.6g} on this input"
        )
    context = None if spec.kind is OperatorKind.CUSTOM else "transformed output"
    return _shifted(base, complex(spec.mean_value) - complex(c), psi, context)


def orthogonal_family(psi: StateVector, spec: OrthogonalizerSpec, k: int) -> list:
    """Repeated application of the creation-operator orthogonalizer O = a_dag - <a_dag> 1, <a_dag> on ``psi``.

    Returns the normalized states O^m |psi> for m = 1..k.  The first is
    ``orthogonalize(psi, spec)``, which checks the spec mean against ``psi``
    and guards its tail; the others apply O again by the same tail-guarded
    step.  The members are mutually orthogonal only for coherent input, where
    they are the displaced number states; on other input they need not be.
    """
    if spec.kind is not OperatorKind.CREATION:
        raise ValueError("the orthogonal family requires the creation-operator scheme")
    _require("k", _int_rule(1), k)
    family = [orthogonalize(psi, spec)]
    base = _base_operator(spec, psi.trunc)
    for _ in range(k - 1):
        family.append(_shifted(base, complex(spec.mean_value), family[-1], "orthogonal family member"))
    return family


def two_operator_orthogonalizer(c1: np.ndarray, c2: np.ndarray, psi: StateVector) -> np.ndarray:
    """C1 - (<C1>/<C2>) C2, orthogonalizing ``psi`` with two operators.

    Reduces to the single-operator form when C2 is the identity.
    """
    mean1 = expectation(c1, psi)
    mean2 = expectation(c2, psi)
    if abs(mean2) <= _DENOMINATOR_TOL:
        raise ValueError(f"<C2> = {mean2:.3e} vanishes on the input; the operator ratio is undefined")
    return _read_only(c1 - (mean1 / mean2) * c2)


# ---------------------------------------------------------------------------
# heralded beam-splitter realizations, with t = cos(theta) and r = sin(theta)


def beta_for_addition_orthogonalizer(mean_creation: complex, theta: float) -> complex:
    """Ancilla amplitude that tunes the addition scheme into an orthogonalizer.

    Solves r beta = t <a_dag> for beta at fixed theta, so that
    t a_dag - r beta 1 is t (a_dag - <a_dag>) 1.
    """
    # r = 0 leaves no ancilla path, and at t = 0 the tuned t a_dag - r beta is 0
    _require("theta", ((lambda v: min(abs(math.sin(v)), abs(math.cos(v))) >= _ANGLE_TOL),
                       "an angle with sin(theta) and cos(theta) nonzero"), theta)
    return (math.cos(theta) / math.sin(theta)) * complex(mean_creation)


def theta_for_number_orthogonalizer(n_mean: float) -> float:
    """Beam-splitter angle with r/(t - r) equal to the mean photon number."""
    _require("n_mean", ((lambda v: 0.0 <= v < math.inf), "a finite number >= 0"), n_mean)
    return math.atan(n_mean / (1.0 + n_mean))


def _herald_one_zero(theta: float, from_one_zero: np.ndarray, from_zero_one: np.ndarray,
                     signal_trunc: Truncation):
    """Signal state heralded by the click |1>|0> after the beam splitter.

    The splitter conserves photon number, so the click reads only the
    one-photon sector: ``from_one_zero`` and ``from_zero_one`` are the
    (unnormalized) signal vectors paired with the herald inputs |1>|0> and
    |0>|1>.  Returns the conditional signal state and the herald weight
    ||t from_one_zero - r from_zero_one||^2, the heralded signal's squared
    norm: not a probability, as the branches enter with unit weight.
    """
    row = beam_splitter_op(theta, 1)[0]
    amps = row[0] * from_one_zero + row[1] * from_zero_one
    weight = float(np.real(np.vdot(amps, amps)))
    if math.sqrt(weight) < ZERO_NORM_TOL:
        raise ValueError(f"herald outcome (1, 0) has vanishing weight ({weight:.3e})")
    return StateVector(amps, signal_trunc), weight


def heralded_addition_model(psi: StateVector, beta: complex, theta: float, herald_dim: int | None = None):
    """Physical realization of t a_dag - r beta 1 on the signal: the qubit generator
    ``orthogonalize(psi, spec, c)`` of the creation kind at c = <a_dag> - tan(theta) beta.

    The herald modes (idler, ancilla) carry a photon-addition branch
    |1>|beta> x a_dag|psi> and an identity branch |0>|beta> x |psi>; the
    complex ``beta`` sets the ancilla's phase too.  They meet on the beam
    splitter and are heralded on |1>|0>, which keeps the parts
    |1>|0> x anc_0 a_dag|psi> and |0>|1> x anc_1 |psi>, with the ancilla's exact
    amplitudes anc_0 = e^{-|beta|^2/2} and anc_1 = anc_0 beta.  Raises
    ``ValueError`` when the herald weight vanishes, as it does at large |beta|,
    and only then :class:`TruncationError` when |beta> does not fit
    ``herald_dim`` levels (by default min(signal dim, 12)), a gate that changes no
    output.  Returns the normalized conditional signal state and the herald weight
    ||t anc_0 a_dag|psi> - r anc_1 |psi>||^2, which is not a probability: at
    beta = 0 and theta = pi/4 it is (|alpha|^2 + 1) / 2 on a coherent |alpha>.
    """
    check_tail(psi, context="addition-scheme input")
    _, a_dag, _ = ladder_operators(psi.trunc)
    added = a_dag @ psi.amps
    check_tail(StateVector(added, psi.trunc), context="photon-added branch")

    beta = complex(beta)
    dim = min(psi.trunc.dim, _HERALD_DIM_CAP) if herald_dim is None else herald_dim
    _require("herald_dim", Truncation.DIM, dim)
    size = math.hypot(beta.real, beta.imag)  # abs() raises past the float range, and size * size gives inf there
    anc0 = math.exp(-size * size / 2.0)
    heralded = _herald_one_zero(theta, anc0 * added, anc0 * beta * psi.amps, psi.trunc)
    needed = min_dim_for_coherent(beta, _HERALD_TAIL_TOL)
    if needed > dim:
        raise TruncationError(f"a coherent ancilla of |beta|={size:.4g} needs herald.dim >= {needed} "
                              f"at tail_tol {_HERALD_TAIL_TOL:g}, got {dim}")
    return heralded


def number_scheme_model(psi: StateVector, theta: float, phi: float = 0.0):
    """Physical realization of t e^{i phi} a_dag a - r a a_dag on the signal: the qubit generator
    ``orthogonalize(psi, spec, c)`` of the number kind at c = <n> - r/(t e^{i phi} - r).

    Starts from the two-branch herald superposition
    e^{i phi} a_dag a |psi> x |1>|0> + a a_dag |psi> x |0>|1>, mixes the
    herald modes on the beam splitter, and heralds on |1>|0>.  The conditional
    operator is t e^{i phi} n - r (n + 1), as a a_dag = n + 1 below the top
    level: (t e^{i phi} - r)(n - r/(t e^{i phi} - r) 1) wherever c is finite,
    and -r 1, which returns the input, where t e^{i phi} = r (theta = pi/4 at
    phi = 0).  Returns the normalized conditional state and the herald weight.
    """
    check_tail(psi, context="number-scheme input")
    a, a_dag, n_op = ladder_operators(psi.trunc)
    branch_n = cmath.exp(1j * phi) * (n_op @ psi.amps)
    branch_an = a @ (a_dag @ psi.amps)
    return _herald_one_zero(theta, branch_n, branch_an, psi.trunc)
