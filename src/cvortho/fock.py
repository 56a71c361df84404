"""Truncated-Fock-space linear algebra: states, operators, the beam splitter.

A single bosonic mode is represented on the number basis |0>, ..., |N-1>.
The two-mode beam splitter conserves the total photon number, so it is
given one photon-number sector at a time; no truncation enters there.

All containers are immutable: arrays are copied on construction and marked
read-only, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "ZERO_NORM_TOL",
    "Truncation",
    "StateVector",
    "DensityMatrix",
    "ModeOperator",
    "TruncationError",
    "HeraldImpossibleError",
    "fock_state",
    "coherent_state",
    "min_dim_for_coherent",
    "ladder_operators",
    "identity_op",
    "displacement_op",
    "beam_splitter_op",
    "inner_product",
    "expectation",
    "fidelity",
    "unitarity_defect",
    "check_tail",
    "project_state",
    "project_density",
    "state_to_json",
    "state_from_json",
    "density_to_json",
    "density_from_json",
]

# Conditional states with norm below this are treated as impossible outcomes;
# below double-precision meaningfulness for normalized inputs.
ZERO_NORM_TOL = 1e-12

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10


class TruncationError(ValueError):
    """A state carries too much probability weight at the top basis level.

    Carries ``suggested_dim``, a dimension expected to be large enough.
    """

    def __init__(self, message: str, suggested_dim: int | None = None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


class HeraldImpossibleError(ValueError):
    """The requested herald outcome has (numerically) zero probability."""


@dataclass(frozen=True)
class Truncation:
    """Fock-basis cutoff keeping levels |0> ... |dim-1>.

    ``tail_tol`` bounds the probability weight an admitted state may carry
    at the top retained level; operations that can push weight upward
    (displacement, photon addition) check it and fail loudly.
    """

    dim: int
    tail_tol: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"truncation dim must be an integer >= 2, got {self.dim!r}")
        if self.tail_tol < 0:
            raise ValueError(f"tail_tol must be >= 0, got {self.tail_tol!r}")


def _freeze(obj, name, arr):
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of one mode: complex amplitudes over the number basis.

    Not necessarily normalized; conditional states carry their norm as a
    success amplitude.  Use :meth:`normalized` before overlap comparisons.
    """

    amps: np.ndarray
    trunc: Truncation

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != self.trunc.dim:
            raise ValueError(
                f"amplitude count {amps.shape[0]} does not match truncation dim {self.trunc.dim}"
            )
        _freeze(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.trunc.dim

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    @property
    def top_weight(self) -> float:
        """Probability weight at the top retained level, relative to the norm."""
        n2 = self.norm**2
        if n2 == 0.0:
            return 0.0
        return float(abs(self.amps[-1]) ** 2 / n2)

    def normalized(self) -> "StateVector":
        n = self.norm
        if n < ZERO_NORM_TOL:
            raise ValueError("cannot normalize a (numerically) zero state")
        return StateVector(self.amps / n, self.trunc)

    def to_density(self) -> "DensityMatrix":
        psi = self.normalized()
        return DensityMatrix(np.outer(psi.amps, psi.amps.conj()), self.trunc)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix over the basis."""

    elems: np.ndarray
    trunc: Truncation

    def __post_init__(self):
        elems = np.array(self.elems, dtype=np.complex128)
        if elems.shape != (self.trunc.dim, self.trunc.dim):
            raise ValueError(
                f"matrix shape {elems.shape} does not match truncation dim {self.trunc.dim}"
            )
        herm_defect = float(np.max(np.abs(elems - elems.conj().T)))
        if herm_defect > _HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        tr = complex(np.trace(elems))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace {tr:.12g} deviates from 1 beyond {_TRACE_TOL:g}")
        lo = float(np.min(np.linalg.eigvalsh(elems)))
        if lo < _EIGENVALUE_FLOOR:
            raise ValueError(f"matrix has negative eigenvalue {lo:.3e}")
        _freeze(self, "elems", elems)

    @property
    def dim(self) -> int:
        return self.trunc.dim


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """General complex matrix acting on one mode."""

    elems: np.ndarray
    trunc: Truncation

    def __post_init__(self):
        elems = np.array(self.elems, dtype=np.complex128)
        if elems.shape != (self.trunc.dim, self.trunc.dim):
            raise ValueError(
                f"matrix shape {elems.shape} does not match truncation dim {self.trunc.dim}"
            )
        _freeze(self, "elems", elems)

    @property
    def dim(self) -> int:
        return self.trunc.dim

    @property
    def dag(self) -> "ModeOperator":
        return ModeOperator(self.elems.conj().T, self.trunc)

    def apply(self, psi: StateVector) -> StateVector:
        """Apply to a state; the result is generally unnormalized."""
        _require_same_dim(self, psi)
        return StateVector(self.elems @ psi.amps, psi.trunc)

    def __matmul__(self, other):
        if isinstance(other, ModeOperator):
            _require_same_dim(self, other)
            return ModeOperator(self.elems @ other.elems, self.trunc)
        if isinstance(other, StateVector):
            return self.apply(other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, ModeOperator):
            _require_same_dim(self, other)
            return ModeOperator(self.elems + other.elems, self.trunc)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ModeOperator):
            _require_same_dim(self, other)
            return ModeOperator(self.elems - other.elems, self.trunc)
        return NotImplemented

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.number)):
            return ModeOperator(self.elems * scalar, self.trunc)
        return NotImplemented

    __rmul__ = __mul__


def _require_same_dim(x, y):
    dx = x.trunc.dim if hasattr(x, "trunc") else x.dim
    dy = y.trunc.dim if hasattr(y, "trunc") else y.dim
    if dx != dy:
        raise ValueError(f"dimension mismatch: {dx} vs {dy}")


# ---------------------------------------------------------------------------
# constructors


def fock_state(n: int, trunc: Truncation) -> StateVector:
    """Number state |n>."""
    if not 0 <= n < trunc.dim:
        raise ValueError(f"level {n} outside the truncated basis 0..{trunc.dim - 1}")
    amps = np.zeros(trunc.dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(amps, trunc)


def min_dim_for_coherent(alpha: complex, tail_tol: float) -> int:
    """Smallest dim such that a coherent state fits under the tail guard.

    The returned N keeps the Poisson weight at and beyond level N-1 below
    ``tail_tol``, so the constructed state satisfies the admission invariant.
    """
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 2
    p = math.exp(-lam)
    cum = p
    m = 0
    while 1.0 - cum > tail_tol:
        m += 1
        p *= lam / m
        cum += p
        if m > 100000:
            raise ValueError(f"no finite truncation reaches tail_tol {tail_tol:g}")
    return max(m + 2, 2)


def coherent_state(alpha: complex, trunc: Truncation) -> StateVector:
    """Coherent state with amplitude ``alpha``, renormalized on the basis.

    Amplitudes follow the Poissonian closed form exp(-|a|^2/2) a^n / sqrt(n!).
    Raises :class:`TruncationError` when the truncation cannot hold the state.
    """
    needed = min_dim_for_coherent(alpha, trunc.tail_tol)
    if trunc.dim < needed:
        raise TruncationError(
            f"coherent amplitude |alpha|={abs(alpha):.4g} needs dim >= {needed} at "
            f"tail_tol {trunc.tail_tol:g}, got {trunc.dim}",
            suggested_dim=needed,
        )
    amps = np.zeros(trunc.dim, dtype=np.complex128)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, trunc.dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return StateVector(amps / np.linalg.norm(amps), trunc)


def ladder_operators(trunc: Truncation):
    """Annihilation, creation, and number operators (a, a_dag, n).

    a|n> = sqrt(n)|n-1> and a_dag|n> = sqrt(n+1)|n+1> for n < N-1; the top
    level is annihilated by a_dag, so [a, a_dag] = 1 only on levels 0..N-2.
    n = a_dag a is formed on its diagonal, sqrt(k) * sqrt(k), which gives
    the same floats as the dense product at O(N) cost.
    """
    offdiag = np.sqrt(np.arange(1, trunc.dim, dtype=np.float64))
    a = ModeOperator(np.diag(offdiag, k=1), trunc)
    return a, a.dag, ModeOperator(np.diag(np.concatenate(([0.0], offdiag * offdiag))), trunc)


def identity_op(trunc: Truncation) -> ModeOperator:
    return ModeOperator(np.eye(trunc.dim, dtype=np.complex128), trunc)


def displacement_op(alpha: complex, trunc: Truncation) -> ModeOperator:
    """Displacement exp(alpha a_dag - conj(alpha) a) on the finite matrix.

    Computed by scaling-and-squaring of the truncated generator; unitary on
    the low-excitation subspace up to truncation error (see
    :func:`unitarity_defect` for the diagnostic norm).
    """
    a, a_dag, _ = ladder_operators(trunc)
    gen = alpha * a_dag.elems - np.conj(alpha) * a.elems
    return ModeOperator(expm(gen), trunc)


def unitarity_defect(op) -> float:
    """sup-norm of U_dag U - 1; reports truncation-induced degradation."""
    u = op.elems
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def beam_splitter_op(theta: float, total: int) -> np.ndarray:
    """Beam-splitter unitary on the sector n1 + n2 = ``total``, with t = cos(theta), r = sin(theta).

    Returns the real (total+1) x (total+1) block over the basis |total-k, k>,
    k = 0..total, as exp(theta G) with the tridiagonal sector generator
    G[k+1, k] = sqrt((total-k)(k+1)) = -G[k, k+1].  The splitter conserves
    the total photon number, so the block is exact; no truncation enters.

    Convention (fixed): conjugation maps the mode-1 creation operator to
    t*(mode 1) + r*(mode 2) and the mode-2 creation operator to
    -r*(mode 1) + t*(mode 2).  Consequently the one-photon block is
    [[t, -r], [r, t]], i.e. B|1,0> = t|1,0> + r|0,1>, and on coherent input
    B (|0> x |beta>) = |-r beta> x |t beta>.
    """
    if isinstance(total, bool) or not isinstance(total, (int, np.integer)) or total < 0:
        raise ValueError(f"photon-number sector must be an integer >= 0, got {total!r}")
    k = np.arange(total, dtype=np.float64)
    offdiag = np.sqrt((total - k) * (k + 1))
    gen = np.diag(offdiag, k=-1) - np.diag(offdiag, k=1)
    block = expm(theta * gen)
    block.flags.writeable = False
    return block


# ---------------------------------------------------------------------------
# scalars


def inner_product(u: StateVector, v: StateVector) -> complex:
    """<u|v>, conjugate-linear in the first argument."""
    _require_same_dim(u, v)
    return complex(np.vdot(u.amps, v.amps))


def expectation(op: ModeOperator, state) -> complex:
    """<O> on a StateVector (assumed normalized) or a DensityMatrix."""
    _require_same_dim(op, state)
    if isinstance(state, DensityMatrix):
        return complex(np.trace(state.elems @ op.elems))
    return complex(np.vdot(state.amps, op.elems @ state.amps))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(x, y) -> float:
    """Fidelity in [0, 1]: |<x|y>|^2 for pure states, Uhlmann for mixed."""
    if isinstance(x, StateVector) and isinstance(y, StateVector):
        val = abs(inner_product(x, y)) ** 2
    elif isinstance(x, StateVector) and isinstance(y, DensityMatrix):
        _require_same_dim(x, y)
        val = float(np.real(np.vdot(x.amps, y.elems @ x.amps)))
    elif isinstance(x, DensityMatrix) and isinstance(y, StateVector):
        return fidelity(y, x)
    elif isinstance(x, DensityMatrix) and isinstance(y, DensityMatrix):
        _require_same_dim(x, y)
        s = _psd_sqrt(x.elems)
        inner = s @ y.elems @ s
        vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
        val = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)
    else:
        raise TypeError("fidelity expects StateVector or DensityMatrix arguments")
    return float(min(max(val, 0.0), 1.0))


# ---------------------------------------------------------------------------
# truncation bookkeeping


def check_tail(state: StateVector, context: str = "") -> None:
    """Raise :class:`TruncationError` when the top-level weight is too large."""
    w = state.top_weight
    tol = state.trunc.tail_tol
    if w > tol:
        dim = state.trunc.dim
        suggested = dim + max(8, dim // 2)
        where = f" ({context})" if context else ""
        raise TruncationError(
            f"top-level weight {w:.3e} exceeds tail_tol {tol:g}{where}; "
            f"retry with dim >= {suggested}",
            suggested_dim=suggested,
        )


def project_state(psi: StateVector, trunc: Truncation) -> StateVector:
    """Cut a state down to a smaller truncation and renormalize."""
    if trunc.dim > psi.trunc.dim:
        raise ValueError("projection target must not be larger than the source")
    cut = psi.amps[: trunc.dim]
    n = np.linalg.norm(cut)
    if n < ZERO_NORM_TOL:
        raise ValueError("state has no weight inside the projection target")
    return StateVector(cut / n, trunc)


def project_density(rho: DensityMatrix, trunc: Truncation) -> DensityMatrix:
    """Cut a density matrix down to a smaller truncation and renormalize."""
    if trunc.dim > rho.trunc.dim:
        raise ValueError("projection target must not be larger than the source")
    block = rho.elems[: trunc.dim, : trunc.dim]
    tr = float(np.real(np.trace(block)))
    if tr < ZERO_NORM_TOL:
        raise ValueError("density matrix has no weight inside the projection target")
    return DensityMatrix(block / tr, trunc)


# ---------------------------------------------------------------------------
# serialization: {"dim": N, "data": row-major [re, im] pairs}


def state_to_json(psi: StateVector) -> dict:
    data = [[float(z.real), float(z.imag)] for z in psi.amps]
    return {"dim": psi.trunc.dim, "data": data}


def state_from_json(obj: dict, tail_tol: float = 1e-8) -> StateVector:
    dim = int(obj["dim"])
    data = np.asarray(obj["data"], dtype=np.float64)
    if data.shape != (dim, 2):
        raise ValueError(f"state data shape {data.shape} does not match dim {dim}")
    return StateVector(data[:, 0] + 1j * data[:, 1], Truncation(dim, tail_tol))


def density_to_json(rho: DensityMatrix) -> dict:
    flat = rho.elems.reshape(-1)
    data = [[float(z.real), float(z.imag)] for z in flat]
    return {"dim": rho.trunc.dim, "data": data}


def density_from_json(obj: dict, tail_tol: float = 1e-8) -> DensityMatrix:
    dim = int(obj["dim"])
    data = np.asarray(obj["data"], dtype=np.float64)
    if data.shape != (dim * dim, 2):
        raise ValueError(f"density data shape {data.shape} does not match dim {dim}")
    elems = (data[:, 0] + 1j * data[:, 1]).reshape(dim, dim)
    return DensityMatrix(elems, Truncation(dim, tail_tol))
