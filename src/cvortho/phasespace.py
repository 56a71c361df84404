"""Phase-space observables: Wigner maps, quadrature marginals, detection loss.

Quadrature convention: x = (a + a_dag)/sqrt(2), [x, p] = i.  A coherent
state alpha then sits at (x, p) = (sqrt(2) Re alpha, sqrt(2) Im alpha) and
its quadrature variance is 1/2.  Wigner maps are normalized so that the
full phase-space integral is 1.
"""

from __future__ import annotations

import io
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .fock import DensityMatrix, _int_rule, _require

__all__ = [
    "PhaseGrid",
    "LossChannel",
    "hermite_functions",
    "wigner",
    "marginal",
    "apply_loss",
    "npy_bytes",
    "marginal_filename",
]


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular sampling grid in the (x, p) plane."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int
    ORDER = (lambda bounds: operator.lt(*bounds.values())), "ordered min < max"  # on {"x_min": ..., "x_max": ...}
    SIZE = _int_rule(2)

    def __post_init__(self):
        for axis in "xp":
            _require(f"{axis} bounds", self.ORDER, {f"{axis}_{end}": getattr(self, f"{axis}_{end}") for end in ("min", "max")})
        _require("nx", self.SIZE, self.nx)
        _require("np", self.SIZE, self.np)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ps(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)

    def integral(self, values) -> float:
        """Trapezoid integral of ``values[i, j]`` = f(x_i, p_j) over the grid, p first."""
        inner = np.trapezoid(values, self.ps(), axis=1)
        return float(np.trapezoid(inner, self.xs()))


@dataclass(frozen=True)
class LossChannel:
    """Detection-efficiency loss: a fraction eta of the signal survives."""

    eta: float
    ETA = (lambda v: 0.0 <= v <= 1.0), "a number in [0, 1]"

    def __post_init__(self):
        _require("eta", self.ETA, self.eta)


# ---------------------------------------------------------------------------
# harmonic-oscillator position eigenfunctions


# marginal's rule for its points, whose squares hermite_functions takes: |x| <= sqrt(max float) exactly when x*x is finite
_SQUARABLE = (lambda xs: bool(np.all(np.abs(xs) <= math.sqrt(sys.float_info.max)))), "points whose squares are finite"


def hermite_functions(xs, dim: int) -> np.ndarray:
    """Normalized oscillator eigenfunctions psi_n(x), rows n = 0..dim-1.

    Uses the upward three-term recurrence on the normalized functions
    (pi^(-1/4) scaling), which stays bounded where raw Hermite polynomials
    overflow.
    """
    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    out = np.zeros((dim, xs.shape[0]), dtype=np.float64)
    out[0] = math.pi ** (-0.25) * np.exp(-(xs**2) / 2.0)
    if dim > 1:
        out[1] = math.sqrt(2.0) * xs * out[0]
    for n in range(2, dim):
        out[n] = math.sqrt(2.0 / n) * xs * out[n - 1] - math.sqrt((n - 1) / n) * out[n - 2]
    return out


def _phase_matrix(phase: float, dim: int) -> np.ndarray:
    """F_ab = e^{i(b-a) phase}; |x_phase> has Fock amplitudes psi_n(x) e^{i n phase}."""
    m = np.exp(1j * phase * np.arange(dim))
    return np.outer(m.conj(), m)


def marginal(rho: DensityMatrix, phases, xs) -> np.ndarray:
    """Quadrature densities <x_phase| rho |x_phase> = sum_ab psi_a(x) psi_b(x) Re(rho_ab F_ab), read-only.

    Row k is the density at ``phases[k]`` on the points ``xs``, clipped at
    0; every row reads one table of Hermite functions.
    """
    _require("xs", _SQUARABLE, xs)
    d = rho.trunc.dim
    herm = hermite_functions(xs, d)
    dens = np.empty((len(phases), herm.shape[1]))
    for k, phase in enumerate(phases):
        dens[k] = np.einsum("ax,ax->x", herm, np.real(rho.elems * _phase_matrix(phase, d)) @ herm)
    np.clip(dens, 0.0, None, out=dens)
    dens.flags.writeable = False
    return dens


# ---------------------------------------------------------------------------
# Wigner function via the displaced-parity trace


def _support_level(weights: np.ndarray, eps: float = 1e-13) -> int:
    """Highest level carrying non-negligible probability weight."""
    tail = np.cumsum(weights[::-1])[::-1]
    occupied = np.nonzero(tail > eps)[0]
    return int(occupied[-1]) if occupied.size else 0


def _parity_dim(displacement2: float, support: int) -> int:
    """Basis size for accurate displaced-parity matrix elements.

    A displaced level-n state spreads around displacement2 + n with width
    of order sqrt(displacement2 * (n + 1)); the rule keeps the weight lost
    above the cutoff below ~1e-10.
    """
    return int(math.ceil(
        displacement2 + support + 3.8 * math.sqrt(displacement2 * (support + 1.0)) + 16.0
    ))


def _basis_side(x_bounds, p_bounds, dim: int, support: int) -> int:
    """Side of the parity basis for a ``dim``-level state with the given support, on a grid with these bounds.

    The farthest grid corner, with the displacement doubled by the parity
    fold, needs _parity_dim(2 (max|x|^2 + max|p|^2), support).
    """
    return max(dim, _parity_dim(2.0 * (max(map(abs, x_bounds)) ** 2 + max(map(abs, p_bounds)) ** 2), support))


# The last parity basis that wigner built, {key: arrays}; at most one entry, so a map on another basis or grid evicts it
_basis_slot: dict = {}


def _parity_basis(n: int, d: int, xs: np.ndarray, ps: np.ndarray) -> tuple:
    """The rho-independent half of a Wigner map on an n-level parity basis: (V[:d], diag U_dag, G, e^{2ipw}, e^{2iwx}).

    Kept read-only in ``_basis_slot`` under (n, d) and the bits of the grid
    axes ``xs`` and ``ps``, so ``-0.0`` and ``0.0`` bounds do not share an
    entry.  A miss clears the slot before building, so at most one basis is
    alive.
    """
    key = (n, d, xs.tobytes(), ps.tobytes())
    arrays = _basis_slot.get(key)
    if arrays is None:
        _basis_slot.clear()
        k = np.arange(n)
        w, v = eigh_tridiagonal(np.zeros(n), np.sqrt(k[1:] / 2.0))
        u_dag = np.array([1.0, -1j, -1.0, 1j])[k % 4]  # diagonal of U_dag
        # U_dag is real on even levels and imaginary on odd ones
        ev, od = v[0::2], v[1::2]
        gram = ev.T @ (u_dag[0::2].real[:, None] * ev) + 1j * (od.T @ (u_dag[1::2].imag[:, None] * od))
        # V[:d] keeps V's Fortran order, so the kernel products see the layout of V itself
        arrays = (v[:d].copy(order="F"), u_dag, gram, np.exp(2j * np.outer(ps, w)), np.exp(2j * np.outer(w, xs)))
        for arr in arrays:
            arr.flags.writeable = False
        _basis_slot[key] = arrays
    return arrays


def wigner(rho: DensityMatrix, grid: PhaseGrid) -> np.ndarray:
    """W(x_i, p_j) = (1/pi) Tr[rho D(g) P D(g)_dag], g = (x + i p)/sqrt2, as a read-only (nx, np) array.

    P is the photon-number parity.  Parity conjugation folds the two
    displacements into one, Tr[rho D(2g) P], with
    D(2g) = e^{-2ixp} exp(2ip X) exp(-2ix Q), X = (a + a_dag)/sqrt2 and
    Q = i(a_dag - a)/sqrt2.  Both factors come from one real Jacobi matrix
    J = X = V diag(w) V^T, a tridiagonal eigenproblem whose eigenvectors are
    the Hermite functions at the Gauss-Hermite nodes w (Golub & Welsch 1969).
    With U = diag(i^k), U_dag a U = i a, so Q = U_dag (-J) U: the x axis uses
    V_x = U_dag V and the p axis V_p = V.  The trace is one contraction,

        Tr[rho D(2g) P] = e^{-2ixp} sum_ab e^{2ipw_a} G_ab K_ab e^{2ixw_b},

    G = V_p^T V_x, K = (V_x_dag P rho V_p)^T.  It is linear in rho, so rho is
    not diagonalized: zero-padded (an exact embedding) into a basis large
    enough for the farthest corner, it meets only the first d rows of V.

    Everything but K depends only on (n, d, grid), so the last basis built
    stays in one read-only slot (``_parity_basis``) and the next map on the
    same basis and grid reuses it: 16 n^2 + 16 n (nx + np) bytes for G and
    the two axis exponentials, held until a map on another basis or grid
    replaces them.
    """
    xs, ps = grid.xs(), grid.ps()
    d = rho.trunc.dim
    support = _support_level(np.real(np.diag(rho.elems)))
    n = _basis_side((grid.x_min, grid.x_max), (grid.p_min, grid.p_max), d, support)
    vd, u_dag, gram, left, right = _parity_basis(n, d, xs, ps)
    # V_x_dag P = V^T U P = V^T U_dag, so K^T = V^T U_dag rho V on the first d rows
    m = left @ (gram * (vd.T @ (u_dag[:d, None] * rho.elems) @ vd).T) @ right
    w = np.real(np.exp(-2j * np.outer(xs, ps)) * m.T) / math.pi
    w.flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# detection-efficiency loss channel


def apply_loss(rho: DensityMatrix, channel: LossChannel) -> DensityMatrix:
    """Generalized Bernoulli loss map at efficiency eta.

    rho'_{mn} = sum_k sqrt(C(m+k,k) C(n+k,k)) eta^{(m+n)/2} (1-eta)^k rho_{m+k,n+k};
    trace-preserving and completely positive.  Coherent states map to
    coherent states with amplitude scaled by sqrt(eta).
    """
    eta = channel.eta
    if eta == 1.0:  # DensityMatrix is immutable, so the lossless map returns its input
        return rho
    n = rho.trunc.dim
    out = np.zeros((n, n), dtype=np.complex128)
    if eta == 0.0:
        out[0, 0] = 1.0
        return DensityMatrix(out, rho.trunc)
    idx = np.arange(n, dtype=np.float64)
    log_eta = math.log(eta)
    log_loss = math.log1p(-eta)
    for k in range(n):
        m = idx[: n - k]
        # 0.5*log C(m+k, k) + 0.5*m*log(eta), combined pairwise below
        half = 0.5 * (gammaln(m + k + 1) - gammaln(m + 1) - gammaln(k + 1)) + 0.5 * m * log_eta
        coef = np.exp(half[:, None] + half[None, :] + k * log_loss)
        out[: n - k, : n - k] += coef * rho.elems[k:, k:]
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(out, rho.trunc)


# ---------------------------------------------------------------------------
# file formats


def npy_bytes(array) -> bytes:
    """``.npy`` file (format 1.0) of ``array`` as little-endian float64 in C order; ``np.load`` reads it back."""
    array, buf = np.ascontiguousarray(array, dtype="<f8"), io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, np.lib.format.header_data_from_array_1_0(array))
    return b"".join((buf.getvalue(), array))  # one copy of the data, where np.save to a buffer makes two


def marginal_filename(prefix: str, phase: float) -> str:
    return f"{prefix}_phi{phase:.4f}.npy"
