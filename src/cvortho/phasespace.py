"""Phase-space observables: Wigner maps, quadrature marginals, detection loss.

Quadrature convention: x = (a + a_dag)/sqrt(2), [x, p] = i.  A coherent
state alpha then sits at (x, p) = (sqrt(2) Re alpha, sqrt(2) Im alpha) and
its quadrature variance is 1/2.  Wigner maps are normalized so that the
full phase-space integral is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .fock import DensityMatrix, Truncation, displacement_op

__all__ = [
    "PhaseGrid",
    "WignerMap",
    "QuadratureDistribution",
    "LossChannel",
    "hermite_functions",
    "wigner",
    "wigner_point",
    "marginal",
    "apply_loss",
    "wigner_grid_text",
    "read_wigner_grid",
    "marginal_csv_text",
    "marginal_filename",
]

WIGNER_CONVENTION = "x=(a+a†)/sqrt2"


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular sampling grid in the (x, p) plane."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.p_min < self.p_max):
            raise ValueError("grid bounds must satisfy min < max on both axes")
        if self.nx < 2 or self.np < 2:
            raise ValueError("grid needs at least 2 points per axis")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ps(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)


def default_grid() -> PhaseGrid:
    """Covers states with |alpha| <= 2 to tail weight below 1e-6."""
    return PhaseGrid(-6.0, 6.0, -6.0, 6.0, 241, 241)


@dataclass(frozen=True, eq=False)
class WignerMap:
    """Wigner values on a grid; values[i, j] = W(x_i, p_j)."""

    grid: PhaseGrid
    values: np.ndarray

    convention = WIGNER_CONVENTION

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != (self.grid.nx, self.grid.np):
            raise ValueError(f"value shape {vals.shape} does not match grid")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def integral(self) -> float:
        inner = np.trapezoid(self.values, self.grid.ps(), axis=1)
        return float(np.trapezoid(inner, self.grid.xs()))


@dataclass(frozen=True, eq=False)
class QuadratureDistribution:
    """Probability density of the rotated quadrature at one phase."""

    phase: float
    xs: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=np.float64).reshape(-1)
        dens = np.array(self.density, dtype=np.float64).reshape(-1)
        if xs.shape != dens.shape:
            raise ValueError("xs and density must have the same length")
        if np.any(dens < 0):
            raise ValueError("density must be nonnegative")
        xs.flags.writeable = False
        dens.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "density", dens)

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.xs))


@dataclass(frozen=True)
class LossChannel:
    """Detection-efficiency loss: a fraction eta of the signal survives."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")


# ---------------------------------------------------------------------------
# harmonic-oscillator position eigenfunctions


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


def marginal(rho: DensityMatrix, phase: float, xs) -> QuadratureDistribution:
    """Quadrature distribution <x_phase| rho |x_phase> = sum_ab psi_a(x) psi_b(x) Re(rho_ab F_ab)."""
    herm = hermite_functions(xs, rho.trunc.dim)
    form = np.real(rho.elems * _phase_matrix(phase, rho.trunc.dim))
    dens = np.einsum("ax,ax->x", herm, form @ herm)
    return QuadratureDistribution(phase, np.asarray(xs, dtype=np.float64), np.clip(dens, 0.0, None))


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


def wigner(rho: DensityMatrix, grid: PhaseGrid) -> WignerMap:
    """W(x, p) = (1/pi) Tr[rho D(g) P D(g)_dag], g = (x + i p)/sqrt2.

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
    """
    xs, ps = grid.xs(), grid.ps()
    d = rho.trunc.dim
    support = _support_level(np.real(np.diag(rho.elems)))
    reach2 = 2.0 * (max(abs(grid.x_min), abs(grid.x_max)) ** 2
                    + max(abs(grid.p_min), abs(grid.p_max)) ** 2)
    n = max(d, _parity_dim(reach2, support))

    k = np.arange(n)
    w, v = eigh_tridiagonal(np.zeros(n), np.sqrt(k[1:] / 2.0))
    u_dag = np.array([1.0, -1j, -1.0, 1j])[k % 4]  # diagonal of U_dag
    # V_x_dag P = V^T U P = V^T U_dag, so K^T = V^T U_dag rho V on the first d rows
    kern = (v[:d].T @ (u_dag[:d, None] * rho.elems) @ v[:d]).T
    # U_dag is real on even levels and imaginary on odd ones
    ev, od = v[0::2], v[1::2]
    gram = ev.T @ (u_dag[0::2].real[:, None] * ev) + 1j * (od.T @ (u_dag[1::2].imag[:, None] * od))
    m = np.exp(2j * np.outer(ps, w)) @ (gram * kern) @ np.exp(2j * np.outer(w, xs))
    return WignerMap(grid, np.real(np.exp(-2j * np.outer(xs, ps)) * m.T) / math.pi)


def wigner_point(rho: DensityMatrix, x: float, p: float) -> float:
    """Single-point Wigner value via the displacement operator directly.

    Slow reference path evaluating Tr[rho D(g) P D(g)_dag] with the matrix
    exponential; shares no machinery with :func:`wigner`'s folded sweep.
    """
    support = _support_level(np.real(np.diag(rho.elems)))
    n = max(rho.trunc.dim, _parity_dim((x * x + p * p) / 2.0, support))
    elems = np.zeros((n, n), dtype=np.complex128)
    elems[: rho.trunc.dim, : rho.trunc.dim] = rho.elems
    gamma = (x + 1j * p) / math.sqrt(2.0)
    d = displacement_op(gamma, Truncation(n)).elems
    parity = (-1.0) ** np.arange(n)
    inner = d.conj().T @ elems @ d
    return float(np.real(np.sum(parity * np.diag(inner))) / math.pi)


# ---------------------------------------------------------------------------
# detection-efficiency loss channel


def apply_loss(rho: DensityMatrix, channel: LossChannel) -> DensityMatrix:
    """Generalized Bernoulli loss map at efficiency eta.

    rho'_{mn} = sum_k sqrt(C(m+k,k) C(n+k,k)) eta^{(m+n)/2} (1-eta)^k rho_{m+k,n+k};
    trace-preserving and completely positive.  Coherent states map to
    coherent states with amplitude scaled by sqrt(eta).
    """
    eta = channel.eta
    n = rho.trunc.dim
    if eta == 1.0:
        return DensityMatrix(rho.elems.copy(), rho.trunc)
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


def wigner_grid_text(wmap: WignerMap) -> str:
    """Plain-text grid file; one row per fixed p, nx values per row."""
    g = wmap.grid
    lines = [
        f"# {g.x_min:.17g} {g.x_max:.17g} {g.nx}",
        f"# {g.p_min:.17g} {g.p_max:.17g} {g.np}",
        f"# convention {WIGNER_CONVENTION}",
    ]
    row = " ".join(["%.17g"] * g.nx)
    lines += [row % tuple(vals) for vals in wmap.values.T.tolist()]
    return "\n".join(lines) + "\n"


def read_wigner_grid(path) -> WignerMap:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    x_min, x_max, nx = lines[0][2:].split()
    p_min, p_max, np_ = lines[1][2:].split()
    grid = PhaseGrid(float(x_min), float(x_max), float(p_min), float(p_max), int(nx), int(np_))
    rows = [np.array([float(tok) for tok in ln.split()]) for ln in lines[3 : 3 + grid.np]]
    return WignerMap(grid, np.vstack(rows).T)


def marginal_filename(prefix: str, phase: float) -> str:
    return f"{prefix}_phi{phase:.4f}.csv"


def marginal_csv_text(dist: QuadratureDistribution) -> str:
    """CSV with header x,density; both columns to 17 significant digits."""
    return "x,density\n" + "".join(["%.17g,%.17g\n" % pair for pair in zip(dist.xs.tolist(), dist.density.tolist())])
