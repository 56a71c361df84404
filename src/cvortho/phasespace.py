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
from scipy.special import gammaln

from .fock import DensityMatrix, Truncation, displacement_op, ladder_operators

__all__ = [
    "PhaseGrid",
    "WignerMap",
    "QuadratureDistribution",
    "LossChannel",
    "hermite_functions",
    "quadrature_kernel",
    "wigner",
    "wigner_point",
    "marginal",
    "apply_loss",
    "write_wigner_grid",
    "read_wigner_grid",
    "write_marginal_csv",
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


def quadrature_kernel(phase: float, xs, dim: int) -> np.ndarray:
    """Vectors u with u[n, j] = psi_n(x_j) exp(i n phase).

    Column j is the Fock-basis expansion of the quadrature eigenvector
    |x_j> at local-oscillator phase ``phase``; both the marginal formula
    and the tomography projectors are built from it.
    """
    herm = hermite_functions(xs, dim)
    phases = np.exp(1j * phase * np.arange(dim))
    return herm * phases[:, None]


def marginal(rho: DensityMatrix, phase: float, xs) -> QuadratureDistribution:
    """Quadrature distribution pr(x; phase) = <x_phase| rho |x_phase>."""
    u = quadrature_kernel(phase, xs, rho.trunc.dim)
    dens = np.real(np.einsum("nx,nx->x", u.conj(), rho.elems @ u))
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


def _axis_eigensystem(dim: int, along_p: bool):
    """Eigendecomposition of the Hermitian generator of one-axis displacements.

    exp(v * gen) = V e^{-i v w} V_dag, with gen = (a_dag - a)/sqrt2 for the
    x axis and gen = i (a_dag + a)/sqrt2 for the p axis.
    """
    a = ladder_operators(Truncation(dim))[0].elems
    if along_p:
        gen = 1j * (a.conj().T + a) / math.sqrt(2.0)
    else:
        gen = (a.conj().T - a) / math.sqrt(2.0)
    return np.linalg.eigh(1j * gen)


def wigner(rho: DensityMatrix, grid: PhaseGrid) -> WignerMap:
    """W(x, p) = (1/pi) Tr[rho D(g) P D(g)_dag], g = (x + i p)/sqrt2.

    P is the photon-number parity.  Parity conjugation folds the two
    displacements into one, Tr[rho D(2g) P], and D(2g) factorizes into
    single-axis displacements (built once per grid line from the
    eigendecomposition of the anti-Hermitian generator) times the known
    phase e^{-2ixp}.  The state enters through its eigenvectors, zero-padded
    (an exact embedding) into a basis large enough for the farthest corner.
    """
    xs, ps = grid.xs(), grid.ps()
    evals, evecs = np.linalg.eigh(rho.elems)
    keep = evals > 1e-12
    support = _support_level(np.real(np.diag(rho.elems)))
    reach2 = 2.0 * (max(abs(grid.x_min), abs(grid.x_max)) ** 2
                    + max(abs(grid.p_min), abs(grid.p_max)) ** 2)
    n = max(rho.trunc.dim, _parity_dim(reach2, support))

    w_x, v_x = _axis_eigensystem(n, along_p=False)
    w_p, v_p = _axis_eigensystem(n, along_p=True)
    parity = (-1.0) ** np.arange(n)
    cross_phase = np.exp(-2j * np.outer(xs, ps))

    values = np.zeros((grid.nx, grid.np))
    for lam, vec in zip(evals[keep], evecs.T[keep]):
        padded = np.zeros(n, dtype=np.complex128)
        padded[: vec.shape[0]] = vec
        # columns: Dx(2x) (P v) over the x grid and Dp(2p)^dag v over p
        cx = v_x.conj().T @ (parity * padded)
        right = v_x @ (np.exp(-1j * np.outer(w_x, 2.0 * xs)) * cx[:, None])
        cp = v_p.conj().T @ padded
        left = v_p @ (np.exp(1j * np.outer(w_p, 2.0 * ps)) * cp[:, None])
        # W_jk = Re[ e^{-2i x_j p_k} (left_k)^dag right_j ]
        values += lam * np.real(cross_phase * (left.conj().T @ right).T)
    return WignerMap(grid, values / math.pi)


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


def write_wigner_grid(wmap: WignerMap, path) -> None:
    """Plain-text grid file; one row per fixed p, nx values per row."""
    g = wmap.grid
    lines = [
        f"# {g.x_min:.17g} {g.x_max:.17g} {g.nx}",
        f"# {g.p_min:.17g} {g.p_max:.17g} {g.np}",
        f"# convention {WIGNER_CONVENTION}",
    ]
    for k in range(g.np):
        lines.append(" ".join(f"{v:.17g}" for v in wmap.values[:, k]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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


def write_marginal_csv(dist: QuadratureDistribution, path) -> None:
    lines = ["x,density"]
    for x, d in zip(dist.xs, dist.density):
        lines.append(f"{x:.17g},{d:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
