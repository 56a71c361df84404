"""Phase-space observables: Wigner maps, quadrature marginals, detection loss at efficiency eta.

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

from .fock import DensityMatrix, _int_rule, _require, _sector_blocks

__all__ = [
    "PhaseGrid",
    "hermite_functions",
    "hermite_integrals",
    "wigner",
    "marginal",
    "apply_loss",
    "npy_buffers",
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


def hermite_integrals(lo, hi, dim: int) -> np.ndarray:
    """int psi_n over each [lo_j, hi_j], rows n = 0..dim-1, from one table of U_n(X) = int_X^inf psi_n at |X|:
    U_0 = pi^(-1/4) sqrt(pi/2) erfc(X/sqrt2), U_1 = sqrt2 psi_0(X), U_{n+1} = sqrt(n/(n+1)) U_{n-1} + sqrt(2/(n+1))
    psi_n(X), and int_-inf^X psi_n = (-1)^n U_n(-X) for X < 0.  An interval on one side of 0 is the difference of two
    tails on that side, so a far one keeps its relative accuracy; one across 0 adds int psi_n over the line."""
    far = np.abs(ends := np.concatenate((np.ravel(lo), np.ravel(hi), [0.0])))
    psi, tails = hermite_functions(far, dim), np.zeros((dim, ends.size))
    tails[0] = [math.pi ** -0.25 * math.sqrt(math.pi / 2.0) * math.erfc(x / math.sqrt(2.0)) for x in far.tolist()]
    for n in range(dim - 1):  # n = 0 reads the last row, still 0, so U_1 = sqrt2 psi_0
        tails[n + 1] = math.sqrt(n / (n + 1)) * tails[n - 1] + math.sqrt(2.0 / (n + 1)) * psi[n]
    left, k, whole = ends < 0.0, np.size(lo), tails[:, -1] * (1.0 + (-1.0) ** np.arange(dim))  # int psi_n on the line
    tails[::2, left] *= -1.0  # U_n(X) - [X < 0] int psi_n, whose difference over a one-sided interval is the integral
    return tails[:, :k] - tails[:, k:-1] + np.outer(whole, left[:k] & ~left[k:-1])


# OpenBLAS runs a gemm of m * n * k <= 4 * 65536 (GEMM_MULTITHREAD_THRESHOLD times SMP_THRESHOLD_MIN) on one thread,
# whose bits no thread count changes; blocks keep 2 rows and 2 columns: numpy gives 1 to gemv, which threads sooner
def _column_blocks(a, b, out=None):
    """``(c, a @ b[..., c])`` over leading axes for each column block ``c`` of the product in turn, as gemms of that
    size on blocks of ``a``'s rows, into ``out[..., c]``; without ``out``, of matrices into a new block to reduce."""
    (m, k), n = a.shape[-2:], b.shape[-1]
    side = min(m, n, max(3, 4 * 65536 // (3 * k)))  # the shorter side, whole where 3 lines of the longer fit beside it
    other = max(3, 4 * 65536 // (k * side))  # so that the operand with the shorter side is the one packed per block
    rows, cols = (-(-m // side), -(-n // other)) if m < n else (-(-m // other), -(-n // side))
    for j in range(cols):  # even splits: with at least 3 lines per block, none has 1
        c = slice(j * n // cols, (j + 1) * n // cols)
        block = np.empty((m, c.stop - c.start)) if out is None else out[..., c]
        for i in range(rows):
            r = slice(i * m // rows, (i + 1) * m // rows)
            np.matmul(a[..., r, :], b[..., c], out=block[..., r, :])
        yield c, block


def _matmul(a, b) -> np.ndarray:
    """Read-only ``a @ b`` over leading axes, as :func:`_column_blocks` writes it; its one block is ``a @ b``."""
    one = a.shape[-2] * a.shape[-1] * b.shape[-1] <= 4 * 65536  # the same gemm call, without the generator's cost
    out = a @ b if one else np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]))
    for _ in () if one else _column_blocks(a, b, out):
        pass
    out.flags.writeable = False
    return out


def _phase_matrix(phase: float, dim: int) -> np.ndarray:
    """F_ab = e^{i(b-a) phase}; |x_phase> has Fock amplitudes psi_n(x) e^{i n phase}."""
    m = np.exp(1j * phase * np.arange(dim))
    return np.outer(m.conj(), m)


def _basis_dim(rhos) -> int:
    """The one basis size of the densities ``rhos``; refuses an empty sequence or one that mixes sizes."""
    dims = list(dict.fromkeys(rho.trunc.dim for rho in rhos))
    _require("density dims", ((lambda dims: len(dims) == 1), "one basis size"), dims)
    return dims[0]


def marginal(rhos, phases, xs) -> np.ndarray:
    """Quadrature densities <x_phase| rho |x_phase> = sum_ab psi_a(x) psi_b(x) Re(rho_ab F_ab), read-only.

    Row [s, k] is the density of ``rhos[s]`` at ``phases[k]`` on the points ``xs``, clipped at 0; all read one table
    of Hermite functions, summing their product with Re(rho F) over a one ``_column_blocks`` block at a time, with
    the bits of the one-density, one-phase call at any thread count.
    """
    _require("xs", _SQUARABLE, xs)
    d = _basis_dim(rhos)
    herm = hermite_functions(xs, d)
    dens = np.empty((len(rhos), len(phases), herm.shape[1]))
    for s, rho in enumerate(rhos):
        for k, phase in enumerate(phases):
            for c, block in _column_blocks(np.real(rho.elems * _phase_matrix(phase, d)), herm):
                dens[s, k, c] = np.einsum("ax,ax->x", herm[:, c], block)
    np.clip(dens, 0.0, None, out=dens)
    dens.flags.writeable = False
    return dens


# ---------------------------------------------------------------------------
# Wigner function through one balanced beam splitter


# wigner's rule for its grid bounds, at sqrt(2) times which it evaluates hermite_functions; each bound is compared
# with sqrt(max) / sqrt(2), which admits the same floats as checking the product and cannot overflow
_WIGNER_BOUNDS = ((lambda bounds: bool(np.all(np.abs(np.asarray(bounds, dtype=np.float64))
                                              <= math.sqrt(sys.float_info.max) / math.sqrt(2.0)))),
                  "bounds whose sqrt(2) multiples have finite squares")


def wigner(rhos, grid: PhaseGrid) -> np.ndarray:
    """W_s(x_i, p_j) = (1/pi) Tr[rho_s D(g) P D(g)_dag], g = (x + i p)/sqrt2, as a read-only (S, nx, np) array.

    P is the photon-number parity.  In W = (1/pi) int du <x-u| rho |x+u> e^{2ipu}
    each psi_a(x-u) psi_b(x+u) is a two-mode wave function, which a balanced
    beam splitter B = B(pi/4) carries to the rotated coordinates sqrt2 x and
    sqrt2 u; the u integral is then a Fourier transform of psi_m, which
    returns (-i)^m psi_m(sqrt2 p).  With |rho>> = sum_ab rho_ab |a>|b>,

        W(x, p) = pi^(-1/2) sum_{j,m < 2d-1} Re[(-i)^m <m, j| B |rho>>] psi_j(sqrt2 x) psi_m(sqrt2 p),

    exact up to rounding: B keeps the photon number a + b <= 2d-2, so no
    basis beyond 2d-1 levels enters.  Sector N of ``beam_splitter_op(pi/4, N)``
    maps v_k = rho[N-k, k] to C[j, N-j] = <N-j, j| B |rho>>.  One recurrence pass and
    one pair of Hermite tables, O(d^3 + (2d-1)(nx + np)), serve all of ``rhos``, which
    share one basis; each map then costs O(d^3 + (2d-1)^2 nx + (2d-1) nx np) through ``_matmul``,
    with the bits of the one-density call at any BLAS thread count; nothing is kept between calls.
    """
    _require("grid bounds", _WIGNER_BOUNDS, [grid.x_min, grid.x_max, grid.p_min, grid.p_max])
    d = _basis_dim(rhos)
    m = 2 * d - 1
    levels = np.arange(m)
    coeffs = np.zeros((len(rhos), m, m), dtype=np.complex128)  # C[s, j, N - j]
    flipped = np.stack([rho.elems for rho in rhos])[:, ::-1]  # diagonal N - d + 1: rho[N - k, k] over the k both allow
    for n, block in enumerate(_sector_blocks(math.pi / 4, d)):
        j = levels[: n + 1]
        coeffs[:, j, n - j] = (block @ flipped.diagonal(n - d + 1, axis1=1, axis2=2)[..., None])[..., 0]
    real = np.multiply(coeffs, np.array([1.0, -1j, -1.0, 1j])[levels % 4], out=coeffs).real / math.sqrt(math.pi)
    hx, hp = (hermite_functions(math.sqrt(2.0) * axis, m) for axis in (grid.xs(), grid.ps()))
    return _matmul(_matmul(hx.T, real), hp)


# ---------------------------------------------------------------------------
# detection-efficiency loss channel


_ETA = (lambda v: 0.0 <= v <= 1.0), "a number in [0, 1]"  # apply_loss's rule


def apply_loss(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Generalized Bernoulli loss map at efficiency eta: a fraction eta of the signal survives.

    rho'_{mn} = sum_k sqrt(C(m+k,k) C(n+k,k)) eta^{(m+n)/2} (1-eta)^k rho_{m+k,n+k};
    trace-preserving and completely positive.  Coherent states map to
    coherent states with amplitude scaled by sqrt(eta).
    """
    _require("eta", _ETA, eta)
    if eta == 1.0:  # DensityMatrix is immutable, so the lossless map returns its input
        return rho
    n = rho.trunc.dim
    out = np.zeros((n, n), dtype=np.complex128)
    if eta == 0.0:
        out[0, 0] = 1.0
        return DensityMatrix(out, rho.trunc)
    k, m = np.arange(n)[:, None], np.arange(n)
    log_fact = np.array([math.lgamma(i + 1) for i in range(2 * n - 1)])  # log i!
    # the Kraus vectors of losing k photons: kraus[k, m] = sqrt(C(m+k, k) eta^m (1-eta)^k), each at most 1/sqrt(eta)
    kraus = np.exp(0.5 * (log_fact[m + k] - log_fact[m] - log_fact[k] + m * math.log(eta) + k * math.log1p(-eta)))
    for k, v in enumerate(kraus):
        out[: n - k, : n - k] += np.outer(v[: n - k], v[: n - k]) * rho.elems[k:, k:]
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(out, rho.trunc)


# ---------------------------------------------------------------------------
# file formats


def npy_buffers(array) -> tuple:
    """The header and the data of a ``.npy`` file (format 1.0) of ``array`` as little-endian float64 in C order.

    Written one after the other they make the file, which ``np.load`` reads
    back; the data is ``array`` itself where it already has that layout, so
    no copy of it is made.
    """
    array, buf = np.ascontiguousarray(array, dtype="<f8"), io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, np.lib.format.header_data_from_array_1_0(array))
    return buf.getvalue(), array
