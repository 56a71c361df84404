import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import expm

from cvortho import DensityMatrix, StateVector, Truncation
from cvortho.phasespace import _parity_dim, _support_level, hermite_functions


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_state(trunc: Truncation, rng, support: int | None = None) -> StateVector:
    """Random normalized state with zero weight near the top of the basis."""
    if support is None:
        support = max(2, trunc.dim // 2)
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
    return StateVector(amps, trunc).normalized()


def random_mixed_state(dim, rank, seed):
    """Density matrix of the given rank over a random eigenbasis and spectrum."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = vecs @ vecs.conj().T
    return DensityMatrix(rho / np.trace(rho).real, Truncation(dim))


@st.composite
def mixed_states(draw, max_dim):
    dim = draw(st.integers(2, max_dim))
    return random_mixed_state(dim, draw(st.integers(1, dim)), draw(st.integers(0, 2**32 - 1)))


def kernel_marginal(rho, phase, xs):
    """Quadrature density <x_phase| rho |x_phase> through the complex kernel (test oracle).

    Builds the d x N matrix u[n, j] = psi_n(x_j) e^{i n phase}, the Fock
    amplitudes of each |x_j> at ``phase``, and takes Re sum_n conj(u_n)
    (rho u)_n clipped at 0.  It shares only the Hermite functions with
    :func:`cvortho.marginal`.
    """
    u = hermite_functions(xs, rho.trunc.dim) * np.exp(1j * phase * np.arange(rho.trunc.dim))[:, None]
    return np.clip(np.real(np.einsum("nx,nx->x", u.conj(), rho.elems @ u)), 0.0, None)


def dense_beam_splitter(theta, truncs):
    """Dense two-mode beam splitter on the truncated joint space (test oracle).

    The matrix exp(theta (a1 a2_dag - a1_dag a2)) over the mode-1-major
    (``numpy.kron``) basis |n1, n2> of two truncated modes, t = cos(theta),
    r = sin(theta); sectors n1 + n2 < min(dims) are represented exactly.
    """
    t1, t2 = truncs
    a1m = np.diag(np.sqrt(np.arange(1, t1.dim, dtype=np.float64)).astype(np.complex128), k=1)
    a2m = np.diag(np.sqrt(np.arange(1, t2.dim, dtype=np.float64)).astype(np.complex128), k=1)
    a1 = np.kron(a1m, np.eye(t2.dim))
    a2 = np.kron(np.eye(t1.dim), a2m)
    gen = a1 @ a2.conj().T - a1.conj().T @ a2
    return expm(theta * gen)


def eigvec_wigner(rho, grid):
    """Wigner map by one sweep per eigenvector of rho (test oracle).

    Diagonalizes rho and both axis displacement generators densely
    (exp(v gen) = V e^{-i v w} V_dag, gen = (a_dag - a)/sqrt2 on x and
    i (a_dag + a)/sqrt2 on p) and sums, over eigenvectors above 1e-12,
    W_jk = Re[e^{-2i x_j p_k} <v| Dp(2p_k) Dx(2x_j) P |v>] / pi.  It shares
    only the basis size with :func:`cvortho.wigner`.
    """
    xs, ps = grid.xs(), grid.ps()
    evals, evecs = np.linalg.eigh(rho.elems)
    keep = evals > 1e-12
    support = _support_level(np.real(np.diag(rho.elems)))
    reach2 = 2.0 * (max(abs(grid.x_min), abs(grid.x_max)) ** 2
                    + max(abs(grid.p_min), abs(grid.p_max)) ** 2)
    n = max(rho.trunc.dim, _parity_dim(reach2, support))

    a = np.diag(np.sqrt(np.arange(1, n, dtype=np.float64)), k=1)
    w_x, v_x = np.linalg.eigh(1j * (a.T - a) / math.sqrt(2.0))
    w_p, v_p = np.linalg.eigh(-(a.T + a) / math.sqrt(2.0) + 0j)
    parity = (-1.0) ** np.arange(n)
    cross_phase = np.exp(-2j * np.outer(xs, ps))

    values = np.zeros((grid.nx, grid.np))
    for lam, vec in zip(evals[keep], evecs.T[keep]):
        padded = np.zeros(n, dtype=np.complex128)
        padded[: vec.shape[0]] = vec
        cx = v_x.conj().T @ (parity * padded)
        right = v_x @ (np.exp(-1j * np.outer(w_x, 2.0 * xs)) * cx[:, None])
        cp = v_p.conj().T @ padded
        left = v_p @ (np.exp(1j * np.outer(w_p, 2.0 * ps)) * cp[:, None])
        values += lam * np.real(cross_phase * (left.conj().T @ right).T)
    return values / math.pi
