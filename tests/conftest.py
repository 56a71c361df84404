import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import expm

from cvortho import OperatorKind, StateVector, Truncation, check_density, ladder_operators
from cvortho.phasespace import hermite_functions


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_state(trunc: Truncation, rng, support: int | None = None) -> StateVector:
    """Random unit state with zero weight near the top of the basis."""
    if support is None:
        support = max(2, trunc.dim // 2)
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
    return StateVector(amps, trunc)


def random_mixed_state(dim, rank, seed):
    """Density matrix of the given rank over a random eigenbasis and spectrum."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = vecs @ vecs.conj().T
    return check_density(rho / np.trace(rho).real)


@st.composite
def mixed_states(draw, max_dim, min_dim=2):
    dim = draw(st.integers(min_dim, max_dim))
    return random_mixed_state(dim, draw(st.integers(1, dim)), draw(st.integers(0, 2**32 - 1)))


@st.composite
def mixed_state_stacks(draw, max_dim, max_count=4):
    """1 to ``max_count`` random densities on one basis of 2 to ``max_dim`` levels."""
    dim = draw(st.integers(2, max_dim))
    return [draw(mixed_states(dim, dim)) for _ in range(draw(st.integers(1, max_count)))]


def kernel_marginal(rho, phase, xs):
    """Quadrature density <x_phase| rho |x_phase> through the complex kernel (test oracle).

    Builds the d x N matrix u[n, j] = psi_n(x_j) e^{i n phase}, the Fock
    amplitudes of each |x_j> at ``phase``, and takes Re sum_n conj(u_n)
    (rho u)_n clipped at 0.  It shares only the Hermite functions with
    :func:`cvortho.marginal`.
    """
    u = hermite_functions(xs, len(rho)) * np.exp(1j * phase * np.arange(len(rho)))[:, None]
    return np.clip(np.real(np.einsum("nx,nx->x", u.conj(), rho @ u)), 0.0, None)


def displacement_op(alpha: complex, trunc: Truncation) -> np.ndarray:
    """Displacement exp(alpha a_dag - conj(alpha) a) on the finite matrix (test oracle).

    Computed by scaling-and-squaring of the truncated generator; unitary on
    the low-excitation subspace up to truncation error (see
    :func:`unitarity_defect` for the diagnostic norm).
    """
    a, a_dag, _ = ladder_operators(trunc)
    return expm(alpha * a_dag - np.conj(alpha) * a)


def qubit_operator(spec, c: complex, trunc: Truncation) -> np.ndarray:
    """C + (c - <C>) 1 as a dense matrix (test oracle): the reference that ``orthogonalize(psi, spec, c)`` is
    checked against.

    On coherent input with the creation operator it gives the displaced
    qubit D(alpha)(|1> + c|0>) up to normalization.
    """
    _, a_dag, n_op = ladder_operators(trunc)
    base = {OperatorKind.CREATION: a_dag, OperatorKind.NUMBER: n_op}.get(spec.kind, spec.operator)
    return base + (complex(c) - complex(spec.mean_value)) * np.eye(trunc.dim)


def ideal_addition_operator(beta: complex, theta: float, trunc: Truncation) -> np.ndarray:
    """t a_dag - r beta 1 as a dense matrix (test oracle): the operator that ``heralded_addition_model`` realizes,
    with t = cos(theta), r = sin(theta)."""
    _, a_dag, _ = ladder_operators(trunc)
    return math.cos(theta) * a_dag - math.sin(theta) * complex(beta) * np.eye(trunc.dim)


def ideal_number_operator(theta: float, phi: float, trunc: Truncation) -> np.ndarray:
    """t e^{i phi} a_dag a - r a a_dag as a dense matrix (test oracle): the operator that ``number_scheme_model``
    realizes."""
    a, a_dag, n_op = ladder_operators(trunc)
    return math.cos(theta) * np.exp(1j * phi) * n_op - math.sin(theta) * (a @ a_dag)


def unitarity_defect(u: np.ndarray) -> float:
    """sup-norm of U_dag U - 1; reports truncation-induced degradation."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


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


def _support_level(weights: np.ndarray, eps: float = 1e-13) -> int:
    """Highest level carrying non-negligible probability weight."""
    tail = np.cumsum(weights[::-1])[::-1]
    occupied = np.nonzero(tail > eps)[0]
    return int(occupied[-1]) if occupied.size else 0


def _parity_dim(displacement2: float, support: int) -> int:
    """Basis size for accurate displaced-parity matrix elements in the oracles below.

    A displaced level-n state spreads around displacement2 + n with width
    of order sqrt(displacement2 * (n + 1)); the rule keeps the weight lost
    above the cutoff below ~1e-10.
    """
    return int(math.ceil(
        displacement2 + support + 3.8 * math.sqrt(displacement2 * (support + 1.0)) + 16.0
    ))


def eigvec_wigner(rho, grid):
    """Wigner map by one sweep per eigenvector of rho (test oracle).

    Diagonalizes rho and both axis displacement generators densely
    (exp(v gen) = V e^{-i v w} V_dag, gen = (a_dag - a)/sqrt2 on x and
    i (a_dag + a)/sqrt2 on p) and sums, over eigenvectors above 1e-12,
    W_jk = Re[e^{-2i x_j p_k} <v| Dp(2p_k) Dx(2x_j) P |v>] / pi, on a basis
    that ``_parity_dim`` sizes for the farthest grid corner.  It shares
    nothing with :func:`cvortho.wigner`.
    """
    xs, ps = grid.xs(), grid.ps()
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > 1e-12
    support = _support_level(np.real(np.diag(rho)))
    reach2 = 2.0 * (max(abs(grid.x_min), abs(grid.x_max)) ** 2
                    + max(abs(grid.p_min), abs(grid.p_max)) ** 2)
    n = max(len(rho), _parity_dim(reach2, support))

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


def wigner_point(rho, x, p):
    """Wigner value at one point through the displacement operator directly (test oracle).

    Evaluates Tr[rho D(g) P D(g)_dag] / pi, g = (x + i p)/sqrt2, with the
    matrix exponential of :func:`displacement_op`, on a basis that
    ``_parity_dim`` sizes for the point; it shares nothing with
    :func:`cvortho.wigner`'s beam-splitter form.
    """
    support = _support_level(np.real(np.diag(rho)))
    n = max(len(rho), _parity_dim((x * x + p * p) / 2.0, support))
    elems = np.zeros((n, n), dtype=np.complex128)
    elems[: len(rho), : len(rho)] = rho
    gamma = (x + 1j * p) / math.sqrt(2.0)
    d = displacement_op(gamma, Truncation(n))
    parity = (-1.0) ** np.arange(n)
    inner = d.conj().T @ elems @ d
    return float(np.real(np.sum(parity * np.diag(inner))) / math.pi)
