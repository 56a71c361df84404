import numpy as np
import pytest
from scipy.linalg import expm

from cvortho import StateVector, Truncation


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
