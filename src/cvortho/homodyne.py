"""Simulated homodyne acquisition and iterative maximum-likelihood tomography."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, Truncation
from .phasespace import LossChannel, _phase_matrix, apply_loss, hermite_functions, marginal

__all__ = [
    "QuadratureSamples",
    "SamplingPlan",
    "ReconstructionResult",
    "DataError",
    "uniform_phases",
    "sample_quadratures",
    "product_coefficients",
    "maxlik_reconstruct",
    "MaxLikTomography",
    "samples_csv_text",
    "read_samples_csv",
    "likelihood_csv_text",
]

# Inverse-CDF sampling grid; fixed so statistical tests have a defined oracle.
SAMPLING_X_MIN = -8.0
SAMPLING_X_MAX = 8.0
SAMPLING_POINTS = 4001

_MAX_RECON_DIM = 30

STOP_REASONS = ("tol", "max_iter")


class DataError(ValueError):
    """A quadrature sample falls outside the numerical support of the model."""


@dataclass(frozen=True, eq=False)
class QuadratureSamples:
    """Quadrature samples by column, in the caller's order: the two fields of a ``samples.csv`` row.

    ``phase[j]`` is the local-oscillator phase of sample j and ``x[j]`` its
    quadrature value, both read-only; ``==`` compares the samples in order.
    """

    phase: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        for name in ("phase", "x"):
            column = np.array(getattr(self, name), dtype=np.float64).reshape(-1)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.phase.shape != self.x.shape:
            raise ValueError("phase and x must have the same length")

    def __len__(self) -> int:
        return self.x.size

    def __eq__(self, other):
        if not isinstance(other, QuadratureSamples):
            return NotImplemented
        return np.array_equal(self.phase, other.phase) and np.array_equal(self.x, other.x)


def _phase_bits(samples) -> np.ndarray:
    """Bit patterns of the phase column, which tell -0.0 from 0.0; only a QuadratureSamples has one."""
    if not isinstance(samples, QuadratureSamples):
        raise TypeError(f"samples must be a QuadratureSamples, got {type(samples).__name__}")
    return samples.phase.view(np.int64)


def _runs(bits: np.ndarray) -> list:
    """(start, stop) of each run of equal entries of ``bits``; ``~bits[0]`` never equals ``bits[0]``."""
    starts = np.flatnonzero(bits != np.concatenate((~bits[:1], bits[:-1]))).tolist()
    return list(zip(starts, starts[1:] + [bits.size]))


@dataclass(frozen=True)
class SamplingPlan:
    """Local-oscillator phases, per-phase counts, seed, and efficiency."""

    phases: tuple
    samples_per_phase: int
    seed: int
    eta: float = 1.0

    def __post_init__(self):
        phases = tuple(float(p) for p in self.phases)
        if len(phases) == 0:
            raise ValueError("at least one phase is required")
        if len(set(phases)) != len(phases):
            raise ValueError("phases must be distinct")
        if self.samples_per_phase < 1:
            raise ValueError("samples_per_phase must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")
        object.__setattr__(self, "phases", phases)


def uniform_phases(count: int) -> tuple:
    """``count`` equally spaced phases in [0, pi)."""
    if count < 1:
        raise ValueError("phase count must be >= 1")
    return tuple(k * math.pi / count for k in range(count))


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Estimate plus its likelihood history; the trace never decreases.

    ``stop_reason`` is ``"tol"`` when the last log-likelihood gain fell
    below the tolerance and ``"max_iter"`` when the iteration cap ended
    the run.
    """

    rho_hat: DensityMatrix
    log_likelihood_trace: np.ndarray
    iterations_used: int
    stop_reason: str

    def __post_init__(self):
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"stop_reason must be one of {STOP_REASONS}, got {self.stop_reason!r}")
        trace = np.asarray(self.log_likelihood_trace, dtype=np.float64)
        if trace.size and np.any(np.diff(trace) < -1e-9):
            raise ValueError("log-likelihood trace decreased beyond numerical slack")
        trace.flags.writeable = False
        object.__setattr__(self, "log_likelihood_trace", trace)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"


def sample_quadratures(rho: DensityMatrix, plan: SamplingPlan) -> QuadratureSamples:
    """Draw quadrature samples phase by phase, deterministically per seed.

    Detection efficiency acts on the state before sampling (via the loss
    channel), then each phase draws by inverse-CDF over the marginal on a
    4001-point grid spanning [-8, 8] with linear interpolation.  Phase i
    uses the derived seed ``plan.seed + i``.
    """
    if plan.eta < 1.0:
        rho = apply_loss(rho, LossChannel(plan.eta))
    xs = np.linspace(SAMPLING_X_MIN, SAMPLING_X_MAX, SAMPLING_POINTS)
    draws = []
    for i, phase in enumerate(plan.phases):
        dens = marginal(rho, phase, xs).density
        cdf = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(xs))))
        cdf /= cdf[-1]
        rng = np.random.default_rng(plan.seed + i)
        draws.append(np.interp(rng.random(plan.samples_per_phase), cdf, xs))
    return QuadratureSamples(np.repeat(plan.phases, plan.samples_per_phase), np.concatenate(draws))


def product_coefficients(dim: int) -> np.ndarray:
    """Exact expansion psi_a(x) psi_b(x) = sum_m L[a, b, m] psi_m(sqrt2 x), m < 2 dim - 1.

    A product of two oscillator eigenfunctions is exp(-x^2) times a
    polynomial of degree a + b, and the psi_m(sqrt2 x) span exactly those
    functions.  Their norm is 2^(-1/4), so with t = sqrt2 x,
    L[a, b, m] = int psi_a(t/sqrt2) psi_b(t/sqrt2) psi_m(t) dt, an integral
    of exp(-t^2) times a polynomial of degree below 4 dim that a 4 dim-node
    Gauss-Hermite rule evaluates exactly.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(4 * dim)
    half = hermite_functions(nodes / math.sqrt(2.0), dim)
    full = hermite_functions(nodes, 2 * dim - 1)
    pairs = half[:, None, :] * half[None, :, :] * (weights * np.exp(nodes**2))
    return pairs @ full.T


def maxlik_reconstruct(samples, dim: int, max_iter: int = 2000, tol: float = 1e-10) -> ReconstructionResult:
    """Iterative maximum-likelihood estimate of the density matrix.

    Iterates rho <- normalize(R rho R) with R = (1/K) sum_j Pi_j / Tr(rho Pi_j),
    where Pi_j[a, b] = psi_a(x_j) psi_b(x_j) conj(F_ab) projects onto the
    quadrature eigenvector of sample j (F_ab = e^{i(b-a)theta}, as in
    :func:`~cvortho.phasespace.marginal`).  Stops at ``max_iter`` or when
    the total log-likelihood gain drops below ``tol``;
    ``stop_reason`` on the result says which.  No efficiency correction is
    applied: sampling through a loss channel makes the estimate converge to
    the lossy state.

    ``samples`` must be a :class:`QuadratureSamples`, grouped here by phase
    bits in order of first use; a :class:`DataError` names a sample by its
    position.  Every kernel entry psi_a(x) psi_b(x) is expanded over the
    2 dim - 1 features f_m(x) = psi_m(sqrt2 x) (see
    :func:`product_coefficients`), so at phase theta the likelihood is
    p_j = sum_m c_m f_m(x_j) with c_m = sum_ab L[a, b, m] Re(rho_ab F_ab),
    and R needs only the feature sums of 1/p_j.  Each iteration is one
    sweep of two matrix-vector products over each phase's feature matrix,
    which holds 8 K (2 dim - 1) bytes in all.
    """
    bits = _phase_bits(samples)
    if len(samples) == 0:
        raise ValueError("at least one sample is required")
    if not 2 <= dim <= _MAX_RECON_DIM:
        raise ValueError(f"reconstruction dim must lie in 2..{_MAX_RECON_DIM}, got {dim}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    coeffs = product_coefficients(dim)
    flat = coeffs.reshape(dim * dim, -1)
    order = np.argsort(bits, kind="stable")  # keeps each phase's positions ascending: order[start] is its first use
    groups = []  # per phase, in order of first use: phase, caller positions, features f_m(x_j), F(phase)
    for start, stop in sorted(_runs(bits[order]), key=lambda run: order[run[0]]):
        positions = order[start:stop]
        phase = float(samples.phase[positions[0]])
        groups.append((phase, positions, hermite_functions(math.sqrt(2.0) * samples.x[positions], 2 * dim - 1),
                       _phase_matrix(phase, dim)))
    k_total = len(samples)

    def sweep(rho):
        """Log-likelihood of rho and its R operator, from one pass over the features."""
        loglik = 0.0
        r_op = np.zeros((dim, dim), dtype=np.complex128)
        for phase, positions, feats, phase_mat in groups:
            p = (flat.T @ np.real(rho * phase_mat).ravel()) @ feats
            bad = ~np.isfinite(p) | (p <= 0.0)
            if np.any(bad):
                j = int(np.argmax(bad))
                raise DataError(
                    f"sample {int(positions[j])} (phase={phase:.10f}, x={samples.x[positions[j]]:.6g}) "
                    "has non-positive likelihood under the current state"
                )
            loglik += float(np.sum(np.log(p)))
            r_op += phase_mat.conj() * (coeffs @ (feats @ (1.0 / p)))
        return loglik, r_op / k_total

    rho = np.eye(dim, dtype=np.complex128) / dim
    loglik, r_op = sweep(rho)
    trace = [loglik]
    stop_reason = "max_iter"
    for _ in range(max_iter):
        rho = r_op @ rho @ r_op
        rho = (rho + rho.conj().T) / 2.0
        rho /= np.trace(rho).real
        loglik, r_op = sweep(rho)
        trace.append(loglik)
        if trace[-1] - trace[-2] < tol:
            stop_reason = "tol"
            break

    result = DensityMatrix(rho, Truncation(dim))
    return ReconstructionResult(result, np.asarray(trace), len(trace) - 1, stop_reason)


class MaxLikTomography:
    """Estimator-style wrapper around :func:`maxlik_reconstruct`.

    Follows the scikit-learn protocol (``fit`` plus ``get_params`` /
    ``set_params``), so it can be cloned and composed with that ecosystem.
    ``fit`` takes a :class:`QuadratureSamples`, as
    :func:`maxlik_reconstruct` does.  Fitted attributes: ``rho_``,
    ``log_likelihood_trace_``, ``n_iter_``, ``stop_reason_``.
    """

    def __init__(self, dim: int = 15, max_iter: int = 2000, tol: float = 1e-10):
        self.dim = dim
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, samples, y=None):
        res = maxlik_reconstruct(samples, dim=self.dim, max_iter=self.max_iter, tol=self.tol)
        self.rho_ = res.rho_hat
        self.log_likelihood_trace_ = res.log_likelihood_trace
        self.n_iter_ = res.iterations_used
        self.stop_reason_ = res.stop_reason
        return self

    def get_params(self, deep: bool = True) -> dict:
        return {"dim": self.dim, "max_iter": self.max_iter, "tol": self.tol}

    def set_params(self, **params):
        for key, value in params.items():
            if key not in ("dim", "max_iter", "tol"):
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self


# ---------------------------------------------------------------------------
# file formats


def samples_csv_text(samples) -> str:
    """CSV with header phase,x; phases in radians to 10 decimals, x to 17 digits.

    ``samples`` must be a :class:`QuadratureSamples`.  Each run of samples
    whose phase bits agree (so ``-0.0`` and ``0.0`` print apart) is
    formatted by one ``%`` template holding its phase once.
    """
    runs = ["phase,x\n"]
    for start, stop in _runs(_phase_bits(samples)):
        row = f"{samples.phase[start]:.10f},%.17g\n"
        runs.append(row * (stop - start) % tuple(samples.x[start:stop].tolist()))
    return "".join(runs)


def read_samples_csv(path) -> QuadratureSamples:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "phase,x":
            raise ValueError(f"unexpected sample-file header {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file has no rows
            rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if rows.size == 0:
        rows = rows.reshape(0, 2)
    if rows.shape[1] != 2:
        raise ValueError(f"sample rows must have the two fields phase,x, got {rows.shape[1]}")
    return QuadratureSamples(rows[:, 0], rows[:, 1])


def likelihood_csv_text(trace) -> str:
    return "iteration,log_likelihood\n" + "".join([f"{i},{val:.17g}\n" for i, val in enumerate(trace)])
