"""Simulated homodyne acquisition and iterative maximum-likelihood tomography."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import DensityMatrix, Truncation
from .phasespace import LossChannel, _phase_matrix, apply_loss, hermite_functions, marginal

__all__ = [
    "QuadratureSample",
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


class QuadratureSample(NamedTuple):
    phase: float
    x: float


@dataclass(frozen=True, eq=False)
class QuadratureSamples:
    """Quadrature samples stored by column, in the caller's order.

    ``phases`` is the table of distinct phases, ``phase_index[j]`` the table
    row of sample j and ``x[j]`` its quadrature value.  Iterating yields
    :class:`QuadratureSample` tuples; ``==`` compares the samples in order.
    """

    phases: np.ndarray
    phase_index: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        phases = np.array(self.phases, dtype=np.float64).reshape(-1)
        index = np.array(self.phase_index, dtype=np.intp).reshape(-1)
        x = np.array(self.x, dtype=np.float64).reshape(-1)
        if index.shape != x.shape:
            raise ValueError("phase_index and x must have the same length")
        if index.size and (index.min() < 0 or index.max() >= phases.size):
            raise ValueError("phase_index entries must be rows of the phase table")
        for name, arr in (("phases", phases), ("phase_index", index), ("x", x)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_columns(cls, phase, x) -> QuadratureSamples:
        """Samples from per-sample phase and x columns.

        Phases are told apart bit for bit, so iterating gives back exactly
        the values passed in; the table keeps their order of first use.
        """
        phase = np.ascontiguousarray(phase, dtype=np.float64).reshape(-1)
        _, first, inverse = np.unique(phase.view(np.int64), return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return cls(phase[first[order]], rank[inverse.reshape(-1)], x)

    @classmethod
    def of(cls, samples) -> QuadratureSamples:
        """``samples`` itself if already columnar, else the columns of its (phase, x) pairs."""
        if isinstance(samples, cls):
            return samples
        pairs = np.array(list(samples), dtype=np.float64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("samples must be (phase, x) pairs")
        return cls.from_columns(pairs[:, 0], pairs[:, 1])

    def __len__(self) -> int:
        return self.x.size

    def __iter__(self):
        phases = self.phases.tolist()
        for i, x in zip(self.phase_index.tolist(), self.x.tolist()):
            yield QuadratureSample(phases[i], x)

    def __eq__(self, other):
        if not isinstance(other, QuadratureSamples):
            return NotImplemented
        return (len(self) == len(other)
                and np.array_equal(self.phases[self.phase_index], other.phases[other.phase_index])
                and np.array_equal(self.x, other.x))


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
    index = np.repeat(np.arange(len(plan.phases)), plan.samples_per_phase)
    return QuadratureSamples(plan.phases, index, np.concatenate(draws))


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

    ``samples`` is a :class:`QuadratureSamples` or any iterable of
    (phase, x) pairs.  Every kernel entry psi_a(x) psi_b(x) is expanded over
    the 2 dim - 1 features f_m(x) = psi_m(sqrt2 x) (see
    :func:`product_coefficients`), so at phase theta the likelihood is
    p_j = sum_m c_m f_m(x_j) with c_m = sum_ab L[a, b, m] Re(rho_ab F_ab),
    and R needs only the feature sums of 1/p_j.  Each iteration is one
    sweep of two matrix-vector products over each phase's feature matrix,
    which holds 8 K (2 dim - 1) bytes in all.
    """
    samples = QuadratureSamples.of(samples)
    if len(samples) == 0:
        raise ValueError("at least one sample is required")
    if not 2 <= dim <= _MAX_RECON_DIM:
        raise ValueError(f"reconstruction dim must lie in 2..{_MAX_RECON_DIM}, got {dim}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    coeffs = product_coefficients(dim)
    flat = coeffs.reshape(dim * dim, -1)
    order = np.argsort(samples.phase_index, kind="stable")
    ends = np.cumsum(np.bincount(samples.phase_index, minlength=samples.phases.size))
    groups = []  # per phase: phase, caller positions, x, features f_m(x_j), F(phase)
    for phase, start, stop in zip(samples.phases.tolist(), np.concatenate(([0], ends[:-1])), ends):
        if stop > start:
            positions = order[start:stop]
            xs = samples.x[positions]
            groups.append((phase, positions, xs, hermite_functions(math.sqrt(2.0) * xs, 2 * dim - 1),
                           _phase_matrix(phase, dim)))
    k_total = len(samples)

    def sweep(rho):
        """Log-likelihood of rho and its R operator, from one pass over the features."""
        loglik = 0.0
        r_op = np.zeros((dim, dim), dtype=np.complex128)
        for phase, positions, xs, feats, phase_mat in groups:
            p = (flat.T @ np.real(rho * phase_mat).ravel()) @ feats
            bad = ~np.isfinite(p) | (p <= 0.0)
            if np.any(bad):
                j = int(np.argmax(bad))
                raise DataError(
                    f"sample {int(positions[j])} (phase={phase:.10f}, x={xs[j]:.6g}) "
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
    ``fit`` takes a :class:`QuadratureSamples` or any iterable of
    (phase, x) pairs.  Fitted attributes: ``rho_``,
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

    Each run of samples that share a phase is formatted by one ``%`` template
    holding its phase once.
    """
    samples = QuadratureSamples.of(samples)
    index = samples.phase_index
    starts = np.flatnonzero(np.diff(index, prepend=-1)).tolist()
    runs = ["phase,x\n"]
    for start, stop in zip(starts, starts[1:] + [len(index)]):
        row = f"{samples.phases[index[start]]:.10f},%.17g\n"
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
    return QuadratureSamples.from_columns(rows[:, 0], rows[:, 1])


def likelihood_csv_text(trace) -> str:
    return "iteration,log_likelihood\n" + "".join([f"{i},{val:.17g}\n" for i, val in enumerate(trace)])
