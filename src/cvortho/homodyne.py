"""Simulated homodyne acquisition and iterative maximum-likelihood tomography.

Samples are one (K, 2) float64 array of (phase, x) rows, the layout of ``samples.npy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, Truncation, _int_rule, _require
from .phasespace import _phase_matrix, hermite_functions, marginal

__all__ = [
    "ReconstructionResult",
    "DataError",
    "uniform_phases",
    "sample_quadratures",
    "product_coefficients",
    "maxlik_reconstruct",
]

# Inverse-CDF sampling grid; fixed so statistical tests have a defined oracle.
SAMPLING_X_MIN = -8.0
SAMPLING_X_MAX = 8.0
SAMPLING_POINTS = 4001

_MAX_RECON_DIM = 30
_RECON_DIM, _MAX_ITER = _int_rule(2, _MAX_RECON_DIM), _int_rule(1)  # maxlik_reconstruct's rules
# Width of a sampling-grid cell, on which the sampled density is constant and MaxLik counts samples
_CELL_WIDTH = (SAMPLING_X_MAX - SAMPLING_X_MIN) / (SAMPLING_POINTS - 1)
# MaxLik finds table rows per run of one phase where the phase changes less often than once per this many samples
# (the sampler writes one run per phase); a search per sample gets cheaper only near one change per sample
_SAMPLES_PER_CHANGE = 4

STOP_REASONS = ("tol", "max_iter")
_TRACE_SLACK = 1e-9  # the log-likelihood decrease that a step may show from rounding alone
# Step operators R + eps 1: eps = 0 is RrhoR; where that lowers the log-likelihood, eps = 1, 3, 7, ... dilute the
# step (Rehacek et al., PRA 75, 042108, 2007), which gains once eps is large enough
_DILUTIONS = (0.0, *(2.0**n - 1.0 for n in range(1, 31)))


class DataError(ValueError):
    """A quadrature sample falls outside the numerical support of the model."""


# sample_quadratures's rules
_PHASES = ((lambda v: len(v) > 0 and all(map(math.isfinite, v)) and len(set(map(float, v))) == len(v)),
           "a nonempty list of finite numbers, distinct as numbers")
_SAMPLES, _SEED = _int_rule(1), _int_rule(0)
_PHASE_COUNT = _int_rule(1)[0], "a count >= 1"  # uniform_phases's rule


def uniform_phases(count: int) -> tuple:
    """``count`` equally spaced phases in [0, pi)."""
    _require("count", _PHASE_COUNT, count)
    return tuple(k * math.pi / count for k in range(count))


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Estimate plus its likelihood history; the trace never decreases.

    ``stop_reason`` is ``"tol"`` when the last log-likelihood gain fell
    below the tolerance and ``"max_iter"`` when the iteration cap ended
    the run.  ``loglik_gap`` is K (lambda_max(R) - 1) for K samples at the
    estimate: by concavity no density's log-likelihood exceeds the last
    trace entry by more (Glancy, Knill, Girard, NJP 14, 095017, 2012).
    """

    rho_hat: DensityMatrix
    log_likelihood_trace: np.ndarray
    iterations_used: int
    stop_reason: str
    loglik_gap: float

    def __post_init__(self):
        _require("stop_reason", ((lambda v: v in STOP_REASONS), f"one of {STOP_REASONS}"), self.stop_reason)
        trace = np.asarray(self.log_likelihood_trace, dtype=np.float64)
        if trace.size and np.any(np.diff(trace) < -_TRACE_SLACK):
            raise ValueError("log-likelihood trace decreased beyond numerical slack")
        trace.flags.writeable = False
        object.__setattr__(self, "log_likelihood_trace", trace)


def sample_quadratures(rho: DensityMatrix, phases, samples_per_phase: int, seed: int) -> np.ndarray:
    """Draw ideal (lossless) homodyne samples of ``rho``, phase by phase, deterministically per seed.

    Returns a read-only, C-ordered (K, 2) float64 array of (phase, x) rows,
    ``samples_per_phase`` per phase in the order of ``phases``.  Each phase
    draws by inverse-CDF, with linear interpolation, over its row of one
    ``marginal`` call for all phases on a 4001-point grid spanning [-8, 8].
    Phase i uses the derived seed ``seed + i``.  The uniforms are interpolated
    in sorted order and put back in draw order, so each value is the one that
    interpolating the unsorted draws gives, bit for bit.  A detector of
    efficiency eta is modelled by sampling ``apply_loss(rho, eta)``.
    """
    _require("phases", _PHASES, phases)
    _require("samples_per_phase", _SAMPLES, samples_per_phase)
    _require("seed", _SEED, seed)
    phases, count = tuple(map(float, phases)), samples_per_phase
    xs = np.linspace(SAMPLING_X_MIN, SAMPLING_X_MAX, SAMPLING_POINTS)
    samples = np.empty((len(phases) * count, 2))  # filled phase by phase, so no draw is held twice
    for i, dens in enumerate(marginal([rho], phases, xs)[0]):
        cdf = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(xs))))
        cdf /= cdf[-1]
        u = np.random.default_rng(seed + i).random(count)
        # np.interp gives u the value at the largest j with cdf[j] <= u, an index that is unique even where cdf
        # repeats, so the value does not depend on the order of the points; on sorted points it walks forward from
        # its last index instead of searching.  Equal draws get equal values, so the sort need not be stable.
        order = np.argsort(u)
        u[order] = np.interp(u[order], cdf, xs)  # scattered where the values lie contiguous, then copied once
        block = samples[i * count: (i + 1) * count]
        block[:, 0], block[:, 1] = phases[i], u
    samples.flags.writeable = False
    return samples


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
    """Iterative maximum-likelihood estimate of the density matrix from per-phase cell counts.

    Iterates rho <- normalize(R rho R) with R = (1/K) sum_j Pi_j / Tr(rho Pi_j),
    where Pi_j[a, b] = psi_a(x_j) psi_b(x_j) conj(F_ab) projects onto the
    quadrature eigenvector of sample j (F_ab = e^{i(b-a)theta}, as in
    :func:`~cvortho.phasespace.marginal`), diluting a step that would lower
    the likelihood.  Stops at ``max_iter`` or when the gain drops below
    ``tol`` (``stop_reason`` says which; ``tol=-inf`` runs all ``max_iter``).
    No efficiency correction: loss before sampling gives the lossy state.

    Sample j counts at the midpoint of its cell [x_min + k h, x_min + (k+1) h)
    of the sampling grid (h = 0.004, extended past [-8, 8]).
    :func:`sample_quadratures` draws from a density that is constant on each
    cell, so for its samples the cell counts lose nothing; for other samples
    this is a midpoint rule.  The counts form one dense table, a row per phase
    (told apart by its bits, in order of first use) and a column per cell that
    any phase occupies, so a distinct phase per sample costs memory quadratic
    in K.  Rows come from runs of one phase: the sampler's one run per phase
    needs one lookup per run, and samples whose phase changes at least once
    per 4 samples are looked up one by one, into the same table.  Beside the
    samples, the set-up then holds at most two per-sample arrays of 8 bytes
    at a time.  psi_a psi_b expands over 2 dim - 1 features at those cells
    (:func:`product_coefficients`): a sweep is two matrix products each way.
    ``samples`` is any (K, 2) array-like of (phase, x) rows, such as
    ``np.load("samples.npy")``.  A :class:`DataError` names, in the first
    phase with occupied cells of p <= 0, the lowest row among its samples
    in those cells.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError(f"samples must be a (K, 2) array of (phase, x) rows, got shape {samples.shape}")
    if len(samples) == 0:
        raise ValueError("at least one sample is required")
    _require("dim", _RECON_DIM, dim)
    _require("max_iter", _MAX_ITER, max_iter)

    flat = product_coefficients(dim).reshape(dim * dim, -1)
    bits = samples[:, 0].view(np.int64)  # tells -0.0 from 0.0
    change = bits[1:] != bits[:-1]
    if _SAMPLES_PER_CHANGE * np.count_nonzero(change) < bits.size:  # few runs of one phase: rows found per run
        starts = np.concatenate(([0], np.flatnonzero(change) + 1))  # each run's first sample
        lengths, keys = np.diff(starts, append=bits.size), bits[starts]
    else:  # interleaved phases: each sample is its own run
        starts, keys = None, bits
    del change
    uniq, first = np.unique(keys, return_index=True)
    first = first if starts is None else starts[first]  # each phase's first sample
    rank = np.argsort(np.argsort(first))  # each phase's table row: rows in order of first use

    def table():
        """The occupied cells, sorted, and each sample's entry of the flattened table; a DataError recomputes it."""
        with np.errstate(over="ignore", invalid="ignore"):  # an x past the float range has a cell of inf, a nan x nan
            col = samples[:, 1] - SAMPLING_X_MIN  # each sample's cell, then its column, in place
            col /= _CELL_WIDTH
            np.floor(col, out=col)
            lo, span = col.min(), np.ptp(col)
        if span < col.size + SAMPLING_POINTS:  # finite, and a flag per cell in the span costs no more than the samples
            col -= lo
            col = col.astype(np.intp)
            used = np.bincount(col) > 0
            cell, col = lo + np.flatnonzero(used), (np.cumsum(used) - 1)[col]
        else:
            cell, col = np.unique(col, return_inverse=True)
        offset = rank[np.searchsorted(uniq, keys)] * cell.size  # each run's row, as an offset into the table
        col += offset if starts is None else np.repeat(offset, lengths)
        return cell, col

    cell, entry = table()
    counts = np.bincount(entry, minlength=first.size * cell.size)
    del entry  # no per-sample array outlives the count
    occupied = np.flatnonzero(counts)
    counts = counts[occupied].astype(np.float64)
    # a cell of inf or nan, or a huge or infinite phase, gives features or F of 0 or nan: the sweep's DataError
    with np.errstate(over="ignore", invalid="ignore"):
        feats = hermite_functions(math.sqrt(2.0) * (SAMPLING_X_MIN + (cell + 0.5) * _CELL_WIDTH), 2 * dim - 1)
        phase_mats = np.stack([_phase_matrix(samples[j, 0], dim).ravel() for j in np.sort(first)])

    q = np.zeros((first.size, cell.size))  # counts / p on the occupied entries, 0 elsewhere: only those entries change
    q_flat = q.reshape(-1)

    def sweep(rho):
        """Log-likelihood of rho and its R operator, from two products each way between the table and the features."""
        p = ((np.real(phase_mats * rho.ravel()) @ flat) @ feats).ravel()[occupied]
        if not np.all(p > 0.0):  # before log and 1/p, so a p of 0 or nan raises without a warning
            bad = occupied[~(p > 0.0)]
            j = int(np.flatnonzero(np.isin(table()[1], bad[bad // cell.size == bad[0] // cell.size]))[0])
            raise DataError(f"sample {j} (phase={samples[j, 0]:.10f}, x={samples[j, 1]:.6g}) "
                            "has non-positive likelihood under the current state")
        q_flat[occupied] = counts / p
        r_op = np.sum(phase_mats.conj() * ((q @ feats.T) @ flat.T), axis=0).reshape(dim, dim) / len(samples)
        return float(np.sum(counts * np.log(p))), r_op  # np.sum: a BLAS dot this long rounds by its thread count

    rho, eye = np.eye(dim, dtype=np.complex128) / dim, np.eye(dim)
    loglik, r_op = sweep(rho)
    trace = [loglik]
    stop_reason = "max_iter"
    for _ in range(max_iter):
        for eps in _DILUTIONS:
            m = r_op + eps * eye
            step = m @ rho @ m
            step = (step + step.conj().T) / (2.0 * np.trace(step).real)
            loglik, step_r = sweep(step)
            if loglik >= trace[-1] - _TRACE_SLACK:
                break
        rho, r_op = step, step_r
        trace.append(loglik)
        if trace[-1] - trace[-2] < tol:
            stop_reason = "tol"
            break

    gap = len(samples) * (float(np.linalg.eigvalsh(r_op)[-1]) - 1.0)
    return ReconstructionResult(DensityMatrix(rho, Truncation(dim)), np.asarray(trace), len(trace) - 1, stop_reason, gap)
