"""Simulated homodyne acquisition and iterative maximum-likelihood tomography.

Samples are one (K, 2) float64 array of (phase, x) rows, the layout of ``samples.npy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import _int_rule, _require, _sector_blocks, check_density
from .phasespace import _matmul, _phase_matrix, hermite_functions, hermite_integrals, marginal

__all__ = [
    "ReconstructionResult",
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
# Width of a sampling-grid cell, on which the sampled density is constant; a MaxLik cell is a run of them
_CELL_WIDTH = (SAMPLING_X_MAX - SAMPLING_X_MIN) / (SAMPLING_POINTS - 1)
# MaxLik reads the samples this many rows at a time, so it holds no per-sample array beside them
_BLOCK = 16_384

STOP_REASONS = ("tol", "max_iter")
_TRACE_SLACK = 1e-9  # the log-likelihood decrease that a step may show from rounding alone
# Step operators R + eps 1: eps = 0 is RrhoR; where that lowers the log-likelihood, eps = 1, 3, 7, ... dilute the
# step (Rehacek et al., PRA 75, 042108, 2007), which gains once eps is large enough
_DILUTIONS = (0.0, *(2.0**n - 1.0 for n in range(1, 31)))


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

    rho_hat: np.ndarray
    log_likelihood_trace: np.ndarray
    stop_reason: str
    loglik_gap: float
    cell_width: float

    def __post_init__(self):
        _require("stop_reason", ((lambda v: v in STOP_REASONS), f"one of {STOP_REASONS}"), self.stop_reason)
        trace = np.asarray(self.log_likelihood_trace, dtype=np.float64)
        if trace.size and np.any(np.diff(trace) < -_TRACE_SLACK):
            raise ValueError("log-likelihood trace decreased beyond numerical slack")
        trace.flags.writeable = False
        object.__setattr__(self, "log_likelihood_trace", trace)

    @property
    def iterations_used(self) -> int:
        """The sweeps run, one fewer than the trace's entries (the first is the start's log-likelihood)."""
        return len(self.log_likelihood_trace) - 1


def sample_quadratures(rho: np.ndarray, phases, samples_per_phase: int, seed: int) -> np.ndarray:
    """Draw ideal (lossless) homodyne samples of ``rho``, phase by phase, deterministically per seed.

    Returns a read-only, C-ordered (K, 2) float64 array of (phase, x) rows,
    ``samples_per_phase`` per phase in the order of ``phases``.  Each phase
    draws by inverse-CDF, with linear interpolation, over its row of one
    ``marginal`` call for all phases on a 4001-point grid spanning [-8, 8].
    Phase i uses the derived seed ``seed + i``.  The uniforms are interpolated
    in nearly sorted order and put back in draw order, so each value is the one
    that interpolating the unsorted draws gives, bit for bit.  A detector of
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
        # np.interp gives u the value at the largest j with cdf[j] <= u, unique even where cdf repeats, so the value
        # does not depend on the order of the points; on sorted points it walks forward instead of searching.  The
        # order sorts one key per draw: u's bits, which sort as u >= 0 does, with the draw's index in the low ones.
        low = max(1, (count - 1).bit_length())
        order = np.sort(u.view(np.uint64) >> low << low | np.arange(count, dtype=np.uint64)) & ((1 << low) - 1)
        u[order] = np.interp(u[order], cdf, xs)  # scattered where the values lie contiguous, then copied once
        block = samples[i * count: (i + 1) * count]
        block[:, 0], block[:, 1] = phases[i], u
    samples.flags.writeable = False
    return samples


def product_coefficients(dim: int) -> np.ndarray:
    """Exact expansion psi_a(x) psi_b(x) = sum_m L[a, b, m] psi_m(sqrt2 x), m < 2 dim - 1.

    psi_a(x) psi_b(x) is the wave function of |a, b> at (x, x), a point that
    the balanced beam splitter turns to 0 in the first mode and sqrt2 x in
    the second.  With B_N the pi/4 block of sector N = a + b (the blocks that
    :func:`~cvortho.phasespace.wigner` reads),
    L[a, b, m] = B_N[<N-m, m| <- |a, b>] psi_{N-m}(0), which is 0 for m > N.
    """
    at_zero = hermite_functions([0.0], 2 * dim - 1)[:, 0]
    coeffs = np.zeros((dim, dim, 2 * dim - 1))
    for n, block in enumerate(_sector_blocks(math.pi / 4, dim)):
        b = np.arange(max(0, n - dim + 1), min(n, dim - 1) + 1)
        coeffs[n - b, b, : n + 1] = (block * at_zero[n::-1, None]).T
    return coeffs


def _cell_span(dim: int) -> int:
    """The k sampling-grid cells in one of :func:`maxlik_reconstruct`'s cells at ``dim``."""
    return int(2.0 * math.pi / math.sqrt(2.0 * (4 * dim - 3)) / 16.0 / _CELL_WIDTH)


def maxlik_reconstruct(samples, dim: int, max_iter: int = 2000, tol: float = 1e-10) -> ReconstructionResult:
    """Iterative maximum-likelihood estimate of the density matrix from per-phase cell counts.

    Iterates rho <- normalize(R rho R) with R = (1/K) sum_j Pi_j / Tr(rho Pi_j),
    where Pi_j[a, b] = psi_a(x_j) psi_b(x_j) conj(F_ab) projects onto the
    quadrature eigenvector of sample j (F_ab = e^{i(b-a)theta}, as in
    :func:`~cvortho.phasespace.marginal`), diluting a step that would lower
    the likelihood.  Stops at ``max_iter`` or when the gain drops below
    ``tol`` (``stop_reason`` says which; ``tol=-inf`` runs all ``max_iter``).
    No efficiency correction: loss before sampling gives the lossy state.

    Sample j counts in cell c = col // k for its column col = floor((x - x_min)
    / h) of the sampling grid (h = 0.004, extended past [-8, 8]): the union
    [x_min + c w, x_min + (c+1) w), w = k h (``cell_width``), of grid cells on
    each of which :func:`sample_quadratures` draws from a constant density.
    k, the most grid cells at most 1/16 as wide as 2 pi / sqrt(2 (4 dim - 3)),
    the wavelength at x = 0 of the fastest feature, is 9 at dim 15, where the
    sweep's cost stops falling.  Features enter as exact cell means
    (:func:`~cvortho.phasespace.hermite_integrals`), so the estimate is the
    exact MLE of the binned counts.  The counts form one dense table, a row per phase
    (told apart by its bits, in order of first use) and a column per cell that
    any phase occupies, so a distinct phase per sample costs memory quadratic
    in K.  The set-up counts the samples 16,384 rows at a time, with one
    lookup per run of one phase in a block whatever the phase order, so
    beside the samples it holds no per-sample array: only a block's arrays
    and the table.  psi_a psi_b expands over 2 dim - 1 features on those
    cells (:func:`product_coefficients`): a sweep is two ``_matmul`` products
    each way, so no bit depends on the thread count.
    ``samples`` is any (K, 2) array-like of (phase, x) rows, such as
    ``np.load("samples.npy")``.  A ``ValueError`` names, in the first
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

    flat, k = product_coefficients(dim).reshape(dim * dim, -1), _cell_span(dim)
    width = k * (SAMPLING_X_MAX - SAMPLING_X_MIN) / (SAMPLING_POINTS - 1)  # k h, rounded once

    def blocks():
        """Each block's first row, its runs of one phase (bits, lengths) and each sample's cell c = col // k."""
        for at in range(0, len(samples), _BLOCK):
            block = samples[at:at + _BLOCK]
            bits = block[:, 0].view(np.int64)  # tells -0.0 from 0.0
            starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
            with np.errstate(over="ignore"):  # an x past the float range has a cell of inf, a nan x nan
                col = np.floor((block[:, 1] - SAMPLING_X_MIN) / _CELL_WIDTH)
            yield at, bits[starts], np.diff(starts, append=bits.size), np.floor(col / k)  # col // k to 2^46, 15x faster

    keys, ends = np.empty(0, np.int64), []  # the phases' bits in order of first use; each block's lowest, highest cell
    for _, runs, _, col in blocks():
        uniq, first = np.unique(runs, return_index=True)
        fresh = ~np.isin(uniq, keys)
        keys = np.concatenate((keys, uniq[fresh][np.argsort(first[fresh])]))
        ends.append((col.min(), col.max()))
    lo, hi = np.array(ends).T
    lo = lo.min()
    with np.errstate(invalid="ignore"):  # the span from -inf or to inf is nan or inf
        span = hi.max() - lo
    if keys.size * span < len(samples) + SAMPLING_POINTS:  # finite, and a table over it is no longer than the samples
        cells, column = lo + np.arange(int(span) + 1), lambda col: (col - lo).astype(np.intp)
    else:
        cells = np.unique(np.concatenate([np.unique(col) for *_, col in blocks()]))
        column = lambda col: np.searchsorted(cells, col)

    def entries():
        """Each block's first row and its samples' entries of the flattened (phase, cell) table; a refusal rereads."""
        order = np.argsort(keys)
        for at, runs, lengths, col in blocks():
            yield at, column(col) + np.repeat(order[np.searchsorted(keys, runs, sorter=order)] * cells.size, lengths)

    counts = np.zeros(keys.size * cells.size, dtype=np.intp)
    for _, entry in entries():
        counts += np.bincount(entry, minlength=counts.size)
    counts = counts.reshape(keys.size, -1)
    columns = np.flatnonzero(counts.any(axis=0))  # the cells that any phase occupies
    cell, counts = cells[columns], counts[:, columns].ravel()
    occupied = np.flatnonzero(counts)
    counts = counts[occupied].astype(np.float64)
    # a cell of inf or nan, or a huge or infinite phase, gives features or F of 0 or nan: the sweep refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        edges = math.sqrt(2.0) * (SAMPLING_X_MIN + np.stack((cell, cell + 1.0)) * width)
        feats = hermite_integrals(*edges, 2 * dim - 1) / (math.sqrt(2.0) * width)  # each feature's mean over each cell
        phase_mats = np.stack([_phase_matrix(phase, dim).ravel() for phase in keys.view(np.float64)])

    q = np.zeros((keys.size, cell.size))  # counts / p on the occupied entries, 0 elsewhere: only those entries change
    q_flat = q.reshape(-1)

    def sweep(rho):
        """Log-likelihood of rho and its R operator, from two products each way between the table and the features."""
        p = _matmul(_matmul(np.real(phase_mats * rho.ravel()), flat), feats).ravel()[occupied]
        if not np.all(p > 0.0):  # before log and 1/p, so a p of 0 or nan raises without a warning
            bad = occupied[~(p > 0.0)]
            bad = bad[bad // cell.size == bad[0] // cell.size]  # in the first phase that has any
            bad = bad // cell.size * cells.size + columns[bad % cell.size]  # as entries of the table over ``cells``
            j = next(at + int(np.argmax(hit)) for at, entry in entries() if (hit := np.isin(entry, bad)).any())
            raise ValueError(f"sample {j} (phase={samples[j, 0]:.10f}, x={samples[j, 1]:.6g}) "
                             "has non-positive likelihood under the current state")
        q_flat[occupied] = counts / p
        r_op = np.sum(phase_mats.conj() * _matmul(_matmul(q, feats.T), flat.T), axis=0).reshape(dim, dim) / len(samples)
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
    return ReconstructionResult(check_density(rho), np.asarray(trace), stop_reason, gap, width)
