import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import kstest

from cvortho import (
    ReconstructionResult,
    Truncation,
    apply_loss,
    coherent_state,
    fidelity,
    fock_state,
    maxlik_reconstruct,
    project_density,
    sample_quadratures,
    uniform_phases,
)
from cvortho import homodyne
from cvortho.homodyne import (
    _MAX_RECON_DIM,
    SAMPLING_POINTS,
    SAMPLING_X_MAX,
    SAMPLING_X_MIN,
    product_coefficients,
)
from cvortho.phasespace import _phase_matrix, hermite_functions, hermite_integrals, marginal, npy_buffers

from conftest import mixed_states, random_mixed_state, random_state


def samples_npy(samples) -> bytes:
    """The bytes of ``samples.npy`` for the (K, 2) ``samples``: ``npy_buffers`` of them, as the runner writes."""
    return b"".join(npy_buffers(samples))


def unsorted_sampler(rho, phases, per_phase, seed):
    """Reference inverse-CDF sampler: each phase's uniforms interpolated in draw order, one binary search each."""
    xs = np.linspace(SAMPLING_X_MIN, SAMPLING_X_MAX, SAMPLING_POINTS)
    draws = []
    for i, dens in enumerate(marginal([rho], phases, xs)[0]):
        cdf = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(xs))))
        cdf /= cdf[-1]
        draws.append(np.interp(np.random.default_rng(seed + i).random(per_phase), cdf, xs))
    return np.column_stack([np.repeat(np.array(phases, dtype=np.float64), per_phase), np.concatenate(draws)])


@st.composite
def staircase_cdfs(draw):
    """A nondecreasing CDF from 0 with flat runs and a run of 1.0 at the top, on increasing knots."""
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=40))
    cdf = np.concatenate(([0.0], np.cumsum(steps + [1.0])))
    cdf = np.concatenate((cdf / cdf[-1], np.ones(draw(st.integers(0, 3)))))
    knots = np.cumsum(draw(st.lists(st.floats(1e-3, 1.0), min_size=cdf.size, max_size=cdf.size)))
    return cdf, knots


def dense_maxlik(cells, dim, max_iter, tol):
    """Reference RrhoR iteration on the dense per-sample d x d kernel.

    Takes the (phase, lo, hi) rows of :func:`snapped`.  Each sample's kernel is
    the mean of psi_a psi_b over its cell, each entry by ``scipy.integrate.quad``,
    and the samples group phase by phase in order of first appearance; returns
    the estimate and the log-likelihood trace.
    """
    psi = functools.lru_cache(maxsize=None)(lambda x: hermite_functions([x], dim)[:, 0])
    kernels = {}
    for lo, hi in {(lo, hi) for _, lo, hi in cells.tolist()}:
        kernel = kernels[lo, hi] = np.empty((dim, dim))
        for a in range(dim):
            for b in range(a, dim):
                kernel[a, b] = kernel[b, a] = quad(lambda x: psi(x)[a] * psi(x)[b], lo, hi)[0] / (hi - lo)
    buckets = {}
    for phase, lo, hi in cells.tolist():
        buckets.setdefault(phase, []).append(kernels[lo, hi])
    groups = [(np.array(kerns), np.exp(1j * phase * np.arange(dim))) for phase, kerns in buckets.items()]

    def probabilities(rho):
        return [np.einsum("kab,ab->k", kerns, np.real(np.conj(m)[:, None] * rho * m[None, :])) for kerns, m in groups]

    rho = np.eye(dim, dtype=np.complex128) / dim
    probs = probabilities(rho)
    loglik = [float(sum(np.sum(np.log(p)) for p in probs))]
    for _ in range(max_iter):
        r_op = np.zeros((dim, dim), dtype=np.complex128)
        for (kerns, m), p in zip(groups, probs):
            r_op += (m[:, None] * np.conj(m)[None, :]) * np.einsum("kab,k->ab", kerns, 1.0 / p)
        r_op /= len(cells)
        rho = r_op @ rho @ r_op
        rho = (rho + rho.conj().T) / 2.0
        rho /= np.trace(rho).real
        probs = probabilities(rho)
        loglik.append(float(sum(np.sum(np.log(p)) for p in probs)))
        if loglik[-1] - loglik[-2] < tol:
            break
    return rho, np.asarray(loglik)


def unblocked_maxlik(cells, dim, max_iter, tol):
    """Reference sweep over each phase's whole (2 dim - 1) x K_i per-sample feature matrix, two products per sweep.

    The same RrhoR iteration as maxlik_reconstruct on the (phase, lo, hi) rows of
    :func:`snapped`, phases in order of first appearance, but with one feature
    column per sample, the features' means over its cell, rather than per cell;
    returns the estimate and the log-likelihood trace.
    """
    coeffs = product_coefficients(dim)
    flat = coeffs.reshape(dim * dim, -1)
    buckets = {}
    for phase, lo, hi in cells.tolist():
        buckets.setdefault(phase, []).append((lo, hi))
    groups = []
    for phase, ends in buckets.items():
        lo, hi = np.array(ends).T
        feats = hermite_integrals(math.sqrt(2.0) * lo, math.sqrt(2.0) * hi, 2 * dim - 1) / (math.sqrt(2.0) * (hi - lo))
        groups.append((feats, _phase_matrix(phase, dim)))

    def sweep(rho):
        loglik, r_op = 0.0, np.zeros((dim, dim), dtype=np.complex128)
        for feats, phase_mat in groups:
            p = (flat.T @ np.real(rho * phase_mat).ravel()) @ feats
            loglik += float(np.sum(np.log(p)))
            r_op += phase_mat.conj() * (coeffs @ (feats @ (1.0 / p)))
        return loglik, r_op / len(cells)

    rho = np.eye(dim, dtype=np.complex128) / dim
    loglik, r_op = sweep(rho)
    trace = [loglik]
    for _ in range(max_iter):
        rho = r_op @ rho @ r_op
        rho = (rho + rho.conj().T) / 2.0
        rho /= np.trace(rho).real
        loglik, r_op = sweep(rho)
        trace.append(loglik)
        if trace[-1] - trace[-2] < tol:
            break
    return rho, np.asarray(trace)


def cell_span(dim):
    """The sampling-grid cells in a MaxLik cell: the most whose width is at most 1/16 of the fastest feature's
    wavelength at x = 0, 2 pi / sqrt(2 (4 dim - 3))."""
    h = (SAMPLING_X_MAX - SAMPLING_X_MIN) / (SAMPLING_POINTS - 1)
    return math.floor(2.0 * math.pi / math.sqrt(2.0 * (4 * dim - 3)) / (16.0 * h))


def snapped(samples, dim):
    """(phase, lo, hi) rows: each sample's MaxLik cell [x_min + c w, x_min + (c+1) w) at ``dim``, w = k h, where
    c = col // k for its sampling-grid column col = floor((x - x_min) / h)."""
    h = (SAMPLING_X_MAX - SAMPLING_X_MIN) / (SAMPLING_POINTS - 1)
    k = cell_span(dim)
    c = np.floor((samples[:, 1] - SAMPLING_X_MIN) / h) // k
    w = k * (SAMPLING_X_MAX - SAMPLING_X_MIN) / (SAMPLING_POINTS - 1)
    return np.column_stack([samples[:, 0], SAMPLING_X_MIN + c * w, SAMPLING_X_MIN + (c + 1) * w])


@st.composite
def run_sample_sets(draw):
    """(K, 2) samples in runs of one phase, 1 to 9 long, from a pool with both signed zeros; some x past [-8, 8]."""
    runs = draw(st.lists(st.tuples(st.sampled_from((0.0, -0.0, 0.7, 2.1)), st.integers(1, 9)), min_size=1, max_size=12))
    phases = np.concatenate([np.full(length, phase) for phase, length in runs])
    xs = draw(st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from((-9.5, -8.0, 8.0, 8.5, 12.0))),
                       min_size=phases.size, max_size=phases.size))
    return np.column_stack([phases, xs])


def maxlik_outcome(samples, **kwargs):
    """Every bit of what ``maxlik_reconstruct(samples, **kwargs)`` returns, or the text of its refusal of a sample."""
    try:
        res = maxlik_reconstruct(samples, **kwargs)
    except ValueError as error:
        if " has non-positive likelihood under the current state" not in str(error):
            raise
        return str(error)
    return (res.rho_hat.elems.tobytes(), res.log_likelihood_trace.tobytes(), res.iterations_used, res.stop_reason,
            res.loglik_gap.hex(), res.cell_width.hex())


def single_photon_cdf(x):
    # integral of 2 t^2 exp(-t^2)/sqrt(pi) from -inf to x
    return 0.5 + 0.5 * erf(x) - x * np.exp(-(x**2)) / math.sqrt(math.pi)


class TestSamplingArguments:
    def test_phase_validation(self):
        rho = fock_state(0, Truncation(4)).to_density()
        with pytest.raises(ValueError, match="^phases: must be"):
            sample_quadratures(rho, (0.1, 0.1), 10, 0)
        with pytest.raises(ValueError, match="^phases: must be"):
            sample_quadratures(rho, (), 10, 0)
        with pytest.raises(ValueError, match="^samples_per_phase: must be"):
            sample_quadratures(rho, (0.0,), 0, 0)
        with pytest.raises(ValueError, match="^seed: must be"):
            sample_quadratures(rho, (0.0,), 1, -1)

    def test_uniform_phases(self):
        phases = uniform_phases(10)
        assert len(phases) == 10
        assert phases[0] == 0.0
        assert all(0 <= p < math.pi for p in phases)


class TestSampleQuadratures:
    def test_seeded_determinism(self):
        rho = coherent_state(0.5, Truncation(15)).to_density()
        assert samples_npy(sample_quadratures(rho, uniform_phases(3), 200, 42)) == samples_npy(
            sample_quadratures(rho, uniform_phases(3), 200, 42))

    def test_coherent_sample_mean(self):
        # Gaussian with mean sqrt(2) and sigma 1/sqrt(2): a five-sigma
        # standard-error bound on the sample mean
        n = 100_000
        rho = coherent_state(1.0, Truncation(25)).to_density()
        xs = sample_quadratures(rho, (0.0,), n, 9)[:, 1]
        assert abs(xs.mean() - math.sqrt(2.0)) < 5 * (1 / math.sqrt(2.0)) / math.sqrt(n)

    @pytest.mark.parametrize("phase", [0.0, 1.1])
    def test_single_photon_ks(self, phase):
        rho = fock_state(1, Truncation(12)).to_density()
        xs = sample_quadratures(rho, (phase,), 100_000, 17)[:, 1]
        stat = kstest(xs, single_photon_cdf).statistic
        assert stat < 0.01

    def test_loss_applied_before_sampling(self):
        # eta=0 collapses any state to vacuum statistics
        rho = coherent_state(1.5, Truncation(30)).to_density()
        xs = sample_quadratures(apply_loss(rho, 0.0), (0.0,), 50_000, 3)[:, 1]
        assert abs(xs.mean()) < 5 * (1 / math.sqrt(2.0)) / math.sqrt(50_000)

    @settings(max_examples=40, deadline=None)
    @given(rho=mixed_states(10), phases=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5, unique=True),
           per_phase=st.one_of(st.sampled_from([1, 2, 4096, 4097]), st.integers(1, 4001)),
           seed=st.integers(0, 2**32 - 1))
    def test_sorted_draws_match_the_unsorted_sampler(self, rho, phases, per_phase, seed):
        assert samples_npy(sample_quadratures(rho, phases, per_phase, seed)) == samples_npy(
            unsorted_sampler(rho, phases, per_phase, seed))

    @settings(max_examples=200, deadline=None)
    @given(curve=staircase_cdfs(), data=st.data())
    def test_interp_does_not_depend_on_the_order_of_the_points(self, curve, data):
        # np.interp gives u the value at the largest j with cdf[j] <= u, wherever u stands in the input
        cdf, knots = curve
        picks = st.one_of(st.floats(0.0, 1.0), st.sampled_from(cdf.tolist()))
        u = np.array([0.0] + data.draw(st.lists(picks, min_size=1, max_size=2 * cdf.size)))
        u = np.concatenate((u, data.draw(st.lists(st.sampled_from(u.tolist()), min_size=1, max_size=u.size))))
        u = u[data.draw(st.permutations(range(u.size)))]
        order = np.argsort(u)
        scattered = np.empty_like(u)
        scattered[order] = np.interp(u[order], cdf, knots)
        assert np.array_equal(scattered.view(np.int64), np.interp(u, cdf, knots).view(np.int64))


class TestMaxLikReconstruct:
    def test_vacuum_round_trip(self):
        rho = fock_state(0, Truncation(12)).to_density()
        res = maxlik_reconstruct(sample_quadratures(rho, uniform_phases(10), 5000, 1), dim=10, max_iter=200, tol=1e-9)
        assert fidelity(res.rho_hat, project_density(rho, Truncation(10))) >= 0.99

    def test_qubit_round_trip(self):
        from conftest import qubit_operator

        from cvortho import OperatorKind, OrthogonalizerSpec, StateVector

        t = Truncation(25)
        psi = coherent_state(1.0, t)
        spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi)
        state = StateVector(qubit_operator(spec, 1.0, t) @ psi.amps, psi.trunc).normalized()
        res = maxlik_reconstruct(sample_quadratures(state.to_density(), uniform_phases(10), 5000, 2), dim=15,
                                 max_iter=250, tol=1e-9)
        assert fidelity(res.rho_hat, project_density(state.to_density(), Truncation(15))) >= 0.98

    def test_likelihood_monotone_and_invariants(self):
        rho = coherent_state(0.7, Truncation(15)).to_density()
        res = maxlik_reconstruct(sample_quadratures(rho, uniform_phases(5), 2000, 4), dim=8, max_iter=120, tol=1e-12)
        assert np.all(np.diff(res.log_likelihood_trace) > -1e-9)
        assert len(res.log_likelihood_trace) == res.iterations_used + 1
        elems = res.rho_hat.elems
        assert np.max(np.abs(elems - elems.conj().T)) < 1e-12
        assert np.trace(elems).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(elems)) > -1e-10

    def test_stops_on_small_gain(self):
        rho = fock_state(0, Truncation(8)).to_density()
        res = maxlik_reconstruct(sample_quadratures(rho, uniform_phases(4), 1000, 5), dim=6, max_iter=2000, tol=1e-2)
        assert res.iterations_used < 2000

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="^at least one sample is required$"):
            maxlik_reconstruct(np.empty((0, 2)), dim=5)

    def test_dim_range(self):
        samples = [[0.0, 0.1]]
        with pytest.raises(ValueError):
            maxlik_reconstruct(samples, dim=1)
        with pytest.raises(ValueError):
            maxlik_reconstruct(samples, dim=31)

    def test_data_error_names_sample(self):
        samples = [[0.0, 0.1], [0.0, 1e6]]
        with pytest.raises(ValueError, match="sample 1"):
            maxlik_reconstruct(samples, dim=5, max_iter=5)

    def test_data_error_names_caller_position_across_phases(self):
        # phases interleave; the bad sample is the third of the second phase
        xs = [0.1, -0.2, 0.3, 0.4, -0.5, 1e6, 0.7]
        phases = [0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0]
        samples = np.column_stack([phases, xs])
        with pytest.raises(ValueError, match=r"sample 5 \(phase=0\.5000000000, x=1e\+06\)"):
            maxlik_reconstruct(samples, dim=5, max_iter=5)

    def test_data_error_names_the_phase_used_first(self):
        # both phases hold a bad sample; 0.5 is used first, so its group runs first
        # (taking groups in order of phase value would name sample 3 instead)
        xs = [0.1, 0.2, 0.3, 1e6, 1e6, 0.4]
        phases = [0.5, 0.0, 0.5, 0.0, 0.5, 0.0]
        with pytest.raises(ValueError, match=r"sample 4 \(phase=0\.5000000000, x=1e\+06\)"):
            maxlik_reconstruct(np.column_stack([phases, xs]), dim=5, max_iter=5)

    def test_data_error_deep_in_a_phase_names_caller_position(self):
        # two interleaved phases of 4106 samples; the bad one is phase 0.5's 4100th
        xs = np.full(2 * 4106, 0.3)
        phases = np.tile([0.0, 0.5], 4106)
        bad = 2 * 4099 + 1
        xs[bad] = 1e6
        with pytest.raises(ValueError, match=rf"sample {bad} \(phase=0\.5000000000, x=1e\+06\)"):
            maxlik_reconstruct(np.column_stack([phases, xs]), dim=5, max_iter=5)

    @pytest.mark.parametrize("x", [1e6, 1e200, -1e200, 1.7e308, math.inf, -math.inf, math.nan])
    def test_zero_likelihood_raises_without_warning(self, x):
        # every feature of x = 1e6 underflows to 0, so p = 0 exactly: log(p) and 1/p must not warn; sqrt2 x overflows
        # when squared from 1e200 on, and inf and nan give inf * 0 or nan in the recurrence, so p is 0 or nan there
        samples = [[0.0, 0.1], [0.0, x], [0.0, -0.2]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="has non-positive likelihood") as raised:
                maxlik_reconstruct(samples, dim=5, max_iter=5)
        assert str(raised.value).startswith(f"sample 1 (phase=0.0000000000, x={x:.6g}) has non-positive")

    @pytest.mark.parametrize("xs", [[math.inf], [-math.inf, -math.inf], [1e308, 1e308], [math.nan, math.inf]])
    def test_no_finite_cell_raises_without_warning(self, xs):
        # every cell is inf or nan, so the cells' span is inf - inf or nan: no finite table column, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^sample 0 \(phase=0\.0000000000, x="):
                maxlik_reconstruct([[0.0, x] for x in xs], dim=5, max_iter=5)

    @pytest.mark.parametrize("order", ["sampler", "permuted"])
    def test_set_up_peaks_below_two_megabytes(self, order):
        # K = 500,000 at dim 15, as the sampler writes them or with the phases interleaved: beside the samples (8 MB),
        # MaxLik holds a block's arrays, the table and the features, and no per-sample array
        rho = apply_loss(coherent_state(1.0, Truncation(20)).to_density(), 0.6)
        samples = sample_quadratures(rho, uniform_phases(10), 50_000, 1)
        if order == "permuted":
            samples = samples[np.random.default_rng(1).permutation(len(samples))]
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            maxlik_reconstruct(samples, dim=15, max_iter=1)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @settings(max_examples=60, deadline=None)
    @given(samples=run_sample_sets())
    def test_every_block_size_gives_the_same_bits(self, samples):
        # blocks of 1, 2, 3 and 7 rows cut runs of one phase anywhere, and a row's phase may be new to its block
        expected = maxlik_outcome(samples, dim=5, max_iter=8, tol=1e-4)
        for size in (1, 2, 3, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(homodyne, "_BLOCK", size)
                assert maxlik_outcome(samples, dim=5, max_iter=8, tol=1e-4) == expected

    @settings(max_examples=40, deadline=None)
    @given(samples=run_sample_sets(), at=st.integers(0, 107), x=st.sampled_from((1e6, -1e200, math.inf, math.nan)))
    def test_every_block_size_names_the_same_bad_sample(self, samples, at, x):
        samples[at % len(samples), 1] = x
        expected = maxlik_outcome(samples, dim=5, max_iter=8)
        assert expected.startswith(f"sample {at % len(samples)} (phase=")
        for size in (1, 2, 3, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(homodyne, "_BLOCK", size)
                assert maxlik_outcome(samples, dim=5, max_iter=8) == expected

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 2, 2), (0,), (0, 3)])
    def test_other_shapes_are_refused_by_shape(self, shape):
        with pytest.raises(ValueError, match=rf"^samples must be a \(K, 2\) array of \(phase, x\) rows, got shape "
                                             rf"{re.escape(str(shape))}$"):
            maxlik_reconstruct(np.zeros(shape), dim=5)

    def test_any_array_like_of_rows_is_read_as_the_array(self):
        rows = [(0.0, 0.1), (0.5, -0.2), (0, 1), (-0.0, 0.3)]
        a = maxlik_reconstruct(rows, dim=5, max_iter=5, tol=-np.inf)
        b = maxlik_reconstruct(np.array(rows, dtype=">f8"), dim=5, max_iter=5, tol=-np.inf)
        assert np.array_equal(a.rho_hat.elems, b.rho_hat.elems)
        assert np.array_equal(a.log_likelihood_trace, b.log_likelihood_trace)

    def test_stop_reason_tol(self):
        rho = fock_state(0, Truncation(8)).to_density()
        res = maxlik_reconstruct(sample_quadratures(rho, uniform_phases(4), 1000, 5), dim=6, max_iter=2000, tol=1e-2)
        assert res.stop_reason == "tol"

    def test_stop_reason_max_iter(self):
        rho = coherent_state(0.7, Truncation(15)).to_density()
        res = maxlik_reconstruct(sample_quadratures(rho, uniform_phases(5), 2000, 4), dim=8, max_iter=7, tol=1e-12)
        assert res.iterations_used == 7
        assert res.stop_reason == "max_iter"

    def test_unknown_stop_reason_rejected(self):
        rho = fock_state(0, Truncation(4)).to_density()
        with pytest.raises(ValueError, match="stop_reason"):
            ReconstructionResult(rho, np.zeros(1), 0, "gave_up", 0.0, 0.004)

    def test_falling_trace_rejected(self):
        rho = fock_state(0, Truncation(4)).to_density()
        with pytest.raises(ValueError, match="^log-likelihood trace decreased beyond numerical slack$"):
            ReconstructionResult(rho, np.array([-1.0, -1.1]), 1, "tol", 0.0, 0.004)


class TestMomentKernel:
    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(2, _MAX_RECON_DIM), x=st.floats(-9.0, 9.0))
    def test_product_expansion_is_exact(self, dim, x):
        psi = hermite_functions([x], dim)[:, 0]
        feats = hermite_functions([math.sqrt(2.0) * x], 2 * dim - 1)[:, 0]
        expanded = product_coefficients(dim) @ feats
        assert np.max(np.abs(expanded - np.outer(psi, psi))) <= 1e-13

    def test_finite_far_past_the_reconstruction_cap(self):
        coeffs = product_coefficients(120)
        assert coeffs.shape == (120, 120, 239) and np.all(np.isfinite(coeffs))

    @pytest.mark.parametrize("dim, phases, per_phase, seed", [(4, 3, 300, 1), (9, 5, 400, 2), (15, 7, 250, 3)])
    def test_matches_dense_oracle(self, dim, phases, per_phase, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(Truncation(20), rng, support=dim).to_density()
        drawn = sample_quadratures(apply_loss(rho, 0.7), uniform_phases(phases), per_phase, seed)
        samples = drawn[rng.permutation(len(drawn))]  # interleave the phases
        rho_ref, trace_ref = dense_maxlik(snapped(samples, dim), dim, max_iter=40, tol=-np.inf)
        res = maxlik_reconstruct(samples, dim=dim, max_iter=40, tol=-np.inf)
        assert res.iterations_used == 40
        assert np.max(np.abs(res.rho_hat.elems - rho_ref)) <= 1e-12
        assert np.max(np.abs(res.log_likelihood_trace - trace_ref) / np.abs(trace_ref)) <= 1e-12

    @pytest.mark.parametrize("outside", [(), (-9.5, -8.0, 8.0, 9.5)])
    def test_cell_counts_match_per_sample_oracle(self, outside):
        # three phases of unequal size; ``outside`` adds samples on the window's edges and in cells past it
        rng = np.random.default_rng(11)
        rho = random_state(Truncation(20), rng, support=8).to_density()
        draws = [sample_quadratures(apply_loss(rho, 0.8), (phase,), count, 7 + i)
                 for i, (phase, count) in enumerate(zip((0.3, 1.4, 2.6), (9000, 4097, 1000)))]
        edges = np.column_stack([np.repeat((0.3, 1.4, 2.6), len(outside)), np.tile(outside, 3)])
        samples = np.concatenate(draws + [edges])
        samples = samples[rng.permutation(len(samples))]  # interleave the phases
        rho_ref, trace_ref = unblocked_maxlik(snapped(samples, 8), 8, max_iter=30, tol=-np.inf)
        res = maxlik_reconstruct(samples, dim=8, max_iter=30, tol=-np.inf)
        assert res.iterations_used == 30
        assert np.linalg.norm(res.rho_hat.elems - rho_ref) <= 1e-12 * np.linalg.norm(rho_ref)
        assert np.max(np.abs(res.log_likelihood_trace - trace_ref) / np.abs(trace_ref)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(rho=mixed_states(_MAX_RECON_DIM), phase=st.floats(0.0, math.pi), data=st.data())
    def test_exact_integrals_match_the_trapezoid_integral_of_marginal(self, rho, phase, data):
        # sum_m c_m(theta) int_a^b f_m from hermite_integrals, on intervals at least a sampling-grid cell wide out to
        # |x| = 9, where the density falls below 1e-30 at low dim, against the trapezoid integral of marginal over
        # 40,001 points, Richardson-extrapolated from 20,001.  The error is measured against sum_m |c_m| |int f_m|, the
        # scale of the sum's rounding, which is as small as the tail's own integrals there: at most 4.3e-13 of it in a
        # scratch run of 400 cases at widths 0.004 to 1
        a = data.draw(st.one_of(st.floats(-9.0, 9.0 - 0.004), st.sampled_from((-9.0, 7.5, 8.9))))
        b = data.draw(st.one_of(st.floats(min(a + 0.004, 9.0), 9.0), st.just(9.0)))
        d = rho.trunc.dim
        c = np.real(rho.elems * _phase_matrix(phase, d)).ravel() @ product_coefficients(d).reshape(d * d, -1)
        integrals = hermite_integrals([math.sqrt(2.0) * a], [math.sqrt(2.0) * b], 2 * d - 1)[:, 0] / math.sqrt(2.0)
        xs = np.linspace(a, b, 40_001)
        dens = marginal([rho], [phase], xs)[0, 0]
        fine, coarse = np.trapezoid(dens, xs), np.trapezoid(dens[::2], xs[::2])
        assert abs(c @ integrals - (fine + (fine - coarse) / 3.0)) <= 1e-11 * (np.abs(c) @ np.abs(integrals))

    @settings(max_examples=30, deadline=None)
    @given(rho=mixed_states(_MAX_RECON_DIM), phases=st.integers(1, 3), seed=st.integers(0, 2**31))
    def test_no_sampler_sample_straddles_a_cell(self, rho, phases, seed):
        # moving each sample to the middle of the sampling-grid cell it was drawn in keeps every bit: each MaxLik cell
        # is a union of whole sampling-grid cells, so the sample and that middle count in the same one
        samples = sample_quadratures(rho, uniform_phases(phases), 400, seed)
        xs = np.linspace(SAMPLING_X_MIN, SAMPLING_X_MAX, SAMPLING_POINTS)
        j = np.searchsorted(xs, samples[:, 1], side="right") - 1
        middles = np.column_stack([samples[:, 0], (xs[j] + xs[j + 1]) / 2.0])
        assert not np.array_equal(middles, samples)
        dim = rho.trunc.dim
        assert maxlik_outcome(middles, dim=dim, max_iter=3) == maxlik_outcome(samples, dim=dim, max_iter=3)

    @settings(max_examples=30, deadline=None)
    @given(rho=mixed_states(12), phases=st.integers(1, 4), seed=st.integers(0, 2**31))
    def test_trace_is_monotone(self, rho, phases, seed):
        samples = sample_quadratures(rho, uniform_phases(phases), 300, seed)
        res = maxlik_reconstruct(samples, dim=rho.trunc.dim, max_iter=30, tol=-np.inf)
        trace = res.log_likelihood_trace
        assert np.all(np.diff(trace) >= -1e-12 * np.abs(trace[1:]))  # a step may round down once converged

    @settings(max_examples=25, deadline=None)
    @given(phases=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    def test_shuffling_within_each_phase_keeps_every_bit(self, phases, seed):
        # the phases interleave in a random first-use order; each keeps its positions while its x values are shuffled
        rng = np.random.default_rng(seed)
        rho = random_mixed_state(6, 2, seed)
        drawn = sample_quadratures(rho, uniform_phases(phases), 150, seed)
        phase, x = drawn[rng.permutation(len(drawn))].T
        shuffled = x.copy()
        for value in np.unique(phase):
            at = np.flatnonzero(phase == value)
            shuffled[at] = x[rng.permutation(at)]
        assert not np.array_equal(shuffled, x)
        a = maxlik_reconstruct(np.column_stack([phase, x]), dim=6, max_iter=20, tol=-np.inf)
        b = maxlik_reconstruct(np.column_stack([phase, shuffled]), dim=6, max_iter=20, tol=-np.inf)
        assert np.array_equal(a.rho_hat.elems, b.rho_hat.elems)
        assert np.array_equal(a.log_likelihood_trace, b.log_likelihood_trace) and a.loglik_gap == b.loglik_gap

    @pytest.mark.parametrize("changes", [299, 300, 1199])
    def test_regrouping_the_phases_into_runs_keeps_every_bit(self, changes):
        # 1200 samples whose phase changes ``changes`` times, in runs of about 4 samples or of one; regrouped stably
        # into one run per phase in first-use order, they count into the same table
        rng = np.random.default_rng(changes)
        rho = random_mixed_state(6, 2, changes)
        drawn = sample_quadratures(rho, (2.0, -0.0, 1.0), 400, changes)
        run_phase = rng.permutation(3)[np.arange(changes + 1) % 3]  # consecutive runs differ in phase
        run_of = np.empty(len(drawn), dtype=np.intp)
        for k in range(3):  # the samples of phase k, in draw order, cut into as many pieces as it has runs
            runs = np.flatnonzero(run_phase == k)
            cuts = np.sort(rng.choice(np.arange(1, 400), runs.size - 1, replace=False))
            run_of[k * 400:(k + 1) * 400] = np.repeat(runs, np.diff(cuts, prepend=0, append=400))
        order = np.argsort(run_of, kind="stable")
        samples = drawn[order]
        phase = samples[:, 0]
        assert np.count_nonzero(phase[1:] != phase[:-1]) == changes
        _, first, inverse = np.unique(phase, return_index=True, return_inverse=True)
        grouped = np.argsort(first.argsort().argsort()[inverse], kind="stable")  # one run per phase, first-use order
        a = maxlik_reconstruct(samples, dim=6, max_iter=20, tol=-np.inf)
        b = maxlik_reconstruct(samples[grouped], dim=6, max_iter=20, tol=-np.inf)
        assert np.array_equal(a.rho_hat.elems, b.rho_hat.elems)
        assert np.array_equal(a.log_likelihood_trace, b.log_likelihood_trace) and a.loglik_gap == b.loglik_gap

    def test_a_step_that_would_lower_the_likelihood_is_diluted(self):
        # one phase of a pure d = 11 state, where the plain RrhoR step overshoots and the plain trace zigzags
        rho = random_mixed_state(11, 1, 2132991553)
        samples = sample_quadratures(rho, (0.0,), 300, 25327476)
        _, plain = unblocked_maxlik(snapped(samples, 11), 11, max_iter=60, tol=-np.inf)
        first_drop = int(np.argmax(np.diff(plain) < 0.0))
        assert np.min(np.diff(plain)) < -1e-3 and first_drop > 0
        trace = maxlik_reconstruct(samples, dim=11, max_iter=60, tol=-np.inf).log_likelihood_trace
        assert np.all(np.diff(trace) >= 0.0)
        # the steps before the first drop are plain RrhoR steps
        assert np.max(np.abs(trace[:first_drop + 1] - plain[:first_drop + 1]) / np.abs(plain[0])) <= 1e-12

    def test_loglik_gap_bounds_the_gain_still_to_come(self):
        rho = coherent_state(0.7, Truncation(15)).to_density()
        samples = sample_quadratures(apply_loss(rho, 0.8), uniform_phases(4), 2000, 6)
        short = maxlik_reconstruct(samples, dim=8, max_iter=50, tol=-np.inf)
        long = maxlik_reconstruct(samples, dim=8, max_iter=3000, tol=-np.inf)
        assert np.array_equal(long.log_likelihood_trace[:51], short.log_likelihood_trace)
        gain = long.log_likelihood_trace[-1] - short.log_likelihood_trace[-1]
        assert 0.0 < gain <= short.loglik_gap
        assert 0.0 <= long.loglik_gap < short.loglik_gap


class TestSampleArray:
    def test_layout(self):
        rho = coherent_state(0.5, Truncation(15)).to_density()
        samples = sample_quadratures(rho, uniform_phases(3), 4, 8)
        assert type(samples) is np.ndarray and samples.dtype == np.float64 and samples.shape == (12, 2)
        assert samples.flags.c_contiguous and not samples.flags.writeable
        assert samples[:, 0].tolist() == [p for p in uniform_phases(3) for _ in range(4)]

    def test_the_file_is_written_without_a_copy(self):
        samples = sample_quadratures(fock_state(1, Truncation(6)).to_density(), (0.0, 1.0), 50, 2)
        assert np.shares_memory(npy_buffers(samples)[1], samples)


class TestSampleFiles:
    @staticmethod
    def loaded(samples, tmp_path):
        """``np.load`` of the ``samples.npy`` of ``samples``, which must be ``<f8`` of shape ``(K, 2)``."""
        path = tmp_path / "samples.npy"
        path.write_bytes(samples_npy(samples))
        back = np.load(path, allow_pickle=False)
        assert back.dtype.str == "<f8" and back.shape == (len(samples), 2) and back.flags.c_contiguous
        return back

    def test_round_trip(self, tmp_path):
        phase, x = self.loaded(np.array([[0.3141592653, -1.25], [1.0, 0.5]]), tmp_path).T
        assert phase.tolist() == [0.3141592653, 1.0]
        assert x.tolist() == [-1.25, 0.5]

    def test_rewrite_is_byte_identical(self, tmp_path):
        rho = coherent_state(0.8, Truncation(15)).to_density()
        drawn = sample_quadratures(rho, uniform_phases(3), 50, 12)
        # interleaved phases give many short runs of a shared phase
        mixed = drawn[np.random.default_rng(0).permutation(len(drawn))]
        back = self.loaded(mixed, tmp_path)
        assert np.array_equal(back.view(np.int64), mixed.view(np.int64))
        assert samples_npy(back) == samples_npy(mixed)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.5, 1.2345678901, -2.75]),
                                   st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False))), max_size=40))
    def test_round_trip_keeps_interleaved_signed_zero_phases(self, tmp_path_factory, rows):
        samples = np.array(rows, dtype=np.float64).reshape(-1, 2)
        back = self.loaded(samples, tmp_path_factory.mktemp("samples"))
        assert np.array_equal(back.view(np.int64), samples.view(np.int64))  # -0.0 stays -0.0

    def test_empty_samples_file(self, tmp_path):
        back = self.loaded(np.empty((0, 2)), tmp_path)
        assert back.shape == (0, 2)
        with pytest.raises(ValueError, match="^at least one sample is required$"):
            maxlik_reconstruct(back, dim=5)
