import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.stats import kstest

from cvortho import (
    DataError,
    MaxLikTomography,
    QuadratureSamples,
    ReconstructionResult,
    SamplingPlan,
    Truncation,
    coherent_state,
    fidelity,
    fock_state,
    maxlik_reconstruct,
    project_density,
    sample_quadratures,
    uniform_phases,
)
from cvortho.homodyne import (
    _MAX_RECON_DIM,
    product_coefficients,
    read_samples_csv,
    likelihood_csv_text,
    samples_csv_text,
)
from cvortho.phasespace import hermite_functions

from conftest import random_state


def dense_maxlik(samples, dim, max_iter, tol):
    """Reference RrhoR iteration on the dense per-sample d x d kernel.

    Builds psi_a(x_j) psi_b(x_j) for every sample, phase by phase in order
    of first appearance; returns the estimate and the log-likelihood trace.
    """
    buckets = {}
    for phase, x in zip(samples.phase.tolist(), samples.x.tolist()):
        buckets.setdefault(phase, []).append(x)
    groups = []
    for phase, xs in buckets.items():
        m = np.exp(1j * phase * np.arange(dim))
        groups.append((hermite_functions(np.array(xs), dim).T, m))
    k_total = sum(psi.shape[0] for psi, _ in groups)

    def probabilities(rho):
        out = []
        for psi, m in groups:
            rho_rot = np.real(np.conj(m)[:, None] * rho * m[None, :])
            out.append(np.einsum("kd,kd->k", psi @ rho_rot, psi))
        return out

    rho = np.eye(dim, dtype=np.complex128) / dim
    probs = probabilities(rho)
    loglik = [float(sum(np.sum(np.log(p)) for p in probs))]
    for _ in range(max_iter):
        r_op = np.zeros((dim, dim), dtype=np.complex128)
        for (psi, m), p in zip(groups, probs):
            r_op += (m[:, None] * np.conj(m)[None, :]) * (psi.T @ (psi / p[:, None]))
        r_op /= k_total
        rho = r_op @ rho @ r_op
        rho = (rho + rho.conj().T) / 2.0
        rho /= np.trace(rho).real
        probs = probabilities(rho)
        loglik.append(float(sum(np.sum(np.log(p)) for p in probs)))
        if loglik[-1] - loglik[-2] < tol:
            break
    return rho, np.asarray(loglik)


def single_photon_cdf(x):
    # integral of 2 t^2 exp(-t^2)/sqrt(pi) from -inf to x
    return 0.5 + 0.5 * erf(x) - x * np.exp(-(x**2)) / math.sqrt(math.pi)


class TestSamplingPlan:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(phases=(0.1, 0.1), samples_per_phase=10, seed=0)
        with pytest.raises(ValueError):
            SamplingPlan(phases=(), samples_per_phase=10, seed=0)
        with pytest.raises(ValueError):
            SamplingPlan(phases=(0.0,), samples_per_phase=0, seed=0)

    def test_uniform_phases(self):
        phases = uniform_phases(10)
        assert len(phases) == 10
        assert phases[0] == 0.0
        assert all(0 <= p < math.pi for p in phases)


class TestSampleQuadratures:
    def test_seeded_determinism(self):
        rho = coherent_state(0.5, Truncation(15)).to_density()
        plan = SamplingPlan(phases=uniform_phases(3), samples_per_phase=200, seed=42)
        assert sample_quadratures(rho, plan) == sample_quadratures(rho, plan)

    def test_coherent_sample_mean(self):
        # Gaussian with mean sqrt(2) and sigma 1/sqrt(2): a five-sigma
        # standard-error bound on the sample mean
        n = 100_000
        rho = coherent_state(1.0, Truncation(25)).to_density()
        plan = SamplingPlan(phases=(0.0,), samples_per_phase=n, seed=9)
        xs = sample_quadratures(rho, plan).x
        assert abs(xs.mean() - math.sqrt(2.0)) < 5 * (1 / math.sqrt(2.0)) / math.sqrt(n)

    @pytest.mark.parametrize("phase", [0.0, 1.1])
    def test_single_photon_ks(self, phase):
        rho = fock_state(1, Truncation(12)).to_density()
        plan = SamplingPlan(phases=(phase,), samples_per_phase=100_000, seed=17)
        xs = sample_quadratures(rho, plan).x
        stat = kstest(xs, single_photon_cdf).statistic
        assert stat < 0.01

    def test_loss_applied_before_sampling(self):
        # eta=0 collapses any state to vacuum statistics
        rho = coherent_state(1.5, Truncation(30)).to_density()
        plan = SamplingPlan(phases=(0.0,), samples_per_phase=50_000, seed=3, eta=0.0)
        xs = sample_quadratures(rho, plan).x
        assert abs(xs.mean()) < 5 * (1 / math.sqrt(2.0)) / math.sqrt(50_000)


class TestMaxLikReconstruct:
    def test_vacuum_round_trip(self):
        rho = fock_state(0, Truncation(12)).to_density()
        plan = SamplingPlan(phases=uniform_phases(10), samples_per_phase=5000, seed=1)
        res = maxlik_reconstruct(sample_quadratures(rho, plan), dim=10, max_iter=200, tol=1e-9)
        assert fidelity(res.rho_hat, project_density(rho, Truncation(10))) >= 0.99

    def test_qubit_round_trip(self):
        from cvortho import OperatorKind, OrthogonalizerSpec, qubit_operator

        t = Truncation(25)
        psi = coherent_state(1.0, t)
        spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi)
        state = qubit_operator(spec, 1.0, t).apply(psi).normalized()
        plan = SamplingPlan(phases=uniform_phases(10), samples_per_phase=5000, seed=2)
        res = maxlik_reconstruct(sample_quadratures(state.to_density(), plan), dim=15,
                                 max_iter=250, tol=1e-9)
        assert fidelity(res.rho_hat, project_density(state.to_density(), Truncation(15))) >= 0.98

    def test_likelihood_monotone_and_invariants(self):
        rho = coherent_state(0.7, Truncation(15)).to_density()
        plan = SamplingPlan(phases=uniform_phases(5), samples_per_phase=2000, seed=4)
        res = maxlik_reconstruct(sample_quadratures(rho, plan), dim=8, max_iter=120, tol=1e-12)
        assert np.all(np.diff(res.log_likelihood_trace) > -1e-9)
        assert len(res.log_likelihood_trace) == res.iterations_used + 1
        elems = res.rho_hat.elems
        assert np.max(np.abs(elems - elems.conj().T)) < 1e-12
        assert np.trace(elems).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(elems)) > -1e-10

    def test_stops_on_small_gain(self):
        rho = fock_state(0, Truncation(8)).to_density()
        plan = SamplingPlan(phases=uniform_phases(4), samples_per_phase=1000, seed=5)
        res = maxlik_reconstruct(sample_quadratures(rho, plan), dim=6, max_iter=2000, tol=1e-2)
        assert res.iterations_used < 2000

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            maxlik_reconstruct(QuadratureSamples([], []), dim=5)

    def test_dim_range(self):
        samples = QuadratureSamples([0.0], [0.1])
        with pytest.raises(ValueError):
            maxlik_reconstruct(samples, dim=1)
        with pytest.raises(ValueError):
            maxlik_reconstruct(samples, dim=31)

    def test_data_error_names_sample(self):
        samples = QuadratureSamples([0.0, 0.0], [0.1, 1e6])
        with pytest.raises(DataError, match="sample 1"):
            maxlik_reconstruct(samples, dim=5, max_iter=5)

    def test_data_error_names_caller_position_across_phases(self):
        # phases interleave; the bad sample is the third of the second phase
        xs = [0.1, -0.2, 0.3, 0.4, -0.5, 1e6, 0.7]
        phases = [0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0]
        samples = QuadratureSamples(phases, xs)
        with pytest.raises(DataError, match=r"sample 5 \(phase=0\.5000000000, x=1e\+06\)"):
            maxlik_reconstruct(samples, dim=5, max_iter=5)

    def test_data_error_names_the_phase_used_first(self):
        # both phases hold a bad sample; 0.5 is used first, so its group runs first
        # (taking groups in order of phase value would name sample 3 instead)
        xs = [0.1, 0.2, 0.3, 1e6, 1e6, 0.4]
        phases = [0.5, 0.0, 0.5, 0.0, 0.5, 0.0]
        with pytest.raises(DataError, match=r"sample 4 \(phase=0\.5000000000, x=1e\+06\)"):
            maxlik_reconstruct(QuadratureSamples(phases, xs), dim=5, max_iter=5)

    def test_only_the_container_is_accepted(self):
        pairs = [(0.0, 0.1), (0.5, -0.2)]
        with pytest.raises(TypeError, match="QuadratureSamples, got list"):
            maxlik_reconstruct(pairs, dim=5)
        with pytest.raises(TypeError, match="QuadratureSamples, got list"):
            MaxLikTomography(dim=5).fit(pairs)
        with pytest.raises(TypeError, match="QuadratureSamples, got list"):
            samples_csv_text(pairs)

    def test_stop_reason_tol(self):
        rho = fock_state(0, Truncation(8)).to_density()
        plan = SamplingPlan(phases=uniform_phases(4), samples_per_phase=1000, seed=5)
        res = maxlik_reconstruct(sample_quadratures(rho, plan), dim=6, max_iter=2000, tol=1e-2)
        assert res.stop_reason == "tol"
        assert res.converged

    def test_stop_reason_max_iter(self):
        rho = coherent_state(0.7, Truncation(15)).to_density()
        plan = SamplingPlan(phases=uniform_phases(5), samples_per_phase=2000, seed=4)
        res = maxlik_reconstruct(sample_quadratures(rho, plan), dim=8, max_iter=7, tol=1e-12)
        assert res.iterations_used == 7
        assert res.stop_reason == "max_iter"
        assert not res.converged

    def test_unknown_stop_reason_rejected(self):
        rho = fock_state(0, Truncation(4)).to_density()
        with pytest.raises(ValueError, match="stop_reason"):
            ReconstructionResult(rho, np.zeros(1), 0, "gave_up")


class TestMomentKernel:
    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(2, _MAX_RECON_DIM), x=st.floats(-9.0, 9.0))
    def test_product_expansion_is_exact(self, dim, x):
        psi = hermite_functions([x], dim)[:, 0]
        feats = hermite_functions([math.sqrt(2.0) * x], 2 * dim - 1)[:, 0]
        expanded = product_coefficients(dim) @ feats
        assert np.max(np.abs(expanded - np.outer(psi, psi))) <= 1e-13

    @pytest.mark.parametrize("dim, phases, per_phase, seed", [(4, 3, 300, 1), (9, 5, 400, 2), (15, 7, 250, 3)])
    def test_matches_dense_oracle(self, dim, phases, per_phase, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(Truncation(20), rng, support=dim).to_density()
        plan = SamplingPlan(phases=uniform_phases(phases), samples_per_phase=per_phase, seed=seed, eta=0.7)
        drawn = sample_quadratures(rho, plan)
        perm = rng.permutation(len(drawn))  # interleave the phases
        samples = QuadratureSamples(drawn.phase[perm], drawn.x[perm])
        rho_ref, trace_ref = dense_maxlik(samples, dim, max_iter=40, tol=-np.inf)
        res = maxlik_reconstruct(samples, dim=dim, max_iter=40, tol=-np.inf)
        assert res.iterations_used == 40
        assert np.max(np.abs(res.rho_hat.elems - rho_ref)) <= 1e-12
        assert np.max(np.abs(res.log_likelihood_trace - trace_ref) / np.abs(trace_ref)) <= 1e-12


class TestQuadratureSamples:
    def test_columns(self):
        rho = coherent_state(0.5, Truncation(15)).to_density()
        plan = SamplingPlan(phases=uniform_phases(3), samples_per_phase=4, seed=8)
        samples = sample_quadratures(rho, plan)
        assert isinstance(samples, QuadratureSamples)
        assert len(samples) == 12
        assert samples.phase.tolist() == [p for p in plan.phases for _ in range(4)]
        assert samples.x.shape == (12,)
        assert not samples.phase.flags.writeable and not samples.x.flags.writeable

    def test_equality_compares_samples_in_order(self):
        a = QuadratureSamples([0.0, 1.0], [1.0, 2.0])
        b = QuadratureSamples((0, 1), np.array([1.0, 2.0]))
        assert a == b
        assert a != QuadratureSamples([1.0, 0.0], [2.0, 1.0])
        assert a != QuadratureSamples([0.0], [1.0])

    def test_invalid_columns_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSamples((0.0,), (1.0, 2.0))
        with pytest.raises(ValueError):
            QuadratureSamples((0.0, 1.0, 2.0), (1.0, 2.0))


class TestEstimatorApi:
    def test_fit_sets_attributes(self):
        rho = fock_state(0, Truncation(8)).to_density()
        plan = SamplingPlan(phases=uniform_phases(4), samples_per_phase=1500, seed=6)
        est = MaxLikTomography(dim=6, max_iter=100, tol=1e-9)
        assert est.fit(sample_quadratures(rho, plan)) is est
        assert est.rho_.trunc.dim == 6
        assert est.n_iter_ <= 100
        assert est.log_likelihood_trace_.shape == (est.n_iter_ + 1,)

    def test_get_set_params(self):
        est = MaxLikTomography(dim=8)
        assert est.get_params() == {"dim": 8, "max_iter": 2000, "tol": 1e-10}
        est.set_params(dim=12, tol=1e-8)
        assert est.dim == 12 and est.tol == 1e-8
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = MaxLikTomography(dim=9, max_iter=50, tol=1e-7)
        clone = sklearn_base.clone(est)
        assert clone.get_params() == est.get_params()


class TestSampleFiles:
    def test_round_trip(self, tmp_path):
        samples = QuadratureSamples([0.3141592653, 1.0], [-1.25, 0.5])
        path = tmp_path / "samples.csv"
        path.write_text(samples_csv_text(samples), encoding="utf-8")
        lines = path.read_text().splitlines()
        assert lines[0] == "phase,x"
        assert lines[1].startswith("0.3141592653,")
        back = read_samples_csv(path)
        assert back.x.tolist() == [-1.25, 0.5]

    def test_rewrite_is_byte_identical(self, tmp_path):
        rho = coherent_state(0.8, Truncation(15)).to_density()
        plan = SamplingPlan(phases=uniform_phases(3), samples_per_phase=50, seed=12)
        drawn = sample_quadratures(rho, plan)
        # interleaved phases give many short runs of a shared phase
        perm = np.random.default_rng(0).permutation(len(drawn))
        mixed = QuadratureSamples(drawn.phase[perm], drawn.x[perm])
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text(samples_csv_text(mixed), encoding="utf-8")
        back = read_samples_csv(first)
        assert back.x.tolist() == mixed.x.tolist()
        second.write_text(samples_csv_text(back), encoding="utf-8")
        assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.5, 1.2345678901, -2.75]),
                                   st.floats(allow_nan=False, allow_infinity=False)), max_size=40))
    def test_round_trip_keeps_interleaved_signed_zero_phases(self, tmp_path_factory, rows):
        samples = QuadratureSamples([p for p, _ in rows], [x for _, x in rows])
        path = tmp_path_factory.mktemp("samples") / "samples.csv"
        path.write_text(samples_csv_text(samples), encoding="utf-8")
        back = read_samples_csv(path)
        assert back == samples
        assert np.array_equal(back.phase.view(np.int64), samples.phase.view(np.int64))  # -0.0 stays -0.0

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(samples_csv_text(QuadratureSamples([], [])), encoding="utf-8")
        assert path.read_text() == "phase,x\n"
        assert len(read_samples_csv(path)) == 0

    def test_likelihood_csv(self, tmp_path):
        path = tmp_path / "lik.csv"
        path.write_text(likelihood_csv_text([-10.5, -9.25]), encoding="utf-8")
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,log_likelihood"
        assert lines[1] == "0,-10.5"
