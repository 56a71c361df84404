import json
import math
import re
import warnings

import numpy as np
import pytest
from conftest import dense_beam_splitter, displacement_op, mixed_states, random_state, unitarity_defect
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.special import pdtrc

from cvortho import (
    DensityMatrix,
    OperatorKind,
    OrthogonalizerSpec,
    StateVector,
    Truncation,
    TruncationError,
    beam_splitter_op,
    coherent_state,
    density_from_json,
    density_json_text,
    expectation,
    fidelity,
    fock_state,
    inner_product,
    ladder_operators,
    min_dim_for_coherent,
    orthogonalize,
    project_density,
)
from cvortho.fock import _poisson_tail


def unchecked_density(elems):
    """A DensityMatrix holding ``elems`` as given, past the constructor's checks."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "elems", np.asarray(elems, dtype=np.complex128))
    object.__setattr__(rho, "trunc", Truncation(len(elems)))
    return rho


def density_to_json(rho):
    """The density file format as a JSON object, row-major ``[re, im]`` pairs: ``density_json_text``'s oracle."""
    flat = rho.elems.reshape(-1)
    return {"dim": rho.trunc.dim, "data": np.column_stack([flat.real, flat.imag]).tolist()}


def text_mismatch(rho):
    """None when ``density_json_text`` equals the indented json text, else the first differing line.

    Reported this way because pytest's diff of two long texts is slow enough
    to stall hypothesis's shrinking.
    """
    got = density_json_text(rho)
    want = json.dumps(density_to_json(rho), indent=2, sort_keys=True) + "\n"
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    k = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
             min(len(got_lines), len(want_lines)))
    return k, got_lines[k:k + 1], want_lines[k:k + 1]


# Complex amplitudes of a pure state on 2 to 40 levels, not all (numerically) zero
amplitudes = st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                      min_size=2, max_size=40).filter(lambda amps: np.linalg.norm(amps) > 1e-6)


def pure_density(amps):
    return StateVector(amps, Truncation(len(amps))).to_density()


def brute_poisson_weights(lam, count):
    # independent of the package's amplitude recurrence
    from scipy.stats import poisson

    return poisson.pmf(np.arange(count), lam)


def running_sum_min_dim(alpha, tail_tol):
    """The search that ``min_dim_for_coherent`` made before its closed form: a running Poisson sum from exp(-|alpha|^2).

    Exact while exp(-|alpha|^2) is a normal double, |alpha| < 26.6; past that its first term is subnormal, then 0.
    """
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 2
    p = cum = math.exp(-lam)
    m = 0
    while 1.0 - cum > tail_tol:
        m += 1
        p *= lam / m
        cum += p
    return m + 2


class TestFockState:
    def test_basis_vector(self):
        psi = fock_state(1, Truncation(10))
        expected = np.zeros(10)
        expected[1] = 1.0
        assert_allclose(psi.amps, expected)

    def test_two_level(self):
        assert_allclose(fock_state(0, Truncation(2)).amps, [1, 0])

    def test_orthonormal(self):
        t = Truncation(6)
        assert inner_product(fock_state(0, t), fock_state(1, t)) == 0
        assert inner_product(fock_state(3, t), fock_state(3, t)) == 1

    @pytest.mark.parametrize("n", [-1, 10, 11])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            fock_state(n, Truncation(10))


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        assert_allclose(coherent_state(0.0, Truncation(8)).amps, fock_state(0, Truncation(8)).amps)

    def test_closed_form_amplitudes(self):
        # oracle: exp(-1/2) 1^n / sqrt(n!) computed with math.factorial
        psi = coherent_state(1.0, Truncation(25))
        weights = brute_poisson_weights(1.0, 25)
        oracle = np.array([math.sqrt(w) for w in weights])
        assert abs(psi.amps[0] - math.exp(-0.5)) < 1e-12
        assert np.max(np.abs(psi.amps - oracle)) < 1e-12

    def test_norm_after_renormalization(self):
        # Poisson tail beyond level 24 at lam=1 is ~2e-26, so the
        # renormalization factor is indistinguishable from 1
        psi = coherent_state(1.0, Truncation(25))
        assert abs(psi.norm - 1.0) < 1e-12

    def test_matches_displaced_vacuum(self):
        t = Truncation(30)
        disp = StateVector(displacement_op(1.0, t) @ fock_state(0, t).amps, t)
        assert fidelity(coherent_state(1.0, t), disp) > 1 - 1e-10

    def test_truncation_error_carries_hint(self):
        with pytest.raises(TruncationError) as err:
            coherent_state(2.0, Truncation(6))
        assert err.value.suggested_dim >= min_dim_for_coherent(2.0, 1e-8)
        coherent_state(2.0, Truncation(err.value.suggested_dim))  # hint is sufficient

    def test_min_dim_oracle(self):
        # brute-force the smallest admissible dim for a few amplitudes
        for alpha, tol in [(0.5, 1e-8), (1.0, 1e-8), (2.0, 1e-8), (2.0, 5e-3)]:
            lam = abs(alpha) ** 2
            weights = brute_poisson_weights(lam, 200)
            smallest = next(n for n in range(2, 200) if sum(weights[n - 1 :]) < tol)
            assert min_dim_for_coherent(alpha, tol) == smallest

    def test_min_dim_matches_the_running_sum_below_its_underflow(self):
        for radius in np.linspace(0.0, 26.59, 400):
            alpha = radius * complex(math.cos(radius), math.sin(radius))  # only |alpha| counts
            for tol in (1e-8, 5e-3):
                assert min_dim_for_coherent(alpha, tol) == running_sum_min_dim(alpha, tol), (radius, tol)

    @pytest.mark.parametrize("alpha", [26.949, 26.952, 26.955, 28.0, 35.0])
    def test_min_dim_past_the_running_sum_underflow(self, alpha):
        # the running sum gave 887, 889 and 882 at the first three, and no dim at all from |alpha| = 27.3 on
        dim = min_dim_for_coherent(alpha, 1e-8)
        weights = brute_poisson_weights(alpha**2, 4000)
        assert math.fsum(weights[dim - 1:]) <= 1e-8 < math.fsum(weights[dim - 2:])

    def test_min_dim_is_monotone_where_the_running_sum_was_not(self):
        dims = [min_dim_for_coherent(alpha, 1e-8) for alpha in (26.949, 26.952, 26.955)]
        assert dims == sorted(dims)

    @pytest.mark.parametrize("alpha, shown", [(37.7, "37.7"), (316.3, "316.3"), (1e200, "1e+200"),
                                              (1e154 + 1e154j, "1.414e+154")],
                             ids=["37.7", "316.3", "1e200", "1e154+1e154j"])
    def test_min_dim_refuses_an_amplitude_whose_vacuum_underflows(self, alpha, shown):
        # no basis holds a state whose exp(-|alpha|^2/2) is no normal double; |alpha|^2 of the last two is past the
        # float range, where abs() of the complex number or squaring it would raise OverflowError
        with pytest.raises(ValueError, match=rf"^coherent amplitude \|alpha\|={re.escape(shown)} underflows "):
            min_dim_for_coherent(alpha, 5e-3)
        assert min_dim_for_coherent(37.6, 1e-8) == min_dim_for_coherent(37.6 + 0j, 1e-8) > 37.6**2

    @pytest.mark.parametrize("tol", [-1e-3, 0.0, math.nan])
    def test_min_dim_refuses_a_tail_tolerance_that_no_dim_meets(self, tol):
        # a Poisson tail is positive, so no dim meets these, and a search for one would not end
        with pytest.raises(ValueError, match=r"^tail_tol: must be a positive number"):
            min_dim_for_coherent(1.0, tol)

    @settings(max_examples=300, deadline=None)
    @given(lam=st.floats(0.0, 1e4), spread=st.floats(-40.0, 40.0))
    def test_poisson_tail_matches_pdtrc(self, lam, spread):
        # pdtrc's own error grows with the tail's depth: against a 40-digit sum it reaches 1.0e-11 near 1e-250,
        # where this sum's stays below 1e-12, and the two differ by up to 1.6e-11 there; hence the looser bound
        k = max(0, math.floor(lam + spread * math.sqrt(lam + 1)))
        want = pdtrc(k, lam)
        assume(want >= 1e-250)
        assert abs(_poisson_tail(k, lam) - want) <= (1e-11 if want >= 1e-100 else 3e-11) * want

    @pytest.mark.parametrize("k", [10**17, 10**400], ids=["10**17", "10**400"])
    @pytest.mark.parametrize("lam", [0.5, 1e4, 1e12])
    def test_poisson_tail_far_past_the_mean_is_zero(self, k, lam):
        # Chernoff's bound puts these tails below e^-746, which rounds to 0; 10**17 is past 2^53, where (lam - k) / k
        # rounds to -1, and 10**400 is past the float range
        assert _poisson_tail(k, lam) == 0.0

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_non_finite_amplitude_refused_by_name(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha: must be a finite number, got "):
            min_dim_for_coherent(alpha, 1e-8)
        # an infinite amplitude keeps coherent_state's underflow message, which it finds before the search
        match = r"\|alpha\|=inf underflows" if alpha == math.inf else r"^alpha: must be a finite number, got "
        with pytest.raises(ValueError, match=match):
            coherent_state(alpha, Truncation(40))

    def test_alpha_28_builds_within_its_tail_tolerance(self):
        dim = min_dim_for_coherent(28.0, 1e-8)
        psi = coherent_state(28.0, Truncation(dim))
        weights = brute_poisson_weights(28.0**2, dim)
        assert_allclose(np.abs(psi.amps) ** 2, weights / weights.sum(), rtol=0, atol=1e-12)
        assert psi.top_weight <= 1e-8
        with pytest.raises(TruncationError):
            coherent_state(28.0, Truncation(dim - 1))

    def test_vacuum_amplitude_underflow_raises(self):
        # exp(-40^2 / 2) is 0 in double precision, so the amplitudes would be 0/0
        with pytest.raises(ValueError, match=r"\|alpha\|=40 underflows"):
            coherent_state(40.0, Truncation(min_dim_for_coherent(40.0, 1e-8)))


class TestLadderOperators:
    def test_raising(self):
        t = Truncation(10)
        _, a_dag, _ = ladder_operators(t)
        assert_allclose(a_dag @ fock_state(0, t).amps, fock_state(1, t).amps)
        assert_allclose(a_dag @ fock_state(3, t).amps, 2.0 * fock_state(4, t).amps)

    def test_lowering_annihilates_vacuum(self):
        t = Truncation(10)
        a, _, _ = ladder_operators(t)
        assert StateVector(a @ fock_state(0, t).amps, t).norm == 0.0

    def test_number_operator_is_exact_product(self):
        t = Truncation(12)
        a, a_dag, n_op = ladder_operators(t)
        assert_allclose(n_op, a_dag @ a)
        assert_allclose(np.diag(n_op).real, np.arange(12))

    def test_commutator_on_valid_subspace(self):
        t = Truncation(14)
        a, a_dag, _ = ladder_operators(t)
        comm = a @ a_dag - a_dag @ a
        assert_allclose(comm[:-1, :-1], np.eye(13), atol=1e-14)
        # the top level violates the commutator by construction
        assert comm[-1, -1].real == pytest.approx(-13.0)


class TestDisplacement:
    def test_zero_is_identity(self):
        assert_allclose(displacement_op(0.0, Truncation(10)), np.eye(10))

    def test_round_trip_error_shrinks_with_dim(self):
        deviations = []
        for dim in (20, 40, 60):
            prod = displacement_op(1.0, Truncation(dim)) @ displacement_op(-1.0, Truncation(dim))
            deviations.append(np.max(np.abs(prod[:11, :11] - np.eye(11))))
        # the exponential construction keeps the product near the identity at
        # every dim; the sweep only has to confirm no growth beyond noise
        assert deviations[0] < 1e-8
        assert deviations[1] <= deviations[0] + 5e-14
        assert deviations[2] <= deviations[1] + 5e-14

    def test_exactly_unitary_at_any_truncation(self):
        # the anti-Hermitian generator keeps expm unitary; truncation error
        # shows up as mismatch with the closed-form coherent amplitudes, not
        # as a unitarity defect
        assert unitarity_defect(displacement_op(0.5, Truncation(40))) < 1e-12
        assert unitarity_defect(displacement_op(3.0, Truncation(12))) < 1e-12


class TestBeamSplitter:
    # physics of the dense two-mode oracle that the sector blocks are checked against

    def test_zero_angle_is_identity(self):
        t = Truncation(5)
        bs = dense_beam_splitter(0.0, (t, t))
        assert_allclose(bs, np.eye(25), atol=1e-14)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 8, math.pi / 4, math.pi / 3])
    @pytest.mark.parametrize("beta", [0.6, 1.0])
    def test_coherent_identity(self, theta, beta):
        # B (|0> x |beta>) = |-r beta> x |t beta>
        ht = Truncation(14)
        t, r = math.cos(theta), math.sin(theta)
        out = dense_beam_splitter(theta, (ht, ht)) @ np.kron(
            fock_state(0, ht).amps, coherent_state(beta, ht).amps
        )
        ref = np.kron(coherent_state(-r * beta, ht).amps, coherent_state(t * beta, ht).amps)
        assert abs(np.vdot(ref, out)) ** 2 > 1 - 1e-8

    def test_single_photon_identity(self):
        # B |1,0> = t |1,0> + r |0,1>, exactly
        ht = Truncation(6)
        theta = 0.7
        t, r = math.cos(theta), math.sin(theta)
        one, vac = fock_state(1, ht).amps, fock_state(0, ht).amps
        out = dense_beam_splitter(theta, (ht, ht)) @ np.kron(one, vac)
        assert_allclose(out, t * np.kron(one, vac) + r * np.kron(vac, one), atol=1e-12)

    def test_unitary_on_joint_space(self):
        t1, t2 = Truncation(5), Truncation(7)
        u = dense_beam_splitter(0.4, (t1, t2))
        assert_allclose(u.conj().T @ u, np.eye(35), atol=1e-12)


def poisson_amplitude(alpha, n):
    # <n|alpha> of the untruncated coherent state
    return math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / math.sqrt(math.factorial(n))


class TestSectorBeamSplitter:
    def test_one_photon_block_convention(self):
        theta = 0.7
        t, r = math.cos(theta), math.sin(theta)
        assert beam_splitter_op(theta, 1).tolist() == [[t, -r], [r, t]]  # exactly, with math's cos and sin
        assert_allclose(beam_splitter_op(theta, 0), [[1.0]])

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 20), theta=st.floats(-math.pi, math.pi))
    def test_matches_dense_oracle_on_every_represented_sector(self, dim, theta):
        dense = dense_beam_splitter(theta, (Truncation(dim), Truncation(dim)))
        for total in range(dim):
            # flat index of |total-k, k> in the mode-1-major layout
            idx = [(total - k) * dim + k for k in range(total + 1)]
            block = beam_splitter_op(theta, total)
            assert np.max(np.abs(dense[np.ix_(idx, idx)] - block)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(-math.pi, math.pi), total=st.integers(0, 160))
    def test_recurrence_matches_expm_of_the_sector_generator(self, theta, total):
        # expm is the oracle, but its own rounding grows with |theta| total: its unitarity defect reaches 1.2e-12 at
        # theta = 3, total = 160, where the recurrence's stays below 3e-14.  Over 300 random draws the distance to
        # expm exceeded expm's defect by at most 6.3e-15, so the bound is 1e-13 plus that defect.
        k = np.arange(total, dtype=np.float64)
        offdiag = np.sqrt((total - k) * (k + 1))
        oracle = expm(theta * (np.diag(offdiag, k=-1) - np.diag(offdiag, k=1)))
        block, eye = beam_splitter_op(theta, total), np.eye(total + 1)
        assert np.max(np.abs(block.T @ block - eye)) <= 1e-13
        assert np.max(np.abs(block - oracle)) <= 1e-13 + np.max(np.abs(oracle.T @ oracle - eye))

    def test_orthogonal_up_to_sixty_photons(self):
        for theta in np.linspace(0.0, math.pi / 2, 9):
            for total in range(61):
                block = beam_splitter_op(theta, total)
                assert np.max(np.abs(block.T @ block - np.eye(total + 1))) <= 1e-12

    @pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, 1.2])
    @pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
    def test_exact_coherent_identity_per_sector(self, theta, beta):
        # B (|0> x |beta>) = |-r beta> x |t beta>, read in sector N:
        # B_N[k, N] c_N(beta) = c_{N-k}(-r beta) c_k(t beta)
        t, r = math.cos(theta), math.sin(theta)
        for total in range(31):
            lhs = beam_splitter_op(theta, total)[:, total] * poisson_amplitude(beta, total)
            rhs = [poisson_amplitude(-r * beta, total - k) * poisson_amplitude(t * beta, k)
                   for k in range(total + 1)]
            assert np.max(np.abs(lhs - rhs)) <= 1e-13

    @pytest.mark.parametrize("total", [-1, 1.5, "2", True, None])
    def test_rejects_non_sector(self, total):
        with pytest.raises(ValueError):
            beam_splitter_op(0.3, total)

    def test_block_is_read_only(self):
        block = beam_splitter_op(0.3, 3)
        with pytest.raises(ValueError):
            block[0, 0] = 2.0


class TestScalars:
    def test_inner_product_conjugate_linear(self, rng):
        t = Truncation(8)
        u, v = random_state(t, rng), random_state(t, rng)
        assert inner_product(u, v) == pytest.approx(np.conj(inner_product(v, u)))
        scaled = StateVector(2j * u.amps, t)
        assert inner_product(scaled, v) == pytest.approx(-2j * inner_product(u, v))

    def test_fidelity_self_and_orthogonal(self):
        t = Truncation(10)
        psi = coherent_state(0.7, t)
        assert fidelity(psi, psi) == pytest.approx(1.0)
        assert fidelity(fock_state(0, t), fock_state(1, t)) == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5])
    def test_coherent_vacuum_overlap(self, alpha):
        t = Truncation(40)
        assert fidelity(coherent_state(alpha, t), fock_state(0, t)) == pytest.approx(
            math.exp(-(alpha**2)), rel=1e-10
        )

    def test_fidelity_mixed_inputs_agree(self, rng):
        t = Truncation(8)
        x, y = random_state(t, rng), random_state(t, rng)
        pure = fidelity(x, y)
        assert fidelity(x, y.to_density()) == pytest.approx(pure, abs=1e-12)
        assert fidelity(x.to_density(), y) == pytest.approx(pure, abs=1e-12)
        assert fidelity(x.to_density(), y.to_density()) == pytest.approx(pure, abs=1e-10)

    def test_fidelity_refuses_other_types(self):
        psi = fock_state(0, Truncation(3))
        with pytest.raises(TypeError, match="^fidelity expects StateVector or DensityMatrix arguments$"):
            fidelity(psi, psi.amps)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mixed_fidelity_symmetric_with_pure_limit(self, data):
        x = data.draw(mixed_states(max_dim=20))
        y = data.draw(mixed_states(min_dim=x.trunc.dim, max_dim=x.trunc.dim))
        assert abs(fidelity(x, y) - fidelity(y, x)) <= 1e-12
        psi = random_state(x.trunc, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), support=x.trunc.dim)
        expected = float(np.real(np.vdot(psi.amps, x.elems @ psi.amps)))
        assert abs(fidelity(x, psi.to_density()) - expected) <= 1e-12

    def test_expectation_matches_quadratic_form(self, rng):
        t = Truncation(9)
        psi = random_state(t, rng)
        _, _, n_op = ladder_operators(t)
        direct = np.vdot(psi.amps, n_op @ psi.amps)
        assert expectation(n_op, psi) == pytest.approx(direct)
        assert expectation(n_op, psi.to_density()) == pytest.approx(direct)

    @pytest.mark.parametrize("call", [
        lambda four, five: inner_product(fock_state(0, four), five),
        lambda four, five: expectation(ladder_operators(four)[2], five),
        lambda four, five: expectation(ladder_operators(four)[2], five.to_density()),
        lambda four, five: OrthogonalizerSpec.from_state(OperatorKind.CUSTOM, five, ladder_operators(four)[2]),
        lambda four, five: orthogonalize(five, OrthogonalizerSpec(OperatorKind.CUSTOM, 1.0, ladder_operators(four)[2])),
    ], ids=["inner_product", "expectation_state", "expectation_density", "from_state", "orthogonalize"])
    def test_dimension_mismatch(self, call):
        # a state or an operator on 4 levels meets a 5-level state
        with pytest.raises(ValueError, match="dimension mismatch"):
            call(Truncation(4), fock_state(1, Truncation(5)))


class TestInvariantsAndTypes:
    def test_state_requires_matching_length(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(3), Truncation(4))

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            Truncation(1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_state_refuses_non_finite(self, bad):
        amps = np.full(4, 0.5, dtype=np.complex128)
        amps[2], amps[3] = bad, np.nan
        with pytest.raises(ValueError, match=r"^amplitude 2 is not finite"):
            StateVector(amps, Truncation(4))

    @pytest.mark.parametrize("amps, message", [
        ([0.0, 0.0], r"^cannot normalize a \(numerically\) zero state$"),
        ([1e200, 1e200], "^cannot normalize a state whose norm overflows$"),
    ], ids=["zero", "overflow"])
    def test_normalized_refuses_a_state_without_a_unit_form(self, amps, message):
        state = StateVector(amps, Truncation(2))
        for call in (state.normalized, state.to_density):
            with pytest.raises(ValueError, match=message):
                call()

    def test_zero_state_has_no_top_weight(self):
        assert StateVector([0.0, 0.0, 0.0], Truncation(3)).top_weight == 0.0

    def test_states_are_immutable(self):
        psi = fock_state(0, Truncation(4))
        with pytest.raises(ValueError):
            psi.amps[0] = 2.0

    @pytest.mark.parametrize("name, op", [*zip(("a", "a_dag", "n"), ladder_operators(Truncation(4)))])
    def test_operators_are_read_only_complex_arrays(self, name, op):
        assert op.dtype == np.complex128 and op.shape == (4, 4)
        with pytest.raises(ValueError, match="read-only"):
            op[1, 0] = 2.0

    @pytest.mark.parametrize("elems, message", [
        ([[1, 1e-6, 0], [0, 0, 0], [0, 0, 0]], "Hermitian"),
        (np.eye(2) / 2, r"^matrix shape \(2, 2\) does not match truncation dim 3$"),
        (np.diag([0.5, 0.5, 1e-9]), r"^trace 1\.000000001\+0j deviates from 1 beyond 1e-10$"),
        (np.diag([0.6, 0.6, -0.2]), "^matrix has negative eigenvalue -2.000e-01$"),
    ], ids=["hermitian", "shape", "trace", "eigenvalue"])
    def test_density_validation(self, elems, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix(np.array(elems), Truncation(3))

    def test_projection_onto_a_block_without_weight_refused(self):
        with pytest.raises(ValueError, match="^density matrix has no weight inside the projection target$"):
            project_density(fock_state(3, Truncation(5)).to_density(), Truncation(2))

    @settings(max_examples=100, deadline=None)
    @given(amps=amplitudes)
    @example(amps=coherent_state(0.8 + 0.6j, Truncation(40)).amps.tolist())
    def test_pure_densities_are_exactly_hermitian(self, amps):
        # a complex multiply that fuses its products rounds psi_i psi_j* and psi_j psi_i* apart
        rho = pure_density(amps)
        assert np.array_equal(rho.elems, rho.elems.conj().T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("i, j", [(0, 1), (2, 2)])
    def test_density_refuses_non_finite(self, bad, i, j):
        elems = np.eye(3, dtype=np.complex128) / 3.0
        elems[i, j] = elems[j, i] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before eigvalsh can warn
            with pytest.raises(ValueError, match=rf"density entry \[{i}, {j}\] is not finite"):
                DensityMatrix(elems, Truncation(3))


class TestSerialization:
    def test_density_round_trip(self, rng):
        rho = random_state(Truncation(9), rng).to_density()
        back = density_from_json(json.loads(density_json_text(rho)))
        assert np.max(np.abs(back.elems - rho.elems)) < 1e-15

    def test_schema_fields(self):
        obj = json.loads(density_json_text(fock_state(1, Truncation(3)).to_density()))
        assert set(obj) == {"dim", "data"}
        assert obj["dim"] == 3
        assert obj["data"][4] == [1.0, 0.0]  # row-major: entry [1, 1]

    @settings(max_examples=40, deadline=None)
    @given(rho=st.one_of(mixed_states(max_dim=40), amplitudes.map(pure_density)))
    def test_density_text_matches_indented_json(self, rho):
        assert text_mismatch(rho) is None

    def test_density_text_awkward_floats(self):
        # -0.0, the smallest subnormal, 1e-5 (repr in exponent form), integer-valued floats and mirror pairs x, -x
        elems = np.array([
            [1.0, complex(-0.0, 5e-324), 1e-5, complex(1 / 3, -1 / 3)],
            [complex(-0.0, -5e-324), 0.0, complex(2.0, -0.0), -1e300],
            [1e-5, complex(2.0, 0.0), -3.0, 1e300],
            [complex(-1 / 3, 1 / 3), 0.1, -0.1, -2.5e-310],
        ])
        rho = unchecked_density(elems)
        assert text_mismatch(rho) is None
        text = density_json_text(rho)
        assert "-0.0," in text and "5e-324" in text and "1e-05" in text
        assert "-0.3333333333333333," in text and "-1e+300," in text and "-0.1," in text

    def test_density_from_json_refuses_data_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^density data shape \(3, 2\) does not match dim 2$"):
            density_from_json({"dim": 2, "data": [[0.5, 0.0]] * 3})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_density_text_refuses_non_finite(self, bad):
        elems = np.eye(3, dtype=np.complex128) / 3.0
        elems[1, 2] = bad
        elems[2, 0] = np.nan
        with pytest.raises(ValueError, match=r"density entry \[1, 2\] is not finite"):
            density_json_text(unchecked_density(elems))
