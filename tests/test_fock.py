import json
import math

import numpy as np
import pytest
from conftest import dense_beam_splitter, random_state
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvortho import (
    StateVector,
    Truncation,
    TruncationError,
    beam_splitter_op,
    coherent_state,
    density_from_json,
    density_to_json,
    displacement_op,
    expectation,
    fidelity,
    fock_state,
    inner_product,
    ladder_operators,
    min_dim_for_coherent,
    state_from_json,
    state_to_json,
    unitarity_defect,
)


def brute_poisson_weights(lam, count):
    # independent of the package's amplitude recurrence
    from scipy.stats import poisson

    return poisson.pmf(np.arange(count), lam)


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
        disp = displacement_op(1.0, t).apply(fock_state(0, t))
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


class TestLadderOperators:
    def test_raising(self):
        t = Truncation(10)
        _, a_dag, _ = ladder_operators(t)
        assert_allclose(a_dag.apply(fock_state(0, t)).amps, fock_state(1, t).amps)
        assert_allclose(a_dag.apply(fock_state(3, t)).amps, 2.0 * fock_state(4, t).amps)

    def test_lowering_annihilates_vacuum(self):
        t = Truncation(10)
        a, _, _ = ladder_operators(t)
        assert a.apply(fock_state(0, t)).norm == 0.0

    def test_number_operator_is_exact_product(self):
        t = Truncation(12)
        a, a_dag, n_op = ladder_operators(t)
        assert_allclose(n_op.elems, (a_dag @ a).elems)
        assert_allclose(np.diag(n_op.elems).real, np.arange(12))

    def test_commutator_on_valid_subspace(self):
        t = Truncation(14)
        a, a_dag, _ = ladder_operators(t)
        comm = (a @ a_dag - a_dag @ a).elems
        assert_allclose(comm[:-1, :-1], np.eye(13), atol=1e-14)
        # the top level violates the commutator by construction
        assert comm[-1, -1].real == pytest.approx(-13.0)


class TestDisplacement:
    def test_zero_is_identity(self):
        assert_allclose(displacement_op(0.0, Truncation(10)).elems, np.eye(10))

    def test_round_trip_error_shrinks_with_dim(self):
        deviations = []
        for dim in (20, 40, 60):
            prod = displacement_op(1.0, Truncation(dim)) @ displacement_op(-1.0, Truncation(dim))
            deviations.append(np.max(np.abs(prod.elems[:11, :11] - np.eye(11))))
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
        ht = Truncation(14, tail_tol=1e-6)
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
        assert_allclose(beam_splitter_op(theta, 1), [[t, -r], [r, t]], atol=1e-15)
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
        assert fidelity(x.to_density(), y.to_density()) == pytest.approx(pure, abs=1e-10)

    def test_expectation_matches_quadratic_form(self, rng):
        t = Truncation(9)
        psi = random_state(t, rng)
        _, _, n_op = ladder_operators(t)
        direct = np.vdot(psi.amps, n_op.elems @ psi.amps)
        assert expectation(n_op, psi) == pytest.approx(direct)
        assert expectation(n_op, psi.to_density()) == pytest.approx(direct)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner_product(fock_state(0, Truncation(4)), fock_state(0, Truncation(5)))


class TestInvariantsAndTypes:
    def test_state_requires_matching_length(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(3), Truncation(4))

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            Truncation(1)
        with pytest.raises(ValueError):
            Truncation(10, tail_tol=-1.0)

    def test_states_are_immutable(self):
        psi = fock_state(0, Truncation(4))
        with pytest.raises(ValueError):
            psi.amps[0] = 2.0

    def test_density_validation(self):
        t = Truncation(3)
        with pytest.raises(ValueError, match="Hermitian"):
            from cvortho import DensityMatrix

            DensityMatrix(np.array([[1, 1e-6, 0], [0, 0, 0], [0, 0, 0]]), t)


class TestSerialization:
    def test_state_round_trip(self, rng):
        psi = random_state(Truncation(12), rng)
        back = state_from_json(json.loads(json.dumps(state_to_json(psi))))
        assert np.max(np.abs(back.amps - psi.amps)) < 1e-15

    def test_density_round_trip(self, rng):
        rho = random_state(Truncation(9), rng).to_density()
        back = density_from_json(json.loads(json.dumps(density_to_json(rho))))
        assert np.max(np.abs(back.elems - rho.elems)) < 1e-15

    def test_schema_fields(self):
        obj = state_to_json(fock_state(1, Truncation(3)))
        assert set(obj) == {"dim", "data"}
        assert obj["dim"] == 3
        assert obj["data"][1] == [1.0, 0.0]
