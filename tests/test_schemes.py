import cmath
import math

import numpy as np
import pytest
from conftest import dense_beam_splitter, displacement_op, qubit_operator, random_state
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvortho import (
    OperatorKind,
    OrthogonalizerSpec,
    StateVector,
    Truncation,
    TruncationError,
    beta_for_addition_orthogonalizer,
    coherent_state,
    expectation,
    fidelity,
    fock_state,
    heralded_addition_model,
    ideal_addition_operator,
    ideal_number_operator,
    inner_product,
    ladder_operators,
    number_scheme_model,
    orthogonal_family,
    orthogonalize,
    theta_for_number_orthogonalizer,
    two_operator_orthogonalizer,
)


def displaced_fock(alpha, n, trunc):
    return StateVector(displacement_op(alpha, trunc) @ fock_state(n, trunc).amps, trunc).normalized()


def truncated_coherent(beta, dim):
    """Test oracle: the exact coherent amplitudes e^{-|beta|^2/2} beta^n / sqrt(n!), n < dim, not renormalized."""
    return np.array([math.exp(-abs(beta) ** 2 / 2) * beta**n / math.sqrt(math.factorial(n)) for n in range(dim)])


def dense_herald_one_zero(joint, herald_trunc, signal_trunc, theta):
    """Test oracle: dense splitter on the two herald modes, then <1, 0| on them.

    ``joint`` is the (idler, ancilla, signal) amplitude vector in numpy.kron
    order.  Returns the normalized signal amplitudes and the outcome
    probability.
    """
    hd, sd = herald_trunc.dim, signal_trunc.dim
    bs = dense_beam_splitter(theta, (herald_trunc, herald_trunc))
    mixed = (bs @ joint.reshape(hd * hd, sd)).reshape(hd, hd, sd)
    block = mixed[1, 0]
    prob = float(np.real(np.vdot(block, block)))
    return block / math.sqrt(prob), prob


class TestBuildOrthogonalizer:
    def test_creation_form(self):
        t = Truncation(12)
        spec = OrthogonalizerSpec(OperatorKind.CREATION, 1.0)
        _, a_dag, _ = ladder_operators(t)
        assert_allclose(qubit_operator(spec, 0, t), a_dag - np.eye(t.dim))

    def test_number_form(self):
        t = Truncation(12)
        spec = OrthogonalizerSpec(OperatorKind.NUMBER, 1.0)
        _, _, n_op = ladder_operators(t)
        assert_allclose(qubit_operator(spec, 0, t), n_op - np.eye(t.dim))

    def test_custom_zeroes_overlap_by_construction(self, rng):
        t = Truncation(16)
        psi = random_state(t, rng)
        c_op = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        spec = OrthogonalizerSpec.from_state(OperatorKind.CUSTOM, psi, operator=c_op)
        out = StateVector(qubit_operator(spec, 0, t) @ psi.amps, psi.trunc)
        assert abs(inner_product(psi, out)) / out.norm < 1e-12

    def test_number_mean_must_be_real(self):
        with pytest.raises(ValueError, match="^number-operator mean must be real$"):
            OrthogonalizerSpec(OperatorKind.NUMBER, 1.0 + 0.1j)

    @pytest.mark.parametrize("kind, operator, message", [
        (OperatorKind.CUSTOM, None, "^custom specs must carry the operator matrix$"),
        (OperatorKind.NUMBER, np.eye(3), "^operator matrix is only meaningful for custom specs$"),
    ], ids=["custom_without", "number_with"])
    def test_operator_matrix_goes_with_the_custom_kind(self, kind, operator, message):
        with pytest.raises(ValueError, match=message):
            OrthogonalizerSpec(kind, 0.0, operator)

    def test_custom_operator_is_a_frozen_copy(self, rng):
        t = Truncation(8)
        psi = random_state(t, rng)
        matrix = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        spec = OrthogonalizerSpec.from_state(OperatorKind.CUSTOM, psi, operator=matrix)
        before = orthogonalize(psi, spec).amps
        matrix *= 2.0
        assert np.array_equal(orthogonalize(psi, spec).amps, before)
        with pytest.raises(ValueError, match="read-only"):
            spec.operator[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(8,), (8, 7), (2, 2, 2)])
    def test_custom_operator_must_be_a_square_matrix(self, shape):
        with pytest.raises(ValueError, match="operator shape: must be a square matrix"):
            OrthogonalizerSpec(OperatorKind.CUSTOM, 0.0, operator=np.ones(shape))


class TestOrthogonalize:
    def test_coherent_gives_displaced_fock(self):
        t = Truncation(40)
        psi = coherent_state(1.0, t)
        out = orthogonalize(psi, OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi))
        assert fidelity(out, displaced_fock(1.0, 1, t)) > 1 - 1e-8

    def test_number_eigenstate_errors(self):
        t = Truncation(10)
        psi = fock_state(3, t)
        with pytest.raises(ValueError, match=r"^the input is an eigenstate of the operator with eigenvalue "):
            orthogonalize(psi, OrthogonalizerSpec(OperatorKind.NUMBER, 3.0))

    def test_mean_mismatch_rejected(self):
        t = Truncation(20)
        psi = coherent_state(1.0, t)
        with pytest.raises(ValueError, match="mean"):
            orthogonalize(psi, OrthogonalizerSpec(OperatorKind.CREATION, 0.5))

    def test_random_battery(self, rng):
        t = Truncation(40)
        for _ in range(100):
            psi = random_state(t, rng, support=20)
            spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi)
            out = orthogonalize(psi, spec)
            assert abs(inner_product(psi, out)) < 1e-10

    def test_creation_input_on_the_top_level_is_refused(self):
        # (|0> + |11>)/sqrt2 goes to (|1> + sqrt12 |12>)/sqrt13 on 20 levels; on 12 the truncated a_dag would drop
        # |11>'s share and give |1> alone, so the input is refused there
        amps = np.zeros(20)
        amps[[0, 11]] = 1.0 / math.sqrt(2.0)
        wide = StateVector(amps, Truncation(20))
        out = orthogonalize(wide, OrthogonalizerSpec.from_state(OperatorKind.CREATION, wide))
        assert_allclose(np.abs(out.amps[[1, 12]]) ** 2, [1 / 13, 12 / 13], atol=1e-12)
        narrow = StateVector(amps[:12], Truncation(12))
        spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, narrow)
        for call in (lambda: orthogonalize(narrow, spec), lambda: orthogonalize(narrow, spec, 1.0),
                     lambda: orthogonal_family(narrow, spec, 1)):
            with pytest.raises(TruncationError, match=r"^top-level weight 5\.000e-01 exceeds tail_tol 1e-08 "
                                                      r"\(creation-operator input\)"):
                call()


def overlap_bound_holds(psi, out):
    """|<psi|out>| <= 1e-10 ||out|| for an unnormalized ``out = C psi``."""
    return abs(inner_product(psi, out)) <= 1e-10 * out.norm


class TestOrthogonalityProperty:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 40), kind=st.sampled_from([OperatorKind.CREATION, OperatorKind.NUMBER]),
           seed=st.integers(0, 2**32 - 1))
    def test_orthogonalizer(self, dim, kind, seed):
        t = Truncation(dim)
        psi = random_state(t, np.random.default_rng(seed))
        spec = OrthogonalizerSpec.from_state(kind, psi)
        assert overlap_bound_holds(psi, StateVector(qubit_operator(spec, 0, t) @ psi.amps, psi.trunc))

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
    def test_custom_pair(self, dim, seed):
        rng = np.random.default_rng(seed)
        t = Truncation(dim)
        psi = random_state(t, rng)
        c1, c2 = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
        try:
            op = two_operator_orthogonalizer(c1, c2, psi)
        except ValueError as error:
            assume("vanishes on the input" not in str(error))  # <C2> = 0: no ratio, so no operator
            raise
        assert overlap_bound_holds(psi, StateVector(op @ psi.amps, psi.trunc))


class TestOrthogonalFamily:
    def test_undisplaced_ladder(self):
        t = Truncation(10)
        psi = fock_state(0, t)
        fam = orthogonal_family(psi, OrthogonalizerSpec(OperatorKind.CREATION, 0.0), 2)
        assert fidelity(fam[0], fock_state(1, t)) == pytest.approx(1.0)
        assert fidelity(fam[1], fock_state(2, t)) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha,k,dim", [(1.0, 3, 40), (2.0, 2, 60)])
    def test_mutually_orthogonal_and_displaced(self, alpha, k, dim):
        t = Truncation(dim)
        psi = coherent_state(alpha, t)
        fam = orthogonal_family(psi, OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi), k)
        members = [psi] + fam
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                assert abs(inner_product(members[i], members[j])) < 1e-8
        for m, member in enumerate(fam, start=1):
            assert fidelity(member, displaced_fock(alpha, m, t)) > 1 - 1e-8

    def test_requires_creation_kind(self):
        t = Truncation(10)
        with pytest.raises(ValueError):
            orthogonal_family(fock_state(0, t), OrthogonalizerSpec(OperatorKind.NUMBER, 0.0), 2)


class TestQubitOperator:
    def test_c_zero_reduces_to_orthogonalizer(self):
        t = Truncation(15)
        spec = OrthogonalizerSpec(OperatorKind.CREATION, 0.7 + 0.2j)
        _, a_dag, _ = ladder_operators(t)
        assert_allclose(qubit_operator(spec, 0.0, t), a_dag - (0.7 + 0.2j) * np.eye(t.dim))

    @pytest.mark.parametrize("c", [1.0, -1.0, 1j, -1j, 0.5 + 0.5j])
    def test_balanced_qubits_on_coherent(self, c):
        # oracle from displacement algebra: output is D(1)(|1> + c|0>)/sqrt(1+|c|^2)
        t = Truncation(40)
        psi = coherent_state(1.0, t)
        spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi)
        out = StateVector(qubit_operator(spec, c, t) @ psi.amps, psi.trunc).normalized()
        target_amps = (fock_state(1, t).amps + c * fock_state(0, t).amps) / math.sqrt(1 + abs(c) ** 2)
        target = StateVector(displacement_op(1.0, t) @ target_amps, t)
        assert fidelity(out, target) > 1 - 1e-8

    def test_decomposition_weights_on_coherent(self):
        # creation scheme on coherent input: the orthogonal branch has unit
        # norm, so the weights are exactly (c, 1)/sqrt(1+|c|^2) and the
        # residual outside span{psi, psi_perp} vanishes
        t = Truncation(30)
        psi = coherent_state(0.8, t)
        spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi)
        perp = orthogonalize(psi, spec)
        for c in (1.0, 1j, 0.3 - 0.8j):
            out = StateVector(qubit_operator(spec, c, t) @ psi.amps, psi.trunc).normalized()
            w_in, w_perp = inner_product(psi, out), inner_product(perp, out)
            scale = math.sqrt(1 + abs(c) ** 2)
            assert abs(w_in) == pytest.approx(abs(c) / scale, abs=1e-10)
            assert abs(w_perp) == pytest.approx(1 / scale, abs=1e-10)
            assert abs(w_in) ** 2 + abs(w_perp) ** 2 == pytest.approx(1.0, abs=1e-10)
            residual = StateVector(out.amps - w_in * psi.amps - w_perp * perp.amps, t)
            assert residual.norm < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(4, 40), kind=st.sampled_from(list(OperatorKind)), seed=st.integers(0, 2**32 - 1),
           c=st.one_of(st.just(0j), st.complex_numbers(max_magnitude=10.0)))
    def test_orthogonalize_is_the_reference_qubit_operator(self, dim, kind, seed, c):
        # one vector step against the dense reference matrix, and the weight the input keeps in the output
        rng = np.random.default_rng(seed)
        t = Truncation(dim)
        psi = random_state(t, rng)  # support on the lower half, so a_dag psi stays clear of the top level
        custom = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        spec = OrthogonalizerSpec.from_state(kind, psi, operator=custom if kind is OperatorKind.CUSTOM else None)
        perp_norm = StateVector(qubit_operator(spec, 0.0, t) @ psi.amps, psi.trunc).norm
        assume(perp_norm > 1e-6)  # an eigenstate of C: at c = 0 the output norm is zero
        out = orthogonalize(psi, spec, c)
        ref = StateVector(qubit_operator(spec, c, t) @ psi.amps, psi.trunc).normalized()
        assert np.max(np.abs(out.amps - ref.amps)) <= 1e-13
        weight = abs(c) ** 2 / (abs(c) ** 2 + perp_norm**2)
        assert abs(inner_product(psi, out)) ** 2 == pytest.approx(weight, abs=1e-13)

    def test_decomposition_closes_on_general_states(self, rng):
        # for arbitrary inputs the weights are measured a posteriori; the
        # output stays inside span{psi, psi_perp}, so they square-sum to 1
        t = Truncation(30)
        for kind in (OperatorKind.CREATION, OperatorKind.NUMBER):
            psi = random_state(t, rng, support=12)
            spec = OrthogonalizerSpec.from_state(kind, psi)
            out = StateVector(qubit_operator(spec, 0.4 + 0.7j, t) @ psi.amps, psi.trunc).normalized()
            total = abs(inner_product(psi, out)) ** 2 + abs(inner_product(orthogonalize(psi, spec), out)) ** 2
            assert total == pytest.approx(1.0, abs=1e-10)


class TestTwoOperatorOrthogonalizer:
    def test_reduces_to_creation_form(self, rng):
        t = Truncation(20)
        psi = random_state(t, rng, support=10)
        _, a_dag, _ = ladder_operators(t)
        op = two_operator_orthogonalizer(a_dag, np.eye(t.dim), psi)
        mean = expectation(a_dag, psi)
        assert_allclose(op, a_dag - mean * np.eye(t.dim), atol=1e-12)

    def test_reduces_to_number_form(self, rng):
        t = Truncation(20)
        psi = random_state(t, rng, support=10)
        _, _, n_op = ladder_operators(t)
        op = two_operator_orthogonalizer(n_op, np.eye(t.dim), psi)
        mean = expectation(n_op, psi)
        assert_allclose(op, n_op - mean * np.eye(t.dim), atol=1e-12)

    def test_random_battery(self, rng):
        t = Truncation(30)
        for _ in range(50):
            psi = random_state(t, rng, support=15)
            c1 = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
            c2 = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
            out = StateVector(two_operator_orthogonalizer(c1, c2, psi) @ psi.amps, psi.trunc)
            assert abs(inner_product(psi, out)) / out.norm < 1e-10

    def test_degenerate_denominator(self):
        t = Truncation(10)
        psi = fock_state(0, t)
        a, a_dag, _ = ladder_operators(t)
        with pytest.raises(ValueError, match=r"^<C2> = .* vanishes on the input; the operator ratio is undefined$"):
            two_operator_orthogonalizer(a_dag, a, psi)  # <a> = 0 on vacuum


class TestHeraldedAdditionModel:
    def test_zero_angle_is_pure_addition(self):
        t = Truncation(30)
        psi = coherent_state(0.8, t)
        out, _ = heralded_addition_model(psi, 1.0, 0.0)
        _, a_dag, _ = ladder_operators(t)
        assert fidelity(out, StateVector(a_dag @ psi.amps, psi.trunc).normalized()) > 1 - 1e-10

    def test_vacuum_ancilla_is_pure_addition(self):
        t = Truncation(30)
        psi = coherent_state(0.8, t)
        out, _ = heralded_addition_model(psi, 0.0, math.pi / 8)
        _, a_dag, _ = ladder_operators(t)
        assert fidelity(out, StateVector(a_dag @ psi.amps, psi.trunc).normalized()) > 1 - 1e-10

    def test_tuned_into_physical_orthogonalizer(self):
        t = Truncation(40)
        alpha = 0.9
        psi = coherent_state(alpha, t)
        theta = math.pi / 6  # keeps the tuned ancilla amplitude below 2
        beta = beta_for_addition_orthogonalizer(np.conj(alpha), theta)
        out, _ = heralded_addition_model(psi, beta, theta)
        assert abs(inner_product(psi, out)) < 1e-8

    @pytest.mark.parametrize("theta", [math.pi / 16, math.pi / 8, math.pi / 4])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0 * cmath.exp(1j * math.pi / 3)])
    def test_matches_ideal_operator_over_grid(self, theta, beta):
        t = Truncation(40)
        ideal = ideal_addition_operator(beta, theta, t)
        plus2 = StateVector(
            (fock_state(0, t).amps + fock_state(2, t).amps) / math.sqrt(2), t
        )
        ratios = []
        for psi in (coherent_state(0.5, t), coherent_state(1.0, t), fock_state(1, t), plus2):
            out, prob = heralded_addition_model(psi, beta, theta)
            target = StateVector(ideal @ psi.amps, psi.trunc)
            assert fidelity(out, target.normalized()) > 1 - 1e-8
            ratios.append(prob / target.norm ** 2)
        # success probability proportional to the ideal squared norm with a
        # state-independent factor
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread < 1e-6

    @pytest.mark.parametrize("herald_dim", [12, 16, 20])
    @pytest.mark.parametrize("theta", [math.pi / 16, math.pi / 8, math.pi / 4])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0 * cmath.exp(1j * math.pi / 3)])
    def test_matches_dense_three_mode_oracle(self, herald_dim, theta, beta):
        st, ht = Truncation(40), Truncation(herald_dim)
        psi = coherent_state(0.8, st)
        _, a_dag, _ = ladder_operators(st)
        ancilla = truncated_coherent(beta, herald_dim)
        one, vac = fock_state(1, ht).amps, fock_state(0, ht).amps
        joint = (np.kron(one, np.kron(ancilla, a_dag @ psi.amps))
                 + np.kron(vac, np.kron(ancilla, psi.amps)))
        ref, ref_prob = dense_herald_one_zero(joint, ht, st, theta)
        out, prob = heralded_addition_model(psi, beta, theta, herald_dim)
        assert np.max(np.abs(out.amps - ref)) <= 1e-13
        assert prob == pytest.approx(ref_prob, rel=1e-12)

    def test_impossible_herald(self):
        # beta = 0 empties the identity branch and t = cos(pi/2) the addition branch
        with pytest.raises(ValueError, match=r"^herald outcome \(1, 0\) has vanishing weight "):
            heralded_addition_model(coherent_state(0.5, Truncation(30)), 0.0, math.pi / 2)

    def test_phase_convention(self):
        # the complex beta is the ancilla amplitude, its phase included: ideal operator t a_dag - r beta 1
        t = Truncation(30)
        psi = coherent_state(0.7, t)
        beta = 0.8 * cmath.exp(1j * math.pi / 5)
        out, _ = heralded_addition_model(psi, beta, math.pi / 8)
        target = StateVector(ideal_addition_operator(beta, math.pi / 8, t) @ psi.amps, psi.trunc).normalized()
        assert fidelity(out, target) > 1 - 1e-10

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(-1.5, 1.5), y=st.floats(-1.5, 1.5), theta=st.floats(0.1, 1.4))
    def test_auto_beta_orthogonalizes_a_complex_coherent_input(self, x, y, theta):
        alpha = complex(x, y)
        assume(abs(alpha) <= 1.5)
        t = Truncation(40)
        psi = coherent_state(alpha, t)
        beta = beta_for_addition_orthogonalizer(expectation(ladder_operators(t)[1], psi), theta)
        # a 20-level ancilla basis holds |beta| up to 3; far past it the herald weight vanishes (e^{-|beta|^2})
        assume(abs(beta) <= 3.0)
        out, _ = heralded_addition_model(psi, beta, theta, herald_dim=20)
        assert abs(inner_product(psi, out)) < 1e-8


class TestNumberSchemeModel:
    def test_zero_reflectivity_is_number_operator(self):
        t = Truncation(30)
        psi = coherent_state(1.0, t)
        out, _ = number_scheme_model(psi, 0.0)
        _, _, n_op = ladder_operators(t)
        assert fidelity(out, StateVector(n_op @ psi.amps, psi.trunc).normalized()) > 1 - 1e-10

    def test_tuned_into_orthogonalizer(self):
        t = Truncation(40)
        psi = coherent_state(1.0, t)
        n_mean = expectation(ladder_operators(t)[2], psi).real
        theta = theta_for_number_orthogonalizer(n_mean)
        assert theta == pytest.approx(math.atan(0.5))
        out, _ = number_scheme_model(psi, theta)
        assert abs(inner_product(psi, out)) < 1e-8

    def test_conditional_operator_elementwise(self):
        # reconstruct the conditional operator column by column from basis
        # states and compare with t e^{i phi} a_dag a - r a a_dag
        t = Truncation(12)
        ideal = ideal_number_operator(math.pi / 8, math.pi / 3, t)
        recovered = np.zeros((12, 12), dtype=complex)
        for n in range(11):
            cond, prob = number_scheme_model(fock_state(n, t), math.pi / 8, math.pi / 3)
            recovered[:, n] = cond.amps * math.sqrt(prob)
        assert np.max(np.abs(recovered[:11, :11] - ideal[:11, :11])) < 1e-10

    @pytest.mark.parametrize("herald_dim", [12, 16, 20])
    @pytest.mark.parametrize("theta", [math.pi / 16, math.pi / 8, 1.0])
    def test_matches_dense_three_mode_oracle(self, herald_dim, theta, rng):
        # the number scheme has no ancilla, so the herald dim only sizes the oracle
        st, ht = Truncation(25), Truncation(herald_dim)
        a, a_dag, n_op = ladder_operators(st)
        one, vac = fock_state(1, ht).amps, fock_state(0, ht).amps
        for psi in (coherent_state(1.0, st), random_state(st, rng, support=12)):
            joint = (cmath.exp(0.9j) * np.kron(one, np.kron(vac, n_op @ psi.amps))
                     + np.kron(vac, np.kron(one, a @ a_dag @ psi.amps)))
            ref, ref_prob = dense_herald_one_zero(joint, ht, st, theta)
            out, prob = number_scheme_model(psi, theta, 0.9)
            assert np.max(np.abs(out.amps - ref)) <= 1e-13
            assert prob == pytest.approx(ref_prob, rel=1e-12)

    def test_impossible_herald(self):
        # n|0> = 0, and r = 0 removes the a a_dag branch
        with pytest.raises(ValueError, match=r"^herald outcome \(1, 0\) has vanishing weight "):
            number_scheme_model(fock_state(0, Truncation(10)), 0.0)

    def test_singular_configuration(self):
        t = Truncation(10)
        singular = r"^theta: must be an angle with cos\(theta\) != sin\(theta\) \(t = r is singular\)"
        with pytest.raises(ValueError, match=singular):
            number_scheme_model(coherent_state(0.5, t), math.pi / 4)

    def test_number_scheme_equals_ideal_on_states(self, rng):
        t = Truncation(25)
        ideal = ideal_number_operator(0.3, 0.9, t)
        for _ in range(5):
            psi = random_state(t, rng, support=12)
            out, _ = number_scheme_model(psi, 0.3, 0.9)
            assert fidelity(out, StateVector(ideal @ psi.amps, psi.trunc).normalized()) > 1 - 1e-8


class TestHelpers:
    def test_beta_tuning_solves_ratio(self):
        theta = 0.4
        beta = beta_for_addition_orthogonalizer(0.7 - 0.2j, theta)
        assert math.sin(theta) * beta == pytest.approx(math.cos(theta) * (0.7 - 0.2j))

    def test_theta_tuning_solves_ratio(self):
        for n_mean in (0.5, 1.0, 4.0):
            theta = theta_for_number_orthogonalizer(n_mean)
            t, r = math.cos(theta), math.sin(theta)
            assert r / (t - r) == pytest.approx(n_mean)

    def test_theta_tuning_refuses_a_negative_mean(self):
        with pytest.raises(ValueError, match="^mean photon number must be nonnegative$"):
            theta_for_number_orthogonalizer(-1)

    def test_herald_default_respects_signal(self):
        # the default ancilla basis is min(signal dim, 12), too small for beta = 2.5 either way
        for signal_dim, herald_dim in ((40, 12), (8, 8)):
            with pytest.raises(TruncationError, match=f"got {herald_dim}$"):
                heralded_addition_model(fock_state(0, Truncation(signal_dim)), 2.5, 0.1)
