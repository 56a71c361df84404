import cmath
import math

import numpy as np
import pytest
from conftest import dense_beam_splitter, random_state
from numpy.testing import assert_allclose

from cvortho import (
    DegenerateDenominatorError,
    EigenstateError,
    HeraldImpossibleError,
    HeraldModel,
    ModeOperator,
    OperatorKind,
    OrthogonalizerSpec,
    SingularConfigurationError,
    StateVector,
    Truncation,
    beta_for_addition_orthogonalizer,
    build_orthogonalizer,
    coherent_state,
    displacement_op,
    expectation,
    fidelity,
    fock_state,
    heralded_addition_model,
    ideal_addition_operator,
    ideal_number_operator,
    identity_op,
    inner_product,
    ladder_operators,
    number_scheme_model,
    orthogonal_family,
    orthogonalize,
    qubit_decomposition,
    qubit_operator,
    theta_for_number_orthogonalizer,
    two_operator_orthogonalizer,
)


def displaced_fock(alpha, n, trunc):
    return displacement_op(alpha, trunc).apply(fock_state(n, trunc)).normalized()


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
        assert_allclose(build_orthogonalizer(spec, t).elems, (a_dag - identity_op(t)).elems)

    def test_number_form(self):
        t = Truncation(12)
        spec = OrthogonalizerSpec(OperatorKind.NUMBER, 1.0)
        _, _, n_op = ladder_operators(t)
        assert_allclose(build_orthogonalizer(spec, t).elems, (n_op - identity_op(t)).elems)

    def test_custom_zeroes_overlap_by_construction(self, rng):
        t = Truncation(16)
        psi = random_state(t, rng)
        c_op = ModeOperator(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)), t)
        spec = OrthogonalizerSpec.from_state(OperatorKind.CUSTOM, psi, operator=c_op)
        out = build_orthogonalizer(spec, t).apply(psi)
        assert abs(inner_product(psi, out)) / out.norm < 1e-12

    def test_number_mean_must_be_real(self):
        with pytest.raises(ValueError):
            OrthogonalizerSpec(OperatorKind.NUMBER, 1.0 + 0.1j)


class TestOrthogonalize:
    def test_coherent_gives_displaced_fock(self):
        t = Truncation(40)
        psi = coherent_state(1.0, t)
        out = orthogonalize(psi, OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi))
        assert fidelity(out, displaced_fock(1.0, 1, t)) > 1 - 1e-8

    def test_number_eigenstate_errors(self):
        t = Truncation(10)
        psi = fock_state(3, t)
        with pytest.raises(EigenstateError):
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
        assert_allclose(qubit_operator(spec, 0.0, t).elems, build_orthogonalizer(spec, t).elems)

    @pytest.mark.parametrize("c", [1.0, -1.0, 1j, -1j, 0.5 + 0.5j])
    def test_balanced_qubits_on_coherent(self, c):
        # oracle from displacement algebra: output is D(1)(|1> + c|0>)/sqrt(1+|c|^2)
        t = Truncation(40)
        psi = coherent_state(1.0, t)
        spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi)
        out = qubit_operator(spec, c, t).apply(psi).normalized()
        target_amps = (fock_state(1, t).amps + c * fock_state(0, t).amps) / math.sqrt(1 + abs(c) ** 2)
        target = displacement_op(1.0, t).apply(StateVector(target_amps, t))
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
            qs = qubit_decomposition(psi, spec, c)
            scale = math.sqrt(1 + abs(c) ** 2)
            assert abs(qs.weight_input) == pytest.approx(abs(c) / scale, abs=1e-10)
            assert abs(qs.weight_orthogonal) == pytest.approx(1 / scale, abs=1e-10)
            out = qubit_operator(spec, c, t).apply(psi).normalized()
            residual = StateVector(
                out.amps - qs.weight_input * psi.amps - qs.weight_orthogonal * perp.amps, t
            )
            assert residual.norm < 1e-10

    def test_decomposition_closes_on_general_states(self, rng):
        # for arbitrary inputs the weights are measured a posteriori; the
        # output stays inside span{psi, psi_perp}, so they square-sum to 1
        # (enforced by the QubitSpec invariant)
        t = Truncation(30)
        for kind in (OperatorKind.CREATION, OperatorKind.NUMBER):
            psi = random_state(t, rng, support=12)
            spec = OrthogonalizerSpec.from_state(kind, psi)
            qs = qubit_decomposition(psi, spec, 0.4 + 0.7j)
            total = abs(qs.weight_input) ** 2 + abs(qs.weight_orthogonal) ** 2
            assert total == pytest.approx(1.0, abs=1e-10)


class TestTwoOperatorOrthogonalizer:
    def test_reduces_to_creation_form(self, rng):
        t = Truncation(20)
        psi = random_state(t, rng, support=10)
        _, a_dag, _ = ladder_operators(t)
        op = two_operator_orthogonalizer(a_dag, identity_op(t), psi)
        mean = expectation(a_dag, psi)
        assert_allclose(op.elems, (a_dag - mean * identity_op(t)).elems, atol=1e-12)

    def test_reduces_to_number_form(self, rng):
        t = Truncation(20)
        psi = random_state(t, rng, support=10)
        _, _, n_op = ladder_operators(t)
        op = two_operator_orthogonalizer(n_op, identity_op(t), psi)
        mean = expectation(n_op, psi)
        assert_allclose(op.elems, (n_op - mean * identity_op(t)).elems, atol=1e-12)

    def test_random_battery(self, rng):
        t = Truncation(30)
        for _ in range(50):
            psi = random_state(t, rng, support=15)
            c1 = ModeOperator(rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)), t)
            c2 = ModeOperator(rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)), t)
            out = two_operator_orthogonalizer(c1, c2, psi).apply(psi)
            assert abs(inner_product(psi, out)) / out.norm < 1e-10

    def test_degenerate_denominator(self):
        t = Truncation(10)
        psi = fock_state(0, t)
        a, a_dag, _ = ladder_operators(t)
        with pytest.raises(DegenerateDenominatorError):
            two_operator_orthogonalizer(a_dag, a, psi)  # <a> = 0 on vacuum


class TestHeraldedAdditionModel:
    def test_zero_angle_is_pure_addition(self):
        t = Truncation(30)
        psi = coherent_state(0.8, t)
        out, _ = heralded_addition_model(psi, HeraldModel(beta=1.0, theta=0.0))
        _, a_dag, _ = ladder_operators(t)
        assert fidelity(out, a_dag.apply(psi).normalized()) > 1 - 1e-10

    def test_vacuum_ancilla_is_pure_addition(self):
        t = Truncation(30)
        psi = coherent_state(0.8, t)
        out, _ = heralded_addition_model(psi, HeraldModel(beta=0.0, theta=math.pi / 8))
        _, a_dag, _ = ladder_operators(t)
        assert fidelity(out, a_dag.apply(psi).normalized()) > 1 - 1e-10

    def test_tuned_into_physical_orthogonalizer(self):
        t = Truncation(40)
        alpha = 0.9
        psi = coherent_state(alpha, t)
        theta = math.pi / 6  # keeps the tuned ancilla amplitude below 2
        beta = beta_for_addition_orthogonalizer(np.conj(alpha), theta)
        out, _ = heralded_addition_model(psi, HeraldModel(beta=beta, theta=theta))
        assert abs(inner_product(psi, out)) < 1e-8

    @pytest.mark.parametrize("theta", [math.pi / 16, math.pi / 8, math.pi / 4])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0 * cmath.exp(1j * math.pi / 3)])
    def test_matches_ideal_operator_over_grid(self, theta, beta):
        t = Truncation(40)
        model = HeraldModel(beta=beta, theta=theta)
        ideal = ideal_addition_operator(model, t)
        plus2 = StateVector(
            (fock_state(0, t).amps + fock_state(2, t).amps) / math.sqrt(2), t
        )
        ratios = []
        for psi in (coherent_state(0.5, t), coherent_state(1.0, t), fock_state(1, t), plus2):
            out, prob = heralded_addition_model(psi, model)
            target = ideal.apply(psi)
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
        st, ht = Truncation(40), Truncation(herald_dim, tail_tol=5e-3)
        model = HeraldModel(beta=beta, theta=theta, phi=0.4, herald_trunc=ht)
        psi = coherent_state(0.8, st)
        _, a_dag, _ = ladder_operators(st)
        ancilla = coherent_state(beta * cmath.exp(0.4j), ht).amps
        one, vac = fock_state(1, ht).amps, fock_state(0, ht).amps
        joint = (np.kron(one, np.kron(ancilla, a_dag.apply(psi).amps))
                 + np.kron(vac, np.kron(ancilla, psi.amps)))
        ref, ref_prob = dense_herald_one_zero(joint, ht, st, theta)
        out, prob = heralded_addition_model(psi, model)
        assert np.max(np.abs(out.amps - ref)) <= 1e-13
        assert prob == pytest.approx(ref_prob, rel=1e-12)

    def test_impossible_herald(self):
        # beta = 0 empties the identity branch and t = cos(pi/2) the addition branch
        with pytest.raises(HeraldImpossibleError):
            heralded_addition_model(coherent_state(0.5, Truncation(30)),
                                    HeraldModel(beta=0.0, theta=math.pi / 2))

    def test_phase_convention(self):
        # phi rotates the ancilla amplitude: ideal operator t a_dag - r beta e^{i phi}
        t = Truncation(30)
        psi = coherent_state(0.7, t)
        model = HeraldModel(beta=0.8, theta=math.pi / 8, phi=math.pi / 5)
        out, _ = heralded_addition_model(psi, model)
        target = ideal_addition_operator(model, t).apply(psi).normalized()
        assert fidelity(out, target) > 1 - 1e-10


class TestNumberSchemeModel:
    def test_zero_reflectivity_is_number_operator(self):
        t = Truncation(30)
        psi = coherent_state(1.0, t)
        out, _ = number_scheme_model(psi, HeraldModel(beta=0.0, theta=0.0))
        _, _, n_op = ladder_operators(t)
        assert fidelity(out, n_op.apply(psi).normalized()) > 1 - 1e-10

    def test_tuned_into_orthogonalizer(self):
        t = Truncation(40)
        psi = coherent_state(1.0, t)
        n_mean = expectation(ladder_operators(t)[2], psi).real
        theta = theta_for_number_orthogonalizer(n_mean)
        assert theta == pytest.approx(math.atan(0.5))
        out, _ = number_scheme_model(psi, HeraldModel(beta=0.0, theta=theta))
        assert abs(inner_product(psi, out)) < 1e-8

    def test_conditional_operator_elementwise(self):
        # reconstruct the conditional operator column by column from basis
        # states and compare with t e^{i phi} a_dag a - r a a_dag
        t = Truncation(12)
        model = HeraldModel(beta=0.0, theta=math.pi / 8, phi=math.pi / 3)
        ideal = ideal_number_operator(model, t)
        recovered = np.zeros((12, 12), dtype=complex)
        for n in range(11):
            cond, prob = number_scheme_model(fock_state(n, t), model)
            recovered[:, n] = cond.amps * math.sqrt(prob)
        assert np.max(np.abs(recovered[:11, :11] - ideal.elems[:11, :11])) < 1e-10

    @pytest.mark.parametrize("herald_dim", [12, 16, 20])
    @pytest.mark.parametrize("theta", [math.pi / 16, math.pi / 8, 1.0])
    def test_matches_dense_three_mode_oracle(self, herald_dim, theta, rng):
        # the number scheme has no ancilla, so the herald dim only sizes the oracle
        st, ht = Truncation(25), Truncation(herald_dim)
        model = HeraldModel(beta=0.0, theta=theta, phi=0.9, herald_trunc=ht)
        a, a_dag, n_op = ladder_operators(st)
        one, vac = fock_state(1, ht).amps, fock_state(0, ht).amps
        for psi in (coherent_state(1.0, st), random_state(st, rng, support=12)):
            joint = (cmath.exp(0.9j) * np.kron(one, np.kron(vac, n_op.apply(psi).amps))
                     + np.kron(vac, np.kron(one, (a @ a_dag).apply(psi).amps)))
            ref, ref_prob = dense_herald_one_zero(joint, ht, st, theta)
            out, prob = number_scheme_model(psi, model)
            assert np.max(np.abs(out.amps - ref)) <= 1e-13
            assert prob == pytest.approx(ref_prob, rel=1e-12)

    def test_impossible_herald(self):
        # n|0> = 0, and r = 0 removes the a a_dag branch
        with pytest.raises(HeraldImpossibleError):
            number_scheme_model(fock_state(0, Truncation(10)), HeraldModel(beta=0.0, theta=0.0))

    def test_singular_configuration(self):
        t = Truncation(10)
        with pytest.raises(SingularConfigurationError):
            number_scheme_model(coherent_state(0.5, t), HeraldModel(beta=0.0, theta=math.pi / 4))

    def test_number_scheme_equals_ideal_on_states(self, rng):
        t = Truncation(25)
        model = HeraldModel(beta=0.0, theta=0.3, phi=0.9)
        ideal = ideal_number_operator(model, t)
        for _ in range(5):
            psi = random_state(t, rng, support=12)
            out, _ = number_scheme_model(psi, model)
            assert fidelity(out, ideal.apply(psi).normalized()) > 1 - 1e-8


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

    def test_herald_default_respects_signal(self):
        model = HeraldModel(beta=1.0, theta=0.1)
        assert model.herald_truncation(Truncation(40)).dim == 12
        assert model.herald_truncation(Truncation(8)).dim == 8
