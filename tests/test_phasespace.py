import math

import numpy as np
import pytest
from conftest import eigvec_wigner, kernel_marginal, mixed_states, random_state
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvortho import (
    LossChannel,
    PhaseGrid,
    Truncation,
    apply_loss,
    coherent_state,
    displacement_op,
    fidelity,
    fock_state,
    hermite_functions,
    marginal,
    wigner,
    wigner_point,
)
from cvortho.homodyne import QuadratureSamples, likelihood_csv_text, samples_csv_text
from cvortho.phasespace import (
    WIGNER_CONVENTION,
    QuadratureDistribution,
    WignerMap,
    default_grid,
    marginal_filename,
    marginal_csv_text,
    read_wigner_grid,
    wigner_grid_text,
)


@st.composite
def off_centre_grids(draw):
    # nx != np and min != -max on both axes
    x_min, p_min = draw(st.floats(-4.0, 1.0)), draw(st.floats(-4.0, 1.0))
    x_max = x_min + draw(st.floats(0.5, 5.0))
    p_max = p_min + draw(st.floats(0.5, 5.0))
    assume(x_min != -x_max and p_min != -p_max)
    nx = draw(st.integers(2, 12))
    return PhaseGrid(x_min, x_max, p_min, p_max, nx, nx + draw(st.integers(1, 6)))


def displaced_one_photon_density(xs, alpha):
    # closed form for the x-quadrature density of D(alpha)|1>, alpha real
    u = xs - math.sqrt(2.0) * alpha
    return 2.0 * u**2 * np.exp(-(u**2)) / math.sqrt(math.pi)


class TestHermiteFunctions:
    def test_orthonormal_on_fine_grid(self):
        xs = np.linspace(-10, 10, 4001)
        h = hermite_functions(xs, 20)
        gram = np.trapezoid(h[:, None, :] * h[None, :, :], xs, axis=2)
        assert np.max(np.abs(gram - np.eye(20))) < 1e-10

    def test_stable_at_high_order(self):
        xs = np.linspace(-6, 6, 101)
        h = hermite_functions(xs, 70)
        assert np.all(np.isfinite(h))
        assert np.max(np.abs(h[69])) < 1.0  # normalized functions stay bounded


class TestWigner:
    def test_vacuum_at_origin(self):
        grid = default_grid()
        w = wigner(fock_state(0, Truncation(15)).to_density(), grid)
        mid = grid.nx // 2
        assert w.values[mid, mid] == pytest.approx(1 / math.pi, abs=1e-12)

    def test_single_photon_at_origin(self):
        grid = default_grid()
        w = wigner(fock_state(1, Truncation(15)).to_density(), grid)
        mid = grid.nx // 2
        assert w.values[mid, mid] == pytest.approx(-1 / math.pi, abs=1e-12)

    def test_vacuum_closed_form(self):
        grid = PhaseGrid(-4, 4, -4, 4, 41, 41)
        w = wigner(fock_state(0, Truncation(10)).to_density(), grid)
        xs, ps = grid.xs(), grid.ps()
        ref = np.exp(-(xs[:, None] ** 2) - ps[None, :] ** 2) / math.pi
        assert np.max(np.abs(w.values - ref)) < 1e-9

    def test_coherent_peak_location(self):
        grid = default_grid()
        w = wigner(coherent_state(1.0, Truncation(25)).to_density(), grid)
        i, j = np.unravel_index(np.argmax(w.values), w.values.shape)
        dx = (grid.x_max - grid.x_min) / (grid.nx - 1)
        assert abs(grid.xs()[i] - math.sqrt(2.0)) <= dx
        assert abs(grid.ps()[j]) <= dx

    def test_normalization(self):
        grid = default_grid()
        for state in (
            fock_state(1, Truncation(12)),
            coherent_state(2.0, Truncation(30)),
            coherent_state(1.0 + 0.5j, Truncation(30)),
        ):
            assert wigner(state.to_density(), grid).integral() == pytest.approx(1.0, abs=1e-4)

    def test_displacement_covariance(self):
        # shift by one grid-aligned displacement: alpha = (1.0 + 0.5j)/sqrt2
        # moves the map 20 cells in x and 10 in p on the default grid
        trunc = Truncation(40)
        psi = fock_state(1, trunc)
        rho = psi.to_density()
        alpha = (1.0 + 0.5j) / math.sqrt(2.0)
        disp = displacement_op(alpha, trunc)
        rho_disp = disp.apply(psi).normalized().to_density()
        grid = default_grid()
        w = wigner(rho, grid).values
        w_disp = wigner(rho_disp, grid).values
        assert np.max(np.abs(w_disp[20:, 10:] - w[:-20, :-10])) < 1e-9

    def test_point_evaluator_matches_sweep(self, rng):
        rho = random_state(Truncation(12), rng, support=8).to_density()
        grid = PhaseGrid(-3, 3, -3, 3, 7, 7)
        w = wigner(rho, grid)
        for i in (0, 3, 5):
            for j in (1, 3, 6):
                ref = wigner_point(rho, grid.xs()[i], grid.ps()[j])
                assert w.values[i, j] == pytest.approx(ref, abs=1e-10)


class TestWignerContraction:
    @settings(max_examples=40, deadline=None)
    @given(rho=mixed_states(max_dim=20), grid=off_centre_grids())
    def test_matches_eigenvector_oracle_and_point_path(self, rho, grid):
        w = wigner(rho, grid).values
        assert np.max(np.abs(w - eigvec_wigner(rho, grid))) <= 1e-13
        for i, j in ((0, 0), (grid.nx - 1, grid.np - 1), (grid.nx // 2, grid.np // 3)):
            ref = wigner_point(rho, grid.xs()[i], grid.ps()[j])
            assert abs(w[i, j] - ref) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(rho=mixed_states(max_dim=12))
    def test_p_integral_is_x_marginal(self, rho):
        # the p-range holds all but ~1e-18 of W for d <= 12; the trapezoid
        # error is bounded by the gap to the rule on every other node
        grid = PhaseGrid(-4.0, 5.0, -9.0, 9.0, 19, 181)
        w = wigner(rho, grid).values
        fine = np.trapezoid(w, grid.ps(), axis=1)
        coarse = np.trapezoid(w[:, ::2], grid.ps()[::2], axis=1)
        dist = marginal(rho, 0.0, grid.xs())
        assert np.all(np.abs(fine - dist.density) <= np.abs(fine - coarse) + 1e-13)


class TestMarginal:
    def test_coherent_gaussian(self):
        rho = coherent_state(1.0, Truncation(30)).to_density()
        xs = np.linspace(-8, 8, 1601)
        dist = marginal(rho, 0.0, xs)
        ref = np.exp(-((xs - math.sqrt(2.0)) ** 2)) / math.sqrt(math.pi)
        assert np.max(np.abs(dist.density - ref)) < 1e-10
        assert dist.integral() == pytest.approx(1.0, abs=1e-6)

    def test_single_photon_closed_form(self):
        rho = fock_state(1, Truncation(10)).to_density()
        xs = np.linspace(-8, 8, 1601)
        for phase in (0.0, 0.7, math.pi / 2):
            dist = marginal(rho, phase, xs)
            ref = 2.0 * xs**2 * np.exp(-(xs**2)) / math.sqrt(math.pi)
            assert np.max(np.abs(dist.density - ref)) < 1e-10

    def test_rotated_coherent_mean(self):
        # at phase pi/2 the marginal reads the p quadrature
        rho = coherent_state(0.8j, Truncation(25)).to_density()
        xs = np.linspace(-8, 8, 1601)
        dist = marginal(rho, math.pi / 2, xs)
        mean = np.trapezoid(xs * dist.density, xs)
        assert mean == pytest.approx(math.sqrt(2.0) * 0.8, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(rho=mixed_states(max_dim=40), phase=st.floats(-2.0 * math.pi, 2.0 * math.pi),
           xs=st.lists(st.floats(-9.0, 9.0), min_size=1, max_size=40))
    def test_matches_complex_kernel_oracle(self, rho, phase, xs):
        dist = marginal(rho, phase, xs)
        assert np.max(np.abs(dist.density - kernel_marginal(rho, phase, xs))) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_orthogonalized_coherent_marginal(self, alpha):
        # the orthogonal of a coherent state has the displaced one-photon
        # density: double-humped and shifted by sqrt(2)*alpha
        from cvortho import OperatorKind, OrthogonalizerSpec, orthogonalize

        trunc = Truncation(60)
        psi = coherent_state(alpha, trunc)
        perp = orthogonalize(psi, OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi))
        xs = np.linspace(-8, 8, 1601)
        dist = marginal(perp.to_density(), 0.0, xs)
        assert np.max(np.abs(dist.density - displaced_one_photon_density(xs, alpha))) < 1e-6

    def test_wigner_slice_cross_validation(self, rng):
        # Radon consistency of the two independent formulas: the
        # Hermite-kernel marginal at phase phi must equal the conjugate
        # integral of the displaced-parity Wigner map.  Slicing along a
        # rotated direction is the same as slicing the counter-rotated
        # state along p, which keeps the sweep on a rectangular grid.
        from cvortho import DensityMatrix

        phases = [k * math.pi / 10 for k in range(10)]
        grid = PhaseGrid(-5.0, 5.0, -7.0, 7.0, 41, 141)
        xs = grid.xs()
        for phi in phases:
            rho = random_state(Truncation(10), rng, support=6).to_density()
            dist = marginal(rho, phi, xs)
            rot = np.exp(-1j * phi * np.arange(10))
            rho_rot = DensityMatrix(rot[:, None] * rho.elems * rot.conj()[None, :], rho.trunc)
            w = wigner(rho_rot, grid)
            sliced = np.trapezoid(w.values, grid.ps(), axis=1)
            assert np.max(np.abs(sliced - dist.density)) < 1e-4


class TestLossChannel:
    def test_eta_one_is_identity(self, rng):
        rho = random_state(Truncation(12), rng).to_density()
        out = apply_loss(rho, LossChannel(1.0))
        assert_allclose(out.elems, rho.elems, atol=1e-14)

    def test_single_photon_bernoulli(self):
        rho = fock_state(1, Truncation(8)).to_density()
        out = apply_loss(rho, LossChannel(0.37))
        expected = np.zeros((8, 8))
        expected[0, 0] = 0.63
        expected[1, 1] = 0.37
        assert_allclose(out.elems, expected, atol=1e-14)

    @pytest.mark.parametrize("eta", [0.25, 0.6, 0.9])
    def test_coherent_stays_coherent(self, eta):
        trunc = Truncation(30)
        rho = coherent_state(1.3, trunc).to_density()
        out = apply_loss(rho, LossChannel(eta))
        target = coherent_state(math.sqrt(eta) * 1.3, trunc)
        assert fidelity(target, out) > 1 - 1e-10

    def test_trace_and_positivity(self, rng):
        for _ in range(5):
            rho = random_state(Truncation(15), rng).to_density()
            out = apply_loss(rho, LossChannel(0.55))
            assert abs(np.trace(out.elems).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(out.elems)) > -1e-10

    def test_eta_zero_maps_to_vacuum(self, rng):
        rho = random_state(Truncation(10), rng).to_density()
        out = apply_loss(rho, LossChannel(0.0))
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.0
        assert_allclose(out.elems, expected, atol=1e-14)

    def test_wigner_minimum_rises_with_loss(self):
        from cvortho import OperatorKind, OrthogonalizerSpec, qubit_operator

        grid = PhaseGrid(-4, 4, -4, 4, 81, 81)
        trunc = Truncation(25)
        psi = coherent_state(1.0, trunc)
        spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi)
        states = [fock_state(1, trunc).to_density()] + [
            qubit_operator(spec, c, trunc).apply(psi).normalized().to_density()
            for c in (1.0, -1.0, 1j, -1j)
        ]
        for rho in states:
            minima = [
                wigner(apply_loss(rho, LossChannel(eta)), grid).values.min()
                for eta in (1.0, 0.8, 0.6, 0.4)
            ]
            assert all(m2 > m1 for m1, m2 in zip(minima, minima[1:]))

    def test_eta_range_validated(self):
        with pytest.raises(ValueError):
            LossChannel(1.2)

    @settings(max_examples=60, deadline=None)
    @given(rho=mixed_states(max_dim=20), eta1=st.floats(0.0, 1.0), eta2=st.floats(0.0, 1.0))
    def test_losses_compose(self, rho, eta1, eta2):
        # exact on the truncated space: loss only moves weight to lower photon numbers
        twice = apply_loss(apply_loss(rho, LossChannel(eta1)), LossChannel(eta2))
        once = apply_loss(rho, LossChannel(eta1 * eta2))
        assert np.max(np.abs(twice.elems - once.elems)) <= 1e-12
        for out in (twice, once):
            assert abs(np.trace(out.elems) - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(out.elems)) >= -1e-12


class TestFileFormats:
    def test_wigner_grid_round_trip(self, tmp_path, rng):
        grid = PhaseGrid(-3, 3, -2, 2, 11, 9)
        w = wigner(random_state(Truncation(8), rng, support=5).to_density(), grid)
        path = tmp_path / "map.dat"
        path.write_text(wigner_grid_text(w), encoding="utf-8")
        back = read_wigner_grid(path)
        assert back.grid == grid
        assert_allclose(back.values, w.values, rtol=1e-15)
        header = path.read_text(encoding="utf-8").splitlines()[:3]
        assert header[0].startswith("# ") and header[0].endswith(" 11")
        assert header[2] == "# convention x=(a+a†)/sqrt2"

    def test_marginal_csv(self, tmp_path):
        xs = np.linspace(-1, 1, 5)
        dist = QuadratureDistribution(0.25, xs, np.ones(5) / 2.0)
        name = marginal_filename("marginal_out", dist.phase)
        assert name == "marginal_out_phi0.2500.csv"
        (tmp_path / name).write_text(marginal_csv_text(dist), encoding="utf-8")
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 6

    @staticmethod
    def awkward_values(count):
        # -0.0, subnormals, extremes and integers stored as floats
        special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 3.0, -7.0, 2.0**53, 1.0 / 3.0, math.pi]
        return np.resize(np.array(special), count)

    def test_wigner_grid_bytes_match_per_value_format(self, tmp_path):
        grid = PhaseGrid(-1.5, 2.0, -3.0, 0.25, 7, 5)
        wmap = WignerMap(grid, self.awkward_values(35).reshape(7, 5))
        (tmp_path / "map.dat").write_text(wigner_grid_text(wmap), encoding="utf-8")
        lines = [
            f"# {grid.x_min:.17g} {grid.x_max:.17g} {grid.nx}",
            f"# {grid.p_min:.17g} {grid.p_max:.17g} {grid.np}",
            f"# convention {WIGNER_CONVENTION}",
        ]
        for k in range(grid.np):
            lines.append(" ".join(f"{v:.17g}" for v in wmap.values[:, k]))
        assert (tmp_path / "map.dat").read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_marginal_csv_bytes_match_per_value_format(self, tmp_path):
        xs = self.awkward_values(13)
        density = xs[::-1].copy()
        density[density < 0] *= -1.0  # keeps -0.0
        dist = QuadratureDistribution(0.0, xs, density)
        (tmp_path / "m.csv").write_text(marginal_csv_text(dist), encoding="utf-8")
        lines = ["x,density"] + [f"{x:.17g},{d:.17g}" for x, d in zip(dist.xs, dist.density)]
        assert (tmp_path / "m.csv").read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_samples_csv_bytes_match_per_value_format(self):
        # runs of three samples per phase; each phase comes back for a second run
        phase = np.tile(np.repeat(self.awkward_values(7), 3), 2)
        samples = QuadratureSamples(phase, self.awkward_values(phase.size)[::-1])
        want = "phase,x\n" + "".join(f"{p:.10f},{x:.17g}\n" for p, x in zip(samples.phase, samples.x))
        assert samples_csv_text(samples) == want

    def test_likelihood_csv_bytes_match_per_value_format(self):
        trace = self.awkward_values(13)
        want = "iteration,log_likelihood\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(trace))
        assert likelihood_csv_text(trace) == want

    def test_density_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            QuadratureDistribution(0.0, np.array([0.0, 1.0]), np.array([0.5, -0.1]))
