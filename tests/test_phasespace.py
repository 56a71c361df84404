import io
import math

import numpy as np
import pytest
from conftest import (
    displacement_op,
    eigvec_wigner,
    kernel_marginal,
    mixed_state_stacks,
    mixed_states,
    random_state,
    wigner_point,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvortho import (
    PhaseGrid,
    StateVector,
    Truncation,
    apply_loss,
    coherent_state,
    fidelity,
    fock_state,
    hermite_functions,
    marginal,
    wigner,
)
from cvortho.cli import DEFAULTS
from cvortho.phasespace import _matmul, _phase_matrix, npy_buffers


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
        grid = PhaseGrid(**DEFAULTS["grid"])
        w = wigner([fock_state(0, Truncation(15)).to_density()], grid)[0]
        mid = grid.nx // 2
        assert w[mid, mid] == pytest.approx(1 / math.pi, abs=1e-12)

    def test_single_photon_at_origin(self):
        grid = PhaseGrid(**DEFAULTS["grid"])
        w = wigner([fock_state(1, Truncation(15)).to_density()], grid)[0]
        mid = grid.nx // 2
        assert w[mid, mid] == pytest.approx(-1 / math.pi, abs=1e-12)

    def test_vacuum_closed_form(self):
        grid = PhaseGrid(-4, 4, -4, 4, 41, 41)
        w = wigner([fock_state(0, Truncation(10)).to_density()], grid)[0]
        xs, ps = grid.xs(), grid.ps()
        ref = np.exp(-(xs[:, None] ** 2) - ps[None, :] ** 2) / math.pi
        assert np.max(np.abs(w - ref)) < 1e-9

    def test_coherent_far_from_the_origin_closed_form(self):
        # alpha = 6 on a grid centred at its peak (6 sqrt2, 0); the Poisson tail past level 120 is below 1e-26
        centre = 6.0 * math.sqrt(2.0)
        grid = PhaseGrid(centre - 4.0, centre + 4.0, -4.0, 4.0, 41, 41)
        w = wigner([coherent_state(6.0, Truncation(120)).to_density()], grid)[0]
        ref = np.exp(-((grid.xs()[:, None] - centre) ** 2) - grid.ps()[None, :] ** 2) / math.pi
        assert np.max(np.abs(w - ref)) <= 1e-13

    def test_bounds_are_refused_where_their_sqrt2_multiples_square_past_the_float_range(self):
        # the map evaluates Hermite functions at sqrt(2) x and sqrt(2) p: the limit is sqrt(max float / 2) ~ 9.486e153
        rho = fock_state(0, Truncation(4)).to_density()
        far = wigner([rho], PhaseGrid(-9.48e153, 9.48e153, -1.0, 1.0, 2, 2))[0]
        assert far.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        message = r"^grid bounds: must be bounds whose sqrt\(2\) multiples have finite squares, got \[-1.0, 9.49e\+153"
        with pytest.raises(ValueError, match=message):
            wigner([rho], PhaseGrid(-1.0, 9.49e153, -1.0, 1.0, 2, 2))

    def test_coherent_peak_location(self):
        grid = PhaseGrid(**DEFAULTS["grid"])
        w = wigner([coherent_state(1.0, Truncation(25)).to_density()], grid)[0]
        i, j = np.unravel_index(np.argmax(w), w.shape)
        dx = (grid.x_max - grid.x_min) / (grid.nx - 1)
        assert abs(grid.xs()[i] - math.sqrt(2.0)) <= dx
        assert abs(grid.ps()[j]) <= dx

    def test_normalization(self):
        grid = PhaseGrid(**DEFAULTS["grid"])
        for state in (
            fock_state(1, Truncation(12)),
            coherent_state(2.0, Truncation(30)),
            coherent_state(1.0 + 0.5j, Truncation(30)),
        ):
            assert grid.integral(wigner([state.to_density()], grid)[0]) == pytest.approx(1.0, abs=1e-4)

    def test_result_is_a_read_only_stack_of_grid_arrays(self):
        grid = PhaseGrid(-3.0, 3.0, -2.0, 2.0, 9, 7)
        w = wigner([fock_state(n, Truncation(8)).to_density() for n in (0, 1)], grid)
        assert type(w) is np.ndarray and w.dtype == np.float64 and w.shape == (2, grid.nx, grid.np)
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0, 0] = 0.0

    @settings(max_examples=30, deadline=None)
    @given(rhos=mixed_state_stacks(max_dim=16), grid=off_centre_grids())
    def test_each_map_of_a_stack_is_the_one_density_map(self, rhos, grid):
        maps = wigner(rhos, grid)
        assert maps.shape == (len(rhos), grid.nx, grid.np)
        for rho, w in zip(rhos, maps):
            assert w.tobytes() == wigner([rho], grid)[0].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(grid=off_centre_grids(), seed=st.integers(0, 2**32 - 1), fortran=st.booleans())
    def test_grid_integral_is_the_nested_trapezoid(self, grid, seed, fortran):
        values = np.random.default_rng(seed).normal(size=(grid.nx, grid.np))
        values = np.asfortranarray(values) if fortran else values
        nested = np.trapezoid(np.trapezoid(values, grid.ps(), axis=1), grid.xs())
        assert grid.integral(values) == nested

    def test_displacement_covariance(self):
        # shift by one grid-aligned displacement: alpha = (1.0 + 0.5j)/sqrt2
        # moves the map 20 cells in x and 10 in p on the default grid
        trunc = Truncation(40)
        psi = fock_state(1, trunc)
        rho = psi.to_density()
        alpha = (1.0 + 0.5j) / math.sqrt(2.0)
        disp = displacement_op(alpha, trunc)
        rho_disp = StateVector(disp @ psi.amps, psi.trunc).normalized().to_density()
        grid = PhaseGrid(**DEFAULTS["grid"])
        w = wigner([rho], grid)[0]
        w_disp = wigner([rho_disp], grid)[0]
        assert np.max(np.abs(w_disp[20:, 10:] - w[:-20, :-10])) < 1e-9

    def test_point_evaluator_matches_sweep(self, rng):
        rho = random_state(Truncation(12), rng, support=8).to_density()
        grid = PhaseGrid(-3, 3, -3, 3, 7, 7)
        w = wigner([rho], grid)[0]
        for i in (0, 3, 5):
            for j in (1, 3, 6):
                ref = wigner_point(rho, grid.xs()[i], grid.ps()[j])
                assert w[i, j] == pytest.approx(ref, abs=1e-10)


class TestWignerContraction:
    @settings(max_examples=40, deadline=None)
    @given(rho=mixed_states(max_dim=20), grid=off_centre_grids())
    def test_matches_eigenvector_oracle_and_point_path(self, rho, grid):
        w = wigner([rho], grid)[0]
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
        w = wigner([rho], grid)[0]
        fine = np.trapezoid(w, grid.ps(), axis=1)
        coarse = np.trapezoid(w[:, ::2], grid.ps()[::2], axis=1)
        (density,) = marginal([rho], (0.0,), grid.xs())[0]
        assert np.all(np.abs(fine - density) <= np.abs(fine - coarse) + 1e-13)


class TestMarginal:
    def test_coherent_gaussian(self):
        rho = coherent_state(1.0, Truncation(30)).to_density()
        xs = np.linspace(-8, 8, 1601)
        (density,) = marginal([rho], (0.0,), xs)[0]
        ref = np.exp(-((xs - math.sqrt(2.0)) ** 2)) / math.sqrt(math.pi)
        assert np.max(np.abs(density - ref)) < 1e-10
        assert np.trapezoid(density, xs) == pytest.approx(1.0, abs=1e-6)

    def test_single_photon_closed_form(self):
        rho = fock_state(1, Truncation(10)).to_density()
        xs = np.linspace(-8, 8, 1601)
        ref = 2.0 * xs**2 * np.exp(-(xs**2)) / math.sqrt(math.pi)
        for density in marginal([rho], (0.0, 0.7, math.pi / 2), xs)[0]:
            assert np.max(np.abs(density - ref)) < 1e-10

    def test_rotated_coherent_mean(self):
        # at phase pi/2 the marginal reads the p quadrature
        rho = coherent_state(0.8j, Truncation(25)).to_density()
        xs = np.linspace(-8, 8, 1601)
        (density,) = marginal([rho], (math.pi / 2,), xs)[0]
        mean = np.trapezoid(xs * density, xs)
        assert mean == pytest.approx(math.sqrt(2.0) * 0.8, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(rho=mixed_states(max_dim=40), phase=st.floats(-2.0 * math.pi, 2.0 * math.pi),
           xs=st.lists(st.floats(-9.0, 9.0), min_size=1, max_size=40))
    def test_matches_complex_kernel_oracle(self, rho, phase, xs):
        (density,) = marginal([rho], (phase,), xs)[0]
        assert np.max(np.abs(density - kernel_marginal(rho, phase, xs))) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(rhos=mixed_state_stacks(max_dim=40), phases=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), max_size=6),
           xs=st.lists(st.floats(-9.0, 9.0), min_size=1, max_size=40))
    def test_each_row_is_the_single_phase_marginal(self, rhos, phases, xs):
        # each row of a stack of densities has the bits of its one-density, one-phase call
        stack = marginal(rhos, phases, xs)
        assert stack.shape == (len(rhos), len(phases), len(xs)) and not stack.flags.writeable
        for rho, rows in zip(rhos, stack):
            for phase, row in zip(phases, rows):
                assert row.tobytes() == marginal([rho], (phase,), xs)[0, 0].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            stack[...] = 0.0

    @settings(max_examples=25, deadline=None)
    @given(d=st.one_of(st.integers(2, 60), st.integers(290, 330)), n=st.integers(1, 900),
           phase=st.floats(-2.0 * math.pi, 2.0 * math.pi), seed=st.integers(0, 2**32 - 1))
    def test_blockwise_sums_keep_the_bits_of_the_full_product(self, d, n, phase, seed):
        # marginal sums each column block of Re(rho F) psi as soon as that block is in; the whole (d, n) product,
        # summed at once, gives the same bits, past d = 295 too, where one column block takes two gemms of rows
        rng = np.random.default_rng(seed)
        rho = random_state(Truncation(d), rng).to_density()
        xs = rng.uniform(-9.0, 9.0, n)
        herm = hermite_functions(xs, d)
        full = np.einsum("ax,ax->x", herm, _matmul(np.real(rho.elems * _phase_matrix(phase, d)), herm))
        assert marginal([rho], (phase,), xs)[0, 0].tobytes() == np.clip(full, 0.0, None).tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_orthogonalized_coherent_marginal(self, alpha):
        # the orthogonal of a coherent state has the displaced one-photon
        # density: double-humped and shifted by sqrt(2)*alpha
        from cvortho import OperatorKind, OrthogonalizerSpec, orthogonalize

        trunc = Truncation(60)
        psi = coherent_state(alpha, trunc)
        perp = orthogonalize(psi, OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi))
        xs = np.linspace(-8, 8, 1601)
        (density,) = marginal([perp.to_density()], (0.0,), xs)[0]
        assert np.max(np.abs(density - displaced_one_photon_density(xs, alpha))) < 1e-6

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
            (density,) = marginal([rho], (phi,), xs)[0]
            rot = np.exp(-1j * phi * np.arange(10))
            rho_rot = DensityMatrix(rot[:, None] * rho.elems * rot.conj()[None, :], rho.trunc)
            sliced = np.trapezoid(wigner([rho_rot], grid)[0], grid.ps(), axis=1)
            assert np.max(np.abs(sliced - density)) < 1e-4


class TestStacks:
    @pytest.mark.parametrize("call", [lambda rhos: wigner(rhos, PhaseGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)),
                                      lambda rhos: marginal(rhos, (0.0,), np.linspace(-1.0, 1.0, 3))])
    def test_densities_on_two_bases_are_refused(self, call):
        rhos = [fock_state(0, Truncation(d)).to_density() for d in (4, 4, 6)]
        with pytest.raises(ValueError, match=r"^density dims: must be one basis size, got \[4, 6\]$"):
            call(rhos)
        with pytest.raises(ValueError, match=r"^density dims: must be one basis size, got \[\]$"):
            call([])


class TestApplyLoss:
    def test_eta_one_is_identity(self, rng):
        # DensityMatrix is immutable, so the lossless channel hands back its input unchanged
        rho = random_state(Truncation(12), rng).to_density()
        assert apply_loss(rho, 1.0) is rho

    def test_single_photon_bernoulli(self):
        rho = fock_state(1, Truncation(8)).to_density()
        out = apply_loss(rho, 0.37)
        expected = np.zeros((8, 8))
        expected[0, 0] = 0.63
        expected[1, 1] = 0.37
        assert_allclose(out.elems, expected, atol=1e-14)

    @pytest.mark.parametrize("eta", [0.25, 0.6, 0.9])
    def test_coherent_stays_coherent(self, eta):
        trunc = Truncation(30)
        rho = coherent_state(1.3, trunc).to_density()
        out = apply_loss(rho, eta)
        target = coherent_state(math.sqrt(eta) * 1.3, trunc)
        assert fidelity(target, out) > 1 - 1e-10

    def test_trace_and_positivity(self, rng):
        for _ in range(5):
            rho = random_state(Truncation(15), rng).to_density()
            out = apply_loss(rho, 0.55)
            assert abs(np.trace(out.elems).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(out.elems)) > -1e-10

    def test_eta_zero_maps_to_vacuum(self, rng):
        rho = random_state(Truncation(10), rng).to_density()
        out = apply_loss(rho, 0.0)
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.0
        assert_allclose(out.elems, expected, atol=1e-14)

    def test_wigner_minimum_rises_with_loss(self):
        from conftest import qubit_operator

        from cvortho import OperatorKind, OrthogonalizerSpec

        grid = PhaseGrid(-4, 4, -4, 4, 81, 81)
        trunc = Truncation(25)
        psi = coherent_state(1.0, trunc)
        spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi)
        states = [fock_state(1, trunc).to_density()] + [
            StateVector(qubit_operator(spec, c, trunc) @ psi.amps, psi.trunc).normalized().to_density()
            for c in (1.0, -1.0, 1j, -1j)
        ]
        for rho in states:
            minima = [
                wigner([apply_loss(rho, eta)], grid)[0].min()
                for eta in (1.0, 0.8, 0.6, 0.4)
            ]
            assert all(m2 > m1 for m1, m2 in zip(minima, minima[1:]))

    @pytest.mark.parametrize("trunc", [40, 200])
    def test_matches_the_gammaln_binomials(self, trunc):
        # the log-factorial table against the scipy.special.gammaln form it replaced, on a state whose weight sits at
        # low levels, as the default runs' does; near level 1000 both forms round log i! (about 5900) to its ulp, so a
        # state there moves by up to 1e-12, and trunc 1200 (6 s per channel) would add only that
        from scipy.special import gammaln

        rho, eta, n = coherent_state(1.0, Truncation(trunc)).to_density(), 0.6, trunc
        want = np.zeros((n, n), dtype=np.complex128)
        for k in range(n):
            m = np.arange(n - k, dtype=np.float64)
            half = 0.5 * (gammaln(m + k + 1) - gammaln(m + 1) - gammaln(k + 1)) + 0.5 * m * math.log(eta)
            want[: n - k, : n - k] += np.exp(half[:, None] + half[None, :] + k * math.log1p(-eta)) * rho.elems[k:, k:]
        got = apply_loss(rho, eta).elems
        assert np.max(np.abs(got - (want + want.conj().T) / 2.0)) <= 1e-14 * np.max(np.abs(got))

    def test_eta_range_validated(self):
        rho = fock_state(1, Truncation(4)).to_density()
        with pytest.raises(ValueError, match=r"^eta: must be a number in \[0, 1\], got 1\.2$"):
            apply_loss(rho, 1.2)

    @settings(max_examples=60, deadline=None)
    @given(rho=mixed_states(max_dim=20), eta1=st.floats(0.0, 1.0), eta2=st.floats(0.0, 1.0))
    def test_losses_compose(self, rho, eta1, eta2):
        # exact on the truncated space: loss only moves weight to lower photon numbers
        twice = apply_loss(apply_loss(rho, eta1), eta2)
        once = apply_loss(rho, eta1 * eta2)
        assert np.max(np.abs(twice.elems - once.elems)) <= 1e-12
        for out in (twice, once):
            assert abs(np.trace(out.elems) - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(out.elems)) >= -1e-12


class TestFileFormats:
    @staticmethod
    def loaded(array):
        """``np.load`` of ``npy_buffers(array)`` written one after the other, whose header must say format 1.0, ``<f8``,
        C order and the array's shape."""
        data = io.BytesIO(b"".join(npy_buffers(array)))
        assert np.lib.format.read_magic(data) == (1, 0)
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(data)
        assert (dtype.str, fortran_order, shape) == ("<f8", False, array.shape)
        data.seek(0)
        return np.load(data, allow_pickle=False)

    @staticmethod
    def awkward_values(count):
        # -0.0, subnormals, extremes and integers stored as floats
        special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 3.0, -7.0, 2.0**53, 1.0 / 3.0, math.pi]
        return np.resize(np.array(special), count)

    def test_npy_buffers_keep_every_bit_of_a_grid(self, rng):
        grid = PhaseGrid(-3, 3, -2, 2, 11, 9)
        computed = wigner([random_state(Truncation(8), rng, support=5).to_density()], grid)[0]
        awkward = self.awkward_values(99).reshape(11, 9)
        # a Fortran-ordered array's file is still in C order
        for values in (computed, awkward, np.asfortranarray(awkward)):
            assert np.array_equal(self.loaded(values).view(np.int64), values.view(np.int64))

    def test_marginal_npy(self, tmp_path):
        # a state's marginals at P phases are one (P, n) file, row k the density at phase k
        xs = np.linspace(-1, 1, 5)
        (written,) = marginal([coherent_state(0.5 + 0.3j, Truncation(12)).to_density()], (0.0, 0.25, 2.0), xs)
        (tmp_path / "marginal_out.npy").write_bytes(b"".join(npy_buffers(written)))
        rows = np.load(tmp_path / "marginal_out.npy", allow_pickle=False)
        assert rows.shape == (3, 5) and np.array_equal(rows.view(np.int64), written.view(np.int64))

    def test_marginal_npy_keeps_every_bit(self):
        xs = self.awkward_values(13)
        density = xs[::-1].copy()
        density[density < 0] *= -1.0  # keeps -0.0
        back = self.loaded(np.column_stack([xs, density]))
        for column, values in zip(back.T, (xs, density)):
            # %.17g round-trips every finite double, so the file holds what a 17-digit CSV of the column parses to
            parsed = np.array([float("%.17g" % v) for v in values])
            assert np.array_equal(column.view(np.int64), values.view(np.int64))
            assert np.array_equal(column.view(np.int64), parsed.view(np.int64))
