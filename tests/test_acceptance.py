"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The tomography round trip dominates the runtime.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest
from conftest import displacement_op, qubit_operator, random_state

from cvortho import (
    OperatorKind,
    OrthogonalizerSpec,
    PhaseGrid,
    StateVector,
    Truncation,
    apply_loss,
    coherent_state,
    fidelity,
    fock_state,
    heralded_addition_model,
    ideal_addition_operator,
    ideal_number_operator,
    inner_product,
    maxlik_reconstruct,
    number_scheme_model,
    orthogonal_family,
    orthogonalize,
    project_density,
    sample_quadratures,
    theta_for_number_orthogonalizer,
    two_operator_orthogonalizer,
    uniform_phases,
    wigner,
)
from cvortho.cli import main as cli_main
from cvortho.cli import run as cli_run


class Stopwatch:
    def __init__(self, limit_s):
        self.limit = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(n, text, watch):
    print(f"\nACCEPTANCE {n} PASS: {text} [{watch.elapsed:.1f}s]")
    assert watch.elapsed < watch.limit, f"criterion {n} exceeded {watch.limit}s"


def test_criterion_1_orthogonality_battery(rng):
    with Stopwatch(30) as watch:
        trunc = Truncation(40)
        worst = 0.0
        for _ in range(100):
            psi = random_state(trunc, rng, support=20)
            for kind in (OperatorKind.CREATION, OperatorKind.NUMBER):
                out = orthogonalize(psi, OrthogonalizerSpec.from_state(kind, psi))
                worst = max(worst, abs(inner_product(psi, out)))
            custom = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
            spec = OrthogonalizerSpec.from_state(OperatorKind.CUSTOM, psi, operator=custom)
            out = orthogonalize(psi, spec)
            worst = max(worst, abs(inner_product(psi, out)))
            c1 = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
            c2 = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
            vec = StateVector(two_operator_orthogonalizer(c1, c2, psi) @ psi.amps, psi.trunc)
            worst = max(worst, abs(inner_product(psi, vec)) / vec.norm)
        assert worst < 1e-10
        with pytest.raises(ValueError, match=r"^the input is an eigenstate of the operator with eigenvalue "):
            orthogonalize(fock_state(3, trunc), OrthogonalizerSpec(OperatorKind.NUMBER, 3.0))
        proj = np.zeros((40, 40), dtype=complex)
        proj[2, 2] = 1.0
        with pytest.raises(ValueError, match=r"^the input is an eigenstate of the operator with eigenvalue "):
            orthogonalize(
                fock_state(2, trunc),
                OrthogonalizerSpec(OperatorKind.CUSTOM, 1.0, operator=proj),
            )
    report(1, f"orthogonality battery, worst overlap {worst:.2e}", watch)


def test_criterion_2_displaced_fock_and_marginals(tmp_path):
    with Stopwatch(10) as watch:
        worst_fid_gap = 0.0
        worst_sup = 0.0
        for alpha in (0.5, 1.0, 2.0):
            trunc = Truncation(60)
            psi = coherent_state(alpha, trunc)
            perp = orthogonalize(psi, OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi))
            target = StateVector(displacement_op(alpha, trunc) @ fock_state(1, trunc).amps, trunc)
            worst_fid_gap = max(worst_fid_gap, 1.0 - fidelity(perp, target))

            outdir = tmp_path / f"alpha_{alpha}"
            cli_run(
                {
                    "experiment": "orthogonalize",
                    "input_state": {"kind": "coherent", "alpha": [alpha, 0.0]},
                    "trunc": 60,
                },
                output_dir=outdir,
            )
            axis = json.loads((outdir / "report.json").read_text())["marginal_xs"]
            xs = np.linspace(axis["x_min"], axis["x_max"], axis["n"])
            dens = np.load(outdir / "marginal_output.npy", allow_pickle=False)[0]
            u = xs - math.sqrt(2.0) * alpha
            closed = 2.0 * u**2 * np.exp(-(u**2)) / math.sqrt(math.pi)
            worst_sup = max(worst_sup, float(np.max(np.abs(dens - closed))))
        assert worst_fid_gap < 1e-8
        assert worst_sup < 1e-6
    report(2, f"displaced-Fock identity, fid gap {worst_fid_gap:.1e}, marginal sup {worst_sup:.1e}", watch)


def test_criterion_3_physical_model_equivalence():
    with Stopwatch(60) as watch:
        trunc = Truncation(40)
        plus2 = StateVector((fock_state(0, trunc).amps + fock_state(2, trunc).amps) / math.sqrt(2), trunc)
        states = [coherent_state(0.5, trunc), coherent_state(1.0, trunc), fock_state(1, trunc), plus2]
        worst_fid_gap = 0.0
        worst_spread = 0.0
        for theta in (math.pi / 16, math.pi / 8, math.pi / 4):
            for beta in (0.5, 1.0, 2.0 * cmath.exp(1j * math.pi / 3)):
                ideal = ideal_addition_operator(beta, theta, trunc)
                ratios = []
                for psi in states:
                    out, prob = heralded_addition_model(psi, beta, theta)
                    target = StateVector(ideal @ psi.amps, psi.trunc)
                    worst_fid_gap = max(worst_fid_gap, 1.0 - fidelity(out, target.normalized()))
                    ratios.append(prob / target.norm**2)
                worst_spread = max(worst_spread, (max(ratios) - min(ratios)) / min(ratios))
        assert worst_fid_gap < 1e-8
        assert worst_spread < 1e-6
    report(3, f"heralded addition equals ideal, fid gap {worst_fid_gap:.1e}, ratio spread {worst_spread:.1e}", watch)


def test_criterion_4_number_scheme():
    with Stopwatch(10) as watch:
        trunc = Truncation(40)
        psi = coherent_state(1.0, trunc)
        theta = theta_for_number_orthogonalizer(1.0)
        out, _ = number_scheme_model(psi, theta)
        overlap = abs(inner_product(psi, out))
        assert overlap < 1e-8

        small = Truncation(12)
        ideal = ideal_number_operator(math.pi / 8, math.pi / 3, small)
        recovered = np.zeros((12, 12), dtype=complex)
        for n in range(11):
            cond, prob = number_scheme_model(fock_state(n, small), math.pi / 8, math.pi / 3)
            recovered[:, n] = cond.amps * math.sqrt(prob)
        elementwise = float(np.max(np.abs(recovered[:11, :11] - ideal[:11, :11])))
        assert elementwise < 1e-10
    report(4, f"number scheme, overlap {overlap:.1e}, operator deviation {elementwise:.1e}", watch)


def test_criterion_5_wigner_correctness():
    with Stopwatch(60) as watch:
        grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 241, 241)
        mid = 120
        w_vac = wigner([fock_state(0, Truncation(20)).to_density()], grid)[0]
        w_one = wigner([fock_state(1, Truncation(20)).to_density()], grid)[0]
        assert abs(w_vac[mid, mid] - 1.0 / math.pi) < 1e-9
        assert abs(w_one[mid, mid] + 1.0 / math.pi) < 1e-9
        norm_dev = max(abs(grid.integral(w_vac) - 1.0), abs(grid.integral(w_one) - 1.0))
        assert norm_dev < 1e-4

        # displacement covariance on grid-aligned shifts: alpha = (1 + 0.5i)/sqrt2
        # moves the map by 20 cells in x and 10 in p
        trunc = Truncation(40)
        psi = fock_state(1, trunc)
        alpha = (1.0 + 0.5j) / math.sqrt(2.0)
        shifted = StateVector(displacement_op(alpha, trunc) @ psi.amps, psi.trunc).normalized()
        w0 = wigner([psi.to_density()], grid)[0]
        w1 = wigner([shifted.to_density()], grid)[0]
        cov_dev = float(np.max(np.abs(w1[20:, 10:] - w0[:-20, :-10])))
        assert cov_dev < 1e-9
    report(5, f"Wigner origin values, normalization {norm_dev:.1e}, covariance {cov_dev:.1e}", watch)


def test_criterion_6_qubit_wigner_maps():
    with Stopwatch(120) as watch:
        grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 241, 241)
        trunc = Truncation(40)
        psi = coherent_state(1.0, trunc)
        spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi)
        disp = displacement_op(1.0, trunc)
        worst_pointwise = 0.0
        worst_norm = 0.0
        for c in (1.0, -1.0, 1j, -1j):
            state = StateVector(qubit_operator(spec, c, trunc) @ psi.amps, psi.trunc).normalized()
            ref_amps = (c * fock_state(0, trunc).amps + fock_state(1, trunc).amps) / math.sqrt(2.0)
            ref = StateVector(disp @ ref_amps, trunc)
            w_state = wigner([state.to_density()], grid)[0]
            w_ref = wigner([ref.to_density()], grid)[0]
            worst_pointwise = max(worst_pointwise, float(np.max(np.abs(w_state - w_ref))))
            lossy = wigner([apply_loss(state.to_density(), 0.6)], grid)[0]
            assert lossy.min() > w_state.min()
            assert lossy.min() < 0.0 or lossy.min() == pytest.approx(0.0, abs=1e-6)
            worst_norm = max(worst_norm, abs(grid.integral(lossy) - 1.0))
        assert worst_pointwise < 1e-9
        assert worst_norm < 1e-4
    report(6, f"qubit Wigner maps, pointwise {worst_pointwise:.1e}, lossy norm dev {worst_norm:.1e}", watch)


def test_criterion_7_orthogonal_family():
    with Stopwatch(10) as watch:
        trunc = Truncation(60)
        psi = coherent_state(1.0, trunc)
        fam = orthogonal_family(psi, OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi), 4)
        members = [psi] + fam
        worst = max(
            abs(inner_product(members[i], members[j]))
            for i in range(len(members))
            for j in range(i + 1, len(members))
        )
        assert worst < 1e-8
    report(7, f"orthogonal family k=4, worst pairwise overlap {worst:.2e}", watch)


def test_criterion_8_tomography_round_trip():
    trunc = Truncation(30)
    coh = coherent_state(1.0, trunc)
    spec = OrthogonalizerSpec.from_state(OperatorKind.CREATION, coh)
    states = {
        "vacuum": fock_state(0, trunc),
        "coherent": coh,
        "orthogonal": orthogonalize(coh, spec),
        "qubit": StateVector(qubit_operator(spec, 1.0, trunc) @ coh.amps, coh.trunc).normalized(),
    }
    recon_trunc = Truncation(15)
    lines = []
    for name, psi in states.items():
        with Stopwatch(300) as watch:
            rho = psi.to_density()
            samples = sample_quadratures(rho, uniform_phases(10), 50_000, 101)
            res = maxlik_reconstruct(samples, dim=15, max_iter=300, tol=1e-9)
            fid = fidelity(res.rho_hat, project_density(rho, recon_trunc))
            assert np.all(np.diff(res.log_likelihood_trace) > -1e-9)
            assert fid >= 0.99
        assert watch.elapsed < 300
        lines.append(f"{name} fid={fid:.4f} ({res.iterations_used} iters, {watch.elapsed:.0f}s)")

    with Stopwatch(300) as watch:
        rho_q = states["qubit"].to_density()
        samples = sample_quadratures(apply_loss(rho_q, 0.6), uniform_phases(10), 50_000, 202)
        res = maxlik_reconstruct(samples, dim=15, max_iter=300, tol=1e-9)
        lossy_target = project_density(apply_loss(rho_q, 0.6), recon_trunc)  # the sampled state
        fid_lossy = fidelity(res.rho_hat, lossy_target)
        assert np.all(np.diff(res.log_likelihood_trace) > -1e-9)
        assert fid_lossy >= 0.98
    lines.append(f"uncorrected eta=0.6 fid={fid_lossy:.4f}")
    print("\nACCEPTANCE 8 PASS: tomography round trip; " + "; ".join(lines))


def test_criterion_9_cli_determinism_and_verify(tmp_path, capsys):
    config = {
        "experiment": "tomography",
        "input_state": {"kind": "coherent", "alpha": [1.0, 0.0]},
        "trunc": 20,
        "sampling": {"phases": 4, "samples_per_phase": 2000, "seed": 77},
        "reconstruction": {"dim": 10, "max_iter": 60, "tol": 1e-9},
    }
    with Stopwatch(300) as watch:
        m1 = cli_run(config, output_dir=tmp_path / "a")
        m2 = cli_run(config, output_dir=tmp_path / "b")
        assert m1["files"] == m2["files"]
        assert cli_main(["verify"]) == 0
    capsys.readouterr()
    report(9, "identical manifests for identical config+seed; verify exits 0", watch)
