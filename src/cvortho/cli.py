"""Config-driven experiment runner emitting reproducible data artifacts.

Subcommands: ``run <config.json>``, ``validate <config.json>``, ``verify``.
Every run writes its files plus a manifest listing each artifact with a
sha256 checksum; identical configs (including seed) produce identical
checksums.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fock import (
    ModeOperator,
    StateVector,
    Truncation,
    beam_splitter_op,
    coherent_state,
    density_to_json,
    displacement_op,
    fidelity,
    fock_state,
    inner_product,
    ladder_operators,
    project_density,
    unitarity_defect,
)
from .homodyne import (
    SamplingPlan,
    maxlik_reconstruct,
    sample_quadratures,
    uniform_phases,
    write_likelihood_csv,
    write_samples_csv,
)
from .phasespace import (
    LossChannel,
    PhaseGrid,
    apply_loss,
    marginal,
    marginal_filename,
    wigner,
    write_marginal_csv,
    write_wigner_grid,
)
from .schemes import (
    HeraldModel,
    OperatorKind,
    OrthogonalizerSpec,
    beta_for_addition_orthogonalizer,
    heralded_addition_model,
    ideal_addition_operator,
    number_scheme_model,
    orthogonal_family,
    orthogonalize,
    qubit_operator,
    theta_for_number_orthogonalizer,
    two_operator_orthogonalizer,
)

EXPERIMENTS = ("orthogonalize", "qubit_wigner", "number_scheme", "tomography", "verify")

DEFAULTS = {
    "input_state": {"kind": "coherent", "alpha": [1.0, 0.0]},
    "scheme": {"kind": "creation"},
    "route": "ideal",
    "trunc": 40,
    "eta": 1.0,
    "qubit_c": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
    "herald": {"theta": "auto", "phi": 0.0, "beta": "auto", "dim": None},
    "grid": {"x_min": -6.0, "x_max": 6.0, "p_min": -6.0, "p_max": 6.0, "nx": 241, "np": 241},
    "marginal_xs": {"x_min": -8.0, "x_max": 8.0, "n": 1601},
    "sampling": {"phases": 10, "samples_per_phase": 5000, "seed": 12345, "eta": None},
    "reconstruction": {"dim": 15, "max_iter": 2000, "tol": 1e-10},
    "output_dir": "out",
}


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, field: str) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(_is_real(v) for v in value):
        return complex(float(value[0]), float(value[1]))
    raise ValueError(f"{field}: expected a number or [re, im] pair, got {value!r}")


def _merged(config: dict) -> dict:
    out = {}
    for key, default in DEFAULTS.items():
        given = config.get(key)
        if isinstance(default, dict):
            merged = dict(default)
            if given is not None:
                merged.update(given)
            out[key] = merged
        else:
            out[key] = default if given is None else given
    out["experiment"] = _canonical_experiment(config.get("experiment"))
    return out


def _canonical_experiment(name):
    if not isinstance(name, str):
        return None
    flat = name.replace("-", "").replace("_", "").lower()
    for exp in EXPERIMENTS:
        if flat == exp.replace("_", ""):
            return exp
    return None


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_config(config: dict) -> list:
    """Range/schema report; returns one message per violated precondition.

    Never raises: a wrongly typed field gets one message and skips the range
    checks that would compare it.
    """
    if not isinstance(config, dict):
        return [f"config: must be a JSON object, got {type(config).__name__}"]
    problems = []
    for key, default in DEFAULTS.items():
        if isinstance(default, dict) and config.get(key) is not None and not isinstance(config[key], dict):
            problems.append(f"{key}: must be an object, got {config[key]!r}")
    if problems:
        return problems
    exp = _canonical_experiment(config.get("experiment"))
    if exp is None:
        problems.append(f"experiment: must be one of {EXPERIMENTS}, got {config.get('experiment')!r}")
        return problems
    cfg = _merged(config)

    if not isinstance(cfg["trunc"], int) or cfg["trunc"] < 2:
        problems.append(f"trunc: must be an integer >= 2, got {cfg['trunc']!r}")
    if not _is_real(cfg["eta"]):
        problems.append(f"eta: must be a number, got {cfg['eta']!r}")
    elif not 0.0 <= cfg["eta"] <= 1.0:
        problems.append(f"eta: must lie in [0, 1], got {cfg['eta']!r}")

    state = cfg["input_state"]
    if state.get("kind") not in ("coherent", "fock", "custom"):
        problems.append(f"input_state.kind: must be coherent, fock, or custom, got {state.get('kind')!r}")
    elif state["kind"] == "coherent":
        try:
            _as_complex(state.get("alpha", 1.0), "input_state.alpha")
        except ValueError as err:
            problems.append(str(err))
    elif state["kind"] == "fock":
        n = state.get("n", 0)
        if not isinstance(n, int) or n < 0 or (isinstance(cfg["trunc"], int) and n >= cfg["trunc"]):
            problems.append(f"input_state.n: must be an integer in 0..trunc-1, got {n!r}")
    elif state["kind"] == "custom":
        amps = state.get("amps")
        if not isinstance(amps, list) or not amps:
            problems.append("input_state.amps: custom states need a nonempty [re, im] list")

    if cfg["scheme"].get("kind") not in ("creation", "number"):
        problems.append(f"scheme.kind: must be creation or number, got {cfg['scheme'].get('kind')!r}")
    if cfg["route"] not in ("ideal", "heralded"):
        problems.append(f"route: must be ideal or heralded, got {cfg['route']!r}")

    herald = cfg["herald"]
    theta = herald.get("theta")
    if not isinstance(theta, (int, float)) and theta != "auto":
        problems.append(f"herald.theta: must be a number or 'auto', got {theta!r}")
    if exp == "number_scheme" and isinstance(theta, (int, float)):
        if abs(math.cos(theta) - math.sin(theta)) < 1e-12:
            problems.append("herald.theta: t = r is a singular configuration for the number scheme")
    if herald.get("dim") is not None and (not isinstance(herald["dim"], int) or herald["dim"] < 2):
        problems.append(f"herald.dim: must be an integer >= 2, got {herald['dim']!r}")
    if not _is_real(herald["phi"]):
        problems.append(f"herald.phi: must be a number, got {herald['phi']!r}")
    if herald["beta"] != "auto":
        try:
            _as_complex(herald["beta"], "herald.beta")
        except ValueError:
            problems.append(f"herald.beta: must be 'auto', a number or an [re, im] pair, got {herald['beta']!r}")

    grid = cfg["grid"]
    bad_grid = [f"grid.{k}: must be a number, got {grid.get(k)!r}"
                for k in ("x_min", "x_max", "p_min", "p_max") if not _is_real(grid.get(k))]
    bad_grid += [f"grid.{k}: must be an integer, got {grid.get(k)!r}"
                 for k in ("nx", "np") if not isinstance(grid.get(k), int)]
    problems.extend(bad_grid)
    if not bad_grid:
        if not (grid["x_min"] < grid["x_max"] and grid["p_min"] < grid["p_max"]):
            problems.append("grid: bounds must satisfy min < max on both axes")
        if grid["nx"] < 2 or grid["np"] < 2:
            problems.append("grid: nx and np must be >= 2")

    sampling = cfg["sampling"]
    phases = sampling["phases"]
    if isinstance(phases, int):
        if phases < 1:
            problems.append(f"sampling.phases: phase count must be >= 1, got {phases!r}")
    elif isinstance(phases, list):
        if len(phases) == 0 or len(set(phases)) != len(phases):
            problems.append("sampling.phases: explicit phases must be nonempty and distinct")
    else:
        problems.append(f"sampling.phases: must be a count or list, got {phases!r}")
    if not isinstance(sampling["samples_per_phase"], int) or sampling["samples_per_phase"] < 1:
        problems.append(f"sampling.samples_per_phase: must be an integer >= 1, got {sampling['samples_per_phase']!r}")
    if not isinstance(sampling["seed"], int) or sampling["seed"] < 0:
        problems.append(f"sampling.seed: must be a nonnegative integer, got {sampling['seed']!r}")
    eta = sampling["eta"]
    if eta is not None and not _is_real(eta):
        problems.append(f"sampling.eta: must be null or a number, got {eta!r}")
    elif eta is not None and not 0.0 <= eta <= 1.0:
        problems.append(f"sampling.eta: must lie in [0, 1], got {eta!r}")

    recon = cfg["reconstruction"]
    if not isinstance(recon["dim"], int) or not 2 <= recon["dim"] <= 30:
        problems.append(f"reconstruction.dim: must be an integer in 2..30, got {recon['dim']!r}")
    if not isinstance(recon["max_iter"], int) or recon["max_iter"] < 1:
        problems.append(f"reconstruction.max_iter: must be an integer >= 1, got {recon['max_iter']!r}")

    return problems


class _ArtifactWriter:
    """Collects emitted files and their checksums for the manifest."""

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.entries = []

    def _record(self, relpath: str, kind: str):
        digest = hashlib.sha256((self.outdir / relpath).read_bytes()).hexdigest()
        self.entries.append({"path": relpath, "sha256": digest, "kind": kind})

    def write_with(self, relpath: str, kind: str, writer):
        writer(self.outdir / relpath)
        self._record(relpath, kind)

    def write_json(self, relpath: str, obj, kind: str):
        text = json.dumps(obj, indent=2, sort_keys=True)
        (self.outdir / relpath).write_text(text + "\n", encoding="utf-8")
        self._record(relpath, kind)

    def manifest(self, config_echo: dict) -> dict:
        import scipy

        return {
            "files": sorted(self.entries, key=lambda e: e["path"]),
            "config_echo": config_echo,
            "versions": {"cvortho": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        }


def _build_input_state(cfg: dict, trunc: Truncation):
    state = cfg["input_state"]
    if state["kind"] == "coherent":
        return coherent_state(_as_complex(state.get("alpha", 1.0), "input_state.alpha"), trunc)
    if state["kind"] == "fock":
        return fock_state(int(state.get("n", 0)), trunc)
    amps = np.array([_as_complex(a, "input_state.amps") for a in state["amps"]])
    padded = np.zeros(trunc.dim, dtype=complex)
    padded[: len(amps)] = amps
    return StateVector(padded / np.linalg.norm(padded), trunc)


def _build_grid(cfg: dict) -> PhaseGrid:
    g = cfg["grid"]
    return PhaseGrid(g["x_min"], g["x_max"], g["p_min"], g["p_max"], g["nx"], g["np"])


def _marginal_axis(cfg: dict) -> np.ndarray:
    m = cfg["marginal_xs"]
    return np.linspace(m["x_min"], m["x_max"], m["n"])


def _build_plan(cfg: dict) -> SamplingPlan:
    s = cfg["sampling"]
    phases = uniform_phases(s["phases"]) if isinstance(s["phases"], int) else tuple(s["phases"])
    eta = cfg["eta"] if s["eta"] is None else s["eta"]
    return SamplingPlan(phases=phases, samples_per_phase=s["samples_per_phase"], seed=s["seed"], eta=eta)


def _herald_model(cfg: dict, spec: OrthogonalizerSpec) -> HeraldModel:
    h = cfg["herald"]
    theta = h["theta"]
    if theta == "auto":
        if spec.kind is OperatorKind.NUMBER:
            theta = theta_for_number_orthogonalizer(float(complex(spec.mean_value).real))
        else:
            # balanced splitter: the tuned ancilla amplitude stays at |<a_dag>|
            theta = math.pi / 4
    beta = h["beta"]
    if beta == "auto":
        beta = beta_for_addition_orthogonalizer(complex(spec.mean_value), theta) if spec.kind is OperatorKind.CREATION else 0.0
    else:
        beta = _as_complex(beta, "herald.beta")
    herald_trunc = Truncation(h["dim"], tail_tol=5e-3) if h["dim"] is not None else None
    return HeraldModel(beta=beta, theta=float(theta), phi=float(h["phi"]), herald_trunc=herald_trunc)


def _spec_kind(cfg: dict) -> OperatorKind:
    return OperatorKind.CREATION if cfg["scheme"]["kind"] == "creation" else OperatorKind.NUMBER


def _complex_pair(z: complex):
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# experiments


def _run_orthogonalize(cfg: dict, writer: _ArtifactWriter) -> dict:
    trunc = Truncation(cfg["trunc"])
    psi = _build_input_state(cfg, trunc)
    spec = OrthogonalizerSpec.from_state(_spec_kind(cfg), psi)

    report = {"scheme": cfg["scheme"]["kind"], "route": cfg["route"]}
    if cfg["route"] == "heralded":
        if spec.kind is not OperatorKind.CREATION:
            raise ValueError("the heralded route of this experiment uses the creation scheme")
        model = _herald_model(cfg, spec)
        out, prob = heralded_addition_model(psi, model)
        report["success_probability"] = prob
        report["beam_splitter_theta"] = model.theta
        report["ancilla_beta"] = _complex_pair(complex(model.beta))
    else:
        out = orthogonalize(psi, spec)

    overlap = abs(inner_product(psi, out))
    report["overlap_with_input"] = overlap
    if cfg["input_state"]["kind"] == "coherent" and spec.kind is OperatorKind.CREATION:
        alpha = _as_complex(cfg["input_state"].get("alpha", 1.0), "input_state.alpha")
        ref = displacement_op(alpha, trunc).apply(fock_state(1, trunc))
        report["displaced_fock_fidelity"] = fidelity(out, ref)

    xs = _marginal_axis(cfg)
    eta = cfg["eta"]
    for label, state in (("input", psi), ("output", out)):
        rho = state.to_density()
        if eta < 1.0:
            rho = apply_loss(rho, LossChannel(eta))
        dist = marginal(rho, 0.0, xs)
        writer.write_with(marginal_filename(f"marginal_{label}", 0.0), "marginal-csv",
                          lambda p, d=dist: write_marginal_csv(d, p))
        writer.write_json(f"density_{label}.json", density_to_json(rho), "density-json")
    writer.write_json("report.json", report, "report-json")
    return report


def _run_qubit_wigner(cfg: dict, writer: _ArtifactWriter) -> dict:
    trunc = Truncation(cfg["trunc"])
    psi = _build_input_state(cfg, trunc)
    spec = OrthogonalizerSpec.from_state(_spec_kind(cfg), psi)
    grid = _build_grid(cfg)
    eta = cfg["eta"]

    c_values = cfg["qubit_c"]
    if not isinstance(c_values, list) or (c_values and isinstance(c_values[0], (int, float))):
        c_values = [c_values]
    entries = []
    for i, raw_c in enumerate(c_values):
        c = _as_complex(raw_c, "qubit_c")
        out = qubit_operator(spec, c, trunc).apply(psi).normalized()
        rho = out.to_density()
        if eta < 1.0:
            rho = apply_loss(rho, LossChannel(eta))
        wmap = wigner(rho, grid)
        name = f"wigner_{i:02d}.dat"
        writer.write_with(name, "wigner-grid", lambda p, w=wmap: write_wigner_grid(w, p))
        writer.write_json(f"density_{i:02d}.json", density_to_json(rho), "density-json")
        entries.append({
            "file": name,
            "c": _complex_pair(c),
            "wigner_min": float(wmap.values.min()),
            "wigner_max": float(wmap.values.max()),
            "grid_integral": wmap.integral(),
        })
    report = {"eta": eta, "maps": entries}
    writer.write_json("report.json", report, "report-json")
    return report


def _run_number_scheme(cfg: dict, writer: _ArtifactWriter) -> dict:
    trunc = Truncation(cfg["trunc"])
    psi = _build_input_state(cfg, trunc)
    spec = OrthogonalizerSpec.from_state(OperatorKind.NUMBER, psi)
    model = _herald_model(cfg, spec)
    out, prob = number_scheme_model(psi, model)

    report = {
        "success_probability": prob,
        "overlap_with_input": abs(inner_product(psi, out)),
        "beam_splitter_theta": model.theta,
        "mean_photon_number": float(complex(spec.mean_value).real),
    }

    grid = _build_grid(cfg)
    xs = _marginal_axis(cfg)
    plan = _build_plan(cfg)
    eta = cfg["eta"]
    for label, state in (("input", psi), ("output", out)):
        rho = state.to_density()
        if eta < 1.0:
            rho = apply_loss(rho, LossChannel(eta))
        for phase in plan.phases:
            dist = marginal(rho, phase, xs)
            writer.write_with(marginal_filename(f"marginal_{label}", phase), "marginal-csv",
                              lambda p, d=dist: write_marginal_csv(d, p))
        wmap = wigner(rho, grid)
        writer.write_with(f"wigner_{label}.dat", "wigner-grid",
                          lambda p, w=wmap: write_wigner_grid(w, p))
        writer.write_json(f"density_{label}.json", density_to_json(rho), "density-json")
    writer.write_json("report.json", report, "report-json")
    return report


def _run_tomography(cfg: dict, writer: _ArtifactWriter) -> dict:
    trunc = Truncation(cfg["trunc"])
    psi = _build_input_state(cfg, trunc)
    transform = cfg.get("transform", "none")
    if transform == "orthogonalize":
        spec = OrthogonalizerSpec.from_state(_spec_kind(cfg), psi)
        psi = orthogonalize(psi, spec)
    elif transform == "qubit":
        spec = OrthogonalizerSpec.from_state(_spec_kind(cfg), psi)
        c = _as_complex(cfg.get("qubit_c_single", [1.0, 0.0]), "qubit_c_single")
        psi = qubit_operator(spec, c, trunc).apply(psi).normalized()
    elif transform != "none":
        raise ValueError(f"transform: must be none, orthogonalize, or qubit, got {transform!r}")

    rho_true = psi.to_density()
    plan = _build_plan(cfg)
    samples = sample_quadratures(rho_true, plan)
    writer.write_with("samples.csv", "samples-csv", lambda p: write_samples_csv(samples, p))

    recon = cfg["reconstruction"]
    result = maxlik_reconstruct(samples, dim=recon["dim"], max_iter=recon["max_iter"], tol=recon["tol"])
    writer.write_json("rho_hat.json", density_to_json(result.rho_hat), "density-json")
    writer.write_with("likelihood.csv", "likelihood-csv",
                      lambda p: write_likelihood_csv(result.log_likelihood_trace, p))

    target = project_density(rho_true, Truncation(recon["dim"]))
    report = {
        "iterations_used": result.iterations_used,
        "stop_reason": result.stop_reason,
        "eta": plan.eta,
        "fidelity_vs_true": fidelity(result.rho_hat, target),
        "final_log_likelihood": float(result.log_likelihood_trace[-1]),
    }
    writer.write_json("rho_true.json", density_to_json(target), "density-json")
    if plan.eta < 1.0:
        lossy = apply_loss(target, LossChannel(plan.eta))
        report["fidelity_vs_lossy_true"] = fidelity(result.rho_hat, lossy)
        writer.write_json("rho_lossy.json", density_to_json(lossy), "density-json")
    writer.write_json("report.json", report, "report-json")
    return report


def _run_verify(cfg: dict, writer: _ArtifactWriter) -> dict:
    results = run_battery()
    ok = all(passed for _, passed, _ in results)
    report = {
        "all_passed": ok,
        "checks": [{"name": name, "passed": passed, "detail": detail} for name, passed, detail in results],
    }
    writer.write_json("report.json", report, "report-json")
    if not ok:
        failed = ", ".join(name for name, passed, _ in results if not passed)
        raise RuntimeError(f"verification battery failed: {failed}")
    return report


def run(config: dict, output_dir=None) -> dict:
    """Execute the configured experiment and write its artifact manifest."""
    problems = validate_config(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    cfg = _merged(config)
    outdir = Path(output_dir if output_dir is not None else cfg["output_dir"])
    writer = _ArtifactWriter(outdir)

    runner = {
        "orthogonalize": _run_orthogonalize,
        "qubit_wigner": _run_qubit_wigner,
        "number_scheme": _run_number_scheme,
        "tomography": _run_tomography,
        "verify": _run_verify,
    }[cfg["experiment"]]
    runner(cfg, writer)

    manifest = writer.manifest(config_echo=config)
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


# ---------------------------------------------------------------------------
# built-in verification battery


def _check(predicate: bool, detail: str) -> tuple:
    return bool(predicate), detail


def _coherent_amplitude(alpha: complex, n: int) -> complex:
    """<n|alpha> without truncation: exp(-|alpha|^2/2) alpha^n / sqrt(n!)."""
    return math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / math.sqrt(math.factorial(n))


def run_battery() -> list:
    """Deterministic self-tests over key invariants; (name, passed, detail) rows."""
    checks = []
    rng = np.random.default_rng(20260808)

    trunc = Truncation(30)
    a, a_dag, n_op = ladder_operators(trunc)

    comm = (a @ a_dag - a_dag @ a).elems[:-1, :-1]
    defect = float(np.max(np.abs(comm - np.eye(trunc.dim - 1))))
    checks.append(("commutator_identity", *_check(defect < 1e-12, f"defect {defect:.2e}")))

    alpha = 1.0
    coh = coherent_state(alpha, trunc)
    disp = displacement_op(alpha, trunc).apply(fock_state(0, trunc))
    f = fidelity(coh, disp)
    checks.append(("displacement_vs_closed_form", *_check(f > 1 - 1e-10, f"fidelity {f:.12f}")))

    round_trip = displacement_op(1.0, trunc) @ displacement_op(-1.0, trunc)
    dev = float(np.max(np.abs(round_trip.elems[:11, :11] - np.eye(11))))
    checks.append(("displacement_round_trip", *_check(dev < 1e-8, f"deviation {dev:.2e}")))

    theta = math.pi / 8
    t, r = math.cos(theta), math.sin(theta)
    beta = 1.0
    blocks = [beam_splitter_op(theta, total) for total in range(21)]
    coh_dev = 0.0
    for total, block in enumerate(blocks):
        # B (|0> x |beta>) = |-r beta> x |t beta>, sector by sector on Poisson amplitudes
        lhs = block[:, total] * _coherent_amplitude(beta, total)
        rhs = [_coherent_amplitude(-r * beta, total - k) * _coherent_amplitude(t * beta, k)
               for k in range(total + 1)]
        coh_dev = max(coh_dev, float(np.max(np.abs(lhs - rhs))))
    dev_single = float(np.max(np.abs(blocks[1] - np.array([[t, -r], [r, t]]))))
    checks.append(("beam_splitter_identities",
                   *_check(coh_dev < 1e-12 and dev_single < 1e-12,
                           f"coherent sector deviation {coh_dev:.2e}, one-photon block deviation {dev_single:.2e}")))

    orth = max(float(np.max(np.abs(b.T @ b - np.eye(b.shape[0])))) for b in blocks)
    checks.append(("beam_splitter_sectors",
                   *_check(orth < 1e-12, f"worst orthogonality defect {orth:.2e} over sectors N <= 20")))

    worst = 0.0
    for _ in range(20):
        amps = np.zeros(trunc.dim, dtype=complex)
        amps[:20] = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi = StateVector(amps, trunc).normalized()
        for kind in (OperatorKind.CREATION, OperatorKind.NUMBER):
            spec = OrthogonalizerSpec.from_state(kind, psi)
            out = orthogonalize(psi, spec)
            worst = max(worst, abs(inner_product(psi, out)))
        c1 = ModeOperator(rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)), trunc)
        c2 = ModeOperator(rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)), trunc)
        op = two_operator_orthogonalizer(c1, c2, psi)
        vec = op.apply(psi)
        worst = max(worst, abs(inner_product(psi, vec)) / vec.norm)
    checks.append(("orthogonality_battery", *_check(worst < 1e-10, f"worst overlap {worst:.2e}")))

    big = Truncation(40)
    coh1 = coherent_state(1.0, big)
    perp = orthogonalize(coh1, OrthogonalizerSpec.from_state(OperatorKind.CREATION, coh1))
    ref = displacement_op(1.0, big).apply(fock_state(1, big))
    f_df = fidelity(perp, ref)
    checks.append(("displaced_fock_identity", *_check(f_df > 1 - 1e-8, f"fidelity {f_df:.10f}")))

    fam = orthogonal_family(coh1, OrthogonalizerSpec.from_state(OperatorKind.CREATION, coh1), 3)
    members = [coh1] + fam
    worst_fam = max(
        abs(inner_product(members[i], members[j]))
        for i in range(4) for j in range(i + 1, 4)
    )
    checks.append(("orthogonal_family", *_check(worst_fam < 1e-8, f"worst overlap {worst_fam:.2e}")))

    psi_in = coherent_state(0.5, big)
    model = HeraldModel(beta=1.0, theta=math.pi / 8)
    out, prob = heralded_addition_model(psi_in, model)
    ideal = ideal_addition_operator(model, big).apply(psi_in).normalized()
    f_model = fidelity(out, ideal)
    checks.append(("heralded_addition_equivalence", *_check(f_model > 1 - 1e-8, f"fidelity {f_model:.10f}")))

    spec_n = OrthogonalizerSpec.from_state(OperatorKind.NUMBER, coh1)
    theta_n = theta_for_number_orthogonalizer(float(complex(spec_n.mean_value).real))
    out_n, _ = number_scheme_model(coh1, HeraldModel(beta=0.0, theta=theta_n))
    overlap_n = abs(inner_product(coh1, out_n))
    checks.append(("number_scheme_orthogonalizer", *_check(overlap_n < 1e-8, f"overlap {overlap_n:.2e}")))

    from .phasespace import default_grid

    grid = default_grid()
    w_vac = wigner(fock_state(0, Truncation(20)).to_density(), grid)
    w_one = wigner(fock_state(1, Truncation(20)).to_density(), grid)
    mid = grid.nx // 2
    origin_ok = (abs(w_vac.values[mid, mid] - 1 / math.pi) < 1e-9
                 and abs(w_one.values[mid, mid] + 1 / math.pi) < 1e-9)
    norm_ok = abs(w_vac.integral() - 1.0) < 1e-4 and abs(w_one.integral() - 1.0) < 1e-4
    checks.append(("wigner_origin_and_norm",
                   *_check(origin_ok and norm_ok,
                           f"W_vac(0,0)={w_vac.values[mid, mid]:.9f}, integrals "
                           f"{w_vac.integral():.6f}/{w_one.integral():.6f}")))

    rho_coh = coherent_state(1.0, Truncation(30)).to_density()
    lossy = apply_loss(rho_coh, LossChannel(0.6))
    target = coherent_state(math.sqrt(0.6), Truncation(30))
    f_loss = fidelity(target, lossy)
    trace_dev = abs(float(np.real(np.trace(lossy.elems))) - 1.0)
    checks.append(("loss_channel", *_check(f_loss > 1 - 1e-10 and trace_dev < 1e-12,
                                           f"fidelity {f_loss:.12f}, trace dev {trace_dev:.2e}")))

    xs = np.linspace(-8, 8, 1601)
    dist = marginal(rho_coh, 0.0, xs)
    ref_dens = np.exp(-((xs - math.sqrt(2)) ** 2)) / math.sqrt(math.pi)
    dev_marg = float(np.max(np.abs(dist.density - ref_dens)))
    checks.append(("coherent_marginal_closed_form", *_check(dev_marg < 1e-10, f"sup dev {dev_marg:.2e}")))

    plan = SamplingPlan(phases=uniform_phases(4), samples_per_phase=500, seed=7)
    s1 = sample_quadratures(rho_coh, plan)
    s2 = sample_quadratures(rho_coh, plan)
    checks.append(("sampler_determinism", *_check(s1 == s2, f"{len(s1)} samples")))

    vac_rho = fock_state(0, Truncation(12)).to_density()
    plan_vac = SamplingPlan(phases=uniform_phases(6), samples_per_phase=2000, seed=11)
    res = maxlik_reconstruct(sample_quadratures(vac_rho, plan_vac), dim=8, max_iter=200, tol=1e-9)
    f_tomo = fidelity(res.rho_hat, project_density(vac_rho, Truncation(8)))
    mono = bool(np.all(np.diff(res.log_likelihood_trace) > -1e-9))
    checks.append(("tomography_round_trip", *_check(f_tomo > 0.99 and mono,
                                                    f"fidelity {f_tomo:.4f}, monotone {mono}")))

    d_unit = unitarity_defect(displacement_op(0.5, Truncation(40)))
    checks.append(("displacement_unitarity_diagnostic", *_check(d_unit < 1e-6, f"defect {d_unit:.2e}")))

    return checks


def _print_battery(results) -> int:
    width = max(len(name) for name, _, _ in results)
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name.ljust(width)}  {detail}")
    failed = sum(1 for _, passed, _ in results if not passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cvortho", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output-dir", type=Path, default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_val = sub.add_parser("validate", help="check a config without executing it")
    p_val.add_argument("config", type=Path)

    sub.add_parser("verify", help="run the built-in invariant battery")

    args = parser.parse_args(argv)

    if args.command == "verify":
        return _print_battery(run_battery())

    try:
        config = load_config(args.config)
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"config is not valid JSON: {err}", file=sys.stderr)
        return 2

    if args.command == "validate":
        problems = validate_config(config)
        if problems:
            for p in problems:
                print(p)
            return 1
        print("OK")
        return 0

    if args.seed is not None:
        config.setdefault("sampling", {})["seed"] = args.seed
    problems = validate_config(config)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 2
    try:
        manifest = run(config, output_dir=args.output_dir)
    except Exception as err:  # propagate module errors with context
        print(f"run failed: {err}", file=sys.stderr)
        return 1
    outdir = args.output_dir if args.output_dir is not None else _merged(config)["output_dir"]
    print(f"wrote {len(manifest['files'])} artifacts to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
