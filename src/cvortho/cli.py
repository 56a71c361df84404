"""Config-driven experiment runner emitting reproducible data artifacts.

Subcommands: ``run <config.json>``, ``validate <config.json>``, ``verify``.
Every run writes its files plus a manifest listing each artifact with a
sha256 checksum.  Identical configs (including seed) produce identical
checksums at a fixed BLAS thread count; across thread counts the Wigner
grid files and the ``qubit_wigner`` report differ in the last bits.
"""

from __future__ import annotations

import argparse
import difflib
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
    density_json_text,
    displacement_op,
    fidelity,
    fock_state,
    inner_product,
    ladder_operators,
    project_density,
    unitarity_defect,
)
from .homodyne import (
    _MAX_RECON_DIM,
    SamplingPlan,
    likelihood_csv_text,
    maxlik_reconstruct,
    sample_quadratures,
    samples_csv_text,
    uniform_phases,
)
from .phasespace import (
    LossChannel,
    PhaseGrid,
    apply_loss,
    marginal,
    marginal_csv_text,
    marginal_filename,
    wigner,
    wigner_grid_text,
)
from .schemes import (
    _HERALD_TAIL_TOL,
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


def _is_finite(value) -> bool:
    """A real number (not a bool) that converts to a finite float (no nan, inf or huge int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_complex(value) -> bool:
    """A finite number or a finite ``[re, im]`` pair."""
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    return _is_finite(value) or (pair and all(_is_finite(v) for v in value))


def _as_complex(value) -> complex:
    return complex(*value) if isinstance(value, (list, tuple)) else complex(value)


class _ArtifactWriter:
    """Collects emitted files and their checksums for the manifest."""

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self.entries = {}

    def write_text(self, relpath: str, kind: str, text: str):
        """Write ``text`` as UTF-8 and checksum the bytes written; the only way an artifact reaches disk."""
        if relpath in self.entries:
            raise ValueError(f"artifact {relpath!r} was already written in this run")
        data = text.encode("utf-8")
        if not self.entries:  # made here, so a run that fails before its first artifact leaves no directory
            self.outdir.mkdir(parents=True, exist_ok=True)
        (self.outdir / relpath).write_bytes(data)
        self.entries[relpath] = {"path": relpath, "sha256": hashlib.sha256(data).hexdigest(), "kind": kind}

    def write_json(self, relpath: str, obj, kind: str):
        self.write_text(relpath, kind, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def manifest(self, config_echo: dict) -> dict:
        import scipy

        return {
            "files": [self.entries[path] for path in sorted(self.entries)],
            "config_echo": config_echo,
            "versions": {"cvortho": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        }


def _prepared(cfg: dict, kind: OperatorKind | None = None):
    """The truncation, the input state and its orthogonalizer spec (``kind`` defaults to ``scheme.kind``)."""
    trunc = Truncation(cfg["trunc"])
    state = cfg["input_state"]
    if state["kind"] == "coherent":
        psi = coherent_state(_as_complex(state["alpha"]), trunc)
    elif state["kind"] == "fock":
        psi = fock_state(state["n"], trunc)
    else:
        padded = np.zeros(trunc.dim, dtype=complex)
        padded[: len(state["amps"])] = [_as_complex(a) for a in state["amps"]]
        psi = StateVector(padded / np.linalg.norm(padded), trunc)
    return trunc, psi, OrthogonalizerSpec.from_state(kind or OperatorKind(cfg["scheme"]["kind"]), psi)


def _build_grid(cfg: dict) -> PhaseGrid:
    g = cfg["grid"]
    return PhaseGrid(g["x_min"], g["x_max"], g["p_min"], g["p_max"], g["nx"], g["np"])


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
        beta = _as_complex(beta)
    herald_trunc = Truncation(h["dim"], tail_tol=_HERALD_TAIL_TOL) if h["dim"] is not None else None
    return HeraldModel(beta=beta, theta=float(theta), phi=float(h["phi"]), herald_trunc=herald_trunc)


def _complex_pair(z: complex):
    return [float(z.real), float(z.imag)]


def _write_state(writer: _ArtifactWriter, cfg: dict, label: str, state: StateVector, phases=(), grid=None):
    """Write ``state`` after the configured loss, each file named with ``label``.

    Writes its marginals at ``phases``, its Wigner map on ``grid`` (the map
    is returned) and its density JSON.
    """
    rho = state.to_density()
    if cfg["eta"] < 1.0:
        rho = apply_loss(rho, LossChannel(cfg["eta"]))
    m = cfg["marginal_xs"]
    xs = np.linspace(m["x_min"], m["x_max"], m["n"])
    for phase in phases:
        writer.write_text(marginal_filename(f"marginal_{label}", phase), "marginal-csv",
                          marginal_csv_text(marginal(rho, phase, xs)))
    wmap = None
    if grid is not None:
        wmap = wigner(rho, grid)
        writer.write_text(f"wigner_{label}.dat", "wigner-grid", wigner_grid_text(wmap))
    writer.write_text(f"density_{label}.json", "density-json", density_json_text(rho))
    return wmap


# ---------------------------------------------------------------------------
# experiments


def _run_orthogonalize(cfg: dict, writer: _ArtifactWriter) -> dict:
    trunc, psi, spec = _prepared(cfg)

    report = {"scheme": cfg["scheme"]["kind"], "route": cfg["route"]}
    if cfg["route"] == "heralded":
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
        alpha = _as_complex(cfg["input_state"]["alpha"])
        ref = displacement_op(alpha, trunc).apply(fock_state(1, trunc))
        report["displaced_fock_fidelity"] = fidelity(out, ref)

    for label, state in (("input", psi), ("output", out)):
        _write_state(writer, cfg, label, state, phases=(0.0,))
    writer.write_json("report.json", report, "report-json")
    return report


def _run_qubit_wigner(cfg: dict, writer: _ArtifactWriter) -> dict:
    trunc, psi, spec = _prepared(cfg)
    grid = _build_grid(cfg)

    c_values = [cfg["qubit_c"]] if _is_complex(cfg["qubit_c"]) else cfg["qubit_c"]
    entries = []
    for i, raw_c in enumerate(c_values):
        c = _as_complex(raw_c)
        out = qubit_operator(spec, c, trunc).apply(psi).normalized()
        wmap = _write_state(writer, cfg, f"{i:02d}", out, grid=grid)
        entries.append({
            "file": f"wigner_{i:02d}.dat",
            "c": _complex_pair(c),
            "wigner_min": float(wmap.values.min()),
            "wigner_max": float(wmap.values.max()),
            "grid_integral": wmap.integral(),
        })
    report = {"eta": cfg["eta"], "maps": entries}
    writer.write_json("report.json", report, "report-json")
    return report


def _run_number_scheme(cfg: dict, writer: _ArtifactWriter) -> dict:
    _, psi, spec = _prepared(cfg, OperatorKind.NUMBER)
    model = _herald_model(cfg, spec)
    out, prob = number_scheme_model(psi, model)

    report = {
        "success_probability": prob,
        "overlap_with_input": abs(inner_product(psi, out)),
        "beam_splitter_theta": model.theta,
        "mean_photon_number": float(complex(spec.mean_value).real),
    }

    grid = _build_grid(cfg)
    phases = _build_plan(cfg).phases
    for label, state in (("input", psi), ("output", out)):
        _write_state(writer, cfg, label, state, phases=phases, grid=grid)
    writer.write_json("report.json", report, "report-json")
    return report


def _run_tomography(cfg: dict, writer: _ArtifactWriter) -> dict:
    trunc, psi, spec = _prepared(cfg)
    if cfg["transform"] == "orthogonalize":
        psi = orthogonalize(psi, spec)
    elif cfg["transform"] == "qubit":
        psi = qubit_operator(spec, _as_complex(cfg["qubit_c_single"]), trunc).apply(psi).normalized()

    rho_true = psi.to_density()
    plan = _build_plan(cfg)
    samples = sample_quadratures(rho_true, plan)
    writer.write_text("samples.csv", "samples-csv", samples_csv_text(samples))

    recon = cfg["reconstruction"]
    result = maxlik_reconstruct(samples, dim=recon["dim"], max_iter=recon["max_iter"], tol=recon["tol"])
    writer.write_text("rho_hat.json", "density-json", density_json_text(result.rho_hat))
    writer.write_text("likelihood.csv", "likelihood-csv", likelihood_csv_text(result.log_likelihood_trace))

    target = project_density(rho_true, Truncation(recon["dim"]))
    report = {
        "iterations_used": result.iterations_used,
        "stop_reason": result.stop_reason,
        "eta": plan.eta,
        "fidelity_vs_true": fidelity(result.rho_hat, target),
        "final_log_likelihood": float(result.log_likelihood_trace[-1]),
    }
    writer.write_text("rho_true.json", "density-json", density_json_text(target))
    if plan.eta < 1.0:
        lossy = apply_loss(target, LossChannel(plan.eta))
        report["fidelity_vs_lossy_true"] = fidelity(result.rho_hat, lossy)
        writer.write_text("rho_lossy.json", "density-json", density_json_text(lossy))
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


_RUNNERS = {
    "orthogonalize": _run_orthogonalize,
    "qubit_wigner": _run_qubit_wigner,
    "number_scheme": _run_number_scheme,
    "tomography": _run_tomography,
    "verify": _run_verify,
}
EXPERIMENTS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# config schema


DEFAULTS = {
    "input_state": {"kind": "coherent", "alpha": [1.0, 0.0], "n": 0, "amps": None},
    "scheme": {"kind": "creation"},
    "route": "ideal",
    "trunc": 40,
    "eta": 1.0,
    "qubit_c": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
    "qubit_c_single": [1.0, 0.0],
    "transform": "none",
    "herald": {"theta": "auto", "phi": 0.0, "beta": "auto", "dim": None},
    "grid": {"x_min": -6.0, "x_max": 6.0, "p_min": -6.0, "p_max": 6.0, "nx": 241, "np": 241},
    "marginal_xs": {"x_min": -8.0, "x_max": 8.0, "n": 1601},
    "sampling": {"phases": 10, "samples_per_phase": 5000, "seed": 12345, "eta": None},
    "reconstruction": {"dim": 15, "max_iter": 2000, "tol": 1e-10},
    "output_dir": "out",
}


def _one_of(*names):
    return (lambda v: isinstance(v, str) and v in names), "one of " + ", ".join(names)


def _int_at_least(low: int):
    return (lambda v: _is_int(v) and v >= low), f"an integer >= {low}"


def _or(special, entry):
    check, description = entry
    return (lambda v: v == special or check(v)), f"{json.dumps(special)} or {description}"


def _nonempty_list_of(check, value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(check(v) for v in value)


_FINITE = _is_finite, "a finite number"
_FRACTION = (lambda v: _is_finite(v) and 0.0 <= v <= 1.0), "a number in [0, 1]"
_COMPLEX = _is_complex, "a finite number or [re, im] pair"
# the most uniform_phases with distinct marginal file names: pi/count > 1e-4 up to 31415, and 31416 still differ
_MAX_NAMED_PHASE_COUNT = 31416

# Every config leaf, by dotted path: (check, description).  A leaf that fails
# its check is reported as "<path>: must be <description>, got <value>".
# ``experiment`` is the one leaf without a default.
SCHEMA = {
    "experiment": ((lambda v: _canonical_experiment(v) is not None), "one of " + ", ".join(EXPERIMENTS)),
    "input_state.kind": _one_of("coherent", "fock", "custom"),
    "input_state.alpha": _COMPLEX,
    "input_state.n": _int_at_least(0),
    "input_state.amps": _or(None, ((lambda v: _nonempty_list_of(_is_complex, v) and any(map(_as_complex, v))),
                                   "a nonempty list of numbers or [re, im] pairs, not all zero")),
    "scheme.kind": _one_of("creation", "number"),
    "route": _one_of("ideal", "heralded"),
    "trunc": _int_at_least(2),
    "eta": _FRACTION,
    "qubit_c": ((lambda v: _is_complex(v) or _nonempty_list_of(_is_complex, v)),
                "a finite number, an [re, im] pair or a nonempty list of them"),
    "qubit_c_single": _COMPLEX,
    "transform": _one_of("none", "orthogonalize", "qubit"),
    "herald.theta": _or("auto", _FINITE),
    "herald.phi": _FINITE,
    "herald.beta": _or("auto", _COMPLEX),
    "herald.dim": _or(None, _int_at_least(2)),
    "grid.x_min": _FINITE,
    "grid.x_max": _FINITE,
    "grid.p_min": _FINITE,
    "grid.p_max": _FINITE,
    "grid.nx": _int_at_least(2),
    "grid.np": _int_at_least(2),
    "marginal_xs.x_min": _FINITE,
    "marginal_xs.x_max": _FINITE,
    "marginal_xs.n": _int_at_least(2),
    # each phase names its marginal files, so the list's phases must differ in those names and as numbers
    "sampling.phases": ((lambda v: (_is_int(v) and v >= 1)
                         or (_nonempty_list_of(_is_finite, v) and len({float(p) for p in v}) == len(v)
                             and len({marginal_filename("", p) for p in v}) == len(v))),
                        "a count >= 1 or a nonempty list of finite numbers, distinct as numbers and to 4 decimals"),
    "sampling.samples_per_phase": _int_at_least(1),
    "sampling.seed": _int_at_least(0),
    "sampling.eta": _or(None, _FRACTION),
    "reconstruction.dim": ((lambda v: _is_int(v) and 2 <= v <= _MAX_RECON_DIM), f"an integer in 2..{_MAX_RECON_DIM}"),
    "reconstruction.max_iter": _int_at_least(1),
    "reconstruction.tol": ((lambda v: _is_finite(v) and v >= 0), "a finite number >= 0"),
    "output_dir": ((lambda v: isinstance(v, str) and v != ""), "a nonempty path string"),
}


def _merged(config: dict) -> dict:
    """``config`` over DEFAULTS; a section's omitted keys keep their defaults."""
    out = {key: {**default, **config.get(key, {})} if isinstance(default, dict) else config.get(key, default)
           for key, default in DEFAULTS.items()}
    out["experiment"] = config.get("experiment")
    return out


def _canonical_experiment(name):
    if not isinstance(name, str):
        return None
    flat = name.replace("-", "").replace("_", "").lower()
    for exp in EXPERIMENTS:
        if flat == exp.replace("_", ""):
            return exp
    return None


def _unknown_key(section: str, key, known) -> str:
    prefix = section + "." if section else ""
    near = difflib.get_close_matches(str(key), known, n=1)
    hint = f" (did you mean {prefix + near[0]!r}?)" if near else ""
    return f"{prefix}{key}: unknown key{hint}"


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_config(config: dict) -> list:
    """Schema and range report; returns one message per violated precondition.

    Checks each SCHEMA leaf (an omitted leaf takes its DEFAULTS value), then
    the rules that relate several leaves, each skipped when a leaf it reads
    is already reported, and names every key outside the schema with the
    nearest known one.  Never raises.
    """
    if not isinstance(config, dict):
        return [f"config: must be a JSON object, got {type(config).__name__}"]
    broken = [key for key, default in DEFAULTS.items()
              if isinstance(default, dict) and not isinstance(config.get(key, {}), dict)]
    problems = [f"{key}: must be an object, got {config[key]!r}" for key in broken]
    cfg = _merged({key: value for key, value in config.items() if key not in broken})

    known, bad = {}, {path for path in SCHEMA if path.partition(".")[0] in broken}
    for path, (check, description) in SCHEMA.items():
        section, _, key = path.partition(".")
        known.setdefault(section, []).append(key)
        value = cfg[section][key] if key else cfg[section]
        if path not in bad and not check(value):
            problems.append(f"{path}: must be {description}, got {value!r}")
            bad.add(path)

    def clean(*paths):
        return bad.isdisjoint(paths)

    state = cfg["input_state"]
    if clean("input_state.kind", "input_state.n", "trunc") and state["kind"] == "fock" and state["n"] >= cfg["trunc"]:
        problems.append(f"input_state.n: must be an integer in 0..trunc-1, got {state['n']!r}")
    if (clean("input_state.kind", "input_state.amps", "trunc") and state["kind"] == "custom"
            and not 1 <= len(state["amps"] or ()) <= cfg["trunc"]):
        problems.append(f"input_state.amps: a custom state needs 1..trunc amplitudes, got {state['amps']!r}")
    for section, axis in (("grid", "x"), ("grid", "p"), ("marginal_xs", "x")):
        low, high = f"{axis}_min", f"{axis}_max"
        if clean(f"{section}.{low}", f"{section}.{high}") and not cfg[section][low] < cfg[section][high]:
            problems.append(f"{section}: bounds must satisfy {low} < {high}")
    exp = _canonical_experiment(cfg["experiment"])
    theta = cfg["herald"]["theta"]
    if (clean("herald.theta") and exp == "number_scheme" and theta != "auto"
            and abs(math.cos(theta) - math.sin(theta)) < 1e-12):
        problems.append("herald.theta: t = r is a singular configuration for the number scheme")
    if (clean("route", "scheme.kind") and exp == "orthogonalize" and cfg["route"] == "heralded"
            and cfg["scheme"]["kind"] == "number"):
        problems.append("route: heralded orthogonalize needs scheme.kind creation (see the number_scheme experiment)")
    count = cfg["sampling"]["phases"]
    if clean("sampling.phases") and exp == "number_scheme" and _is_int(count) and count > _MAX_NAMED_PHASE_COUNT:
        problems.append(f"sampling.phases: must be at most {_MAX_NAMED_PHASE_COUNT} for number_scheme, "
                        f"whose marginal file names give each phase to 4 decimals, got {count!r}")
    recon_dim = cfg["reconstruction"]["dim"]
    if clean("reconstruction.dim", "trunc") and exp == "tomography" and recon_dim > cfg["trunc"]:
        problems.append(f"reconstruction.dim: must be at most trunc ({cfg['trunc']}) for tomography, got {recon_dim!r}")

    for key, value in config.items():
        if key not in known:
            problems.append(_unknown_key("", key, known))
        elif key not in broken and isinstance(DEFAULTS.get(key), dict):
            problems.extend(_unknown_key(key, sub, known[key]) for sub in value if sub not in known[key])
    return problems


def run(config: dict, output_dir=None) -> dict:
    """Execute the configured experiment and write its artifact manifest."""
    problems = validate_config(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    return _execute(config, output_dir)


def _execute(config: dict, output_dir=None) -> dict:
    """``run`` for a config that ``validate_config`` has passed."""
    cfg = _merged(config)
    outdir = Path(output_dir if output_dir is not None else cfg["output_dir"])
    writer = _ArtifactWriter(outdir)
    _RUNNERS[_canonical_experiment(cfg["experiment"])](cfg, writer)

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

    # a config or sampling section that is not an object keeps the seed out and fails validation
    if args.seed is not None and isinstance(config, dict) and isinstance(config.get("sampling", {}), dict):
        config.setdefault("sampling", {})["seed"] = args.seed
    problems = validate_config(config)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 2
    try:
        manifest = _execute(config, output_dir=args.output_dir)
    except Exception as err:  # propagate module errors with context
        print(f"run failed: {err}", file=sys.stderr)
        return 1
    outdir = args.output_dir if args.output_dir is not None else _merged(config)["output_dir"]
    print(f"wrote {len(manifest['files'])} artifacts to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
