"""Config-driven experiment runner emitting reproducible data artifacts.

Subcommands: ``run <config.json> [--output-dir DIR]``, ``validate <config.json>``,
``verify``.  ``validate`` prepares the run's states as the run does, so a
config that validates does not fail on its physics in the run.  Every run
writes its files into DIR (``out`` by default) plus a manifest listing each
artifact with a sha256 checksum.  Every artifact is
UTF-8 text except the ``.npy`` arrays of little-endian float64: the Wigner
grids, of shape ``(nx, np)`` on the ``grid`` of the run's ``report.json``,
the marginals, one file per state of shape ``(P, n)``, a density row for
each of the report's ``phases`` on its ``marginal_xs`` points, the
tomography samples, ``(K, 2)`` with columns phase and x, and the likelihood
trace, ``(k, 2)`` with columns iteration and log-likelihood.
Identical configs (including seed) give identical bytes at any BLAS thread
count on one machine and numpy.  The manifest's ``versions`` records the numpy
version, which writes each ``.npy`` header, the BLAS, its thread variables
(a record only: no byte depends on them) and the platform.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, homodyne
from .fock import (
    DensityMatrix,
    StateVector,
    Truncation,
    TruncationError,
    beam_splitter_op,
    coherent_state,
    density_json_text,
    fidelity,
    fock_state,
    inner_product,
    ladder_operators,
    project_density,
)
from .homodyne import (
    maxlik_reconstruct,
    sample_quadratures,
    uniform_phases,
)
from .phasespace import (
    PhaseGrid,
    _ETA,
    _SQUARABLE,
    _WIGNER_BOUNDS,
    apply_loss,
    hermite_functions,
    marginal,
    npy_buffers,
    wigner,
)
from .schemes import (
    OperatorKind,
    OrthogonalizerSpec,
    beta_for_addition_orthogonalizer,
    heralded_addition_model,
    ideal_addition_operator,
    ideal_number_operator,
    number_scheme_model,
    orthogonal_family,
    orthogonalize,
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

    def write(self, relpath: str, kind: str, content: str | tuple):
        """Write ``content``, text as UTF-8 or a tuple of buffers one after another, and checksum the bytes written;
        the only way an artifact reaches disk.  A buffer is hashed and written where it lies, never joined."""
        if relpath in self.entries:
            raise ValueError(f"artifact {relpath!r} was already written in this run")
        if not self.entries:  # made here, so a run that fails before its first artifact leaves no directory
            self.outdir.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        with open(self.outdir / relpath, "wb") as file:
            for part in (content.encode("utf-8"),) if isinstance(content, str) else content:
                file.write(part)
                digest.update(part)
        self.entries[relpath] = {"path": relpath, "sha256": digest.hexdigest(), "kind": kind}

    def write_json(self, relpath: str, obj, kind: str):
        self.write(relpath, kind, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def manifest(self, config_echo: dict) -> dict:
        blas = "{name} {version}".format_map(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # looked up: os.environ reads slowly
        return {
            "files": [self.entries[path] for path in sorted(self.entries)],
            "config_echo": config_echo,
            "versions": {"cvortho": __version__, "numpy": np.__version__, "blas": blas,
                         "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
                         "blas_threads": {name: os.environ[name] for name in threads if name in os.environ}},
        }


def _input(cfg: dict) -> StateVector:
    """The input state."""
    trunc = Truncation(cfg["trunc"])
    state = cfg["input_state"]
    if state["kind"] == "coherent":
        return coherent_state(_as_complex(state["alpha"]), trunc)
    if state["kind"] == "fock":
        return fock_state(state["n"], trunc)
    padded = np.zeros(trunc.dim, dtype=complex)
    padded[: len(state["amps"])] = [_as_complex(a) for a in state["amps"]]
    # first scaled exactly, by the power of two that brings the largest part into [0.5, 1), so that the norm neither
    # overflows nor underflows
    parts = padded.view(np.float64)
    np.ldexp(parts, -np.frexp(np.max(np.abs(parts)))[1], out=parts)
    return StateVector(padded / np.linalg.norm(padded), trunc)


def _phases(cfg: dict) -> tuple:
    count = cfg["sampling"]["phases"]
    return uniform_phases(count) if isinstance(count, int) else tuple(count)


_INPUT_LEAF = {"coherent": "input_state.alpha", "fock": "input_state.n", "custom": "input_state.amps"}


def _stage(leaf: str, call, *args):
    """``call(*args)``, one stage of a run's preparation, with a ValueError it raises (the base of every library
    error) raised again as ``<leaf>: <library text>``.  The library's own argument name (``n``, ``theta``,
    ``trunc.dim``) gives way to the leaf, and a tail-guard TruncationError after the input stage names ``trunc``."""
    try:
        return call(*args)
    except ValueError as err:
        if isinstance(err, TruncationError) and err.suggested_dim is not None and leaf not in _INPUT_LEAF.values():
            leaf = "trunc"
        name, must, rule = str(err).partition(": must be ")
        raise ValueError(f"{leaf}: must be {rule}" if must and " " not in name else f"{leaf}: {err}") from err


def _transformed(cfg: dict, psi: StateVector, spec: OrthogonalizerSpec, report: dict) -> StateVector:
    """``psi`` under the orthogonalizer of ``spec`` on the configured route, the one branch on ``route``.

    The ``number_scheme`` experiment is the number scheme's heralded route.  A
    heralded route writes its herald weight (the squared norm of the heralded
    signal before normalization, not a probability), beam-splitter angle and,
    for the creation scheme, ancilla amplitude into ``report``.  Its stage
    names ``herald.theta`` with auto beta or for the number scheme, else
    ``herald.beta``.
    """
    if cfg["experiment"] != "number_scheme" and cfg["route"] == "ideal":
        return _stage("scheme.kind", orthogonalize, psi, spec)
    h, creation = cfg["herald"], spec.kind is OperatorKind.CREATION
    theta = h["theta"]
    if theta == "auto":  # the creation scheme's balanced splitter keeps the tuned ancilla amplitude at |<a_dag>|
        theta = math.pi / 4 if creation else theta_for_number_orthogonalizer(float(complex(spec.mean_value).real))
    report["beam_splitter_theta"] = float(theta)
    if not creation:  # the number scheme has no ancilla
        out, report["herald_weight"] = _stage("herald.theta", number_scheme_model, psi, theta, float(h["phi"]))
        return out
    if h["beta"] != "auto":
        leaf, beta = "herald.beta", _as_complex(h["beta"])
    else:  # the tuned amplitude is cot(theta) <a_dag>
        leaf = "herald.theta"
        beta = _stage(leaf, beta_for_addition_orthogonalizer, complex(spec.mean_value), theta)
    report["ancilla_beta"] = _complex_pair(beta)
    out, report["herald_weight"] = _stage(leaf, heralded_addition_model, psi, beta, theta, h["dim"])
    return out


def _prepare(cfg: dict) -> dict:
    """A run's first stage, preparation: vectors and a few d x d matrices, by name, and the ``report`` entries so far.

    The ``states`` to write are the input and its output, or a qubit per ``qubit_c``; tomography's are the
    ``detected`` state, the projected truth ``target`` and, below eta = 1, its ``lossy`` projection.  Each library
    call is a ``_stage`` under its leaf: the input kind's, ``scheme.kind``, ``qubit_c`` or ``qubit_c_single`` for a
    transform, ``_transformed``'s herald leaf and ``reconstruction.dim`` for the projection.
    """
    experiment, report = cfg["experiment"], {}
    prepared = {"report": report}
    if experiment == "verify":
        return prepared
    psi = _stage(_INPUT_LEAF[cfg["input_state"]["kind"]], _input, cfg)
    if experiment == "qubit_wigner":
        spec = OrthogonalizerSpec.from_state(OperatorKind(cfg["scheme"]["kind"]), psi)
        given = cfg["qubit_c"]
        cs = prepared["cs"] = [_as_complex(c) for c in ([given] if _is_complex(given) else given)]
        prepared["states"] = {f"{i:02d}": _stage("qubit_c", orthogonalize, psi, spec, c) for i, c in enumerate(cs)}
    elif experiment == "tomography":
        if cfg["transform"] != "none":
            qubit = cfg["transform"] == "qubit"
            spec = OrthogonalizerSpec.from_state(OperatorKind(cfg["scheme"]["kind"]), psi)
            c = _as_complex(cfg["qubit_c_single"]) if qubit else 0.0
            psi = _stage("qubit_c_single" if qubit else "scheme.kind", orthogonalize, psi, spec, c)
        rho_true, dim = psi.to_density(), Truncation(cfg["reconstruction"]["dim"])
        detected = prepared["detected"] = apply_loss(rho_true, cfg["eta"])
        prepared["target"] = _stage("reconstruction.dim", project_density, rho_true, dim)
        # the share of the state that the target keeps, before project_density renormalizes it
        report["target_mass"] = float(np.trace(rho_true.elems[: dim.dim, : dim.dim]).real)
        if cfg["eta"] < 1.0:
            prepared["lossy"] = _stage("reconstruction.dim", project_density, detected, dim)
    else:  # orthogonalize and number_scheme: the input and its orthogonal, on the configured route
        if experiment == "number_scheme":
            spec = OrthogonalizerSpec.from_state(OperatorKind.NUMBER, psi)
            report["mean_photon_number"] = float(complex(spec.mean_value).real)
        else:
            kind = OperatorKind.CREATION if cfg["route"] == "heralded" else OperatorKind(cfg["scheme"]["kind"])
            spec = OrthogonalizerSpec.from_state(kind, psi)
            report.update(scheme=spec.kind.value, route=cfg["route"])
        out = _transformed(cfg, psi, spec, report)
        report["overlap_with_input"] = abs(inner_product(psi, out))
        prepared["states"] = {"input": psi, "output": out}
    return prepared


def _complex_pair(z: complex):
    return [float(z.real), float(z.imag)]


def _write_state(writer: _ArtifactWriter, cfg: dict, states: dict, phases=(), grid=None, report=None):
    """Write ``states`` (label -> state, on one basis) after the configured loss, each file named with its label:
    the (P, n) marginals at ``phases``, Wigner map on ``grid`` and density JSON, through one ``marginal`` and one
    ``wigner`` call.  With ``phases``, ``report`` gets the marginals' axes, ``marginal_xs`` and ``phases``, and
    ``marginal_mass``, each row's trapezoid integral by label.  Returns the maps (None without ``grid``).
    """
    rhos = [apply_loss(state.to_density(), cfg["eta"]) for state in states.values()]
    if phases:
        m = report["marginal_xs"] = dict(cfg["marginal_xs"])
        xs = np.linspace(m["x_min"], m["x_max"], m["n"])
        report["phases"], report["marginal_mass"] = list(phases), {}
        for label, rows in zip(states, marginal(rhos, phases, xs)):
            writer.write(f"marginal_{label}.npy", "marginal-npy", npy_buffers(rows))
            report["marginal_mass"][label] = np.trapezoid(rows, xs, axis=-1).tolist()
    maps = None if grid is None else wigner(rhos, grid)
    for s, (label, rho) in enumerate(zip(states, rhos)):
        if maps is not None:
            writer.write(f"wigner_{label}.npy", "wigner-grid", npy_buffers(maps[s]))
        writer.write(f"density_{label}.json", "density-json", density_json_text(rho))
    return maps


# ---------------------------------------------------------------------------
# experiments


def _run_orthogonalize(cfg: dict, prepared: dict, writer: _ArtifactWriter) -> dict:
    report, (psi, out) = prepared["report"], prepared["states"].values()
    if cfg["input_state"]["kind"] == "coherent" and report["scheme"] == OperatorKind.CREATION.value:
        # D(alpha)|1> = D(alpha) a_dag |0> = (a_dag - conj(alpha)) |alpha>, from the coherent input already built
        raised = ladder_operators(psi.trunc)[1] @ psi.amps
        ref = StateVector(raised - np.conj(_as_complex(cfg["input_state"]["alpha"])) * psi.amps, psi.trunc)
        report["displaced_fock_fidelity"] = fidelity(out, ref.normalized())

    _write_state(writer, cfg, prepared["states"], phases=(0.0,), report=report)
    return report


def _run_qubit_wigner(cfg: dict, prepared: dict, writer: _ArtifactWriter) -> dict:
    grid = PhaseGrid(**cfg["grid"])
    maps = _write_state(writer, cfg, prepared["states"], grid=grid)
    entries = [{"file": f"wigner_{i:02d}.npy", "c": _complex_pair(c), "wigner_min": float(wmap.min()),
                "wigner_max": float(wmap.max()), "grid_integral": grid.integral(wmap)}
               for i, (c, wmap) in enumerate(zip(prepared["cs"], maps))]
    return {"eta": cfg["eta"], "grid": dataclasses.asdict(grid), "maps": entries}


def _run_number_scheme(cfg: dict, prepared: dict, writer: _ArtifactWriter) -> dict:
    grid = PhaseGrid(**cfg["grid"])
    report = {**prepared["report"], "grid": dataclasses.asdict(grid)}
    _write_state(writer, cfg, prepared["states"], _phases(cfg), grid, report)
    return report


def _run_tomography(cfg: dict, prepared: dict, writer: _ArtifactWriter) -> dict:
    s = cfg["sampling"]
    samples = sample_quadratures(prepared["detected"], _phases(cfg), s["samples_per_phase"], s["seed"])
    writer.write("samples.npy", "samples-npy", npy_buffers(samples))

    result = maxlik_reconstruct(samples, **cfg["reconstruction"])  # dim, max_iter and tol
    writer.write("rho_hat.json", "density-json", density_json_text(result.rho_hat))
    trace = result.log_likelihood_trace
    writer.write("likelihood.npy", "likelihood-npy", npy_buffers(np.column_stack([np.arange(trace.size), trace])))

    report = {
        **prepared["report"],
        "iterations_used": result.iterations_used,
        "stop_reason": result.stop_reason,
        "loglik_gap": result.loglik_gap,
        "cell_width": result.cell_width,
        "eta": cfg["eta"],
        "fidelity_vs_true": fidelity(result.rho_hat, prepared["target"]),
        "final_log_likelihood": float(result.log_likelihood_trace[-1]),
    }
    writer.write("rho_true.json", "density-json", density_json_text(prepared["target"]))
    if "lossy" in prepared:
        report["fidelity_vs_lossy_true"] = fidelity(result.rho_hat, prepared["lossy"])
        writer.write("rho_lossy.json", "density-json", density_json_text(prepared["lossy"]))
    return report


def _run_verify(cfg: dict, prepared: dict, writer: _ArtifactWriter) -> dict:
    results = run_battery()
    ok = all(passed for _, passed, _ in results)
    report = {
        "all_passed": ok,
        "checks": [{"name": name, "passed": passed, "detail": detail} for name, passed, detail in results],
    }
    if not ok:
        writer.write_json("report.json", report, "report-json")  # a failed battery still leaves its report
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


def _one_of(*names):
    return (lambda v: isinstance(v, str) and v in names), "one of " + ", ".join(names)


def _guarded(guard, rule):
    """``rule``, a library's (check, description), with its check run only on values that pass the JSON type ``guard``."""
    check, description = rule
    return (lambda v: guard(v) and check(v)), description


def _or(special, entry):
    check, description = entry
    return (lambda v: v == special or check(v)), f"{json.dumps(special)} or {description}"


def _nonempty_list_of(check, value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(check(v) for v in value)


_FINITE = _is_finite, "a finite number"
_COMPLEX = _is_complex, "a finite number or [re, im] pair"
_PHASE_LIST = _guarded(lambda v: isinstance(v, list) and all(map(_is_finite, v)), homodyne._PHASES)

# Every config leaf, by dotted path: (default, check, description); a range rule's pair is the library owner's, behind a
# JSON type guard where one is needed.  A leaf that fails its check is reported as "<path>: must be <description>, got
# <value>".  ``experiment`` is the one leaf without a default.
SCHEMA = {
    "experiment": (None, *_one_of(*EXPERIMENTS)),
    "input_state.kind": ("coherent", *_one_of("coherent", "fock", "custom")),
    "input_state.alpha": ([1.0, 0.0], *_COMPLEX),
    "input_state.n": (0, _is_int, "an integer"),  # fock_state's range for it depends on trunc: see _prepare
    "input_state.amps": (None, *_or(None, ((lambda v: _nonempty_list_of(_is_complex, v) and any(map(_as_complex, v))),
                                           "a nonempty list of numbers or [re, im] pairs, not all zero"))),
    "scheme.kind": ("creation", *_one_of("creation", "number")),
    "route": ("ideal", *_one_of("ideal", "heralded")),
    "trunc": (40, *Truncation.DIM),
    "eta": (1.0, *_guarded(_is_finite, _ETA)),
    "qubit_c": ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                (lambda v: _is_complex(v) or _nonempty_list_of(_is_complex, v)),
                "a finite number, an [re, im] pair or a nonempty list of them"),
    "qubit_c_single": ([1.0, 0.0], *_COMPLEX),
    "transform": ("none", *_one_of("none", "orthogonalize", "qubit")),
    "herald.theta": ("auto", *_or("auto", _FINITE)),
    "herald.phi": (0.0, *_FINITE),
    "herald.beta": ("auto", *_or("auto", _COMPLEX)),
    "herald.dim": (None, *_or(None, Truncation.DIM)),
    "grid.x_min": (-6.0, *_FINITE),
    "grid.x_max": (6.0, *_FINITE),
    "grid.p_min": (-6.0, *_FINITE),
    "grid.p_max": (6.0, *_FINITE),
    "grid.nx": (241, *PhaseGrid.SIZE),
    "grid.np": (241, *PhaseGrid.SIZE),
    "marginal_xs.x_min": (-8.0, *_FINITE),
    "marginal_xs.x_max": (8.0, *_FINITE),
    "marginal_xs.n": (1601, *PhaseGrid.SIZE),
    "sampling.phases": (10, (lambda v: homodyne._PHASE_COUNT[0](v) or _PHASE_LIST[0](v)),
                        f"{homodyne._PHASE_COUNT[1]} or {_PHASE_LIST[1]}"),
    "sampling.samples_per_phase": (5000, *homodyne._SAMPLES),
    "sampling.seed": (12345, *homodyne._SEED),
    "reconstruction.dim": (15, *homodyne._RECON_DIM),
    "reconstruction.max_iter": (2000, *homodyne._MAX_ITER),
    "reconstruction.tol": (1e-10, (lambda v: _is_finite(v) and v >= 0), "a finite number >= 0"),
}


_TRANSFORMED = {"none": "plain", "orthogonalize": "orthogonalized", "qubit": "qubit"}
# The SCHEMA leaves each run reads (a section for all its leaves); a run reading input_state.kind reads its kind's row.
READS = {run: frozenset(p for p in SCHEMA if {p, p.partition(".")[0]} & set(names.split())) for run, names in {
    "ideal orthogonalize": "input_state.kind scheme route trunc eta marginal_xs",
    "heralded orthogonalize": "input_state.kind route trunc eta marginal_xs herald.theta herald.beta herald.dim",
    "qubit_wigner": "input_state.kind scheme trunc eta qubit_c grid",
    "number_scheme": "input_state.kind trunc eta herald.theta herald.phi grid marginal_xs sampling.phases",
    "plain tomography": "input_state.kind trunc eta transform sampling reconstruction",
    "orthogonalized tomography": "input_state.kind scheme trunc eta transform sampling reconstruction",
    "qubit tomography": "input_state.kind scheme trunc eta transform qubit_c_single sampling reconstruction",
    "verify": "",
    **{f"a {kind} input": leaf for kind, leaf in _INPUT_LEAF.items()},
}.items()}


def _reads(cfg: dict):
    """The run of ``cfg`` and the leaves it reads: experiment, its READS row and, with input_state.kind, the kind's.

    ``orthogonalize`` is split by route and ``tomography`` by transform."""
    run = {"orthogonalize": f"{cfg['route']} orthogonalize",
           "tomography": f"{_TRANSFORMED[cfg['transform']]} tomography"}.get(cfg["experiment"], cfg["experiment"])
    row = READS[run] | {"experiment"}
    return run, row | READS[f"a {cfg['input_state']['kind']} input"] if "input_state.kind" in row else row


def _merged(config: dict, leaves=SCHEMA) -> dict:
    """The SCHEMA leaves in ``leaves`` (every one by default), in sections, from ``config`` or else their defaults."""
    out = {}
    for path in (path for path in SCHEMA if path in leaves):
        (default, _, _), (section, _, key) = SCHEMA[path], path.partition(".")
        if key:
            out.setdefault(section, {})[key] = config.get(section, {}).get(key, default)
        else:
            out[section] = config.get(section, default)
    return out


DEFAULTS = {key: value for key, value in _merged({}).items() if key != "experiment"}


def _unknown_key(section: str, key, known) -> str:
    """Hints at the leaves of any section that have ``key`` as last name, else at the nearest name in ``known``."""
    prefix = section + "." if section else ""
    key = key if isinstance(key, str) else _shown(key)  # a JSON key is a string, one passed from Python may not be
    near = [path for path in SCHEMA if path.rpartition(".")[2] == key]
    near = near or [prefix + name for name in difflib.get_close_matches(key, known, n=1)]
    hint = f" (did you mean {' or '.join(map(repr, near))}?)" if near else ""
    return f"{prefix}{key}: unknown key{hint}"


def _shown(value) -> str:
    """``repr(value)`` for a message; a tuple is written as a list, and an int of 14000 bits or more (near
    the 4300 digits that str() converts) by its size."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_shown, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
    if _is_int(value) and value.bit_length() >= 14000:
        return f"{'under -' if value < 0 else 'over '}2^{value.bit_length() - 1}"
    return repr(value)


def _breach(path: str, rule, value) -> list:
    """``["<path>: must be <description>, got <value>"]`` if ``rule``, a (check, description) pair, fails on ``value``."""
    check, description = rule
    return [] if check(value) else [f"{path}: must be {description}, got {_shown(value)}"]


def _largest_array(cfg: dict, clean):
    """(bytes, section, array) for the largest array that a run builds at sizes read from ``cfg``, or None.

    Sizes a dense complex trunc x trunc operator, the real S x nx x np stack of a run's S Wigner maps with their
    complex coefficient matrices C on 2 trunc - 1 levels, their S x nx x (2 trunc - 1) sums over x levels only and
    the p axis's Hermite table, the n x trunc Hermite table of a marginal, number_scheme's 2 x P x n stack of
    marginals at P phases, the quadrature samples and MaxLik's phases x cells table, each only from leaves that
    ``clean`` passes (those the run reads and no rule has reported).  A run needs at least this much memory.
    """
    trunc, grid, n = cfg["trunc"], cfg["grid"], cfg["marginal_xs"]["n"]
    arrays = []
    if clean("trunc"):
        arrays.append((16 * trunc * trunc, "trunc", f"a dense complex {_shown(trunc)} x {_shown(trunc)} operator"))
    if clean("trunc", "grid.nx", "grid.np"):
        levels, c = 2 * trunc - 1, cfg["qubit_c"]  # qubit_wigner maps each qubit_c coefficient, number_scheme 2 states
        maps = 2 if cfg["experiment"] == "number_scheme" else len(c) if clean("qubit_c") and not _is_complex(c) else 1
        arrays += [(8 * maps * grid["nx"] * width, "grid",
                    f"the {maps} x {_shown(grid['nx'])} x {_shown(width)} stack of {name}")
                   for width, name in ((grid["np"], "Wigner maps"), (levels, "half-summed Wigner maps"))]
        arrays.append((8 * levels * grid["np"], "grid",  # the x axis's table is no larger than the half-summed maps
                       f"the {_shown(levels)} x {_shown(grid['np'])} Hermite table of the Wigner p axis"))
        arrays.append((16 * maps * levels * levels, "trunc",
                       f"the complex {maps} x {_shown(levels)} x {_shown(levels)} stack of Wigner coefficients"))
    if clean("trunc", "marginal_xs.n"):
        arrays.append((8 * n * trunc, "marginal_xs", f"the {_shown(n)} x {_shown(trunc)} Hermite table of a marginal"))
    count = cfg["sampling"]["phases"]
    phases = len(count) if isinstance(count, list) else count
    if clean("sampling.phases", "marginal_xs.n"):  # number_scheme, the one run that reads both, has 2 states
        arrays.append((8 * 2 * phases * n, "marginal_xs",
                       f"the 2 x {_shown(phases)} x {_shown(n)} stack of marginals"))
    if clean("sampling.phases", "sampling.samples_per_phase"):
        per_phase = cfg["sampling"]["samples_per_phase"]
        arrays.append((16 * phases * per_phase, "sampling",
                       f"the phase and x columns of {_shown(phases)} x {_shown(per_phase)} samples (16 bytes each)"))
        span = homodyne._cell_span(cfg["reconstruction"]["dim"]) if clean("reconstruction.dim") else 1
        cells = min(phases * per_phase, -(-homodyne.SAMPLING_POINTS // span))  # one per k of the sampler's points
        arrays.append((8 * phases * cells, "sampling", f"MaxLik's {_shown(phases)} phases x {_shown(cells)} cells table"))
    return max(arrays, default=None)


def validate_config(config: dict) -> list:
    """Schema, range and preparation report; returns one message per violated precondition.

    Checks each SCHEMA leaf (an omitted leaf takes its DEFAULTS value), refuses a value but the default for a leaf
    outside the run's READS rows, then checks the rules that relate several leaves and no library call owns, each
    skipped when a leaf it reads is reported or unread: the custom-amplitude count, the bound order and the memory
    rule, and names every key outside the schema with the nearest known one.  A config that passes all of these is
    prepared as its run prepares it (``_prepare``), and a library error there is reported once, as
    ``<leaf>: <library text>``.  Raises only what a bug raises: an error class that is not a ValueError.
    """
    return _checked(config)[0]


def _checked(config):
    """``validate_config``'s problems, the leaves that the run reads (its READS rows' and ``experiment``, each
    default filled in) and their preparation; the last two are None where there is a problem."""
    if not isinstance(config, dict):
        return [f"config: must be a JSON object, got {type(config).__name__}"], None, None
    broken = [key for key, default in DEFAULTS.items()
              if isinstance(default, dict) and not isinstance(config.get(key, {}), dict)]
    problems = [f"{key}: must be an object, got {_shown(config[key])}" for key in broken]
    cfg = _merged({key: value for key, value in config.items() if key not in broken})

    leaves = {path: cfg[section][key] if key else cfg[section]
              for path in SCHEMA for section, _, key in [path.partition(".")]}
    bad = {path for path in SCHEMA if path.partition(".")[0] in broken}
    for path, (_, *rule) in SCHEMA.items():
        if path not in bad and (found := _breach(path, rule, leaves[path])):
            problems += found
            bad.add(path)

    def clean(*paths):
        return bad.isdisjoint(paths)

    run, read = _reads(cfg) if clean("experiment", "route", "transform", "input_state.kind") else (None, frozenset())
    for path in [path for path in SCHEMA if path not in read and path not in bad]:  # every one, if the run is unknown
        bad.add(path)  # a leaf the run does not read enters no rule below
        if run and leaves[path] != SCHEMA[path][0]:
            readers = [name for name, row in READS.items() if path in row]
            problems.append(f"{path}: must be {json.dumps(SCHEMA[path][0])} for {run}, since it is read only by "
                            f"{' and '.join(filter(None, (', '.join(readers[:-1]), readers[-1])))}, "
                            f"got {_shown(leaves[path])}")

    amps = leaves["input_state.amps"]
    if clean("input_state.amps", "trunc") and not 1 <= len(amps or ()) <= leaves["trunc"]:
        problems.append(f"input_state.amps: a custom state needs 1..trunc amplitudes, got {_shown(amps)}")
    for section, axis in (("grid", "x"), ("grid", "p"), ("marginal_xs", "x")):
        bounds = (f"{axis}_min", f"{axis}_max")
        if clean(*(f"{section}.{bound}" for bound in bounds)):
            problems += _breach(section, PhaseGrid.ORDER, {bound: cfg[section][bound] for bound in bounds})
    for section, rule, ends in (("marginal_xs", _SQUARABLE, ("x_min", "x_max")),
                                ("grid", _WIGNER_BOUNDS, ("x_min", "x_max", "p_min", "p_max"))):
        if clean(*(f"{section}.{end}" for end in ends)):
            problems += _breach(section, rule, [cfg[section][end] for end in ends])
    largest = _largest_array(cfg, clean)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if largest is not None and largest[0] > memory:
        need, section, array = largest
        problems.append(f"{section}: {cfg['experiment']} builds {array}, {_shown(need)} bytes, "
                        f"more than the {memory} bytes of physical memory")

    for key, value in config.items():
        if key not in cfg:
            problems.append(_unknown_key("", key, cfg))
        elif key not in broken and isinstance(DEFAULTS.get(key), dict):
            problems.extend(_unknown_key(key, sub, cfg[key]) for sub in value if sub not in cfg[key])
    if problems:  # the memory rule among them, so preparation never allocates past it
        return problems, None, None
    cfg = _merged(config, read)  # a stage that reads a leaf outside the run's rows fails on it
    try:
        return problems, cfg, _prepare(cfg)
    except ValueError as err:  # the base of every library error; any other class is a bug, and propagates
        return [str(err)], None, None


def run(config: dict, output_dir) -> dict:
    """Execute the configured experiment, writing its artifacts and manifest into ``output_dir``."""
    problems, cfg, prepared = _checked(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    return _execute(cfg, prepared, output_dir)


def _execute(cfg: dict, prepared: dict, output_dir) -> dict:
    """A run's artifact stage, after ``_checked``: the runner writes the artifacts of the ``prepared`` states and
    returns the report written as report.json.  The manifest echoes ``cfg``, the leaves the runner is handed."""
    outdir = Path(output_dir)
    writer = _ArtifactWriter(outdir)
    writer.write_json("report.json", _RUNNERS[cfg["experiment"]](cfg, prepared, writer), "report-json")

    manifest = writer.manifest(config_echo=cfg)
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


# ---------------------------------------------------------------------------
# built-in verification battery


def _coherent_amplitude(alpha: complex, n: int) -> complex:
    """<n|alpha> without truncation: exp(-|alpha|^2/2) alpha^n / sqrt(n!)."""
    return math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / math.sqrt(math.factorial(n))


def run_battery() -> list:
    """Deterministic self-tests over key invariants; (name, passed, detail) rows."""
    checks = []
    rng = np.random.default_rng(20260808)

    trunc = Truncation(30)
    a, a_dag, n_op = ladder_operators(trunc)

    comm = (a @ a_dag - a_dag @ a)[:-1, :-1]
    defect = float(np.max(np.abs(comm - np.eye(trunc.dim - 1))))
    checks.append(("commutator_identity", bool(defect < 1e-12), f"defect {defect:.2e}"))

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
                   bool(coh_dev < 1e-12 and dev_single < 1e-12),
                   f"coherent sector deviation {coh_dev:.2e}, one-photon block deviation {dev_single:.2e}"))

    orth = max(float(np.max(np.abs(b.T @ b - np.eye(b.shape[0])))) for b in blocks)
    checks.append(("beam_splitter_sectors", bool(orth < 1e-12),
                   f"worst orthogonality defect {orth:.2e} over sectors N <= 20"))

    worst = 0.0
    for _ in range(20):
        amps = np.zeros(trunc.dim, dtype=complex)
        amps[:20] = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi = StateVector(amps, trunc).normalized()
        for kind in (OperatorKind.CREATION, OperatorKind.NUMBER):
            spec = OrthogonalizerSpec.from_state(kind, psi)
            out = orthogonalize(psi, spec)
            worst = max(worst, abs(inner_product(psi, out)))
        c1 = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        c2 = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        op = two_operator_orthogonalizer(c1, c2, psi)
        vec = StateVector(op @ psi.amps, trunc)
        worst = max(worst, abs(inner_product(psi, vec)) / vec.norm)
    checks.append(("orthogonality_battery", bool(worst < 1e-10), f"worst overlap {worst:.2e}"))

    big = Truncation(40)
    coh1 = coherent_state(1.0, big)
    perp = orthogonalize(coh1, OrthogonalizerSpec.from_state(OperatorKind.CREATION, coh1))
    # <m|D(alpha)|1> = sqrt(m) <m-1|alpha> - conj(alpha) <m|alpha>, at alpha = 1
    ref = StateVector([(math.sqrt(m) * _coherent_amplitude(1.0, m - 1) if m else 0.0) - _coherent_amplitude(1.0, m)
                       for m in range(big.dim)], big)
    f_df = fidelity(perp, ref)
    checks.append(("displaced_fock_identity", bool(f_df > 1 - 1e-8), f"fidelity {f_df:.10f}"))

    fam = orthogonal_family(coh1, OrthogonalizerSpec.from_state(OperatorKind.CREATION, coh1), 3)
    members = [coh1] + fam
    worst_fam = max(abs(inner_product(x, y)) for i, x in enumerate(members) for y in members[i + 1:])
    checks.append(("orthogonal_family", bool(worst_fam < 1e-8), f"worst overlap {worst_fam:.2e}"))

    psi_in = coherent_state(0.5, big)
    out, prob = heralded_addition_model(psi_in, 1.0, math.pi / 8)
    ideal = StateVector(ideal_addition_operator(1.0, math.pi / 8, big) @ psi_in.amps, big).normalized()
    f_model = fidelity(out, ideal)
    checks.append(("heralded_addition_equivalence", bool(f_model > 1 - 1e-8), f"fidelity {f_model:.10f}"))

    # auto beta r beta = t <a_dag> at a complex alpha: the ancilla's phase is beta's own
    coh_c = coherent_state(0.7 + 0.4j, big)
    spec_c = OrthogonalizerSpec.from_state(OperatorKind.CREATION, coh_c)
    out_c, _ = heralded_addition_model(coh_c, beta_for_addition_orthogonalizer(spec_c.mean_value, math.pi / 4),
                                       math.pi / 4)
    overlap_c = abs(inner_product(coh_c, out_c))
    checks.append(("heralded_addition_orthogonalizer", bool(overlap_c < 1e-8), f"overlap {overlap_c:.2e}"))

    out_model_n, _ = number_scheme_model(coh1, math.pi / 7, 0.4)
    ideal_n = StateVector(ideal_number_operator(math.pi / 7, 0.4, big) @ coh1.amps, big).normalized()
    f_number = fidelity(out_model_n, ideal_n)
    checks.append(("number_scheme_equivalence", bool(f_number > 1 - 1e-8), f"fidelity {f_number:.10f}"))

    spec_n = OrthogonalizerSpec.from_state(OperatorKind.NUMBER, coh1)
    theta_n = theta_for_number_orthogonalizer(float(complex(spec_n.mean_value).real))
    out_n, _ = number_scheme_model(coh1, theta_n)
    overlap_n = abs(inner_product(coh1, out_n))
    checks.append(("number_scheme_orthogonalizer", bool(overlap_n < 1e-8), f"overlap {overlap_n:.2e}"))

    grid = PhaseGrid(**DEFAULTS["grid"])
    w_vac, w_one = wigner([fock_state(n, Truncation(20)).to_density() for n in (0, 1)], grid)
    mid = grid.nx // 2
    origin_ok = abs(w_vac[mid, mid] - 1 / math.pi) < 1e-9 and abs(w_one[mid, mid] + 1 / math.pi) < 1e-9
    int_vac, int_one = grid.integral(w_vac), grid.integral(w_one)
    norm_ok = abs(int_vac - 1.0) < 1e-4 and abs(int_one - 1.0) < 1e-4
    checks.append(("wigner_origin_and_norm", bool(origin_ok and norm_ok),
                   f"W_vac(0,0)={w_vac[mid, mid]:.9f}, integrals {int_vac:.6f}/{int_one:.6f}"))

    # the definition itself, W = (1/pi) int du <x-u|rho|x+u> e^{2ipu}, by the trapezoid rule on 201 points of
    # [-12, 12], at 4 points of a random rank-4 state on 12 levels
    vecs = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    rho_mix = DensityMatrix(vecs @ vecs.conj().T / np.sum(np.abs(vecs) ** 2), Truncation(12))
    small = PhaseGrid(-2.0, 2.0, -1.5, 1.5, 5, 7)
    (w_mix,), us = wigner([rho_mix], small), np.linspace(-12.0, 12.0, 201)
    dev_def = 0.0
    for i, j in ((0, 0), (1, 5), (2, 3), (4, 6)):
        x, p = small.xs()[i], small.ps()[j]
        kernel = np.sum(hermite_functions(x - us, 12) * (rho_mix.elems @ hermite_functions(x + us, 12)), axis=0)
        direct = float(np.trapezoid(kernel * np.exp(2j * p * us), us).real) / math.pi
        dev_def = max(dev_def, abs(w_mix[i, j] - direct))
    checks.append(("wigner_vs_integral_definition", bool(dev_def < 1e-12), f"sup dev {dev_def:.2e} at 4 points"))

    rho_coh = coherent_state(1.0, Truncation(30)).to_density()
    lossy = apply_loss(rho_coh, 0.6)
    target = coherent_state(math.sqrt(0.6), Truncation(30))
    f_loss = fidelity(target, lossy)
    trace_dev = abs(float(np.real(np.trace(lossy.elems))) - 1.0)
    checks.append(("loss_channel", bool(f_loss > 1 - 1e-10 and trace_dev < 1e-12),
                   f"fidelity {f_loss:.12f}, trace dev {trace_dev:.2e}"))

    xs = np.linspace(-8, 8, 1601)
    ref_dens = np.exp(-((xs - math.sqrt(2)) ** 2)) / math.sqrt(math.pi)
    dev_marg = float(np.max(np.abs(marginal([rho_coh], (0.0,), xs)[0, 0] - ref_dens)))
    checks.append(("coherent_marginal_closed_form", bool(dev_marg < 1e-10), f"sup dev {dev_marg:.2e}"))

    s1, s2 = (sample_quadratures(rho_coh, uniform_phases(4), 500, 7) for _ in range(2))
    checks.append(("sampler_determinism", np.array_equal(s1.view(np.int64), s2.view(np.int64)), f"{len(s1)} samples"))

    vac_rho = fock_state(0, Truncation(12)).to_density()
    res = maxlik_reconstruct(sample_quadratures(vac_rho, uniform_phases(6), 2000, 11), dim=8, max_iter=200, tol=1e-9)
    f_tomo = fidelity(res.rho_hat, project_density(vac_rho, Truncation(8)))
    mono = bool(np.all(np.diff(res.log_likelihood_trace) > -1e-9))
    checks.append(("tomography_round_trip", bool(f_tomo > 0.99 and mono), f"fidelity {f_tomo:.4f}, monotone {mono}"))

    return checks


def _print_battery(results) -> int:
    width = max(len(name) for name, _, _ in results)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name.ljust(width)}  {detail}")
    failed = sum(not passed for _, passed, _ in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return int(failed > 0)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cvortho", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output-dir", type=Path, default=Path("out"), metavar="DIR")

    p_val = sub.add_parser("validate", help="check a config without executing it")
    p_val.add_argument("config", type=Path)

    sub.add_parser("verify", help="run the built-in invariant battery")

    args = parser.parse_args(argv)

    if args.command == "verify":
        return _print_battery(run_battery())

    try:
        config = json.loads(args.config.read_text(encoding="utf-8"))
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"config is not valid JSON: {err}", file=sys.stderr)
        return 2

    problems, cfg, prepared = _checked(config)
    if args.command == "validate":
        print("\n".join(problems) or "OK")
        return 1 if problems else 0
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    try:
        manifest = _execute(cfg, prepared, args.output_dir)
    except Exception as err:  # propagate module errors with context
        print(f"run failed: {err}", file=sys.stderr)
        return 1
    print(f"wrote {len(manifest['files'])} artifacts to {args.output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
