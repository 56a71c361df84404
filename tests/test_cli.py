import copy
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import pdtr

import cvortho.cli as cli
from cvortho import (
    OperatorKind,
    OrthogonalizerSpec,
    PhaseGrid,
    StateVector,
    Truncation,
    apply_loss,
    beam_splitter_op,
    beta_for_addition_orthogonalizer,
    coherent_state,
    density_from_json,
    density_json_text,
    fidelity,
    fock_state,
    heralded_addition_model,
    ladder_operators,
    marginal,
    maxlik_reconstruct,
    number_scheme_model,
    orthogonalize,
    project_density,
    sample_quadratures,
    uniform_phases,
)
from cvortho.cli import DEFAULTS, EXPERIMENTS, READS, SCHEMA, main, run, validate_config
from cvortho.phasespace import npy_buffers


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


_NOT_VERIFY = ("ideal orthogonalize, heralded orthogonalize, qubit_wigner, number_scheme, plain tomography, "
               "orthogonalized tomography and qubit tomography")
_TOMOGRAPHY = "plain tomography, orthogonalized tomography and qubit tomography"
_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
_VANISHING = "herald.theta: herald outcome (1, 0) has vanishing weight ("


def marginal_axis(report):
    """The points of a run's marginal rows, rebuilt from its report's ``marginal_xs``."""
    axis = report["marginal_xs"]
    return np.linspace(axis["x_min"], axis["x_max"], axis["n"])


class TestValidate:
    def test_valid_config(self):
        assert validate_config({"experiment": "orthogonalize"}) == []

    def test_unknown_experiment(self):
        problems = validate_config({"experiment": "frobnicate"})
        assert len(problems) == 1 and "experiment" in problems[0]

    def test_trunc_range_named(self):
        problems = validate_config({"experiment": "orthogonalize", "trunc": 1})
        assert any(p.startswith("trunc") for p in problems)

    def test_singular_number_scheme_named(self):
        problems = validate_config(
            {"experiment": "number_scheme", "herald": {"theta": math.pi / 4}}
        )
        assert any("singular" in p for p in problems)

    def test_eta_range(self):
        problems = validate_config({"experiment": "tomography", "eta": 1.5})
        assert any(p.startswith("eta") for p in problems)

    @pytest.mark.parametrize("fragment, field", [
        ({"eta": "0.5"}, "eta"),
        ({"grid": {"nx": "241"}}, "grid.nx"),
        ({"grid": {"x_min": "-6"}}, "grid.x_min"),
        ({"herald": {"beta": "x"}}, "herald.beta"),
        ({"herald": {"phi": "x"}}, "herald.phi"),
        ({"input_state": {"kind": "coherent", "alpha": [1.0, None]}}, "input_state.alpha"),
        ({"grid": 5}, "grid"),
    ])
    def test_wrong_types_reported_not_raised(self, fragment, field):
        problems = validate_config({"experiment": "orthogonalize", **fragment})
        assert len(problems) == 1 and problems[0].startswith(field + ":")

    @pytest.mark.parametrize("marginal_xs, field", [
        ({"n": "5"}, "marginal_xs.n"),
        ({"n": 1}, "marginal_xs.n"),
        ({"n": 5.0}, "marginal_xs.n"),
        ({"n": True}, "marginal_xs.n"),
        ({"x_min": "-8"}, "marginal_xs.x_min"),
        ({"x_max": None}, "marginal_xs.x_max"),
        ({"x_max": float("inf")}, "marginal_xs.x_max"),
        ({"x_max": 10**400}, "marginal_xs.x_max"),
        ({"x_min": 3.0, "x_max": 1.0}, "marginal_xs"),
        ({"x_min": 1.0, "x_max": 1.0}, "marginal_xs"),
    ])
    def test_marginal_axis_checked(self, marginal_xs, field):
        problems = validate_config({"experiment": "orthogonalize", "marginal_xs": marginal_xs})
        assert len(problems) == 1 and problems[0].startswith(field + ":")

    @pytest.mark.parametrize("bound", [float("inf"), float("-inf"), float("nan"), 10**400])
    def test_non_finite_grid_bound_reported(self, bound):
        problems = validate_config({"experiment": "qubit_wigner", "grid": {"x_max": bound}})
        assert len(problems) == 1 and problems[0].startswith("grid.x_max:")

    def test_marginal_axis_minimal_valid(self):
        assert validate_config({"experiment": "number_scheme", "marginal_xs": {"n": 2}}) == []

    @pytest.mark.parametrize("config, message", [
        # the leaves that each run would accept and drop without the READS table
        ({"experiment": "orthogonalize", "grid": {"nx": 11}},
         "grid.nx: must be 241 for ideal orthogonalize, since it is read only by qubit_wigner and number_scheme, got 11"),
        ({"experiment": "orthogonalize", "qubit_c": 0.5}, "qubit_c: must be [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], "
         "[0.0, -1.0]] for ideal orthogonalize, since it is read only by qubit_wigner, got 0.5"),
        ({"experiment": "orthogonalize", "sampling": {"seed": 3}},
         f"sampling.seed: must be 12345 for ideal orthogonalize, since it is read only by {_TOMOGRAPHY}, got 3"),
        ({"experiment": "orthogonalize", "reconstruction": {"dim": 5}},
         f"reconstruction.dim: must be 15 for ideal orthogonalize, since it is read only by {_TOMOGRAPHY}, got 5"),
        ({"experiment": "qubit_wigner", "marginal_xs": {"n": 11}}, "marginal_xs.n: must be 1601 for qubit_wigner, "
         "since it is read only by ideal orthogonalize, heralded orthogonalize and number_scheme, got 11"),
        ({"experiment": "qubit_wigner", "sampling": {"phases": 3}},
         f"sampling.phases: must be 10 for qubit_wigner, since it is read only by number_scheme, {_TOMOGRAPHY}, got 3"),
        ({"experiment": "tomography", "grid": {"nx": 11}},
         "grid.nx: must be 241 for plain tomography, since it is read only by qubit_wigner and number_scheme, got 11"),
        ({"experiment": "tomography", "qubit_c": 0.5}, "qubit_c: must be [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], "
         "[0.0, -1.0]] for plain tomography, since it is read only by qubit_wigner, got 0.5"),
        ({"experiment": "number_scheme", "transform": "qubit"},
         f"transform: must be \"none\" for number_scheme, since it is read only by {_TOMOGRAPHY}, got 'qubit'"),
        ({"experiment": "number_scheme", "sampling": {"seed": 3}},
         f"sampling.seed: must be 12345 for number_scheme, since it is read only by {_TOMOGRAPHY}, got 3"),
        # number_scheme is the number scheme; the default "creation" cannot be told from an omitted leaf
        ({"experiment": "number_scheme", "scheme": {"kind": "number"}}, "scheme.kind: must be \"creation\" for "
         "number_scheme, since it is read only by ideal orthogonalize, qubit_wigner, orthogonalized tomography and "
         "qubit tomography, got 'number'"),
        ({"experiment": "verify", "trunc": 20},
         f"trunc: must be 40 for verify, since it is read only by {_NOT_VERIFY}, got 20"),
        ({"experiment": "verify", "eta": 0.5},
         f"eta: must be 1.0 for verify, since it is read only by {_NOT_VERIFY}, got 0.5"),
        # route and herald: only orthogonalize has a heralded route, which is the creation scheme
        *[({"experiment": run.rpartition(" ")[2], "route": "heralded"}, f'route: must be "ideal" for {run}, since it '
           "is read only by ideal orthogonalize and heralded orthogonalize, got 'heralded'")
          for run in ("qubit_wigner", "number_scheme", "plain tomography", "verify")],
        ({"experiment": "orthogonalize", "route": "heralded", "scheme": {"kind": "number"}}, 'scheme.kind: must be '
         "\"creation\" for heralded orthogonalize, since it is read only by ideal orthogonalize, qubit_wigner, "
         "orthogonalized tomography and qubit tomography, got 'number'"),
        # tomography reads scheme.kind only under a transform, and qubit_c_single only under the qubit one
        ({"experiment": "tomography", "scheme": {"kind": "number"}}, 'scheme.kind: must be "creation" for plain '
         "tomography, since it is read only by ideal orthogonalize, qubit_wigner, orthogonalized tomography and "
         "qubit tomography, got 'number'"),
        ({"experiment": "tomography", "transform": "orthogonalize", "qubit_c_single": 0.5}, "qubit_c_single: must be "
         "[1.0, 0.0] for orthogonalized tomography, since it is read only by qubit tomography, got 0.5"),
        ({"experiment": "number_scheme", "herald": {"beta": [0.5, 0.0]}},
         'herald.beta: must be "auto" for number_scheme, since it is read only by heralded orthogonalize, got [0.5, 0.0]'),
        ({"experiment": "number_scheme", "herald": {"dim": 6}},
         "herald.dim: must be null for number_scheme, since it is read only by heralded orthogonalize, got 6"),
        ({"experiment": "orthogonalize", "herald": {"theta": 0.5}}, 'herald.theta: must be "auto" for ideal '
         "orthogonalize, since it is read only by heralded orthogonalize and number_scheme, got 0.5"),
        ({"experiment": "orthogonalize", "herald": {"phi": 0.5}}, "herald.phi: must be 0.0 for ideal orthogonalize, "
         "since it is read only by number_scheme, got 0.5"),
        ({"experiment": "orthogonalize", "herald": {"dim": 6}},
         "herald.dim: must be null for ideal orthogonalize, since it is read only by heralded orthogonalize, got 6"),
        ({"experiment": "qubit_wigner", "herald": {"beta": 1.0}},
         'herald.beta: must be "auto" for qubit_wigner, since it is read only by heralded orthogonalize, got 1.0'),
        ({"experiment": "tomography", "herald": {"theta": 0.5}}, 'herald.theta: must be "auto" for plain '
         "tomography, since it is read only by heralded orthogonalize and number_scheme, got 0.5"),
        # an input state's leaves follow its kind
        ({"experiment": "orthogonalize", "input_state": {"kind": "coherent", "n": 3}},
         "input_state.n: must be 0 for ideal orthogonalize, since it is read only by a fock input, got 3"),
        ({"experiment": "tomography", "input_state": {"kind": "fock", "alpha": [2.0, 0.0]}},
         "input_state.alpha: must be [1.0, 0.0] for plain tomography, since it is read only by a coherent input, "
         "got [2.0, 0.0]"),
        ({"experiment": "qubit_wigner", "input_state": {"kind": "fock", "amps": [1.0]}},
         "input_state.amps: must be null for qubit_wigner, since it is read only by a custom input, got [1.0]"),
        # the addition scheme's complex beta carries the ancilla's phase, so phi is the number scheme's alone
        ({"experiment": "orthogonalize", "route": "heralded", "herald": {"phi": 0.5}}, "herald.phi: must be 0.0 for "
         "heralded orthogonalize, since it is read only by number_scheme, got 0.5"),
    ])
    def test_leaf_the_run_does_not_read_is_refused(self, tmp_path, config, message):
        assert validate_config(config) == [message]
        # the first run that reads the leaf takes the same value
        path = message.partition(":")[0]
        reader = next(name for name, row in READS.items() if path in row)
        if reader.endswith(" input"):
            taken = {**config, "input_state": {**config["input_state"], "kind": reader.split()[1]}}
        else:
            taken = {**config, "experiment": reader.rpartition(" ")[2]}
            if not reader.endswith(" orthogonalize"):
                taken.pop("route", None)  # only orthogonalize reads the route
            elif path != "route":
                taken["route"] = reader.partition(" ")[0]
            if reader.endswith(" tomography"):
                (taken["transform"],) = [t for t, name in cli._TRANSFORMED.items() if reader == f"{name} tomography"]
        assert validate_config(taken) == []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, must", [
        ({"experiment": "number_scheme", "input_state": {"kind": "fock", "n": 1}}, _VANISHING),
        ({"experiment": "number_scheme", "input_state": {"kind": "fock", "n": 0}}, _VANISHING),
        ({"experiment": "number_scheme", "input_state": {"kind": "custom", "amps": [0.0, [0.0, 1.0]]}}, _VANISHING),
        ({"experiment": "number_scheme", "input_state": {"kind": "coherent", "alpha": [0.0, 0.0]}}, _VANISHING),
        ({"experiment": "orthogonalize", "scheme": {"kind": "number"}, "input_state": {"kind": "fock", "n": 2}},
         "scheme.kind: the input is an eigenstate of the operator with eigenvalue 2+0j; "),
        ({"experiment": "tomography", "transform": "orthogonalize", "scheme": {"kind": "number"},
          "input_state": {"kind": "custom", "amps": [0.0, 0.0, 2.0]}},
         "scheme.kind: the input is an eigenstate of the operator with eigenvalue 2+0j; "),
    ])
    def test_number_orthogonalizer_refuses_a_number_eigenstate(self, tmp_path, config, must):
        # the number orthogonalizer n - <n> maps a number eigenstate to 0, so preparation finds nothing to normalize,
        # and validate gives the library's words under the leaf of that stage
        (message,) = validate_config(config)
        assert message.startswith(must), message
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        # an input on two levels, or the number scheme at an explicit angle, still validates
        assert validate_config({**config, "input_state": {"kind": "custom", "amps": [0.0, 1.0, 1.0]}}) == []
        if config["experiment"] == "number_scheme":
            assert validate_config({**config, "herald": {"theta": 0.5}}) == []

    def test_tomography_rejects_reconstruction_dim_above_trunc(self, tmp_path):
        config = {"experiment": "tomography", "trunc": 12, "input_state": {"alpha": [0.5, 0.0]}}
        assert validate_config(config) == ["reconstruction.dim: must be at most the source dim 12, got 15"]
        assert validate_config({**config, "reconstruction": {"dim": 12}}) == []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha, trunc, refused", [
        (1.0, 12, True), (1.0, 13, False), ([5.0, 0.0], 40, True), ([0.0, 5.0], 60, False), (37.6, 40, True),
        ([0.0, 37.7], 2000, True), (1e200, 40, True), ([1e308, 1e308], 40, True)])
    def test_coherent_input_is_checked_on_alpha_by_the_library_rule(self, tmp_path, alpha, trunc, refused):
        # exp(-|alpha|^2/2) underflows from |alpha| = 37.6 on, and no basis holds the state there; plain tomography
        # applies no operator, so no tail guard refuses a state that fits
        config = {"experiment": "tomography", "trunc": trunc, "input_state": {"alpha": alpha},
                  "reconstruction": {"dim": 2}}
        try:
            coherent_state(cli._as_complex(alpha), Truncation(trunc))
            expected = []
        except ValueError as err:
            expected = [f"input_state.alpha: {err}"]
        assert validate_config(config) == expected and bool(expected) == refused
        if expected:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, message", [
        ({"experiment": "tomography", "sampling": {"phases": [0.0, -0.0]}},
         "sampling.phases: must be a count >= 1 or a nonempty list of finite numbers, "
         "distinct as numbers, got [0.0, -0.0]"),
        # number_scheme holds its 2 states' marginals at every phase at once
        ({"experiment": "number_scheme", "sampling": {"phases": 10**12}},
         "marginal_xs: number_scheme builds the 2 x 1000000000000 x 1601 stack of marginals, "
         f"{8 * 2 * 10**12 * 1601} bytes, more than the {_MEMORY} bytes of physical memory"),
    ])
    def test_phase_collisions_rejected_before_the_run(self, tmp_path, config, message):
        assert validate_config(config) == [message]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sampling", [{"phases": 10**12}, {"samples_per_phase": 10**12}])
    def test_sample_count_bounded_by_physical_memory(self, sampling):
        start = time.perf_counter()
        problems = validate_config({"experiment": "tomography", "sampling": sampling})
        assert time.perf_counter() - start < 1.0
        assert len(problems) == 1 and problems[0].startswith("sampling:"), problems
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        sample_bytes = 16 * 10 ** 12 * (5000 if "phases" in sampling else 10)
        assert f" {sample_bytes} bytes" in problems[0] and f" {memory} bytes" in problems[0]
        # the other experiments draw no samples: qubit_wigner reads no sampling leaf and refuses a value but the default
        ((key, value),) = sampling.items()
        assert validate_config({"experiment": "qubit_wigner", "sampling": sampling}) == [
            f"sampling.{key}: must be {DEFAULTS['sampling'][key]} for qubit_wigner, since it is read only by "
            f"{'number_scheme, ' if key == 'phases' else ''}{_TOMOGRAPHY}, got {value}"]

    @pytest.mark.parametrize("experiment, maps", [("qubit_wigner", 4), ("number_scheme", 2)])
    def test_stack_of_wigner_maps_bounded_by_physical_memory(self, experiment, maps):
        # a run holds all of its maps at once, qubit_wigner's one per qubit_c coefficient (4 by default) and
        # number_scheme's of its input and output: a grid whose one map takes two thirds of physical memory is refused
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        side = math.isqrt(memory // 12)
        config = {"experiment": experiment, "grid": {"nx": side, "np": side}}
        assert validate_config(config) == [f"grid: {experiment} builds the {maps} x {side} x {side} stack of Wigner "
                                           f"maps, {8 * maps * side * side} bytes, more than the {memory} bytes of "
                                           "physical memory"]
        if experiment == "qubit_wigner":  # one coefficient, one map: it fits
            assert validate_config({**config, "qubit_c": [0.0, 1.0]}) == []

    @pytest.mark.parametrize("config, array, need", [
        ({"experiment": "qubit_wigner", "grid": {"nx": 10**7, "np": 10**7}},
         "the 4 x 10000000 x 10000000 stack of Wigner maps", 4 * 8 * 10**14),
        ({"experiment": "orthogonalize", "marginal_xs": {"n": 10**12}},
         "the 1000000000000 x 40 Hermite table of a marginal", 8 * 10**12 * 40),
        ({"experiment": "orthogonalize", "trunc": 10**6}, "a dense complex 1000000 x 1000000 operator", 16 * 10**12),
        # number_scheme holds both states' rows at every phase at once, though one row and one phase table are small
        ({"experiment": "number_scheme", "marginal_xs": {"n": 10**6}, "sampling": {"phases": 10**6}},
         "the 2 x 1000000 x 1000000 stack of marginals", 16 * 10**12),
        # one sample per phase: the samples take 16 bytes each, the table 8 bytes for each of the 445 cells per phase
        # that the sampler's 4001 points fill at the default reconstruction.dim of 15, 9 points to a cell
        ({"experiment": "tomography", "sampling": {"phases": 10**7, "samples_per_phase": 1}},
         "MaxLik's 10000000 phases x 445 cells table", 8 * 10**7 * 445),
        # 16 trunc^2 has more digits than str() converts (4300), though trunc itself is a valid JSON number
        ({"experiment": "orthogonalize", "trunc": 10**2200}, f"a dense complex {10**2200} x {10**2200} operator",
         "over 2^14620"),
        # the 4 maps summed over their 79 x levels: 4 times the x axis's Hermite table, and larger than the maps at np 2
        ({"experiment": "qubit_wigner", "grid": {"nx": 10**12, "np": 2}},
         "the 4 x 1000000000000 x 79 stack of half-summed Wigner maps", 8 * 4 * 10**12 * 79),
        # each of the 4 maps has its complex coefficients on 2 trunc - 1 levels, all held at once
        ({"experiment": "qubit_wigner", "trunc": 10**5}, "the complex 4 x 199999 x 199999 stack of Wigner coefficients",
         4 * 16 * 199999**2),
    ])
    def test_largest_array_bounded_by_physical_memory(self, config, array, need):
        start = time.perf_counter()
        problems = validate_config(config)
        assert time.perf_counter() - start < 1.0
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        section = next(key for key in config if key != "experiment")
        assert problems == [f"{section}: {config['experiment']} builds {array}, {need} bytes, "
                            f"more than the {memory} bytes of physical memory"]
        # verify builds nothing sized by the config, and reads no size: it refuses each leaf set, and nothing more
        set_leaves = [f"{key}.{sub}" if isinstance(value, dict) else key for key, value in config.items()
                      if key != "experiment" for sub in (value if isinstance(value, dict) else [None])]
        problems = validate_config({**config, "experiment": "verify"})
        assert [p.partition(":")[0] for p in problems] == set_leaves
        assert all(": must be " in p and " for verify, since it is read only by " in p for p in problems), problems

    def test_a_maxlik_table_that_fits_at_its_cells_validates(self):
        # one sample per phase at the default reconstruction.dim of 15: the table holds 445 cells per phase, 9 of the
        # sampler's 4001 points to a cell, so a table that takes half of physical memory validates, though one of
        # 4001 columns per phase would take 4.5 times it
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        config = {"experiment": "tomography", "sampling": {"phases": memory // (2 * 8 * 445), "samples_per_phase": 1}}
        assert validate_config(config) == []

    def test_wide_wigner_grid_validates_and_runs(self, tmp_path):
        # the map's arrays do not grow with the grid bounds: at +-100 the largest is the 241 x 241 map itself
        config = {"experiment": "qubit_wigner", "grid": {"x_min": -100, "x_max": 100, "p_min": -100, "p_max": 100}}
        assert validate_config(config) == []
        run(config, output_dir=tmp_path)
        for entry in json.loads((tmp_path / "report.json").read_text())["maps"]:
            wmap = np.load(tmp_path / entry["file"], allow_pickle=False)
            assert wmap.shape == (241, 241) and np.all(np.isfinite(wmap))
            assert np.max(np.abs(wmap)) <= 1 / math.pi  # the bound on every Wigner function

    @pytest.mark.parametrize("experiment", ["qubit_wigner", "number_scheme"])
    @pytest.mark.parametrize("grid", [{"x_max": 1e300, "nx": 2, "np": 2}, {"x_max": 10**300},
                                      {"x_max": 1e154, "p_max": 1e154}, {"x_max": 1.7e308}, {"p_min": -1.7e308}])
    def test_grid_bounds_past_the_float_range_reported(self, experiment, grid):
        config = {"experiment": experiment, "grid": grid}
        bounds = ", ".join(repr({**DEFAULTS["grid"], **grid}[key]) for key in ("x_min", "x_max", "p_min", "p_max"))
        start = time.perf_counter()
        assert validate_config(config) == [f"grid: must be bounds whose sqrt(2) multiples have finite squares, "
                                           f"got [{bounds}]"]
        assert time.perf_counter() - start < 1.0
        # orthogonalize reads no grid leaf: it refuses each one set, with no bounds rule
        problems = validate_config({**config, "experiment": "orthogonalize"})
        assert [p.partition(":")[0] for p in problems] == [f"grid.{key}" for key in grid]
        assert all(" for ideal orthogonalize, since it is read only by qubit_wigner and number_scheme, got " in p
                   for p in problems), problems

    @pytest.mark.parametrize("config, message", [
        ({"experiment": "orthogonalize", "trunc": -10**5000}, "trunc: must be an integer >= 2, got under -2^16609"),
        ({"experiment": "orthogonalize", "qubit_c": [1.0, 10**5000]},
         "qubit_c: must be a finite number, an [re, im] pair or a nonempty list of them, got [1.0, over 2^16609]"),
        ({"experiment": "orthogonalize", "input_state": {"alpha": (1.0, 10**5000)}},
         "input_state.alpha: must be a finite number or [re, im] pair, got [1.0, over 2^16609]"),
        ({"experiment": "orthogonalize", "grid": {10**5000: 1.0}}, "grid.over 2^16609: unknown key"),
        ({"experiment": "orthogonalize", "herald": {"phi": {"re": -10**5000}}},
         "herald.phi: must be a finite number, got {'re': under -2^16609}"),
        ({"experiment": "number_scheme", "sampling": {"phases": 10**5000}},
         "marginal_xs: number_scheme builds the 2 x over 2^16609 x 1601 stack of marginals, over 2^16624 bytes, "
         f"more than the {_MEMORY} bytes of physical memory"),
    ])
    def test_huge_int_reported_by_its_size(self, config, message):
        assert validate_config(config) == [message]

    def test_large_tomography_within_memory_validates(self):
        # criterion 8's lossy run: 10 phases x 50000 samples at dim 15, 8 MB of samples
        config = {"experiment": "tomography", "transform": "qubit", "trunc": 30, "eta": 0.6,
                  "sampling": {"phases": 10, "samples_per_phase": 50000, "seed": 1},
                  "reconstruction": {"dim": 15, "max_iter": 300, "tol": 1e-9}}
        assert validate_config(config) == []

    def test_sampling_eta_is_an_unknown_key(self):
        assert validate_config({"experiment": "tomography", "sampling": {"eta": 0.9}}) == [
            "sampling.eta: unknown key (did you mean 'eta'?)"
        ]

    def test_unknown_key_hints_at_every_leaf_of_that_name(self):
        assert validate_config({"experiment": "tomography", "phases": 4}) == [
            "phases: unknown key (did you mean 'sampling.phases'?)"
        ]
        assert validate_config({"experiment": "tomography", "reconstruction": {"x_min": -5.0}}) == [
            "reconstruction.x_min: unknown key (did you mean 'grid.x_min' or 'marginal_xs.x_min'?)"
        ]

    @pytest.mark.parametrize("name", ["QubitWigner", "number-scheme"])
    def test_experiment_names_are_exact(self, name):
        problems = validate_config({"experiment": name})
        assert len(problems) == 1 and problems[0].startswith("experiment:"), problems

    @pytest.mark.parametrize("experiment", ["tomography", "number_scheme"])
    def test_phases_equal_to_four_decimals_pass_tomography(self, tmp_path, experiment):
        # no file is named by its phase: phases that agree to 4 decimals are distinct phases, and number_scheme writes
        # a row for each, with the bits of a one-phase marginal call
        phases = [0.0, 1e-5] if experiment == "tomography" else [0.1, 0.10001]
        config = {"experiment": experiment, "sampling": {"phases": phases}}
        if experiment == "number_scheme":
            config = {**SMALL_CONFIGS["number_scheme"], **config}
        assert validate_config(config) == []
        run(config, output_dir=tmp_path)
        if experiment == "tomography":
            assert (tmp_path / "samples.npy").exists()
            return
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["phases"] == phases
        xs = marginal_axis(report)
        for label in ("input", "output"):
            rows = np.load(tmp_path / f"marginal_{label}.npy", allow_pickle=False)
            rho = density_from_json(json.loads((tmp_path / f"density_{label}.json").read_text()))
            assert rows.shape == (2, xs.size)
            for row, phase in zip(rows, phases):
                assert np.array_equal(row.view(np.int64), marginal([rho], (phase,), xs)[0, 0].view(np.int64))
        # nor is a phase count capped by names: 31417 phases are 0.8 GB of marginals
        assert validate_config({"experiment": "number_scheme", "sampling": {"phases": 31417}}) == []


def _leaf_config(path, value, experiment="orthogonalize"):
    """A config that sets one SCHEMA leaf to ``value`` and leaves the rest at their defaults."""
    if path == "experiment":
        return {"experiment": value}
    section, _, key = path.partition(".")
    return {"experiment": experiment, section: {key: value} if key else value}


def _default(path):
    section, _, key = path.partition(".")
    return DEFAULTS[section][key] if key else DEFAULTS.get(section)


# Every known name: the top-level keys and each section's keys as dotted paths.
_NAMES = sorted({path.partition(".")[0] for path in SCHEMA} | {path for path in SCHEMA if "." in path})


class TestSchema:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_leaf_passes_at_its_default(self, experiment):
        assert validate_config({"experiment": experiment, **copy.deepcopy(DEFAULTS)}) == []

    @settings(max_examples=400, deadline=None)
    @given(path=st.sampled_from(sorted(SCHEMA)), experiment=st.sampled_from(EXPERIMENTS),
           value=st.one_of(st.text(alphabet="xyz", max_size=4), st.none(), st.booleans(),
                           st.lists(st.text(alphabet="xyz", max_size=2), min_size=1, max_size=3),
                           st.just(math.nan)))
    def test_wrongly_typed_leaf_gives_one_message(self, path, experiment, value):
        assume(value is not None or path == "experiment" or _default(path) is not None)
        problems = validate_config(_leaf_config(path, value, experiment))
        assert len(problems) == 1 and problems[0].startswith(path + ":"), problems

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(_NAMES), data=st.data())
    def test_unknown_key_names_the_nearest_known_key(self, name, data):
        section, _, key = name.rpartition(".")
        i = data.draw(st.integers(0, len(key) - 1))
        typo = key[: i + 1] + key[i:]
        assume(typo not in SCHEMA and typo not in DEFAULTS.get(section, {}))
        config = {"experiment": "orthogonalize", **({section: {typo: 1}} if section else {typo: 1})}
        problems = validate_config(config)
        assert len(problems) == 1 and f"did you mean {name!r}" in problems[0], problems

    def test_output_dir_is_not_a_config_key(self):
        # the directory is a run argument, so a config that names one is refused without a hint
        assert validate_config({"experiment": "orthogonalize", "output_dir": "out"}) == ["output_dir: unknown key"]

    def test_unknown_top_level_key(self):
        assert validate_config({"experiment": "tomography", "samplng": {"seed": 3}}) == [
            "samplng: unknown key (did you mean 'sampling'?)"
        ]

    @pytest.mark.parametrize("fragment, field", [
        ({"transform": "bogus"}, "transform"),
        ({"qubit_c": "x"}, "qubit_c"),
        ({"qubit_c": []}, "qubit_c"),
        ({"qubit_c_single": [1.0]}, "qubit_c_single"),
        ({"reconstruction": {"tol": "small"}}, "reconstruction.tol"),
        ({"sampling": {"phases": [0.0, "x"]}}, "sampling.phases"),
        ({"sampling": {"phases": [0.5, 0.5]}}, "sampling.phases"),
        ({"sampling": {"seed": True}}, "sampling.seed"),
        ({"input_state": {"kind": "custom", "amps": [0.0, [0.0, 0.0]]}}, "input_state.amps"),
        ({"input_state": {"kind": "custom", "amps": [1.0] * 41}}, "input_state.amps"),
        ({"input_state": {"kind": "custom"}}, "input_state.amps"),
    ])
    def test_leaf_reported(self, fragment, field):
        problems = validate_config({"experiment": "tomography", **fragment})
        assert len(problems) == 1 and problems[0].startswith(field + ":"), problems


# Values around each rule's boundaries: integers from -2 to 40 and both zeros, fractions near [0, 1], bound pairs,
# phase lists with repeats, and beam-splitter angles within 1e-13 to 1e-6 of 0, pi/4, pi/2 and their images.
_INTS = st.one_of(st.integers(-2, 40), st.sampled_from([0.0, -0.0]))
_FRACTIONS = st.one_of(st.floats(-0.5, 1.5), st.integers(-2, 3),
                       st.sampled_from([0.0, -0.0, 1.0, 1.0000000000000002, -5e-324, math.nan]))
_BOUNDS = st.tuples(*[st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])] * 2)
# ordered bound pairs on both sides of sqrt(max float), the largest |x| whose square is finite
_ROOT_MAX = math.sqrt(sys.float_info.max)
_SQUARE_BOUNDS = st.lists(st.sampled_from([-1e200, -_ROOT_MAX, -1.0, 0.0, _ROOT_MAX, math.nextafter(_ROOT_MAX, math.inf)]),
                          min_size=2, max_size=2, unique=True).map(sorted)
_PHASE_LISTS = st.lists(st.sampled_from([0.0, -0.0, 0.5, math.pi]), max_size=3)
_ANGLES = st.one_of(
    st.tuples(st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi, 5 * math.pi / 4, -math.pi / 2]),
              st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 2e-12, 1e-6])).map(sum),
    st.just(-0.0), st.floats(-4.0, 4.0))
_GRID = DEFAULTS["grid"]
_SAMPLES = np.array([[0.0, 0.1], [0.0, -0.2], [1.0, 0.3]])
_PSI = coherent_state(0.5, Truncation(12))
_RHO = _PSI.to_density()
_VACUUM = {"kind": "fock", "n": 0}
# the default input, on which heralded orthogonalize tunes its auto beta
_DEFAULT_INPUT = coherent_state(1.0, Truncation(40))
_MEAN_CREATION = OrthogonalizerSpec.from_state(OperatorKind.CREATION, _DEFAULT_INPUT).mean_value


def _grid_bounds(axis, bounds):
    return PhaseGrid(**{**_GRID, f"{axis}_min": bounds[0], f"{axis}_max": bounds[1]})


# (leaf, values, a config that sets the leaf to a value, the library call that owns the leaf's rule)
_AGREEMENT = [
    # plain tomography of the vacuum applies no operator, so no tail guard refuses a trunc
    ("trunc", _INTS, lambda v: {"experiment": "tomography", "trunc": v, "input_state": _VACUUM,
                                "reconstruction": {"dim": 2}}, Truncation),
    ("herald.dim", _INTS, lambda v: {"experiment": "orthogonalize", "route": "heralded", "herald": {"dim": v}},
     Truncation),
    ("grid.nx", _INTS, lambda v: {"experiment": "qubit_wigner", "grid": {"nx": v}}, lambda v: PhaseGrid(**{**_GRID, "nx": v})),
    ("grid.np", _INTS, lambda v: {"experiment": "qubit_wigner", "grid": {"np": v}}, lambda v: PhaseGrid(**{**_GRID, "np": v})),
    ("marginal_xs.n", _INTS, lambda v: {"experiment": "orthogonalize", "marginal_xs": {"n": v}},
     lambda v: PhaseGrid(**{**_GRID, "nx": v})),
    ("grid", _BOUNDS, lambda v: {"experiment": "qubit_wigner", "grid": {"x_min": v[0], "x_max": v[1]}},
     lambda v: _grid_bounds("x", v)),
    ("grid", _BOUNDS, lambda v: {"experiment": "qubit_wigner", "grid": {"p_min": v[0], "p_max": v[1]}},
     lambda v: _grid_bounds("p", v)),
    ("marginal_xs", _BOUNDS, lambda v: {"experiment": "orthogonalize", "marginal_xs": {"x_min": v[0], "x_max": v[1]}},
     lambda v: _grid_bounds("x", v)),
    ("marginal_xs", _SQUARE_BOUNDS,
     lambda v: {"experiment": "orthogonalize", "marginal_xs": {"x_min": v[0], "x_max": v[1], "n": 11}},
     lambda v: marginal([_RHO], (0.0,), np.linspace(v[0], v[1], 11))[0]),
    ("eta", _FRACTIONS, lambda v: {"experiment": "tomography", "eta": v}, lambda v: apply_loss(_RHO, v)),
    ("sampling.phases", _PHASE_LISTS, lambda v: {"experiment": "tomography", "sampling": {"phases": v}},
     lambda v: sample_quadratures(_RHO, v, 1, 0)),
    ("sampling.phases", _INTS, lambda v: {"experiment": "tomography", "sampling": {"phases": v}}, uniform_phases),
    ("sampling.samples_per_phase", _INTS, lambda v: {"experiment": "tomography", "sampling": {"samples_per_phase": v}},
     lambda v: sample_quadratures(_RHO, (0.0,), v, 0)),
    ("sampling.seed", _INTS, lambda v: {"experiment": "tomography", "sampling": {"seed": v}},
     lambda v: sample_quadratures(_RHO, (0.0,), 1, v)),
    # beam_splitter_op's sector reads the seed's rule, an integer >= 0
    ("sampling.seed", _INTS, lambda v: {"experiment": "tomography", "sampling": {"seed": v}},
     lambda v: beam_splitter_op(0.3, v)),
    ("reconstruction.dim", _INTS, lambda v: {"experiment": "tomography", "reconstruction": {"dim": v}},
     lambda v: maxlik_reconstruct(_SAMPLES, v, max_iter=1)),
    ("reconstruction.max_iter", _INTS, lambda v: {"experiment": "tomography", "reconstruction": {"max_iter": v}},
     lambda v: maxlik_reconstruct(_SAMPLES, 2, max_iter=v)),
    ("input_state.n", _INTS, lambda v: {"experiment": "orthogonalize", "trunc": 12, "input_state": {"kind": "fock", "n": v}},
     lambda v: fock_state(v, Truncation(12))),
    ("reconstruction.dim", st.tuples(st.integers(2, 30), st.integers(2, 30)),
     lambda v: {"experiment": "tomography", "trunc": v[0], "input_state": _VACUUM, "reconstruction": {"dim": v[1]}},
     lambda v: project_density(fock_state(0, Truncation(v[0])).to_density(), Truncation(v[1]))),
    ("herald.theta", _ANGLES, lambda v: {"experiment": "number_scheme", "herald": {"theta": v}},
     lambda v: number_scheme_model(_PSI, v)),
    # the auto beta of a small angle is large, and its ancilla can outgrow the herald basis
    ("herald.theta", _ANGLES, lambda v: {"experiment": "orthogonalize", "route": "heralded", "herald": {"theta": v}},
     lambda v: heralded_addition_model(_DEFAULT_INPUT, beta_for_addition_orthogonalizer(_MEAN_CREATION, v), v)),
]


def _described(message):
    """The ``<description>`` of a ``<name>: must be <description>, got <value>`` message."""
    return message.split("must be ", 1)[1].rsplit(", got ", 1)[0]


@pytest.mark.parametrize("leaf, values, config, call", _AGREEMENT,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(_AGREEMENT)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_validate_reads_the_library_rules(leaf, values, config, call, data):
    # validate reports the leaf exactly when the library call that owns its rule raises, in the same words
    value = data.draw(values)
    reported = [p for p in validate_config(config(value)) if p.startswith(leaf + ":")]
    try:
        call(value)
        raised = None
    except ValueError as err:
        raised = str(err)
    assert len(reported) == (raised is not None), (value, reported, raised)
    if raised is None:
        return
    if leaf == "input_state.n" and not cli._is_int(value):
        # a level's range depends on trunc, so the leaf's own check is the JSON type alone
        assert reported == [f"input_state.n: must be an integer, got {value!r}"]
    elif "must be " not in raised:  # a library error without a rule's description keeps all its words
        assert reported == [f"{leaf}: {raised}"]
    else:
        assert _described(raised) in _described(reported[0]), (reported, raised)


_EDGE_THETAS = st.sampled_from([0, 1e-6, math.pi / 4, math.pi / 2, 3, "auto"])
_EDGE_AMPS = st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e300, -1e300, [0.0, 1e300], [1e-300, 0.0]]), min_size=1,
                      max_size=12)


@st.composite
def _edge_configs(draw):
    """A config of small sizes that sets only leaves its run reads, each from its edge values."""
    experiment = draw(st.sampled_from([e for e in EXPERIMENTS if e != "verify"]))
    kind, leaf, values = draw(st.sampled_from([("coherent", "alpha", st.sampled_from([0.0, 0.5, [0.0, 1.0], 3.0])),
                                               ("fock", "n", st.integers(0, 12)), ("custom", "amps", _EDGE_AMPS)]))
    config = {"experiment": experiment, "trunc": draw(st.integers(2, 12)), "eta": draw(st.sampled_from([1.0, 0.5, 0.0])),
              "input_state": {"kind": kind, leaf: draw(values)}}
    small_grid = {"nx": draw(st.integers(2, 4)), "np": draw(st.integers(2, 4))}
    herald = {"theta": draw(_EDGE_THETAS)}
    if experiment == "orthogonalize":
        config.update(route=draw(st.sampled_from(["ideal", "heralded"])), marginal_xs={"n": 11})
        if config["route"] == "ideal":
            config["scheme"] = {"kind": draw(st.sampled_from(["creation", "number"]))}
        else:
            config["herald"] = {**herald, "beta": draw(st.sampled_from(["auto", 0.0, 3.0, [1.7e308, 1.7e308]])),
                                "dim": draw(st.sampled_from([None, 2, 3, 20, 10**20, 10**400]))}
    elif experiment == "qubit_wigner":
        config.update(scheme={"kind": draw(st.sampled_from(["creation", "number"]))}, grid=small_grid,
                      qubit_c=draw(st.sampled_from([0.0, 1.0, [0.0, 1.0], [[1.0, 0.0], [0.0, -1.0]], 1e300,
                                                    [1.7e308, 1.7e308]])))
    elif experiment == "number_scheme":
        config.update(herald={**herald, "phi": draw(st.sampled_from([0.0, 3.0]))}, grid=small_grid,
                      sampling={"phases": draw(st.integers(1, 2))}, marginal_xs={"n": 11})
    else:
        config.update(transform=draw(st.sampled_from(["none", "orthogonalize", "qubit"])),
                      sampling={"phases": draw(st.integers(1, 2)), "samples_per_phase": draw(st.integers(1, 20))},
                      reconstruction={"dim": draw(st.integers(2, 16)), "max_iter": draw(st.integers(1, 3))})
        if config["transform"] != "none":
            config["scheme"] = {"kind": draw(st.sampled_from(["creation", "number"]))}
        if config["transform"] == "qubit":
            config["qubit_c_single"] = draw(st.sampled_from([0.0, 1.0, [0.0, -1.0], 1e300, [1.7e308, 1.7e308]]))
    return config


@settings(max_examples=200, deadline=None)
@given(config=_edge_configs())
def test_a_config_that_validates_runs(config):
    # validate prepares each run's states, so at the edge values of each leaf it refuses what its run cannot
    # represent, and a config that it passes runs without error
    problems = validate_config(config)
    read = cli._reads(cli._merged(config))[1]
    assert all(problem.partition(":")[0] in read for problem in problems), problems
    if not problems:
        with tempfile.TemporaryDirectory() as outdir:
            run(config, outdir)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config", [
    {"experiment": "qubit_wigner", "qubit_c": 1e300},
    {"experiment": "qubit_wigner", "qubit_c": [[1.7e308, 1.7e308]]},
    {"experiment": "tomography", "transform": "qubit", "qubit_c_single": 1e300},
], ids=["qubit_wigner-1e300", "qubit_wigner-1.7e308-pair", "qubit-tomography-1e300"])
def test_a_huge_qubit_coefficient_writes_its_input(tmp_path, config):
    # c |psi> + |psi_perp> is |psi> to rounding at |c| near the float limit, where the product with c and the norm
    # overflowed and left a zero state; the one state written, tomography's projected truth, is the default input
    assert validate_config(config) == []
    paths = {entry["path"] for entry in run(config, tmp_path)["files"]} & {"density_00.json", "rho_true.json"}
    assert len(paths) == 1
    rho = density_from_json(json.loads((tmp_path / paths.pop()).read_text()))
    psi = StateVector(coherent_state(1.0, Truncation(40)).amps[: rho.trunc.dim], rho.trunc).normalized()
    assert fidelity(psi, rho) >= 1 - 1e-12


class TestRunOrthogonalize:
    def test_artifacts_and_report(self, tmp_path):
        config = {
            "experiment": "orthogonalize",
            "input_state": {"kind": "coherent", "alpha": [1.0, 0.0]},
            "trunc": 40,
        }
        manifest = run(config, output_dir=tmp_path)
        paths = {e["path"] for e in manifest["files"]}
        assert "marginal_input.npy" in paths
        assert "marginal_output.npy" in paths
        assert "report.json" in paths
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["phases"] == [0.0] and report["marginal_xs"] == DEFAULTS["marginal_xs"]
        assert report["overlap_with_input"] < 1e-10
        assert report["displaced_fock_fidelity"] > 1 - 1e-8

    @pytest.mark.parametrize("alpha, trunc", [(1.0, 40), (28.0, 1200)])
    def test_marginal_mass_reports_the_window(self, tmp_path, alpha, trunc):
        # at alpha = 28 the marginals peak near x = 39.6, far outside marginal_xs's [-8, 8]; at trunc 1200 most of
        # the time goes to the two density JSON files, of 1200 x 1200 entries each
        config = {"experiment": "orthogonalize", "scheme": {"kind": "number"}, "trunc": trunc,
                  "input_state": {"kind": "coherent", "alpha": [alpha, 0.0]}}
        manifest = run(config, output_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        masses, xs = report["marginal_mass"], marginal_axis(report)
        assert sorted(f"marginal_{label}.npy" for label in masses) == sorted(
            e["path"] for e in manifest["files"] if e["kind"] == "marginal-npy")
        for label, (mass,) in masses.items():
            (density,) = np.load(tmp_path / f"marginal_{label}.npy", allow_pickle=False)
            assert mass == np.trapezoid(density, xs)
            assert (mass < 1e-10) if alpha == 28.0 else (abs(mass - 1.0) <= 1e-6)

    @pytest.mark.parametrize("config", [
        {"trunc": 40},
        # no ancilla photon: the weight is t^2 ||a_dag psi||^2 = (|alpha|^2 + 1) / 2 = 2.5, so not a probability
        {"trunc": 40, "input_state": {"alpha": [2.0, 0.0]}, "herald": {"beta": [0.0, 0.0], "theta": math.pi / 4}},
        # a complex ancilla on 2 to 20 levels: |beta|^2 = 0.0041 fits even 2 levels at tail_tol 5e-3
        *[{"trunc": 40, "input_state": {"alpha": [0.6, -0.3]},
           "herald": {"beta": [0.05, -0.04], "theta": 0.7, "dim": dim}} for dim in (2, 8, 12, 20)],
    ])
    def test_heralded_route(self, tmp_path, config):
        run({"experiment": "orthogonalize", "route": "heralded", **config}, output_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        if "herald" not in config:  # auto beta tunes the scheme into the orthogonalizer
            assert report["overlap_with_input"] < 1e-8
        # the herald weight is the heralded signal's squared norm, ||t anc_0 a_dag psi - r anc_1 psi||^2, with anc_0
        # and anc_1 the exact |0> and |1> amplitudes of the ancilla, e^{-|beta|^2/2} (1, beta), whatever herald.dim
        trunc = Truncation(40)
        psi = coherent_state(complex(*config.get("input_state", {"alpha": [1.0, 0.0]})["alpha"]), trunc)
        theta, beta = report["beam_splitter_theta"], complex(*report["ancilla_beta"])
        anc = math.exp(-abs(beta) ** 2 / 2) * np.array([1.0, beta])
        heralded = math.cos(theta) * anc[0] * (ladder_operators(trunc)[1] @ psi.amps) - math.sin(theta) * anc[1] * psi.amps
        assert report["herald_weight"] == pytest.approx(float(np.vdot(heralded, heralded).real), rel=1e-14, abs=0)
        if beta == 0:
            assert report["herald_weight"] == pytest.approx(2.5, rel=1e-12)

    def test_heralded_files_are_checksummed_indented_json(self, tmp_path):
        manifest = run({"experiment": "orthogonalize", "route": "heralded", "trunc": 40}, output_dir=tmp_path)
        for entry in manifest["files"]:
            assert hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest() == entry["sha256"]
        densities = [e["path"] for e in manifest["files"] if e["kind"] == "density-json"]
        assert sorted(densities) == ["density_input.json", "density_output.json"]
        for path in densities:
            text = (tmp_path / path).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


# One small config per experiment; the tomography samples through loss so that it also writes rho_lossy.json.
SMALL_CONFIGS = {
    "orthogonalize": {"trunc": 30},
    "qubit_wigner": {"trunc": 20, "eta": 0.8, "qubit_c": [[1.0, 0.0], [0.0, 1.0]], "grid": {"nx": 21, "np": 17}},
    "number_scheme": {"trunc": 20, "grid": {"nx": 21, "np": 17}, "sampling": {"phases": 2},
                      "marginal_xs": {"n": 101}},
    "tomography": {"trunc": 16, "eta": 0.9, "sampling": {"phases": 3, "samples_per_phase": 200, "seed": 4},
                   "reconstruction": {"dim": 6, "max_iter": 5}},
    "verify": {},
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_no_orphan_outputs(tmp_path, experiment):
    manifest = run({"experiment": experiment, **SMALL_CONFIGS[experiment]}, output_dir=tmp_path)
    listed = {e["path"] for e in manifest["files"]} | {"manifest.json"}
    on_disk = {p.name for p in tmp_path.iterdir()}
    assert on_disk == listed
    for entry in manifest["files"]:
        assert hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest() == entry["sha256"], entry["path"]


class _Recording(Mapping):
    """A runner's config that adds the dotted path of every leaf read to ``seen``."""

    def __init__(self, data, seen, prefix=""):
        self._data, self._seen, self._prefix = data, seen, prefix

    def __getitem__(self, key):
        value = self._data[key]
        if isinstance(value, dict):
            return _Recording(value, self._seen, f"{key}.")
        self._seen.add(self._prefix + key)
        return value

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


# A small config for each run, and the branches it takes: each input kind.  The number scheme takes no Fock input, an
# eigenstate of n.
_ROW_CONFIGS = {
    "ideal orthogonalize": {"experiment": "orthogonalize", "trunc": 16, "marginal_xs": {"n": 11}},
    "heralded orthogonalize": {"experiment": "orthogonalize", "route": "heralded", "trunc": 16,
                               "marginal_xs": {"n": 11}},
    "qubit_wigner": {"experiment": "qubit_wigner", "trunc": 16, "qubit_c": 1.0, "grid": {"nx": 5, "np": 5}},
    "number_scheme": {"experiment": "number_scheme", "trunc": 16, "grid": {"nx": 5, "np": 5},
                      "sampling": {"phases": 1}, "marginal_xs": {"n": 11}},
    **{f"{name} tomography": {"experiment": "tomography", "transform": transform, "trunc": 16,
                              "sampling": {"phases": 1, "samples_per_phase": 20},
                              "reconstruction": {"dim": 3, "max_iter": 2}}
       for transform, name in cli._TRANSFORMED.items()},
    "verify": {"experiment": "verify"},
}
_INPUTS = {"coherent": {"kind": "coherent", "alpha": [0.5, 0.0]}, "fock": {"kind": "fock", "n": 1},
           "custom": {"kind": "custom", "amps": [1.0, 0.5]}}


def _branches(name):
    base = _ROW_CONFIGS[name]
    if name == "verify":
        return [base]
    kinds = [kind for kind in _INPUTS if not (name == "number_scheme" and kind == "fock")]
    return [{**base, "input_state": _INPUTS[kind]} for kind in kinds]


def test_the_runs_with_a_row_cover_every_row():
    assert set(_ROW_CONFIGS) | {f"a {kind} input" for kind in _INPUTS} == set(READS)


@pytest.mark.parametrize("name", _ROW_CONFIGS)
def test_each_run_reads_exactly_its_rows(tmp_path, monkeypatch, name):
    # Each branch's preparation and runner read its input kind's whole row and, beside it, only leaves of the run's
    # READS row and experiment (they get no other, so they could not read one); over all branches they read every
    # leaf of the run's row.
    seen = set()
    for experiment, runner in cli._RUNNERS.items():
        monkeypatch.setitem(cli._RUNNERS, experiment, lambda cfg, prepared, writer, runner=runner:
                            runner(_Recording(cfg, seen), prepared, writer))
    prepare = cli._prepare
    monkeypatch.setattr(cli, "_prepare", lambda cfg: prepare(_Recording(cfg, seen)))
    monkeypatch.setattr(cli, "run_battery", lambda: [])
    read = set()
    for i, config in enumerate(_branches(name)):
        seen.clear()
        run(config, output_dir=tmp_path / str(i))
        kind = READS[f"a {config['input_state']['kind']} input"] if "input_state" in config else frozenset()
        assert kind <= seen <= READS[name] | kind | {"experiment"}, config
        read |= seen - kind - {"experiment"}
    assert read == READS[name]


def test_manifest_echoes_the_leaves_that_the_run_used(tmp_path):
    # each leaf that the runner was handed, a default filled in, and none that the run does not read
    manifest = run({"experiment": "orthogonalize", "marginal_xs": {"n": 11}}, output_dir=tmp_path)
    assert manifest["config_echo"] == {
        "experiment": "orthogonalize", "input_state": {"kind": "coherent", "alpha": [1.0, 0.0]},
        "scheme": {"kind": "creation"}, "route": "ideal", "trunc": 40, "eta": 1.0,
        "marginal_xs": {"x_min": -8.0, "x_max": 8.0, "n": 11}}
    assert read_manifest(tmp_path) == manifest


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    manifest = run({"experiment": "tomography", **SMALL_CONFIGS["tomography"]}, output_dir=tmp_path)
    versions = manifest["versions"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert sorted(versions) == ["blas", "blas_threads", "cvortho", "numpy", "platform"]
    assert versions["blas"] == f"{blas['name']} {blas['version']}"
    assert versions["platform"] == f"{platform.system()}-{platform.release()}-{platform.machine()}"
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    assert versions["blas_threads"] == {name: os.environ[name] for name in threads if name in os.environ}
    assert versions["blas_threads"]["OMP_NUM_THREADS"] == "3"
    assert read_manifest(tmp_path) == manifest


class TestRunQubitWigner:
    def test_four_maps(self, tmp_path):
        config = {
            "experiment": "qubit_wigner",
            "trunc": 30,
            "eta": 0.6,
            "grid": {"nx": 61, "np": 61},
        }
        manifest = run(config, output_dir=tmp_path)
        maps = [e for e in manifest["files"] if e["kind"] == "wigner-grid"]
        assert len(maps) == 4
        report = json.loads((tmp_path / "report.json").read_text())
        kinds = {e["path"]: e["kind"] for e in manifest["files"]}
        for entry in report["maps"]:
            assert entry["grid_integral"] == pytest.approx(1.0, abs=1e-4)
            assert kinds[entry["file"]] == "wigner-grid"
            values = np.load(tmp_path / entry["file"], allow_pickle=False)
            assert values.shape == (61, 61) and values.min() == entry["wigner_min"]
        assert PhaseGrid(**report["grid"]) == PhaseGrid(**{**DEFAULTS["grid"], "nx": 61, "np": 61})


class TestRunNumberScheme:
    def test_orthogonalizes_coherent(self, tmp_path):
        config = {
            "experiment": "number_scheme",
            "trunc": 40,
            "grid": {"nx": 41, "np": 41},
            "sampling": {"phases": 3},
            "marginal_xs": {"n": 201},
        }
        run(config, output_dir=tmp_path)
        # one marginal file per state, whatever the phase count
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "density_input.json", "density_output.json", "manifest.json", "marginal_input.npy", "marginal_output.npy",
            "report.json", "wigner_input.npy", "wigner_output.npy"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["overlap_with_input"] < 1e-8
        assert report["beam_splitter_theta"] == pytest.approx(math.atan(0.5), abs=1e-6)
        assert {label: len(masses) for label, masses in report["marginal_mass"].items()} == {"input": 3, "output": 3}
        assert all(abs(mass - 1.0) <= 1e-6 for masses in report["marginal_mass"].values() for mass in masses)


class TestRunTomography:
    def test_report_states_the_mass_that_the_target_keeps(self, tmp_path):
        # project_density renormalizes the top-left dim x dim block of the true state: at alpha = 5 the 30 levels
        # of the target keep P(n < 30) of the coherent state that the 60-level basis renormalizes
        config = {"experiment": "tomography", "trunc": 60, "input_state": {"alpha": [5.0, 0.0]},
                  "sampling": {"phases": 2, "samples_per_phase": 100}, "reconstruction": {"dim": 30, "max_iter": 1}}
        run(config, output_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["target_mass"] - pdtr(29, 25) / pdtr(59, 25)) <= 1e-12
        assert abs(report["target_mass"] - 0.8179) <= 1e-4

    def test_round_trip_artifacts(self, tmp_path):
        config = {
            "experiment": "tomography",
            "input_state": {"kind": "fock", "n": 0},
            "trunc": 12,
            "sampling": {"phases": 4, "samples_per_phase": 2000, "seed": 7},
            "reconstruction": {"dim": 8, "max_iter": 150, "tol": 1e-9},
        }
        manifest = run(config, output_dir=tmp_path)
        paths = {e["path"] for e in manifest["files"]}
        assert {"samples.npy", "rho_hat.json", "rho_true.json", "likelihood.npy", "report.json"} <= paths
        rho_hat = density_from_json(json.loads((tmp_path / "rho_hat.json").read_text()))
        target = fock_state(0, Truncation(8)).to_density()
        assert fidelity(rho_hat, target) >= 0.99
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fidelity_vs_true"] >= 0.99

    def test_sample_and_likelihood_files_hold_the_run_bits(self, tmp_path):
        # a -0.0 phase keeps its sign bit in the file, and the trace is the one MaxLik returns on the same samples
        config = {"experiment": "tomography", "trunc": 16, "eta": 0.9,
                  "sampling": {"phases": [-0.0, 1.0], "samples_per_phase": 40, "seed": 3},
                  "reconstruction": {"dim": 5, "max_iter": 4}}
        manifest = run(config, output_dir=tmp_path)
        kinds = {e["path"]: e["kind"] for e in manifest["files"]}
        assert kinds["samples.npy"] == "samples-npy" and kinds["likelihood.npy"] == "likelihood-npy"
        rho = apply_loss(coherent_state(1.0, Truncation(16)).to_density(), 0.9)
        drawn = sample_quadratures(rho, (-0.0, 1.0), 40, 3)
        assert math.copysign(1.0, drawn[0, 0]) == -1.0
        samples = np.load(tmp_path / "samples.npy", allow_pickle=False)
        assert samples.dtype.str == "<f8" and samples.shape == (80, 2)
        assert np.array_equal(samples.view(np.int64), drawn.view(np.int64))
        trace = maxlik_reconstruct(drawn, dim=5, max_iter=4).log_likelihood_trace
        likelihood = np.load(tmp_path / "likelihood.npy", allow_pickle=False)
        assert likelihood.dtype.str == "<f8" and likelihood.shape == (trace.size, 2)
        assert likelihood[:, 0].tolist() == list(range(trace.size))
        assert np.array_equal(likelihood[:, 1].view(np.int64), trace.view(np.int64))

    def test_the_sample_file_is_the_reconstruction_input(self, tmp_path):
        # the default tomography's samples, reloaded from samples.npy, give the run's estimate and trace byte for byte
        config = {"experiment": "tomography", "reconstruction": {"max_iter": 25}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
        recon = cli._merged(config)["reconstruction"]
        result = maxlik_reconstruct(np.load(tmp_path / "out" / "samples.npy", allow_pickle=False), **recon)
        assert density_json_text(result.rho_hat) == (tmp_path / "out" / "rho_hat.json").read_text(encoding="utf-8")
        trace = result.log_likelihood_trace
        likelihood = b"".join(npy_buffers(np.column_stack([np.arange(trace.size), trace])))
        assert likelihood == (tmp_path / "out" / "likelihood.npy").read_bytes()

    def test_report_states_stop_reason(self, tmp_path):
        config = {
            "experiment": "tomography",
            "trunc": 16,
            "sampling": {"phases": 2, "samples_per_phase": 300, "seed": 3},
            "reconstruction": {"dim": 5, "max_iter": 4, "tol": 1e-9},
        }
        run(config, output_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["iterations_used"] == 4
        assert report["stop_reason"] == "max_iter"
        assert report["loglik_gap"] > 0.0


    def test_transform_orthogonalize_is_sampled(self, tmp_path):
        config = {
            "experiment": "tomography",
            "transform": "orthogonalize",
            "trunc": 20,
            "sampling": {"phases": 2, "samples_per_phase": 200, "seed": 5},
            "reconstruction": {"dim": 6, "max_iter": 3, "tol": 1e-9},
        }
        run(config, output_dir=tmp_path)
        psi = coherent_state(1.0, Truncation(20))
        perp = orthogonalize(psi, OrthogonalizerSpec.from_state(OperatorKind.CREATION, psi))
        expected = project_density(perp.to_density(), Truncation(6))
        rho_true = density_from_json(json.loads((tmp_path / "rho_true.json").read_text()))
        assert np.max(np.abs(rho_true.elems - expected.elems)) < 1e-12

    def test_lossy_reference_is_the_sampled_state_cut_to_dim(self, tmp_path):
        # loss first, then the cut: the cut first would differ by about 0.03 in one entry here
        config = {
            "experiment": "tomography",
            "input_state": {"kind": "coherent", "alpha": [2.0, 0.0]},
            "trunc": 30,
            "eta": 0.9,
            "sampling": {"phases": 2, "samples_per_phase": 200, "seed": 5},
            "reconstruction": {"dim": 8, "max_iter": 2},
        }
        run(config, output_dir=tmp_path)
        rho_true = coherent_state(2.0, Truncation(30)).to_density()
        expected = project_density(apply_loss(rho_true, 0.9), Truncation(8))
        rho_lossy = density_from_json(json.loads((tmp_path / "rho_lossy.json").read_text()))
        assert np.max(np.abs(rho_lossy.elems - expected.elems)) < 1e-12


def test_every_default_run_and_verify_need_no_scipy(tmp_path):
    # the package needs numpy alone: with scipy made unimportable, each experiment's default config, a lossy map and
    # a heralded run write their files, and the battery passes
    script = (
        "import sys\nsys.modules['scipy'] = None\nimport cvortho.cli as cli\n"
        "configs = [{'experiment': e} for e in cli.EXPERIMENTS if e != 'verify']\n"
        "configs += [{'experiment': 'qubit_wigner', 'eta': 0.6}, {'experiment': 'orthogonalize', 'route': 'heralded'}]\n"
        "for i, config in enumerate(configs):\n    cli.run(config, str(i))\n"
        "raise SystemExit(cli.main(['verify']))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "16/16 checks passed" in done.stdout


class TestDeterminism:
    def test_identical_manifests(self, tmp_path):
        config = {
            "experiment": "tomography",
            "input_state": {"kind": "coherent", "alpha": 0.5},
            "trunc": 12,
            "sampling": {"phases": 3, "samples_per_phase": 500, "seed": 99},
            "reconstruction": {"dim": 6, "max_iter": 40, "tol": 1e-9},
        }
        m1 = run(config, output_dir=tmp_path / "a")
        m2 = run(config, output_dir=tmp_path / "b")
        assert m1["files"] == m2["files"]

    def test_two_processes_write_the_same_bytes(self, tmp_path):
        # Two fresh processes run the same five configs, each through the CLI into its default directory, out: the
        # "cold" one at OPENBLAS_NUM_THREADS=1, the "warm" one at 2 and in another order, number_scheme first, so a
        # run that kept state for the next would show.  Each config takes products past the size below which OpenBLAS
        # runs a gemm on one thread: the default 241 x 241 maps and 1601-point marginals, 100,000 marginal points
        # (one row of the marginal's product passes it), criterion 8's 500,000 samples, and 40 phases of 20,000
        # samples at reconstruction.dim 20, whose four MaxLik products each pass it.  Every file of each
        # manifest must match byte for byte, and the manifests too but for versions.blas_threads, each side's count.
        # Every .npy must load without pickles as C-order <f8 in the shape that the report states: a marginal (P, n)
        # with the report's marginal_mass as its rows' trapezoid integrals, a Wigner grid (nx, np) with the report's
        # grid_integral, samples.npy one (phase, x) row per sample and likelihood.npy one (iteration,
        # log-likelihood) row per sweep.
        configs = {
            "qubit_wigner": {"eta": 0.6},
            "orthogonalize": {"route": "heralded", "marginal_xs": {"n": 100000}},
            "number_scheme": {},
            "tomography": {"transform": "qubit", "input_state": {"kind": "coherent", "alpha": [1.0, 0.0]}, "trunc": 30,
                           "eta": 0.6, "sampling": {"phases": 10, "samples_per_phase": 50000, "seed": 202},
                           "reconstruction": {"dim": 15, "max_iter": 5, "tol": 1e-9}},
            "tomography_past_criterion_8": {"experiment": "tomography", "trunc": 30, "eta": 0.6,
                                            "input_state": {"kind": "coherent", "alpha": [1.0, 0.0]},
                                            "sampling": {"phases": 40, "samples_per_phase": 20000, "seed": 34},
                                            "reconstruction": {"dim": 20, "max_iter": 5, "tol": 1e-9}},
        }
        for name, config in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps({"experiment": name, **config}))
        script = ("import os, sys\nfrom cvortho.cli import main\nfor name in sys.argv[1:]:\n"
                  "    os.mkdir(name)\n    os.chdir(name)\n    assert main(['run', f'../../{name}.json']) == 0\n"
                  "    os.chdir('..')\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        orders = {"cold": ("1", list(configs)),
                  "warm": ("2", ["number_scheme", "qubit_wigner", "orthogonalize", "tomography_past_criterion_8",
                                 "tomography"])}
        processes = []
        for label, (threads, order) in orders.items():
            (tmp_path / label).mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            processes.append(subprocess.Popen([sys.executable, "-c", script, *order], cwd=tmp_path / label, env=env,
                                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
        for process in processes:
            assert process.wait(timeout=120) == 0, process.stderr.read()
            process.stderr.close()

        for name, config in configs.items():
            cold, warm = tmp_path / "cold" / name / "out", tmp_path / "warm" / name / "out"
            manifests = read_manifest(cold), read_manifest(warm)
            for threads, manifest in zip("12", manifests):
                assert manifest["versions"].pop("blas_threads")["OPENBLAS_NUM_THREADS"] == threads
            assert manifests[0] == manifests[1], name
            for entry in manifests[0]["files"]:
                assert (cold / entry["path"]).read_bytes() == (warm / entry["path"]).read_bytes(), (name, entry)
            report = json.loads((cold / "report.json").read_text())
            arrays = {path.name: np.load(path, allow_pickle=False) for path in sorted(cold.glob("*.npy"))}
            for path, array in arrays.items():
                assert array.dtype.str == "<f8" and array.flags.c_contiguous, (name, path)
            masses = report.get("marginal_mass", {})
            assert sorted(path for path in arrays if path.startswith("marginal_")) == sorted(
                f"marginal_{label}.npy" for label in masses)
            if masses:
                xs, phases = marginal_axis(report), report["phases"]
                assert xs.size == {**DEFAULTS["marginal_xs"], **config.get("marginal_xs", {})}["n"]
            for label, mass in masses.items():
                rows = arrays[f"marginal_{label}.npy"]
                assert rows.shape == (len(phases), xs.size), (name, label)
                assert np.trapezoid(rows, xs, axis=-1).tolist() == mass, (name, label)
            if "maps" in report:
                grid = PhaseGrid(**report["grid"])
                maps = {entry["file"]: entry["grid_integral"] for entry in report["maps"]}
                assert sorted(path for path in arrays if path.startswith("wigner_")) == sorted(maps)
                for path, integral in maps.items():
                    assert arrays[path].shape == (grid.nx, grid.np) and grid.integral(arrays[path]) == integral, path
            if "sampling" in config:
                sampling = config["sampling"]
                assert arrays["samples.npy"].shape == (sampling["phases"] * sampling["samples_per_phase"], 2)
                assert arrays["likelihood.npy"].shape == (report["iterations_used"] + 1, 2)

    def test_seed_changes_samples(self, tmp_path):
        base = {
            "experiment": "tomography",
            "trunc": 16,
            "sampling": {"phases": 2, "samples_per_phase": 200, "seed": 1},
            "reconstruction": {"dim": 5, "max_iter": 10, "tol": 1e-9},
        }
        m1 = run(base, output_dir=tmp_path / "a")
        base["sampling"]["seed"] = 2
        m2 = run(base, output_dir=tmp_path / "b")
        sha = {e["path"]: e["sha256"] for e in m1["files"]}
        sha2 = {e["path"]: e["sha256"] for e in m2["files"]}
        assert sha["samples.npy"] != sha2["samples.npy"]


def test_artifact_path_written_twice_is_refused(tmp_path):
    writer = cli._ArtifactWriter(tmp_path)
    writer.write("a.csv", "marginal-csv", "first\n")
    with pytest.raises(ValueError, match="'a.csv' was already written"):
        writer.write("a.csv", "marginal-csv", "second\n")
    assert (tmp_path / "a.csv").read_text() == "first\n"
    assert [e["path"] for e in writer.manifest({})["files"]] == ["a.csv"]


def test_marginal_points_with_overflowing_squares_are_refused(tmp_path, capsys):
    # marginal takes the square of each point in hermite_functions: validate and run refuse the bounds in the same words
    config = {"experiment": "orthogonalize", "marginal_xs": {"x_min": -1e200, "x_max": 1e200, "n": 11}}
    message = "marginal_xs: must be points whose squares are finite, got [-1e+200, 1e+200]"
    assert validate_config(config) == [message]
    with pytest.raises(ValueError) as raised:
        run(config, tmp_path / "out")
    assert str(raised.value) == f"invalid config: {message}"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("theta", [0, math.pi / 2, math.pi])
def test_heralded_auto_beta_at_a_degenerate_angle_is_refused(tmp_path, capsys, theta):
    # sin(theta) = 0 leaves auto beta undefined; cos(theta) = 0 blocks the added photon and zeroes auto beta
    config = {"experiment": "orthogonalize", "route": "heralded", "herald": {"theta": theta}}
    assert validate_config(config) == [f"herald.theta: must be an angle with sin(theta) and cos(theta) nonzero, got {theta!r}"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert "herald.theta" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, found", [
    # auto beta = cot(pi/4) <a_dag> = 3 at alpha = 3, whose coherent ancilla needs 20 levels
    ({"input_state": {"alpha": [3.0, 0.0]}}, "herald.theta: a coherent ancilla of |beta|=3 "
     "needs herald.dim >= 20 at tail_tol 0.005, got 12"),
    # auto beta = cot(1e-6) <a_dag> is about 1e6, whose ancilla amplitudes e^{-|beta|^2/2} (1, beta) are 0, so the
    # herald is refused before any basis is sized
    ({"herald": {"theta": 1e-6}}, "herald.theta: herald outcome (1, 0) has vanishing weight (0.000e+00)"),
    # auto beta = 1 at alpha = 1 needs 6 levels
    ({"herald": {"dim": 3}}, "herald.theta: a coherent ancilla of |beta|=1 needs herald.dim >= 6 at tail_tol 0.005, "
     "got 3"),
])
def test_heralded_auto_beta_past_the_ancilla_basis_names_the_herald_leaves(tmp_path, capsys, config, found):
    # auto beta depends on the input state's <a_dag>, which validate finds by preparing the heralded state
    config = {"experiment": "orthogonalize", "route": "heralded", **config}
    assert validate_config(config) == [found]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == found
    assert not (tmp_path / "out").exists()


def test_every_herald_basis_that_holds_the_ancilla_writes_the_same_bytes(tmp_path):
    # the herald reads the ancilla's exact |0> and |1> amplitudes, so herald.dim only gates which betas run: auto beta
    # is 1 on the default input, which 12 and 40 levels both hold; 10**20 is past 2^53 levels, 10**400 the float range
    def digests(i, dim):
        config = {"experiment": "orthogonalize", "route": "heralded", "herald": {"dim": dim}}
        assert validate_config(config) == []
        return {entry["path"]: entry["sha256"] for entry in run(config, tmp_path / str(i))["files"]}

    first, *others = (digests(i, dim) for i, dim in enumerate((12, 40, 10**20, 10**400)))
    assert others == [first] * 3


def test_explicit_herald_beta_past_the_ancilla_basis_is_refused(tmp_path, capsys):
    config = {"experiment": "orthogonalize", "route": "heralded", "herald": {"beta": [3.0, 0.0]}}
    message = "herald.beta: a coherent ancilla of |beta|=3 needs herald.dim >= 20 at tail_tol 0.005, got 12"
    assert validate_config(config) == [message]
    assert validate_config({**config, "herald": {"beta": [3.0, 0.0], "dim": 20}}) == []
    # the herald basis defaults to min(trunc, 12) levels: |beta| = 2 fits 12, not 10
    assert validate_config({**config, "herald": {"beta": 2.0}}) == []
    assert validate_config({**config, "trunc": 10, "input_state": {"alpha": 0.5}, "herald": {"beta": 2.0}}) == [
        "herald.beta: a coherent ancilla of |beta|=2 needs herald.dim >= 12 at tail_tol 0.005, got 10"]
    # the herald comes before the basis: from |beta| near 8 on, e^{-|beta|^2/2} empties both branches, at any basis,
    # |beta|^2 past the float range and a |beta| that is itself past it (where abs() of the complex number raises) too
    assert validate_config({**config, "herald": {"beta": [10.0, 0.0]}}) == [
        "herald.beta: herald outcome (1, 0) has vanishing weight (1.525e-42)"]
    for beta, dim in (([1e308, 1e308], None), ([1.7e308, 1.7e308], None), ([1e200, 0.0], 10**400)):
        assert validate_config({**config, "herald": {"beta": beta, "dim": dim}}) == [
            "herald.beta: herald outcome (1, 0) has vanishing weight (0.000e+00)"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [{"experiment": "orthogonalize"}, {"experiment": "number_scheme"},
                                    {"experiment": "orthogonalize", "route": "heralded"}])
def test_run_failing_before_its_first_artifact_leaves_no_directory(tmp_path, capsys, monkeypatch, config):
    # a config that validates has no physics failure left for its run, so one is injected into the artifact stage,
    # in the marginals that come before its first file
    def failing(*args):
        raise ValueError("injected")

    monkeypatch.setattr(cli, "marginal", failing)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    assert "run failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _json_leaves(value):
    """The leaves of a JSON value, depth first, dict keys in sorted order."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in [key, *_json_leaves(value[key])]]
    return [leaf for item in value for leaf in _json_leaves(item)] if isinstance(value, list) else [value]


@pytest.mark.parametrize("amps", [[1e200, 1e200], [1e-200, [1e-200, 0.0]]])
def test_custom_amplitudes_near_the_float_range_give_the_unit_state(tmp_path, amps):
    # the norm of the first overflows and that of the second underflows, unless the amplitudes are scaled first:
    # each writes what [1, 1] writes, to 1e-15
    outdirs = (tmp_path / "unit", tmp_path / "scaled")
    for outdir, values in zip(outdirs, ([1, 1], amps)):
        config = {"experiment": "orthogonalize", "input_state": {"kind": "custom", "amps": values}, "trunc": 8}
        assert validate_config(config) == []
        manifest = run(config, outdir)
    for entry in manifest["files"]:
        path = entry["path"]
        if path.endswith(".npy"):
            first, second = (np.load(outdir / path, allow_pickle=False) for outdir in outdirs)
        elif entry["kind"] == "density-json":
            first, second = (density_from_json(json.loads((outdir / path).read_text())).elems for outdir in outdirs)
        else:
            first, second = (_json_leaves(json.loads((outdir / path).read_text())) for outdir in outdirs)
            assert [v for v in first if isinstance(v, str)] == [v for v in second if isinstance(v, str)], path
            first, second = ([v for v in values if not isinstance(v, str)] for values in (first, second))
        assert np.max(np.abs(np.subtract(first, second))) <= 1e-15, path


@pytest.mark.parametrize("config, weight", [
    ({"experiment": "orthogonalize", "trunc": 12, "input_state": {"kind": "custom", "amps": [1] + [0] * 10 + [1]}},
     "5.000e-01"),
    ({"experiment": "orthogonalize", "trunc": 40, "input_state": {"kind": "fock", "n": 39}}, "1.000e+00"),
])
def test_creation_orthogonalizer_input_on_the_top_level_is_refused(tmp_path, capsys, config, weight):
    # the truncated a_dag sends the top level to 0: the first config would write |1> at overlap 0, the second
    # report an eigenstate, where on a wider basis both outputs keep the top level's share
    (message,) = validate_config(config)
    assert re.match(rf"^trunc: top-level weight {re.escape(weight)} exceeds tail_tol 1e-08 "
                    r"\(creation-operator input\); retry with dim >= \d+$", message), message
    with pytest.raises(ValueError, match=re.escape(f"invalid config: {message}")):
        run(config, tmp_path / "out")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    {"experiment": "qubit_wigner", "qubit_c": [1.0]},
    {"experiment": "tomography", "transform": "qubit", "qubit_c_single": 1.0,
     "sampling": {"phases": 2, "samples_per_phase": 100}, "reconstruction": {"dim": 10, "max_iter": 3}},
])
def test_qubit_output_on_the_top_level_is_refused(tmp_path, capsys, config):
    # c = 1 on |8> of a 10-level basis gives (3|9> + |8>) / sqrt(10): 90% of the output on the top level, which
    # orthogonalize's tail guard refuses for a qubit as for an orthogonalized state
    config = {**config, "trunc": 10, "input_state": {"kind": "fock", "n": 8}}
    message = "trunc: top-level weight 9.000e-01 exceeds tail_tol 1e-08 (transformed output); retry with dim >= 18"
    assert validate_config(config) == [message]
    with pytest.raises(ValueError, match=re.escape(f"invalid config: {message}")):
        run(config, tmp_path / "out")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "out").exists()


class TestCliEntry:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "orthogonalize"}))
        assert main(["validate", str(cfg)]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_validate_reports_violations(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "orthogonalize", "trunc": 1}))
        assert main(["validate", str(cfg)]) == 1
        assert "trunc" in capsys.readouterr().out

    @pytest.mark.parametrize("text, error", [(None, "cannot read config: "), ("{", "config is not valid JSON: ")],
                             ids=["missing", "not_json"])
    def test_validate_unreadable_file(self, tmp_path, capsys, text, error):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(error)

    def test_run_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "orthogonalize",
            "trunc": 30,
        }))
        out = tmp_path / "real"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        assert (out / "manifest.json").exists()

    def test_run_invalid_config_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "orthogonalize", "eta": 7}))
        assert main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize("config", [
        {"experiment": "tomography", "sampling": None},
        {"experiment": "tomography", "sampling": 5},
        ["experiment", "tomography"],
        3,
    ])
    def test_run_reports_a_non_object(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_validates_once(self, tmp_path, monkeypatch):
        # validation prepares the states, and the runner takes them as they are: nothing is prepared twice
        calls = []
        checked, prepare = cli._checked, cli._prepare
        monkeypatch.setattr(cli, "_checked", lambda config: calls.append("validate") or checked(config))
        monkeypatch.setattr(cli, "_prepare", lambda cfg: calls.append("prepare") or prepare(cfg))
        config = {"experiment": "orthogonalize", "trunc": 20}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
        assert calls == ["validate", "prepare"]
        calls.clear()
        run(config, tmp_path / "again")
        assert calls == ["validate", "prepare"]

    def test_validate_raises_what_is_not_a_library_error(self, monkeypatch):
        # only a ValueError, the base of every library error, is a config's fault; any other class is a bug
        def broken(cfg):
            raise TypeError("injected")

        monkeypatch.setattr(cli, "_input", broken)
        with pytest.raises(TypeError, match="injected"):
            validate_config({"experiment": "orthogonalize"})

    def test_run_has_no_seed_option(self, tmp_path, capsys):
        # the seed has one spelling, sampling.seed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "tomography"}))
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cfg), "--seed", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 4" in capsys.readouterr().err


class TestVerifyBattery:
    def test_all_checks_pass_via_config_route(self, tmp_path):
        manifest = run({"experiment": "verify"}, output_dir=tmp_path)
        assert {e["path"] for e in manifest["files"]} == {"report.json"}
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"] is True
        assert all(check["passed"] for check in report["checks"])

    def test_failed_battery_leaves_its_report_and_names_the_failed_checks(self, tmp_path, monkeypatch):
        rows = [("kept", True, "fine"), ("first", False, "off"), ("second", False, "off")]
        monkeypatch.setattr(cli, "run_battery", lambda: rows)
        with pytest.raises(RuntimeError, match="^verification battery failed: first, second$"):
            run({"experiment": "verify"}, output_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"] is False
        assert [check["passed"] for check in report["checks"]] == [True, False, False]
        assert not (tmp_path / "manifest.json").exists()

    def test_cli_verify_exit_code(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "16/16 checks passed" in out
