import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cvortho.cli as cli
from cvortho import (
    OperatorKind,
    OrthogonalizerSpec,
    Truncation,
    coherent_state,
    density_from_json,
    fidelity,
    fock_state,
    orthogonalize,
    project_density,
)
from cvortho.cli import DEFAULTS, EXPERIMENTS, SCHEMA, main, run, validate_config


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


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
        ({"sampling": {"eta": "0.5"}}, "sampling.eta"),
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

    def test_heralded_orthogonalize_rejects_number_scheme(self, tmp_path):
        config = {"experiment": "orthogonalize", "route": "heralded", "scheme": {"kind": "number"}}
        problems = validate_config(config)
        assert len(problems) == 1 and problems[0].startswith("route:")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_tomography_rejects_reconstruction_dim_above_trunc(self, tmp_path):
        config = {"experiment": "tomography", "trunc": 12}
        assert validate_config(config) == ["reconstruction.dim: must be at most trunc (12) for tomography, got 15"]
        assert validate_config({**config, "reconstruction": {"dim": 12}}) == []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, message", [
        ({"experiment": "tomography", "sampling": {"phases": [0.0, -0.0]}},
         "sampling.phases: must be a count >= 1 or a nonempty list of finite numbers, "
         "distinct as numbers and to 4 decimals, got [0.0, -0.0]"),
        ({"experiment": "number_scheme", "sampling": {"phases": 31417}},
         "sampling.phases: must be at most 31416 for number_scheme, "
         "whose marginal file names give each phase to 4 decimals, got 31417"),
        ({"experiment": "number_scheme", "sampling": {"phases": 10**12}},
         "sampling.phases: must be at most 31416 for number_scheme, "
         "whose marginal file names give each phase to 4 decimals, got 1000000000000"),
    ])
    def test_phase_collisions_rejected_before_the_run(self, tmp_path, config, message):
        assert validate_config(config) == [message]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_phase_count_limit_is_the_last_with_distinct_marginal_names(self):
        limit = cli._MAX_NAMED_PHASE_COUNT
        for count, distinct in ((limit, True), (limit + 1, False)):
            names = {cli.marginal_filename("", p) for p in cli.uniform_phases(count)}
            assert (len(names) == count) is distinct
        assert validate_config({"experiment": "number_scheme", "sampling": {"phases": limit}}) == []
        assert validate_config({"experiment": "tomography", "sampling": {"phases": limit + 1}}) == []

    def test_experiment_name_normalization(self):
        assert validate_config({"experiment": "QubitWigner"}) == []
        assert validate_config({"experiment": "number-scheme"}) == []


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
    def test_schema_covers_every_default_leaf(self):
        leaves = {f"{key}.{sub}" for key, value in DEFAULTS.items() if isinstance(value, dict) for sub in value}
        leaves |= {key for key, value in DEFAULTS.items() if not isinstance(value, dict)}
        assert set(SCHEMA) == leaves | {"experiment"}

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
        assume(not (path == "output_dir" and isinstance(value, str) and value))
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
        ({"sampling": {"phases": [0.1, 0.10001]}}, "sampling.phases"),
        ({"sampling": {"seed": True}}, "sampling.seed"),
        ({"output_dir": 3}, "output_dir"),
        ({"input_state": {"kind": "custom", "amps": [0.0, [0.0, 0.0]]}}, "input_state.amps"),
        ({"input_state": {"kind": "custom", "amps": [1.0] * 41}}, "input_state.amps"),
        ({"input_state": {"kind": "custom"}}, "input_state.amps"),
    ])
    def test_leaf_reported(self, fragment, field):
        problems = validate_config({"experiment": "tomography", **fragment})
        assert len(problems) == 1 and problems[0].startswith(field + ":"), problems


class TestRunOrthogonalize:
    def test_artifacts_and_report(self, tmp_path):
        config = {
            "experiment": "orthogonalize",
            "input_state": {"kind": "coherent", "alpha": [1.0, 0.0]},
            "trunc": 40,
        }
        manifest = run(config, output_dir=tmp_path)
        paths = {e["path"] for e in manifest["files"]}
        assert "marginal_input_phi0.0000.csv" in paths
        assert "marginal_output_phi0.0000.csv" in paths
        assert "report.json" in paths
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["overlap_with_input"] < 1e-10
        assert report["displaced_fock_fidelity"] > 1 - 1e-8

    def test_heralded_route(self, tmp_path):
        config = {
            "experiment": "orthogonalize",
            "route": "heralded",
            "trunc": 40,
        }
        run(config, output_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["overlap_with_input"] < 1e-8
        assert 0 < report["success_probability"] < 1

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
    "tomography": {"trunc": 16, "sampling": {"phases": 3, "samples_per_phase": 200, "seed": 4, "eta": 0.9},
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
        for entry in report["maps"]:
            assert entry["grid_integral"] == pytest.approx(1.0, abs=1e-4)


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
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["overlap_with_input"] < 1e-8
        assert report["beam_splitter_theta"] == pytest.approx(math.atan(0.5), abs=1e-6)


class TestRunTomography:
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
        assert {"samples.csv", "rho_hat.json", "rho_true.json", "likelihood.csv", "report.json"} <= paths
        rho_hat = density_from_json(json.loads((tmp_path / "rho_hat.json").read_text()))
        target = fock_state(0, Truncation(8)).to_density()
        assert fidelity(rho_hat, target) >= 0.99
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fidelity_vs_true"] >= 0.99

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
        assert sha["samples.csv"] != sha2["samples.csv"]


def test_artifact_path_written_twice_is_refused(tmp_path):
    writer = cli._ArtifactWriter(tmp_path)
    writer.write_text("a.csv", "marginal-csv", "first\n")
    with pytest.raises(ValueError, match="'a.csv' was already written"):
        writer.write_text("a.csv", "marginal-csv", "second\n")
    assert (tmp_path / "a.csv").read_text() == "first\n"
    assert [e["path"] for e in writer.manifest({})["files"]] == ["a.csv"]


def test_phases_equal_to_four_decimals_stop_the_run(tmp_path, monkeypatch):
    # validate refuses a count whose phases share a marginal file name; two such phases test the writer's own guard
    monkeypatch.setattr(cli, "uniform_phases", lambda count: (0.1, 0.10001))
    with pytest.raises(ValueError, match="'marginal_input_phi0.1000.csv' was already written"):
        run({"experiment": "number_scheme", **SMALL_CONFIGS["number_scheme"]}, output_dir=tmp_path)


@pytest.mark.parametrize("config", [
    {"experiment": "orthogonalize", "trunc": 12},  # alpha = 1 needs dim >= 13
    {"experiment": "orthogonalize", "route": "heralded", "herald": {"theta": 0}},  # no ancilla path
    {"experiment": "orthogonalize", "route": "heralded", "herald": {"dim": 3}},  # ancilla basis too small
])
def test_run_failing_before_its_first_artifact_leaves_no_directory(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    assert "run failed" in capsys.readouterr().err
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

    def test_validate_unreadable_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.json")]) == 2

    def test_run_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "orthogonalize",
            "trunc": 30,
            "output_dir": str(tmp_path / "ignored"),
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
    def test_run_with_seed_reports_a_non_object(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--seed", "4", "--output-dir", str(tmp_path / "out")]) == 2
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_validates_once(self, tmp_path, monkeypatch):
        calls = []
        validate = cli.validate_config
        monkeypatch.setattr(cli, "validate_config", lambda config: calls.append(1) or validate(config))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "orthogonalize", "trunc": 20}))
        assert main(["run", str(cfg), "--seed", "4", "--output-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


class TestVerifyBattery:
    def test_all_checks_pass_via_config_route(self, tmp_path):
        manifest = run({"experiment": "verify"}, output_dir=tmp_path)
        assert {e["path"] for e in manifest["files"]} == {"report.json"}
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"] is True
        assert all(check["passed"] for check in report["checks"])

    def test_cli_verify_exit_code(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "16/16 checks passed" in out
