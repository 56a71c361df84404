import json
import math

import pytest

from cvortho import density_from_json, fidelity, fock_state, Truncation
from cvortho.cli import main, run, validate_config


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

    def test_experiment_name_normalization(self):
        assert validate_config({"experiment": "QubitWigner"}) == []
        assert validate_config({"experiment": "number-scheme"}) == []


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

    def test_no_orphan_outputs(self, tmp_path):
        manifest = run({"experiment": "orthogonalize", "trunc": 30}, output_dir=tmp_path)
        listed = {e["path"] for e in manifest["files"]} | {"manifest.json"}
        on_disk = {p.name for p in tmp_path.iterdir()}
        assert on_disk == listed


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
