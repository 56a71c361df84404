"""Tests of the benchmark itself: python3 -m pytest -q perfbench/selftest.py

Named so that the repository's own test run does not collect it.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import hostspeed
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    first = workloads.configs_bytes(workloads.generate(workload, 3))
    assert first == workloads.configs_bytes(workloads.generate(workload, 3))
    assert first != workloads.configs_bytes(workloads.generate(workload, 4))


def test_sweep_draws_each_herald_dim_equally():
    dims = [c["herald"]["dim"] for c in workloads.generate("herald_sweep", 5)]
    assert len(dims) == workloads.SWEEP_OPS
    assert {d: dims.count(d) for d in workloads.SWEEP_DIMS} == {12: 40, 16: 40, 20: 40}


def test_self_times_of_a_nested_call_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3];  root -> b [5, 9]
    tree = [
        spans.Span("cli.run", 0.0, 10.0, None, 0),
        spans.Span("schemes.f", 1.0, 4.0, 0, 0),
        spans.Span("fock.g", 2.0, 3.0, 1, 0),
        spans.Span("phasespace.h", 5.0, 9.0, 0, 0),
        spans.Span("cli.run", 20.0, 21.5, None, 1),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.5]
    assert spans.op_self_totals(tree) == {0: 10.0, 1: 1.5}
    assert spans.by_name(tree)["cli.run"] == (2, 4.5)


def test_host_speed_pauses_and_factor():
    host = hostspeed.HostSpeed()
    nominal = hostspeed.REF_NOMINAL_S
    # samples at t=1 and t=3 inside the op [0.5, 3.5], one at t=10 far outside
    host.samples = [(1.0, 0.01, nominal), (3.0, 0.02, nominal / 2), (10.0, 0.01, nominal / 4)]
    assert host.paused(0.5, 3.5) == pytest.approx(0.03)
    assert host.factor(0.5, 3.5) == pytest.approx(1.5)
    assert host.factor(9.5, 9.6) == pytest.approx(4.0)


def test_host_speed_timer_samples_and_stops():
    import time

    with hostspeed.HostSpeed() as host:
        end = time.perf_counter() + 3 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    count = len(host.samples)
    assert count >= 2
    time.sleep(2 * hostspeed.INTERVAL_S)
    assert len(host.samples) == count


def test_tracer_wraps_import_sites_and_restores_them():
    cli = workloads.load_cli(ROOT)
    import cvortho.schemes

    original = cvortho.schemes.beam_splitter_op
    tracer = spans.Tracer()
    tracer.install(cvortho)
    try:
        assert cvortho.schemes.beam_splitter_op is not original
        assert cvortho.schemes.beam_splitter_op is cvortho.fock.beam_splitter_op
        assert cvortho.cli.beam_splitter_op is cvortho.fock.beam_splitter_op
        assert cli.run.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert cvortho.schemes.beam_splitter_op is original
    assert not hasattr(cli.run, "__wrapped__")


def _tiny_op(tmp_path):
    cli = workloads.load_cli(ROOT)
    config = workloads.WARM_UP["orthogonalize"]
    untraced = run.Round(cli, [config], tmp_path)
    tracer = spans.Tracer()
    import cvortho

    tracer.install(cvortho)
    try:
        traced = run.Round(cli, [config], tmp_path, tracer)
    finally:
        tracer.uninstall()
    return untraced, traced


def test_traced_round_matches_untraced_and_adds_up(tmp_path):
    untraced, traced = _tiny_op(tmp_path)
    assert untraced.failed == traced.failed == 0
    assert {s.name for s in traced.spans} >= {"cli.run", "schemes.heralded_addition_model",
                                               "fock.beam_splitter_op", "phasespace.marginal"}
    assert run.trace_failures(traced, untraced) == 0


def test_corrupted_span_report_counts_as_failure(tmp_path):
    untraced, traced = _tiny_op(tmp_path)
    child = next(s for s in traced.spans if s.parent is not None)
    child.start -= 1.0  # a child that starts before its parent: self times no longer add up
    assert run.trace_failures(traced, untraced) == 1
    child.start += 1.0
    assert run.trace_failures(traced, untraced) == 0
    traced.op_times[0] += 0.5  # an op wall time that the spans do not cover
    assert run.trace_failures(traced, untraced) == 1


def test_changed_checksum_counts_as_failure(tmp_path):
    untraced, traced = _tiny_op(tmp_path)
    changed = SimpleNamespace(spans=traced.spans, op_times=traced.op_times,
                              checksums=lambda: [{"report.json": "0" * 64}])
    assert run.trace_failures(changed, untraced) == 1


def test_corrupted_report_fails_the_gate(tmp_path):
    cli = workloads.load_cli(ROOT)
    config = workloads.WARM_UP["orthogonalize"]
    manifest = cli.run(config, tmp_path)
    assert workloads.check_op(config, manifest, tmp_path)["problems"] == []
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["overlap_with_input"] = 0.5
    report_path.write_text(json.dumps(report), encoding="utf-8")
    problems = workloads.check_op(config, manifest, tmp_path)["problems"]
    assert any("sha256" in p for p in problems)
    assert any("overlap_with_input" in p for p in problems)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - set(workloads.DROPPED)
