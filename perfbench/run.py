"""cvortho benchmark: one workload, closed loop, one client, one op in flight.

Usage::

    python3 perfbench/run.py --workload herald_sweep --seed 1 --seconds 30 --trace 0

Every op goes through ``cvortho.cli.run(config, output_dir)``, the public
entry point.  A run repeats the workload's fixed list of ops in rounds,
starting a round only if it is expected to end within ``--seconds`` (and
always at least one), and reports medians over rounds.  ``--trace 0``
prints the end-to-end metrics, with op times scaled to a reference host
speed (see hostspeed.py); ``--trace 1`` alternates untraced and traced
rounds and prints the per-layer metrics.  The first stdout line records the
seed, the generated configs and the environment; the last is the result
object.  See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# Per-op tolerance on |sum of span self times - op wall time|.
SELF_SUM_TOL_S = 1e-3
SELF_SUM_TOL_REL = 1e-3
# At two BLAS threads a 144^2 beam-splitter expm varied 14-496 ms between
# repeats, and Wigner checksums change with the thread count.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "min_fidelity": "1",
    "peak_rss_mb": "MB",
}

_SELF_S = (
    "homodyne.maxlik_reconstruct", "homodyne.sample_quadratures", "homodyne.write_samples_csv",
    "phasespace.wigner", "phasespace.write_wigner_grid", "phasespace.write_marginal_csv",
    "phasespace.marginal", "phasespace.apply_loss", "phasespace.hermite_functions",
    "fock.beam_splitter_op", "fock.displacement_op", "fock.density_to_json", "fock.fidelity",
    "schemes.heralded_addition_model", "schemes.number_scheme_model", "schemes.qubit_operator",
    "cli.run",
)
_CALLS = ("phasespace.wigner", "phasespace.marginal", "fock.beam_splitter_op", "cli.run")
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _SELF_S},
    **{f"{name}.calls": "count" for name in _CALLS},
    "homodyne.maxlik_reconstruct.s_per_iter": "s",
    "homodyne.maxlik_reconstruct.iterations": "count",
    "homodyne.maxlik_reconstruct.capped": "count",
    "homodyne.sample_quadratures.samples_per_s": "1/s",
    "homodyne.write_samples_csv.bytes": "B",
    "phasespace.write_wigner_grid.bytes": "B",
    "cli.artifact_bytes": "B",
    **{f"{module}.self_s": "s" for module in spans.MODULES},
    "trace.overhead_ratio": "1",
}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(kinds, scratch: Path) -> list:
    """Interpreter start to warmed-up cvortho, in fresh processes."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = scratch / f"probe{i}"
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(probe_dir), *kinds],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        times.append(elapsed)
    return times


class Round:
    """One pass over the workload's ops: timings, gate results and spans."""

    def __init__(self, cli, configs, scratch: Path, tracer=None, host=None):
        self.op_times = []  # net of host-speed sampling pauses
        self.scaled_times = []  # op_times scaled to the reference host speed
        self.checks = []
        self.failed = 0
        intervals = []
        for i, config in enumerate(configs):
            outdir = scratch / f"op{i:03d}"
            if tracer is not None:
                tracer.begin_op(i)
            start = time.perf_counter()
            try:
                manifest = cli.run(config, outdir)
            except Exception as err:  # an op that raises counts as failed, the run goes on
                manifest = None
                print(f"op {i} raised {type(err).__name__}: {err}", file=sys.stderr)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.end_op()
            intervals.append((start, start + elapsed))
            self.op_times.append(elapsed - (host.paused(start, start + elapsed) if host else 0.0))
            check = None
            if manifest is not None:
                try:
                    check = workloads.check_op(config, manifest, outdir)
                except (OSError, KeyError, TypeError, ValueError) as err:
                    print(f"op {i}: unreadable output: {err!r}", file=sys.stderr)
            if check is None or check["problems"]:
                self.failed += 1
                for problem in (check or {}).get("problems", []):
                    print(f"op {i}: {problem}", file=sys.stderr)
            self.checks.append(check)
            shutil.rmtree(outdir, ignore_errors=True)
        self.wall = sum(self.op_times)
        if host is not None:
            self.scaled_times = [t * host.factor(*iv) for t, iv in zip(self.op_times, intervals)]
        self.spans = tracer.spans if tracer is not None else None

    def checksums(self) -> list:
        return [c["checksums"] if c else None for c in self.checks]

    def total(self, field: str, kind=None) -> float:
        values = (c[field] if kind is None else c[field].get(kind, 0) for c in self.checks if c and field in c)
        return sum(values)


def trace_failures(traced: Round, reference: Round) -> int:
    """Ops whose checksums differ from the untraced round, or whose span self
    times do not add up to the op's wall time."""
    failures = 0
    totals = spans.op_self_totals(traced.spans)
    roots = [s.op for s in traced.spans if s.parent is None]
    checksums, expected = traced.checksums(), reference.checksums()
    for i, wall in enumerate(traced.op_times):
        if checksums[i] != expected[i]:
            print(f"op {i}: traced checksums differ from the untraced run", file=sys.stderr)
            failures += 1
        elif roots.count(i) != 1 or abs(totals.get(i, 0.0) - wall) > SELF_SUM_TOL_S + SELF_SUM_TOL_REL * wall:
            print(f"op {i}: span self times sum to {totals.get(i, 0.0):.6f} s, op took {wall:.6f} s",
                  file=sys.stderr)
            failures += 1
    return failures


def layer_metrics(traced: Round, overhead_ratio: float) -> dict:
    stats = spans.by_name(traced.spans)

    def self_s(name):
        return stats.get(name, (0, 0.0))[1]

    iterations = traced.total("iterations")
    samples_self = self_s("homodyne.sample_quadratures")
    capped = sum(1 for c in traced.checks if c and "iterations" in c and c["iterations"] >= c["max_iter"])
    out = {f"{name}.self_s": self_s(name) for name in _SELF_S}
    out.update({f"{name}.calls": stats.get(name, (0, 0.0))[0] for name in _CALLS})
    out.update({
        "homodyne.maxlik_reconstruct.s_per_iter":
            self_s("homodyne.maxlik_reconstruct") / iterations if iterations else 0.0,
        "homodyne.maxlik_reconstruct.iterations": iterations,
        "homodyne.maxlik_reconstruct.capped": capped,
        "homodyne.sample_quadratures.samples_per_s":
            traced.total("samples") / samples_self if samples_self > 0 else 0.0,
        "homodyne.write_samples_csv.bytes": traced.total("bytes", "samples-csv"),
        "phasespace.write_wigner_grid.bytes": traced.total("bytes", "wigner-grid"),
        "cli.artifact_bytes": sum(sum(c["bytes"].values()) for c in traced.checks if c),
        "trace.overhead_ratio": overhead_ratio,
    })
    for module in spans.MODULES:
        out[f"{module}.self_s"] = sum(total for name, (_, total) in stats.items()
                                      if name.startswith(module + "."))
    return out


def run_rounds(cli, configs, scratch: Path, seconds: float, trace: bool, host=None) -> list:
    """At least one round, then more while the next is expected to end within
    ``seconds``; with ``trace``, untraced and traced rounds alternate and the
    run ends on a traced one."""
    rounds = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds and (not trace or len(rounds) % 2 == 0):
            return rounds
        tracer = None
        if trace and len(rounds) % 2 == 1:
            tracer = spans.Tracer()
            tracer.install(sys.modules["cvortho"])
        try:
            rounds.append(Round(cli, configs, scratch, tracer, host))
        finally:
            if tracer is not None:
                tracer.uninstall()


def medians(dicts: list) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def timing(per_round: list) -> dict:
    """wall_s is the median round total.  The op percentiles are taken over
    the workload's ops, each op's time being its median over rounds, so that
    an op kind's slowest repeat does not stand in for the median."""
    per_op = [statistics.median(times) for times in zip(*per_round)]
    return {
        "wall_s": statistics.median(sum(times) for times in per_round),
        "op_p50_s": percentile(per_op, 0.5),
        "op_p90_s": percentile(per_op, 0.9),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy loads; set-up probes inherit the environment.
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    configs = workloads.generate(args.workload, args.seed)
    kinds = workloads.kinds(configs)
    scratch = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    try:
        cli = workloads.load_cli(ROOT)
        setup = [] if args.trace else measure_setup(kinds, scratch)
        workloads.warm_up(cli, kinds, scratch)
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "configs_sha256": hashlib.sha256(workloads.configs_bytes(configs)).hexdigest(),
            "configs": configs, "environment": environment(),
        }, sort_keys=True), flush=True)
        if args.trace:
            rounds = run_rounds(cli, configs, scratch, args.seconds, True)
        else:
            with hostspeed.HostSpeed() as host:
                rounds = run_rounds(cli, configs, scratch, args.seconds, False, host)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(r.failed for r in rounds)
    attempted = sum(len(r.op_times) for r in rounds)
    if args.trace:
        plain, traced = rounds[0::2], rounds[1::2]
        overhead = (statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain)) - 1.0
        failed += sum(trace_failures(t, plain[0]) for t in traced)
        values = medians([layer_metrics(t, overhead) for t in traced])
        units = PER_LAYER
        # Every traced function of the last traced round: name -> [calls, self seconds].
        print(json.dumps({"spans": spans.by_name(traced[-1].spans)}, sort_keys=True))
    else:
        fidelities = [c["fidelity"] for r in rounds for c in r.checks if c and c["fidelity"] is not None]
        values = {
            # Set-up runs before the timer starts; the run's mean host speed stands in.
            "setup_s": statistics.median(setup) * host.factor(-math.inf, math.inf),
            **timing([r.scaled_times for r in rounds]),
            "min_fidelity": min(fidelities, default=0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(json.dumps({
            "rounds": len(rounds), "host_samples": len(host.samples),
            "unscaled": {"setup_s": statistics.median(setup), **timing([r.op_times for r in rounds])},
        }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
