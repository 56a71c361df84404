"""Run every workload untraced and traced, and print each metric with its unit.

Usage: ``python3 perfbench/suite.py [--seed N] [--seconds S]``

Includes the workloads left out of BENCHMARK.json, with the reason, and
prints ``fail_ratio`` (failed / attempted ops) for each run.  Exits non-zero
if any run fails or reports an incorrect result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    all_correct = True
    for workload in workloads.WORKLOADS:
        note = workloads.DROPPED.get(workload)
        print(f"== {workload}" + (f"  (not in BENCHMARK.json: {note})" if note else ""))
        for trace in (0, 1):
            result = run_one(workload, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            fail_ratio = result["failed"] / result["attempted"]
            print(f"  -- trace {trace}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            print(f"  {'fail_ratio':44s} {fail_ratio:<14.6g} 1")
            for name, metric in result["metrics"].items():
                print(f"  {name:44s} {metric['value']:<14.6g} {metric['unit']}")
        sys.stdout.flush()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
