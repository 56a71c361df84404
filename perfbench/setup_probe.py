"""One set-up sample: import cvortho and run the warm-up ops, then print ``ready``.

Started by run.py, which times it from process spawn to the ``ready`` line.
Usage: ``python3 perfbench/setup_probe.py <scratch dir> <kind> [<kind> ...]``.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    cli = workloads.load_cli(Path(__file__).resolve().parent.parent)
    workloads.warm_up(cli, sys.argv[2:], Path(sys.argv[1]))
    print("ready", flush=True)
