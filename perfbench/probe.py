"""Set-up probe: a fresh process imports delayvar, builds one workload's
inputs, prints ``ready`` and exits.  run.py times it from spawn to that line.

Usage: python3 perfbench/probe.py <workload> <seed> <tmp dir>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

workload, seed, tmp = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.build(workload, workloads.Params.from_seed(seed), tmp)
print("ready", flush=True)
