"""Check that the traced run's counts repeat exactly on one seed.

    python3 benchmarks/repeat_counts.py [--seed 3] [--workloads a,b]

Runs `run.py --trace 1` twice per workload and compares every per-layer
metric whose unit is a count or bytes.  Later changes may cite these as
counts only while they repeat.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from sweep import run_once

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "B")
# counts set by the tracer itself or by the kernel, not by the program
NOT_EXACT = ("trace.spans", "process.minor_faults_per_request")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in EXACT_UNITS and m["name"] not in NOT_EXACT]
    mismatches = 0
    for name in names:
        first, _ = run_once(name, args.seed, spec["run_seconds"], trace=1)
        second, _ = run_once(name, args.seed, spec["run_seconds"], trace=1)
        print(f"\n{name} (seed {args.seed})")
        for metric in exact:
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            if a == b == 0:
                continue
            status = "same" if a == b else "DIFFERENT"
            mismatches += a != b
            print(f"  {metric:<52}{a:>16g}{b:>16g}  {status}")
    print(f"\n{mismatches} count(s) differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
