"""Steadiness sweep: run workloads repeatedly on one commit, one run at a time.

    python3 benchmarks/sweep.py --runs 10 --first-seed 101 [--workloads a,b]
                                [--out sweep.json] [--compare benchmarks/baseline.json]

Each run uses its own seed (first-seed, first-seed + 1, ...).  For every
end-to-end metric the sweep prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median, and flags a spread wider than the metric's bound in
BENCHMARK.json ("WIDE"), or wider than a third of it ("over 1/3").  With
--compare it also flags a median worse than the recorded one by more than
the bound; the recorded sweep must have used the same run length
(run_seconds in BENCHMARK.json).  Exits 1 when any flag other than
"over 1/3" is raised, or when a run's output is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def worse_by(new, old, better):
    """Share by which `new` is worse than `old` (negative when better)."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    parser.add_argument("--compare", default=None,
                        help="summary JSON of an earlier sweep to compare medians with")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    baseline = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            recorded = json.load(fh)
        if recorded["seconds"] != seconds:
            parser.error(f"{args.compare} was measured with {recorded['seconds']} s "
                         f"runs, BENCHMARK.json now asks for {seconds} s")
        baseline = recorded["workloads"]

    summary = {"seconds": seconds, "runs": args.runs,
               "first_seed": args.first_seed, "workloads": {}}
    flagged = False
    for name in names:
        per_metric = {m["name"]: [] for m in spec["end_to_end"]}
        provenance = None
        for k in range(args.runs):
            result, details = run_once(name, args.first_seed + k, seconds)
            if not result["correct"]:
                print(f"{name} seed {args.first_seed + k}: incorrect output "
                      f"{details.get('failures')}")
                flagged = True
            provenance = details["provenance"]
            for metric, entry in result["metrics"].items():
                per_metric[metric].append(entry["value"])
        rows = {}
        print(f"\n{name}  ({args.runs} runs x {seconds:g} s, commit "
              f"{provenance['git_commit'][:12]}, src {provenance['src_sha256_16']})")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'bound':>7}  flags")
        for m in spec["end_to_end"]:
            s = summarize(per_metric[m["name"]])
            flags = []
            if s["spread"] > m["bound"]:
                flags.append("WIDE")
            elif s["spread"] > m["bound"] / 3:
                flags.append("over 1/3")
            if baseline and name in baseline:
                old = baseline[name][m["name"]]["median"]
                s["worse_than_baseline"] = worse_by(s["median"], old, m["better"])
                if s["worse_than_baseline"] > m["bound"]:
                    flags.append(f"WORSE {s['worse_than_baseline']:+.3f}")
            flagged |= any(f != "over 1/3" for f in flags)
            rows[m["name"]] = s
            print(f"  {m['name']:<18}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['spread']:>9.4f}{m['bound']:>7.2f}  "
                  + " ".join(flags))
        summary["workloads"][name] = rows
        summary.setdefault("provenance", provenance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
