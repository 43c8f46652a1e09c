"""edgefol benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload classify_mix --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workers run one at a time, each in a fresh
interpreter (see worker.py).  With --trace 0 the run sets up SETUPS times
(the timed worker's own set-up in the middle, the others split before and
after it), reports the median set-up time, and measures the timed worker's
closed loop for --seconds seconds.  With --trace 1 it runs the workload's fixed request
list twice in fresh workers, untraced and then traced, and reports the
per-layer metrics plus the tracing overhead between the two.

The last line of standard output is the result object; the line before it
holds the details (provenance, tail percentile, class mix, failures).
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PACKAGE = os.path.join(ROOT, "src", "edgefol")
SETUPS = 7
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _worker(args, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {extra} exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {extra} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _src_hash():
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(args, requests):
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256_16": _src_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": requests,
    }


def run_untraced(args, deadline):
    def setup():
        return _worker(args, deadline, "--mode", "setup")["setup_s"]

    # spread over the run, so a slow spell of the host moves fewer of them
    setups = [setup() for _ in range(SETUPS // 2)]
    timed = _worker(args, deadline, "--mode", "timed", "--seconds", str(args.seconds))
    setups.append(timed["setup_s"])
    setups += [setup() for _ in range(SETUPS - 1 - SETUPS // 2)]
    lat = timed["latencies_s"]
    tail_s, tail_pct, n = tail(lat)
    ok = timed["attempted"] - timed["failed"]
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": ok / timed["wall_s"],
        "request_p50_ms": statistics.median(lat) * 1e3,
        "request_tail_ms": tail_s * 1e3,
        "ok_request_share": ok / timed["attempted"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    details = {
        "setup_samples_s": setups,
        "tail_percentile": tail_pct,
        "latency_samples": n,
        "wall_s": timed["wall_s"],
        "class_mix": timed["class_mix"],
        "input_stats": timed["input_stats"],
        "failures": timed["failures"],
    }
    return values, timed["attempted"], timed["failed"], details


def run_traced(args, deadline):
    plain = _worker(args, deadline, "--mode", "fixed", "--traced", "0")
    traced = _worker(args, deadline, "--mode", "fixed", "--traced", "1")
    values = dict(traced["layers"])
    values["trace.overhead_share"] = \
        (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    values["process.minor_faults_per_request"] = plain["minor_faults_per_request"]
    details = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans_file": traced["spans_file"],
        "failures": plain["failures"] + traced["failures"],
    }
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return values, attempted, failed, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"edgefol sources not found under {os.path.relpath(PACKAGE)}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            values, attempted, failed, details = run_traced(args, deadline)
        else:
            values, attempted, failed, details = run_untraced(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    section = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    details["provenance"] = provenance(args, attempted)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
