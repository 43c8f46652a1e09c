"""One fresh-interpreter benchmark worker (started by run.py, one at a time).

Set-up is timed in-process, from the first statement of this file to ready:
importing edgefol, generating the inputs from the seed and one untimed
warm-up request on a fixed input outside the timed list.  Then, by mode:

  setup   report the set-up time and exit
  timed   closed loop, one request at a time, for --seconds seconds
  fixed   the first `fixed_count` inputs once, with spans if --traced 1

The last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402


def _run_one(wl, item):
    """(result, problems) of one request; a request that raises has failed."""
    try:
        return wl.request(item), None
    except Exception as exc:  # the loop must go on and count the failure
        return None, [f"{type(exc).__name__}: {exc}"]


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed_loop(wl, seed, inputs, seconds):
    latencies, failures, mix = [], [], {}
    excluded = 0.0          # input refills and output checks are not timed
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start - excluded < seconds:
        if i == len(inputs) and wl.refill is not None:
            t = time.perf_counter()
            inputs.extend(wl.refill(seed, i))
            excluded += time.perf_counter() - t
        item = inputs[i % len(inputs)]
        i += 1
        t0 = time.perf_counter()
        result, problems = _run_one(wl, item)
        t1 = time.perf_counter()
        if problems is None:
            problems = wl.check(result)
            if wl.label is not None:
                key = wl.label(result)
                mix[key] = mix.get(key, 0) + 1
        del result
        latencies.append(t1 - t0)
        if problems:
            failures.append({"request": i - 1, "problems": problems[:5]})
            latencies[-1] = float("inf")
        excluded += time.perf_counter() - t1
    wall = time.perf_counter() - start - excluded
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "class_mix": mix,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def fixed_pass(wl, seed, inputs, traced):
    items = inputs[:wl.fixed_count]
    rec = None
    if traced:
        import spans
        rec = spans.SpanRecorder()
        rec.install(extra_modules=[workloads])
    wall, faults, failures = 0.0, 0, []
    for index, item in enumerate(items):
        f0 = _minflt()
        t0 = time.perf_counter()
        span = rec.begin_request(index) if rec else None
        result, problems = _run_one(wl, item)
        if rec:
            rec.close(span)
        wall += time.perf_counter() - t0
        faults += _minflt() - f0
        if problems is None:
            problems = wl.check(result)
        del result
        if problems:
            failures.append({"request": index, "problems": problems[:5]})
    out = {
        "wall_s": wall,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures,
        "minor_faults_per_request": faults / len(items),
    }
    if rec:
        rec.uninstall()
        out["layers"] = spans.layer_metrics(rec)
        out_dir = os.path.join(ROOT, "bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.npz")
        rec.dump(path)
        out["spans_file"] = os.path.relpath(path, ROOT)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    inputs, input_stats = wl.make_inputs(args.seed)
    warmup, problems = _run_one(wl, wl.warmup)
    setup_s = time.perf_counter() - _T0
    if problems is None:
        problems = wl.check(warmup)
    del warmup
    if problems:
        print(f"warm-up request failed: {problems}", file=sys.stderr)
        return 1

    out = {"setup_s": setup_s, "input_stats": input_stats}
    if args.mode == "timed":
        out.update(timed_loop(wl, args.seed, inputs, args.seconds))
    elif args.mode == "fixed":
        out.update(fixed_pass(wl, args.seed, inputs, bool(args.traced)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
