"""One benchmark process: set up a workload, then time or trace its ops.

Started by run.py from the root of a checkout; imports rearrange_lab from
``src/`` there.  Prints one JSON line with the set-up time and either the
end-to-end figures (untraced) or the per-layer figures (traced).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# The host's speed swings by up to a third within seconds, and the program's
# CPU time swings with its wall time, so raw times spread more between runs
# than any useful bound.  A fixed pure-Python kernel that does not touch
# rearrange_lab therefore runs before and after every timed op, outside the
# timed interval, and each op's time is scaled by KERNEL_REF_S over the mean
# of the two kernel times around it: reported times read as on a machine
# where the kernel takes KERNEL_REF_S.  Set-up time is scaled the same way by
# kernel runs right after set-up.  Raw wall times are reported beside them.
KERNEL_REF_S = 0.003


def kernel() -> int:
    """Interpreter work of the program's kind: integer and float
    arithmetic, a list sort, dict updates and float formatting."""
    x, values = 12345, []
    for _ in range(4000):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        values.append(x / 2147483648.0)
    values.sort()
    sums = {}
    for k, v in enumerate(values):
        sums[k & 255] = sums.get(k & 255, 0.0) + v * v
    return len(",".join(repr(v) for v in values[:1000])) + len(sums)


def kernel_s() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def summarize(latencies, failures):
    """End-to-end figures of one timed run (times in seconds)."""
    lat = sorted(latencies)
    n = len(lat)
    failed = sum(failures)
    tail_index = max(n - 11, 0)   # the 11th largest has ten samples beyond it
    return {
        "attempted": n,
        "failed": failed,
        "op_p50_ms": 1e3 * (lat[(n - 1) // 2] + lat[n // 2]) / 2,
        "op_tail_ms": 1e3 * lat[tail_index] if n > 10 else 1e3 * lat[-1],
        "tail_percentile": 100.0 * (tail_index + 1) / n if n > 10 else 100.0,
        "ops_per_s": (n - failed) / math.fsum(latencies),
    }


def run_op(wl, i, reasons, call=None, corrupt=None):
    """Run op i (through ``call`` if given) and check it; returns (seconds,
    failed).  Preparation and check are outside the timed interval."""
    wl.prepare(i)
    start = time.perf_counter()
    try:
        out = (call or wl.op)(i)
        reason = None
    except Exception as exc:   # any raise counts as a failed op
        out, reason = None, f"op {i} raised {exc!r}"
    seconds = time.perf_counter() - start
    if reason is None:
        if corrupt is not None:
            out = corrupt(i, out)
        try:
            reason = wl.check(i, out)
        except Exception as exc:
            reason = f"check of op {i} raised {exc!r}"
    if reason and len(reasons) < 5:
        reasons.append(reason)
    return seconds, reason is not None


def timed_run(wl, seconds, corrupt=None):
    """Closed loop: ops 0, 1, 2, ... until ``seconds`` of wall time pass.
    Figures are scaled by the kernel times around each op; ``raw`` holds
    the same figures from wall time alone."""
    latencies, failures, reasons = [], [], []
    kernels = [kernel_s()]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        dt, bad = run_op(wl, i, reasons, corrupt=corrupt)
        kernels.append(kernel_s())
        latencies.append(dt)
        failures.append(bad)
        i += 1
        if time.perf_counter() >= deadline:
            break
    scaled = [dt * 2 * KERNEL_REF_S / (before + after)
              for dt, before, after in zip(latencies, kernels, kernels[1:])]
    result = summarize(scaled, failures)
    result["raw"] = summarize(latencies, failures)
    result["kernel_ms"] = 1e3 * statistics.median(kernels)
    result["reasons"] = reasons
    return result


def traced_run(wl, seconds, spans_path=None):
    """Alternate an untraced and a traced pass over the same fixed ops while
    another pair still fits in ``seconds`` (at least one pair).  Counts
    therefore repeat exactly for a seed, and the overhead compares equal
    work."""
    from spans import Tracer

    tracer = Tracer()
    ops = range(wl.trace_ops)
    untraced = traced = 0.0
    failed = pairs = 0
    reasons = []
    start = time.perf_counter()
    while pairs == 0 or (time.perf_counter() - start) * (pairs + 1) / pairs <= seconds:
        for i in ops:
            dt, bad = run_op(wl, i, reasons)
            untraced += dt
            failed += bad
        keep = pairs == 0   # write out the spans of the first traced pass only
        with tracer:
            for i in ops:
                dt, bad = run_op(wl, i, reasons, call=lambda j: tracer.run_op(
                    j, wl.op, j, keep=keep))
                traced += dt
                failed += bad
        pairs += 1
    metrics = tracer.metrics()
    metrics["trace_overhead_ratio"] = untraced / traced
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return {"attempted": 2 * pairs * len(ops), "failed": failed,
            "reasons": reasons, "per_layer": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() just before this process started")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rearrange_lab" / "__init__.py").is_file():
        print("no src/rearrange_lab in the working directory", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import numpy
        import workloads

        wl = workloads.make(args.workload, args.seed, args.size, workdir)
        wl.setup()
        wl.warm_up()
        setup_raw = time.time() - args.t0
        kernel_after = statistics.median(kernel_s() for _ in range(3))
        result = {"setup_s": setup_raw * KERNEL_REF_S / kernel_after,
                  "setup_raw_s": setup_raw}
        if not args.setup_only:
            if args.trace:
                out = root / ".bench_work" / f"spans-{args.workload}.jsonl.gz"
                result.update(traced_run(wl, args.seconds, out))
            else:
                result.update(timed_run(wl, args.seconds))
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            result["numpy"] = numpy.__version__
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
