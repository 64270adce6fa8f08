"""rearrange-lab benchmark: one workload, one run, every metric by name.

Run from the root of a checkout (it imports ``src/rearrange_lab`` there):

    python3 bench/run.py --workload scheme-1d --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it sets the workload up in several fresh processes and
reports the median set-up time, then times the ops of one of them for
``--seconds`` and prints the end-to-end metrics.  With ``--trace 1`` it
prints the per-layer metrics of a traced run instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import KERNEL_REF_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scheme-1d", "suites", "cli-pipeline")
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SETUPS = 7           # set-ups per untraced run; setup_s is their median
BUDGET_S = 170.0     # every child process ends within this
LIMITS = ("shared machine; no hardware performance counters; "
          "OS file cache not dropped between runs")
THREADS_ENV = "REARRANGE_LAB_THREADS"


def environment(seed: int) -> dict:
    sha = None
    if Path(".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "git_sha": sha or "unavailable",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
        "threads_env_set": THREADS_ENV in os.environ,
        "limits": LIMITS,
    }


def spawn(args, deadline, setup_only=False) -> dict:
    """Run one worker process and return its JSON line; exits on failure."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.time())], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"worker for {args.workload} ran out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker for {args.workload} failed with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="rearrange-lab benchmark (run from a checkout's root)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "rearrange_lab" / "__init__.py").is_file():
        print("run from the root of a rearrange-lab checkout "
              "(no src/rearrange_lab here)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = environment(args.seed)
    mode = "traced" if args.trace else "untraced"
    print(f"# rearrange-lab benchmark: workload {args.workload}, seed "
          f"{args.seed}, {args.seconds:g} s, {mode}, size {args.size}")
    if args.trace:
        from spans import per_layer_names

        run = spawn(args, deadline)
        units = dict(per_layer_names())
        values = run["per_layer"]
    else:
        starts = [spawn(args, deadline, setup_only=True)
                  for _ in range(SETUPS - 1)]
        run = spawn(args, deadline)
        starts.append(run)
        setups = [s["setup_s"] for s in starts]
        units = END_TO_END
        values = {"setup_s": statistics.median(setups),
                  **{k: run[k] for k in END_TO_END if k != "setup_s"}}
        raw = {"setup_s": statistics.median(s["setup_raw_s"] for s in starts),
               **{k: run["raw"][k] for k in END_TO_END
                  if k not in ("setup_s", "peak_rss_mb")}}
    env["numpy"] = run["numpy"]
    print("# env: " + json.dumps(env, sort_keys=True))
    notes = {"setup_s": f"median of {SETUPS} set-ups in fresh processes"}
    if not args.trace:
        print(f"# times scaled to a {1e3 * KERNEL_REF_S:g} ms kernel "
              f"(median {run['kernel_ms']:.4g} ms in this run); raw wall "
              "times: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        beyond = 10 if run["attempted"] > 10 else 0
        notes["op_tail_ms"] = (f"p{run['tail_percentile']:.1f} of "
                               f"{run['attempted']} ops, {beyond} beyond")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {values[name]:14.6g} {unit}{note}")
    fail_ratio = run["failed"] / run["attempted"]
    print(f"{'fail_ratio':34s} {fail_ratio:14.6g} ratio  "
          f"({run['failed']} failed of {run['attempted']} ops)")
    for reason in run["reasons"]:
        print(f"# failure: {reason}")
    info = {"workload": args.workload, "trace": args.trace, "env": env,
            "fail_ratio": fail_ratio}
    if not args.trace:
        info["tail_percentile"] = run["tail_percentile"]
        info["setups_s"] = setups
        info["raw"] = raw
        info["kernel_ms"] = run["kernel_ms"]
    print("bench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
