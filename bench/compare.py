"""Collect benchmark runs and compare two sets of them.

    # ten runs of each workload on one checkout (seeds 1..10)
    python3 bench/compare.py collect --checkout . --label change --runs 10 \\
        --out runs.jsonl
    # ten alternating parent/change pairs, same seed within a pair
    python3 bench/compare.py pairs --parent ../parent --change . --pairs 10 \\
        --out pairs.jsonl
    # spread of one set, or the parent/change verdicts when both are present
    python3 bench/compare.py report runs.jsonl [--baseline baseline.json]

Every run uses this directory's run.py with the checkout as working
directory, so both sides are measured with identical benchmark code.

Verdicts follow the rule the benchmark was defined with: a gain needs at
least ten pairs, the change winning at least nine tenths of them (ties count
for neither), and a median gap larger than the parent's interquartile range;
a regression is a change median worse than the parent's by more than the
metric's bound; a metric whose parent spread is wider than its bound is
unresolved unless every change run beats every parent run.  Every metric is
INVALID when the change fails a larger share of its ops than the parent: a
failed op still has a latency, and an op that fails early is fast.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}


def run_once(checkout, workload, seed, trace, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} in {checkout} failed:\n{proc.stderr}")
    info = next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("bench-info ")), {})
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "info": info}


def append(path, record) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def collect(args) -> None:
    for k in range(args.runs):
        for workload in args.workloads:
            record = run_once(args.checkout, workload, args.seed0 + k,
                              args.trace, args.seconds)
            record["label"] = args.label
            append(args.out, record)
            print(f"{args.label} {workload} seed {args.seed0 + k}: "
                  f"failed {record['result']['failed']}", flush=True)


def pairs(args) -> None:
    for k in range(args.pairs):
        sides = [("parent", args.parent), ("change", args.change)]
        if k % 2:
            sides.reverse()
        for workload in args.workloads:
            for label, checkout in sides:
                record = run_once(checkout, workload, args.seed0 + k, 0,
                                  args.seconds)
                record["label"] = label
                append(args.out, record)
        print(f"pair {k + 1}/{args.pairs} done", flush=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values) -> dict:
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / median if median else float("inf")}


def values_of(records, name):
    return [r["result"]["metrics"][name]["value"] for r in records]


def fail_ratio(records) -> float:
    return (sum(r["result"]["failed"] for r in records)
            / sum(r["result"]["attempted"] for r in records))


def verdict(metric, parent, change) -> tuple[str, int, int]:
    """Verdict for one metric from runs paired by seed."""
    lower = metric["better"] == "lower"
    by_seed = {r["seed"]: r for r in parent}
    wins = played = 0
    for r in change:
        p = by_seed.get(r["seed"])
        if p is None:
            continue
        a = p["result"]["metrics"][metric["name"]]["value"]
        b = r["result"]["metrics"][metric["name"]]["value"]
        if a != b:
            played += 1
            wins += (b < a) if lower else (b > a)
    pv, cv = values_of(parent, metric["name"]), values_of(change, metric["name"])
    ps, cs = summary(pv), summary(cv)
    gap = (cs["median"] - ps["median"]) / ps["median"]
    worse = gap if lower else -gap
    all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
    if fail_ratio(change) > fail_ratio(parent):
        return "INVALID (change fails more ops than parent)", wins, played
    if ps["spread"] > metric["bound"] and not all_better:
        return "unresolved (parent spread wider than bound)", wins, played
    if worse > metric["bound"]:
        return "REGRESSION (worse by more than bound)", wins, played
    if (played >= 10 and wins >= 0.9 * played and worse < 0
            and abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]):
        return "gain", wins, played
    return "within bound", wins, played


def report(args) -> None:
    records = [json.loads(line) for path in args.files
               for line in Path(path).read_text().splitlines() if line.strip()]
    groups = defaultdict(list)
    for r in records:
        groups[(r["label"], r["workload"], r["trace"])].append(r)
    labels = sorted({r["label"] for r in records})
    end_to_end, per_layer = {}, {}
    for workload in WORKLOADS:
        for label in labels:
            runs = groups.get((label, workload, 0), [])
            if runs:
                end_to_end[(label, workload)] = print_spread(label, workload, runs)
            traced = groups.get((label, workload, 1), [])
            if traced:
                per_layer[(label, workload)] = {
                    name: statistics.median(r["result"]["metrics"][name]["value"]
                                            for r in traced)
                    for name in traced[0]["result"]["metrics"]}
        parent = groups.get(("parent", workload, 0))
        change = groups.get(("change", workload, 0))
        if parent and change:
            print(f"  parent -> change on {workload}:")
            for name, metric in END_TO_END.items():
                text, wins, played = verdict(metric, parent, change)
                print(f"    {name:14s} change won {wins}/{played}: {text}")
    if args.baseline:
        if len(labels) != 1:
            sys.exit("--baseline needs runs of a single label")
        env = records[0]["info"]["env"]
        baseline = {
            "commit": env["git_sha"],
            "machine": {k: env[k] for k in ("python", "numpy", "nproc",
                                            "limits")},
            "run_seconds": SPEC["run_seconds"],
            "seeds": {part: sorted({r["seed"] for r in records
                                    if r["trace"] == trace})
                      for part, trace in (("end_to_end", 0), ("per_layer", 1))},
            "end_to_end": {w: rows for (_, w), rows in end_to_end.items()},
            "per_layer": {w: rows for (_, w), rows in per_layer.items()},
        }
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n")


def print_spread(label, workload, runs) -> dict:
    """Print each end-to-end metric's median, quartiles and spread."""
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    print(f"\n{workload} [{label}] {len(runs)} runs, "
          f"{failed} of {attempted} ops failed")
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>7s} {'bound':>6s}")
    rows = {}
    for name, metric in END_TO_END.items():
        s = summary(values_of(runs, name))
        rows[name] = {**s, "unit": metric["unit"]}
        flag = ("ok" if s["spread"] <= metric["bound"] / 3 else
                "wide" if s["spread"] <= metric["bound"] else "OVER")
        print(f"  {name:14s} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['spread']:7.3f} "
              f"{metric['bound']:6.2f} {flag}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workloads", type=lambda s: s.split(","),
                        default=WORKLOADS)
    common.add_argument("--seed0", type=int, default=1)
    common.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    common.add_argument("--out", required=True)
    p = sub.add_parser("collect", parents=[common])
    p.add_argument("--checkout", default=".")
    p.add_argument("--label", default="change")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=collect)
    p = sub.add_parser("pairs", parents=[common])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", default=".")
    p.add_argument("--pairs", type=int, default=10)
    p.set_defaults(func=pairs)
    p = sub.add_parser("report")
    p.add_argument("files", nargs="+")
    p.add_argument("--baseline", help="write medians and quartiles here")
    p.set_defaults(func=report)
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
