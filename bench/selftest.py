"""Self-tests of the benchmark itself (tiny inputs, about half a minute).

    python3 bench/selftest.py

Run from anywhere; they use the checkout this directory belongs to.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare    # noqa: E402
import spans      # noqa: E402
import worker     # noqa: E402
import workloads  # noqa: E402
from rearrange_lab import analysis, cli, step1d  # noqa: E402
from rearrange_lab.series import ConvergenceSeries  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_work"   # scratch space inside the checkout


def scratch():
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class TinyRuns(unittest.TestCase):

    def test_every_metric_printed_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, metrics in (("0", SPEC["end_to_end"]),
                                   ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", trace,
                                 "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in metrics})
                    printed = {line.split()[0]: line.split()[2]
                               for line in lines[:-1]
                               if line and line[0].isalnum()
                               and len(line.split()) > 2}
                    for m in metrics:
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"])
                        self.assertEqual(printed.get(m["name"]), m["unit"])
                    self.assertIn("fail_ratio", printed)
                    if trace == "0":
                        tail = next(line for line in lines
                                    if line.startswith("op_tail_ms"))
                        self.assertRegex(tail, r"\(p[0-9.]+ of [0-9]+ ops")

    def test_refuses_without_the_program(self):
        with scratch() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "suites", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class Checks(unittest.TestCase):

    def setUp(self):
        self._scratch = scratch()
        self.tmp = Path(self._scratch.name)

    def tearDown(self):
        self._scratch.cleanup()

    def test_corrupted_series_counts_as_failed(self):
        wl = workloads.make("scheme-1d", 5, "tiny", self.tmp)
        wl.setup()

        def corrupt(i, series):
            if i == 0:   # first sight: the mass invariant must catch it
                records = list(series.records)
                records[-1] = dataclasses.replace(records[-1], weighted_mass=-1.0)
                return ConvergenceSeries(records)
            if i == wl.pool + 1:   # repeat of input 1: the digest must catch it
                records = list(series.records)
                records[1] = dataclasses.replace(
                    records[1], sup_error=records[1].sup_error + 2 ** -40)
                return ConvergenceSeries(records)
            return series

        result = worker.timed_run(wl, 1.5, corrupt=corrupt)
        self.assertGreater(result["attempted"], wl.pool + 1)
        self.assertEqual(result["failed"], 2, result["reasons"])
        self.assertIn("weighted mass decreased", result["reasons"][0])
        self.assertIn("differs from an earlier op", result["reasons"][1])

    def test_corrupted_file_counts_as_failed(self):
        wl = workloads.make("cli-pipeline", 5, "tiny", self.tmp)
        wl.setup()
        out = wl._path(wl.calls[0][2])

        def corrupt(i, codes):
            if i == 2:
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write("\n")
            return codes

        result = worker.timed_run(wl, 0.3, corrupt=corrupt)
        self.assertEqual(result["failed"], 1, result["reasons"])

    def test_exit_code_counts_as_failed_on_every_op(self):
        wl = workloads.make("cli-pipeline", 5, "tiny", self.tmp)
        wl.setup()
        real = wl.op

        def op(i):
            if i == 2:   # every call fails before writing anything
                return [2] * len(wl.calls)
            codes = real(i)
            if i == 3:   # the files are written, but one call reports an error
                codes[-1] = 3
            return codes

        wl.op = op
        result = worker.timed_run(wl, 0.5)
        self.assertGreater(result["attempted"], 4)
        self.assertEqual(result["failed"], 2, result["reasons"])
        self.assertIn("op 2: polarize step.csv exited 2", result["reasons"][0])
        self.assertIn("op 3: converge small-grid.csv exited 3",
                      result["reasons"][1])
        wl.op = lambda i: [0] * len(wl.calls)   # claims success, writes nothing
        self.assertIn("wrote no output", worker.timed_run(wl, 0.0)["reasons"][0])

    def test_recorded_digest_mismatch_counts_as_failed(self):
        default = workloads.make("scheme-1d", workloads.DEFAULT_SEED, "full",
                                 self.tmp)
        self.assertEqual(len(default.recorded), default.pool)
        wl = workloads.WORKLOADS["cli-pipeline"](5, "tiny", self.tmp,
                                                 recorded=["0" * 16])
        wl.setup()
        self.assertIn("recorded digest", wl.check(0, wl.op(0)))


class Scaling(unittest.TestCase):

    def test_times_scale_with_the_kernel(self):
        """A fixed-length op reads half as long when the kernel takes twice
        its reference time; the raw figures stay as measured."""

        class Fixed(workloads.Workload):
            def op(self, i):
                time.sleep(0.01)

            def check(self, i, out):
                return None

        kernel_s = worker.kernel_s
        worker.kernel_s = lambda: 2 * worker.KERNEL_REF_S
        try:
            result = worker.timed_run(Fixed(1, "tiny", None), 0.2)
        finally:
            worker.kernel_s = kernel_s
        self.assertGreaterEqual(result["raw"]["op_p50_ms"], 10)
        for name in ("op_p50_ms", "op_tail_ms"):
            self.assertAlmostEqual(result[name], result["raw"][name] / 2)
        self.assertAlmostEqual(result["ops_per_s"], 2 * result["raw"]["ops_per_s"])


class Tracing(unittest.TestCase):

    def test_self_times_sum_to_op_time_and_counts_repeat(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name), scratch() as tmp:
                runs = []
                for _ in range(2):
                    wl = workloads.make(name, 3, "tiny", Path(tmp))
                    wl.setup()
                    runs.append(worker.traced_run(wl, 0.0))
                metrics = runs[0]["per_layer"]
                self_ms = [v for k, v in metrics.items()
                           if k.endswith(".self_ms")]
                self.assertEqual(len(self_ms), len(spans.LAYERS) + 1)
                self.assertAlmostEqual(sum(self_ms), metrics["op.traced_ms"],
                                       delta=1e-9 * metrics["op.traced_ms"])
                counts = [k for k in metrics if k.endswith(
                    (".calls", "_ratio", ".bytes", "_in", ".errors"))
                    and k != "trace_overhead_ratio"]
                self.assertEqual({k: runs[0]["per_layer"][k] for k in counts},
                                 {k: runs[1]["per_layer"][k] for k in counts})
                self.assertEqual(runs[0]["failed"], 0, runs[0]["reasons"])

    def test_bindings_restored(self):
        original = step1d.polarize
        table = dict(cli._IO)
        with spans.Tracer():
            self.assertIsNot(analysis.polarize, original)
            self.assertIs(analysis.polarize, step1d.polarize)
            self.assertIs(cli._IO["step1d"][0], step1d.read_csv)
        self.assertIs(step1d.polarize, original)
        self.assertIs(analysis.polarize, original)
        self.assertEqual(cli._IO, table)

    def test_cli_file_io_is_traced(self):
        with scratch() as tmp:
            wl = workloads.make("cli-pipeline", 3, "tiny", Path(tmp))
            wl.setup()
            tracer = spans.Tracer()
            with tracer:
                tracer.run_op(0, wl.op, 0, keep=True)
        called = {(layer, name) for layer, name, *_ in tracer.kept[0]}
        for layer in ("step1d.csv", "lattice.csv", "grid2d.csv"):
            self.assertIn((layer, "read_csv"), called)
            self.assertIn((layer, "write_csv"), called)


class Compare(unittest.TestCase):

    @staticmethod
    def runs(values, failed=0):
        return [{"seed": seed, "result": {
            "attempted": 10, "failed": failed,
            "metrics": {"op_p50_ms": {"value": v}}}}
            for seed, v in enumerate(values)]

    def test_verdicts(self):
        metric = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}
        parent = self.runs([100 + k % 3 for k in range(10)])
        cases = {"gain": [80 + k % 3 for k in range(10)],
                 "REGRESSION": [130 + k % 3 for k in range(10)],
                 "within bound": [100 + (k + 1) % 3 for k in range(10)]}
        for expected, values in cases.items():
            text, wins, played = compare.verdict(metric, parent,
                                                 self.runs(values))
            self.assertTrue(text.startswith(expected), text)
        wide = self.runs([60, 140] * 5)
        text, _, _ = compare.verdict(metric, wide, self.runs([90] * 10))
        self.assertTrue(text.startswith("unresolved"), text)
        text, wins, played = compare.verdict(metric, wide,
                                             self.runs([50] * 10))
        self.assertEqual((text, wins, played), ("within bound", 10, 10))
        failing = self.runs([80 + k % 3 for k in range(10)], failed=1)
        text, _, _ = compare.verdict(metric, parent, failing)
        self.assertTrue(text.startswith("INVALID"), text)


if __name__ == "__main__":
    unittest.main()
