"""Per-layer tracing of rearrange_lab from outside the package.

A Tracer replaces each listed public function at every rearrange_lab module
attribute (or class attribute) bound to it, and in module-level tables that
hold it (``cli._IO`` maps an engine to its ``read_csv``/``write_csv``), with
a wrapper that records a span: layer, function, start, end, parent span and op id.  A call into a
layer from inside the same layer (``read_csv`` calling ``loads``,
``converge_restricted`` calling ``converge_scheme``) is not a new boundary
and records no span, so private helpers and same-layer callees count as the
calling function's self time.  Spans are kept in memory per op; the op's
self times and counts are folded into totals when the op ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time

# Layer name -> (module, public functions).  "Class.method" names a method.
LAYERS = {
    "step1d.polarize": ("step1d", ["polarize"]),
    "step1d.metrics": ("step1d", ["lp_distance", "lp_distance_pow",
                                  "sup_distance", "deviation_measure",
                                  "lp_norm", "lp_norm_pow", "merged_grid"]),
    "step1d.rearrange": ("step1d", ["rearrange"]),
    "step1d.csv": ("step1d", ["loads", "dumps", "read_csv", "write_csv"]),
    "analysis.converge": ("analysis", ["converge_scheme",
                                       "converge_restricted"]),
    "analysis.weighted_mass": ("analysis", ["weighted_mass"]),
    "analysis.gaps": ("analysis", ["polarization_gap", "hardy_littlewood_gap",
                                   "cavalieri_gap", "contraction_gap",
                                   "product_integral"]),
    "halfspace.schedule": ("halfspace", ["Schedule.nth", "Schedule.first"]),
    "lattice.polarize": ("lattice", ["polarize_involution"]),
    "lattice.scheme": ("lattice", ["two_involution_scheme",
                                   "schedule_scheme_lattice"]),
    "lattice.rearrange": ("lattice", ["rearrange_lattice"]),
    "lattice.csv": ("lattice", ["loads", "dumps", "read_csv", "write_csv"]),
    "grid2d.polarize": ("grid2d", ["polarize_grid_exact"]),
    "grid2d.interp": ("grid2d", ["polarize_grid_interp"]),
    "grid2d.steiner": ("grid2d", ["steiner_rows"]),
    "grid2d.rearrange": ("grid2d", ["rearrange_grid"]),
    "grid2d.scheme": ("grid2d", ["mixed_schedule"]),
    "grid2d.metrics": ("grid2d", ["gaussian_cell_mass", "grid_lp_distance"]),
    "grid2d.csv": ("grid2d", ["loads", "dumps", "read_csv", "write_csv"]),
    "series.dumps": ("series", ["ConvergenceSeries.dumps"]),
    "cli.main": ("cli", ["main"]),
    "generators": ("generators", ["random_step_function",
                                  "random_halfspace_1d", "random_halfspace_2d",
                                  "random_lattice_function",
                                  "random_grid_function",
                                  "random_lattice_hyperplane"]),
}

MODULES = ["step1d", "lattice", "grid2d", "halfspace", "analysis", "series",
           "generators", "cli"]

ROOT = "bench"   # the op itself; its self time is the benchmark's own code


def _polarize_probe(size_of=None):
    def probe(counts, args, result):
        if size_of is not None:
            counts["size_in"] += size_of(args[0])
        counts["changed"] += result is not args[0]
    return probe


def _text_in(counts, args, result):
    counts["bytes"] += len(args[0])


def _text_out(counts, args, result):
    counts["bytes"] += len(result)


def _exit_code(counts, args, result):
    if result != 0:
        counts["errors"] += 1


# Extra counts taken at a layer boundary: (layer, function) -> probe.
PROBES = {
    ("step1d.polarize", "polarize"): _polarize_probe(lambda u: u.piece_count),
    ("lattice.polarize", "polarize_involution"): _polarize_probe(len),
    ("grid2d.polarize", "polarize_grid_exact"): _polarize_probe(),
    ("cli.main", "main"): _exit_code,
    ("series.dumps", "ConvergenceSeries.dumps"): _text_out,
}
for _layer in ("step1d.csv", "lattice.csv", "grid2d.csv"):
    PROBES[(_layer, "loads")] = _text_in
    PROBES[(_layer, "dumps")] = _text_out


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit) the traced run reports."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "calls/op"), (f"{layer}.self_ms", "ms/op")]
    names += [("step1d.polarize.pieces_in", "pieces/call"),
              ("step1d.polarize.changed_ratio", "ratio"),
              ("lattice.polarize.sites_in", "sites/call"),
              ("lattice.polarize.changed_ratio", "ratio"),
              ("grid2d.polarize.changed_ratio", "ratio")]
    names += [(f"{layer}.bytes", "B/op") for layer in
              ("step1d.csv", "lattice.csv", "grid2d.csv", "series.dumps")]
    names += [(f"{module}.errors", "count") for module in MODULES]
    names += [(f"{ROOT}.self_ms", "ms/op"), ("op.traced_ms", "ms"),
              ("trace_overhead_ratio", "ratio")]
    return names


class Tracer:
    """Installs the wrappers on enter and restores every binding on exit."""

    def __init__(self, package: str = "rearrange_lab"):
        self.package = package
        self.spans = []        # [layer, function, start, end, parent, op]
        self.stack = []        # indices into spans of the open spans
        self.op_id = -1
        self.kept = []         # span lists of the ops selected for writing out
        self.ops = 0
        self.op_seconds = 0.0
        self.self_seconds = {layer: 0.0 for layer in [*LAYERS, ROOT]}
        self.calls = {layer: 0 for layer in LAYERS}
        self.counts = {layer: dict.fromkeys(("size_in", "changed", "bytes",
                                             "errors"), 0)
                       for layer in LAYERS}
        self.errors = {module: 0 for module in MODULES}
        self._restore = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        modules = [importlib.import_module(self.package)] + [
            importlib.import_module(f"{self.package}.{m}") for m in MODULES]
        by_module = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        originals = {}   # id(original function) -> wrapper
        for layer, (module, functions) in LAYERS.items():
            for name in functions:
                if "." in name:   # a method: patch the class attribute
                    cls_name, meth = name.split(".")
                    cls = getattr(by_module[module], cls_name)
                    fn = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(layer, name, fn))
                else:
                    fn = getattr(by_module[module], name)
                    originals[id(fn)] = (fn, self._wrap(layer, name, fn))

        def swap(value):
            hit = originals.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for module in modules:
            for attr, value in list(vars(module).items()):
                if swap(value) is not value:
                    self._patch(module, attr, swap(value))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):   # a table
                        parts = entry if isinstance(entry, tuple) else (entry,)
                        swapped = tuple(map(swap, parts))
                        if any(a is not b for a, b in zip(swapped, parts)):
                            self._restore.append((value, key, entry))
                            value[key] = (swapped if isinstance(entry, tuple)
                                          else swapped[0])
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer, name, fn):
        probe = PROBES.get((layer, name))
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts = self.counts[layer]
        module = layer.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or spans[stack[-1]][0] == layer:
                result = fn(*args, **kwargs)
                if stack and probe is not None:
                    probe(counts, args, result)
                return result
            index = len(spans)
            spans.append([layer, name, clock(), 0.0, stack[-1], self.op_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                spans[index][3] = clock()
                stack.pop()
            if probe is not None:
                probe(counts, args, result)
            return result

        return traced

    # -- ops ---------------------------------------------------------------

    def run_op(self, op_id, fn, *args, keep=False):
        """Run fn(*args) as one traced op under a root span."""
        self.op_id = op_id
        self.spans.clear()
        self.spans.append([ROOT, "op", time.perf_counter(), 0.0, -1, op_id])
        self.stack.append(0)
        try:
            return fn(*args)
        finally:
            self.spans[0][3] = time.perf_counter()
            self.stack.pop()
            self._fold(keep)

    def _fold(self, keep):
        spans = self.spans
        for layer, _, start, end, parent, _ in spans:
            duration = end - start
            self.self_seconds[layer] += duration
            if parent >= 0:
                self.self_seconds[spans[parent][0]] -= duration
            else:
                self.op_seconds += duration
            if layer != ROOT:
                self.calls[layer] += 1
        self.ops += 1
        if keep:
            self.kept.append(list(spans))
        spans.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-op means of the per-layer metrics (all but the overhead)."""
        ops = max(self.ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / ops
            out[f"{layer}.self_ms"] = 1e3 * self.self_seconds[layer] / ops
        for layer, size in (("step1d.polarize", "pieces_in"),
                            ("lattice.polarize", "sites_in"),
                            ("grid2d.polarize", None)):
            calls = self.calls[layer]
            c = self.counts[layer]
            if size:
                out[f"{layer}.{size}"] = c["size_in"] / calls if calls else 0.0
            out[f"{layer}.changed_ratio"] = (c["changed"] / calls if calls
                                             else 0.0)
        for layer in ("step1d.csv", "lattice.csv", "grid2d.csv",
                      "series.dumps"):
            out[f"{layer}.bytes"] = self.counts[layer]["bytes"] / ops
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module]
        out["cli.errors"] += self.counts["cli.main"]["errors"]
        out[f"{ROOT}.self_ms"] = 1e3 * self.self_seconds[ROOT] / ops
        out["op.traced_ms"] = 1e3 * self.op_seconds / ops
        return out

    def write_spans(self, path) -> None:
        """Kept spans as gzipped JSON Lines: [op, index, parent index, layer,
        function, start_us, end_us], times relative to the op's start."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for op_spans in self.kept:
                t0 = op_spans[0][2]
                for index, span in enumerate(op_spans):
                    layer, name, start, end, parent, op = span
                    fh.write(json.dumps([op, index, parent, layer, name,
                                         round((start - t0) * 1e6, 3),
                                         round((end - t0) * 1e6, 3)]) + "\n")
