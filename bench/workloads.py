"""The benchmark's workloads: seeded inputs, one op, and the check of every
op's outputs.

Each workload is a closed loop with one client in one process.  An op's
outputs are checked outside the timed interval.  Every op must exit 0 from
each CLI call it makes; the first time an input is seen its outputs must
satisfy invariants that hold for any seed, and every later op on the same
input must reproduce the same bytes.  For the default
seed at full size the bytes must also match the SHA-256 digests recorded
from the seed commit in ``digests.json`` (the library promises
bit-identical outputs across refactors).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from collections import defaultdict
from pathlib import Path

import numpy as np

from rearrange_lab import analysis, cli, generators, grid2d, lattice, step1d
from rearrange_lab.halfspace import Halfspace, Schedule
from rearrange_lab.series import ConvergenceSeries

DEFAULT_SEED = 1
DIGESTS = Path(__file__).with_name("digests.json")
# Same tolerance as the acceptance tests' weighted-mass monotonicity check.
MASS_TOL = 1e-12


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def nondecreasing(values) -> bool:
    return all(b >= a - MASS_TOL for a, b in zip(values, values[1:]))


def step_distribution(u: step1d.StepFunction) -> dict:
    """Total length of each value: equal for equimeasurable functions."""
    lengths = defaultdict(list)
    for a, b, v in u.pieces():
        lengths[v].append(b - a)
    return {v: math.fsum(parts) for v, parts in lengths.items()}


class Workload:
    """Inputs from a seed, ``op(i)``, and ``check(i, out)``.

    ``prepare(i)`` runs before op i, outside the timed interval.  ``check``
    returns None when the outputs are correct and a reason otherwise.
    ``key(i)`` names the input op i runs on; ops with equal keys must
    produce equal bytes.
    """

    name = ""
    trace_ops = 1      # ops in one traced cycle
    recorded_ops = 1   # ops whose digests record_digests.py stores

    def __init__(self, seed: int, size: str, workdir: Path, recorded=None):
        self.seed = seed
        self.tiny = size == "tiny"
        self.workdir = workdir
        self.recorded = recorded
        self.seen = {}

    def setup(self):
        pass

    def warm_up(self):
        self.op(0)

    def prepare(self, i):
        pass

    def key(self, i):
        return i

    def _compare(self, i, text_digest, verify):
        key = self.key(i)
        if key not in self.seen:
            reason = verify()
            if reason:
                return f"op {i}: {reason}"
            self.seen[key] = text_digest
        if text_digest != self.seen[key]:
            return f"op {i}: output differs from an earlier op on input {key}"
        if self.recorded is not None and key < len(self.recorded) \
                and text_digest != self.recorded[key]:
            return f"op {i}: output differs from the recorded digest"
        return None


class Scheme1D(Workload):
    """converge_restricted(u, rho=0.1, n_max=200) on 1/8-dyadic step
    functions on [-1, 1]; nearly every polarization is a no-op."""

    name = "scheme-1d"
    RHO = 0.1
    # The ops cycle through a stratified pool of eight inputs, one per entry
    # of CLASSES, so that every run has the same mix.  The generator's draws
    # are bimodal: an input either converges exactly within a few outer steps
    # (about 20 ms, spent in the records) or never does and runs all
    # n(n+1)/2 polarizations.  In the second case the state's piece count
    # after eight outer steps stays fixed for the rest of the run and sets
    # the polarization work.  A class is that piece count, or None for an
    # input that has converged by then.  In 2000 natural draws 43.2% were
    # None and the rest spread over piece counts 5 to 41 (5.1% each at 17
    # and 21 pieces), so the median of a free mix falls between the modes,
    # where it jumps from seed to seed.  Here the median op falls inside the
    # 17-piece class and the tail inside the 21-piece class.
    CLASSES = (None, 17, 17, 21, None, 17, 17, 21)
    PROBE_STEPS = 8
    # Draws classified per set-up: at least MIN_DRAWS, so that set-up work
    # hardly depends on the seed, and at most MAX_DRAWS.
    MIN_DRAWS, MAX_DRAWS = 160, 4000
    trace_ops = len(CLASSES)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_max = 60 if self.tiny else 200
        self.pool = len(self.CLASSES)
        self.recorded_ops = self.pool
        self.inputs = []

    def _class_of(self, u, prefix):
        state = u
        for n in range(1, self.PROBE_STEPS + 1):
            for h in prefix[:n]:
                state = step1d.polarize(state, h)
        return None if state == step1d.rearrange(u) else state.piece_count

    def setup(self):
        prefix = Schedule(dimension=1, rho=self.RHO).first(self.PROBE_STEPS)
        slots = [None] * self.pool
        rng = random.Random(f"{self.name}:{self.seed}")
        for draw in range(self.MAX_DRAWS):
            if draw >= self.MIN_DRAWS and all(u is not None for u in slots):
                break
            u = generators.random_step_function(rng, span=1.0)
            cls = self._class_of(u, prefix)
            free = [j for j, want in enumerate(self.CLASSES)
                    if want == cls and slots[j] is None]
            if free:
                slots[free[0]] = u
        else:
            raise RuntimeError(f"seed {self.seed}: {self.MAX_DRAWS} draws "
                               f"did not fill the classes {self.CLASSES}")
        self.inputs = slots

    def key(self, i):
        return i % self.pool

    def op(self, i):
        return analysis.converge_restricted(self.inputs[self.key(i)],
                                            rho=self.RHO, n_max=self.n_max)

    def check(self, i, series):
        u = self.inputs[self.key(i)]

        def verify():
            if len(series) != self.n_max + 1:
                return f"{len(series)} records, want {self.n_max + 1}"
            if not nondecreasing(series.weighted_masses()):
                return "weighted mass decreased"
            if series.final.lp_error >= 1e-2 * step1d.lp_norm(u, 1):
                return "final L1 error above the criterion-2 bound"
            return None

        return self._compare(i, digest(series.dumps()), verify)


# The CLI's "contraction" suite is left out: its absolute tolerance of 1e-12
# rejects gaps of one rounding step on distances of about 1e4 (about one
# case in 5,000 to 100,000), so a run on some seeds would fail an op for a
# known defect of the suite, not of the outputs it checks.  Put it back once
# the suite's tolerance is relative to the magnitude.
SUITES = ("cavalieri", "hardy-littlewood", "polarization",
          "lattice-fixed-point")


class Suites(Workload):
    """One round: four of the CLI property suites in-process, then as many
    grid (criterion-6) cases, all on fresh seeds."""

    name = "suites"
    recorded_ops = 512   # more rounds than a run completes at the seed commit

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cases = 2 if self.tiny else 20
        self.trace_ops = 2 if self.tiny else 20

    def warm_up(self):
        self.op(-1)

    def _grid_case(self, rng):
        u = generators.random_grid_function(rng)
        hp = generators.random_lattice_hyperplane(rng)
        exact = grid2d.polarize_grid_exact(u, hp)
        interp = grid2d.polarize_grid_interp(u, hp.as_halfspace(u.h))
        return (u, hp, exact, interp, grid2d.rearrange_grid(u),
                grid2d.gaussian_cell_mass(u), grid2d.gaussian_cell_mass(exact))

    def op(self, i):
        suite_seed = self.seed * 10**9 + (i + 1) * self.cases
        reports = []
        for suite in SUITES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["check", "--suite", suite, "--cases",
                                 str(self.cases), "--seed", str(suite_seed)])
            reports.append((suite, code, out.getvalue()))
        grids = [self._grid_case(random.Random(f"{self.name}:{self.seed}:{i}:{c}"))
                 for c in range(self.cases)]
        return reports, grids

    def check(self, i, out):
        reports, grids = out
        for suite, code, text in reports:
            if code != 0 or text != f"{suite}: {self.cases} cases, pass\n":
                return f"op {i}: suite {suite} exited {code}: {text!r}"

        def verify():
            for u, hp, exact, interp, rearranged, mass_u, mass_exact in grids:
                values = u.sorted_values()
                if not np.array_equal(exact.sorted_values(), values):
                    return f"grid polarization changed the values for {hp}"
                if not np.array_equal(rearranged.sorted_values(), values):
                    return "grid rearrangement changed the values"
                if not np.array_equal(exact.values, interp.values):
                    return f"interp mode differs from exact mode on {hp}"
                if hp.contains_origin() and mass_exact < mass_u - MASS_TOL:
                    return f"Gaussian mass decreased across {hp}"
            return None

        texts = [text for _, _, text in reports]
        for _, _, exact, _, rearranged, _, _ in grids:
            texts += [grid2d.dumps(exact), grid2d.dumps(rearranged)]
        return self._compare(i, digest(*texts), verify)


class CliPipeline(Workload):
    """One fixed job of in-process ``cli.main`` calls on CSV files written at
    set-up: polarize and rearrange a large step function, lattice function
    and grid, then converge a small lattice and a small grid input."""

    name = "cli-pipeline"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.tiny:
            self.pieces, self.span, self.sites, self.grid_m = 100, 16, 100, 8
            self.n_lattice, self.n_grid = 20, 8
        else:
            self.pieces, self.span, self.sites, self.grid_m = 4000, 512, 4000, 64
            self.n_lattice, self.n_grid = 60, 24
        self.trace_ops = 2 if self.tiny else 20
        self.calls = []
        self.inputs = {}

    def key(self, i):
        return 0

    def _path(self, name):
        return str(self.workdir / name)

    def setup(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        cells = int(2 * self.span * 8)
        idx = sorted(rng.sample(range(cells + 1), self.pieces + 1))
        step = step1d.StepFunction([-self.span + k / 8 for k in idx],
                                   [10.0 * (1.0 - rng.random())
                                    for _ in range(self.pieces)])
        big_lattice = lattice.LatticeFunction(
            (s, float(rng.randint(1, 9)))
            for s in rng.sample(range(-self.sites, self.sites + 1), self.sites))
        grid = generators.random_grid_function(rng, m=self.grid_m)
        hp = generators.random_lattice_hyperplane(rng, m=self.grid_m)
        halfspace = Halfspace.line(rng.choice((1.0, -1.0)), rng.randint(1, 32) / 16)
        center = rng.randint(-16, 16)
        small_lattice = generators.random_lattice_function(rng)
        small_grid = generators.random_grid_function(rng)
        self.inputs = {"step.csv": step, "lattice.csv": big_lattice,
                       "grid.csv": grid}
        for name, u, module in (("step.csv", step, step1d),
                                ("lattice.csv", big_lattice, lattice),
                                ("grid.csv", grid, grid2d),
                                ("small-lattice.csv", small_lattice, lattice),
                                ("small-grid.csv", small_grid, grid2d)):
            module.write_csv(u, self._path(name))
        jobs = [("polarize", "step.csv", ["--by", halfspace.encode()]),
                ("rearrange", "step.csv", []),
                ("polarize", "lattice.csv", ["--by", f"c={center}"]),
                ("rearrange", "lattice.csv", []),
                ("polarize", "grid.csv", ["--by", hp.encode()]),
                ("rearrange", "grid.csv", []),
                ("converge", "small-lattice.csv", ["--n-max", str(self.n_lattice)]),
                ("converge", "small-grid.csv", ["--n-max", str(self.n_grid)])]
        self.calls = [(command, name, f"out-{k}-{command}-{name}", [
            command, "--input", self._path(name),
            "--output", self._path(f"out-{k}-{command}-{name}"), *extra])
            for k, (command, name, extra) in enumerate(jobs)]

    def prepare(self, i):
        # A call that writes nothing must not pass on an earlier op's file.
        for _, _, out, _ in self.calls:
            Path(self._path(out)).unlink(missing_ok=True)

    def op(self, i):
        return [cli.main(argv) for *_, argv in self.calls]

    def _verify(self, texts):
        for (command, name, _, _), text in zip(self.calls, texts):
            if command == "converge":
                n_max = self.n_lattice if "lattice" in name else self.n_grid
                series = ConvergenceSeries.loads(text)
                if len(series) != n_max + 1:
                    return f"{command} {name}: {len(series)} records"
                if not nondecreasing(series.weighted_masses()):
                    return f"{command} {name}: weighted mass decreased"
                continue
            u = self.inputs[name]
            if name == "step.csv":
                same = (step_distribution(step1d.loads(text))
                        == step_distribution(u))
            elif name == "lattice.csv":
                same = lattice.loads(text).sorted_values() == u.sorted_values()
            else:
                same = np.array_equal(grid2d.loads(text).sorted_values(),
                                      u.sorted_values())
            if not same:
                return f"{command} {name} changed the value distribution"
        return None

    def check(self, i, codes):
        texts = []
        for (command, name, out, _), code in zip(self.calls, codes):
            if code != 0:
                return f"op {i}: {command} {name} exited {code}"
            try:
                with open(self._path(out), encoding="utf-8") as fh:
                    texts.append(fh.read())
            except FileNotFoundError:
                return f"op {i}: {command} {name} wrote no output"
        return self._compare(i, digest(*texts), lambda: self._verify(texts))


WORKLOADS = {w.name: w for w in (Scheme1D, Suites, CliPipeline)}


def make(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """The workload, with the recorded digests when they apply."""
    recorded = None
    if seed == DEFAULT_SEED and size == "full" and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(name)
    return WORKLOADS[name](seed, size, workdir, recorded)
