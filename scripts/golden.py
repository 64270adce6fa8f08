"""Golden outputs of rearrange_lab: record them, or check them.

The corpus is fixed:

- 480 step1d convergence series: seeds 0-39 x p in {1, 2, 3} x both
  orders x rho in {0.1, 1}, at n_max 60; odd seeds use the Gaussian
  weight, even seeds the triangular one;
- 80 deep step1d series, the benchmark's configuration: seeds 0-39 x
  both orders at rho 0.1, n_max 200, p 1, the triangular weight, and
  the stalled draw (seed 11) at n_max 10^4 in both orders, whose
  look-ahead reaches far into the schedule between state changes;
- 80 lattice series (seeds 0-39 x p in {1, 2}, n_max 60) and 80 grid
  series (seeds 0-39 x p in {1, 2}, n_max 24, the CLI's four steps);
- the function CSVs of polarize and rearrange on all three engines, one
  draw per seed;
- the exit code and the last stderr line of each command in BAD_COMMANDS,
  and whether it wrote its output file.

Each output is kept as a SHA-256 digest.  Two columns are not exact
across platforms: the Gaussian step1d mass goes through math.erf and the
grid mass through np.exp, whose last bits depend on the libm and the CPU.
So a series with such a column has two digests: one of its bytes without
the weighted_mass column, compared everywhere, and one of all its bytes,
compared only where np.exp and math.erf give the recorded bits on a fixed
probe and Python and NumPy have the recorded versions (the platform key).

    python3 scripts/golden.py           # rewrite tests/golden.json
    python3 scripts/golden.py --check   # name the first output that differs
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rearrange_lab import (analysis, cli, generators, grid2d,  # noqa: E402
                           lattice, step1d)

GOLDEN = ROOT / "tests" / "golden.json"
SEEDS = range(40)

# name -> (input file text or None, command line; {src} and {out} stand for
# the input and output paths)
_STEP = "breakpoint,value\n0,1\n1,2\n2,\n"
_LATTICE = "site,value\n0,1\n3,2\n"
_GRID = "1,0.5\n0,0,0\n0,1,0\n0,0,2\n"
_CONVERGE = ["converge", "--input", "{src}", "--output", "{out}"]
_POLARIZE = ["polarize", "--input", "{src}", "--output", "{out}", "--by"]
_REARRANGE = ["rearrange", "--input", "{src}", "--output", "{out}"]
BAD_COMMANDS = {
    "converge n_max 0": (_STEP, _CONVERGE + ["--n-max", "0"]),
    "converge n_max above the limit": (_STEP, _CONVERGE + ["--n-max",
                                                           "1000001"]),
    "converge step1d p below 1": (_STEP, _CONVERGE + ["--p", "0.5"]),
    "converge lattice p 0": (_LATTICE, _CONVERGE + ["--p", "0"]),
    "converge grid p 0": (_GRID, _CONVERGE + ["--p", "0"]),
    "converge step1d eps 0": (_STEP, _CONVERGE + ["--eps", "0"]),
    "converge lattice eps 0": (_LATTICE, _CONVERGE + ["--eps", "0"]),
    "converge grid eps -1": (_GRID, _CONVERGE + ["--eps", "-1"]),
    "converge bad weight": (_STEP, _CONVERGE + ["--weight", "boxcar"]),
    "converge infinite p": (_STEP, _CONVERGE + ["--p", "inf"]),
    "converge step1d norm overflow": (
        "breakpoint,value\n3,1e200\n4,\n", _CONVERGE + ["--p", "2"]),
    "converge step1d mass overflow": (
        "breakpoint,value\n0,1e308\n1.5,\n", _CONVERGE + ["--n-max", "2"]),
    "converge step1d error overflow": (
        "breakpoint,value\n10,1.5e308\n11,\n",
        _CONVERGE + ["--n-max", "2", "--weight", "gaussian"]),
    "converge lattice error overflow": (
        "site,value\n5,1e308\n6,1e308\n", _CONVERGE + ["--n-max", "3"]),
    "converge grid error overflow": (
        "1,0.5\n0,0,0\n1e308,1e308,0\n0,0,0\n", _CONVERGE + ["--n-max", "2"]),
    "converge step1d deviation overflow": (
        "breakpoint,value\n6e307,0.5\n1.6e308,\n",
        _CONVERGE + ["--n-max", "2"]),
    "converge grid deviation overflow": (
        "1,1e154\n0,0,0\n0,0,0\n0,0,0.1\n", _CONVERGE + ["--n-max", "2"]),
    "converge grid cell area": ("1,1e200\n0,0,0\n0,1,0\n0,0,0\n",
                                _CONVERGE + ["--n-max", "2"]),
    "converge no input": (None, ["converge", "--output", "{out}"]),
    "polarize step1d escape": (_STEP, _POLARIZE + ["nu=1,d=-1e308"]),
    "polarize step1d bad by": (_STEP, _POLARIZE + ["nu=1,d=0.5,x=3"]),
    "polarize lattice bad by": (_LATTICE, _POLARIZE + ["c=1.5"]),
    "polarize grid escape": (_GRID, _POLARIZE + ["dir=X,s=-1.5"]),
    "polarize grid bad offset": (_GRID, _POLARIZE + ["dir=U,s=0.5"]),
    "rearrange missing input": (None, _REARRANGE),
    "rearrange bad header": ("foo,bar,baz\n", _REARRANGE),
    "rearrange decreasing breakpoints": (
        "breakpoint,value\n1,1\n0,\n", _REARRANGE),
    "rearrange negative value": ("breakpoint,value\n0,-1\n1,\n", _REARRANGE),
    "rearrange length overflow": (
        "breakpoint,value\n-8.988465674311578e+307,1\n"
        "-3.5693773871033044e+307,2\n-1.9259079943139304e+306,3\n"
        "6.742918414183176e+307,4\n8.952001825597159e+307,5\n"
        "8.988465674311579e+307,\n", _REARRANGE),
    "rearrange lattice repeated site": (
        "site,value\n1,1\n1,2\n", _REARRANGE),
    "rearrange grid wrong shape": ("1,0.5\n0,0\n0,1\n", _REARRANGE),
    "check cases 0": (None, ["check", "--cases", "0"]),
    "schedule count 0": (None, ["schedule", "--count", "0"]),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _without_mass(text: str) -> str:
    """A series CSV without its weighted_mass column."""
    rows = (line.split(",") for line in text.splitlines())
    return "\n".join(",".join(row[:2] + row[3:]) for row in rows)


def platform_key() -> str:
    """Python's and NumPy's versions, and np.exp and math.erf on a fixed
    probe of the arguments the grid and Gaussian masses meet."""
    probe = np.arange(-4096, 4097) / 256.0
    h = hashlib.sha256(f"{sys.version_info[:2]} {np.__version__}".encode())
    h.update(np.exp(-probe * probe).tobytes())
    h.update(np.array([math.erf(x) for x in probe.tolist()]).tobytes())
    return h.hexdigest()[:16]


def outputs():
    """(name, text, platform-dependent) of each output of the corpus."""
    for seed in SEEDS:
        weight = (analysis.RadialWeight.gaussian() if seed % 2
                  else analysis.RadialWeight.triangular(16.0))
        for rho in (0.1, 1.0):
            # the restricted schedule reaches only near the origin
            u = generators.random_step_function(
                random.Random(seed), span=1.0 if rho < 1 else generators.SPAN)
            for p in (1.0, 2.0, 3.0):
                for order in ("forward", "reversed"):
                    series = analysis.converge_restricted(
                        u, rho=rho, n_max=60, p=p, weight=weight,
                        order=order)
                    yield (f"step1d series seed {seed} rho {rho} p {p} "
                           f"{order}", series.dumps(), seed % 2 == 1)
    for seed, n_max in [*((seed, 200) for seed in SEEDS), (11, 10**4)]:
        u = generators.random_step_function(random.Random(seed), span=1.0)
        for order in ("forward", "reversed"):
            series = analysis.converge_restricted(u, rho=0.1, n_max=n_max,
                                                  order=order)
            yield (f"step1d series seed {seed} rho 0.1 n_max {n_max} "
                   f"{order}", series.dumps(), False)
    for seed in SEEDS:
        v = generators.random_lattice_function(random.Random(seed))
        for p in (1.0, 2.0):
            series = lattice.schedule_scheme_lattice(v, n_max=60, p=p,
                                                     eps=0.5)
            yield f"lattice series seed {seed} p {p}", series.dumps(), False
    for seed in SEEDS:
        g = generators.random_grid_function(random.Random(seed),
                                            m=2 + 2 * (seed % 3))
        for p in (1.0, 2.0):
            series = grid2d.mixed_schedule(g, cli._GRID_STEPS, n_max=24, p=p)
            yield f"grid series seed {seed} p {p}", series.dumps(), True
    for seed in SEEDS:
        rng = random.Random(1000 + seed)
        u = generators.random_step_function(rng)
        h = generators.random_halfspace_1d(rng, signed_offset=True)
        v = generators.random_lattice_function(rng)
        c = rng.randint(-70, 70)
        g = generators.random_grid_function(rng)
        hp = generators.random_lattice_hyperplane(rng)
        for name, text in (
                ("step1d polarize", step1d.dumps(step1d.polarize(u, h))),
                ("step1d rearrange", step1d.dumps(step1d.rearrange(u))),
                ("lattice polarize",
                 lattice.dumps(lattice.polarize_involution(v, c))),
                ("lattice rearrange",
                 lattice.dumps(lattice.rearrange_lattice(v))),
                ("grid polarize",
                 grid2d.dumps(grid2d.polarize_grid_exact(g, hp))),
                ("grid rearrange", grid2d.dumps(grid2d.rearrange_grid(g)))):
            yield f"{name} seed {seed}", text, False


def errors():
    """(name, [exit code, last stderr line, output written]) of each bad
    command, run in process; the working directory reads as <dir>."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, (text, argv) in BAD_COMMANDS.items():
            src, out = Path(tmp, "in.csv"), Path(tmp, "out.csv")
            src.unlink(missing_ok=True)
            out.unlink(missing_ok=True)
            if text is not None:
                src.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([a.format(src=src, out=out) for a in argv])
            lines = err.getvalue().replace(tmp, "<dir>").splitlines()
            yield name, [code, lines[-1] if lines else "", out.exists()]


def compute() -> dict:
    exact, full = {}, {}
    for name, text, dependent in outputs():
        exact[name] = digest(_without_mass(text) if dependent else text)
        if dependent:
            full[name] = digest(text)
    return {"platform": platform_key(), "outputs": exact,
            "platform_outputs": full, "errors": dict(errors())}


def first_difference(recorded: dict, current: dict) -> str | None:
    """The first output of the corpus, in corpus order, whose digest or
    error differs from the recorded one; None when all agree.  The
    platform-dependent digests count only on the recorded platform."""
    kinds = ["outputs", "errors"]
    if recorded["platform"] == current["platform"]:
        kinds.insert(1, "platform_outputs")
    for kind in kinds:
        want, got = recorded[kind], current[kind]
        for name in [*got, *(n for n in want if n not in got)]:
            if want.get(name) != got.get(name):
                return (f"{kind}: {name!r} is {got.get(name)!r}, recorded "
                        f"{want.get(name)!r}")
    return None


def main(argv: list[str]) -> int:
    current = compute()
    if argv == ["--check"]:
        found = first_difference(json.loads(GOLDEN.read_text()), current)
        print(found or "all outputs match")
        return 1 if found else 0
    if argv:
        print("usage: golden.py [--check]", file=sys.stderr)
        return 2
    GOLDEN.write_text(json.dumps(current, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
