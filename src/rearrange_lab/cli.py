"""Command-line front end: function I/O, experiments, property suites,
schedule inspection.

Exit codes: 0 success, 1 property-suite failure, 2 parse, usage or file error,
3 geometry failure (grid reflection escapes the array), 4 invariant
violation during a convergence run; today only the 1-D scheme checks its
invariants, so only a step-function run gives exit 4.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import random
import sys

from . import _textio, analysis, generators, grid2d, lattice, step1d
from .errors import ParseError
from .grid2d import Axis, GridFitError, HyperplaneKind, LatticeHyperplane
from .halfspace import Halfspace, Schedule

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GEOMETRY = 3
EXIT_INVARIANT = 4

# converge --n-max: the schedule, the site list and the records grow with it
N_MAX_LIMIT = 10**6


def _sniff_engine(path: str) -> str:
    """The engine of a table file, from its first non-blank line (the codec
    skips blank lines); reading stops at that line."""
    with open(path, "r", encoding="utf-8") as fh:
        first = next((line.strip() for line in fh if line.strip()), "")
    if first == step1d.CSV_HEADER:
        return "step1d"
    if first == lattice.CSV_HEADER:
        return "lattice"
    parts = first.split(",")
    if len(parts) == 2:
        try:
            int(parts[0])
            float(parts[1])
            return "grid2d"
        except ValueError:
            pass
    raise ParseError(f"cannot infer engine from header {first!r}")


_GRID_STEPS = (Axis.X, Axis.Y, LatticeHyperplane(HyperplaneKind.DIAG_UP, 0),
               LatticeHyperplane(HyperplaneKind.DIAG_DOWN, 0))

# Engine -> (read_csv, write_csv, parse --by, polarize, rearrange,
# converge(u, args, weight, schedule)).  Plain tuples of the engine
# functions: the benchmark's tracer wraps functions held in module-level
# tables this way.
ENGINES = {
    "step1d": (
        step1d.read_csv, step1d.write_csv,
        functools.partial(Halfspace.parse, dimension=1),
        step1d.polarize, step1d.rearrange,
        lambda u, args, weight, schedule: analysis.converge_scheme(
            u, schedule, n_max=args.n_max, p=args.p, weight=weight,
            eps=args.eps, order=args.order)),
    "lattice": (
        lattice.read_csv, lattice.write_csv,
        lambda text: _textio.keyed(text, {"c": int}, "c=<int>")[0],
        lattice.polarize_involution, lattice.rearrange_lattice,
        lambda u, args, weight, schedule: lattice.schedule_scheme_lattice(
            u, lattice.spiral_sites(args.n_max), n_max=args.n_max,
            p=args.p, eps=args.eps)),
    "grid2d": (
        grid2d.read_csv, grid2d.write_csv, LatticeHyperplane.parse,
        grid2d.polarize_grid_exact, grid2d.rearrange_grid,
        lambda u, args, weight, schedule: grid2d.mixed_schedule(
            u, _GRID_STEPS, n_max=args.n_max, p=args.p, eps=args.eps)),
}
_IO = ENGINES   # the name the benchmark's self-tests read the table by


def _load(args):
    """The ENGINES entry of the input file's engine, and the function the
    file holds."""
    engine = ENGINES[_sniff_engine(args.input)]
    return engine, engine[0](args.input)


def cmd_polarize(args) -> int:
    (_, write, parse_by, polarize, _, _), u = _load(args)
    write(polarize(u, parse_by(args.by)), args.output)
    return EXIT_OK


def cmd_rearrange(args) -> int:
    (_, write, _, _, rearrange, _), u = _load(args)
    write(rearrange(u), args.output)
    return EXIT_OK


def cmd_converge(args) -> int:
    # before anything that grows with n_max is built, on every engine
    if args.n_max < 1:
        raise ParseError("--n-max must be >= 1")
    if args.n_max > N_MAX_LIMIT:
        raise ParseError(f"--n-max must be at most {N_MAX_LIMIT}")
    # --weight and --rho are checked on every engine, though only step1d
    # reads them; each scheme checks --p and --eps itself.
    (*_, converge), u = _load(args)
    weight = analysis.RadialWeight.parse(args.weight)
    schedule = Schedule(dimension=1, rho=args.rho)
    converge(u, args, weight, schedule).write_csv(args.output)
    return EXIT_OK


# -- property suites -------------------------------------------------------


def _case_cavalieri(rng):
    u = generators.random_step_function(rng)
    u_star = step1d.rearrange(u)
    for p in (1.0, 2.0, 3.0):
        if analysis._cavalieri_gap(u, u_star, p) >= 1e-12:
            return f"cavalieri gap at p={p}:\n{step1d.dumps(u)}"
    return None


def _case_hardy_littlewood(rng):
    u = generators.random_step_function(rng)
    v = generators.random_step_function(rng)
    if analysis.hardy_littlewood_gap(u, v) < -1e-12:
        return f"hardy-littlewood gap negative:\n{step1d.dumps(u)}{step1d.dumps(v)}"
    return None


def _case_contraction(rng):
    u = generators.random_step_function(rng)
    v = generators.random_step_function(rng)
    for p in (1.0, 2.0, 3.0):
        gap = analysis.contraction_gap(u, v, p)
        # gap = d - d* for distances d, d* that reach ~1e4 at p=3, where one
        # rounding step is ~1e-12: the tolerance scales with max(d, d*).
        if gap < -1e-12:
            d = step1d.lp_distance_pow(u, v, p)
            if gap < -1e-12 * max(1.0, d, d - gap):
                return f"contraction gap negative at p={p}:\n{step1d.dumps(u)}{step1d.dumps(v)}"
    return None


def _case_polarization(rng):
    u = generators.random_step_function(rng)
    h = generators.random_halfspace_1d(rng)
    w = analysis.RadialWeight.gaussian()
    if analysis.polarization_gap(u, h, w) < -1e-12:
        return f"polarization gap negative for {h.encode()}:\n{step1d.dumps(u)}"
    return None


def _case_lattice_fixed_point(rng):
    u = generators.random_lattice_function(rng)
    fixed, _ = lattice.two_involution_scheme(u)
    if fixed != lattice.rearrange_lattice(u):
        return f"fixed point differs from rearrangement:\n{lattice.dumps(u)}"
    return None


SUITES = {
    "cavalieri": _case_cavalieri,
    "hardy-littlewood": _case_hardy_littlewood,
    "contraction": _case_contraction,
    "polarization": _case_polarization,
    "lattice-fixed-point": _case_lattice_fixed_point,
}


def _run_suite(name, cases, seed):
    """(index, report) of each failing case; case i runs on seed + i."""
    check = SUITES[name]
    results = (check(random.Random(seed + i)) for i in range(cases))
    return [(i, r) for i, r in enumerate(results) if r is not None]


def cmd_check(args) -> int:
    if args.cases < 1:
        raise ParseError("cases must be >= 1")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        failures = _run_suite(name, args.cases, args.seed)
        status = "pass" if not failures else f"FAIL ({len(failures)} cases)"
        print(f"{name}: {args.cases} cases, {status}")
        for i, report in failures[:10]:
            print(f"  case {i} (seed {args.seed + i}): {report}")
        failed = failed or bool(failures)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_schedule(args) -> int:
    if args.count < 1:
        raise ParseError("count must be >= 1")
    schedule = Schedule(dimension=args.dim, rho=args.rho)
    for h in itertools.islice(schedule._halfspaces(), args.count):
        print(h.encode())
    return EXIT_OK


@functools.cache
def _build_parser():
    """The argument parser, built once: parse_args keeps no state in it."""

    def finite(text: str) -> float:
        # argparse reports the ValueError as "invalid finite value"
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(text)
        return value

    parser = argparse.ArgumentParser(
        prog="rearrange-lab",
        description="Polarization and symmetric-rearrangement experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p):
        p.add_argument("--input", required=True, help="input function CSV")
        p.add_argument("--output", required=True, help="output CSV path")

    p = sub.add_parser("polarize", help="polarize a function across a "
                       "halfspace (step1d), involution (lattice), or "
                       "lattice hyperplane (grid2d)")
    io_flags(p)
    p.add_argument("--by", required=True,
                   help="nu=..,d=.. | c=.. | dir=X,s=..")
    p.set_defaults(func=cmd_polarize)

    p = sub.add_parser("rearrange", help="symmetric decreasing rearrangement")
    io_flags(p)
    p.set_defaults(func=cmd_rearrange)

    p = sub.add_parser("converge", help="run the triangular iterated-"
                       "polarization scheme and write the series CSV")
    io_flags(p)
    p.add_argument("--p", type=finite, default=1.0)
    p.add_argument("--rho", type=float, default=1.0,
                   help="schedule offset bound")
    p.add_argument("--n-max", type=int, default=60,
                   help=f"outer steps, 1 to {N_MAX_LIMIT}")
    p.add_argument("--eps", type=finite, default=0.01,
                   help="level for the deviation-measure column")
    p.add_argument("--weight", default="triangular:16",
                   help="gaussian | triangular:R")
    p.add_argument("--order", choices=("forward", "reversed"),
                   default="forward")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("check", help="run a seeded property suite")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("schedule", help="print a schedule prefix")
    p.add_argument("--dim", type=int, choices=(1, 2), default=1)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_schedule)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GridFitError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except analysis.InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
