"""Per-iteration convergence records, and what the three engines' schemes
share: the parameter check, the row formula and the triangular driver.

CSV layout: header ``n,lp_error,weighted_mass,sup_error,deviation_measure``,
one row per recorded iteration (table rules in ``_textio``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _textio


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    lp_error: float
    weighted_mass: float
    sup_error: float
    deviation_measure: float


CSV_HEADER = "n,lp_error,weighted_mass,sup_error,deviation_measure"


@dataclass(frozen=True)
class ConvergenceSeries:
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def final(self) -> ConvergenceRecord:
        return self.records[-1]

    def weighted_masses(self) -> list[float]:
        return [r.weighted_mass for r in self.records]

    def dumps(self) -> str:
        rows = [(r.n, r.lp_error, r.weighted_mass, r.sup_error,
                 r.deviation_measure) for r in self.records]
        return _textio.dumps(CSV_HEADER, (int, float, float, float, float),
                             zip(*rows))

    def write_csv(self, path) -> None:
        _textio.write_text(path, self.dumps())

    @classmethod
    def loads(cls, text: str) -> "ConvergenceSeries":
        return _textio.loads(
            text, CSV_HEADER, (int, float, float, float, float),
            lambda *columns: cls(map(ConvergenceRecord, *columns)))

    @classmethod
    def read_csv(cls, path) -> "ConvergenceSeries":
        return cls.loads(_textio.read_text(path))


def finite_result(compute, what: str) -> float:
    """compute(), or ValueError naming `what` when the result, or a step on
    the way to it, leaves the float range.  A numpy overflow raises here
    instead of warning, as do Python's float power and math.fsum."""
    try:
        with np.errstate(over="raise"):
            total = compute()
        if math.isfinite(total):
            return total
    except (OverflowError, FloatingPointError):
        pass
    raise ValueError(f"{what} overflows the float range")


def check_scheme_parameters(p: float, eps: float) -> None:
    """ValueError unless p > 0 and eps > 0; each scheme calls it before its
    first polarization, the lattice and grid schemes before anything else."""
    if not p > 0:
        raise ValueError("p must be > 0")
    if eps <= 0:
        raise ValueError("eps must be positive")


def record(n: int, diff, widths, unit: float, mass: float, p: float,
           eps: float) -> ConvergenceRecord:
    """The row of outer step n: diff is |state - target| on the cells, the
    measure of cell k is widths[k] * unit, and mass is the state's weighted
    mass.  ValueError when the L^p error leaves the float range."""
    return ConvergenceRecord(
        n=n,
        lp_error=finite_result(lambda: (math.fsum(
            (diff if p == 1 else diff ** p) * widths) * unit) ** (1.0 / p),
            "L^p error"),
        weighted_mass=mass,
        sup_error=float(np.max(diff)) if diff.size else 0.0,
        deviation_measure=math.fsum(widths[diff > eps]) * unit,
    )


def _triangular_scheme(start, steps, n_max, apply, row, target=None,
                       reverse=False, movers=None) -> ConvergenceSeries:
    """Triangular scheme: outer step n applies steps[k % len(steps)] for
    k = 0 .. n-1 (n-1 .. 0 if reverse), then appends row(n, state,
    previous record).  Once an outer step ends on the state target, no
    step is applied.

    The driver works per state, not per index.  apply must return its
    input object when it changes nothing, and repeat that answer for the
    same state and step.  From each new state the driver lists the
    applications the naive loop makes next (``_upcoming``, as entries
    (outer step, position, index, None)) and applies them in order until
    one returns a new state.  When given, movers(state, upcoming) filters
    those entries: it yields, in order, the entries of upcoming whose
    step apply may change state with, and only those are taken.  An entry
    it yields with a state in place of None is that step's result, which
    the driver adopts without calling apply; the others reach apply.  An
    outer step that ends on the identical state repeats the previous
    record with the new n.  Both give the rows of the naive loop."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    records = [row(0, start, None)]
    current = before = start
    done = target is not None and current == target
    n = 1   # the outer step under way

    def finish(until):
        """Append the records of the outer steps n .. until-1."""
        nonlocal n, before, done
        while n < until:
            if current is before:
                r = records[-1]
                records.append(ConvergenceRecord(
                    n, r.lp_error, r.weighted_mass, r.sup_error,
                    r.deviation_measure))
            else:
                records.append(row(n, current, records[-1]))
                before = current
                done = target is not None and current == target
            n += 1

    resume = (1, 0)   # outer step and position of the next application
    while not done:
        upcoming = _upcoming(*resume, n_max, len(steps), reverse)
        if movers is not None:
            upcoming = movers(current, upcoming)
        for m, q, k, out in upcoming:
            if m > n:
                finish(m)
                if done:
                    break
            if out is None:
                out = apply(current, steps[k])
            if out is not current:
                current, resume = out, (m, q + 1)
                break
        else:
            break
    finish(n_max + 1)
    return ConvergenceSeries(tuple(records))


def _upcoming(n, q, n_max, size, reverse):
    """(outer step, position, index, None) of the applications the naive
    loop makes from position q of outer step n on, while the state stays
    the same; None stands for the result, not known yet.  Each index is
    listed at its first appearance only: a repeat on the same state gives
    the same no-op.  That is the rest of step n, all of step n + 1, and
    then the one new index m - 1 of each later step m."""
    seen = set()
    for m in range(n, n_max + 1):
        if m <= n + 1:
            positions = range(q if m == n else 0, m)
        else:   # step m - 1 applied every index below m - 1
            positions = (0 if reverse else m - 1,)
        for pos in positions:
            k = (m - 1 - pos if reverse else pos) % size
            if k not in seen:
                seen.add(k)
                yield m, pos, k, None
        if len(seen) == size:
            return
