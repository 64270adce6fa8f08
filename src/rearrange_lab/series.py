"""Per-iteration convergence records and the triangular-scheme driver
shared by the three engines.

CSV layout: header ``n,lp_error,weighted_mass,sup_error,deviation_measure``,
one row per recorded iteration (table rules in ``_textio``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def _triangular_scheme(start, steps, n_max, apply, record, target=None,
                       reverse=False) -> ConvergenceSeries:
    """Triangular scheme: outer step n applies steps[k % len(steps)] for
    k = 0 .. n-1 (n-1 .. 0 if reverse), then appends record(n, state,
    previous record).  apply must return its input object when it changes
    nothing.  An index seen to do so on the current state is skipped until
    the state changes, and an outer step that keeps the identical state
    repeats the previous record with the new n; both give the rows of the
    naive loop.  Once the state equals target, no step is applied."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    records = [record(0, start, None)]
    current, noop = start, set()
    done = target is not None and current == target
    for n in range(1, n_max + 1):
        before = current
        for k in range(n) if not done else ():
            k = (n - 1 - k if reverse else k) % len(steps)
            if k not in noop:
                out = apply(current, steps[k])
                if out is current:
                    noop.add(k)
                else:
                    noop, current = set(), out
        if current is not before:
            done = target is not None and current == target
        records.append(replace(records[-1], n=n) if current is before
                       else record(n, current, records[-1]))
    return ConvergenceSeries(tuple(records))
