"""Per-iteration convergence records and the triangular-scheme driver
shared by the three engines.

CSV layout: header ``n,lp_error,weighted_mass,sup_error,deviation_measure``,
one row per recorded iteration, 17-significant-digit decimals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import _textio
from .errors import ParseError


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
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(",".join([
                str(r.n),
                format(r.lp_error, ".17g"),
                format(r.weighted_mass, ".17g"),
                format(r.sup_error, ".17g"),
                format(r.deviation_measure, ".17g"),
            ]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        _textio.write_text(path, self.dumps())

    @classmethod
    def loads(cls, text: str) -> "ConvergenceSeries":
        lines = _textio.data_lines(text)
        if not lines or lines[0].strip() != CSV_HEADER:
            raise ParseError("expected convergence-series header")
        records = []
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != 5:
                raise ParseError(f"bad series row {line!r}")
            try:
                records.append(ConvergenceRecord(
                    int(parts[0]), float(parts[1]), float(parts[2]),
                    float(parts[3]), float(parts[4])))
            except ValueError as exc:
                raise ParseError(f"bad number in row {line!r}") from exc
        return cls(tuple(records))

    @classmethod
    def read_csv(cls, path) -> "ConvergenceSeries":
        return cls.loads(_textio.read_text(path))


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
