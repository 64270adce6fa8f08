"""Per-iteration convergence records, kept run-length encoded as a
ConvergenceSeries (one row per state change and the end of its run of
repeated n), and what the three engines' schemes share: the parameter
check, the row formula, applied to a block of states at once, and the
triangular driver, which asks its engine once per state what changes
that state next (next_change; _first_change builds one from a list of
steps) and builds its series from the rows it computes, with no record
per repeated n.

Also the lab's one overflow rule.  Every mass, norm, distance and row
column is a sum taken by ``fsum``, ``fsums`` or ``power_sums``: numpy
arithmetic runs quietly, with no warning, and a sum past the float range
comes out inf (or nan).  ``finite(total, what)`` then turns a total that is not finite into a
ValueError naming it, which the CLI reports with exit 2.

CSV layout: header ``n,lp_error,weighted_mass,sup_error,deviation_measure``,
one row per recorded iteration (table rules in ``_textio``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import _textio


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    lp_error: float
    weighted_mass: float
    sup_error: float
    deviation_measure: float

    def _fields(self) -> tuple:
        return (self.lp_error, self.weighted_mass, self.sup_error,
                self.deviation_measure)

    def _at(self, n: int) -> "ConvergenceRecord":
        """This record with n in place of its own."""
        return ConvergenceRecord(n, *self._fields())


CSV_HEADER = "n,lp_error,weighted_mass,sup_error,deviation_measure"

# Lines per block of the CSV text that write_csv writes at once; bounds the
# text it holds, whatever the run's length.
_LINES = 1 << 14


class ConvergenceSeries:
    """The records of a run, n = 0 .. n_max, run-length encoded.

    rows[i] is the record of outer step rows[i].n, and also, with only n
    changed, of every outer step after it up to ends[i], exclusive: one
    row per state change, since an outer step that ends on the same state
    repeats the previous row.  ConvergenceSeries(records) holds any
    records, each a run of one; ``_runs`` builds a series from rows and
    ends.  Either way the series reads as the tuple of its records
    (``records``): len, indexing, iteration, final, weighted_masses,
    == and hash, and the CSV text, which formats each row's floats once
    and builds no record per n."""

    __slots__ = ("rows", "ends", "_starts")

    def __init__(self, records):
        rows = tuple(records)
        self._set(rows, [r.n + 1 for r in rows])

    @classmethod
    def _runs(cls, rows, ends) -> "ConvergenceSeries":
        """The series whose row rows[i] repeats up to ends[i], exclusive;
        each end is above its row's n."""
        out = cls.__new__(cls)
        out._set(tuple(rows), ends)
        return out

    def _set(self, rows, ends):
        self.rows, self.ends = rows, tuple(ends)
        # the position of each row's record in the series, and the length
        self._starts = [0, *accumulate(e - r.n for r, e in zip(rows, ends))]

    def __len__(self):
        return self._starts[-1]

    def __iter__(self):
        for row, end in zip(self.rows, self.ends):
            yield row
            yield from map(row._at, range(row.n + 1, end))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.records[i]
        i = range(len(self))[i]   # a negative i counts from the end
        j = bisect_right(self._starts, i) - 1
        row, offset = self.rows[j], i - self._starts[j]
        return row._at(row.n + offset) if offset else row

    @property
    def records(self) -> tuple:
        return tuple(self)

    @property
    def final(self) -> ConvergenceRecord:
        return self[-1]

    def weighted_masses(self) -> list[float]:
        return [mass for row, end in zip(self.rows, self.ends)
                for mass in [row.weighted_mass] * (end - row.n)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.records == other.records

    def __hash__(self):
        return hash(self.records)

    def __repr__(self) -> str:
        return f"ConvergenceSeries(records={self.records!r})"

    def dumps(self) -> str:
        """The CSV text: the blocks of write_csv, joined."""
        return "".join(self._blocks())

    def write_csv(self, path) -> None:
        """Write the CSV text to path a block at a time, so that a long
        run is never held as one string."""
        _textio.write_text(path, self._blocks())

    def _blocks(self):
        """The CSV text in blocks of whole lines: a block ends once it
        holds _LINES lines, the header aside, and a run adds at most
        _LINES at a time, so no block holds 2 * _LINES.  A row's four
        floats are formatted once, and each record of its run gets its
        own n before them."""
        columns = zip(*[row._fields() for row in self.rows])
        texts = zip(*[_textio._texts(float, column) for column in columns])
        block, lines = [CSV_HEADER + "\n"], 0
        for row, end, fields in zip(self.rows, self.ends, texts):
            tail = "," + ",".join(fields) + "\n"
            for start in range(row.n, end, _LINES):
                stop = min(start + _LINES, end)
                block.append(tail.join(map(str, range(start, stop))) + tail)
                lines += stop - start
                if lines >= _LINES:
                    yield "".join(block)
                    block, lines = [], 0
        if block:
            yield "".join(block)

    @classmethod
    def loads(cls, text: str) -> "ConvergenceSeries":
        return _textio.loads(
            text, CSV_HEADER, (int, float, float, float, float),
            lambda *columns: cls(map(ConvergenceRecord, *columns)))

    @classmethod
    def read_csv(cls, path) -> "ConvergenceSeries":
        return cls.loads(_textio.read_text(path))


def finite(total: float, what: str) -> float:
    """total, or ValueError naming `what` unless it is finite."""
    if math.isfinite(total):
        return total
    raise ValueError(f"{what} overflows the float range")


def fsum(terms) -> float:
    """math.fsum of the iterable terms; inf where the sum, or a term as
    it is computed, leaves the float range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def fsums(terms: np.ndarray, offsets: list[int]) -> list[float]:
    """fsum of each segment terms[offsets[i]:offsets[i + 1]], its terms in
    order."""
    terms = terms.tolist()
    return [fsum(terms[a:b]) for a, b in zip(offsets, offsets[1:])]


def power_sums(x: np.ndarray, p: float, weights: np.ndarray,
               offsets: list[int]) -> list[float]:
    """fsums of x**p * weights (x * weights when p == 1), computed
    quietly: inf or nan where a term or a sum leaves the float range."""
    with np.errstate(all="ignore"):
        return fsums((x if p == 1 else x ** p) * weights, offsets)


def check_scheme_parameters(p: float, eps: float) -> None:
    """ValueError unless p > 0 and eps > 0; each scheme calls it before its
    first polarization, the lattice and grid schemes before anything else."""
    if not p > 0:
        raise ValueError("p must be > 0")
    if eps <= 0:
        raise ValueError("eps must be positive")


def record(ns, diff, widths, offsets, unit: float, masses, p: float,
           eps: float) -> list[ConvergenceRecord]:
    """The rows of a block of states, the state of outer step ns[i] for
    each i.  diff is |state - target| on the cells of all of them,
    concatenated: state i's cells are those from offsets[i] to
    offsets[i + 1], a list of ints.  The measure of cell k is widths[k]
    * unit.  masses yields each state's weighted mass in turn, and may
    raise a state's error instead; row i reads its mass before its L^p
    error, so the first failing row in n order raises.  ValueError when
    a state's L^p error, or then its deviation measure, leaves the float
    range.

    Each row's L^p error is (fsum(diff**p * widths) * unit) ** (1/p)
    over the state's cells, its sup error their largest diff (0 when
    there are none), and its deviation measure fsum(widths[diff > eps])
    * unit."""
    sums = power_sums(diff, p, widths, offsets)
    over = diff > eps
    deviations = fsums(widths[over],
                       np.concatenate(([0], over.cumsum()))[offsets].tolist())
    diff = diff.tolist()
    rows = []
    for i, (n, mass) in enumerate(zip(ns, masses)):
        try:
            lp_error = (sums[i] * unit) ** (1.0 / p)
        except OverflowError:
            lp_error = math.inf
        rows.append(ConvergenceRecord(
            n, finite(lp_error, "L^p error"), mass,
            max(diff[offsets[i]:offsets[i + 1]], default=0.0),
            finite(deviations[i] * unit, "deviation measure")))
    return rows


# New states whose rows the driver asks for at once; bounds the states it
# keeps pending, whatever n_max.
_BLOCK = 64


def _triangular_scheme(start, n_max, next_change, rows, target=None,
                       start_alone=False) -> ConvergenceSeries:
    """Triangular scheme: outer step n applies the steps H_1 .. H_n of the
    engine in an order of its own, and its row measures the state it ends
    on.  Once an outer step ends on the state target, no step is applied.

    The driver works per state, not per index: from each new state it asks
    next_change(state, n, q, last) once what changes the state next, from
    position q of outer step n on, in the order of the naive loop, through
    outer step last.  The answer is None when no step does, or (m, q',
    outcome): the step at position q' of outer step m is the first that
    changes state, and outcome is the new state, or the exception that
    step raised.  last holds the stop rule: from a state equal to target it
    is the outer step under way (the start ends outer step 0), so the
    state may still leave target within that step, and a step that ends
    on target is the last one applied; otherwise it is n_max.
    _first_change builds next_change from a list of steps and the
    polarization that applies one.

    Rows are computed per state change, in blocks: the driver keeps each
    outer step that ends on a new state, the start included, and asks
    rows(ns, states, previous) for their rows, one ConvergenceRecord per
    state, where previous is the row before the block (None for the
    first).  It asks when _BLOCK states are pending, when the run ends,
    and before an exception propagates: the outer steps before m end
    first, so that the first failing row in n order raises first.  With
    start_alone it also asks for the start's row alone, before any step
    is applied, so that a start whose row fails raises at once.  An outer
    step that ends on the identical state repeats the previous row with
    its own n: the series returned holds each computed row with the end
    of its run (ConvergenceSeries._runs), up to n_max.  Both give the rows
    of the naive loop."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    records = []
    ns, states = [0], [start]   # the new states whose rows are pending
    current = before = start
    n = 1   # the outer step under way

    def flush():
        """The pending rows; they leave the queue before they are
        computed, so that an error computing them is raised once."""
        nonlocal ns, states
        block, ns, states = (ns, states), [], []
        if block[1]:
            records.extend(rows(*block, records[-1] if records else None))

    def finish(until):
        """End the outer steps n .. until-1 on the current state."""
        nonlocal n, before
        if current is not before:
            ns.append(n)
            states.append(current)
            before = current
            if len(states) == _BLOCK:
                flush()
        n = until

    if start_alone:   # the start's row may raise: before any step
        flush()
    # outer step and position of the next application; the start ends
    # outer step 0
    resume = (0, 0)
    try:
        while True:
            # from target, only the rest of the step under way is applied
            last = (resume[0] if target is not None and current == target
                    else n_max)
            answer = next_change(current, *resume, last)
            if answer is None:
                break
            m, q, outcome = answer
            if m > n:
                finish(m)
            if isinstance(outcome, Exception):
                raise outcome
            current, resume = outcome, (m, q + 1)
        finish(n_max + 1)
    except Exception:
        flush()   # an earlier row's error comes first
        raise
    flush()
    return ConvergenceSeries._runs(
        records, [r.n for r in records[1:]] + [n_max + 1])


def _first_change(steps, apply):
    """The next_change of a scheme whose outer step n applies steps[k %
    len(steps)] for k = 0 .. n-1: apply(state, step) on each entry of
    _upcoming's listing in turn, up to the first that returns a new state
    or raises.  apply must return its input object when it changes
    nothing, and repeat that answer for the same state and step."""
    def next_change(state, n, q, last):
        for m, pos, dm, dpos, ks in _upcoming(n, q, last, len(steps), False):
            for i, k in enumerate(ks):
                try:
                    out = apply(state, steps[k])
                except Exception as exc:
                    return m + i * dm, pos + i * dpos, exc
                if out is not state:
                    return m + i * dm, pos + i * dpos, out
        return None
    return next_change


def _upcoming(n, q, last, size, reverse):
    """The applications (outer step, position, index) the naive loop makes
    from position q of outer step n through outer step last >= n, while
    the state stays the same, each index at its first appearance only: a
    repeat on the same state gives the same no-op.  Outer step m applies
    index pos % size at position pos, or (m - 1 - pos) % size reversed.

    The listing comes as a short tuple of segments (m, pos, dm, dpos, ks),
    some possibly empty: entry i of a segment is (m + i*dm, pos + i*dpos,
    ks[i]), ks a range.  Where no listed position wraps past size, they
    are the rest of step n, q..n-1; the positions of step n + 1 whose
    index step n did not list, 0..q-1 and n (0..q reversed); and the
    tail, a range of outer steps: each later step m up to size lists its
    one new index m - 1, at position m - 1, or 0 reversed, since step
    m - 1 applied every index below m - 1.  Where one wraps, _wrapped
    lists steps n and n + 1."""
    if min(n + 1, last) > size:
        return _wrapped(n, q, last, size, reverse)
    if reverse:
        segments = [(n, q, 0, 1, range(n - 1 - q, -1, -1))]
        if n < last:
            segments.append((n + 1, 0, 0, 1, range(n, n - q - 1, -1)))
    else:
        segments = [(n, q, 0, 1, range(q, n))]
        if n < last:
            segments += (n + 1, 0, 0, 1, range(q)), (n + 1, n, 0, 1,
                                                     range(n, n + 1))
    top = min(last, size)
    if n + 2 <= top:
        segments.append((n + 2, 0 if reverse else n + 1, 1,
                         0 if reverse else 1, range(n + 1, top)))
    return tuple(segments)


def _wrapped(n, q, last, size, reverse):
    """_upcoming's segments where a position of step n or n + 1 wraps
    past size, so that no later step lists a new index.  Each index of
    size consecutive positions is new; a segment ends where its index
    wraps, so that each ks is a range."""
    count = min(n - q, size)   # a position size or more after q repeats
    runs = [(n, q, q + count)]   # (outer step, first position, end)
    if n < last and count < size:
        # the positions of step n + 1 (0..size-1) whose index step n
        # listed are the run of count positions from t, cyclically
        t = (q + 1 if reverse else q) % size
        if t + count <= size:
            runs += (n + 1, 0, t), (n + 1, t + count, size)
        else:
            runs.append((n + 1, t + count - size, t))
    segments = []
    for m, start, stop in runs:
        while start < stop:
            k = ((m - 1 - start) if reverse else start) % size
            end = min(stop, start + (k + 1 if reverse else size - k))
            segments.append((m, start, 0, 1,
                             range(k, k - (end - start), -1) if reverse
                             else range(k, k + end - start)))
            start = end
    return tuple(segments)


def _entry(segments, offset):
    """Entry offset of _upcoming's segments, counted from 0, as
    (outer step, position, index)."""
    for m, pos, dm, dpos, ks in segments:
        if offset < len(ks):
            return m + offset * dm, pos + offset * dpos, ks[offset]
        offset -= len(ks)
    raise IndexError("offset past the end of the listing")


def _indices(segments) -> np.ndarray:
    """The indices of _upcoming's segments, in order, as one array."""
    if not segments:
        return np.empty(0, dtype=np.intp)
    return np.concatenate([np.arange(ks.start, ks.stop, ks.step)
                           for _, _, _, _, ks in segments])
