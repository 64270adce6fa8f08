"""Exact 1-D engine: nonnegative piecewise-constant functions on the line.

A StepFunction is v_i on [b_{i-1}, b_i) for strictly increasing breakpoints
and 0 outside; the half-open convention makes evaluation total and the
canonical form unique.  Polarization and rearrangement are computed exactly
on merged breakpoint grids: values are moved, never recomputed, so value
multisets and superlevel measures are preserved bit-for-bit on dyadic data.

All functions here are pure and StepFunction values are immutable.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import _textio
from .errors import ParseError
from .halfspace import Halfspace

_EMPTY = np.empty(0)
_EMPTY.setflags(write=False)


class StepFunction:
    """Nonnegative piecewise-constant function with bounded support."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        b = np.array(breakpoints, dtype=float)
        v = np.array(values, dtype=float)
        if b.ndim != 1 or v.ndim != 1:
            raise ValueError("breakpoints and values must be 1-D")
        if v.size == 0:
            if b.size not in (0, 1):
                raise ValueError("a zero function has no pieces")
            b = _EMPTY
            v = _EMPTY
        else:
            if b.size != v.size + 1:
                raise ValueError("need exactly len(values)+1 breakpoints")
            if not np.all(np.diff(b) > 0):
                raise ValueError("breakpoints must be strictly increasing")
            if np.any(v < 0) or not np.all(np.isfinite(v)) or not np.all(np.isfinite(b)):
                raise ValueError("values must be finite and nonnegative")
            b, v = _canonicalize(b, v)
        b.setflags(write=False)
        v.setflags(write=False)
        self.breakpoints = b
        self.values = v

    @classmethod
    def _from_canonical(cls, breakpoints, values) -> "StepFunction":
        """Fast path for data already in canonical form (no equal neighbours,
        no zero end pieces, strictly increasing breakpoints)."""
        out = cls.__new__(cls)
        b = np.array(breakpoints, dtype=float)
        v = np.array(values, dtype=float)
        b.setflags(write=False)
        v.setflags(write=False)
        out.breakpoints = b
        out.values = v
        return out

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls(_EMPTY, _EMPTY)

    @classmethod
    def indicator(cls, a: float, b: float, height: float = 1.0) -> "StepFunction":
        """height * 1_{[a, b)}."""
        return cls([a, b], [height])

    @classmethod
    def from_intervals(cls, intervals: Iterable[tuple]) -> "StepFunction":
        """Build from disjoint (a, b, value) pieces; gaps are filled with 0."""
        pieces = sorted((float(a), float(b), float(v)) for a, b, v in intervals)
        breakpoints = []
        values = []
        for a, b, v in pieces:
            if breakpoints and a < breakpoints[-1]:
                raise ValueError("intervals overlap")
            if breakpoints and a > breakpoints[-1]:
                values.append(0.0)
                breakpoints.append(a)
            elif not breakpoints:
                breakpoints.append(a)
            values.append(v)
            breakpoints.append(b)
        return cls(breakpoints, values)

    @property
    def is_zero(self) -> bool:
        return self.values.size == 0

    @property
    def piece_count(self) -> int:
        return int(self.values.size)

    def pieces(self):
        """Yield (a, b, value) for each canonical piece."""
        b = self.breakpoints
        for i, v in enumerate(self.values):
            yield float(b[i]), float(b[i + 1]), float(v)

    def evaluate(self, x: float) -> float:
        b = self.breakpoints
        if b.size == 0 or x < b[0] or x >= b[-1]:
            return 0.0
        i = int(np.searchsorted(b, x, side="right")) - 1
        return float(self.values[i])

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        b = self.breakpoints
        if b.size == 0:
            return np.zeros_like(xs)
        idx = np.searchsorted(b, xs, side="right") - 1
        inside = (idx >= 0) & (idx < self.values.size)
        out = np.zeros_like(xs)
        out[inside] = self.values[idx[inside]]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (np.array_equal(self.breakpoints, other.breakpoints)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.breakpoints.tobytes(), self.values.tobytes()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "StepFunction.zero()"
        return f"StepFunction({self.breakpoints.tolist()}, {self.values.tolist()})"


def _canonicalize(b: np.ndarray, v: np.ndarray):
    """Merge equal neighbours and strip zero ends; empty means u == 0."""
    keep = np.empty(v.size, dtype=bool)
    keep[0] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    idx = np.flatnonzero(keep)
    nv = v[idx]
    nb = np.append(b[idx], b[-1])
    nz = np.flatnonzero(nv)
    if nz.size == 0:
        return _EMPTY.copy(), _EMPTY.copy()
    lo, hi = nz[0], nz[-1]
    return nb[lo:hi + 2], nv[lo:hi + 1]


def polarize(u: StepFunction, h: Halfspace) -> StepFunction:
    """Two-point rearrangement of u across h: the larger of u(x), u(sigma(x))
    goes to the h side, the smaller to the other side.  Exact on the merged
    breakpoint grid; equimeasurable with u."""
    if h.dimension != 1:
        raise ValueError("step functions are one-dimensional")
    if u.is_zero:
        return u
    nu = h.normal[0]
    c = nu * h.offset   # boundary point of h; sigma(x) = 2c - x
    c2 = 2.0 * c
    b = u.breakpoints.tolist()
    uvals = u.values.tolist()
    nb = len(b)
    refl = [c2 - x for x in reversed(b)]
    # Merge the sorted breakpoint lists, dropping exact duplicates.
    grid = []
    i = j = 0
    while i < nb and j < nb:
        x, y = b[i], refl[j]
        if x < y:
            grid.append(x)
            i += 1
        elif y < x:
            grid.append(y)
            j += 1
        else:
            grid.append(x)
            i += 1
            j += 1
    grid.extend(b[i:])
    grid.extend(refl[j:])
    ncells = len(grid) - 1
    # u at the cell midpoints (pointer walk; grid contains every breakpoint).
    direct = [0.0] * ncells
    k = 0
    for m in range(ncells):
        mid = 0.5 * (grid[m] + grid[m + 1])
        while k < nb and b[k] <= mid:
            k += 1
        if 1 <= k <= nb - 1:
            direct[m] = uvals[k - 1]
    # u at the mirrored midpoints; sigma reverses order, so walk backwards.
    mirrored = [0.0] * ncells
    k = 0
    for m in range(ncells - 1, -1, -1):
        mid = c2 - 0.5 * (grid[m] + grid[m + 1])
        while k < nb and b[k] <= mid:
            k += 1
        if 1 <= k <= nb - 1:
            mirrored[m] = uvals[k - 1]
    # Assemble with inline canonicalization (skip repeats of the last value).
    out_b = []
    out_v = []
    for m in range(ncells):
        mid = 0.5 * (grid[m] + grid[m + 1])
        in_h = mid <= c if nu > 0 else mid >= c
        a, r = direct[m], mirrored[m]
        val = (a if a >= r else r) if in_h else (r if a >= r else a)
        if out_v and out_v[-1] == val:
            continue
        out_b.append(grid[m])
        out_v.append(val)
    out_b.append(grid[ncells])
    while out_v and out_v[-1] == 0.0:
        out_v.pop()
        out_b.pop()
    lo = 0
    while lo < len(out_v) and out_v[lo] == 0.0:
        lo += 1
    out_b = out_b[lo:]
    out_v = out_v[lo:]
    if out_v == uvals and out_b == b:
        return u
    if not out_v:
        return StepFunction.zero()
    return StepFunction._from_canonical(out_b, out_v)


def _grouped_lengths(u: StepFunction):
    """Distinct positive values (ascending) with their total piece lengths."""
    if u.is_zero:
        return _EMPTY, _EMPTY
    lengths = np.diff(u.breakpoints)
    distinct, inverse = np.unique(u.values, return_inverse=True)
    totals = np.zeros(distinct.size)
    np.add.at(totals, inverse, lengths)
    mask = distinct > 0
    return distinct[mask], totals[mask]


def rearrange(u: StepFunction) -> StepFunction:
    """Symmetric decreasing rearrangement via the layer-cake construction.

    Superlevel sets of the result are intervals centered at 0 with the same
    measure as those of u; the result is even up to the half-open convention
    and nonincreasing in |x|.
    """
    if u.is_zero:
        return u
    distinct, totals = _grouped_lengths(u)
    dvals = distinct[::-1]           # descending
    cumulative = np.cumsum(totals[::-1])
    half = cumulative / 2.0
    breakpoints = np.concatenate([-half[::-1], half])
    values = np.concatenate([dvals[::-1], dvals[1:]])
    out = StepFunction(breakpoints, values)
    return u if out == u else out


def superlevel_measure(u: StepFunction, lam: float) -> float:
    """Lebesgue measure of the strict superlevel set {u > lam}."""
    if lam < 0:
        raise ValueError("level must be nonnegative")
    if u.is_zero:
        return 0.0
    lengths = np.diff(u.breakpoints)
    return float(math.fsum(lengths[u.values > lam]))


def lp_norm_pow(u: StepFunction, p: float) -> float:
    """Integral of |u|^p, grouped by distinct value so that equimeasurable
    representations evaluate through identical arithmetic."""
    if p < 1:
        raise ValueError("p must be >= 1")
    distinct, totals = _grouped_lengths(u)
    if distinct.size == 0:
        return 0.0
    powered = distinct if p == 1 else distinct ** p
    return float(math.fsum(powered * totals))


def lp_norm(u: StepFunction, p: float) -> float:
    return lp_norm_pow(u, p) ** (1.0 / p)


def merged_grid(u: StepFunction, v: StepFunction) -> np.ndarray:
    return np.union1d(u.breakpoints, v.breakpoints)


def _abs_diff(u: StepFunction, v: StepFunction):
    """|u - v| on the cells of the merged breakpoint grid, and the cell
    widths; both empty when u = v = 0."""
    grid = merged_grid(u, v)
    if grid.size < 2:
        return _EMPTY, _EMPTY
    mids = 0.5 * (grid[:-1] + grid[1:])
    return (np.abs(u.evaluate_many(mids) - v.evaluate_many(mids)),
            np.diff(grid))


def lp_distance_pow(u: StepFunction, v: StepFunction, p: float) -> float:
    """Integral of |u - v|^p over the merged breakpoint grid."""
    if p < 1:
        raise ValueError("p must be >= 1")
    diff, widths = _abs_diff(u, v)
    if p != 1:
        diff = diff ** p
    return float(math.fsum(diff * widths))


def lp_distance(u: StepFunction, v: StepFunction, p: float) -> float:
    return lp_distance_pow(u, v, p) ** (1.0 / p)


def sup_distance(u: StepFunction, v: StepFunction) -> float:
    diff, _ = _abs_diff(u, v)
    return float(np.max(diff)) if diff.size else 0.0


def deviation_measure(u: StepFunction, v: StepFunction, eps: float) -> float:
    """Measure of {|u - v| > eps}, exact on the merged grid."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    diff, widths = _abs_diff(u, v)
    return float(math.fsum(widths[diff > eps]))


# -- CSV format: header "breakpoint,value"; row i < k holds b_{i-1},v_i;
#    the final row holds b_k with an empty value field. ----------------------

CSV_HEADER = "breakpoint,value"


def dumps(u: StepFunction) -> str:
    lines = [CSV_HEADER]
    b = u.breakpoints
    for i, v in enumerate(u.values):
        lines.append(f"{format(b[i], '.17g')},{format(v, '.17g')}")
    if b.size:
        lines.append(f"{format(b[-1], '.17g')},")
    return "\n".join(lines) + "\n"


def loads(text: str) -> StepFunction:
    lines = _textio.data_lines(text)
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ParseError("expected step-function header 'breakpoint,value'")
    breakpoints = []
    values = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad step-function row {line!r}")
        try:
            breakpoints.append(float(parts[0]))
            if parts[1].strip():
                values.append(float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"bad number in row {line!r}") from exc
    if breakpoints and len(breakpoints) != len(values) + 1:
        raise ParseError("final row must carry the last breakpoint and no value")
    try:
        return StepFunction(breakpoints, values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_csv(u: StepFunction, path) -> None:
    _textio.write_text(path, dumps(u))


def read_csv(path) -> StepFunction:
    return loads(_textio.read_text(path))
