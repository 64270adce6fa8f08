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
from itertools import compress, islice

import numpy as np

from . import _textio
from .halfspace import Halfspace
from .series import finite_result

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
            # In Python floats, so that an overflow raises no numpy warning;
            # with increasing breakpoints this also makes each one finite.
            if not math.isfinite(float(b[-1]) - float(b[0])):
                raise ValueError("breakpoints must span a finite length")
            if not (b[1:] > b[:-1]).all():
                raise ValueError("breakpoints must be strictly increasing")
            if not ((v >= 0) & (v < math.inf)).all():
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

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """u at each of xs; piece i covers the half-open [b_i, b_{i+1})."""
        return _padded(self)[self.breakpoints.searchsorted(xs, side="right")]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (np.array_equal(self.breakpoints, other.breakpoints)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        # + 0.0 makes -0.0 into 0.0, as == does not tell them apart
        return hash(((self.breakpoints + 0.0).tobytes(),
                     (self.values + 0.0).tobytes()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "StepFunction.zero()"
        return f"StepFunction({self.breakpoints.tolist()}, {self.values.tolist()})"


def _canonicalize(b: np.ndarray, v: np.ndarray):
    """Merge equal neighbours and strip zero ends; empty means u == 0."""
    idx = _run_edges(v).nonzero()[0]
    nb = b[idx]
    nv = v[idx[:-1]]
    nz = nv.nonzero()[0]
    if nz.size == 0:
        return _EMPTY.copy(), _EMPTY.copy()
    lo, hi = nz[0], nz[-1]
    return nb[lo:hi + 2], nv[lo:hi + 1]


def _run_edges(a: np.ndarray) -> np.ndarray:
    """The a.size + 1 gaps before, between and after the entries of a,
    True where a run of equal entries starts or ends: [:-1] marks the first
    entry of each run, [1:] the last."""
    edges = np.empty(a.size + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(a[1:], a[:-1], out=edges[1:-1])
    return edges


def _mirrored_cells(b: np.ndarray, padded: np.ndarray, nu, c):
    """The sorted grid of the breakpoints b and their mirror images across
    c, the polarized value on each of its cells, and which cells move: a
    cell of positive width whose polarized value differs from u there.

    nu and c give the halfspace {x : nu*x <= nu*c}, whose boundary point c
    mirrors x to 2c - x: scalars for one halfspace, or columns of shape
    (k, 1) for a chunk of k, one grid per row.  u(x) is padded[count of
    breakpoints <= x], 0 outside the support.  Each cell is read at its
    midpoint 0.5*lo + 0.5*hi (lo + hi may overflow) and at the midpoint's
    mirror image; the larger value goes to the h side.  The sort is stable
    over (mirror images, breakpoints), so a mirror image equal to a
    breakpoint closes a zero-width cell and the next cell starts at u's own
    breakpoint."""
    c2 = 2.0 * c
    mirrors = c2 - b
    grid = np.empty((*mirrors.shape[:-1], 2 * b.size))
    grid[..., :b.size] = mirrors
    grid[..., b.size:] = b
    grid.sort(kind="stable")
    lo, hi = grid[..., :-1], grid[..., 1:]
    mid = 0.5 * lo + 0.5 * hi
    a = padded[b.searchsorted(mid, side="right")]
    r = padded[b.searchsorted(c2 - mid, side="right")]
    in_h = nu * mid <= nu * c
    val = np.where(in_h == (a >= r), a, r)
    moved = (val != padded[b.searchsorted(lo, side="right")]) & (hi > lo)
    return grid, val, moved


def _padded(u: StepFunction) -> np.ndarray:
    padded = np.zeros(u.values.size + 2)
    padded[1:-1] = u.values
    return padded


def _escapes(b0: float, b1: float, c_min: float, c_max: float) -> bool:
    """Whether the mirror image 2c - b of some breakpoint b in [b0, b1]
    across some boundary point c in [c_min, c_max] is beyond the float
    range.  The images are largest at c_max and b0, and smallest at c_min
    and b1."""
    return math.isinf(2.0 * c_max - b0) or math.isinf(2.0 * c_min - b1)


def polarize(u: StepFunction, h: Halfspace) -> StepFunction:
    """Two-point rearrangement of u across h: the larger of u(x), u(sigma(x))
    goes to the h side, the smaller to the other side.  Exact on the grid of
    u's breakpoints and their mirror images; equimeasurable with u.  Returns
    u itself when nothing changes.  Raises ValueError when a mirror image is
    beyond the float range and the support does not lie in h."""
    if h.dimension != 1:
        raise ValueError("step functions are one-dimensional")
    if u.is_zero:
        return u
    nu = h.normal[0]
    c = nu * h.offset   # boundary point of h; sigma(x) = 2c - x
    b0, b1 = u.breakpoints[[0, -1]].tolist()
    if _escapes(b0, b1, c, c):
        # Some mirror image is beyond the float range.  If the support lies
        # in h nothing moves; otherwise the result is not representable.
        if (b1 <= c) if nu > 0 else (b0 >= c):
            return u
        raise ValueError("the mirror image of the support across "
                         f"{h.encode()} is beyond the float range")
    grid, val, moved = _mirrored_cells(u.breakpoints, _padded(u), nu, c)
    # u is constant on each cell, so the result is u unless a cell moves
    if not moved.any():
        return u
    # each start of a cell of positive width, and the grid's end
    kept = _run_edges(grid)[1:]
    return StepFunction._from_canonical(
        *_canonicalize(grid[kept], val[kept[:-1]]))


# Halfspaces times breakpoints that _movers decides in one pass; bounds its
# memory whatever the piece count.
_PASS_CELLS = 1 << 12


def _movers(u: StepFunction, entries, nu: np.ndarray, c: np.ndarray):
    """The entries (outer step, position, index) of entries, in order,
    whose halfspace h polarize(u, h) may not return u for.  An entry's
    index is h's row in the columns nu (the signs) and c (the boundary
    points): h = {x : nu*x <= nu*c}.

    Decides chunks of entries that double from eight, one numpy pass each
    through polarize's own kernel, _mirrored_cells, as polarize does: a
    halfspace moves u when some cell moves.  A chunk holds at most
    _PASS_CELLS // len(breakpoints) halfspaces, and at least one.  A
    halfspace that mirrors the support beyond the float range counts as a
    mover, so that polarize decides it and raises where it must."""
    if u.is_zero:
        return
    b = u.breakpoints
    b0, b1 = b[[0, -1]].tolist()
    padded = _padded(u)
    cap = max(1, _PASS_CELLS // b.size)
    size = min(8, cap)
    entries = iter(entries)
    while chunk := list(islice(entries, size)):
        ks = [k for _, _, k in chunk]
        nus = nu[ks][:, None]
        cs = c[ks][:, None]
        escape = False
        if _escapes(b0, b1, float(cs.min()), float(cs.max())):
            escape = np.array([_escapes(b0, b1, x, x)
                               for x in cs[:, 0].tolist()])
            # c = 0 there keeps the kernel's arithmetic finite
            cs = np.where(escape[:, None], 0.0, cs)
        moves = _mirrored_cells(b, padded, nus, cs)[2].any(axis=1) | escape
        yield from compress(chunk, moves.tolist())
        size = min(2 * size, cap)


def _grouped_lengths(u: StepFunction):
    """Distinct positive values (ascending) with their total piece lengths,
    each total summed in the order of u's pieces."""
    if u.is_zero:
        return _EMPTY, _EMPTY
    b, v = u.breakpoints, u.values
    order = v.argsort()
    ranked = v[order]
    first = _run_edges(ranked)[:-1]
    distinct = ranked[first]
    group = np.empty(v.size, dtype=np.intp)   # each piece's group
    group[order] = first.cumsum() - 1
    totals = np.zeros(distinct.size)
    np.add.at(totals, group, b[1:] - b[:-1])
    # values are nonnegative, so only the first group can be the zero group
    zero = int(distinct[0] == 0)
    return distinct[zero:], totals[zero:]


def rearrange(u: StepFunction) -> StepFunction:
    """Symmetric decreasing rearrangement via the layer-cake construction.

    Superlevel sets of the result are intervals centered at 0 with the same
    measure as those of u; the result is even up to the half-open convention
    and nonincreasing in |x|.  ValueError when its breakpoints collapse or
    its length is beyond the float range.
    """
    if u.is_zero:
        return u
    distinct, totals = _grouped_lengths(u)
    with np.errstate(over="ignore"):   # an overflow is the error below
        cumulative = totals[::-1].cumsum()
    if math.isinf(cumulative[-1]):
        raise ValueError("the length of the rearranged support is beyond "
                         "the float range")
    half = cumulative / 2.0
    breakpoints = np.concatenate([-half[::-1], half])
    if not (breakpoints[1:] > breakpoints[:-1]).all():
        raise ValueError("the rearranged breakpoints collapse: a piece is "
                         "narrower than one float step of the cumulative "
                         "measure at its place")
    # canonical by construction: distinct values > 0, ascending then
    # descending, on strictly increasing finite breakpoints
    out = StepFunction._from_canonical(
        breakpoints, np.concatenate([distinct, distinct[-2::-1]]))
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
    representations evaluate through identical arithmetic.  ValueError when
    it leaves the float range."""
    if p < 1:
        raise ValueError("p must be >= 1")
    distinct, totals = _grouped_lengths(u)
    return finite_result(lambda: math.fsum(
        (distinct if p == 1 else distinct ** p) * totals), "L^p norm")


def lp_norm(u: StepFunction, p: float) -> float:
    return lp_norm_pow(u, p) ** (1.0 / p)


def merged_grid(u: StepFunction, v: StepFunction) -> np.ndarray:
    """The sorted distinct breakpoints of u and v; of a -0.0 and a 0.0, the
    one met first in u then v."""
    grid = np.concatenate([u.breakpoints, v.breakpoints])
    grid.sort(kind="stable")
    return grid[_run_edges(grid)[:-1]]


def _merged_cells(u: StepFunction, v: StepFunction):
    """u and v on the cells of the merged breakpoint grid, and the cell
    widths; all empty when u = v = 0.  No breakpoint lies inside a cell, so
    u and v are read at its left end, as polarize reads a cell."""
    grid = merged_grid(u, v)
    lo = grid[:-1]
    return u.evaluate_many(lo), v.evaluate_many(lo), grid[1:] - lo


def _abs_diff(u: StepFunction, v: StepFunction):
    """|u - v| on the cells of the merged breakpoint grid, and the cell
    widths; both empty when u = v = 0."""
    a, b, widths = _merged_cells(u, v)
    return np.abs(a - b), widths


def lp_distance_pow(u: StepFunction, v: StepFunction, p: float) -> float:
    """Integral of |u - v|^p over the merged breakpoint grid; ValueError
    when it leaves the float range."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return _lp_pow(*_abs_diff(u, v), p)


def _lp_pow(diff, widths, p: float) -> float:
    return finite_result(lambda: math.fsum(
        (diff if p == 1 else diff ** p) * widths), "L^p distance")


def lp_distance(u: StepFunction, v: StepFunction, p: float) -> float:
    return lp_distance_pow(u, v, p) ** (1.0 / p)


def sup_distance(u: StepFunction, v: StepFunction) -> float:
    return _sup(_abs_diff(u, v)[0])


def _sup(diff) -> float:
    return float(np.max(diff)) if diff.size else 0.0


def deviation_measure(u: StepFunction, v: StepFunction, eps: float) -> float:
    """Measure of {|u - v| > eps}, exact on the merged grid."""
    return _deviation(*_abs_diff(u, v), eps)


def _deviation(diff, widths, eps: float) -> float:
    if eps <= 0:
        raise ValueError("eps must be positive")
    return float(math.fsum(widths[diff > eps]))


# -- CSV format: header "breakpoint,value"; row i < k holds b_{i-1},v_i;
#    the final row holds b_k with an empty value field. ----------------------

CSV_HEADER = "breakpoint,value"


def dumps(u: StepFunction) -> str:
    return _textio.dumps(CSV_HEADER, (float, float), [u.breakpoints, u.values])


def _from_columns(b: list, v: list) -> StepFunction:
    if v and v[-1] is not None:
        raise ValueError("the last row must hold the final breakpoint with "
                         "an empty value field")
    v = v[:-1]
    if None in v:
        raise ValueError("only the last row may have an empty value")
    return StepFunction(b, v)


def loads(text: str) -> StepFunction:
    return _textio.loads(text, CSV_HEADER, (float, _textio.optional(float)),
                         _from_columns)


def write_csv(u: StepFunction, path) -> None:
    _textio.write_text(path, dumps(u))


def read_csv(path) -> StepFunction:
    return loads(_textio.read_text(path))
