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
from itertools import islice

import numpy as np

from . import _textio
from .halfspace import Halfspace
from .series import finite, fsum, power_sums

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


def _mirrored_cells(b: np.ndarray, padded: np.ndarray, c):
    """The sorted grid of the breakpoints b and their mirror images across
    the boundary point c, u on each of its cells, and u on each cell's
    mirror.

    c is a scalar for one halfspace, or a column of shape (k, 1) for a
    chunk of k, one grid per row; the mirror of x is 2c - x.  u(x) is
    padded[count of breakpoints <= x], 0 outside the support.  u is read
    once, at each cell's left end, and each cell's mirror by index, at no
    midpoint: in exact arithmetic the grid of N = 2*len(b) points is
    symmetric about c, so cell k mirrors to cell N - 2 - k, and u there is
    the cell values reversed.  The cells k < len(b) - 1 lie below c, those
    past the middle one above it, and the middle one mirrors to itself
    (``_sides``).  The sort is stable over (mirror images, breakpoints),
    so a mirror image equal to a breakpoint closes a zero-width cell and
    the next cell starts at u's own breakpoint; the zero-width cells mirror
    to each other too.  Where images round, the float order is the exact
    one unless a cell rounds to zero width."""
    mirrors = 2.0 * c - b
    grid = np.empty((*mirrors.shape[:-1], 2 * b.size))
    grid[..., :b.size] = mirrors
    grid[..., b.size:] = b
    grid.sort(kind="stable")
    a = padded[b.searchsorted(grid[..., :-1], side="right")]
    return grid, a, a[..., ::-1]


def _sides(size: int, nu: float) -> np.ndarray:
    """nu on the cells of a mirrored grid of 2*size points that lie below
    its middle, and -nu on the rest: positive exactly on the cells in the
    halfspace {x : nu*x <= nu*c}, nu = +1 or -1."""
    side = np.full(2 * size - 1, -nu)
    side[:size - 1] = nu
    return side


def _polarized(a: np.ndarray, r: np.ndarray, signs) -> np.ndarray:
    """The polarized value on each cell, from u there (a) and on its
    mirror (r): the larger of the two on the cells where signs > 0, the
    halfspace's side, and the smaller on the others."""
    return np.where((signs > 0) == (a >= r), a, r)


def _moving(grid: np.ndarray, a: np.ndarray, r: np.ndarray,
            signs) -> np.ndarray:
    """The cells of positive width that polarizing changes: those where u
    (a) is less than on the mirror (r) on the halfspace's side, signs > 0,
    or more on the other.  u is constant on each cell, so the result is u
    unless some cell moves."""
    return ((a - r) * signs < 0) & (grid[..., 1:] > grid[..., :-1])


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
    goes to the h side, the smaller to the other side, cell by cell on the
    grid of u's breakpoints and their mirror images, each cell's mirror read
    by index (_mirrored_cells).  Exact where every mirror image is a double;
    otherwise the exact result with each breakpoint rounded once to the
    nearest double, unless that rounding collapses a cell to zero width,
    where a piece can be lost.  Returns u itself when nothing changes.
    Raises ValueError when a mirror image is beyond the float range and the
    support does not lie in h."""
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
    grid, a, r = _mirrored_cells(u.breakpoints, _padded(u), c)
    signs = _sides(u.breakpoints.size, nu)
    if not _moving(grid, a, r, signs).any():
        return u
    return _assemble(grid, _polarized(a, r, signs))


def _assemble(grid: np.ndarray, val: np.ndarray) -> StepFunction:
    """The polarized function from one row of _mirrored_cells: its grid
    and the values on its cells, zero-width cells included."""
    # each start of a cell of positive width, and the grid's end
    kept = _run_edges(grid)[1:]
    return StepFunction._from_canonical(
        *_canonicalize(grid[kept], val[kept[:-1]]))


# Halfspaces times breakpoints that _movers decides in one pass; bounds its
# memory whatever the piece count.
_PASS_CELLS = 1 << 12


def _movers(u: StepFunction, entries, nu: np.ndarray, c: np.ndarray,
            reach: tuple[float, float]):
    """The entries (outer step, position, index, state) of entries, in
    order, whose halfspace h polarize(u, h) may not return u for, each
    with polarize(u, h) as its state.  An entry's index is h's row in the
    columns nu (the signs) and c (the boundary points): h = {x : nu*x <=
    nu*c}; the state an entry comes with is ignored.  reach is (min c,
    max c), or any interval that holds the boundary points of entries.

    Decides chunks of entries that double from eight, one numpy pass each
    over the cells of polarize's kernel, _mirrored_cells: a halfspace
    moves u when some cell moves (_moving, polarize's rule), with the
    signs side * nu and side = _sides(len(b), 1), built once per state.
    The polarized values of the moving row are computed, and the new
    state assembled, only when the entry is yielded; the state is
    polarize's.  A chunk holds at most _PASS_CELLS // len(breakpoints)
    halfspaces, and at least one.  A halfspace that mirrors the support
    beyond the float range is yielded with state None, so that polarize
    decides it and raises where it must; the rows are tested for it one
    by one only when some boundary point in reach may mirror the support
    that far."""
    if u.is_zero:
        return
    b = u.breakpoints
    b0, b1 = b[[0, -1]].tolist()
    padded = _padded(u)
    side = _sides(b.size, 1.0)
    may_escape = _escapes(b0, b1, *reach)
    cap = max(1, _PASS_CELLS // b.size)
    size = min(8, cap)
    entries = iter(entries)
    while chunk := list(islice(entries, size)):
        ks = [k for _, _, k, _ in chunk]
        nus = nu[ks][:, None]
        cs = c[ks][:, None]
        escaping = []   # the rows whose mirror images escape
        if may_escape:
            escaping = [i for i, x in enumerate(cs[:, 0].tolist())
                        if _escapes(b0, b1, x, x)]
            # c = 0 there keeps the kernel's arithmetic finite
            cs[escaping] = 0.0
        grid, a, r = _mirrored_cells(b, padded, cs)
        signs = side * nus
        moves = _moving(grid, a, r, signs).any(axis=1)
        moves[escaping] = True
        for i in moves.nonzero()[0].tolist():
            m, q, k, _ = chunk[i]
            yield m, q, k, (None if i in escaping else _assemble(
                grid[i], _polarized(a[i], r[i], signs[i])))
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
    return fsum(lengths[u.values > lam])


def lp_norm_pow(u: StepFunction, p: float) -> float:
    """Integral of |u|^p, grouped by distinct value so that equimeasurable
    representations evaluate through identical arithmetic.  ValueError when
    it leaves the float range."""
    if p < 1:
        raise ValueError("p must be >= 1")
    distinct, totals = _grouped_lengths(u)
    return finite(power_sums(distinct, p, totals, [0, distinct.size])[0],
                  "L^p norm")


def _stack(states):
    """states side by side: their breakpoints and their values, each
    concatenated; the offset of each state's first breakpoint and first
    value, the totals last; and the index of each breakpoint that ends a
    piece, so that piece k lies between breakpoints ends[k] - 1 and
    ends[k]."""
    b = np.concatenate([u.breakpoints for u in states])
    v = np.concatenate([u.values for u in states])
    b_offsets = np.cumsum([0, *(u.breakpoints.size for u in states)])
    v_offsets = np.cumsum([0, *(u.values.size for u in states)])
    ends = np.ones(b.size + 1, dtype=bool)
    ends[b_offsets] = False
    return b, v, b_offsets, v_offsets, ends[:-1].nonzero()[0]


def _lp_norms_pow(stack, p: float) -> list[float]:
    """lp_norm_pow of each state of a _stack, inf where it leaves the float
    range.  One stable lexsort on (state, value) groups all their pieces;
    each group's total length is summed in the order of its state's
    pieces, as _grouped_lengths sums it."""
    b, v, _, v_offsets, ends = stack
    owner = np.repeat(np.arange(v_offsets.size - 1), np.diff(v_offsets))
    order = np.lexsort((v, owner))
    ranked, owner = v[order], owner[order]
    first = np.ones(v.size, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]) | (owner[1:] != owner[:-1])
    group = np.empty(v.size, dtype=np.intp)   # each piece's group
    group[order] = first.cumsum() - 1
    totals = np.zeros(np.count_nonzero(first))
    np.add.at(totals, group, b[ends] - b[ends - 1])
    # values are nonnegative: each state's zero group is the one to drop
    positive = ranked[first] != 0
    distinct, totals = ranked[first][positive], totals[positive]
    offsets = np.cumsum([0, *np.bincount(owner[first][positive],
                                         minlength=v_offsets.size - 1)])
    return power_sums(distinct, p, totals, offsets.tolist())


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
    u and v are read at its left end, as polarize reads a cell.

    Where the supports lie near opposite ends of the float range, a cell
    between them can be wider than the largest double.  u = v = 0 there,
    so every term of such a cell is zero, whatever its width: its width
    is computed quietly, as inf, and the cell is left out."""
    grid = merged_grid(u, v)
    lo = grid[:-1]
    a, b = u.evaluate_many(lo), v.evaluate_many(lo)
    if grid.size and math.isinf(float(grid[-1]) - float(grid[0])):
        with np.errstate(over="ignore"):
            widths = grid[1:] - lo
        kept = widths < math.inf
        return a[kept], b[kept], widths[kept]
    return a, b, grid[1:] - lo


def _abs_diff(u: StepFunction, v: StepFunction):
    """|u - v| on the cells of the merged breakpoint grid, and the cell
    widths; both empty when u = v = 0."""
    a, b, widths = _merged_cells(u, v)
    return np.abs(a - b), widths


def _abs_diffs(stack, v: StepFunction):
    """_abs_diff(u, v) of each state u of a _stack, concatenated, and the
    offset of each state's first cell, the total last.  One stable lexsort
    on (state, breakpoint) merges each state's breakpoints with v's, u's
    first on a tie, as merged_grid does; a cell's values are read at its
    left end, from the count of each function's breakpoints up to the end
    of that end's run of equal points."""
    b, vals, b_offsets, v_offsets, ends = stack
    count, t = b_offsets.size - 1, v.breakpoints.size
    states = np.arange(count)
    points = np.concatenate([b, *[v.breakpoints] * count])
    owner = np.concatenate([np.repeat(states, np.diff(b_offsets)),
                            np.repeat(states, t)])
    order = np.lexsort((points, owner))
    points, owner = points[order], owner[order]
    kept = np.ones(points.size, dtype=bool)   # the first of each run
    kept[1:] = (points[1:] != points[:-1]) | (owner[1:] != owner[:-1])
    kept = kept.nonzero()[0]
    inner = owner[kept[1:]] == owner[kept[:-1]]
    lo, hi = kept[:-1][inner], kept[1:][inner]
    cell_owner = owner[lo]
    mine = (order < b.size).cumsum()   # u's points up to each point
    # u's values padded by a zero on each side, side by side
    padded = np.zeros(b.size + count)
    padded[ends + np.repeat(states, np.diff(v_offsets))] = vals
    a = padded[mine[hi - 1] + cell_owner]
    theirs = _padded(v)[hi - mine[hi - 1] - t * cell_owner]
    offsets = np.cumsum([0, *np.bincount(cell_owner, minlength=count)])
    return np.abs(a - theirs), points[hi] - points[lo], offsets.tolist()


def lp_distance_pow(u: StepFunction, v: StepFunction, p: float) -> float:
    """Integral of |u - v|^p over the merged breakpoint grid; ValueError
    when it leaves the float range."""
    if p < 1:
        raise ValueError("p must be >= 1")
    diff, widths = _abs_diff(u, v)
    return finite(power_sums(diff, p, widths, [0, diff.size])[0],
                  "L^p distance")


def lp_distance(u: StepFunction, v: StepFunction, p: float) -> float:
    return lp_distance_pow(u, v, p) ** (1.0 / p)


def sup_distance(u: StepFunction, v: StepFunction) -> float:
    diff = _abs_diff(u, v)[0]
    return float(np.max(diff)) if diff.size else 0.0


def deviation_measure(u: StepFunction, v: StepFunction, eps: float) -> float:
    """Measure of {|u - v| > eps}, exact on the merged grid; ValueError
    when it leaves the float range."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    diff, widths = _abs_diff(u, v)
    return finite(fsum(widths[diff > eps]), "deviation measure")


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
