"""Exact discrete engine on Z with the spiral order 0 < 1 < -1 < 2 < -2 < ...

Functions are finite maps from integer sites to positive reals (absent
means 0).  Polarizations are driven by the isometric involutions of Z,
the reflections i(x) = c - x.  All operations move stored values without
recomputing them, so value multisets are preserved bit-exactly.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Mapping

import numpy as np

from . import _textio
from .series import (ConvergenceSeries, _first_change, _triangular_scheme,
                     check_scheme_parameters, finite, fsum, record)


def rank(x: int) -> int:
    """Position of site x in the spiral order; a bijection Z -> N."""
    return 2 * x - 1 if x > 0 else -2 * x


def site_of_rank(r: int) -> int:
    """Inverse of :func:`rank`."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    return (r + 1) // 2 if r % 2 else -(r // 2)


def spiral_sites(count: int) -> list[int]:
    """First `count` sites in spiral order: 0, 1, -1, 2, -2, ..."""
    n = max(operator.index(count), 0)
    sites = [0] * n
    sites[1::2] = range(1, n // 2 + 1)             # odd rank r: (r + 1) // 2
    sites[2::2] = range(-1, -((n + 1) // 2), -1)   # even rank r: -(r // 2)
    return sites


class ConvergenceError(RuntimeError):
    """The two-involution iteration did not reach a fixed point in budget."""


class LatticeFunction:
    """Finite-support nonnegative function on Z (canonical: stored values > 0)."""

    __slots__ = ("_values",)

    def __init__(self, mapping: Mapping[int, float] | Iterable[tuple] = ()):
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        values, zeros = {}, set()
        for site, value in items:
            site, value = operator.index(site), float(value)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"value at site {site} must be finite and >= 0")
            if site in values or site in zeros:
                raise ValueError(f"site {site} is given more than once")
            if value > 0:
                values[site] = value
            else:
                zeros.add(site)
        self._values = values

    @classmethod
    def _checked(cls, values: dict) -> "LatticeFunction":
        """Wrap a dict of int sites to finite values > 0 as it is."""
        out = cls.__new__(cls)
        out._values = values
        return out

    @property
    def is_zero(self) -> bool:
        return not self._values

    def support(self) -> list[int]:
        return sorted(self._values)

    def value(self, x: int) -> float:
        return self._values.get(x, 0.0)

    def items(self):
        return sorted(self._values.items())

    def sorted_values(self) -> list[float]:
        return sorted(self._values.values(), reverse=True)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(frozenset(self._values.items()))

    def __repr__(self) -> str:
        return f"LatticeFunction({dict(self.items())!r})"


def rearrange_lattice(u: LatticeFunction) -> LatticeFunction:
    """Spiral-order decreasing rearrangement: j-th largest value goes to the
    site of rank j-1."""
    values = u.sorted_values()
    return LatticeFunction._checked(dict(zip(spiral_sites(len(values)), values)))


def polarize_involution(u: LatticeFunction, c: int) -> LatticeFunction:
    """Polarize by the involution i(x) = c - x: for each orbit {x, i(x)} the
    larger value goes to the spiral-smaller site; fixed points are
    unchanged.  Returns u itself when nothing moves."""
    c = operator.index(c)   # a float center would put values off the lattice
    # rank(x) = 2|x - 1/4| - 1/2, so x is spiral-smaller than y = c - x
    # iff it is nearer to 1/4, that is iff y - x has the sign of 2c - 1.
    side = 2 * c - 1
    values = u._values
    out = None   # copied at the first move
    for x, v in values.items():
        y = c - x   # a fixed point x == y fails both tests below
        if (y - x) * side > 0:
            w = values.get(y, 0.0)
            if w > v:
                if out is None:
                    out = dict(values)
                out[x], out[y] = w, v
        elif y not in values:   # else the orbit is handled from y
            if out is None:
                out = dict(values)
            out[y] = out.pop(x)
    return u if out is None else LatticeFunction._checked(out)


def two_involution_scheme(u: LatticeFunction):
    """Iterate the polarization pair (x -> -x, x -> 1 - x) to its common
    fixed point, which equals rearrange_lattice(u).

    Returns (fixed point, sweeps used), with u itself when the first sweep
    moves nothing.

    The budget is ceil((R + 1) / 2) + 1 = R // 2 + 2 sweeps, with R the
    largest spiral rank in the support of u (R = 0 for the zero function).
    It is derived, not a setting, because it always suffices and a single
    positive site needs all of it.  In rank order, x -> -x pairs the
    positions (2k - 1, 2k) and x -> 1 - x pairs (2k - 2, 2k - 1), k >= 1,
    and each polarization moves the larger value of a pair to the lower
    rank.  A sweep is therefore two phases of odd-even transposition sort
    into nonincreasing order.  Every value sits at positions 0..R and a
    zero never passes a positive value, so the sort acts on those R + 1
    positions and finishes within R + 1 phases (Knuth, TAOCP vol. 3,
    5.3.4), that is ceil((R + 1) / 2) sweeps, after which one more sweep
    sees that nothing moves.  ConvergenceError after the budget would mean
    a defect in this argument or in its code.

    The sweeps run on that sort: u is held in a zero-padded array indexed
    by spiral rank, of the least even length past R + 1, and each phase is
    one compare-exchange of two strided views, the maximum to the lower
    rank and the minimum to the higher.  Values are only moved, so the
    result is bit-exact.  A sweep moves nothing exactly when it starts
    from the nonincreasing order, since every adjacent pair belongs to one
    of its phases, so the scheme stops at the first sweep that starts from
    the sorted array.  Memory and each sweep cost O(R), not O(len(u)), so
    a sparse u with a far site is slow: {30000: 1.0, -7: 2.0} and
    {30000: 1.0, 15000: 2.0} each take 30001 sweeps and about 5.0 s, where
    a sweep over the support dict took about 0.1 s (one core of a 2-core
    x86-64 machine, Python 3.11, NumPy 2.4).
    """
    values = u._values
    ranks = list(map(rank, values))
    top = max(ranks, default=0)
    budget = top // 2 + 2   # ceil((R + 1) / 2) + 1
    a = np.zeros((top + 3) // 2 * 2)
    a[ranks] = list(values.values())
    fixed_bytes = np.sort(a)[::-1].tobytes()
    # x -> -x pairs ranks (2k - 1, 2k); x -> 1 - x pairs (2k - 2, 2k - 1).
    phases = ((a[1:-1:2], a[2::2]), (a[0::2], a[1::2]))
    for sweep in range(1, budget + 1):
        if a.tobytes() == fixed_bytes:
            if sweep == 1:
                return u, 1
            return LatticeFunction._checked(dict(zip(
                spiral_sites(len(values)), a[:len(values)].tolist()))), sweep
        for lo, hi in phases:
            lo[...], hi[...] = np.maximum(lo, hi), np.minimum(lo, hi)
    raise ConvergenceError(f"no fixed point within {budget} sweeps")


def spiral_weighted_mass(u: LatticeFunction) -> float:
    """Sum of u(x) / (1 + rank(x)); strictly decreasing weight along the
    spiral, so it never decreases under polarization.  ValueError when the
    sum leaves the float range."""
    return finite(fsum(v / (1 + rank(x)) for x, v in u._values.items()),
                  "spiral weighted mass")


def schedule_scheme_lattice(u: LatticeFunction, n_max: int, p: float = 1.0,
                            eps: float = 0.5) -> ConvergenceSeries:
    """Triangular scheme on Z: at outer step n, polarize by the involution
    centers site_of_rank(k) for k = 0 .. n-1, the first n sites in spiral
    order.  Records the distance to the spiral rearrangement of u; row n=0
    is the starting point."""
    check_scheme_parameters(p, eps)
    target = rearrange_lattice(u)

    def rows(ns, states, _):
        sites = [state._values.keys() | target._values.keys()
                 for state in states]
        diff = np.array([abs(state.value(x) - target.value(x))
                         for state, each in zip(states, sites) for x in each])
        return record(ns, diff, np.ones(diff.size),
                      np.cumsum([0, *map(len, sites)]).tolist(), 1.0,
                      map(spiral_weighted_mass, states), p, eps)

    def apply(state, k):
        # the module's polarize_involution, looked up at each call, so that
        # a tracer wrapping it counts these calls
        return polarize_involution(state, site_of_rank(k))

    return _triangular_scheme(u, n_max, _first_change(range(n_max), apply),
                              rows, target)


# -- CSV format: header "site,value"; one row per support site, ascending. --

CSV_HEADER = "site,value"


def dumps(u: LatticeFunction) -> str:
    sites = sorted(u._values)   # sorting ints, not (site, value) pairs
    return _textio.dumps(CSV_HEADER, (int, float),
                         [sites, list(map(u._values.__getitem__, sites))])


def _from_columns(sites: list, values: list) -> LatticeFunction:
    # One pass over each column for valid input; the constructor's loop
    # runs only to word the error of the first bad row.
    table = dict(zip(sites, values))
    if (len(table) == len(sites) and all(map((0.0).__le__, values))
            and all(map(math.inf.__gt__, values))):
        if 0.0 in values:
            table = {x: v for x, v in table.items() if v > 0}
        return LatticeFunction._checked(table)
    return LatticeFunction(zip(sites, values))


def loads(text: str) -> LatticeFunction:
    return _textio.loads(text, CSV_HEADER, (int, float), _from_columns)


def write_csv(u: LatticeFunction, path) -> None:
    _textio.write_text(path, [dumps(u)])


def read_csv(path) -> LatticeFunction:
    return loads(_textio.read_text(path))
