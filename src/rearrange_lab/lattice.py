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

from . import _textio
from .series import (ConvergenceRecord, ConvergenceSeries, _triangular_scheme,
                     finite_result)


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
    return [site_of_rank(r) for r in range(count)]


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
    return LatticeFunction._checked(
        {site_of_rank(r): v for r, v in enumerate(u.sorted_values())})


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


def two_involution_scheme(u: LatticeFunction, max_sweeps: int | None = None):
    """Iterate the polarization pair (x -> -x, x -> 1 - x) to its common
    fixed point, which equals rearrange_lattice(u).

    Returns (fixed point, sweeps used).  Raises ConvergenceError if the
    budget is exhausted.

    The default budget, ceil((R + 1) / 2) + 1 sweeps with R the largest
    spiral rank in the support of u (R = 0 for the zero function), always
    suffices.  In rank order, x -> -x pairs the positions (2k - 1, 2k) and
    x -> 1 - x pairs (2k - 2, 2k - 1), k >= 1, and each polarization moves
    the larger value of a pair to the lower rank.  A sweep is therefore two
    phases of odd-even transposition sort into nonincreasing order.  Every
    value sits at positions 0..R and a zero never passes a positive value,
    so the sort acts on those R + 1 positions and finishes within R + 1
    phases (Knuth, TAOCP vol. 3, 5.3.4), that is ceil((R + 1) / 2) sweeps,
    after which one more sweep sees that nothing moves.

    A sweep that moves anything strictly raises the exact spiral mass
    sum u(x) / (1 + rank x), so it cannot return an equal function: the
    scheme stops at the first sweep whose result is its input object.
    """
    if max_sweeps is None:   # ceil((R + 1) / 2) + 1
        max_sweeps = max(map(rank, u._values), default=0) // 2 + 2
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    current = u
    for sweep in range(1, max_sweeps + 1):
        step = polarize_involution(polarize_involution(current, 0), 1)
        if step is current:
            return current, sweep
        current = step
    raise ConvergenceError(f"no fixed point within {max_sweeps} sweeps")


def spiral_weighted_mass(u: LatticeFunction) -> float:
    """Sum of u(x) / (1 + rank(x)); strictly decreasing weight along the
    spiral, so it never decreases under polarization.  ValueError when the
    sum leaves the float range."""
    return finite_result(lambda: math.fsum(
        v / (1 + rank(x)) for x, v in u._values.items()), "spiral weighted mass")


def schedule_scheme_lattice(u: LatticeFunction, centers: Iterable[int],
                            n_max: int, p: float = 1.0,
                            eps: float = 0.5) -> ConvergenceSeries:
    """Triangular scheme on Z: at outer step n, polarize by the first n
    involution centers in order.  Records the distance to the spiral
    rearrangement of u; row n=0 is the starting point."""
    if not p > 0:
        raise ValueError("p must be > 0")
    centers = list(centers)
    if len(centers) < n_max:
        raise ValueError("need at least n_max involution centers")
    target = rearrange_lattice(u)
    return _triangular_scheme(
        u, centers, n_max, polarize_involution,
        lambda n, state, _: _lattice_record(n, state, target, p, eps), target)


def _lattice_record(n, current, target, p, eps):
    sites = current._values.keys() | target._values.keys()
    diffs = [abs(current.value(x) - target.value(x)) for x in sites]
    return ConvergenceRecord(
        n=n,
        lp_error=finite_result(lambda: math.fsum(d ** p for d in diffs) ** (1 / p),
                               "L^p error") if diffs else 0.0,
        weighted_mass=spiral_weighted_mass(current),
        sup_error=max(diffs, default=0.0),
        deviation_measure=float(sum(1 for d in diffs if d > eps)),
    )


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
    _textio.write_text(path, dumps(u))


def read_csv(path) -> LatticeFunction:
    return loads(_textio.read_text(path))
