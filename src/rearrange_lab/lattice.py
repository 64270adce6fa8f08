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
from .series import ConvergenceRecord, ConvergenceSeries, _triangular_scheme


def rank(x: int) -> int:
    """Position of site x in the spiral order; a bijection Z -> N."""
    if x > 0:
        return 2 * x - 1
    return -2 * x


def site_of_rank(r: int) -> int:
    """Inverse of :func:`rank`."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if r % 2 == 1:
        return (r + 1) // 2
    return -(r // 2)


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
            site = int(site)
            value = float(value)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"value at site {site} must be finite and >= 0")
            if site in values or site in zeros:
                raise ValueError(f"site {site} is given more than once")
            if value > 0:
                values[site] = value
            else:
                zeros.add(site)
        self._values = values

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
    return LatticeFunction((site_of_rank(r), v) for r, v in enumerate(values))


def polarize_involution(u: LatticeFunction, c: int) -> LatticeFunction:
    """Polarize by the involution i(x) = c - x: for each orbit {x, i(x)} the
    larger value goes to the spiral-smaller site; fixed points are
    unchanged."""
    c = operator.index(c)   # a float center would put values off the lattice
    values = dict(u._values)
    seen = set()
    for x in list(values):
        if x in seen:
            continue
        y = c - x
        seen.add(x)
        seen.add(y)
        if x == y:
            continue
        a = values.get(x, 0.0)
        b = values.get(y, 0.0)
        first, second = (x, y) if rank(x) < rank(y) else (y, x)
        hi, lo = (a, b) if a >= b else (b, a)
        for site, val in ((first, hi), (second, lo)):
            if val > 0:
                values[site] = val
            else:
                values.pop(site, None)
    if values == u._values:
        return u
    # Only u's checked values moved, to distinct sites: skip revalidation.
    out = LatticeFunction.__new__(LatticeFunction)
    out._values = values
    return out


def two_involution_scheme(u: LatticeFunction, max_sweeps: int = 10_000):
    """Iterate the polarization pair (x -> -x, x -> 1 - x) to its common
    fixed point, which equals rearrange_lattice(u).

    Returns (fixed point, sweeps used).  Raises ConvergenceError if the
    budget is exhausted.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    current = u
    for sweep in range(1, max_sweeps + 1):
        step = polarize_involution(polarize_involution(current, 0), 1)
        if step == current:
            return current, sweep
        current = step
    raise ConvergenceError(f"no fixed point within {max_sweeps} sweeps")


def lattice_lp_norm(u: LatticeFunction, p: float) -> float:
    if p < 1:
        raise ValueError("p must be >= 1")
    return math.fsum(v ** p for _, v in u.items()) ** (1.0 / p)


def spiral_weighted_mass(u: LatticeFunction) -> float:
    """Sum of u(x) / (1 + rank(x)); strictly decreasing weight along the
    spiral, so it never decreases under polarization."""
    return math.fsum(v / (1 + rank(x)) for x, v in u.items())


def schedule_scheme_lattice(u: LatticeFunction, centers: Iterable[int],
                            n_max: int, p: float = 1.0,
                            eps: float = 0.5) -> ConvergenceSeries:
    """Triangular scheme on Z: at outer step n, polarize by the first n
    involution centers in order.  Records the distance to the spiral
    rearrangement of u; row n=0 is the starting point."""
    centers = list(centers)
    if len(centers) < n_max:
        raise ValueError("need at least n_max involution centers")
    target = rearrange_lattice(u)
    return _triangular_scheme(
        u, centers, n_max, polarize_involution,
        lambda n, state, _: _lattice_record(n, state, target, p, eps), target)


def _lattice_record(n, current, target, p, eps):
    sites = set(current.support()) | set(target.support())
    diffs = [abs(current.value(x) - target.value(x)) for x in sorted(sites)]
    return ConvergenceRecord(
        n=n,
        lp_error=math.fsum(d ** p for d in diffs) ** (1.0 / p) if diffs else 0.0,
        weighted_mass=spiral_weighted_mass(current),
        sup_error=max(diffs, default=0.0),
        deviation_measure=float(sum(1 for d in diffs if d > eps)),
    )


# -- CSV format: header "site,value"; one row per support site, ascending. --

CSV_HEADER = "site,value"


def dumps(u: LatticeFunction) -> str:
    return _textio.dumps(CSV_HEADER, (int, float), zip(*u.items()))


def loads(text: str) -> LatticeFunction:
    return _textio.loads(
        text, CSV_HEADER, (int, float),
        lambda sites, values: LatticeFunction(zip(sites, values)))


def write_csv(u: LatticeFunction, path) -> None:
    _textio.write_text(path, dumps(u))


def read_csv(path) -> LatticeFunction:
    return loads(_textio.read_text(path))
