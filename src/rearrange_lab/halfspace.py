"""Halfspace geometry, its text encoding, and dense dyadic schedules.

A closed halfspace is H = {x : <x, normal> <= offset} in R^1 or R^2.  All
operations here are pure; Halfspace and Schedule values are immutable and
safe to share between threads.  A schedule keeps no internal state: each
enumeration starts at its first entry.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _textio
from .errors import ParseError

_UNIT_TOL = 1e-12
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace {x : <x, normal> <= offset} with a unit normal."""

    normal: tuple
    offset: float
    # Angle the normal was built from, if any; kept so the text encoding
    # round-trips bit-exactly through cos/sin.
    theta: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = tuple(float(c) for c in self.normal)
        if len(n) not in (1, 2):
            raise ValueError(f"halfspace dimension must be 1 or 2, got {len(n)}")
        offset = float(self.offset)
        # A NaN normal passes the unit-norm comparison below, and a
        # non-finite offset or normal makes polarization drop every piece.
        if not all(map(math.isfinite, (*n, offset))):
            raise ValueError(f"normal and offset must be finite, got {n}, {offset}")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError(f"angle must be finite, got {self.theta}")
        if abs(math.hypot(*n) - 1.0) > _UNIT_TOL:
            raise ValueError(f"normal must be a unit vector, got {n}")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)

    @classmethod
    def line(cls, sign: float, offset: float) -> "Halfspace":
        """1-D halfspace {x : sign*x <= offset}."""
        if sign not in (1, -1, 1.0, -1.0):
            raise ValueError("1-D normal must be +1 or -1")
        return cls((float(sign),), offset)

    @classmethod
    def plane(cls, theta: float, offset: float) -> "Halfspace":
        """2-D halfspace with normal (cos theta, sin theta)."""
        return cls((math.cos(theta), math.sin(theta)), offset, theta=float(theta))

    @property
    def dimension(self) -> int:
        return len(self.normal)

    def angle(self) -> float:
        """Direction of the normal in [0, 2*pi) (2-D) or {0, pi} (1-D)."""
        if self.dimension == 1:
            return 0.0 if self.normal[0] > 0 else math.pi
        if self.theta is not None:
            return self.theta % _TWO_PI
        return math.atan2(self.normal[1], self.normal[0]) % _TWO_PI

    def encode(self) -> str:
        """Text form ``nu=<theta or +-1>,d=<offset>`` (17 significant digits)."""
        if self.dimension == 1:
            nu = "1" if self.normal[0] > 0 else "-1"
        else:
            nu = format(self.angle(), ".17g")
        return f"nu={nu},d={format(self.offset, '.17g')}"

    @classmethod
    def parse(cls, text: str, dimension: int) -> "Halfspace":
        """Inverse of :meth:`encode` for a known dimension."""
        nu, d = _textio.keyed(text, {"nu": float, "d": float},
                              "nu=<angle or +-1>,d=<offset>")
        if dimension not in (1, 2):
            raise ParseError(f"unsupported dimension {dimension}")
        if dimension == 1 and nu not in (1.0, -1.0):
            raise ParseError(f"1-D normal must be +1 or -1, got {nu}")
        try:
            return cls.line(nu, d) if dimension == 1 else cls.plane(nu, d)
        except ValueError as exc:
            raise ParseError(f"bad halfspace {text!r}: {exc}") from exc


def _dyadic_level_count(rho: float, m: int) -> int:
    """Number of odd k >= 1 with k / 2**m <= rho."""
    # ldexp scales exactly by a power of two, and builds no float 2**m
    return (math.floor(math.ldexp(rho, m)) + 1) // 2


# Offsets per block of _dyadic_offsets: bounds the memory of one level.
_BLOCK = 1 << 12


def _dyadic_offsets(rho: float):
    """The dyadic offsets k / 2**m <= rho (k odd, m >= 1), breadth-first by
    level m, in arrays of at most _BLOCK, without end.  np.ldexp scales k by
    2**-m exactly, and rounds into the subnormals as k / (1 << m) does."""
    for m in itertools.count(1):
        count = _dyadic_level_count(rho, m)
        for start in range(0, count, _BLOCK):
            odd = np.arange(2 * start + 1, 2 * min(count, start + _BLOCK), 2,
                            dtype=float)
            yield np.ldexp(odd, -m)


def _line_columns(rho: float):
    """The 1-D schedule as (signs, offsets) columns, in blocks and without
    end: each dyadic offset with sign +1, then -1."""
    for offsets in _dyadic_offsets(rho):
        yield np.tile([1.0, -1.0], offsets.size), np.repeat(offsets, 2)


def _plane_entries(rho: float):
    """The 2-D schedule's (angle, offset) pairs, in order and without end.

    Angles are the 2*pi*k / 2**m (0 <= k < 2**m), breadth-first by level m.
    The n-th pair takes the a-th angle and the b-th dyadic offset along
    the diagonals a + b = 2, 3, ... of (a, b), a ascending on each."""
    offsets = itertools.chain.from_iterable(
        map(np.ndarray.tolist, _dyadic_offsets(rho)))
    angles = (_TWO_PI * a0 / (1 << m) for m in itertools.count(1)
              for a0 in range(1 << m))
    first_angles, first_offsets = [], []
    for theta, d in zip(angles, offsets):
        first_angles.append(theta)
        first_offsets.append(d)
        yield from zip(first_angles, reversed(first_offsets))


@dataclass(frozen=True)
class Schedule:
    """Deterministic dense enumeration of halfspaces with offsets in (0, rho].

    Offsets run over the dyadic rationals k/2**m <= rho (k odd, m >= 1),
    breadth-first by level, so every emitted halfspace has 0 as an interior
    point and the sequence is dense among halfspaces with offset <= rho.

    rho must lie in [2**-1022, 2**1023).  From 2**1023 on, the first
    level's bound 2 * rho overflows.  Below 2**-1022 rho is subnormal, and
    the offsets k / 2**m underflow to 0 within a few levels past its first;
    from 2**-1022 on, every offset up to index 2**53 is positive.  Within
    the range no level count overflows.
    """

    dimension: int
    rho: float = 1.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("schedule dimension must be 1 or 2")
        if not 2.0 ** -1022 <= self.rho < 2.0 ** 1023:
            raise ValueError(f"rho must lie in [2**-1022, 2**1023), got {self.rho}")

    def _halfspaces(self):
        """The halfspaces of the enumeration, in order and without end."""
        if self.dimension == 2:
            return itertools.starmap(Halfspace.plane, _plane_entries(self.rho))
        return itertools.chain.from_iterable(
            map(Halfspace.line, *map(np.ndarray.tolist, columns))
            for columns in _line_columns(self.rho))

    def _columns(self, count: int):
        """(signs, offsets) of the first count entries of a 1-D schedule.
        ValueError, as from first, unless count is an integer >= 0."""
        if not isinstance(count, numbers.Integral) or count < 0:
            raise ValueError(f"count must be an integer >= 0, got {count!r}")
        if count == 0:
            return np.empty(0), np.empty(0)
        blocks, have = [], 0
        columns = _line_columns(self.rho)
        while have < count:
            blocks.append(next(columns))
            have += blocks[-1][0].size
        return tuple(np.concatenate(column)[:count] for column in zip(*blocks))

    def nth(self, n: int) -> Halfspace:
        """n-th halfspace of the enumeration, 1-based; stateless."""
        if n < 1:
            raise ValueError("schedule index must be >= 1")
        return next(itertools.islice(self._halfspaces(), n - 1, None))

    def first(self, count: int) -> list[Halfspace]:
        return list(itertools.islice(self._halfspaces(), count))


@lru_cache(maxsize=16)
def _schedule_arrays(schedule: Schedule, n_max: int):
    """(angles, offsets) of the first n_max entries, for vectorized scans."""
    if schedule.dimension == 1:
        signs, offsets = schedule._columns(n_max)
        return np.where(signs > 0, 0.0, math.pi), offsets
    halfspaces = schedule.first(n_max)
    return (np.array([h.angle() for h in halfspaces]),
            np.array([h.offset for h in halfspaces]))


def density_witness(schedule: Schedule, h: Halfspace, eps: float,
                    n_max: int) -> int | None:
    """Smallest n <= n_max whose schedule entry H_n is at distance less
    than eps from h, or None when no prefix entry comes that close.

    The distance is the angle between the normals (taken modulo 2*pi, at
    most pi) plus the difference of the offsets.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if h.dimension != schedule.dimension:
        raise ValueError("halfspace dimensions differ")
    angles, offsets = _schedule_arrays(schedule, n_max)
    dtheta = np.abs(angles - h.angle())
    dtheta = np.minimum(dtheta, _TWO_PI - dtheta)
    dist = dtheta + np.abs(offsets - h.offset)
    hit = dist < eps
    if not hit.any():
        return None
    return int(np.argmax(hit)) + 1
