"""Halfspace geometry, its text encoding, and dense dyadic schedules.

A closed halfspace is H = {x : <x, normal> <= offset} in R^1 or R^2.  All
operations here are pure; Halfspace and Schedule values are immutable and
safe to share between threads.  Schedule enumeration is by index and keeps
no internal state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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
        try:
            fields = dict(part.split("=", 1) for part in text.strip().split(","))
            nu = float(fields["nu"])
            d = float(fields["d"])
        except (ValueError, KeyError) as exc:
            raise ParseError(f"bad halfspace encoding {text!r}") from exc
        if dimension not in (1, 2):
            raise ParseError(f"unsupported dimension {dimension}")
        if dimension == 1 and nu not in (1.0, -1.0):
            raise ParseError(f"1-D normal must be +1 or -1, got {nu}")
        try:
            return cls.line(nu, d) if dimension == 1 else cls.plane(nu, d)
        except ValueError as exc:
            raise ParseError(f"bad halfspace {text!r}: {exc}") from exc


def halfspace_distance(h1: Halfspace, h2: Halfspace) -> float:
    """Angle between normals plus offset difference.

    Symmetric, zero iff equal; dominates the convergence of halfspaces under
    isometries converging to the identity.
    """
    if h1.dimension != h2.dimension:
        raise ValueError("halfspace dimensions differ")
    dot = sum(a * b for a, b in zip(h1.normal, h2.normal))
    angle = math.acos(min(1.0, max(-1.0, dot)))
    return angle + abs(h1.offset - h2.offset)


def _dyadic_level_count(rho: float, m: int) -> int:
    """Number of odd k >= 1 with k / 2**m <= rho."""
    scaled = rho * (1 << m)   # exact: power-of-two scaling
    k_max = math.floor(scaled)
    return (k_max + 1) // 2


def _dyadic_offset(rho: float, t: int) -> float:
    """t-th term (1-based) of the breadth-first dyadic offsets in (0, rho]."""
    if t < 1:
        raise ValueError("offset index must be >= 1")
    m = 1
    t0 = t - 1
    while True:
        count = _dyadic_level_count(rho, m)
        if t0 < count:
            return (2 * t0 + 1) / (1 << m)
        t0 -= count
        m += 1


def _dyadic_angle(a: int) -> float:
    """a-th term (1-based) of the breadth-first dyadic angles 2*pi*k/2**m."""
    if a < 1:
        raise ValueError("angle index must be >= 1")
    m = 1
    a0 = a - 1
    while True:
        count = 1 << m
        if a0 < count:
            return _TWO_PI * a0 / count
        a0 -= count
        m += 1


def _cantor_pair(n: int) -> tuple[int, int]:
    """n-th (1-based) pair (a, b), a, b >= 1, by diagonals a + b = const."""
    n0 = n - 1
    s = 2
    while n0 >= s - 1:
        n0 -= s - 1
        s += 1
    return n0 + 1, s - (n0 + 1)


@dataclass(frozen=True)
class Schedule:
    """Deterministic dense enumeration of halfspaces with offsets in (0, rho].

    Offsets run over the dyadic rationals k/2**m <= rho (k odd, m >= 1),
    breadth-first by level, so every emitted halfspace has 0 as an interior
    point and the sequence is dense among halfspaces with offset <= rho.
    """

    dimension: int
    rho: float = 1.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("schedule dimension must be 1 or 2")
        if not self.rho > 0:
            raise ValueError("rho must be positive")

    def nth(self, n: int) -> Halfspace:
        """n-th halfspace of the enumeration, 1-based; stateless."""
        if n < 1:
            raise ValueError("schedule index must be >= 1")
        if self.dimension == 1:
            sign = 1.0 if n % 2 == 1 else -1.0
            return Halfspace.line(sign, _dyadic_offset(self.rho, (n + 1) // 2))
        a, b = _cantor_pair(n)
        return Halfspace.plane(_dyadic_angle(a), _dyadic_offset(self.rho, b))

    def first(self, count: int) -> list[Halfspace]:
        return [self.nth(n) for n in range(1, count + 1)]

    def __iter__(self):
        n = 1
        while True:
            yield self.nth(n)
            n += 1


@lru_cache(maxsize=16)
def _schedule_arrays(schedule: Schedule, n_max: int):
    """(angles, offsets) of the first n_max entries, for vectorized scans."""
    angles = np.empty(n_max)
    offsets = np.empty(n_max)
    for i in range(n_max):
        h = schedule.nth(i + 1)
        angles[i] = h.angle()
        offsets[i] = h.offset
    return angles, offsets


def density_witness(schedule: Schedule, h: Halfspace, eps: float,
                    n_max: int) -> int | None:
    """Smallest n <= n_max with halfspace_distance(schedule.nth(n), h) < eps.

    Returns None when no prefix entry comes that close.
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
