"""Seeded random inputs for property suites and the CLI checker.

Step functions use dyadic breakpoints (multiples of 1/8 in [-8, 8]) so
that reflections across the dyadic schedule stay exact in 64-bit floats
and the rearrangement's half-measure breakpoints are reachable within the
offset levels a 60-step schedule prefix exposes.
"""

from __future__ import annotations

import math
import random

from .grid2d import GridFunction, HyperplaneKind, LatticeHyperplane, _scale
from .halfspace import Halfspace
from .lattice import LatticeFunction
from .step1d import StepFunction

GRID_STEP = 1.0 / 8.0
SPAN = 8.0


def random_step_function(rng: random.Random,
                         span: float = SPAN) -> StepFunction:
    """Up to 20 pieces on the dyadic 1/8 grid in [-span, span], values in
    (0, 10] with interior zero pieces at probability 0.2.

    For convergence studies against the offset-bounded dyadic schedule keep
    span <= the offset bound: every needed two-point swap then has its
    reflection center inside the schedule, and with 1/8-grid breakpoints
    those centers appear within the first five dyadic levels."""
    cells = int(round(2 * span / GRID_STEP))
    k = rng.randint(1, min(20, cells - 1))
    idx = sorted(rng.sample(range(cells + 1), k + 1))
    breakpoints = [-span + i * GRID_STEP for i in idx]
    values = []
    for i in range(k):
        interior = 0 < i < k - 1
        if interior and rng.random() < 0.2:
            values.append(0.0)
        else:
            values.append(10.0 * (1.0 - rng.random()))   # in (0, 10]
    return StepFunction(breakpoints, values)


def random_halfspace_1d(rng: random.Random,
                        signed_offset: bool = False) -> Halfspace:
    """Offset in [0, 1], or in [-1, 1] when signed; the signed draw follows
    the unsigned one, so that seeded streams stay the same."""
    sign = rng.choice((1.0, -1.0))
    d = rng.uniform(0.0, 1.0)
    if signed_offset:
        d = rng.uniform(-1.0, 1.0)
    return Halfspace.line(sign, d)


def random_halfspace_2d(rng: random.Random) -> Halfspace:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return Halfspace.plane(theta, rng.uniform(0.0, 1.0))


def random_lattice_function(rng: random.Random) -> LatticeFunction:
    """1 to 50 distinct sites in [-60, 60], integer values in [1, 9]."""
    size = rng.randint(1, 50)
    sites = rng.sample(range(-60, 61), size)
    return LatticeFunction((s, float(rng.randint(1, 9))) for s in sites)


def random_grid_function(rng: random.Random, m: int = 6) -> GridFunction:
    """Cell size 0.5, each point of [-m/2 .. m/2]^2 filled with probability
    0.3 by a value in (0, 10]; the confined support keeps small reflections
    inside the array."""
    half = m // 2
    points = {}
    for i in range(-half, half + 1):
        for j in range(-half, half + 1):
            if rng.random() < 0.3:
                points[(i, j)] = 10.0 * (1.0 - rng.random())
    return GridFunction.from_points(m, 0.5, points)


def random_lattice_hyperplane(rng: random.Random, m: int = 6,
                              require_origin: bool = False) -> LatticeHyperplane:
    """Offsets stay within +-m/4 so reflections of the confined supports of
    :func:`random_grid_function` never escape the array."""
    while True:
        kind = rng.choice(list(HyperplaneKind))
        g = _scale(kind)   # offsets are the multiples of 1/g
        bound = max(1, m // 4)
        s = rng.randint(-g * bound, g * bound) / g
        hp = LatticeHyperplane(kind, s)
        if not require_origin or hp.contains_origin():
            return hp
