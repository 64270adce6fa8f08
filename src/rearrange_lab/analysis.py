"""Inequality functionals, radial weights, and the iterated-polarization
scheme on the exact 1-D engine.

The triangular scheme applies the schedule prefix H_1 .. H_n at outer step
n, so n outer steps cost n(n+1)/2 polarizations in total.  Along every run
the L^p norm is an exact invariant and the weighted mass against a radial
nonincreasing weight never decreases; both are enforced at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .halfspace import Halfspace, Schedule
from .series import ConvergenceRecord, ConvergenceSeries, _triangular_scheme
from .step1d import (
    StepFunction,
    deviation_measure,
    lp_distance,
    lp_distance_pow,
    lp_norm,
    lp_norm_pow,
    merged_grid,
    polarize,
    rearrange,
    sup_distance,
)

_SQRT_PI = math.sqrt(math.pi)
INVARIANT_TOL = 1e-12


class WeightKind(Enum):
    GAUSSIAN = "gaussian"
    TRIANGULAR = "triangular"


@dataclass(frozen=True)
class RadialWeight:
    """Radial, radially nonincreasing weight on the line.

    Gaussian: w(x) = exp(-x^2), strictly decreasing in |x| everywhere.
    Triangular: w(x) = max(0, R - |x|), strictly decreasing on |x| < R and
    exactly integrable against step functions.
    """

    kind: WeightKind
    radius: float = 0.0

    def __post_init__(self):
        if self.kind is WeightKind.TRIANGULAR and not self.radius > 0:
            raise ValueError("triangular weight needs a positive radius")

    @classmethod
    def gaussian(cls) -> "RadialWeight":
        return cls(WeightKind.GAUSSIAN)

    @classmethod
    def triangular(cls, radius: float) -> "RadialWeight":
        return cls(WeightKind.TRIANGULAR, radius)

    def __call__(self, x: float) -> float:
        r = abs(x)
        if self.kind is WeightKind.GAUSSIAN:
            return math.exp(-r * r)
        return max(0.0, self.radius - r)

    def antiderivative(self, x: float) -> float:
        """Odd antiderivative F with F' = w; closed form for both kinds."""
        if self.kind is WeightKind.GAUSSIAN:
            return 0.5 * _SQRT_PI * math.erf(x)
        r = min(abs(x), self.radius)
        return math.copysign(self.radius * r - 0.5 * r * r, x)

    def encode(self) -> str:
        if self.kind is WeightKind.GAUSSIAN:
            return "gaussian"
        return f"triangular:{format(self.radius, '.17g')}"

    @classmethod
    def parse(cls, text: str) -> "RadialWeight":
        text = text.strip()
        if text == "gaussian":
            return cls.gaussian()
        if text.startswith("triangular:"):
            return cls.triangular(float(text.split(":", 1)[1]))
        raise ValueError(f"bad weight spec {text!r}")


def weighted_mass(u: StepFunction, w: RadialWeight) -> float:
    """Integral of u * w; exact for the triangular weight, error-function
    quadrature (absolute error well below 1e-12) for the Gaussian."""
    if u.is_zero:
        return 0.0
    b = u.breakpoints
    return math.fsum(
        v * (w.antiderivative(b[i + 1]) - w.antiderivative(b[i]))
        for i, v in enumerate(u.values))


def polarization_gap(u: StepFunction, h: Halfspace, w: RadialWeight) -> float:
    """weighted_mass(u^H) - weighted_mass(u); nonnegative whenever 0 in H,
    and (for offset > 0 with a strictly decreasing weight) zero iff u = u^H."""
    return weighted_mass(polarize(u, h), w) - weighted_mass(u, w)


def product_integral(u: StepFunction, v: StepFunction) -> float:
    """Integral of u*v over the merged breakpoint grid."""
    grid = merged_grid(u, v)
    if grid.size < 2:
        return 0.0
    mids = 0.5 * (grid[:-1] + grid[1:])
    prod = u.evaluate_many(mids) * v.evaluate_many(mids)
    return float(math.fsum(prod * np.diff(grid)))


def hardy_littlewood_gap(u: StepFunction, v: StepFunction) -> float:
    """int u* v* - int u v; nonnegative."""
    return (product_integral(rearrange(u), rearrange(v))
            - product_integral(u, v))


def cavalieri_gap(u: StepFunction, p: float) -> float:
    """|  ||u*||_p^p - ||u||_p^p |; zero up to grouping arithmetic."""
    return abs(lp_norm_pow(rearrange(u), p) - lp_norm_pow(u, p))


def contraction_gap(u: StepFunction, v: StepFunction, p: float) -> float:
    """||u-v||_p^p - ||u*-v*||_p^p; nonnegative."""
    return (lp_distance_pow(u, v, p)
            - lp_distance_pow(rearrange(u), rearrange(v), p))


class InvariantViolation(RuntimeError):
    """Norm constancy or weighted-mass monotonicity failed during a run."""


def converge_scheme(u: StepFunction, schedule: Schedule | None = None,
                    n_max: int = 60, p: float = 1.0,
                    weight: RadialWeight | None = None, eps: float = 0.01,
                    order: str = "forward") -> ConvergenceSeries:
    """Triangular iterated-polarization scheme toward the symmetric
    rearrangement.

    Row n=0 records the starting function; row n the state after applying
    H_1 .. H_n (or the reversed order) to the previous state.  Once the
    state equals the rearrangement exactly it is invariant under every
    remaining halfspace and the loop short-circuits.
    """
    if order not in ("forward", "reversed"):
        raise ValueError("order must be 'forward' or 'reversed'")
    if schedule is None:
        schedule = Schedule(dimension=1, rho=1.0)
    if schedule.dimension != 1:
        raise ValueError("the exact scheme runs on the 1-D engine")
    if weight is None:
        weight = RadialWeight.triangular(16.0)
    halfspaces = schedule.first(n_max)
    target = rearrange(u)
    norm0 = lp_norm(u, p)

    def record(n, current, previous):
        mass = weighted_mass(current, weight)
        if previous is not None:
            if abs(lp_norm(current, p) - norm0) > INVARIANT_TOL:
                raise InvariantViolation(
                    f"L^{p} norm drifted at outer step {n}")
            if mass < previous.weighted_mass - INVARIANT_TOL:
                raise InvariantViolation(
                    f"weighted mass decreased at outer step {n}")
        return ConvergenceRecord(
            n=n,
            lp_error=lp_distance(current, target, p),
            weighted_mass=mass,
            sup_error=sup_distance(current, target),
            deviation_measure=deviation_measure(current, target, eps),
        )

    return _triangular_scheme(u, halfspaces, n_max, polarize, record,
                              target=target, reverse=order == "reversed")


def converge_restricted(u: StepFunction, rho: float = 0.1, n_max: int = 200,
                        p: float = 1.0, weight: RadialWeight | None = None,
                        eps: float = 0.01,
                        order: str = "forward") -> ConvergenceSeries:
    """converge_scheme with the ball-restricted dyadic schedule: boundaries
    meet B(0, rho) but convergence to the rearrangement is retained."""
    return converge_scheme(u, Schedule(dimension=1, rho=rho), n_max=n_max,
                           p=p, weight=weight, eps=eps, order=order)
