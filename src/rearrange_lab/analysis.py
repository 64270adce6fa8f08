"""Inequality functionals, radial weights, and the iterated-polarization
scheme on the exact 1-D engine.

The triangular scheme applies the schedule prefix H_1 .. H_n at outer step
n: n(n+1)/2 applications over n outer steps, of which the shared driver
computes only those that change the state.  Along every run the L^p norm
is an exact invariant and the weighted mass against a radial nonincreasing
weight never decreases; both are enforced at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .halfspace import Halfspace, Schedule
from .series import (ConvergenceSeries, _entry, _indices,
                     _triangular_scheme, _upcoming, check_scheme_parameters,
                     finite, fsum, fsums, record)
from .step1d import (
    StepFunction,
    _abs_diffs,
    _lp_norms_pow,
    _first_mover,
    _merged_cells,
    _stack,
    lp_distance_pow,
    lp_norm,
    lp_norm_pow,
    polarize,
    rearrange,
)

_SQRT_PI = math.sqrt(math.pi)
INVARIANT_TOL = 1e-12


@dataclass(frozen=True)
class RadialWeight:
    """Radial, radially nonincreasing weight on the line.

    Gaussian (radius None): w(x) = exp(-x^2), strictly decreasing in |x|
    everywhere.  Triangular: w(x) = max(0, R - |x|) with R = radius,
    strictly decreasing on |x| < R and exactly integrable against step
    functions.
    """

    radius: float | None = None

    def __post_init__(self):
        if self.radius is not None and not 0 < self.radius < math.inf:
            raise ValueError("triangular weight needs a positive finite radius")

    @classmethod
    def gaussian(cls) -> "RadialWeight":
        return cls()

    @classmethod
    def triangular(cls, radius: float) -> "RadialWeight":
        return cls(radius)

    def antiderivative(self, x: float) -> float:
        """Odd antiderivative F with F' = w; closed form for both kinds."""
        if self.radius is None:
            return 0.5 * _SQRT_PI * math.erf(x)
        r = min(abs(x), self.radius)
        return math.copysign(self.radius * r - 0.5 * r * r, x)

    def encode(self) -> str:
        if self.radius is None:
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
    quadrature (absolute error well below 1e-12) for the Gaussian.
    ValueError when the mass leaves the float range."""
    b = u.breakpoints
    terms = _mass_terms(b, u.values, np.arange(1, b.size), w)
    return finite(fsum(terms.tolist()), "weighted mass")


def _weighted_masses(stack, w: RadialWeight) -> list[float]:
    """weighted_mass of each state of a step1d._stack, with the same
    arithmetic over all their breakpoints at once; inf or nan where it
    leaves the float range."""
    b, v, _, v_offsets, ends = stack
    return fsums(_mass_terms(b, v, ends, w), v_offsets.tolist())


def _mass_terms(b: np.ndarray, v: np.ndarray, ends: np.ndarray,
                w: RadialWeight) -> np.ndarray:
    """v[k] times the integral of w over piece k, from breakpoint
    b[ends[k] - 1] to b[ends[k]], for each k: w.antiderivative's
    operations, elementwise over b, and their differences.  Overflows give
    inf and nan as in Python floats, with no numpy warning."""
    with np.errstate(all="ignore"):
        if w.radius is None:
            f = np.array([w.antiderivative(x) for x in b.tolist()])
        else:
            r = np.minimum(np.abs(b), w.radius)
            f = np.copysign(w.radius * r - 0.5 * r * r, b)
        return v * (f[ends] - f[ends - 1])


def polarization_gap(u: StepFunction, h: Halfspace, w: RadialWeight) -> float:
    """weighted_mass(u^H) - weighted_mass(u); nonnegative whenever 0 in H,
    and (for offset > 0 with a strictly decreasing weight) zero iff u = u^H."""
    return weighted_mass(polarize(u, h), w) - weighted_mass(u, w)


def product_integral(u: StepFunction, v: StepFunction) -> float:
    """Integral of u*v over the merged breakpoint grid; ValueError when it
    leaves the float range."""
    a, b, widths = _merged_cells(u, v)
    with np.errstate(all="ignore"):
        terms = a * b * widths
    return finite(fsum(terms.tolist()), "product integral")


def hardy_littlewood_gap(u: StepFunction, v: StepFunction) -> float:
    """int u* v* - int u v; nonnegative."""
    return (product_integral(rearrange(u), rearrange(v))
            - product_integral(u, v))


def cavalieri_gap(u: StepFunction, p: float) -> float:
    """|  ||u*||_p^p - ||u||_p^p |; zero up to grouping arithmetic."""
    return _cavalieri_gap(u, rearrange(u), p)


def _cavalieri_gap(u: StepFunction, u_star: StepFunction, p: float) -> float:
    """cavalieri_gap with u* = rearrange(u) given, for callers that try
    several p on one u."""
    return abs(lp_norm_pow(u_star, p) - lp_norm_pow(u, p))


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
    H_1 .. H_n (or the reversed order) to the previous state.  Once an
    outer step ends on the rearrangement exactly, no halfspace is applied
    again: from a state equal to it, the driver asks only about the rest
    of the outer step under way, and _first_mover scans nothing past it.

    The driver asks once per state what changes it next.  The schedule
    indices still to be tried are _upcoming's segments, a few index
    ranges, made into one index array (series._indices); _first_mover
    decides them in kernel chunks and returns the offset of the first
    that moves the state, which series._entry reads back as the outer
    step and position.

    The driver asks for the rows of the new states in blocks.  A block's
    inputs take a few numpy calls each, over all its states at once
    (step1d._stack): the weighted masses, the L^p norms grouped by value
    for the drift check, and |u_n - u*| with the cell widths on each
    state's merged grid with u*.  Each row checks, in order, its weighted
    mass and L^p norm against overflow, the L^p drift and the mass
    decrease (InvariantViolation), and then its L^p error, so the first
    failing row in n order raises.  The start's row is computed alone,
    before any polarization, where _start_may_fail says it may fail.
    """
    if order not in ("forward", "reversed"):
        raise ValueError("order must be 'forward' or 'reversed'")
    if schedule is None:
        schedule = Schedule(dimension=1, rho=1.0)
    if schedule.dimension != 1:
        raise ValueError("the exact scheme runs on the 1-D engine")
    if weight is None:
        weight = RadialWeight.triangular(16.0)
    # The schedule as columns, with no Halfspace built: _first_mover finds
    # each new state among the indices _upcoming lists.  No boundary point
    # mirrors a breakpoint beyond the float range (_first_mover's
    # precondition).
    nu, d = schedule._columns(n_max)
    c = nu * d
    reverse = order == "reversed"
    target = rearrange(u)
    norm0 = lp_norm(u, p)   # ValueError unless p >= 1, before eps is checked
    check_scheme_parameters(p, eps)

    def rows(ns, states, previous):
        stack = _stack(states)
        return record(ns, *_abs_diffs(stack, target), 1.0,
                      checked(ns, stack, previous), p, eps)

    def checked(ns, stack, previous):
        """Each state's weighted mass, after the checks of its row."""
        before = previous.weighted_mass if previous else None
        for n, mass, norm in zip(ns, _weighted_masses(stack, weight),
                                 _lp_norms_pow(stack, p)):
            finite(mass, "weighted mass")
            if n:
                finite(norm, "L^p norm")
                if abs(norm ** (1.0 / p) - norm0) > INVARIANT_TOL:
                    raise InvariantViolation(
                        f"L^{p} norm drifted at outer step {n}")
                if mass < before - INVARIANT_TOL:
                    raise InvariantViolation(
                        f"weighted mass decreased at outer step {n}")
            yield mass
            before = mass

    def next_change(state, n, q, last):
        segments = _upcoming(n, q, last, n_max, reverse)
        answer = _first_mover(state, _indices(segments), nu, c)
        if answer is None:
            return None
        m, q, _ = _entry(segments, answer[0])
        return m, q, answer[1]

    return _triangular_scheme(u, n_max, next_change, rows, target=target,
                              start_alone=_start_may_fail(u, p, weight))


def _start_may_fail(u: StepFunction, p: float, weight: RadialWeight) -> bool:
    """Whether a sum of the start's row may leave the float range, by a
    test much cheaper than the row: its weighted mass, as weighted_mass
    computes it, and a bound on its L^p error and deviation measure sums.
    |u - u*| is at most max u, on cells of total width at most twice u's
    span, so both sums are below 4 * max(1, max(u)**p) * span, rounding
    included."""
    if u.is_zero:
        return False
    try:
        weighted_mass(u, weight)
    except ValueError:
        return True
    b = u.breakpoints
    scale = p * max(math.log2(float(u.values.max())), 0.0)
    return scale + math.log2(float(b[-1] - b[0])) > 1020


def converge_restricted(u: StepFunction, rho: float = 0.1, n_max: int = 200,
                        p: float = 1.0, weight: RadialWeight | None = None,
                        eps: float = 0.01,
                        order: str = "forward") -> ConvergenceSeries:
    """converge_scheme with the ball-restricted dyadic schedule: boundaries
    meet B(0, rho) but convergence to the rearrangement is retained."""
    return converge_scheme(u, Schedule(dimension=1, rho=rho), n_max=n_max,
                           p=p, weight=weight, eps=eps, order=order)
