"""Whole runs of the 1-D scheme against the paper's definition, computed
exactly.

The oracle replays u_n = (u_(n-1))^(H_1 ... H_n) (or H_n ... H_1) in
fractions.Fraction: every polarization of every outer step, with the
schedule, the rearrangement u*, the distances and the masses computed
exactly, and none of step1d's kernel, grid or rearrangement code.  A
rational test shows where a polarization is a no-op: no cell of the
grid of u's breakpoints and their mirror images, on the halfspace's
side, holds less than its mirror cell.  The polarized function is built
only where the test fails, and a halfspace the test passed is skipped
until the state changes, as polarizing the same function across it again
gives the same no-op.  Pieces are found by bisection on the breakpoints.

On dyadic input every polarization of the float engine is exact, so the
outer steps that change the state and the first n with lp_error 0 must
match exactly.  Each float column is a few roundings away from the
exact value: the oracle's columns, rounded once, bound it by REL.
"""

import random
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction

import pytest

from rearrange_lab import generators
from rearrange_lab.analysis import RadialWeight, converge_restricted

RHO = 0.1
N_MAX = 24
EPS = 0.01
RADIUS = 16   # the scheme's default weight, triangular:16
# Relative distance of each float column from the exact value.  A column
# takes one rounding per term (a difference of values, its product with a
# width, or a value times an exact weight integral) and one for the sum of
# nonnegative terms, each at most 2**-53 relative.  Over both orders of
# the draws of seeds 0 to 39 the largest was 1.2 * 2**-53.
REL = 2.0 ** -50
# Draws of the benchmark's kind: 3, 10 and 27 reach u* within N_MAX outer
# steps (at 4, 5 and 6), 11, 29 and 38 do not.
SEEDS = (3, 10, 11, 27, 29, 38)


def schedule(rho, count):
    """(sign, boundary point) of the first count entries of the 1-D
    schedule: the offsets k / 2**m <= rho (k odd, m >= 1) level by level,
    each with sign +1 and then -1; the boundary point is sign * offset."""
    rho, entries, m = Fraction(rho), [], 1
    while len(entries) < count:
        for k in range(1, int(rho * 2 ** m) + 1, 2):
            entries += [(1, Fraction(k, 2 ** m)), (-1, -Fraction(k, 2 ** m))]
        m += 1
    return entries[:count]


def value_at(u, x):
    """u(x); piece i of u = (breakpoints, values) is [b[i], b[i + 1])."""
    b, v = u
    i = bisect_right(b, x)
    return v[i - 1] if 0 < i < len(b) else 0.0


def canonical(cells, end):
    """The function with value cells[i][1] from cells[i][0] up to the next
    cell's start (end for the last): equal neighbours merged, zero ends
    dropped."""
    b, v = [], []
    for start, value in cells:
        if not v or value != v[-1]:
            b.append(start)
            v.append(value)
    b.append(end)
    while v and v[-1] == 0:
        v.pop()
        b.pop()
    while v and v[0] == 0:
        v.pop(0)
        b.pop(0)
    return (b, v) if v else ([], [])


def polarize(u, sign, c):
    """u^H for H = {x : sign*x <= sign*c}, or None where the rational test
    shows that nothing moves.  u is constant on each cell of the grid of
    its breakpoints and their mirror images, and so is u on the mirror
    cell, read at the cell's midpoint t and its image 2c - t."""
    b, _ = u
    if not b:
        return None
    grid = sorted(set(b) | {2 * c - x for x in b})
    cells = [((lo + hi) / 2, lo) for lo, hi in zip(grid, grid[1:])]
    pairs = [(value_at(u, t), value_at(u, 2 * c - t), sign * t <= sign * c)
             for t, _ in cells]
    if all(a >= r for a, r, inside in pairs if inside):
        return None
    return canonical([(lo, max(a, r) if inside else min(a, r))
                      for (_, lo), (a, r, inside) in zip(cells, pairs)],
                     grid[-1])


def rearranged(u):
    """u*: the distinct positive values descending, the superlevel set of
    each an interval centred at 0 of the measure it has under u."""
    b, v = u
    lengths = defaultdict(Fraction)
    for lo, hi, x in zip(b, b[1:], v):
        if x > 0:
            lengths[x] += hi - lo
    values = sorted(lengths, reverse=True)
    half, total = [], Fraction(0)
    for x in values:
        total += lengths[x]
        half.append(total / 2)
    return [-h for h in reversed(half)] + half, values[::-1] + values[1:]


def mass(u):
    """The integral of u against the triangular weight max(0, R - |x|)."""
    def antiderivative(x):
        r = min(abs(x), RADIUS)
        return (RADIUS * r - r * r / 2) * (1 if x >= 0 else -1)
    b, v = u
    return sum(Fraction(x) * (antiderivative(hi) - antiderivative(lo))
               for lo, hi, x in zip(b, b[1:], v))


def row(u, star):
    """(L^1 error, weighted mass, sup error, deviation measure) of u
    against star, exactly, on the merged grid of their breakpoints."""
    grid = sorted(set(u[0]) | set(star[0]))
    lp = sup = deviation = Fraction(0)
    for lo, hi in zip(grid, grid[1:]):
        d = abs(Fraction(value_at(u, lo)) - Fraction(value_at(star, lo)))
        lp += d * (hi - lo)
        sup = max(sup, d)
        if d > Fraction(EPS):
            deviation += hi - lo
    return lp, mass(u), sup, deviation


def exact_run(u, n_max, order):
    """The states u_0 .. u_n_max of the scheme, each outer step applying
    every entry of its prefix of the schedule."""
    state = ([Fraction(x) for x in u.breakpoints.tolist()],
             u.values.tolist())
    entries = schedule(RHO, n_max)
    states, noops = [state], set()   # the entries that leave state as it is
    for n in range(1, n_max + 1):
        for k in (range(n - 1, -1, -1) if order == "reversed" else range(n)):
            if k not in noops:
                out = polarize(state, *entries[k])
                if out is None:
                    noops.add(k)
                else:
                    state, noops = out, set()
        states.append(state)
    return states


def within(got, exact):
    return abs(Fraction(got) - exact) <= REL * exact


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("seed", SEEDS)
def test_whole_run_matches_the_exact_scheme(seed, order):
    u = generators.random_step_function(random.Random(seed), span=1.0)
    series = converge_restricted(u, rho=RHO, n_max=N_MAX,
                                 weight=RadialWeight.triangular(RADIUS),
                                 eps=EPS, order=order)
    states = exact_run(u, N_MAX, order)
    star = rearranged(states[0])
    changes = [n for n, state in enumerate(states)
               if n == 0 or state != states[n - 1]]
    assert [r.n for r in series.rows] == changes
    assert (next((r.n for r in series if r.lp_error == 0), None)
            == next((n for n, s in enumerate(states) if s == star), None))
    for record, state in zip(series, states):
        exact = row(state, star)
        assert all(map(within, record._fields(), exact)), record.n
