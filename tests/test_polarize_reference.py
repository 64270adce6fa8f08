"""step1d.polarize against the two-pointer merge it replaced.

The reference below merges the breakpoints with their mirror images, reads
u at each cell midpoint and at its mirror image by two pointer walks, and
assembles the result.  Its merge drops a repeat only across the two lists,
so its output can repeat a breakpoint; its midpoint 0.5*(lo + hi) and its
mirror images can overflow, which erases pieces.  polarize must always
return a valid canonical function or raise ValueError for a mirror image
beyond the float range.  Wherever the reference's output is valid and
agrees with the exact oracle of test_step1d (oracle_agrees), and no
breakpoint or mirror image is near overflow or subnormal, polarize must
give the same bytes, and return u exactly when the reference does.  Where
the reference reads a cell at a midpoint rounded onto its end and loses a
value, test_step1d.TestExactOracle checks polarize instead.
"""

import math
import sys

from hypothesis import assume, example, given, settings, strategies as st

from rearrange_lab.halfspace import Halfspace
from rearrange_lab.step1d import StepFunction, polarize
from test_step1d import is_canonical, oracle_agrees, state_bytes

TINY = 5e-324
HUGE = sys.float_info.max


def reference_polarize(u: StepFunction, h: Halfspace) -> StepFunction:
    if h.dimension != 1:
        raise ValueError("step functions are one-dimensional")
    if u.is_zero:
        return u
    nu = h.normal[0]
    c = nu * h.offset
    c2 = 2.0 * c
    b = u.breakpoints.tolist()
    uvals = u.values.tolist()
    nb = len(b)
    refl = [c2 - x for x in reversed(b)]
    grid = []
    i = j = 0
    while i < nb and j < nb:
        x, y = b[i], refl[j]
        if x < y:
            grid.append(x)
            i += 1
        elif y < x:
            grid.append(y)
            j += 1
        else:
            grid.append(x)
            i += 1
            j += 1
    grid.extend(b[i:])
    grid.extend(refl[j:])
    ncells = len(grid) - 1
    direct = [0.0] * ncells
    k = 0
    for m in range(ncells):
        mid = 0.5 * (grid[m] + grid[m + 1])
        while k < nb and b[k] <= mid:
            k += 1
        if 1 <= k <= nb - 1:
            direct[m] = uvals[k - 1]
    mirrored = [0.0] * ncells
    k = 0
    for m in range(ncells - 1, -1, -1):
        mid = c2 - 0.5 * (grid[m] + grid[m + 1])
        while k < nb and b[k] <= mid:
            k += 1
        if 1 <= k <= nb - 1:
            mirrored[m] = uvals[k - 1]
    out_b = []
    out_v = []
    for m in range(ncells):
        mid = 0.5 * (grid[m] + grid[m + 1])
        in_h = mid <= c if nu > 0 else mid >= c
        a, r = direct[m], mirrored[m]
        val = (a if a >= r else r) if in_h else (r if a >= r else a)
        if out_v and out_v[-1] == val:
            continue
        out_b.append(grid[m])
        out_v.append(val)
    out_b.append(grid[ncells])
    while out_v and out_v[-1] == 0.0:
        out_v.pop()
        out_b.pop()
    lo = 0
    while lo < len(out_v) and out_v[lo] == 0.0:
        lo += 1
    out_b = out_b[lo:]
    out_v = out_v[lo:]
    if out_v == uvals and out_b == b:
        return u
    if not out_v:
        return StepFunction.zero()
    return StepFunction._from_canonical(out_b, out_v)


def _moderate(x: float) -> bool:
    return x == 0.0 or 2.0 ** -1000 <= abs(x) <= 2.0 ** 1000


# Dyadic eighths make repeats and exact mirror images common; the extremes
# reach overflow of 2c, of 2c - x and of lo + hi, and subnormal midpoints.
EXTREME = st.sampled_from([0.0, TINY, -TINY, 1e-20, -1e-20, 1e308, -1e308,
                           1.7e308, -1.7e308, HUGE / 2, -HUGE / 2])
POINT = st.one_of(st.integers(-64, 64).map(lambda k: k / 8), EXTREME,
                  st.floats(allow_nan=False, allow_infinity=False))
VALUE = st.one_of(st.integers(0, 3).map(float),
                  st.floats(min_value=0, allow_infinity=False))


@st.composite
def step_functions(draw):
    b = sorted(draw(st.lists(POINT, min_size=2, max_size=8, unique=True)))
    assume(math.isfinite(b[-1] - b[0]))
    v = draw(st.lists(VALUE, min_size=len(b) - 1, max_size=len(b) - 1))
    return StepFunction(b, v)


@settings(max_examples=600, deadline=None)
@given(u=step_functions(), sign=st.sampled_from([1.0, -1.0]),
       d=st.one_of(st.integers(-128, 128).map(lambda k: k / 16), POINT))
@example(u=StepFunction([0, 1e-20, 1, 2], [3.0, 1.0, 2.0]), sign=1.0, d=0.5)
@example(u=StepFunction([0, 1], [1.0]), sign=1.0, d=-1e308)
@example(u=StepFunction([1e308, 1.7e308], [1.0]), sign=1.0, d=0.0)
@example(u=StepFunction([1e308, 1.7e308], [1.0]), sign=-1.0, d=0.0)
def test_matches_reference(u, sign, d):
    h = Halfspace.line(sign, d)
    c2 = 2.0 * sign * d
    b = u.breakpoints.tolist()
    try:
        out = polarize(u, h)
    except ValueError:
        assert any(math.isinf(c2 - x) for x in b)
        return
    assert is_canonical(out)
    want = reference_polarize(u, h)
    if (is_canonical(want) and all(_moderate(x) and _moderate(c2 - x)
                                   for x in b)
            and oracle_agrees(u, h, want, out)):
        assert state_bytes(out) == state_bytes(want)
        assert (out is u) == (want is u)
