"""The 1-D engine's constructor checks, grouped lengths, layer cake and
merged grid against the code they replaced, kept here verbatim as the
reference: every input gives the same bytes, the same identity (``out is
u``) and the same ValueError message.  Two stated exceptions: a layer cake
whose summed lengths round beyond the largest double raises its own error,
where the reference raised the constructor's span error after a numpy
overflow warning; and of a -0.0 and a 0.0 breakpoint the merged grid may
keep the other zero."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rearrange_lab import step1d
from rearrange_lab.step1d import StepFunction, merged_grid, rearrange

HUGE = sys.float_info.max
TINY = 5e-324   # the smallest subnormal

OVERFLOW = "the length of the rearranged support is beyond the float range"


# -- The reference: the code as it was. --------------------------------------

def reference_step_function(breakpoints, values) -> StepFunction:
    """StepFunction.__init__ with _canonicalize."""
    b = np.array(breakpoints, dtype=float)
    v = np.array(values, dtype=float)
    if b.ndim != 1 or v.ndim != 1:
        raise ValueError("breakpoints and values must be 1-D")
    if v.size == 0:
        if b.size not in (0, 1):
            raise ValueError("a zero function has no pieces")
        return StepFunction.zero()
    if b.size != v.size + 1:
        raise ValueError("need exactly len(values)+1 breakpoints")
    if not math.isfinite(float(b[-1]) - float(b[0])):
        raise ValueError("breakpoints must span a finite length")
    if not np.all(np.diff(b) > 0):
        raise ValueError("breakpoints must be strictly increasing")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError("values must be finite and nonnegative")
    keep = np.empty(b.size, dtype=bool)
    keep[0] = keep[-1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:-1])
    idx = keep.nonzero()[0]
    nb = b[idx]
    nv = v[idx[:-1]]
    nz = nv.nonzero()[0]
    if nz.size == 0:
        return StepFunction.zero()
    lo, hi = nz[0], nz[-1]
    return StepFunction._from_canonical(nb[lo:hi + 2], nv[lo:hi + 1])


def reference_grouped_lengths(u: StepFunction):
    if u.is_zero:
        return np.empty(0), np.empty(0)
    lengths = np.diff(u.breakpoints)
    distinct, inverse = np.unique(u.values, return_inverse=True)
    totals = np.zeros(distinct.size)
    np.add.at(totals, inverse, lengths)
    mask = distinct > 0
    return distinct[mask], totals[mask]


def reference_rearrange(u: StepFunction) -> StepFunction:
    if u.is_zero:
        return u
    distinct, totals = reference_grouped_lengths(u)
    dvals = distinct[::-1]           # descending
    cumulative = np.cumsum(totals[::-1])
    half = cumulative / 2.0
    breakpoints = np.concatenate([-half[::-1], half])
    if not np.all(breakpoints[1:] > breakpoints[:-1]):
        raise ValueError("the rearranged breakpoints collapse: a piece is "
                         "narrower than one float step of the cumulative "
                         "measure at its place")
    values = np.concatenate([dvals[::-1], dvals[1:]])
    out = StepFunction(breakpoints, values)
    return u if out == u else out


def reference_merged_grid(u: StepFunction, v: StepFunction) -> np.ndarray:
    return np.union1d(u.breakpoints, v.breakpoints)


# -- Inputs ------------------------------------------------------------------

# Repeated values, both signed zeros, and values at both ends of the range.
VALUE = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, TINY, 1e-300,
                         1e300]) | st.floats(0.0, 10.0)

# Breakpoint families: dyadic, subnormal widths, spans next to the float
# max (up to the largest double, which is finite), and any finite doubles.
BREAKPOINT_FAMILIES = {
    "dyadic": st.integers(-64, 64).map(lambda k: k / 8),
    "subnormal": st.integers(-20, 20).map(lambda k: k * TINY),
    "huge": st.floats(-HUGE / 2, HUGE / 2),
    "any": st.floats(-1e6, 1e6),
}


@st.composite
def step_functions(draw):
    family = draw(st.sampled_from(sorted(BREAKPOINT_FAMILIES)))
    n = draw(st.integers(1, 10))
    b = draw(st.lists(BREAKPOINT_FAMILIES[family], min_size=n + 1,
                      max_size=n + 1, unique=True))
    return StepFunction(sorted(b), draw(st.lists(VALUE, min_size=n,
                                                 max_size=n)))


# Any doubles, and the ones next to the float range's ends and zero.
RAW = st.floats() | st.sampled_from([0.0, -0.0, TINY, -TINY, HUGE, -HUGE,
                                     HUGE / 2, -HUGE / 2, math.inf, math.nan])


@st.composite
def constructor_args(draw):
    """Breakpoints and values, valid or not: sorted or not, negative or
    non-finite entries, and one breakpoint too many or too few."""
    n = draw(st.integers(0, 8))
    size = max(0, n + 1 + draw(st.sampled_from([0, 0, 0, 1, -1])))
    b = draw(st.lists(RAW, min_size=size, max_size=size))
    if draw(st.booleans()):
        b.sort()
    return b, draw(st.lists(VALUE | RAW, min_size=n, max_size=n))


def outcome(f, *args):
    """f(*args), or the ValueError it raised as (type, message)."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def reference_outcome(f, *args):
    # np.diff and np.cumsum may overflow in the reference
    with np.errstate(over="ignore", invalid="ignore"):
        return outcome(f, *args)


def same_function(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


# -- The properties ----------------------------------------------------------

class TestConstructor:
    @given(constructor_args())
    @settings(max_examples=600, deadline=None)
    @example(([0.0, 1e308, -1e308, 1.0], [1.0] * 3))   # np.diff overflows
    @example(([0.0, math.nan, 2.0], [1.0, 1.0]))
    @example(([0.0, 1.0, 2.0, 3.0], [1.0, -0.0, 1.0]))
    @example(([-HUGE / 2, HUGE / 2], [1.0]))
    def test_same_function_or_error(self, args):
        same_function(outcome(StepFunction, *args),
                      reference_outcome(reference_step_function, *args))


class TestLayerCake:
    @given(step_functions())
    @settings(max_examples=600, deadline=None)
    def test_same_grouped_lengths(self, u):
        for got, want in zip(step1d._grouped_lengths(u),
                             reference_grouped_lengths(u)):
            assert got.tobytes() == want.tobytes()

    @given(step_functions())
    @settings(max_examples=600, deadline=None)
    @example(StepFunction([-8.988465674311578e+307, -3.5693773871033044e+307,
                           -1.9259079943139304e+306, 6.742918414183176e+307,
                           8.952001825597159e+307, 8.988465674311579e+307],
                          [1.0, 2.0, 3.0, 4.0, 5.0]))
    @example(StepFunction([0.0, TINY], [1.0]))
    def test_same_bytes_identity_and_errors(self, u):
        for _ in range(2):   # u, then its rearrangement
            got = outcome(rearrange, u)
            want = reference_outcome(reference_rearrange, u)
            if got == (ValueError, OVERFLOW):
                assert want == (ValueError,
                                "breakpoints must span a finite length")
                return
            same_function(got, want)
            if isinstance(got, tuple):
                return
            assert (got is u) == (want is u)
            u = got


class TestMergedGrid:
    @given(step_functions(), step_functions())
    @settings(max_examples=600, deadline=None)
    def test_same_bytes_up_to_the_sign_of_a_zero(self, u, v):
        # Of a -0.0 and a 0.0, np.union1d kept the one its hash table kept,
        # which depends on the other entries; merged_grid keeps the one met
        # first in u, then v.  The cells and their widths are the same.
        assert ((merged_grid(u, v) + 0.0).tobytes()
                == (reference_merged_grid(u, v) + 0.0).tobytes())

    @pytest.mark.parametrize("a, b", [(-0.0, 0.0), (0.0, -0.0)])
    def test_keeps_the_zero_met_first(self, a, b):
        grid = merged_grid(StepFunction([a, 1.0], [1.0]),
                           StepFunction([-1.0, b], [1.0]))
        assert grid.tolist() == [-1.0, 0.0, 1.0]
        assert math.copysign(1.0, grid[1]) == math.copysign(1.0, a)

    def test_zero_functions(self):
        zero = StepFunction.zero()
        assert merged_grid(zero, zero).size == 0
        u = StepFunction.indicator(1.0, 2.0)
        assert merged_grid(zero, u).tolist() == [1.0, 2.0]
