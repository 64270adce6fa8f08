"""The four CSV formats round-trip bit-exactly at extreme values: the
subnormal 5e-324, the largest double, a grid's smallest and largest cell
sizes, m = 0 grids and lattice sites past the 17 digits a float would
print."""

import math
import sys

import numpy as np
from hypothesis import example, given, settings, strategies as st

from rearrange_lab import grid2d, lattice, step1d
from rearrange_lab.grid2d import GridFunction
from rearrange_lab.lattice import LatticeFunction
from rearrange_lab.series import ConvergenceRecord, ConvergenceSeries
from rearrange_lab.step1d import StepFunction

TINY = 5e-324
HUGE = sys.float_info.max
H_MAX = math.sqrt(HUGE)   # the largest cell size h whose area h*h is finite
H_MIN = 2.0 ** -511       # the smallest h whose area h*h is a normal double


def _extreme(floats):
    return st.one_of(st.sampled_from([0.0, TINY, 1.0, HUGE]), floats)


VALUE = _extreme(st.floats(min_value=0, allow_infinity=False))
# Breakpoints stay within +-HUGE/2 so that no piece is longer than HUGE.
BREAKPOINT = st.one_of(st.sampled_from([-TINY, TINY, HUGE / 2, -HUGE / 2]),
                       st.floats(-HUGE / 2, HUGE / 2))
SITE = st.one_of(st.sampled_from([-10**20, 10**20, 10**20 + 1]),
                 st.integers(-10**20, 10**20))


@st.composite
def step_functions(draw):
    b = sorted(draw(st.lists(BREAKPOINT, min_size=2, max_size=8, unique=True)))
    v = draw(st.lists(VALUE, min_size=len(b) - 1, max_size=len(b) - 1))
    return StepFunction(b, v)


@st.composite
def grid_functions(draw):
    m = draw(st.integers(0, 2))
    h = draw(st.one_of(st.sampled_from([H_MIN, 1.0, H_MAX]),
                       st.floats(min_value=H_MIN, max_value=H_MAX)))
    cells = (2 * m + 1) ** 2
    values = draw(st.lists(VALUE, min_size=cells, max_size=cells))
    return GridFunction(m, h, np.reshape(values, (2 * m + 1, 2 * m + 1)))


RECORD = st.builds(ConvergenceRecord, st.integers(0, 10**20),
                   *[_extreme(st.floats(allow_nan=False))] * 4)


def _roundtrip(dumps, loads, x):
    text = dumps(x)
    assert loads(text) == x
    assert dumps(loads(text)) == text


@settings(deadline=None)
@given(u=step_functions())
@example(u=StepFunction([-TINY, TINY, 1.0, HUGE], [HUGE, TINY, 1.0]))
def test_step1d(u):
    _roundtrip(step1d.dumps, step1d.loads, u)


@settings(deadline=None)
@given(u=st.dictionaries(SITE, VALUE, max_size=8).map(LatticeFunction))
@example(u=LatticeFunction({-10**20: HUGE, 10**20 + 1: TINY, 0: 1.0}))
def test_lattice(u):
    _roundtrip(lattice.dumps, lattice.loads, u)


@settings(deadline=None)
@given(u=grid_functions())
@example(u=GridFunction(0, H_MIN, [[HUGE]]))
@example(u=GridFunction(0, H_MAX, [[TINY]]))
def test_grid2d(u):
    _roundtrip(grid2d.dumps, grid2d.loads, u)


@settings(deadline=None)
@given(series=st.lists(RECORD, max_size=6).map(ConvergenceSeries))
@example(series=ConvergenceSeries([ConvergenceRecord(10**20, TINY, HUGE,
                                                     -HUGE, float("inf"))]))
def test_series(series):
    _roundtrip(ConvergenceSeries.dumps, ConvergenceSeries.loads, series)
