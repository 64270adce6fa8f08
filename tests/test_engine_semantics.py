"""One polarization semantics across the three engines.

Embed a function on integer sites as the step function with value u(x) on
[x - 1/2, x + 1/2).  A lattice polarization, and a grid reflection row by
row or column by column, then equals the 1-D engine's polarization of the
embedding across the matching halfspace.  The 1-D engine shares no
arithmetic with the other two, so each side checks the other.
"""

from hypothesis import example, given, settings, strategies as st

from rearrange_lab.grid2d import (GridFitError, GridFunction, HyperplaneKind,
                                  LatticeHyperplane, polarize_grid_exact)
from rearrange_lab.halfspace import Halfspace
from rearrange_lab.lattice import LatticeFunction, polarize_involution
from rearrange_lab.step1d import StepFunction, polarize

# Repeated values and zeros make equal neighbours and gaps, which the 1-D
# engine merges and keeps.
VALUE = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 2.0, 5e-324]),
                  st.floats(0, 1e300))


def embed(values: dict) -> StepFunction:
    """The step function with value values[x] on [x - 1/2, x + 1/2)."""
    if not values:
        return StepFunction.zero()
    sites = range(min(values), max(values) + 1)
    return StepFunction([x - 0.5 for x in (*sites, sites[-1] + 1)],
                        [values.get(x, 0.0) for x in sites])


@settings(deadline=None, max_examples=300)
@given(u=st.dictionaries(st.integers(-10, 10), VALUE, max_size=12).map(
           LatticeFunction),
       c=st.integers(-10, 10))
@example(u=LatticeFunction({0: 1.0, 1: 2.0}), c=1)    # orbit {0, 1}
@example(u=LatticeFunction({0: 1.0, 1: 2.0}), c=0)    # 1 goes to -1
@example(u=LatticeFunction({3: 2.0, -3: 1.0}), c=0)   # fixed point 0
@example(u=LatticeFunction({1: 1.0, 3: 4.0}), c=2)   # fixed point 1
def test_lattice_involution_is_1d_polarization(u, c):
    # The spiral-smaller site of {x, c - x} is the one nearer 1/4, and the
    # orbit's midpoint is c/2: for c >= 1 that is the site below c/2, for
    # c <= 0 the site above it.
    h = Halfspace.line(1, c / 2) if c >= 1 else Halfspace.line(-1, -c / 2)
    want = embed(dict(polarize_involution(u, c).items()))
    assert polarize(embed(dict(u.items())), h) == want


@st.composite
def grid_cases(draw, step=0.5):
    """A grid function and an offset, a multiple of step: half-integers
    for X and Y, integers for the diagonals."""
    m = draw(st.integers(0, 4))
    n = 2 * m + 1
    values = draw(st.lists(VALUE, min_size=n * n, max_size=n * n))
    s = draw(st.integers(-2 * m - 2, 2 * m + 2)) * step
    return GridFunction(m, 1.0, [values[k:k + n] for k in range(0, n * n, n)]), s


# The line through cell (i, j) that each kind's reflection maps to itself,
# and the cell's position t on it, which the reflection mirrors across s.
_LINE_AND_POSITION = {
    HyperplaneKind.X: lambda i, j: (j, i),
    HyperplaneKind.Y: lambda i, j: (i, j),
    HyperplaneKind.DIAG_UP: lambda i, j: (i - j, i + j),
    HyperplaneKind.DIAG_DOWN: lambda i, j: (i + j, i - j),
}


def _lines(u: GridFunction, kind: HyperplaneKind):
    """u on each line of kind's family, in order, as dicts from the
    position t to value: rows (X), columns (Y), i - j = const (DIAG_UP) or
    i + j = const (DIAG_DOWN)."""
    lines = {}
    for j, row in enumerate(u.values.tolist(), -u.m):
        for i, x in enumerate(row, -u.m):
            line, t = _LINE_AND_POSITION[kind](i, j)
            lines.setdefault(line, {})[t] = x
    return [lines[line] for line in sorted(lines)]


@settings(deadline=None, max_examples=300)
@given(case=grid_cases(), kind=st.sampled_from([HyperplaneKind.X,
                                                 HyperplaneKind.Y]))
@example(case=(GridFunction(1, 1.0, [[0, 1, 2], [3, 0, 0], [0, 0, 0]]), 0.5),
         kind=HyperplaneKind.X)
@example(case=(GridFunction(1, 1.0, [[0, 1, 2], [3, 0, 0], [0, 0, 0]]), 0.0),
         kind=HyperplaneKind.Y)
def test_grid_reflection_is_1d_polarization_per_line(case, kind):
    # X: H = {i <= s} on each row; Y: H = {j <= s} on each column.
    u, s = case
    try:
        out = polarize_grid_exact(u, LatticeHyperplane(kind, s))
    except GridFitError:
        return   # a positive value would leave the array; 1-D has no edge
    h = Halfspace.line(1, s)
    for line, want in zip(_lines(u, kind), _lines(out, kind)):
        assert polarize(embed(line), h) == embed(want)


@settings(deadline=None, max_examples=300)
@given(case=grid_cases(step=1), kind=st.sampled_from(
    [HyperplaneKind.DIAG_UP, HyperplaneKind.DIAG_DOWN]))
@example(case=(GridFunction(1, 1.0, [[0, 1, 2], [3, 0, 0], [0, 0, 0]]), 0),
         kind=HyperplaneKind.DIAG_UP)
@example(case=(GridFunction(1, 1.0, [[0, 1, 2], [3, 0, 0], [0, 0, 0]]), 1),
         kind=HyperplaneKind.DIAG_DOWN)
@example(case=(GridFunction(1, 1.0, [[5e-324, 0, 0], [0, 0, 0], [0, 0, 1]]),
               0), kind=HyperplaneKind.DIAG_UP)
def test_diagonal_reflection_is_1d_polarization_per_line(case, kind):
    # DIAG_UP maps each line i - j = const to itself and t = i + j to
    # 2s - t; DIAG_DOWN maps each i + j = const and t = i - j alike.  Cells
    # of one line are two apart in t, so the embedding has zero gaps.
    u, s = case
    try:
        out = polarize_grid_exact(u, LatticeHyperplane(kind, s))
    except GridFitError:
        return   # a positive value would leave the array; 1-D has no edge
    h = Halfspace.line(1, s)
    for line, want in zip(_lines(u, kind), _lines(out, kind)):
        assert polarize(embed(line), h) == embed(want)
