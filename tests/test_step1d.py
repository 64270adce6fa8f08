import itertools
import math
import random
import re
import warnings
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import (
    assume, example, given, reject, settings, strategies as st)

from rearrange_lab import generators
from rearrange_lab.errors import ParseError
from rearrange_lab import series, step1d
from rearrange_lab.analysis import product_integral
from rearrange_lab.halfspace import Halfspace, Schedule
from rearrange_lab.step1d import (
    StepFunction,
    _first_mover,
    deviation_measure,
    dumps,
    loads,
    lp_distance,
    lp_norm,
    lp_norm_pow,
    polarize,
    rearrange,
    sup_distance,
    superlevel_measure,
)


def dyadic_steps():
    """Hypothesis strategy for step functions on the 1/8 grid in [-4, 4]."""
    return st.builds(
        lambda seed: generators.random_step_function(
            random.Random(seed), span=4.0),
        st.integers(0, 10**9))


class TestStepFunction:
    def test_canonical_merges_equal_neighbours(self):
        u = StepFunction([0, 1, 2], [3.0, 3.0])
        assert u.piece_count == 1
        assert u.breakpoints.tolist() == [0.0, 2.0]

    def test_canonical_strips_zero_ends(self):
        u = StepFunction([0, 1, 2, 3], [0.0, 5.0, 0.0])
        assert u.breakpoints.tolist() == [1.0, 2.0]
        assert u.values.tolist() == [5.0]

    def test_all_zero_is_zero_function(self):
        u = StepFunction([0, 1], [0.0])
        assert u.is_zero
        assert u == StepFunction.zero()

    def test_interior_zero_pieces_kept(self):
        u = StepFunction([0, 1, 2, 3], [1.0, 0.0, 2.0])
        assert u.piece_count == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction([0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            StepFunction([1, 0], [1.0])
        with pytest.raises(ValueError):
            StepFunction([0, 1], [-1.0])
        with pytest.raises(ValueError):
            StepFunction([0, 1], [float("nan")])
        with pytest.raises(ValueError):
            StepFunction([-1e308, 1e308], [1.0])       # span overflows

    def test_half_open_evaluation(self):
        u = StepFunction.indicator(1, 2)
        assert u.evaluate_many([1.0, 2.0, 0.999]).tolist() == [1.0, 0.0, 0.0]

    def test_evaluate_many_matches_evaluate(self):
        # against the pointwise definition: the value of the piece [a, b)
        # that holds x, else 0
        rng = random.Random(0)
        u = generators.random_step_function(rng)
        xs = [rng.uniform(-9, 9) for _ in range(500)]
        xs += u.breakpoints.tolist()
        for x, v in zip(xs, u.evaluate_many(np.array(xs)).tolist()):
            assert v == next((w for a, b, w in u.pieces() if a <= x < b), 0.0)

    def test_equality_and_hash(self):
        a = StepFunction([0, 1], [2.0])
        b = StepFunction([0, 0.5, 1], [2.0, 2.0])
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize("a, b", [
        (StepFunction([-0.0, 1.0], [1.0]), StepFunction([0.0, 1.0], [1.0])),
        (StepFunction([0, 1, 2, 3], [1.0, -0.0, 2.0]),
         StepFunction([0, 1, 2, 3], [1.0, 0.0, 2.0])),
    ])
    def test_equal_with_signed_zeros_hash_equal(self, a, b):
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestPolarize:
    def test_indicator_across_origin(self):
        # 1_{[1,2)} across {x <= 0} reflects to 1_{[-2,-1)}
        u = StepFunction.indicator(1, 2)
        out = polarize(u, Halfspace.line(1, 0.0))
        assert out == StepFunction.indicator(-2, -1)

    def test_already_polarized_returns_same_object(self):
        u = StepFunction.indicator(-2, -1)
        assert polarize(u, Halfspace.line(1, 0.0)) is u

    def test_zero_function(self):
        z = StepFunction.zero()
        assert polarize(z, Halfspace.line(1, 0.5)) is z

    def test_midpoint_near_the_largest_double(self):
        u = StepFunction([1e308, 1.7e308], [1.0])
        assert (polarize(u, Halfspace.line(1, 0.0))
                == StepFunction([-1.7e308, -1e308], [1.0]))
        assert polarize(u, Halfspace.line(-1, 0.0)) is u

    def test_mirror_image_beyond_the_float_range(self):
        u = StepFunction.indicator(0, 1)
        assert polarize(u, Halfspace.line(1, 1e308)) is u     # support in h
        with pytest.raises(ValueError):
            polarize(u, Halfspace.line(1, -1e308))

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            polarize(StepFunction.indicator(0, 1), Halfspace.plane(0.0, 0.5))

    @given(dyadic_steps(), st.sampled_from((1.0, -1.0)),
           st.integers(-64, 64))
    @settings(max_examples=150, deadline=None)
    def test_equimeasurable_exactly_on_dyadic_centers(self, u, sign, k):
        # dyadic offsets keep every reflected breakpoint representable,
        # so superlevel measures survive bit-for-bit
        h = Halfspace.line(sign, k / 64.0)
        out = polarize(u, h)
        for lam in {0.0, *(v / 2 for v in u.values.tolist()),
                    *u.values.tolist()}:
            assert superlevel_measure(out, lam) == superlevel_measure(u, lam)

    @given(dyadic_steps(), st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_equimeasurable_approximately_anywhere(self, u, hseed):
        h = generators.random_halfspace_1d(random.Random(hseed),
                                           signed_offset=True)
        out = polarize(u, h)
        for lam in {0.0, *(v / 2 for v in u.values.tolist())}:
            assert math.isclose(superlevel_measure(out, lam),
                                superlevel_measure(u, lam),
                                rel_tol=0.0, abs_tol=1e-9)

    @given(dyadic_steps(), st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, u, hseed):
        h = generators.random_halfspace_1d(random.Random(hseed),
                                           signed_offset=True)
        once = polarize(u, h)
        assert polarize(once, h) is once

    def test_pointwise_definition(self):
        rng = random.Random(17)
        for _ in range(50):
            u = generators.random_step_function(rng, span=4.0)
            h = generators.random_halfspace_1d(rng, signed_offset=True)
            out = polarize(u, h)
            nu, d = h.normal[0], h.offset
            c = nu * d
            xs = np.array([rng.uniform(-10, 10) for _ in range(200)])
            a, b = u.evaluate_many(xs), u.evaluate_many(2 * c - xs)
            want = np.where(nu * xs <= d, np.maximum(a, b), np.minimum(a, b))
            assert np.array_equal(out.evaluate_many(xs), want)


def columns(halfspaces):
    """The sign and boundary-point columns of 1-D halfspaces, the form in
    which _first_mover takes them."""
    nu = np.array([h.normal[0] for h in halfspaces])
    return nu, nu * np.array([h.offset for h in halfspaces])


def first_change(u, entries, halfspaces):
    """The answer (outer step, position, outcome) of the first of entries
    (outer step, position, index into halfspaces) whose halfspace changes
    u, or raises, in order; None for none.  _first_mover decides each run
    of entries within its precondition, given the run's indices as an
    array, and polarize, through series._first_change, each entry whose
    halfspace mirrors u's support beyond the float range (escapes), where
    it returns u or raises."""
    nu, c = columns(halfspaces)
    for escaping, run in itertools.groupby(
            entries, lambda entry: escapes(u, halfspaces[entry[2]])):
        if not escaping:
            run = list(run)
            answer = _first_mover(
                u, np.array([k for *_, k in run], dtype=np.intp), nu, c)
            if answer is not None:
                return (*run[answer[0]][:2], answer[1])
            continue
        for m, q, k in run:
            answer = series._first_change([halfspaces[k]], polarize)(
                u, 1, 0, 1)
            if answer is not None:
                return m, q, answer[2]
    return None


def movers(u, halfspaces):
    """The positions in halfspaces that change u or raise (first_change)."""
    return [k for k, _ in moving_states(u, halfspaces)]


def moving_states(u, halfspaces):
    """(position, outcome) of each halfspace in halfspaces that changes u
    or raises, in order: the answers of first_change, each asked from
    just past the one before."""
    found, start = [], 0
    while (answer := first_change(
            u, [(1, k, k) for k in range(start, len(halfspaces))],
            halfspaces)) is not None:
        found.append(answer[1:])
        start = answer[1] + 1
    return found


def first_mover(u, halfspaces):
    """The position of first_change's answer; len(halfspaces) for none."""
    answer = first_change(u, [(1, k, k) for k in range(len(halfspaces))],
                          halfspaces)
    return len(halfspaces) if answer is None else answer[1]


def scalar_first_mover(u, halfspaces):
    """The first position where polarize changes u or raises, by one
    polarize call per halfspace."""
    for i, h in enumerate(halfspaces):
        try:
            if polarize(u, h) is not u:
                return i
        except ValueError:
            return i
    return len(halfspaces)


# Dyadic eighths make repeats and exact mirror images common; the extremes
# reach overflow of the mirror images, and -0.0 and subnormal breakpoints.
EXTREME = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-20, 1e308, -1e308,
                           1.7e308, -1.7e308])
POINT = st.one_of(st.integers(-64, 64).map(lambda k: k / 8), EXTREME,
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def decision_states(draw, points=POINT):
    """A generator input, or one on points drawn from points, as drawn,
    after a few schedule steps, or rearranged, so that no-ops are common;
    or zero."""
    kind = draw(st.sampled_from(["generator", "points", "zero"]))
    if kind == "zero":
        return StepFunction.zero()
    if kind == "generator":
        u = generators.random_step_function(
            random.Random(draw(st.integers(0, 10**9))), span=1.0)
    else:
        b = sorted(draw(st.lists(points, min_size=2, max_size=8,
                                 unique=True)))
        # unique keeps both zeros; the breakpoints must increase strictly
        assume(all(x < y for x, y in zip(b, b[1:])))
        assume(math.isfinite(b[-1] - b[0]))
        u = StepFunction(b, draw(st.lists(
            st.integers(0, 3).map(float), min_size=len(b) - 1,
            max_size=len(b) - 1)))
    then = draw(st.sampled_from(["as drawn", "stepped", "rearranged"]))
    if then == "rearranged":
        try:
            return rearrange(u)
        except ValueError:   # a piece below one float step of the measure
            reject()
    if then == "stepped":
        for h in Schedule(1, rho=0.1).first(draw(st.integers(1, 12))):
            u = polarize(u, h)
    return u


HALFSPACE = st.one_of(
    st.builds(lambda n: Schedule(1, rho=0.1).nth(n), st.integers(1, 400)),
    st.builds(Halfspace.line, st.sampled_from([1.0, -1.0]),
              st.one_of(st.integers(-128, 128).map(lambda k: k / 16), POINT)),
    st.builds(lambda seed: generators.random_halfspace_1d(
        random.Random(seed), signed_offset=True), st.integers(0, 10**9)))


def scalar_movers(u, halfspaces):
    """Every position scalar_first_mover finds a mover at, in order."""
    return [k for k, h in enumerate(halfspaces)
            if scalar_first_mover(u, [h]) == 0]


class TestFirstMover:
    @given(decision_states(), st.lists(HALFSPACE, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_matches_scalar_scan(self, u, halfspaces):
        assert (first_mover(u, halfspaces)
                == scalar_first_mover(u, halfspaces))

    @given(decision_states(), st.lists(HALFSPACE, max_size=40))
    @example(StepFunction([-0.0, 5e-324, 0.5], [1.0, 3.0]),
             [Halfspace.line(1, 0.0), Halfspace.line(-1, -0.0),
              Halfspace.line(-1, 5e-324), Halfspace.line(1, -5e-324),
              Halfspace.line(1, 1e308), Halfspace.line(1, 0.25)])
    @example(StepFunction([1e308, 1.25e308, 1.7e308], [1.0, 2.0]),
             [Halfspace.line(1, 8.5e307), Halfspace.line(-1, -8.5e307),
              Halfspace.line(1, -1e308), Halfspace.line(-1, 0.0),
              Halfspace.line(1, 1.25e308)])
    @example(StepFunction([-1.7e308, -1e308], [2.0]),
             [Halfspace.line(-1, 1e308), Halfspace.line(1, -1e308),
              Halfspace.line(1, 0.0)])
    @settings(max_examples=300, deadline=None)
    def test_yields_every_mover_in_order(self, u, halfspaces):
        """Asked again from just past each answer, first_change finds
        exactly the halfspaces h for which polarize(u, h) is not u or
        raises: _first_mover those within its precondition, polarize
        those that mirror the support beyond the float range."""
        assert movers(u, halfspaces) == scalar_movers(u, halfspaces)

    def test_bounded_passes_match_scalar_scan(self, monkeypatch):
        # Two halfspaces per pass on these inputs, so a mover sits in a
        # later pass and at either end of one.
        rng = random.Random(8)
        halfspaces = Schedule(1, rho=0.1).first(60)
        for _ in range(20):
            u = generators.random_step_function(rng, span=1.0)
            for h in halfspaces[:rng.randint(0, 30)]:
                u = polarize(u, h)
            monkeypatch.setattr(step1d, "_PASS_CELLS", 2 * u.breakpoints.size)
            for start in range(0, 60, 7):
                assert (first_mover(u, halfspaces[start:])
                        == scalar_first_mover(u, halfspaces[start:]))
                assert (movers(u, halfspaces[start:])
                        == scalar_movers(u, halfspaces[start:]))

    @pytest.mark.parametrize("pieces", [5, 600, 5000])
    def test_no_pass_exceeds_the_cell_bound(self, monkeypatch, pieces):
        """Each kernel pass decides at most _PASS_CELLS // len(breakpoints)
        halfspaces, and at least one; past 512 breakpoints that is fewer
        than the first chunk's eight."""
        rng = random.Random(pieces)
        u = StepFunction(np.arange(pieces + 1) / 64,
                         [float(rng.randint(1, 9)) for _ in range(pieces)])
        cap = max(1, step1d._PASS_CELLS // u.breakpoints.size)
        rows = []
        kernel = step1d._mirrored_cells

        def counting(b, padded, c):
            rows.append(np.size(c))   # one row per halfspace
            return kernel(b, padded, c)

        monkeypatch.setattr(step1d, "_mirrored_cells", counting)
        halfspaces = Schedule(1, rho=1.0).first(40)
        assert movers(u, halfspaces) == scalar_movers(u, halfspaces)
        assert rows and max(rows) <= cap

    @given(decision_states(), st.lists(HALFSPACE, max_size=40))
    @example(StepFunction([-0.0, 5e-324, 0.5], [1.0, 3.0]),
             [Halfspace.line(1, 0.0), Halfspace.line(-1, 0.0),
              Halfspace.line(1, -0.0), Halfspace.line(-1, 5e-324),
              Halfspace.line(1, -5e-324), Halfspace.line(1, 0.25)])
    @example(StepFunction([1e308, 1.25e308, 1.7e308], [1.0, 2.0]),
             [Halfspace.line(1, 8.5e307), Halfspace.line(-1, -8.5e307),
              Halfspace.line(1, -1e308), Halfspace.line(-1, 0.0)])
    @example(StepFunction([-1e-20, 0.0, 5e-324], [2.0, 1.0]),
             [Halfspace.line(1, -1e308), Halfspace.line(-1, 0.0),
              Halfspace.line(1, 1e308), Halfspace.line(1, 0.0)])
    @settings(max_examples=400, deadline=None)
    def test_states_are_polarize_bit_for_bit(self, u, halfspaces):
        """Each state _first_mover answers with is polarize's result, to
        the sign of each zero; an error is the answer only where a mirror
        image escapes, and it is polarize's."""
        for k, state in moving_states(u, halfspaces):
            h = halfspaces[k]
            if isinstance(state, Exception):
                c2 = 2.0 * h.normal[0] * h.offset
                b0, b1 = u.breakpoints[[0, -1]].tolist()
                assert math.isinf(c2 - b0) or math.isinf(c2 - b1)
                assert "beyond the float range" in str(state)
            else:
                want = polarize(u, h)
                assert want is not u
                assert state.breakpoints.tobytes() == want.breakpoints.tobytes()
                assert state.values.tobytes() == want.values.tobytes()

    def test_zero_state_yields_nothing(self):
        halfspaces = [*Schedule(1, rho=0.1).first(20),
                      Halfspace.line(1, 1e308), Halfspace.line(-1, 1e308)]
        assert movers(StepFunction.zero(), halfspaces) == []

    def test_mirror_image_beyond_the_float_range(self):
        """Through _first_change, polarize answers for a halfspace that
        mirrors the support beyond the float range: no change where the
        support lies in it, and its positioned error where not."""
        u = StepFunction.indicator(0, 1)
        noop = Halfspace.line(1, 0.5)
        steps = [noop, Halfspace.line(1, 1e308), noop]
        assert series._first_change(steps, polarize)(u, 3, 0, 3) is None
        steps[1] = Halfspace.line(1, -1e308)
        m, q, error = series._first_change(steps, polarize)(u, 3, 0, 3)
        assert (m, q) == (3, 1) and isinstance(error, ValueError)
        assert movers(u, steps) == [1]

    @pytest.mark.parametrize("u, noop, far", [
        # only 2c - b0 overflows
        (StepFunction.indicator(-1e308, 0), Halfspace.line(1, 0.5),
         Halfspace.line(1, 5e307)),
        # only 2c - b1 overflows
        (StepFunction.indicator(0, 1e308), Halfspace.line(-1, 0.5),
         Halfspace.line(-1, 5e307)),
    ])
    def test_mirror_image_beyond_the_float_range_at_one_end(self, u, noop,
                                                           far):
        """Where one end's mirror image escapes and the support lies in
        the halfspace, polarize, which decides it, changes nothing."""
        halfspaces = [noop, far, noop]
        assert escapes(u, far)
        assert (first_mover(u, halfspaces)
                == scalar_first_mover(u, halfspaces) == 3)
        assert movers(u, halfspaces) == scalar_movers(u, halfspaces) == []


def test_new_states_own_read_only_arrays():
    """polarize, _first_mover and rearrange take over the arrays they
    build, with no copy: each new state's are read-only and share no
    memory with the input's.  The public constructor copies its caller's
    arrays, so changing them leaves the function as it was."""
    u = generators.random_step_function(random.Random(11), span=1.0)
    halfspaces = Schedule(1, rho=0.1).first(200)
    moved = [out for h in halfspaces if (out := polarize(u, h)) is not u]
    answer = _first_mover(u, np.arange(len(halfspaces)),
                          *columns(halfspaces))
    assert moved and answer is not None
    for state in [*moved, answer[1], rearrange(u)]:
        for mine, theirs in ((state.breakpoints, u.breakpoints),
                             (state.values, u.values)):
            assert not mine.flags.writeable
            assert not np.shares_memory(mine, theirs)
    b, v = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0])
    w = StepFunction(b, v)
    b[0], v[0] = -5.0, 7.0
    assert w.breakpoints.tolist() == [0.0, 1.0, 2.0]
    assert w.values.tolist() == [1.0, 2.0]
    assert not np.shares_memory(w.breakpoints, b)


# The lookup loop polarize ran before the mirrored-grid kernel, verbatim:
# a bisect per cell and its own run assembly, kept as the reference.
def lookup_polarize(u: StepFunction, h: Halfspace) -> StepFunction:
    """Two-point rearrangement of u across h: the larger of u(x), u(sigma(x))
    goes to the h side, the smaller to the other side.  Exact on the grid of
    u's breakpoints and their mirror images; equimeasurable with u.  Returns
    u itself when nothing changes.  Raises ValueError when a mirror image is
    beyond the float range and the support does not lie in h."""
    if h.dimension != 1:
        raise ValueError("step functions are one-dimensional")
    if u.is_zero:
        return u
    nu = h.normal[0]
    c = nu * h.offset   # boundary point of h; sigma(x) = 2c - x
    c2 = 2.0 * c
    b = u.breakpoints.tolist()
    uvals = u.values.tolist()
    if math.isinf(c2 - b[0]) or math.isinf(c2 - b[-1]):
        # Some mirror image is beyond the float range.  If the support lies
        # in h nothing moves; otherwise the result is not representable.
        if (b[-1] <= c) if nu > 0 else (b[0] >= c):
            return u
        raise ValueError("the mirror image of the support across "
                         f"{h.encode()} is beyond the float range")
    grid = sorted({*b, *(c2 - x for x in b)})
    # u(x) is padded[count of breakpoints <= x].  Cell midpoints increase
    # and their mirror images decrease, so each search narrows the next.
    padded = [0.0, *uvals, 0.0]
    k, j = 0, len(b)
    # Runs of equal value, opened by an implicit zero run; leading and
    # trailing zero cells merge into the zero runs at either end.
    out_b, out_v = [], [0.0]
    for lo, hi in zip(grid, grid[1:]):
        mid = 0.5 * lo + 0.5 * hi   # lo + hi may overflow
        k = bisect_right(b, mid, k)
        j = bisect_right(b, c2 - mid, 0, j)
        a, r = padded[k], padded[j]
        in_h = mid <= c if nu > 0 else mid >= c
        val = (a if a >= r else r) if in_h else (r if a >= r else a)
        if val != out_v[-1]:
            out_b.append(lo)
            out_v.append(val)
    if out_v[-1]:
        out_b.append(grid[-1])
        out_v.append(0.0)
    out_v = out_v[1:-1]
    if out_v == uvals and out_b == b:
        return u
    return StepFunction._from_canonical(out_b, out_v)


def exact_polarization(u: StepFunction, h: Halfspace):
    """polarize(u, h) in Fraction arithmetic, assembled run by run as
    lookup_polarize does: the exact grid of u's breakpoints and their mirror
    images, and the result's canonical breakpoints (Fractions) and values.
    Each cell is read at its left end and at its mirror's left end, and
    placed by its exact midpoint."""
    nu = h.normal[0]
    c2 = 2 * Fraction(nu * h.offset)
    b = [Fraction(x) for x in u.breakpoints.tolist()]
    padded = [0.0, *u.values.tolist(), 0.0]
    grid = sorted({*b, *(c2 - x for x in b)})
    out_b, out_v = [], [0.0]
    for lo, hi in zip(grid, grid[1:]):
        a, r = padded[bisect_right(b, lo)], padded[bisect_right(b, c2 - hi)]
        in_h = lo + hi <= c2 if nu > 0 else lo + hi >= c2
        val = max(a, r) if in_h else min(a, r)
        if val != out_v[-1]:
            out_b.append(lo)
            out_v.append(val)
    if out_v[-1]:
        out_b.append(grid[-1])
        out_v.append(0.0)
    return grid, out_b, out_v[1:-1]


def _rounded_pieces(u: StepFunction, h: Halfspace):
    """exact_polarization's breakpoints, each rounded once to the nearest
    double, and its values."""
    _, exact_b, values = exact_polarization(u, h)
    return [float(x) for x in exact_b], values


def oracle_polarize(u: StepFunction, h: Halfspace) -> StepFunction:
    """The exact polarization with each breakpoint rounded once to the
    nearest double; a piece whose ends round together is dropped."""
    b, values = _rounded_pieces(u, h)
    kept = [i for i, v in enumerate(values) if b[i] < b[i + 1]]
    return StepFunction(sorted(set(b)), [values[i] for i in kept])


def rounding_case(grid) -> str:
    """How the float kernel meets the exact grid of exact_polarization:
    "exact" where every mirror image is a double, "rounded" where some
    image rounds but no cell rounds to zero width, "collapsed" otherwise."""
    points = [float(x) for x in grid]
    if all(Fraction(x) == g for x, g in zip(points, grid)):
        return "exact"
    if all(x < y for x, y in zip(points, points[1:])):
        return "rounded"
    return "collapsed"


def oracle_agrees(u: StepFunction, h: Halfspace, want: StepFunction,
                  got: StepFunction) -> bool:
    """Whether want, a reference's polarization of u across h, is
    oracle_polarize's result, so that got, polarize's, must match it.  Not
    where the oracle drops a piece whose ends round together and got is u:
    the oracle and the reference then lose that piece's measure, where
    polarize keeps u whole."""
    b, _ = _rounded_pieces(u, h)
    if got is u and any(x == y for x, y in zip(b, b[1:])):
        return False
    return want == oracle_polarize(u, h)


def escapes(u: StepFunction, h: Halfspace) -> bool:
    """Whether a mirror image of u's support across h is beyond the float
    range, so that polarize returns u or raises."""
    c = h.normal[0] * h.offset
    return not u.is_zero and step1d._escapes(
        *u.breakpoints[[0, -1]].tolist(), c)


def state_bytes(u: StepFunction):
    return u.breakpoints.tobytes(), u.values.tobytes()


def is_canonical(u: StepFunction) -> bool:
    """u passes validation and is already in canonical form."""
    try:
        return (state_bytes(StepFunction(u.breakpoints, u.values))
                == state_bytes(u))
    except ValueError:
        return False


class TestKernelMatchesLookup:
    """The same bytes as the lookup loop wherever the lookup gives the
    oracle's result (oracle_agrees), or a mirror image escapes: ties, signed
    zeros, identity and the errors.  Where the lookup reads a one- or
    two-step cell at a midpoint rounded onto its end and loses a value, or
    drops a collapsed piece that the kernel keeps by returning u,
    TestExactOracle checks the kernel instead."""

    @given(decision_states(), HALFSPACE)
    @settings(max_examples=400, deadline=None)
    # +-0.0 breakpoints across boundary points -0.0 and 0.0: the sign of a
    # zero breakpoint is kept from u where a mirror image equals it
    @example(StepFunction([-0.0, 1.0], [1.0]), Halfspace.line(-1, 0.0))
    @example(StepFunction([0.0, 1.0], [1.0]), Halfspace.line(-1, 0.0))
    @example(StepFunction([-1.0, -0.0], [2.0]), Halfspace.line(-1, -0.0))
    @example(StepFunction([-1.0, 0.0], [2.0]), Halfspace.line(-1, -0.0))
    @example(StepFunction([-1.0, -0.0, 1.0], [1.0, 2.0]),
             Halfspace.line(-1, 0.0))
    @example(StepFunction([-1.0, 0.0, 1.0], [2.0, 1.0]),
             Halfspace.line(-1, -0.0))
    # mirror images next to the float range's end, and beyond it
    @example(StepFunction([0.0, 1e300], [1.0]), Halfspace.line(1, -8.98e307))
    @example(StepFunction([-1e300, 0.0], [1.0]),
             Halfspace.line(-1, -8.98e307))
    @example(StepFunction([1e308, 1.7e308], [1.0]), Halfspace.line(1, 0.0))
    @example(StepFunction([0.0, 1.0], [1.0]), Halfspace.line(1, -1e308))
    # a cell collapses: the lookup and the oracle drop a 2**-52 piece of
    # value 1, where polarize returns u; not compared
    @example(StepFunction([-3.0, -1.0000000000000004, 1.0, 1.5, 2.0],
                          [3.0, 0.0, 3.0, 1.0]),
             Halfspace.line(1, -0.5000000000000001))
    def test_same_bytes_identity_and_errors(self, u, h):
        try:
            want = lookup_polarize(u, h)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                polarize(u, h)
            return
        got = polarize(u, h)
        if not escapes(u, h) and not oracle_agrees(u, h, want, got):
            return
        assert (got is u) == (want is u)
        assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


# Points whose mirror images round: subnormals, one float step from 1.0,
# and doubles in 2**49 .. 2**53, where the float step is 1/16 .. 1.
ROUNDING = st.builds(
    lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
    st.one_of(st.integers(1, 6).map(lambda k: k * 5e-324),
              st.integers(-2, 2).map(lambda k: 1.0 + k * 2.0 ** -52),
              st.floats(2.0 ** 49, 2.0 ** 53)))
ORACLE_POINT = st.one_of(POINT, ROUNDING)


class TestExactOracle:
    """polarize against the exact polarization in Fraction arithmetic."""

    @given(decision_states(ORACLE_POINT), st.one_of(
        HALFSPACE, st.builds(Halfspace.line, st.sampled_from([1.0, -1.0]),
                             ORACLE_POINT)))
    @settings(max_examples=600, deadline=None)
    # a cell collapses: the oracle drops its piece and loses measure, where
    # polarize returns u
    @example(StepFunction([-3.0, -1.0000000000000004, 1.0, 1.5, 2.0],
                          [3.0, 0.0, 3.0, 1.0]),
             Halfspace.line(1, -0.5000000000000001))
    def test_matches_exact_polarization(self, u, h):
        """Exact where every mirror image is a double, and the same object
        exactly when nothing moves; the exact result rounded once where
        images round and no cell collapses; otherwise valid and
        canonical."""
        if escapes(u, h):
            return   # TestPolarize and TestKernelMatchesLookup check these
        got = polarize(u, h)
        case = rounding_case(exact_polarization(u, h)[0])
        if case == "collapsed":
            assert is_canonical(got)
            return
        want = oracle_polarize(u, h)
        assert got == want   # == does not tell -0.0 from 0.0
        if case == "exact":
            assert (got is u) == (want == u)

    @pytest.mark.parametrize("u, h, want", [
        # subnormal cells whose midpoints round onto an end
        (StepFunction([1.5e-323, 2e-323], [2.0]), Halfspace.line(1, 0),
         StepFunction([-2e-323, -1.5e-323], [2.0])),
        (StepFunction([0, 5e-324], [2.0]), Halfspace.line(-1, -5e-324),
         StepFunction([5e-324, 1e-323], [2.0])),
        # an image beyond 2**53 rounds; no cell collapses
        (StepFunction([0.0, 1.0], [1.0]),
         Halfspace.line(1, -4503599627370497.0),
         StepFunction([-9007199254740996.0, -9007199254740994.0], [1.0])),
        # a one-step cell collapses, and value 2.0 with it
        (StepFunction([1.0, 1.0000000000000002, 1.0000000000000004],
                      [2.0, 1.0]), Halfspace.line(1, -1),
         StepFunction([-3.0000000000000004, -3.0], [1.0])),
    ])
    def test_pinned_inputs(self, u, h, want):
        assert polarize(u, h) == want
        assert oracle_polarize(u, h) == want


class TestRearrange:
    def test_two_piece_example(self):
        # 2 on [0,1), 1 on [2,4): layers of measure 1 and 3
        u = StepFunction([0, 1, 2, 4], [2.0, 0.0, 1.0])
        out = rearrange(u)
        assert out.breakpoints.tolist() == [-1.5, -0.5, 0.5, 1.5]
        assert out.values.tolist() == [1.0, 2.0, 1.0]

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(100):
            u = generators.random_step_function(rng)
            s = rearrange(u)
            assert rearrange(s) is s

    def test_symmetric_and_radially_nonincreasing(self):
        rng = random.Random(6)
        for _ in range(100):
            u = generators.random_step_function(rng)
            s = rearrange(u)
            vals = s.values.tolist()
            mid = len(vals) // 2
            assert vals[:mid + 1] == sorted(vals[:mid + 1])
            assert vals[mid:] == sorted(vals[mid:], reverse=True)
            b = s.breakpoints
            if b.size:
                assert math.isclose(b[0], -b[-1], abs_tol=0.0)

    def test_layer_cake_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            u = generators.random_step_function(rng)
            s = rearrange(u)
            levels = sorted({0.0, *(v * f for v in u.values.tolist()
                                    for f in (0.5, 1.0))})
            for lam in levels:
                m = superlevel_measure(u, lam)
                assert superlevel_measure(s, lam) == m
                # the superlevel set of s is the centered interval of measure m
                if m > 0:
                    assert (s.evaluate_many([-m / 2, m / 2 - 1e-12]) > lam).all()

    def test_zero(self):
        assert rearrange(StepFunction.zero()).is_zero

    def test_length_beyond_the_float_range(self):
        # the span is finite, but the grouped lengths sum beyond it
        u = StepFunction([-8.988465674311578e+307, -3.5693773871033044e+307,
                          -1.9259079943139304e+306, 6.742918414183176e+307,
                          8.952001825597159e+307, 8.988465674311579e+307],
                         [1.0, 2.0, 3.0, 4.0, 5.0])
        assert math.isfinite(u.breakpoints[-1] - u.breakpoints[0])
        # a numpy overflow warning would be an error here (filterwarnings)
        with pytest.raises(ValueError, match="^the length of the rearranged "
                           "support is beyond the float range$"):
            rearrange(u)

    @pytest.mark.parametrize("u", [
        StepFunction([0, 1e-17, 1], [1.0, 2.0]),   # 1 + 1e-17 rounds to 1
        StepFunction([0, 5e-324], [1.0]),          # half of 5e-324 is 0
    ])
    def test_piece_below_a_float_step_of_the_measure(self, u):
        with pytest.raises(ValueError, match="rearranged breakpoints collapse"):
            rearrange(u)


def level_measures(u: StepFunction) -> dict:
    """The exact measure of each level set {u = y}, y > 0."""
    out = defaultdict(Fraction)
    for a, b, y in u.pieces():
        if y > 0:
            out[y] += Fraction(b) - Fraction(a)
    return out


class TestLevelSetMeasures:
    """A Fraction oracle: on dyadic inputs, each level set keeps its exact
    measure, with no float arithmetic in the check."""

    @given(dyadic_steps())
    @settings(max_examples=200, deadline=None)
    def test_rearrange(self, u):
        assert level_measures(rearrange(u)) == level_measures(u)

    @given(dyadic_steps(), st.sampled_from((1.0, -1.0)),
           st.integers(-64, 64))
    @settings(max_examples=200, deadline=None)
    def test_polarize_across_dyadic_centers(self, u, sign, k):
        out = polarize(u, Halfspace.line(sign, k / 64.0))
        assert level_measures(out) == level_measures(u)


class TestFunctionals:
    def test_lp_norm_indicator(self):
        u = StepFunction.indicator(0, 2, 3.0)
        assert lp_norm_pow(u, 1) == 6.0
        assert lp_norm_pow(u, 2) == 18.0
        assert lp_norm(u, 2) == math.sqrt(18.0)

    def test_lp_norm_invalid_p(self):
        with pytest.raises(ValueError):
            lp_norm(StepFunction.indicator(0, 1), 0.5)

    def test_superlevel_measures(self):
        u = StepFunction([0, 1, 2, 4], [2.0, 0.0, 1.0])
        assert superlevel_measure(u, 0.0) == 3.0
        assert superlevel_measure(u, 1.0) == 1.0
        assert superlevel_measure(u, 2.0) == 0.0

    def test_lp_distance_self_is_zero(self):
        u = generators.random_step_function(random.Random(1))
        assert lp_distance(u, u, 1) == 0.0

    def test_lp_distance_disjoint_indicators(self):
        u = StepFunction.indicator(0, 1)
        v = StepFunction.indicator(2, 3)
        assert lp_distance(u, v, 1) == 2.0
        assert sup_distance(u, v) == 1.0

    def test_deviation_measure(self):
        u = StepFunction.indicator(0, 2, 1.0)
        v = StepFunction.indicator(0, 2, 1.005)
        assert deviation_measure(u, v, 0.01) == 0.0
        assert deviation_measure(u, v, 0.001) == 2.0
        with pytest.raises(ValueError):
            deviation_measure(u, v, 0.0)

    def test_deviation_measure_beyond_the_float_range_is_an_error(self):
        # u and u* differ by 0.5 on two cells of width 1e308
        u = StepFunction([6e307, 1.6e308], [0.5])
        with pytest.raises(ValueError, match="^deviation measure overflows "
                           "the float range$"):
            deviation_measure(u, rearrange(u), 0.01)


# The midpoint reads _abs_diff made before it read each cell at its left
# end, verbatim, with the masked lookup of evaluate_many of then; kept as
# the reference.
def masked_evaluate_many(u: StepFunction, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    b = u.breakpoints
    if b.size == 0:
        return np.zeros_like(xs)
    idx = np.searchsorted(b, xs, side="right") - 1
    inside = (idx >= 0) & (idx < u.values.size)
    out = np.zeros_like(xs)
    out[inside] = u.values[idx[inside]]
    return out


def midpoint_abs_diff(u: StepFunction, v: StepFunction):
    grid = step1d.merged_grid(u, v)
    if grid.size < 2:
        return np.empty(0), np.empty(0)
    mids = 0.5 * (grid[:-1] + grid[1:])
    return (np.abs(masked_evaluate_many(u, mids)
                   - masked_evaluate_many(v, mids)),
            np.diff(grid))


class TestMergedCells:
    @given(decision_states(), decision_states())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_midpoint_reads_where_they_lie_inside(self, u, v):
        grid = step1d.merged_grid(u, v)
        with np.errstate(over="ignore"):
            mids = 0.5 * (grid[:-1] + grid[1:])
        assume(np.all((grid[:-1] < mids) & (mids < grid[1:])))
        got, want = step1d._abs_diff(u, v), midpoint_abs_diff(u, v)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_subnormal_cell(self):
        # the midpoint of [5e-324, 1e-323) rounds onto its right end
        u = StepFunction([5e-324, 1e-323], [1.0])
        zero = StepFunction.zero()
        assert sup_distance(u, zero) == 1.0
        assert lp_distance(u, zero, 1) == 5e-324
        assert deviation_measure(u, zero, 0.5) == 5e-324
        assert product_integral(u, u) == 5e-324

    def test_cell_next_to_the_float_max(self):
        # lo + hi overflows here; the distance is the support's width
        u = StepFunction([1.5e308, 1.7e308], [1.0])
        assert lp_distance(u, StepFunction.zero(), 1) == 1.7e308 - 1.5e308

    # Supports near opposite ends of the float range: the cell between them
    # is wider than the largest double, and u = v = 0 on it.
    FAR_APART = (StepFunction([-1.7e308, -1.6e308], [1.0]),
                 StepFunction([1.6e308, 1.7e308], [1.0]))
    OUTER_WIDTHS = [-1.6e308 - -1.7e308, 1.7e308 - 1.6e308]

    def test_lp_distance_across_a_cell_wider_than_the_float_range(self):
        u, v = self.FAR_APART
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (1, 2):   # about 2e307 at either p
                assert (step1d.lp_distance_pow(u, v, p)
                        == math.fsum(self.OUTER_WIDTHS))

    def test_deviation_measure_across_a_cell_wider_than_the_float_range(
            self):
        u, v = self.FAR_APART
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (deviation_measure(u, v, 0.5)
                    == math.fsum(self.OUTER_WIDTHS))

    def test_zero_functions(self):
        zero = StepFunction.zero()
        assert [a.size for a in step1d._merged_cells(zero, zero)] == [0, 0, 0]
        assert sup_distance(zero, zero) == 0.0
        assert product_integral(zero, zero) == 0.0


class TestCsv:
    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(100):
            u = generators.random_step_function(rng)
            assert loads(dumps(u)) == u

    def test_zero_roundtrip(self):
        z = StepFunction.zero()
        assert loads(dumps(z)) == z
        assert dumps(z) == "breakpoint,value\n"

    def test_format_shape(self):
        text = dumps(StepFunction.indicator(1, 2))
        assert text == "breakpoint,value\n1,1\n2,\n"

    def test_file_roundtrip(self, tmp_path):
        from rearrange_lab.step1d import read_csv, write_csv
        u = generators.random_step_function(random.Random(12))
        p = tmp_path / "u.csv"
        write_csv(u, p)
        assert read_csv(p) == u

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            loads("wrong,header\n0,1\n1,\n")
        with pytest.raises(ParseError):
            loads("breakpoint,value\n0,1\n")           # missing final row
        with pytest.raises(ParseError):
            loads("breakpoint,value\n0,x\n1,\n")
        with pytest.raises(ParseError):
            loads("breakpoint,value\n0,-1\n1,\n")      # negative value
        with pytest.raises(ParseError):
            loads("breakpoint,value\n0,1\n1,\n2,3\n")  # empty value mid-table
