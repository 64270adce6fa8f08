import math
import random
import re
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import (
    assume, example, given, reject, settings, strategies as st)

from rearrange_lab import generators
from rearrange_lab.errors import ParseError
from rearrange_lab import step1d
from rearrange_lab.analysis import product_integral
from rearrange_lab.halfspace import Halfspace, Schedule
from rearrange_lab.step1d import (
    StepFunction,
    _movers,
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
    which _movers takes them."""
    nu = np.array([h.normal[0] for h in halfspaces])
    return nu, nu * np.array([h.offset for h in halfspaces])


def movers(u, halfspaces):
    """The positions in halfspaces that _movers yields on u."""
    entries = [(1, 0, k) for k in range(len(halfspaces))]
    return [k for _, _, k in _movers(u, entries, *columns(halfspaces))]


def first_mover(u, halfspaces):
    """The first position movers yields; len(halfspaces) for none."""
    return next(iter(movers(u, halfspaces)), len(halfspaces))


def scalar_first_mover(u, halfspaces):
    """The first mover by one polarize call per halfspace; a mirror image of
    the support beyond the float range is left to polarize as a mover."""
    b = u.breakpoints.tolist()
    for i, h in enumerate(halfspaces):
        c2 = 2.0 * h.normal[0] * h.offset
        if b and (math.isinf(c2 - b[0]) or math.isinf(c2 - b[-1])):
            return i
        if polarize(u, h) is not u:
            return i
    return len(halfspaces)


# Dyadic eighths make repeats and exact mirror images common; the extremes
# reach overflow of the mirror images, and -0.0 and subnormal breakpoints.
EXTREME = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-20, 1e308, -1e308,
                           1.7e308, -1.7e308])
POINT = st.one_of(st.integers(-64, 64).map(lambda k: k / 8), EXTREME,
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def decision_states(draw):
    """A generator input, or one on arbitrary points, as drawn, after a few
    schedule steps, or rearranged, so that no-ops are common; or zero."""
    kind = draw(st.sampled_from(["generator", "points", "zero"]))
    if kind == "zero":
        return StepFunction.zero()
    if kind == "generator":
        u = generators.random_step_function(
            random.Random(draw(st.integers(0, 10**9))), span=1.0)
    else:
        b = sorted(draw(st.lists(POINT, min_size=2, max_size=8, unique=True)))
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
    @settings(max_examples=200, deadline=None)
    def test_yields_every_mover_in_order(self, u, halfspaces):
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

        def counting(b, padded, nu, c):
            rows.append(np.size(nu))   # one row per halfspace
            return kernel(b, padded, nu, c)

        monkeypatch.setattr(step1d, "_mirrored_cells", counting)
        halfspaces = Schedule(1, rho=1.0).first(40)
        assert movers(u, halfspaces) == scalar_movers(u, halfspaces)
        assert rows and max(rows) <= cap

    def test_zero_state_yields_nothing(self):
        halfspaces = [*Schedule(1, rho=0.1).first(20),
                      Halfspace.line(1, 1e308), Halfspace.line(-1, 1e308)]
        assert movers(StepFunction.zero(), halfspaces) == []

    def test_mirror_image_beyond_the_float_range(self):
        u = StepFunction.indicator(0, 1)
        noop = Halfspace.line(1, 0.5)
        for far in (Halfspace.line(1, 1e308), Halfspace.line(1, -1e308)):
            assert movers(u, [noop, far, noop]) == [1]

    @pytest.mark.parametrize("u, noop, far", [
        # only 2c - b0 overflows, at the largest c of the chunk
        (StepFunction.indicator(-1e308, 0), Halfspace.line(1, 0.5),
         Halfspace.line(1, 5e307)),
        # only 2c - b1 overflows, at the smallest c of the chunk
        (StepFunction.indicator(0, 1e308), Halfspace.line(-1, 0.5),
         Halfspace.line(-1, 5e307)),
    ])
    def test_mirror_image_beyond_the_float_range_at_one_end(self, u, noop,
                                                           far):
        halfspaces = [noop, far, noop]
        assert (first_mover(u, halfspaces)
                == scalar_first_mover(u, halfspaces) == 1)
        assert movers(u, halfspaces) == scalar_movers(u, halfspaces) == [1]


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


class TestKernelMatchesLookup:
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
    # one-ulp and subnormal cells that both drop, a known loss of data
    @example(StepFunction([1.0, 1.0000000000000002, 1.0000000000000004],
                          [2.0, 1.0]), Halfspace.line(1, -1))
    @example(StepFunction([1.5e-323, 2e-323], [2.0]), Halfspace.line(1, 0))
    @example(StepFunction([0, 5e-324], [2.0]), Halfspace.line(-1, -5e-324))
    # mirror images next to the float range's end, and beyond it
    @example(StepFunction([0.0, 1e300], [1.0]), Halfspace.line(1, -8.98e307))
    @example(StepFunction([-1e300, 0.0], [1.0]),
             Halfspace.line(-1, -8.98e307))
    @example(StepFunction([1e308, 1.7e308], [1.0]), Halfspace.line(1, 0.0))
    @example(StepFunction([0.0, 1.0], [1.0]), Halfspace.line(1, -1e308))
    def test_same_bytes_identity_and_errors(self, u, h):
        try:
            want = lookup_polarize(u, h)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                polarize(u, h)
            return
        got = polarize(u, h)
        assert (got is u) == (want is u)
        assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


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
