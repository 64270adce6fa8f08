import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rearrange_lab import generators, step1d
from rearrange_lab.analysis import (
    RadialWeight,
    cavalieri_gap,
    contraction_gap,
    converge_restricted,
    converge_scheme,
    hardy_littlewood_gap,
    polarization_gap,
    product_integral,
    weighted_mass,
)
from rearrange_lab.grid2d import GridFunction, grid_lp_distance
from rearrange_lab.halfspace import Halfspace, Schedule
from rearrange_lab.lattice import LatticeFunction, rank, spiral_weighted_mass
from rearrange_lab.series import ConvergenceSeries, finite
from rearrange_lab.step1d import (StepFunction, lp_distance_pow, lp_norm,
                                  lp_norm_pow, polarize, rearrange)


class TestRadialWeight:
    def test_gaussian_values(self):
        w = RadialWeight.gaussian()
        assert w.radius is None
        assert w.antiderivative(0.0) == 0.0
        assert w.antiderivative(2.0) == 0.5 * math.sqrt(math.pi) * math.erf(2.0)
        assert w.antiderivative(-2.0) == -w.antiderivative(2.0)
        # the whole line has mass sqrt(pi)
        assert w.antiderivative(40.0) == 0.5 * math.sqrt(math.pi)

    def test_triangular_values(self):
        w = RadialWeight.triangular(4.0)
        assert w.antiderivative(0.0) == 0.0
        assert w.antiderivative(3.0) == 7.5    # integral of 4 - x over [0, 3]
        # the weight is 0 from the radius on
        assert w.antiderivative(5.0) == w.antiderivative(4.0) == 8.0
        for radius in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite radius"):
                RadialWeight.triangular(radius)

    def test_antiderivative_is_odd_and_consistent(self):
        for w, density in [
                (RadialWeight.gaussian(), lambda x: math.exp(-x * x)),
                (RadialWeight.triangular(3.0), lambda x: max(0.0, 3.0 - abs(x)))]:
            for x in (0.1, 0.7, 2.5, 4.0):
                assert w.antiderivative(-x) == -w.antiderivative(x)
                # numeric derivative check
                d = (w.antiderivative(x + 1e-6) - w.antiderivative(x - 1e-6)) / 2e-6
                assert abs(d - density(x)) < 1e-5

    def test_encode_parse(self):
        for w in (RadialWeight.gaussian(), RadialWeight.triangular(2.5)):
            assert RadialWeight.parse(w.encode()) == w
        with pytest.raises(ValueError):
            RadialWeight.parse("boxcar")


# The overflow rule of the single-state sums before they computed quietly
# and checked with series.finite, verbatim; the reference of the tests here
# and in test_scheme_driver.
def finite_result(compute, what: str) -> float:
    """compute(), or ValueError naming `what` when the result, or a step on
    the way to it, leaves the float range.  A numpy overflow raises here
    instead of warning, as do Python's float power and math.fsum."""
    try:
        with np.errstate(over="raise"):
            total = compute()
    except (OverflowError, FloatingPointError):
        total = math.inf
    return finite(total, what)


def per_breakpoint_mass(u, w):
    """weighted_mass by one RadialWeight.antiderivative call per
    breakpoint, summed over Python floats."""
    f = [w.antiderivative(x) for x in u.breakpoints.tolist()]
    return finite_result(lambda: math.fsum(
        v * (hi - lo) for v, lo, hi in zip(u.values.tolist(), f, f[1:])),
        "weighted mass")


def outcome(f, *args):
    """f(*args) as its exact bits (the sign of zero included), or its
    ValueError."""
    try:
        return f(*args).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


# Signed zeros, subnormals, dyadics, near the float max, inside and
# around a moderate radius, and any finite.
POINT = st.one_of(
    st.integers(-64, 64).map(lambda k: k / 8),
    st.floats(-40.0, 40.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e154, 1e200,
                     -1e200, 1e308, -1e308, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False))
VALUE = st.one_of(st.integers(0, 3).map(float),
                  st.sampled_from([5e-324, 1e300, 1e308, 1.7e308]),
                  st.floats(0, 1.7e308))
WEIGHT = st.one_of(
    st.just(RadialWeight.gaussian()),
    st.builds(RadialWeight.triangular, st.one_of(
        st.sampled_from([16.0, 4.0, 5e-324, 1e154, 1e200, 1.7e308]),
        st.floats(0.5, 32.0), st.floats(5e-324, 1.7e308))))


class TestWeightedMass:
    def test_triangular_exact(self):
        # 1 on [1,2) against max(0, 4-|x|): integral = 4 - 3/2
        u = StepFunction.indicator(1, 2)
        assert weighted_mass(u, RadialWeight.triangular(4.0)) == 2.5

    def test_gaussian_symmetric_interval(self):
        u = StepFunction.indicator(-1, 1)
        want = math.sqrt(math.pi) * math.erf(1.0)
        assert abs(weighted_mass(u, RadialWeight.gaussian()) - want) < 1e-15

    def test_zero(self):
        assert weighted_mass(StepFunction.zero(), RadialWeight.gaussian()) == 0.0

    @given(st.lists(POINT, min_size=2, max_size=8, unique=True),
           st.lists(VALUE, min_size=7, max_size=7), WEIGHT)
    @example([0.0, 1.0], [1e308] * 7, RadialWeight.triangular(16.0))
    @example([-0.0, 5e-324, 1.0], [1.0] * 7, RadialWeight.triangular(1e200))
    @example([-1e308, 0.0, 5e307], [1.0] * 7, RadialWeight.triangular(1.7e308))
    @example([-2.0, 0.0, 2.0], [1.0] * 7, RadialWeight.triangular(1.7e308))
    @example([-3.0, -0.0, 2.0], [1.0, 2.0] * 4, RadialWeight.gaussian())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_breakpoint_formula(self, points, values, w):
        """Bit for bit, or the same ValueError, as one antiderivative call
        per breakpoint and a sum over Python floats."""
        b = sorted(points)
        assume(all(x < y for x, y in zip(b, b[1:])))
        assume(math.isfinite(b[-1] - b[0]))
        u = StepFunction(b, values[:len(b) - 1])
        assert outcome(weighted_mass, u, w) == outcome(per_breakpoint_mass,
                                                       u, w)


# The single-state sums' formulas, each through finite_result.
def old_lp_norm_pow(u, p):
    distinct, totals = step1d._grouped_lengths(u)
    return finite_result(lambda: math.fsum(
        (distinct if p == 1 else distinct ** p) * totals), "L^p norm")


def old_lp_distance_pow(u, v, p):
    diff, widths = step1d._abs_diff(u, v)
    return finite_result(lambda: math.fsum(
        (diff if p == 1 else diff ** p) * widths), "L^p distance")


def old_spiral_weighted_mass(u):
    return finite_result(lambda: math.fsum(
        v / (1 + rank(x)) for x, v in u._values.items()), "spiral weighted mass")


def old_grid_lp_distance(u, v, p):
    diff = np.abs(u.values - v.values)
    return finite_result(lambda: (math.fsum((diff ** p).ravel())
                                  * (u.h * u.h)) ** (1.0 / p), "L^p error")


# Values from the smallest subnormal to the float max; breakpoints whose
# merged grids have finite cell widths.
POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1.0, 1e154, 1e200, 1e300, 1e308,
                     1.7e308, sys.float_info.max]),
    st.floats(5e-324, sys.float_info.max))
BREAKPOINTS = st.lists(st.one_of(st.integers(-16, 16).map(lambda k: k / 4),
                                 st.floats(-8e307, 8e307)),
                       min_size=2, max_size=6, unique=True).map(sorted)


@st.composite
def positive_step_functions(draw):
    b = draw(BREAKPOINTS)
    return StepFunction(b, draw(st.lists(POSITIVE, min_size=len(b) - 1,
                                         max_size=len(b) - 1)))


@settings(max_examples=300, deadline=None)
@example(u=StepFunction([3, 4], [1e200]), v=StepFunction([3, 4], [1.0]),
         sites={10 ** 400: 1.0}, grids=[1e200] + [0.0] * 17, h=0.5, p=2.0)
@given(u=positive_step_functions(), v=positive_step_functions(),
       sites=st.dictionaries(st.integers(-40, 40), POSITIVE, max_size=8),
       grids=st.lists(POSITIVE, min_size=18, max_size=18),
       h=st.sampled_from([0.5, 1.0, 3.0, 1e100, 1e154]),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_single_state_sums_match_their_formulas_through_finite_result(
        u, v, sites, grids, h, p):
    """lp_norm_pow, lp_distance_pow, spiral_weighted_mass and
    grid_lp_distance give the bits, or the ValueError, of their formulas
    through finite_result, and no warning."""
    g, k = (GridFunction(1, h, np.reshape(x, (3, 3)))
            for x in (grids[:9], grids[9:]))
    lattice = LatticeFunction(sites)
    for new, old, args in [(lp_norm_pow, old_lp_norm_pow, (u, p)),
                           (lp_distance_pow, old_lp_distance_pow, (u, v, p)),
                           (spiral_weighted_mass, old_spiral_weighted_mass,
                            (lattice,)),
                           (grid_lp_distance, old_grid_lp_distance,
                            (g, k, p))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(new, *args)
        assert got == outcome(old, *args)


class TestGaps:
    def test_cavalieri_zero_on_dyadic(self):
        rng = random.Random(1)
        for _ in range(300):
            u = generators.random_step_function(rng)
            for p in (1.0, 2.0, 3.0):
                assert cavalieri_gap(u, p) < 1e-12

    def test_hardy_littlewood_nonnegative(self):
        rng = random.Random(2)
        for _ in range(300):
            u = generators.random_step_function(rng)
            v = generators.random_step_function(rng)
            assert hardy_littlewood_gap(u, v) >= -1e-12

    def test_contraction_nonnegative(self):
        rng = random.Random(3)
        for _ in range(300):
            u = generators.random_step_function(rng)
            v = generators.random_step_function(rng)
            for p in (1.0, 2.0, 3.0):
                assert contraction_gap(u, v, p) >= -1e-12

    def test_polarization_gap_nonnegative_origin_inside(self):
        rng = random.Random(4)
        w = RadialWeight.gaussian()
        for _ in range(300):
            u = generators.random_step_function(rng)
            h = generators.random_halfspace_1d(rng)
            assert polarization_gap(u, h, w) >= -1e-12

    def test_polarization_gap_can_be_negative_origin_outside(self):
        # mass concentrates toward the reflection center, away from 0
        u = StepFunction.indicator(1, 2)
        h = Halfspace.line(-1, -3.0)   # {x >= 3}
        assert polarization_gap(u, h, RadialWeight.gaussian()) < 0

    def test_equality_characterization(self):
        rng = random.Random(5)
        w = RadialWeight.gaussian()
        for _ in range(300):
            u = generators.random_step_function(rng, span=4.0)
            h = generators.random_halfspace_1d(rng)
            if h.offset == 0.0:
                continue
            gap = polarization_gap(u, h, w)
            changed = polarize(u, h) != u
            assert changed == (gap > 1e-12)

    def test_product_integral(self):
        u = StepFunction.indicator(0, 2, 3.0)
        v = StepFunction.indicator(1, 4, 2.0)
        assert product_integral(u, v) == 6.0

    def test_product_integral_beyond_the_float_range_is_an_error(self):
        # 1e200 * 1e200 on [0, 1)
        u = StepFunction([0, 1], [1e200])
        v = StepFunction([0, 2], [1e200])
        for f in (product_integral, hardy_littlewood_gap):
            with pytest.raises(ValueError, match="^product integral "
                               "overflows the float range$"):
                f(u, v)

    def test_product_integral_across_a_cell_wider_than_the_float_range(self):
        # the cell between the supports is wider than the largest double,
        # and u = v = 0 on it, so its term is 0
        u = StepFunction([-1.7e308, -1.6e308], [1.0])
        v = StepFunction([1.6e308, 1.7e308], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert product_integral(u, v) == 0.0
            assert product_integral(u, u) == -1.6e308 - -1.7e308


class TestConvergeScheme:
    def test_indicator_run_matches_known_profile(self):
        series = converge_scheme(StepFunction.indicator(1, 2))
        assert series[0].n == 0
        assert series[0].lp_error == 2.0
        assert series.final.lp_error == 0.0

    def test_norm_constant_and_mass_monotone(self):
        u = generators.random_step_function(random.Random(6), span=1.0)
        series = converge_scheme(u, n_max=40)
        masses = series.weighted_masses()
        assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))

    def test_invariant_input_has_all_zero_errors(self):
        u = rearrange(generators.random_step_function(random.Random(7)))
        series = converge_scheme(u, n_max=15)
        assert all(r.lp_error == 0.0 for r in series)

    def test_reversed_order_also_converges(self):
        u = generators.random_step_function(random.Random(8), span=1.0)
        series = converge_scheme(u, n_max=60, order="reversed")
        assert series.final.lp_error < 1e-3 * lp_norm(u, 1)

    def test_zero_function(self):
        series = converge_scheme(StepFunction.zero(), n_max=5)
        assert all(r.lp_error == 0.0 for r in series)

    def test_restricted_variant_converges(self):
        u = StepFunction.indicator(1, 2)
        series = converge_restricted(u, rho=0.1, n_max=200)
        assert series.final.lp_error < 1e-2 * lp_norm(u, 1)

    def test_bad_args(self):
        u = StepFunction.indicator(0, 1)
        with pytest.raises(ValueError):
            converge_scheme(u, n_max=0)
        with pytest.raises(ValueError):
            converge_scheme(u, n_max=-3)
        with pytest.raises(ValueError):
            converge_scheme(u, n_max=2.5)
        with pytest.raises(ValueError):
            converge_scheme(u, order="random")
        with pytest.raises(ValueError):
            converge_scheme(u, schedule=Schedule(dimension=2))


class TestSeriesCsv:
    def test_roundtrip(self):
        u = generators.random_step_function(random.Random(9), span=1.0)
        series = converge_scheme(u, n_max=10)
        assert ConvergenceSeries.loads(series.dumps()) == series

    def test_file_roundtrip(self, tmp_path):
        series = converge_scheme(StepFunction.indicator(1, 2), n_max=5)
        p = tmp_path / "series.csv"
        series.write_csv(p)
        assert ConvergenceSeries.read_csv(p) == series

    def test_parse_errors(self):
        from rearrange_lab.errors import ParseError
        with pytest.raises(ParseError):
            ConvergenceSeries.loads("nope\n")
        with pytest.raises(ParseError):
            ConvergenceSeries.loads(
                "n,lp_error,weighted_mass,sup_error,deviation_measure\n1,2\n")
