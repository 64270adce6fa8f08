import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from rearrange_lab import generators
from rearrange_lab.errors import ParseError
from rearrange_lab.lattice import (
    ConvergenceError,
    LatticeFunction,
    dumps,
    loads,
    polarize_involution,
    rank,
    rearrange_lattice,
    schedule_scheme_lattice,
    site_of_rank,
    spiral_sites,
    spiral_weighted_mass,
    two_involution_scheme,
)


class TestSpiralOrder:
    def test_first_sites(self):
        assert spiral_sites(7) == [0, 1, -1, 2, -2, 3, -3]

    def test_rank_is_bijection(self):
        sites = range(-500, 501)
        ranks = [rank(x) for x in sites]
        assert len(set(ranks)) == len(ranks)
        assert all(site_of_rank(r) == x for x, r in zip(sites, ranks))

    def test_rank_examples(self):
        assert rank(0) == 0
        assert rank(1) == 1
        assert rank(-1) == 2
        assert rank(2) == 3

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            site_of_rank(-1)


class TestLatticeFunction:
    def test_zero_values_dropped(self):
        u = LatticeFunction({3: 0.0, 1: 2.0})
        assert u.support() == [1]
        assert u.value(3) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatticeFunction({0: -1.0})
        with pytest.raises(ValueError):
            LatticeFunction({0: float("inf")})

    def test_equality(self):
        assert LatticeFunction({1: 2.0}) == LatticeFunction([(1, 2.0), (5, 0.0)])

    @pytest.mark.parametrize("sites", [{0.5: 1.0, 2.9: 3.0}, {2.0: 1.0},
                                       {"3": 1.0}])
    def test_non_integer_site_rejected(self, sites):
        # int() would truncate 0.5 and 2.9 to the sites 0 and 2
        with pytest.raises(TypeError):
            LatticeFunction(sites)

    @pytest.mark.parametrize("pairs", [
        [(1, 2.0), (1, 3.0)], [(1, 2.0), (1, 0.0)], [(1, 0.0), (1, 2.0)],
    ])
    def test_repeated_site_rejected(self, pairs):
        with pytest.raises(ValueError, match="site 1"):
            LatticeFunction(pairs)


class TestRearrange:
    def test_sort_and_assign(self):
        u = LatticeFunction({3: 5.0, -1: 2.0, 0: 1.0})
        assert rearrange_lattice(u) == LatticeFunction({0: 5.0, 1: 2.0, -1: 1.0})

    def test_idempotent_on_sorted(self):
        u = LatticeFunction({0: 9.0, 1: 4.0, -1: 4.0, 2: 1.0})
        assert rearrange_lattice(u) == u

    def test_zero(self):
        assert rearrange_lattice(LatticeFunction()).is_zero

    def test_multiset_preserved(self):
        rng = random.Random(2)
        for _ in range(200):
            u = generators.random_lattice_function(rng)
            assert rearrange_lattice(u).sorted_values() == u.sorted_values()


class TestPolarizeInvolution:
    def test_reflection_moves_to_smaller_rank(self):
        assert polarize_involution(LatticeFunction({-2: 7.0}), 0) == \
            LatticeFunction({2: 7.0})

    def test_orbit_swap(self):
        u = LatticeFunction({1: 3.0, -1: 5.0})
        assert polarize_involution(u, 0) == LatticeFunction({1: 5.0, -1: 3.0})

    def test_spiral_nonincreasing_unchanged(self):
        u = LatticeFunction({0: 5.0, 1: 3.0, -1: 2.0})
        for c in range(-5, 6):
            assert polarize_involution(u, c) is u

    def test_non_integer_center_rejected(self):
        with pytest.raises(TypeError):
            polarize_involution(LatticeFunction({1: 3.0, -2: 5.0}), 0.5)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(200):
            u = generators.random_lattice_function(rng)
            c = rng.randint(-10, 10)
            once = polarize_involution(u, c)
            assert polarize_involution(once, c) is once

    def test_definitional_oracle(self):
        rng = random.Random(4)
        for _ in range(200):
            u = generators.random_lattice_function(rng)
            c = rng.randint(-10, 10)
            out = polarize_involution(u, c)
            for x in set(u.support()) | set(out.support()):
                y = c - x
                if x == y:
                    assert out.value(x) == u.value(x)
                    continue
                first, second = (x, y) if rank(x) < rank(y) else (y, x)
                hi = max(u.value(x), u.value(y))
                lo = min(u.value(x), u.value(y))
                assert out.value(first) == hi
                assert out.value(second) == lo

    def test_multiset_preserved(self):
        rng = random.Random(5)
        for _ in range(200):
            u = generators.random_lattice_function(rng)
            out = polarize_involution(u, rng.randint(-10, 10))
            assert out.sorted_values() == u.sorted_values()


class TestTwoInvolutionScheme:
    def test_single_site_walk(self):
        fixed, sweeps = two_involution_scheme(LatticeFunction({5: 1.0}))
        assert fixed == LatticeFunction({0: 1.0})
        # the walk 5 -> -4 -> 4 -> ... -> 0 takes 9 effective single steps
        # over 5 sweeps, plus one detection sweep
        assert sweeps == 6

    def test_already_symmetric(self):
        fixed, sweeps = two_involution_scheme(LatticeFunction({0: 1.0}))
        assert fixed == LatticeFunction({0: 1.0})
        assert sweeps == 1

    def test_fixed_point_is_rearrangement(self):
        u = LatticeFunction({3: 5.0, -1: 2.0, 0: 1.0})
        fixed, _ = two_involution_scheme(u)
        assert fixed == rearrange_lattice(u)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ConvergenceError):
            two_involution_scheme(LatticeFunction({40: 1.0}), max_sweeps=3)
        with pytest.raises(ConvergenceError):   # one below the derived budget
            two_involution_scheme(LatticeFunction({5: 1.0}), max_sweeps=5)
        with pytest.raises(ValueError):
            two_involution_scheme(LatticeFunction({0: 1.0}), max_sweeps=0)


def lp_norm(u: LatticeFunction, p: float) -> float:
    return math.fsum(v ** p for v in u.sorted_values()) ** (1.0 / p)


class TestFunctionals:
    def test_lp_norm_preserved(self):
        rng = random.Random(6)
        for _ in range(100):
            u = generators.random_lattice_function(rng)
            out = polarize_involution(u, rng.randint(-10, 10))
            for p in (1.0, 2.0):
                assert lp_norm(out, p) == lp_norm(u, p)
            assert lp_norm(rearrange_lattice(u), 1.0) == lp_norm(u, 1.0)

    def test_weighted_mass_monotone(self):
        rng = random.Random(7)
        for _ in range(200):
            u = generators.random_lattice_function(rng)
            out = polarize_involution(u, rng.randint(-10, 10))
            assert spiral_weighted_mass(out) >= spiral_weighted_mass(u)

    def test_weighted_mass_value(self):
        u = LatticeFunction({0: 1.0, 1: 1.0, -1: 1.0})
        assert math.isclose(spiral_weighted_mass(u), 1 + 0.5 + 1 / 3)


# Unlike the generators: values that are not small integers, and sites and
# centers far beyond +-60.
SITE = st.one_of(st.integers(-60, 60), st.integers(-10**20, 10**20))
VALUE = st.floats(min_value=0, allow_infinity=False)
# The spiral mass rounds each term, so a swap of values an ulp apart can
# lower it by an ulp of a term; below 1e3 that stays under the 1e-12
# tolerance of the scheme's invariant check.
MASS_VALUE = st.floats(min_value=0, max_value=1e3)


def lattice_functions(sites=SITE, values=VALUE):
    return st.dictionaries(sites, values, max_size=12).map(LatticeFunction)


def centers(u: LatticeFunction):
    """Any center, or one that pairs two support sites."""
    sums = [x + y for x in u.support() for y in u.support()]
    return st.one_of(st.integers(-2 * 10**20, 2 * 10**20),
                     *([st.sampled_from(sums)] if sums else []))


class TestProperties:
    @given(lattice_functions(), st.data())
    @settings(deadline=None)
    def test_polarization_idempotent_and_equimeasurable(self, u, data):
        c = data.draw(centers(u))
        once = polarize_involution(u, c)
        assert polarize_involution(once, c) is once
        assert once.sorted_values() == u.sorted_values()

    @given(lattice_functions(values=MASS_VALUE), st.data())
    @settings(deadline=None)
    def test_polarization_never_lowers_spiral_mass(self, u, data):
        c = data.draw(centers(u))
        out = polarize_involution(u, c)
        assert spiral_weighted_mass(out) >= spiral_weighted_mass(u) - 1e-12

    # Sites within +-300: the scheme needs about max|site| sweeps.
    @given(lattice_functions(sites=st.integers(-300, 300)))
    @settings(deadline=None)
    def test_two_involution_fixed_point_is_the_rearrangement(self, u):
        fixed, _ = two_involution_scheme(u)
        assert fixed == rearrange_lattice(u)

    # A single site at rank R is the slowest input for its R, so mix those
    # in; the explicit budget keeps the check apart from the default one.
    @given(st.one_of(lattice_functions(sites=st.integers(-300, 300)),
                     st.integers(-300, 300).map(
                         lambda x: LatticeFunction({x: 1.0}))))
    @settings(deadline=None)
    def test_sweeps_within_the_derived_bound(self, u):
        top = max(map(rank, u.support()), default=0)
        _, sweeps = two_involution_scheme(u, max_sweeps=10_000)
        assert sweeps <= math.ceil((top + 1) / 2) + 1


def reference_polarize_involution(u: LatticeFunction,
                                  c: int) -> LatticeFunction:
    """The dict loop polarize_involution replaced: it copies the dict,
    visits every orbit of the support once through a seen set, rewrites
    both sites, and returns u when the result compares equal to it."""
    c = operator.index(c)
    values = dict(u._values)
    seen = set()
    for x in list(values):
        if x in seen:
            continue
        y = c - x
        seen.add(x)
        seen.add(y)
        if x == y:
            continue
        a = values.get(x, 0.0)
        b = values.get(y, 0.0)
        first, second = (x, y) if rank(x) < rank(y) else (y, x)
        hi, lo = (a, b) if a >= b else (b, a)
        for site, val in ((first, hi), (second, lo)):
            if val > 0:
                values[site] = val
            else:
                values.pop(site, None)
    if values == u._values:
        return u
    return LatticeFunction(values)


def reference_two_involution_scheme(u: LatticeFunction, max_sweeps=10_000):
    current = u
    for sweep in range(1, max_sweeps + 1):
        step = reference_polarize_involution(
            reference_polarize_involution(current, 0), 1)
        if step == current:
            return current, sweep
        current = step
    raise ConvergenceError(f"no fixed point within {max_sweeps} sweeps")


class TestReference:
    @given(lattice_functions(), st.data())
    @settings(deadline=None)
    def test_polarization_matches_the_reference(self, u, data):
        c = data.draw(centers(u))
        out = polarize_involution(u, c)
        ref = reference_polarize_involution(u, c)
        assert out == ref
        assert (out is u) == (ref is u)

    @given(lattice_functions(sites=st.integers(-300, 300)))
    @settings(deadline=None)
    def test_scheme_matches_the_reference(self, u):
        assert two_involution_scheme(u) == reference_two_involution_scheme(u)


class TestScheduleScheme:
    def test_invariant_input_has_zero_errors(self):
        u = rearrange_lattice(LatticeFunction({4: 3.0, -7: 1.0}))
        series = schedule_scheme_lattice(u, spiral_sites(10), n_max=10)
        assert all(r.lp_error == 0.0 for r in series)

    def test_reaches_zero_at_finite_n(self):
        series = schedule_scheme_lattice(LatticeFunction({5: 1.0}),
                                         spiral_sites(30), n_max=30)
        assert series.final.lp_error == 0.0
        assert series[0].n == 0

    def test_zero_function(self):
        series = schedule_scheme_lattice(LatticeFunction(), spiral_sites(5),
                                         n_max=5)
        assert all(r.lp_error == 0.0 for r in series)

    def test_needs_enough_centers(self):
        with pytest.raises(ValueError):
            schedule_scheme_lattice(LatticeFunction({1: 1.0}), [0, 1], n_max=5)


class TestCsv:
    def test_roundtrip(self):
        rng = random.Random(8)
        for _ in range(100):
            u = generators.random_lattice_function(rng)
            assert loads(dumps(u)) == u

    def test_format(self):
        assert dumps(LatticeFunction({2: 7.0})) == "site,value\n2,7\n"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            loads("breakpoint,value\n")
        with pytest.raises(ParseError):
            loads("site,value\n1,2,3\n")
        with pytest.raises(ParseError):
            loads("site,value\n1,-2\n")
        with pytest.raises(ParseError):
            loads("site,value\n1,2\n1,3\n")
