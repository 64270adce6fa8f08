import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rearrange_lab import generators
from rearrange_lab.errors import ParseError
from rearrange_lab.lattice import (
    ConvergenceError,
    LatticeFunction,
    dumps,
    lattice_lp_norm,
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
        with pytest.raises(ValueError):
            two_involution_scheme(LatticeFunction({0: 1.0}), max_sweeps=0)


class TestFunctionals:
    def test_lp_norm_preserved(self):
        rng = random.Random(6)
        for _ in range(100):
            u = generators.random_lattice_function(rng)
            out = polarize_involution(u, rng.randint(-10, 10))
            for p in (1.0, 2.0):
                assert lattice_lp_norm(out, p) == lattice_lp_norm(u, p)
            assert lattice_lp_norm(rearrange_lattice(u), 1.0) == \
                lattice_lp_norm(u, 1.0)

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
