import math
import random

import pytest
from hypothesis import given, strategies as st

from rearrange_lab.errors import ParseError
from rearrange_lab.halfspace import (
    Halfspace,
    OriginPosition,
    Schedule,
    ScheduleKind,
    density_witness,
    halfspace_distance,
)


class TestHalfspace:
    def test_line_construction(self):
        h = Halfspace.line(1, 0.5)
        assert h.dimension == 1
        assert h.normal == (1.0,)
        assert h.offset == 0.5

    def test_plane_construction(self):
        h = Halfspace.plane(math.pi / 2, 0.25)
        assert h.dimension == 2
        assert abs(h.normal[0]) < 1e-15
        assert h.normal[1] == 1.0

    def test_bad_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace((2.0,), 0.5)
        with pytest.raises(ValueError):
            Halfspace((1.0, 1.0), 0.5)
        with pytest.raises(ValueError):
            Halfspace.line(0.5, 0.1)
        with pytest.raises(ValueError):
            Halfspace((1.0, 0.0, 0.0), 0.5)

    @pytest.mark.parametrize("build", [
        lambda: Halfspace.line(1, math.nan),
        lambda: Halfspace.line(-1, math.inf),
        lambda: Halfspace((math.nan,), 0.0),
        lambda: Halfspace((math.nan, 0.0), 0.5),
        lambda: Halfspace((1.0, 0.0), -math.inf),
        lambda: Halfspace((1.0, 0.0), 0.5, theta=math.nan),
        lambda: Halfspace.plane(math.nan, 0.5),
        lambda: Halfspace.plane(math.inf, 0.5),
        lambda: Halfspace.plane(0.5, math.nan),
    ])
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_classify(self):
        assert Halfspace.line(1, 0.5).classify() is OriginPosition.INTERIOR
        assert Halfspace.line(1, 0.0).classify() is OriginPosition.BOUNDARY
        assert Halfspace.line(-1, -0.5).classify() is OriginPosition.EXTERIOR

    def test_contains(self):
        h = Halfspace.line(1, 0.5)
        assert h.contains(0.5)
        assert h.contains(-3.0)
        assert not h.contains(0.6)
        h2 = Halfspace.plane(0.0, 1.0)     # {x <= 1}
        assert h2.contains((1.0, 5.0))
        assert not h2.contains((1.5, 0.0))

    def test_reflect_1d(self):
        h = Halfspace.line(1, 0.5)
        assert h.reflect(0.0) == (1.0,)
        assert h.reflect(0.5) == (0.5,)

    def test_reflect_is_involution_2d(self):
        rng = random.Random(3)
        for _ in range(200):
            h = Halfspace.plane(rng.uniform(0, 2 * math.pi),
                                rng.uniform(-2, 2))
            x = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            y = h.reflect(h.reflect(x))
            assert abs(y[0] - x[0]) < 1e-12
            assert abs(y[1] - x[1]) < 1e-12

    def test_reflect_fixes_boundary(self):
        h = Halfspace.plane(0.3, 0.7)
        # a boundary point: offset * normal
        x = (0.7 * h.normal[0], 0.7 * h.normal[1])
        y = h.reflect(x)
        assert abs(y[0] - x[0]) < 1e-15
        assert abs(y[1] - x[1]) < 1e-15

    def test_encode_parse_roundtrip_1d(self):
        h = Halfspace.line(-1, 0.75)
        assert Halfspace.parse(h.encode(), 1) == h

    @given(st.floats(0, 2 * math.pi, exclude_max=True, allow_nan=False),
           st.floats(-4, 4, allow_nan=False))
    def test_encode_parse_roundtrip_2d(self, theta, d):
        h = Halfspace.plane(theta, d)
        back = Halfspace.parse(h.encode(), 2)
        assert back.normal == h.normal
        assert back.offset == h.offset

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            Halfspace.parse("nu=2,d=0.5", 1)
        with pytest.raises(ParseError):
            Halfspace.parse("nonsense", 1)
        with pytest.raises(ParseError):
            Halfspace.parse("nu=1,d=0.5", 3)


class TestDistance:
    def test_identical_is_zero(self):
        h = Halfspace.plane(1.0, 0.5)
        assert halfspace_distance(h, h) == 0.0

    def test_opposite_normals_1d(self):
        d = halfspace_distance(Halfspace.line(1, 0.5), Halfspace.line(-1, 0.5))
        assert abs(d - math.pi) < 1e-15

    def test_2d_example(self):
        d = halfspace_distance(Halfspace.plane(0.0, 0.25),
                               Halfspace.plane(math.pi / 2, 0.5))
        assert abs(d - (math.pi / 2 + 0.25)) < 1e-12

    def test_symmetry(self):
        h1 = Halfspace.plane(0.2, 0.1)
        h2 = Halfspace.plane(2.2, 0.9)
        assert halfspace_distance(h1, h2) == halfspace_distance(h2, h1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            halfspace_distance(Halfspace.line(1, 0), Halfspace.plane(0, 0))


class TestSchedule:
    def test_first_three_1d(self):
        s = Schedule(dimension=1, rho=1.0)
        assert s.nth(1) == Halfspace.line(1, 0.5)
        assert s.nth(2) == Halfspace.line(-1, 0.5)
        assert s.nth(3) == Halfspace.line(1, 0.25)

    def test_offsets_positive_and_bounded(self):
        for rho in (1.0, 0.1, 0.3):
            s = Schedule(dimension=1, rho=rho)
            for h in s.first(500):
                assert 0 < h.offset <= rho

    def test_offsets_positive_and_bounded_2d(self):
        s = Schedule(dimension=2, rho=0.5)
        for h in s.first(500):
            assert 0 < h.offset <= 0.5

    def test_every_sign_offset_pair_appears_1d(self):
        s = Schedule(dimension=1, rho=1.0)
        seen = {(h.normal[0], h.offset) for h in s.first(60)}
        for sign in (1.0, -1.0):
            for off in (0.5, 0.25, 0.75, 0.125, 0.375):
                assert (sign, off) in seen

    def test_deterministic_across_instances(self):
        a = Schedule(dimension=2, rho=1.0)
        b = Schedule(dimension=2, rho=1.0)
        assert a.first(200) == b.first(200)

    def test_iter_matches_nth(self):
        s = Schedule(dimension=1, rho=1.0)
        from itertools import islice
        assert list(islice(iter(s), 25)) == s.first(25)

    def test_restricted_same_construction(self):
        full = Schedule(dimension=1, rho=0.1)
        restricted = Schedule(dimension=1, rho=0.1,
                              kind=ScheduleKind.RESTRICTED_DYADIC)
        assert full.first(100) == restricted.first(100)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            Schedule(dimension=3)
        with pytest.raises(ValueError):
            Schedule(dimension=1, rho=0.0)
        with pytest.raises(ValueError):
            Schedule(dimension=1).nth(0)


class TestDensityWitness:
    def test_exact_member_found_immediately(self):
        s = Schedule(dimension=1, rho=1.0)
        assert density_witness(s, Halfspace.line(1, 0.5), 1e-9, 100) == 1

    def test_example_witness(self):
        s = Schedule(dimension=1, rho=1.0)
        # (-1, 0.75) is the 6th entry, and nothing earlier is within 0.1
        assert density_witness(s, Halfspace.line(-1, 0.75), 0.1, 100) == 6

    def test_non_dyadic_offset_needs_fine_level(self):
        s = Schedule(dimension=1, rho=1.0)
        n = density_witness(s, Halfspace.line(1, 1.0 / 3.0), 0.01, 1000)
        assert n is not None
        got = s.nth(n)
        assert halfspace_distance(got, Halfspace.line(1, 1.0 / 3.0)) < 0.01

    def test_none_when_out_of_reach(self):
        s = Schedule(dimension=1, rho=1.0)
        assert density_witness(s, Halfspace.line(1, 5.0), 0.5, 1000) is None

    def test_2d_witness_valid(self):
        s = Schedule(dimension=2, rho=1.0)
        h = Halfspace.plane(1.234, 0.777)
        n = density_witness(s, h, 0.05, 50_000)
        assert n is not None
        assert halfspace_distance(s.nth(n), h) < 0.05

    def test_eps_must_be_positive(self):
        s = Schedule(dimension=1)
        with pytest.raises(ValueError):
            density_witness(s, Halfspace.line(1, 0.5), 0.0, 10)
