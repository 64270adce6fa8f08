import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rearrange_lab import halfspace
from rearrange_lab.errors import ParseError
from rearrange_lab.halfspace import (
    _TWO_PI,
    Halfspace,
    Schedule,
    _dyadic_level_count,
    _schedule_arrays,
    density_witness,
)


def halfspace_distance(h1: Halfspace, h2: Halfspace) -> float:
    """Angle between normals plus offset difference: the distance that
    density_witness measures, computed on its own."""
    if h1.dimension != h2.dimension:
        raise ValueError("halfspace dimensions differ")
    dot = sum(a * b for a, b in zip(h1.normal, h2.normal))
    angle = math.acos(min(1.0, max(-1.0, dot)))
    return angle + abs(h1.offset - h2.offset)


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


# The schedule by index, as it was enumerated before the one generator:
# each index walks the dyadic levels (and the Cantor diagonals) again.
def _dyadic_offset(rho: float, t: int) -> float:
    """t-th term (1-based) of the breadth-first dyadic offsets in (0, rho]."""
    if t < 1:
        raise ValueError("offset index must be >= 1")
    m = 1
    t0 = t - 1
    while True:
        count = _dyadic_level_count(rho, m)
        if t0 < count:
            return (2 * t0 + 1) / (1 << m)
        t0 -= count
        m += 1


def _dyadic_angle(a: int) -> float:
    """a-th term (1-based) of the breadth-first dyadic angles 2*pi*k/2**m."""
    if a < 1:
        raise ValueError("angle index must be >= 1")
    m = 1
    a0 = a - 1
    while True:
        count = 1 << m
        if a0 < count:
            return _TWO_PI * a0 / count
        a0 -= count
        m += 1


def _cantor_pair(n: int) -> tuple[int, int]:
    """n-th (1-based) pair (a, b), a, b >= 1, by diagonals a + b = const."""
    n0 = n - 1
    s = 2
    while n0 >= s - 1:
        n0 -= s - 1
        s += 1
    return n0 + 1, s - (n0 + 1)


def reference_nth(schedule, n):
    if schedule.dimension == 1:
        sign = 1.0 if n % 2 == 1 else -1.0
        return Halfspace.line(sign, _dyadic_offset(schedule.rho, (n + 1) // 2))
    a, b = _cantor_pair(n)
    return Halfspace.plane(_dyadic_angle(a), _dyadic_offset(schedule.rho, b))


class TestSchedule:
    def test_first_three_1d(self):
        s = Schedule(dimension=1, rho=1.0)
        assert s.nth(1) == Halfspace.line(1, 0.5)
        assert s.nth(2) == Halfspace.line(-1, 0.5)
        assert s.nth(3) == Halfspace.line(1, 0.25)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("rho", [2.0 ** -1022, 0.1, 1.0, 3.0, 2.0 ** 1022])
    def test_matches_the_reference_by_index(self, dimension, rho):
        s = Schedule(dimension=dimension, rho=rho)
        want = [reference_nth(s, n) for n in range(1, 301)]
        got = s.first(300)
        assert [(h.normal, h.offset, h.theta) for h in got] == [
            (h.normal, h.offset, h.theta) for h in want]
        for n in (1, 2, 3, 45, 46, 300):
            assert s.nth(n) == want[n - 1]
            assert s.nth(n).theta == want[n - 1].theta

    @pytest.mark.parametrize("rho", [2.0 ** -1022, 0.1, 1.0, 3.0, 2.0 ** 1022])
    def test_columns_match_the_reference_by_index(self, rho):
        # An odd count ends on the +1 entry of an offset.
        s = Schedule(dimension=1, rho=rho)
        signs, offsets = s._columns(5001)
        want = [reference_nth(s, n) for n in range(1, 5002)]
        assert signs.tolist() == [h.normal[0] for h in want]
        assert offsets.tolist() == [h.offset for h in want]
        angles, arrays_offsets = _schedule_arrays(s, 5001)
        assert angles.tolist() == [h.angle() for h in want]
        assert arrays_offsets.tolist() == offsets.tolist()
        for count in (0, 1, 2):
            assert s._columns(count)[1].tolist() == offsets[:count].tolist()

    @given(st.integers(0, 2 ** 52 - 1), st.integers(1, 1200))
    @example(0, 1075)   # half the smallest subnormal: rounds to even, 0
    @example(1, 1075)   # 3/2 of it: rounds up to 2**-1073
    def test_ldexp_rounds_as_the_division(self, k, m):
        # the columns scale 2k+1 by 2**-m with np.ldexp, the reference divides
        odd = 2 * k + 1
        want = odd / (1 << m)
        got = float(np.ldexp(np.array([float(odd)]), -m)[0])
        assert got == want and math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_first_counts_each_level_once(self, dimension, monkeypatch):
        levels = []

        def counted(rho, m):
            levels.append(m)
            return _dyadic_level_count(rho, m)

        monkeypatch.setattr(halfspace, "_dyadic_level_count", counted)
        Schedule(dimension=dimension, rho=0.1).first(200)
        assert levels == list(range(1, len(levels) + 1))

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

    @pytest.mark.parametrize("rho", [math.inf, math.nan, 0.0, -1.0, 1e308,
                                     2.0 ** 1023, 1e-320, 2.0 ** -1023])
    def test_rho_outside_the_range_rejected(self, rho):
        with pytest.raises(ValueError, match=re.escape("[2**-1022, 2**1023)")):
            Schedule(dimension=1, rho=rho)

    def test_rho_range_ends_reach_fine_levels(self):
        # No level count overflows, even well past the first nonempty level.
        low = Schedule(dimension=1, rho=2.0 ** -1022)
        assert 0 < low.nth(4001).offset <= 2.0 ** -1022
        high = Schedule(dimension=2, rho=math.nextafter(2.0 ** 1023, 0))
        assert 0 < high.nth(50).offset <= high.rho

    @given(st.floats(2.0 ** -1022, 2.0 ** 1023, exclude_max=True),
           st.integers(0, 10 ** 5))
    @example(2.0 ** -1022, 10 ** 5)
    @example(math.nextafter(2.0 ** 1023, 0), 10 ** 5)
    @example(1e-300, 1)
    @settings(max_examples=60, deadline=None)
    def test_boundary_points_mirror_every_double_finitely(self, rho, count):
        """step1d._first_mover's precondition holds on every schedule:
        each boundary point c = sign * offset of the first count entries
        has |c| <= min(rho, count/2 + 1), so that the mirror image 2c - b
        of every double b is finite."""
        signs, offsets = Schedule(1, rho=rho)._columns(count)
        c = signs * offsets
        assert (np.abs(c) <= min(rho, count / 2 + 1)).all()
        largest = 1.7976931348623157e308
        with np.errstate(over="ignore"):
            assert np.isfinite(2.0 * c + largest).all()
            assert np.isfinite(2.0 * c - largest).all()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            Schedule(dimension=3)
        with pytest.raises(ValueError):
            Schedule(dimension=1, rho=0.0)
        with pytest.raises(ValueError):
            Schedule(dimension=1).nth(0)
        # the columns reject a count as first does
        s = Schedule(dimension=1)
        for count in (-1, 2.5):
            for take in (s.first, s._columns,
                         lambda n: density_witness(s, Halfspace.line(1, 0.5),
                                                   0.1, n)):
                with pytest.raises(ValueError):
                    take(count)


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
