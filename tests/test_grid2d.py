import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rearrange_lab import generators, grid2d
from rearrange_lab.errors import ParseError
from rearrange_lab.grid2d import (
    Axis,
    GridFitError,
    GridFunction,
    HyperplaneKind,
    LatticeHyperplane,
    dumps,
    gaussian_cell_mass,
    grid_lp_distance,
    loads,
    mixed_schedule,
    polarize_grid_exact,
    polarize_grid_interp,
    rearrange_grid,
    steiner_rows,
)


class TestLatticeHyperplane:
    def test_axis_offsets_half_integer(self):
        LatticeHyperplane(HyperplaneKind.X, 0.5)
        LatticeHyperplane(HyperplaneKind.Y, -2.0)
        with pytest.raises(ValueError):
            LatticeHyperplane(HyperplaneKind.X, 0.25)
        with pytest.raises(ValueError):
            LatticeHyperplane(HyperplaneKind.Y, float("inf"))
        with pytest.raises(ValueError):
            LatticeHyperplane(HyperplaneKind.X, 8.98846567431158e307)

    def test_diagonal_offsets_integer(self):
        LatticeHyperplane(HyperplaneKind.DIAG_UP, 3)
        with pytest.raises(ValueError):
            LatticeHyperplane(HyperplaneKind.DIAG_DOWN, 0.5)

    def test_far_diagonal_reflects_without_overflow(self):
        # A diagonal reflection needs round(s), not round(2*s), which
        # overflows for an offset this far out.
        for s in (1e308, -1e308):
            far = int(s)
            hp = LatticeHyperplane(HyperplaneKind.DIAG_UP, s)
            assert hp.reflect_index(0, 0) == (far, far)
            assert hp.reflect_index(far, far) == (0, 0)
            assert hp.contains_index(0, 0) == (s > 0)
            hp = LatticeHyperplane(HyperplaneKind.DIAG_DOWN, s)
            assert hp.reflect_index(0, 0) == (far, -far)
            assert hp.reflect_index(far, -far) == (0, 0)
            assert hp.contains_index(0, 0) == (s > 0)

    def test_reflections_are_integer_involutions(self):
        rng = random.Random(1)
        for _ in range(300):
            hp = generators.random_lattice_hyperplane(rng)
            i, j = rng.randint(-8, 8), rng.randint(-8, 8)
            ri, rj = hp.reflect_index(i, j)
            assert isinstance(ri, int) and isinstance(rj, int)
            assert hp.reflect_index(ri, rj) == (i, j)

    def test_reflection_swaps_sides(self):
        rng = random.Random(2)
        for _ in range(300):
            hp = generators.random_lattice_hyperplane(rng)
            i, j = rng.randint(-8, 8), rng.randint(-8, 8)
            ri, rj = hp.reflect_index(i, j)
            if (i, j) != (ri, rj):
                assert hp.contains_index(i, j) != hp.contains_index(ri, rj)

    def test_encode_parse_roundtrip(self):
        for hp in (LatticeHyperplane(HyperplaneKind.X, 1.5),
                   LatticeHyperplane(HyperplaneKind.DIAG_DOWN, -2)):
            assert LatticeHyperplane.parse(hp.encode()) == hp
        with pytest.raises(ParseError):
            LatticeHyperplane.parse("dir=Q,s=1")

    def test_as_halfspace_consistent(self):
        hp = LatticeHyperplane(HyperplaneKind.X, 1.5)
        h = hp.as_halfspace(0.5)
        nx, ny = h.normal
        assert 0.75 * nx + 3.0 * ny <= h.offset
        assert not 1.0 * nx + 0.0 * ny <= h.offset


# Each kind's in-H test and reflection written out, as in the
# HyperplaneKind comments, and each kind's physical halfspace as it was
# built case by case: the one rule of LatticeHyperplane must agree with
# them cell by cell and bit by bit.
SPELLED_OUT = {
    HyperplaneKind.X: lambda i, j, s: (i <= s, (2 * s - i, j)),
    HyperplaneKind.Y: lambda i, j, s: (j <= s, (i, 2 * s - j)),
    HyperplaneKind.DIAG_UP: lambda i, j, s: (i + j <= s, (s - j, s - i)),
    HyperplaneKind.DIAG_DOWN: lambda i, j, s: (i - j <= s, (s + j, i - s)),
}
ROOT_HALF = math.sqrt(0.5)
SPELLED_OUT_HALFSPACE = {
    HyperplaneKind.X: lambda s, h: ((1.0, 0.0), s * h),
    HyperplaneKind.Y: lambda s, h: ((0.0, 1.0), s * h),
    HyperplaneKind.DIAG_UP: lambda s, h: ((ROOT_HALF, ROOT_HALF),
                                          s * h * ROOT_HALF),
    HyperplaneKind.DIAG_DOWN: lambda s, h: ((ROOT_HALF, -ROOT_HALF),
                                            s * h * ROOT_HALF),
}


def offsets(kind: HyperplaneKind) -> list[float]:
    """The valid offsets in [-6, 6]: half-integers on the axes, integers on
    the diagonals."""
    if kind in (HyperplaneKind.X, HyperplaneKind.Y):
        return [k / 2 for k in range(-12, 13)]
    return [float(k) for k in range(-6, 7)]


class TestSpelledOut:
    @pytest.mark.parametrize("kind", list(HyperplaneKind))
    def test_reflection_and_side_per_cell(self, kind):
        cells = range(-8, 9)
        I, J = np.meshgrid(cells, cells, indexing="xy")
        for s in offsets(kind):
            hp = LatticeHyperplane(kind, s)
            for i in cells:
                for j in cells:
                    in_h, image = SPELLED_OUT[kind](i, j, s)
                    got = hp.reflect_index(i, j)
                    assert got == image
                    assert all(type(c) is int for c in got)
                    assert hp.contains_index(i, j) == in_h
            # the elementwise form _reflection uses
            in_h, (ri, rj) = SPELLED_OUT[kind](I, J, s)
            RI, RJ = hp.reflect_index(I, J)
            assert RI.dtype.kind == RJ.dtype.kind == "i"
            assert np.array_equal(RI, ri) and np.array_equal(RJ, rj)
            assert np.array_equal(hp.contains_index(I, J), in_h)

    @pytest.mark.parametrize("kind", list(HyperplaneKind))
    def test_as_halfspace_bit_for_bit(self, kind):
        for s in offsets(kind) + [0.0, -0.0]:
            hp = LatticeHyperplane(kind, s)
            for h in (0.5, 1, 0.3, 1e-300):
                normal, offset = SPELLED_OUT_HALFSPACE[kind](s, h)
                got = hp.as_halfspace(h)
                # float.hex tells -0.0 from 0.0
                assert [x.hex() for x in (*got.normal, got.offset)] == [
                    x.hex() for x in (*normal, offset)]


class TestGridFunction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GridFunction(2, 1.0, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GridFunction(1, 0.0, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GridFunction(1, float("inf"), np.zeros((3, 3)))
        h_max = math.sqrt(sys.float_info.max)   # h*h is finite up to here
        GridFunction(1, h_max, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="cell area h\\*h overflows"):
            GridFunction(1, math.nextafter(h_max, math.inf), np.zeros((3, 3)))
        h_min = 2.0 ** -511   # h*h is a normal double from here on
        GridFunction(1, h_min, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="cell area h\\*h underflows"):
            GridFunction(1, math.nextafter(h_min, 0.0), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GridFunction(1, 1.0, -np.ones((3, 3)))

    def test_equal_with_signed_zeros_hash_equal(self):
        a = GridFunction(1, 1.0, np.full((3, 3), -0.0))
        b = GridFunction(1, 1.0, np.zeros((3, 3)))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_from_points_and_value(self):
        g = GridFunction.from_points(2, 0.5, {(1, -2): 3.0})
        assert g.value(1, -2) == 3.0
        assert g.value(0, 0) == 0.0
        assert g.value(9, 9) == 0.0   # outside the array


class TestPolarizeExact:
    def test_moves_value_into_halfspace(self):
        g = GridFunction.from_points(3, 1.0, {(2, 0): 5.0})
        hp = LatticeHyperplane(HyperplaneKind.X, -0.5)   # {i <= -0.5}
        out = polarize_grid_exact(g, hp)
        assert out.value(-3, 0) == 5.0
        assert out.value(2, 0) == 0.0

    def test_multiset_preserved(self):
        rng = random.Random(3)
        for _ in range(300):
            g = generators.random_grid_function(rng)
            hp = generators.random_lattice_hyperplane(rng)
            out = polarize_grid_exact(g, hp)
            assert np.array_equal(out.sorted_values(), g.sorted_values())

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(200):
            g = generators.random_grid_function(rng)
            hp = generators.random_lattice_hyperplane(rng)
            once = polarize_grid_exact(g, hp)
            assert polarize_grid_exact(once, hp) is once

    def test_mass_monotone_when_origin_inside(self):
        rng = random.Random(5)
        for _ in range(300):
            g = generators.random_grid_function(rng)
            hp = generators.random_lattice_hyperplane(rng, require_origin=True)
            out = polarize_grid_exact(g, hp)
            assert gaussian_cell_mass(out) >= gaussian_cell_mass(g) - 1e-12

    def test_escape_raises(self):
        g = GridFunction.from_points(2, 1.0, {(2, 0): 1.0})
        hp = LatticeHyperplane(HyperplaneKind.X, -1.5)  # reflects 2 to -5
        with pytest.raises(GridFitError):
            polarize_grid_exact(g, hp)
        # a positive value on the kept side may reflect off-array harmlessly
        g2 = GridFunction.from_points(2, 1.0, {(-2, 0): 1.0})
        hp2 = LatticeHyperplane(HyperplaneKind.X, 1.5)
        assert polarize_grid_exact(g2, hp2) is g2

    @pytest.mark.parametrize("kind", list(HyperplaneKind))
    def test_offsets_far_outside_the_array(self, kind):
        # round(2*s) of such offsets does not fit numpy's int64; the result
        # must be that of a finite offset past the array.
        g = GridFunction(2, 1.0, np.ones((5, 5)))
        assert polarize_grid_exact(g, LatticeHyperplane(kind, 1e300)) is g
        assert polarize_grid_exact(g, LatticeHyperplane(kind, 101)) is g
        for s in (-1e300, -101.0):
            hp = LatticeHyperplane(kind, s)
            with pytest.raises(GridFitError, match=re.escape(hp.encode())):
                polarize_grid_exact(g, hp)

    def test_orbit_oracle(self):
        rng = random.Random(6)
        for _ in range(200):
            g = generators.random_grid_function(rng)
            hp = generators.random_lattice_hyperplane(rng)
            out = polarize_grid_exact(g, hp)
            for i in range(-g.m, g.m + 1):
                for j in range(-g.m, g.m + 1):
                    ri, rj = hp.reflect_index(i, j)
                    a, b = g.value(i, j), g.value(ri, rj)
                    want = max(a, b) if hp.contains_index(i, j) else min(a, b)
                    assert out.value(i, j) == want


# Unlike the generators: values that are not small integers, supports that
# fill the array, and offsets far past it.
VALUE = st.floats(min_value=0, allow_infinity=False)
# Below 1e3 a rounding step of a mass term stays under the 1e-12 tolerance.
MASS_VALUE = st.floats(min_value=0, max_value=1e3)


@st.composite
def grid_functions(draw, values=VALUE):
    m = draw(st.integers(0, 3))
    n = 2 * m + 1
    cells = draw(st.lists(st.one_of(st.just(0.0), values),
                          min_size=n * n, max_size=n * n))
    return GridFunction(m, draw(st.floats(0.05, 2.0)), np.reshape(cells, (n, n)))


@st.composite
def hyperplanes(draw):
    kind = draw(st.sampled_from(list(HyperplaneKind)))
    k = draw(st.one_of(st.integers(-16, 16), st.integers(-10**20, 10**20)))
    axis = kind in (HyperplaneKind.X, HyperplaneKind.Y)
    return LatticeHyperplane(kind, k / 2 if axis else k)


class TestPolarizeExactProperties:
    @given(grid_functions(), hyperplanes())
    @settings(deadline=None)
    def test_idempotent_and_equimeasurable(self, g, hp):
        try:
            once = polarize_grid_exact(g, hp)
        except GridFitError:
            return
        assert polarize_grid_exact(once, hp) is once
        assert np.array_equal(once.sorted_values(), g.sorted_values())

    @given(grid_functions(values=MASS_VALUE), hyperplanes())
    @settings(deadline=None)
    def test_mass_never_decreases_when_origin_inside(self, g, hp):
        assume(hp.contains_origin())
        try:
            out = polarize_grid_exact(g, hp)
        except GridFitError:
            return
        assert gaussian_cell_mass(out) >= gaussian_cell_mass(g) - 1e-12


class TestPolarizeInterp:
    def test_matches_exact_on_lattice_hyperplanes(self):
        rng = random.Random(7)
        for _ in range(300):
            g = generators.random_grid_function(rng)
            hp = generators.random_lattice_hyperplane(rng, require_origin=True)
            exact = polarize_grid_exact(g, hp)
            interp = polarize_grid_interp(g, hp.as_halfspace(g.h))
            assert np.array_equal(exact.values, interp.values)

    def test_generic_halfspace_keeps_nonnegativity(self):
        rng = random.Random(8)
        for _ in range(100):
            g = generators.random_grid_function(rng)
            h = generators.random_halfspace_2d(rng)
            out = polarize_grid_interp(g, h)
            assert np.all(out.values >= 0)

    def test_dimension_check(self):
        from rearrange_lab.halfspace import Halfspace
        g = GridFunction.zeros(2)
        with pytest.raises(ValueError):
            polarize_grid_interp(g, Halfspace.line(1, 0.5))


class TestRearrangeGrid:
    def test_single_bump_goes_to_center(self):
        g = GridFunction.from_points(2, 1.0, {(2, 2): 7.0})
        out = rearrange_grid(g)
        assert out.value(0, 0) == 7.0

    def test_canonical_tie_break(self):
        # two equal cells at distance 1: (-1,0) precedes (0,1) and (1,0)
        g = GridFunction.from_points(2, 1.0, {(2, 2): 7.0, (1, -2): 7.0})
        out = rearrange_grid(g)
        assert out.value(0, 0) == 7.0
        assert out.value(-1, 0) == 7.0

    def test_multiset_preserved_and_idempotent(self):
        rng = random.Random(9)
        for _ in range(200):
            g = generators.random_grid_function(rng)
            out = rearrange_grid(g)
            assert np.array_equal(out.sorted_values(), g.sorted_values())
            assert rearrange_grid(out) is out

    def test_radially_nonincreasing_along_canonical_order(self):
        rng = random.Random(10)
        from rearrange_lab.grid2d import _canonical_cell_order
        for _ in range(100):
            g = generators.random_grid_function(rng)
            out = rearrange_grid(g)
            flat = out.values.ravel()[_canonical_cell_order(out.m)]
            assert np.all(np.diff(flat) <= 0)


class TestSteiner:
    def test_row_symmetrization(self):
        g = GridFunction.from_points(1, 1.0, {(1, 0): 3.0, (-1, 0): 1.0})
        out = steiner_rows(g, Axis.Y)
        # the j=0 row becomes spiral-ordered about i=0
        assert out.value(0, 0) == 3.0
        assert out.value(1, 0) == 1.0

    def test_each_line_rearranged(self):
        rng = random.Random(11)
        for _ in range(100):
            g = generators.random_grid_function(rng)
            out = steiner_rows(g, Axis.X)
            for col in range(2 * g.m + 1):
                line = g.values[:, col]
                oline = out.values[:, col]
                assert sorted(line) == sorted(oline)
                # spiral-nonincreasing about the middle index
                m = g.m
                vals = [out.value(col - m, j)
                        for j in [0] + [s * k for k in range(1, m + 1)
                                        for s in (1, -1)]]
                assert vals == sorted(vals, reverse=True)

    def test_idempotent(self):
        rng = random.Random(12)
        for _ in range(100):
            g = generators.random_grid_function(rng)
            for axis in Axis:
                once = steiner_rows(g, axis)
                assert steiner_rows(once, axis) is once


# The grid operations as they were before the per-size caches, the one-step
# mirror gather and the one-sort Steiner pass: every array is rebuilt on
# each call, Steiner sorts line by line, and each result is validated
# afresh.  The engine must give the same bytes, return u exactly when these
# do, raise GridFitError with the same message, and give the same mass
# (a ValueError where this mass overflows in math.fsum).


def reference_index_grids(m: int):
    rng = np.arange(-m, m + 1)
    return np.meshgrid(rng, rng, indexing="xy")


def reference_polarize_grid_exact(u: GridFunction,
                                  hp: LatticeHyperplane) -> GridFunction:
    m = u.m
    bound = 2 * m + 1
    clamped = LatticeHyperplane(hp.kind, min(max(hp.s, -bound), bound))
    I, J = reference_index_grids(m)
    RI, RJ = clamped.reflect_index(I, J)
    inside = (np.abs(RI) <= m) & (np.abs(RJ) <= m)
    in_h = clamped.contains_index(I, J)
    escapes = ~inside & ~in_h & (u.values > 0)
    if np.any(escapes):
        raise GridFitError(
            f"support reflects outside the {2*m+1}x{2*m+1} array for "
            f"{hp.encode()}")
    mirrored = np.zeros_like(u.values)
    mirrored[inside] = u.values[RJ[inside] + m, RI[inside] + m]
    new = np.where(in_h, np.maximum(u.values, mirrored),
                   np.minimum(u.values, mirrored))
    out = GridFunction(m, u.h, new)
    return u if out == u else out


def reference_rearrange_grid(u: GridFunction) -> GridFunction:
    I, J = reference_index_grids(u.m)
    order = np.lexsort((J.ravel(), I.ravel(), (I * I + J * J).ravel()))
    new = np.empty(u.values.size)
    new[order] = np.sort(u.values, axis=None)[::-1]
    out = GridFunction(u.m, u.h, new.reshape(u.values.shape))
    return u if out == u else out


def reference_steiner_rows(u: GridFunction, axis: Axis) -> GridFunction:
    n = 2 * u.m + 1
    offsets = np.arange(-u.m, u.m + 1)
    ranks = np.where(offsets > 0, 2 * offsets - 1, -2 * offsets)
    perm = np.argsort(ranks, kind="stable")
    v = u.values.copy()
    if axis is Axis.X:
        for col in range(n):
            line = np.sort(v[:, col])[::-1]
            v[perm, col] = line
    else:
        for row in range(n):
            line = np.sort(v[row, :])[::-1]
            v[row, perm] = line
    out = GridFunction(u.m, u.h, v)
    return u if out == u else out


def reference_gaussian_cell_mass(u: GridFunction) -> float:
    I, J = reference_index_grids(u.m)
    w = np.exp(-(I * I + J * J) * (u.h * u.h))
    return float(math.fsum((u.values * w).ravel()) * u.h * u.h)


@st.composite
def sparse_grid_functions(draw):
    """m up to 9, a few cells set to any value, the rest 0."""
    m = draw(st.integers(0, 9))
    index = st.integers(-m, m)
    points = draw(st.dictionaries(st.tuples(index, index),
                                  st.one_of(st.just(-0.0), VALUE),
                                  max_size=12))
    h = draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0]),
                       st.floats(0.05, 2.0)))
    return GridFunction.from_points(m, h, points)


@st.composite
def grids_and_hyperplanes(draw):
    """A grid, and a hyperplane whose offset lies inside or beyond
    +-(2m+1), up to +-1e300."""
    g = draw(st.one_of(grid_functions(), sparse_grid_functions()))
    kind = draw(st.sampled_from(list(HyperplaneKind)))
    near = 2 * g.m + 3
    k = draw(st.one_of(st.integers(-2 * near, 2 * near),
                       st.integers(-10**20, 10**20),
                       st.sampled_from([-1e300, 1e300])))
    axis = kind in (HyperplaneKind.X, HyperplaneKind.Y)
    return g, LatticeHyperplane(kind, k / 2 if axis else k)


def same_result(out, ref, u):
    assert out.values.tobytes() == ref.values.tobytes()
    assert (out is u) == (ref is u)
    assert (out.m, out.h) == (ref.m, ref.h)
    assert not out.values.flags.writeable


class TestReference:
    @given(grids_and_hyperplanes())
    @settings(deadline=None, max_examples=300)
    def test_exact_polarization_matches_the_reference(self, case):
        g, hp = case
        try:
            ref = reference_polarize_grid_exact(g, hp)
        except GridFitError as exc:
            with pytest.raises(GridFitError) as got:
                polarize_grid_exact(g, hp)
            assert str(got.value) == str(exc)
            return
        same_result(polarize_grid_exact(g, hp), ref, g)

    @given(st.one_of(grid_functions(), sparse_grid_functions()))
    @settings(deadline=None, max_examples=300)
    def test_steiner_rearrange_and_mass_match_the_reference(self, g):
        for axis in Axis:
            same_result(steiner_rows(g, axis), reference_steiner_rows(g, axis), g)
        same_result(rearrange_grid(g), reference_rearrange_grid(g), g)
        try:
            mass = reference_gaussian_cell_mass(g)
        except OverflowError:
            mass = math.inf
        if math.isfinite(mass):
            assert gaussian_cell_mass(g) == mass
        else:
            with pytest.raises(ValueError, match="Gaussian cell mass"):
                gaussian_cell_mass(g)

    def test_cached_arrays_are_read_only(self):
        for a in (*grid2d._index_grids(2), grid2d._canonical_cell_order(2),
                  grid2d._spiral_permutation(5),
                  grid2d._gaussian_weights(2, 0.5)):
            assert not a.flags.writeable

    def test_gaussian_mass_beyond_the_float_range(self):
        # the sum of the terms overflows; at h = 2, the factor h^2 alone does
        big = GridFunction.from_points(1, 0.5, {(0, 0): 1e308, (-1, 0): 1e308,
                                                (0, -1): 1e308})
        wide = GridFunction.from_points(1, 2.0, {(0, 0): 1e308})
        for g in (big, wide):
            with pytest.raises(ValueError, match="Gaussian cell mass"):
                gaussian_cell_mass(g)

    def test_lp_distance_beyond_the_float_range(self):
        a = GridFunction.from_points(1, 0.5, {(0, 0): 1e200})
        with pytest.raises(ValueError, match="L\\^p error"):
            grid_lp_distance(a, GridFunction.zeros(1, 0.5), 2.0)


class TestMixedSchedule:
    def test_series_shape_and_monotone_mass(self):
        g = generators.random_grid_function(random.Random(13))
        steps = [Axis.X, Axis.Y,
                 LatticeHyperplane(HyperplaneKind.DIAG_UP, 0),
                 LatticeHyperplane(HyperplaneKind.DIAG_DOWN, 0)]
        series = mixed_schedule(g, steps, n_max=8)
        assert series[0].n == 0
        assert len(series) == 9
        masses = series.weighted_masses()
        assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))

    def test_empty_steps_rejected(self):
        with pytest.raises(ValueError):
            mixed_schedule(GridFunction.zeros(1), [], n_max=3)

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_eps_not_positive_rejected_before_any_polarization(
            self, monkeypatch, eps):
        # The scheme builds a reflection table and applies it: neither may
        # run, nor a whole polarization.
        for name in ("polarize_grid_exact", "_reflection", "_reflect"):
            monkeypatch.setattr(grid2d, name, None)
        g = GridFunction.from_points(2, 0.5, {(1, 0): 1.0})
        with pytest.raises(ValueError, match="^eps must be positive$"):
            mixed_schedule(g, [LatticeHyperplane(HyperplaneKind.X, 0.0)],
                           n_max=3, eps=eps)


class TestCsv:
    def test_roundtrip(self):
        rng = random.Random(14)
        for _ in range(50):
            g = generators.random_grid_function(rng)
            assert loads(dumps(g)) == g

    def test_distance_and_errors(self):
        a = GridFunction.from_points(1, 0.5, {(0, 0): 2.0})
        b = GridFunction.from_points(1, 0.5, {(0, 0): 1.0})
        assert grid_lp_distance(a, b, 1.0) == 0.25
        with pytest.raises(ValueError):
            grid_lp_distance(a, GridFunction.zeros(2, 0.5), 1.0)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            loads("")
        with pytest.raises(ParseError):
            loads("1\n0,0,0\n")
        with pytest.raises(ParseError):
            loads("1,0.5\n0,0\n")
        with pytest.raises(ParseError):
            loads("1,inf\n0,0,0\n0,1,0\n0,0,0\n")
