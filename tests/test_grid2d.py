import random

import numpy as np
import pytest

from rearrange_lab import generators
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


class TestGridFunction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GridFunction(2, 1.0, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GridFunction(1, 0.0, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GridFunction(1, float("inf"), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GridFunction(1, 1.0, -np.ones((3, 3)))

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
