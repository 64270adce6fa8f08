"""End-to-end acceptance checks.

Each test prints a single pass/fail line (run pytest with -s to see them) and
pins the tolerances and runtime budgets it verifies.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rearrange_lab import generators
from rearrange_lab.analysis import (
    RadialWeight,
    cavalieri_gap,
    contraction_gap,
    converge_restricted,
    converge_scheme,
    hardy_littlewood_gap,
    polarization_gap,
)
from rearrange_lab.grid2d import (
    gaussian_cell_mass,
    polarize_grid_exact,
    polarize_grid_interp,
    rearrange_grid,
)
from rearrange_lab.halfspace import Schedule, density_witness
from rearrange_lab.lattice import (
    LatticeFunction,
    polarize_involution,
    rank,
    rearrange_lattice,
    site_of_rank,
    spiral_sites,
    two_involution_scheme,
)
from rearrange_lab.step1d import (
    StepFunction,
    lp_distance,
    lp_norm,
    polarize,
    rearrange,
    superlevel_measure,
)

SEED = 20260824


@contextmanager
def report(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


@pytest.fixture(scope="session")
def corpus():
    """50 seeded random step functions for the convergence criteria.

    Support is kept inside the unit ball of the default schedule: with a
    1/8-grid corpus every two-point swap the scheme needs has its dyadic
    reflection center within the first five offset levels, so the 60-step
    prefix can finish the job (offsets never exceed the bound, and swaps
    across larger radii would otherwise only resolve one dyadic level per
    schedule extension).
    """
    rng = random.Random(SEED)
    return [generators.random_step_function(rng, span=1.0) for _ in range(50)]


@pytest.fixture(scope="session")
def dyadic_runs(corpus):
    """Criterion-1 runs (shared with criterion 7) plus their wall time."""
    start = time.perf_counter()
    runs = [converge_scheme(u, n_max=60) for u in corpus]
    return runs, time.perf_counter() - start


def test_criterion_1_main_convergence(corpus, dyadic_runs):
    runs, elapsed = dyadic_runs
    with report(1, "dyadic schedule rho=1, n_max=60: final L1 error < 1e-3"
                   " relative, invariants within 1e-12, < 10 s"):
        for u, series in zip(corpus, runs):
            assert series.final.lp_error < 1e-3 * lp_norm(u, 1)
            masses = series.weighted_masses()
            assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
            # norm constancy is enforced inside converge_scheme at 1e-12;
            # re-check the endpoints explicitly
            assert abs(lp_norm(rearrange(u), 1) - lp_norm(u, 1)) <= 1e-12
        assert elapsed < 10.0


def test_criterion_2_restricted_convergence(corpus):
    with report(2, "restricted schedule rho=0.1, n_max=200: final L1 error"
                   " < 1e-2 relative, < 30 s"):
        start = time.perf_counter()
        for u in corpus:
            series = converge_restricted(u, rho=0.1, n_max=200)
            assert series.final.lp_error < 1e-2 * lp_norm(u, 1)
            masses = series.weighted_masses()
            assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
        assert time.perf_counter() - start < 30.0


def test_criterion_3_lattice_exactness():
    with report(3, "1000 lattice cases: two-involution fixed point equals"
                   " the spiral rearrangement exactly, < 5 s"):
        rng = random.Random(SEED)
        start = time.perf_counter()
        for _ in range(1000):
            u = generators.random_lattice_function(rng)
            fixed, sweeps = two_involution_scheme(u)
            assert fixed == rearrange_lattice(u)
            assert fixed.sorted_values() == u.sorted_values()
        assert time.perf_counter() - start < 5.0


def test_criterion_4_inequality_suite():
    with report(4, "1000 cases per inequality at 1e-12, Gaussian equality"
                   " characterization, < 10 s"):
        start = time.perf_counter()
        w = RadialWeight.gaussian()

        rng = random.Random(SEED)
        for _ in range(1000):
            u = generators.random_step_function(rng)
            for p in (1.0, 2.0, 3.0):
                assert cavalieri_gap(u, p) < 1e-12

        rng = random.Random(SEED + 1)
        for _ in range(1000):
            u = generators.random_step_function(rng)
            v = generators.random_step_function(rng)
            assert hardy_littlewood_gap(u, v) >= -1e-12

        rng = random.Random(SEED + 2)
        for _ in range(1000):
            u = generators.random_step_function(rng)
            v = generators.random_step_function(rng)
            for p in (1.0, 2.0, 3.0):
                assert contraction_gap(u, v, p) >= -1e-12

        rng = random.Random(SEED + 3)
        for _ in range(1000):
            u = generators.random_step_function(rng)
            h = generators.random_halfspace_1d(rng)
            assert polarization_gap(u, h, w) >= -1e-12

        # Equality characterization: a vanishing gap certifies u == u^H.
        # The corpus stays within |x| <= 6, where the Gaussian weight is
        # large enough that any actual change registers above 1e-12.
        rng = random.Random(SEED + 4)
        for _ in range(1000):
            u = generators.random_step_function(rng, span=4.0)
            h = generators.random_halfspace_1d(rng)
            if h.offset == 0.0:
                continue
            if polarization_gap(u, h, w) < 1e-12:
                assert lp_distance(u, polarize(u, h), 1) < 1e-9

        assert time.perf_counter() - start < 10.0


def _oracle_rearrange(u):
    """Independent layer-cake construction of the rearrangement."""
    if u.is_zero:
        return StepFunction.zero()
    distinct = sorted(set(u.values.tolist()) - {0.0}, reverse=True)
    # M_j = measure{u >= d_j}; with discrete values {u >= d_j} = {u > d_{j+1}}
    measures = [superlevel_measure(u, lam) for lam in distinct[1:]]
    measures.append(superlevel_measure(u, 0.0))
    # annulus j carries value d_j on +-[M_{j-1}/2, M_j/2)
    breakpoints = [-m / 2 for m in reversed(measures)] + \
                  [m / 2 for m in measures]
    values = list(reversed(distinct)) + distinct[1:]
    return StepFunction(breakpoints, values)


def test_criterion_5_oracle_equivalence():
    with report(5, "polarize vs pointwise oracle, rearrange vs layer-cake"
                   " oracle, lattice ops vs exhaustive brute force"):
        # 1-D polarization against the pointwise max/min definition
        rng = random.Random(SEED)
        for _ in range(100):
            u = generators.random_step_function(rng)
            h = generators.random_halfspace_1d(rng, signed_offset=True)
            out = polarize(u, h)
            nu, d = h.normal[0], h.offset
            c = nu * d
            xs = np.array([rng.uniform(-10, 10) for _ in range(10_000)])
            a = u.evaluate_many(xs)
            b = u.evaluate_many(2.0 * c - xs)
            want = np.where(nu * xs <= d, np.maximum(a, b), np.minimum(a, b))
            assert np.array_equal(out.evaluate_many(xs), want)

        # rearrangement against the independent layer-cake construction
        rng = random.Random(SEED + 1)
        for _ in range(200):
            u = generators.random_step_function(rng)
            assert rearrange(u) == _oracle_rearrange(u)

        # lattice: every function on the first 8 spiral sites over {0,1,2,3}
        sites = spiral_sites(8)
        for assignment in itertools.product((0.0, 1.0, 2.0, 3.0), repeat=8):
            u = LatticeFunction(zip(sites, assignment))
            expect = LatticeFunction(
                (site_of_rank(r), v) for r, v in enumerate(
                    sorted((v for v in assignment if v > 0), reverse=True)))
            assert rearrange_lattice(u) == expect
            for c in (0, 1):
                got = polarize_involution(u, c)
                for x in set(u.support()) | set(got.support()):
                    y = c - x
                    if x == y:
                        assert got.value(x) == u.value(x)
                        continue
                    first, second = (x, y) if rank(x) < rank(y) else (y, x)
                    assert got.value(first) == max(u.value(x), u.value(y))
                    assert got.value(second) == min(u.value(x), u.value(y))


def test_criterion_6_grid_engine():
    with report(6, "grid polarization: exact value multisets, monotone"
                   " Gaussian mass, interpolated mode matches exact mode"):
        rng = random.Random(SEED)
        for _ in range(1000):
            g = generators.random_grid_function(rng)
            hp = generators.random_lattice_hyperplane(rng)
            out = polarize_grid_exact(g, hp)
            assert np.array_equal(out.sorted_values(), g.sorted_values())
            if hp.contains_origin():
                assert gaussian_cell_mass(out) >= gaussian_cell_mass(g) - 1e-12
            interp = polarize_grid_interp(g, hp.as_halfspace(g.h))
            assert np.array_equal(out.values, interp.values)
            assert np.array_equal(rearrange_grid(g).sorted_values(),
                                  g.sorted_values())


def test_criterion_7_convergence_in_measure(dyadic_runs):
    runs, _ = dyadic_runs
    with report(7, "criterion-1 runs: deviation measure at eps=0.01 vanishes"
                   " or obeys the Chebyshev bound at every step"):
        for series in runs:
            assert (series.final.deviation_measure == 0.0
                    or all(r.deviation_measure <= r.lp_error / 0.01 + 1e-12
                           for r in series))


def test_criterion_8_schedule_density():
    with report(8, "density witness at eps=0.05 within 5e4 terms for 100"
                   " random halfspaces, 1-D and 2-D"):
        rng = random.Random(SEED)
        s1 = Schedule(dimension=1, rho=1.0)
        for _ in range(100):
            h = generators.random_halfspace_1d(rng)
            assert density_witness(s1, h, eps=0.05, n_max=50_000) is not None
        s2 = Schedule(dimension=2, rho=1.0)
        for _ in range(100):
            h = generators.random_halfspace_2d(rng)
            assert density_witness(s2, h, eps=0.05, n_max=50_000) is not None
