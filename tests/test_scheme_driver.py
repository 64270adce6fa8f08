"""The shared triangular driver against the naive loops it replaced.

The driver skips step indices seen to leave the identical state unchanged
and repeats the previous record when an outer step changes nothing.  The
naive loops below apply every step and recompute every record; the series
CSV bytes must agree exactly.
"""

import itertools
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import (assume, example, given, reject, settings,
                        strategies as st)

from rearrange_lab import analysis, generators, grid2d, series, step1d
from rearrange_lab.analysis import (
    INVARIANT_TOL,
    InvariantViolation,
    RadialWeight,
    converge_restricted,
    converge_scheme,
    weighted_mass,
)
from rearrange_lab.cli import main
from rearrange_lab.grid2d import (
    Axis,
    GridFunction,
    HyperplaneKind,
    LatticeHyperplane,
    gaussian_cell_mass,
    mixed_schedule,
    polarize_grid_exact,
    rearrange_grid,
    steiner_rows,
)
from rearrange_lab.halfspace import Halfspace, Schedule
from rearrange_lab.lattice import (
    LatticeFunction,
    polarize_involution,
    rearrange_lattice,
    schedule_scheme_lattice,
    spiral_sites,
    spiral_weighted_mass,
)
from rearrange_lab.series import (
    ConvergenceRecord,
    ConvergenceSeries,
    _entry,
    _first_change,
    _indices,
    _triangular_scheme,
    _upcoming,
)
from rearrange_lab.step1d import (
    StepFunction,
    _abs_diff,
    _first_mover,
    deviation_measure,
    lp_distance,
    lp_norm,
    polarize,
    rearrange,
    sup_distance,
)
from test_analysis import finite_result
from test_step1d import HALFSPACE, POINT, decision_states, first_change

SEEDS = (3, 17, 29, 101)
CLI_GRID_STEPS = [Axis.X, Axis.Y,
                  LatticeHyperplane(HyperplaneKind.DIAG_UP, 0),
                  LatticeHyperplane(HyperplaneKind.DIAG_DOWN, 0)]


# -- naive reference loops ---------------------------------------------------


def naive_converge(u, schedule, n_max, p, weight, eps, order):
    halfspaces = schedule.first(n_max)
    target = rearrange(u)
    norm0 = lp_norm(u, p)
    mass = weighted_mass(u, weight)

    def record(n, current):
        return ConvergenceRecord(
            n=n,
            lp_error=lp_distance(current, target, p),
            weighted_mass=mass,
            sup_error=sup_distance(current, target),
            deviation_measure=deviation_measure(current, target, eps))

    records = [record(0, u)]
    current = u
    converged = current == target
    for n in range(1, n_max + 1):
        if not converged:
            prefix = halfspaces[:n]
            if order == "reversed":
                prefix = prefix[::-1]
            for h in prefix:
                current = polarize(current, h)
            converged = current == target
            new_mass = weighted_mass(current, weight)
            assert abs(lp_norm(current, p) - norm0) <= INVARIANT_TOL
            assert new_mass >= mass - INVARIANT_TOL
            mass = new_mass
        records.append(record(n, current))
    return ConvergenceSeries(tuple(records))


def naive_lattice(u, centers, n_max, p, eps):
    target = rearrange_lattice(u)

    def record(n, current):
        sites = set(current.support()) | set(target.support())
        diffs = np.array([abs(current.value(x) - target.value(x))
                          for x in sorted(sites)])
        return ConvergenceRecord(
            n=n,
            lp_error=math.fsum(diffs ** p) ** (1.0 / p),
            weighted_mass=spiral_weighted_mass(current),
            sup_error=float(diffs.max()) if diffs.size else 0.0,
            deviation_measure=float(np.count_nonzero(diffs > eps)))

    records = [record(0, u)]
    current = u
    for n in range(1, n_max + 1):
        if current != target:
            for c in centers[:n]:
                current = polarize_involution(current, c)
        records.append(record(n, current))
    return ConvergenceSeries(tuple(records))


def naive_grid(u, steps, n_max, p, eps):
    target = rearrange_grid(u)

    def record(n, current):
        diff = np.abs(current.values - target.values)
        cell = current.h * current.h
        return ConvergenceRecord(
            n=n,
            lp_error=float(math.fsum((diff ** p).ravel()) * cell) ** (1.0 / p),
            weighted_mass=gaussian_cell_mass(current),
            sup_error=float(diff.max()) if diff.size else 0.0,
            deviation_measure=float(np.count_nonzero(diff > eps)) * cell)

    records = [record(0, u)]
    current = u
    for n in range(1, n_max + 1):
        for k in range(n):
            step = steps[k % len(steps)]
            if isinstance(step, Axis):
                current = steiner_rows(current, step)
            else:
                current = polarize_grid_exact(current, step)
        records.append(record(n, current))
    return ConvergenceSeries(tuple(records))


# -- byte-identical series ---------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("weight", [RadialWeight.gaussian(),
                                    RadialWeight.triangular(16.0)],
                         ids=["gaussian", "triangular"])
def test_step1d_matches_naive_loop(seed, order, p, weight):
    rng = random.Random(seed)
    # Integer values make some |u - u*| equal eps = 1 exactly.
    base = generators.random_step_function(rng)
    integral = StepFunction(base.breakpoints,
                            [float(rng.randint(1, 3)) for _ in base.values])
    for u, schedule, eps in (
            (generators.random_step_function(rng), Schedule(1, rho=1.0), 0.01),
            (generators.random_step_function(rng, span=1.0),
             Schedule(1, rho=0.1), 0.01),
            (integral, Schedule(1, rho=1.0), 1.0)):
        expected = naive_converge(u, schedule, 40, p, weight, eps, order)
        got = converge_scheme(u, schedule, n_max=40, p=p, weight=weight,
                              eps=eps, order=order)
        assert got.dumps() == expected.dumps()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", [1.0, 2.0, 1.5])
def test_lattice_matches_naive_loop(seed, p):
    rng = random.Random(seed)
    u = generators.random_lattice_function(rng)
    # At p = 1.5 the p-th powers of integer values are rounded too, but
    # non-integer values also make the squares at p = 2 inexact.
    uniform = LatticeFunction({x: 10.0 * (1.0 - rng.random())
                               for x in u.support()})
    centers = spiral_sites(40)
    for v in (u, uniform):
        expected = naive_lattice(v, centers, 40, p, 0.5)
        got = schedule_scheme_lattice(v, n_max=40, p=p, eps=0.5)
        assert got.dumps() == expected.dumps()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", [1.0, 2.0, 1.5, 3.0])
def test_grid_matches_naive_loop(seed, p):
    u = generators.random_grid_function(random.Random(seed))
    # At h = 0.3, unlike h = 0.5, the sum of |d|^p scaled once by h*h and
    # the sum of the per-cell products |d|^p * h*h round differently.
    for h in (0.5, 0.3):
        v = GridFunction(u.m, h, u.values)
        expected = naive_grid(v, CLI_GRID_STEPS, 16, p, 0.01)
        got = mixed_schedule(v, CLI_GRID_STEPS, n_max=16, p=p, eps=0.01)
        assert got.dumps() == expected.dumps()


def test_grid_fit_error_still_raised():
    u = GridFunction.from_points(2, 1.0, {(2, 2): 1.0})
    steps = [LatticeHyperplane(HyperplaneKind.X, -1.5)]
    with pytest.raises(grid2d.GridFitError):
        naive_grid(u, steps, 3, 1.0, 0.01)
    with pytest.raises(grid2d.GridFitError):
        mixed_schedule(u, steps, n_max=3)


@st.composite
def grid_schedules(draw):
    """A small grid and a list of Steiner axes and grid hyperplanes of all
    four kinds, whose offsets fall inside the array, on its edge or
    beyond it."""
    m = draw(st.integers(0, 3))
    values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                           min_size=(2 * m + 1) ** 2,
                           max_size=(2 * m + 1) ** 2))
    u = GridFunction(m, draw(st.sampled_from([0.5, 1.0])),
                     np.reshape(values, (2 * m + 1, 2 * m + 1)))
    reach = 2 * m + 2   # past the largest |i + j| on the array
    far = st.sampled_from([-1e300, 1e300])
    hyperplanes = st.one_of(
        st.builds(LatticeHyperplane,
                  st.sampled_from([HyperplaneKind.X, HyperplaneKind.Y]),
                  st.one_of(st.integers(-2 * reach, 2 * reach).map(
                      lambda k: k / 2), far)),
        st.builds(LatticeHyperplane,
                  st.sampled_from([HyperplaneKind.DIAG_UP,
                                   HyperplaneKind.DIAG_DOWN]),
                  st.one_of(st.integers(-reach, reach).map(float), far)))
    steps = draw(st.lists(st.one_of(st.sampled_from(Axis), hyperplanes),
                          min_size=1, max_size=6))
    return u, steps


def _grid_outcome(run, *args):
    """The series bytes of run(*args), or its GridFitError with the hyperplane
    and the state that raised it."""
    raised = []
    reflect = grid2d._reflect

    def spy(state, hp, table):
        try:
            return reflect(state, hp, table)
        except grid2d.GridFitError:
            raised.append((hp, state.values.tobytes()))
            raise

    with mock.patch.object(grid2d, "_reflect", spy):
        try:
            return run(*args).dumps()
        except grid2d.GridFitError as exc:
            return str(exc), raised


@settings(deadline=None, max_examples=200)
@given(case=grid_schedules(), n_max=st.integers(1, 10),
       p=st.sampled_from([1.0, 2.0]))
def test_grid_matches_naive_loop_on_drawn_steps(case, n_max, p):
    u, steps = case
    expected = _grid_outcome(naive_grid, u, steps, n_max, p, 0.5)
    got = _grid_outcome(lambda: mixed_schedule(u, steps, n_max=n_max, p=p,
                                               eps=0.5))
    assert got == expected


def test_memo_skips_polarizations(monkeypatch):
    """A run that never converges exactly computes far fewer than the
    n(n+1)/2 polarizations of the naive loop: a polarize call or a state
    assembled from a row of the look-ahead pass each count as one."""
    u = generators.random_step_function(random.Random(11), span=1.0)
    calls = []

    def counting(state, h):
        calls.append(h)
        return polarize(state, h)

    assemble = step1d._assemble

    def counting_assemble(grid, val):
        calls.append(grid)
        return assemble(grid, val)

    monkeypatch.setattr(analysis, "polarize", counting)
    monkeypatch.setattr(step1d, "_assemble", counting_assemble)
    series = converge_restricted(u, rho=0.1, n_max=100)
    assert series.final.lp_error > 0   # the state never reached u*
    assert 0 < len(calls) < 100 * 101 // 2 // 4


def per_state(row):
    """The driver's block hook from a row function of one state:
    row(n, state, previous record)."""
    def rows(ns, states, previous):
        block = []
        for n, state in zip(ns, states):
            previous = row(n, state, previous)
            block.append(previous)
        return block
    return rows


class Counter:
    def __init__(self, value):
        self.value = value


def test_driver_does_not_assume_idempotence():
    """A step that changed the state is applied again on the next visit: the
    driver skips an index only after seeing it return the identical state."""

    def apply(state, step):
        return Counter(state.value + step) if state.value < 9 else state

    def record(n, state, previous):
        return ConvergenceRecord(n, float(state.value), 0.0, 0.0, 0.0)

    got = _triangular_scheme(Counter(0), 5, _first_change([1, 2], apply),
                             per_state(record))
    naive = []
    state = Counter(0)
    for n in range(6):
        for k in range(n):
            state = apply(state, [1, 2][k % 2])
        naive.append(state.value)
    assert [r.lp_error for r in got] == naive == [0, 1, 4, 8, 9, 9]


def naive_scheme(start, steps, n_max, apply, record, target=None,
                 reverse=False):
    """The driver's contract read literally: every application of every
    outer step, a fresh record per step, and no step applied once an outer
    step ends on target."""
    records = [record(0, start, None)]
    state = start
    done = target is not None and state == target
    for n in range(1, n_max + 1):
        if not done:
            for k in (range(n - 1, -1, -1) if reverse else range(n)):
                state = apply(state, steps[k % len(steps)])
            done = target is not None and state == target
        records.append(record(n, state, records[-1]))
    return ConvergenceSeries(tuple(records))


def entries(segments):
    """The entries (outer step, position, index) of _upcoming's segments,
    in order."""
    return [(m + i * dm, pos + i * dpos, k)
            for m, pos, dm, dpos, ks in segments for i, k in enumerate(ks)]


def first_changes(steps, reverse=False):
    """converge_scheme's next_change over the halfspaces steps:
    _first_mover on _upcoming's listing, with polarize deciding each step
    that mirrors the state's support beyond the float range
    (test_step1d.first_change)."""
    def next_change(state, n, q, last):
        return first_change(
            state, entries(_upcoming(n, q, last, len(steps), reverse)),
            steps)
    return next_change


def applying(steps, apply, reverse):
    """_first_change(steps, apply), or in the reversed order the same
    search over _upcoming's reversed listing: apply on each entry in turn,
    up to the first that returns a new state or raises."""
    if not reverse:
        return _first_change(steps, apply)

    def next_change(state, n, q, last):
        for m, q, k in entries(_upcoming(n, q, last, len(steps), True)):
            try:
                out = apply(state, steps[k])
            except Exception as exc:
                return m, q, exc
            if out is not state:
                return m, q, out
        return None
    return next_change


def adopting(next_change, log):
    """next_change, logging each state the driver asks it about.  The
    driver asks once for the start and then once for each state it
    adopts."""
    def logged(state, *position):
        log.append(step1d.dumps(state))
        return next_change(state, *position)
    return logged


def changes(apply, log):
    """apply, logging each new state it returns."""
    def logged(state, step):
        out = apply(state, step)
        if out is not state:
            log.append(step1d.dumps(out))
        return out
    return logged


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("size", [1, 3, 7])
def test_short_step_list_matches_naive_loop(seed, reverse, size):
    """Fewer steps than outer steps: indices wrap, so an outer step repeats
    indices and the look-ahead meets every index within two steps."""
    rng = random.Random(seed)
    u = generators.random_step_function(rng, span=1.0)
    target = rearrange(u)
    steps = Schedule(1, rho=0.1).first(size)
    steps += [generators.random_halfspace_1d(rng, signed_offset=True),
              Halfspace.line(1, 1e308)]   # mirrors beyond the float range
    rng.shuffle(steps)

    def record(n, state, previous):
        return ConvergenceRecord(n, lp_distance(state, target, 1.0), 0.0,
                                 sup_distance(state, target), 0.0)

    want_log, plain_log, got_log = [], [], []
    want = naive_scheme(u, steps, 12, changes(polarize, want_log), record,
                        target, reverse)
    plain = _triangular_scheme(
        u, 12, applying(steps, changes(polarize, plain_log), reverse),
        per_state(record), target)
    got = _triangular_scheme(
        u, 12, adopting(first_changes(steps, reverse), got_log),
        per_state(record), target)
    assert plain.dumps() == got.dumps() == want.dumps()
    assert plain_log == got_log[1:] == want_log


def test_error_raised_after_the_same_changes():
    """A mirror image beyond the float range raises in polarize, after the
    same state changes as in the naive loop."""
    u = StepFunction([0, 1, 2], [1.0, 2.0])
    steps = [*Schedule(1, rho=1.0).first(5), Halfspace.line(1, -1e308)]

    def record(n, state, previous):
        return ConvergenceRecord(n, 0.0, 0.0, 0.0, 0.0)

    want_log, got_log = [], []
    with pytest.raises(ValueError, match="beyond the float range"):
        naive_scheme(u, steps, 8, changes(polarize, want_log), record)
    with pytest.raises(ValueError, match="beyond the float range"):
        _triangular_scheme(u, 8, adopting(first_changes(steps), got_log),
                           per_state(record))
    assert got_log[1:] == want_log != []


@given(decision_states(), st.lists(HALFSPACE, min_size=1, max_size=6),
       st.booleans())
@example(StepFunction([0, 1, 2], [1.0, 2.0]),
         [Halfspace.line(-1, 0.5), Halfspace.line(1, -0.0),
          Halfspace.line(1, -1e308)], False)
@example(StepFunction([1e308, 1.25e308, 1.7e308], [1.0, 2.0]),
         [Halfspace.line(1, 8.5e307), Halfspace.line(1, -1e308)], True)
@settings(max_examples=150, deadline=None)
def test_adopted_states_and_errors_match_naive_loop(u, steps, reverse):
    """Through _first_mover the driver adopts the naive loop's states, to
    the sign of each zero, and raises the naive loop's ValueError after
    the same state changes where a mirror image escapes."""

    def record(n, state, previous):
        return ConvergenceRecord(n, float(state.piece_count), 0.0, 0.0, 0.0)

    def outcome(run):
        try:
            return run().dumps()
        except ValueError as exc:
            return f"ValueError: {exc}"

    want_log, got_log = [], []
    want = outcome(lambda: naive_scheme(
        u, steps, 8, changes(polarize, want_log), record, reverse=reverse))
    got = outcome(lambda: _triangular_scheme(
        u, 8, adopting(first_changes(steps, reverse), got_log),
        per_state(record)))
    assert got == want
    assert got_log[1:] == want_log


class Residue:
    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return self.value == other.value


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("goal", range(4))
def test_target_reached_before_the_end_of_a_step(reverse, goal):
    """The state may equal target in the middle of an outer step and move
    on; only an outer step that ends on target stops the scheme.  Forward
    with goal 2, outer step 2 passes through 2 and ends on 0."""

    def apply(state, step):
        return state if step == 0 else Residue((state.value + step) % 4)

    def record(n, state, previous):
        return ConvergenceRecord(n, float(state.value), 0.0, 0.0, 0.0)

    steps = [1, 2, 0]
    want = naive_scheme(Residue(0), steps, 9, apply, record, Residue(goal),
                        reverse)
    got = _triangular_scheme(Residue(0), 9,
                             applying(steps, apply, reverse),
                             per_state(record), Residue(goal))
    assert got.dumps() == want.dumps()


def naive_listing(n, q, last, size, reverse):
    """The first appearance of each index in the naive loop's applications
    from position q of outer step n through outer step last, as entries
    (outer step, position, index)."""
    seen, listing = set(), []
    for m in range(n, last + 1):
        for pos in range(q if m == n else 0, m):
            k = (m - 1 - pos if reverse else pos) % size
            if k not in seen:
                seen.add(k)
                listing.append((m, pos, k))
    return listing


@st.composite
def listings(draw):
    """Arguments of _upcoming: a position in an outer step, the last outer
    step (that one, as from target, or n_max), a step count, an order."""
    n = draw(st.integers(0, 40))
    q = draw(st.integers(0, n))
    n_max = n + draw(st.integers(0, 30))
    return (n, q, draw(st.sampled_from([n, n_max])), draw(st.integers(1, 12)),
            draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(listings())
def test_upcoming_lists_the_first_appearances(args):
    assert entries(_upcoming(*args)) == naive_listing(*args)


@settings(max_examples=300, deadline=None)
@given(listings())
def test_offsets_map_to_the_naive_listing(args):
    """converge_scheme's next_change gives _first_mover the indices of
    _upcoming's segments as one array (_indices) and reads its answer, an
    offset into that array, as the entry _entry(segments, offset): at
    every offset that is the naive listing's (outer step, position,
    index)."""
    segments = _upcoming(*args)
    want = naive_listing(*args)
    assert _indices(segments).tolist() == [k for *_, k in want]
    assert [_entry(segments, offset) for offset in range(len(want))] == want
    with pytest.raises(IndexError):
        _entry(segments, len(want))


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_movers_get_nothing_past_the_step_that_ends_on_target(monkeypatch,
                                                              order):
    """From a state equal to u* the driver lists only the rest of the outer
    step under way, so on a run that reaches u* _first_mover is given no
    entry past the outer step that ended on it, whatever n_max; the
    series is the naive loop's."""
    u = StepFunction.indicator(1, 2)
    target = rearrange(u)
    listed = []   # the entries listed from u*, one list per listing
    segments = []   # each listing, as _upcoming's segments

    def upcoming(*args):
        segments.append(_upcoming(*args))
        return segments[-1]

    def listing(state, ks, *schedule):
        if state == target:
            listed.append(entries(segments[-1]))
        return _first_mover(state, ks, *schedule)

    monkeypatch.setattr(analysis, "_upcoming", upcoming)
    monkeypatch.setattr(analysis, "_first_mover", listing)
    got = converge_scheme(u, n_max=10**4, order=order)
    reached = next(r.n for r in got.rows if r.lp_error == 0)
    assert reached < 10 and len(listed) == 1
    assert all(m <= reached for m, *_ in listed[0])
    assert got.dumps() == naive_converge(
        u, Schedule(1, rho=1.0), 10**4, 1.0, RadialWeight.triangular(16.0),
        0.01, order).dumps()


def test_polarize_runs_once_per_state_change(monkeypatch):
    """On a stalled draw of the benchmark's kind, each state change
    assembles one row of the look-ahead pass, and that row's state is the
    one the driver adopts; polarize itself never runs."""
    u = generators.random_step_function(random.Random(11), span=1.0)
    assembled, asked, calls = [], [], []
    assemble = step1d._assemble

    def counting_assemble(grid, val):
        assembled.append(assemble(grid, val))
        return assembled[-1]

    def asking(state, ks, *schedule):
        asked.append(state)
        return _first_mover(state, ks, *schedule)

    def counting_polarize(state, h):
        calls.append(h)
        return polarize(state, h)

    monkeypatch.setattr(step1d, "_assemble", counting_assemble)
    monkeypatch.setattr(analysis, "_first_mover", asking)
    monkeypatch.setattr(analysis, "polarize", counting_polarize)
    series = converge_restricted(u, rho=0.1, n_max=200)
    assert series.final.lp_error > 0   # the state never reached u*
    assert calls == []
    adopted = asked[1:]   # the driver asks for the start, then per state
    assert assembled and len(assembled) == len(adopted)
    assert all(a is b for a, b in zip(assembled, adopted))


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_halfspaces_built_only_for_polarize(monkeypatch, order):
    """converge_scheme reads the schedule as columns and builds no
    Halfspace: no schedule entry mirrors the support beyond the float
    range, so polarize is never needed to decide one."""
    built, calls = [], []
    post_init = Halfspace.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_polarize(state, h):
        calls.append(h)
        return polarize(state, h)

    monkeypatch.setattr(Halfspace, "__post_init__", counting_post_init)
    monkeypatch.setattr(analysis, "polarize", counting_polarize)
    rng = random.Random(11)
    for _ in range(4):
        u = generators.random_step_function(rng, span=1.0)
        converge_restricted(u, rho=0.1, n_max=200, order=order)
    assert built == calls == []


# -- the no-op contract the memo relies on -----------------------------------


def test_step_functions_return_their_input_on_a_no_op():
    rng = random.Random(5)
    u = generators.random_step_function(rng)
    star = rearrange(u)
    for h in Schedule(1).first(20):
        assert polarize(star, h) is star
        once = polarize(u, h)
        assert polarize(once, h) is once
    zero = StepFunction.zero()
    assert polarize(zero, Halfspace.line(1, 0.5)) is zero

    w = generators.random_lattice_function(rng)
    w_star = rearrange_lattice(w)
    for c in spiral_sites(20):
        assert polarize_involution(w_star, c) is w_star
        once = polarize_involution(w, c)
        assert polarize_involution(once, c) is once

    g = generators.random_grid_function(rng)
    for step in CLI_GRID_STEPS:
        apply = steiner_rows if isinstance(step, Axis) else polarize_grid_exact
        once = apply(g, step)
        assert apply(once, step) is once
        flat = GridFunction.zeros(g.m, g.h)
        assert apply(flat, step) is flat


# -- invariant checks survive record reuse -----------------------------------


def _shift_right(state):
    """Changes the state and moves it away from 0, lowering its mass."""
    return StepFunction(state.breakpoints + 4.0, state.values)


def _shifting_first_mover(state, ks, *schedule):
    """_first_mover, with _shift_right(state) as the state of its answer:
    the look-ahead pass is where the 1-D scheme takes its new states
    from."""
    answer = _first_mover(state, ks, *schedule)
    return answer and (answer[0], _shift_right(state))


def test_mass_decrease_raises(monkeypatch):
    monkeypatch.setattr(analysis, "_first_mover", _shifting_first_mover)
    with pytest.raises(InvariantViolation, match="weighted mass decreased"):
        converge_scheme(StepFunction.indicator(0, 1), n_max=5)


def test_cli_converge_exits_4_on_invariant_violation(monkeypatch, tmp_path):
    src = tmp_path / "u.csv"
    out = tmp_path / "series.csv"
    step1d.write_csv(StepFunction.indicator(0, 1), src)
    monkeypatch.setattr(analysis, "_first_mover", _shifting_first_mover)
    assert main(["converge", "--input", str(src), "--output", str(out),
                 "--n-max", "5"]) == 4
    assert not out.exists()


def walking(states):
    """A next_change that ends each next outer step on a fresh copy of the
    next of states, or raises there the next of states that is an
    exception: from each state it answers with the first entry of
    _upcoming's listing of a later outer step than the last one it
    answered with, and None once states run out.  Listed with last steps,
    the listing is the one with n_max steps: it reaches no step past
    last."""
    rest = iter(states)
    last_step = 0

    def next_change(state, n, q, last):
        nonlocal last_step
        for m, q, _ in entries(_upcoming(n, q, last, last, False)):
            if m > last_step:
                last_step = m
                for u in itertools.islice(rest, 1):
                    return m, q, u if isinstance(u, Exception) else (
                        StepFunction._from_canonical(u.breakpoints, u.values))
                return None
        return None
    return next_change


def driving(monkeypatch, next_change):
    """Make converge_scheme's driver ask next_change in place of the
    scheme's own."""
    drive = series._triangular_scheme
    monkeypatch.setattr(
        analysis, "_triangular_scheme",
        lambda start, n_max, _, *args, **kwargs: drive(
            start, n_max, next_change, *args, **kwargs))


def _escape_error():
    return ValueError("the mirror image of the support across nu=1,d=-1e308 "
                      "is beyond the float range")


def test_violation_before_a_later_polarization_error_is_exit_4(
        monkeypatch, tmp_path, capsys):
    """The row of outer step 1 lowers the mass; the polarization of outer
    step 2 raises.  The row comes first in n order, so the run ends in the
    row's InvariantViolation, as when each row was computed at once."""
    src = tmp_path / "u.csv"
    out = tmp_path / "series.csv"
    u = StepFunction.indicator(0, 1)
    step1d.write_csv(u, src)
    driving(monkeypatch, walking([_shift_right(u), _escape_error()]))
    assert main(["converge", "--input", str(src), "--output", str(out),
                 "--n-max", "5"]) == 4
    assert capsys.readouterr().err == (
        "invariant violation: weighted mass decreased at outer step 1\n")
    assert not out.exists()


@pytest.mark.parametrize("start, first, args, what", [
    # the triangular mass of 1e308 on [0, 1.5) is about 2.3e309
    ("0,1\n1,", StepFunction([0, 1.5], [1e308]), [], "weighted mass"),
    # (1e200)^2 overflows at p = 2
    ("0,1\n1,", StepFunction([0, 1], [1e200]), ["--p", "2"], "L^p norm"),
    # row 0: the distance of u to u* on [-0.5, 0.5) is 3e308
    ("10,1.5e308\n11,", None, ["--weight", "gaussian"], "L^p error"),
], ids=["weighted-mass", "lp-norm", "lp-error"])
def test_overflow_before_a_later_violation_is_exit_2(
        monkeypatch, tmp_path, capsys, start, first, args, what):
    """A row that overflows, followed by the zero function, whose row
    would fail the L^p drift check: the overflow comes first in n order
    and is the error."""
    src = tmp_path / "u.csv"
    out = tmp_path / "series.csv"
    src.write_text(f"breakpoint,value\n{start}\n")
    states = [first] if first else []
    driving(monkeypatch, walking([*states, StepFunction.zero()]))
    assert main(["converge", "--input", str(src), "--output", str(out),
                 "--n-max", "5", *args]) == 2
    assert capsys.readouterr().err == (
        f"error: {what} overflows the float range\n")
    assert not out.exists()


# -- rows in blocks ----------------------------------------------------------


@pytest.mark.parametrize("block", [1, 2, 3])
def test_rows_in_blocks_of_any_size_match_naive_loops(monkeypatch, block):
    """With a small block constant a run's rows take many calls of the rows
    hook, each given the row before it; the series of all three engines
    stay those of the naive loops, whose rows take one state each."""
    monkeypatch.setattr(series, "_BLOCK", block)
    rng = random.Random(block)
    u = generators.random_step_function(rng, span=1.0)
    schedule, weight = Schedule(1, rho=0.1), RadialWeight.gaussian()
    assert (converge_scheme(u, schedule, n_max=40, p=1.5, weight=weight)
            .dumps() == naive_converge(u, schedule, 40, 1.5, weight, 0.01,
                                       "forward").dumps())
    v = generators.random_lattice_function(rng)
    assert (schedule_scheme_lattice(v, n_max=40, p=1.5).dumps()
            == naive_lattice(v, spiral_sites(40), 40, 1.5, 0.5).dumps())
    g = generators.random_grid_function(rng, m=4)
    assert (mixed_schedule(g, CLI_GRID_STEPS, n_max=16, p=1.5).dumps()
            == naive_grid(g, CLI_GRID_STEPS, 16, 1.5, 0.01).dumps())


VALUE = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.5, 5e-324, 2.5e-320, 1e-300, 1e300,
                     2.0 ** 1023, 1.7976931348623157e308]),
    st.floats(0.0, 10.0))


@st.composite
def step_functions(draw, points):
    """A step function of one to six pieces on points drawn from points,
    with subnormal, ordinary and near-overflow values."""
    b = sorted(draw(st.lists(points, min_size=2, max_size=7, unique=True)))
    # unique keeps both zeros; the breakpoints must increase strictly
    assume(all(x < y for x, y in zip(b, b[1:])))
    assume(math.isfinite(b[-1] - b[0]))
    return StepFunction(b, draw(st.lists(VALUE, min_size=len(b) - 1,
                                         max_size=len(b) - 1)))


@st.composite
def walks(draw):
    """A start u and 1 to 7 further states: polarizations of the state
    before, u*, the zero function, or a state on points that include u*'s
    breakpoints, whose row need not pass the scheme's checks."""
    u = draw(st.one_of(st.just(StepFunction.zero()), step_functions(POINT)))
    try:
        target = rearrange(u)
    except ValueError:   # the scheme fails before its first row
        reject()
    shared = st.one_of(POINT, st.sampled_from(
        target.breakpoints.tolist() or [0.0]))
    states = [u]
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(
            ["polarized", "polarized", "target", "zero", "drawn"]))
        if kind == "polarized":
            try:
                states.append(polarize(states[-1], draw(HALFSPACE)))
            except ValueError:   # a mirror image beyond the float range
                states.append(states[-1])
        elif kind == "target":
            states.append(target)
        elif kind == "zero":
            states.append(StepFunction.zero())
        else:
            states.append(draw(step_functions(shared)))
    return states


def scheme_rows(u, **kwargs):
    """converge_scheme's rows hook for the start u."""
    hooks = []
    with mock.patch.object(analysis, "_triangular_scheme",
                           lambda *args, **_: hooks.append(args[3])):
        converge_scheme(u, n_max=1, **kwargs)
    return hooks[0]


def per_state_rows(states, p, weight, eps):
    """The 1-D scheme's rows from the start states[0], one state at a time
    through the per-state functions, with the checks of each row first."""
    target = rearrange(states[0])
    norm0 = lp_norm(states[0], p)
    rows, previous = [], None
    for n, state in enumerate(states):
        mass = weighted_mass(state, weight)
        if previous is not None:
            if abs(lp_norm(state, p) - norm0) > INVARIANT_TOL:
                raise InvariantViolation(
                    f"L^{p} norm drifted at outer step {n}")
            if mass < previous.weighted_mass - INVARIANT_TOL:
                raise InvariantViolation(
                    f"weighted mass decreased at outer step {n}")
        diff, widths = _abs_diff(state, target)
        previous = ConvergenceRecord(
            n, finite_result(lambda: math.fsum(
                (diff if p == 1 else diff ** p) * widths) ** (1.0 / p),
                "L^p error"),
            mass, float(np.max(diff)) if diff.size else 0.0,
            finite_result(lambda: math.fsum(widths[diff > eps]),
                          "deviation measure"))
        rows.append(previous)
    return rows


def _hex_rows(run):
    """The rows of run() with each float as float.hex, or its error."""
    try:
        return [(r.n, *map(float.hex, (r.lp_error, r.weighted_mass,
                                       r.sup_error, r.deviation_measure)))
                for r in run()]
    except (ValueError, InvariantViolation) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@example(states=[StepFunction([10, 11], [1.5e308])] * 2, p=1.0,
         weight=RadialWeight.gaussian(), eps=0.01, block=1)
# the L^p error (3e308) and the deviation measure (2e308) of one row
# overflow; the L^p error's is the row's error
@example(states=[StepFunction([6e307, 1.6e308], [1.5])] * 2, p=1.0,
         weight=RadialWeight.triangular(16.0), eps=0.01, block=1)
@given(states=walks(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       weight=st.one_of(st.just(RadialWeight.gaussian()),
                        st.sampled_from([0.5, 16.0, 1e300]).map(
                            RadialWeight.triangular)),
       eps=st.one_of(st.sampled_from([0.01, 1.0, 2.0]),
                     st.floats(5e-324, 1e308)),
       block=st.sampled_from([1, 2, 3, series._BLOCK]))
def test_block_rows_match_the_per_state_functions(states, p, weight, eps,
                                                  block):
    """The driver walks the drawn states, one per outer step, and computes
    their rows in blocks through converge_scheme's hook: each row equals
    the per-state functions' bit for bit, signed zeros included, and the
    first failing row in n order gives the error."""
    kwargs = dict(p=p, weight=weight, eps=eps)
    try:
        rows = scheme_rows(states[0], **kwargs)
    except ValueError:   # u's own L^p norm overflows
        reject()
    n_max = len(states) - 1
    # an overflowing width warns in both; here it is the row's error
    walk = walking(states[1:])
    with mock.patch.object(series, "_BLOCK", block), \
            np.errstate(all="ignore"):
        got = _hex_rows(lambda: _triangular_scheme(states[0], n_max, walk,
                                                   rows))
        want = _hex_rows(lambda: per_state_rows(states, **kwargs))
    assert got == want


# -- the start's row ---------------------------------------------------------


def _stalled_draw_scaled(norm):
    """A draw whose run stalls, with its values scaled to L^1 norm norm."""
    u = generators.random_step_function(random.Random(11), span=1.0)
    return StepFunction(u.breakpoints, u.values * (norm / lp_norm(u, 1)))


@pytest.mark.parametrize("u, weight, what", [
    # the triangular mass of an L^1 norm of 1.2e308 is about 1.9e309
    (_stalled_draw_scaled(1.2e308), RadialWeight.triangular(16.0),
     "weighted mass"),
    # the distance of u to u* on [-0.5, 0.5) is 3e308
    (StepFunction([10, 11], [1.5e308]), RadialWeight.gaussian(),
     "L^p error"),
], ids=["weighted-mass", "lp-error"])
def test_the_start_row_fails_before_any_polarization(monkeypatch, u, weight,
                                                     what):
    asked = []
    monkeypatch.setattr(analysis, "_first_mover",
                        lambda *args: asked.append(args))
    with pytest.raises(ValueError, match=re.escape(
            f"{what} overflows the float range")):
        converge_restricted(u, rho=0.1, n_max=20_000, weight=weight)
    assert asked == []


@settings(max_examples=200, deadline=None)
@example(u=StepFunction([0, 1], [1e308]), p=1.0,
         weight=RadialWeight.gaussian(), eps=0.01)   # flushed, and passes
@example(u=StepFunction([10, 11], [1.5e308]), p=1.0,
         weight=RadialWeight.gaussian(), eps=0.01)   # flushed, and fails
@given(u=step_functions(POINT), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       weight=st.one_of(st.just(RadialWeight.gaussian()),
                        st.sampled_from([0.5, 16.0, 1e300]).map(
                            RadialWeight.triangular)),
       eps=st.sampled_from([0.01, 1.0, 1e308]))
def test_the_start_row_is_flushed_alone_wherever_it_may_fail(u, p, weight,
                                                             eps):
    """converge_scheme's cheap test flags every start whose row 0 fails,
    and flushing the start's row alone changes no row and no error."""
    try:
        rearrange(u), lp_norm(u, p)
    except ValueError:   # the scheme fails before its first row
        reject()
    with np.errstate(all="ignore"):   # a nan term is the row's error
        row0 = _hex_rows(lambda: per_state_rows([u], p, weight, eps))
    if isinstance(row0, tuple):
        assert analysis._start_may_fail(u, p, weight)
    runs = []
    for alone in (False, True):
        with mock.patch.object(analysis, "_start_may_fail",
                               lambda *args: alone):
            runs.append(_hex_rows(lambda: converge_scheme(
                u, n_max=8, p=p, weight=weight, eps=eps)))
    assert runs[0] == runs[1]
