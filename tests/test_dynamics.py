"""Billiard flow on polytopes: advancing, reflecting, corner policies."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from billiards import dynamics
from billiards.alcove import folded_flow, standard_alcove
from billiards.config import TOL
from billiards.dynamics import (
    BounceKind,
    CornerPolicy,
    TrajectoryState,
    advance_to_boundary,
    reflect_at,
    simulate,
    simulate_unfolded,
)
from billiards.errors import (
    BilliardsError,
    BounceBudgetExceededError,
    CornerAmbiguousError,
    DegenerateStartError,
    InputError,
    NoProgressError,
    NotAnAlcoveError,
    OutsideTableError,
)
from billiards.geometry import Location, Polytope, classify_slack, is_polar, unit
from conftest import (
    random_convex_polygon,
    random_interior_state,
    random_polytope_3d,
    start_cases,
)


def _ray_box_oracle(lo, hi, p, d):
    """First boundary crossing of a ray in an axis-aligned box."""
    times = []
    for j in range(len(lo)):
        if abs(d[j]) > 1e-15:
            for bound in (lo[j], hi[j]):
                t = (bound - p[j]) / d[j]
                if t > 1e-12:
                    times.append(t)
    t = min(times)
    return p + t * np.asarray(d), t


def test_advance_matches_ray_box_oracle(rng):
    lo, hi = np.array([0.0, 0.0, 0.0]), np.array([2.0, 1.0, 1.5])
    box = Polytope.box(lo, hi)
    for _ in range(200):
        p = rng.uniform(lo + 0.05, hi - 0.05)
        d = unit(rng.normal(size=3))
        hit, dist, active = advance_to_boundary(box, p, d)
        want_hit, want_dist = _ray_box_oracle(lo, hi, p, d)
        assert math.isclose(dist, want_dist, rel_tol=1e-12, abs_tol=1e-12)
        assert np.allclose(hit, want_hit, atol=1e-10)
        assert len(active) >= 1


def test_advance_reads_a_strided_direction_like_its_copy(rng):
    # from dimension 4 on, a dot product over a strided view can round
    # differently in the last bit from one over a contiguous copy
    poly = Polytope.box(-np.ones(5), np.ones(5))
    p = rng.uniform(-0.5, 0.5, 5)
    for _ in range(50):
        column = rng.normal(size=(5, 2))[:, 0]
        hit, dt, active = advance_to_boundary(poly, p, column)
        want_hit, want_dt, want_active = advance_to_boundary(
            poly, p, column.copy()
        )
        assert np.array_equal(hit, want_hit)
        assert (dt, active) == (want_dt, want_active)


def _outcome(step, *args):
    """``(hit, dt, active)`` of a step, the hit as bytes, or the error's
    class and message."""
    try:
        hit, dt, active = step(*args)[:3]
    except BilliardsError as err:
        return type(err), str(err)
    return hit.tobytes(), dt, active


def _checked_step(table, p, d):
    """A reference step: ``classify_slack`` checks the start and numpy finds
    the first crossing of a facet that is not active."""
    band = TOL.eps * table.scale
    slack = table.normals @ p - table.offsets
    location, active, worst = classify_slack(slack, band)
    if location is Location.OUTSIDE:
        raise OutsideTableError(
            f"start point violates a constraint by {worst:.3e}"
        )
    d = d / np.linalg.norm(d)
    rates = table.normals @ d
    if active and rates[list(active)].max() > TOL.tangential:
        raise DegenerateStartError(
            "direction exits through active facet "
            f"(rate {rates[list(active)].max():.3e})"
        )
    rates[list(active)] = 0.0
    ahead = np.flatnonzero(rates > TOL.tangential)
    if not len(ahead):
        raise NoProgressError("no constraint is approached; table corrupt?")
    times = -slack[ahead] / rates[ahead]
    j = int(np.argmin(times))
    dt = max(float(times[j]), 0.0)
    if not math.isfinite(dt) or dt <= TOL.step:
        raise NoProgressError(f"forward crossing at dt={dt:.3e} is too small")
    hit = p + dt * d
    _, at_hit, _ = classify_slack(table.normals @ hit - table.offsets, band)
    return hit, dt, at_hit or (int(ahead[j]),)


def test_a_step_checks_its_start_as_classify_slack_does(rng):
    """A step checks its start inside its scan for the first crossing. It
    gives the hit, time and active set of the reference step, or the same
    error and message, from starts inside, on facets, at corners, on either
    side of the band and leaving the table."""
    seen = {}
    for table, p, d in start_cases(rng):
        want = _outcome(_checked_step, table, p, d)
        assert _outcome(advance_to_boundary, table, p, d) == want
        outcome = want[0] if isinstance(want[0], type) else "hit"
        seen[outcome] = seen.get(outcome, 0) + 1
    assert set(seen) == {"hit", OutsideTableError, DegenerateStartError}
    assert min(seen.values()) >= 50


def test_a_strided_point_is_read_like_its_copy(rng):
    """``contains`` and ``advance_to_boundary`` give a column view of a 5D
    point the bits they give its contiguous copy. Facet 0 of each box lies
    exactly one band of the table (``TOL.eps`` times its scale, 9) from the
    point, inward or outward, so a slack that a strided read rounded
    otherwise would move that facet in or out of the active set, or the
    point out of the table."""
    band = TOL.eps * 9.0
    for _ in range(50):
        columns = 2.0 * rng.normal(size=(5, 2))
        columns[0] = 0.0  # so facet 0's slack is exactly minus its offset
        view = columns[:, 0]
        copy = view.copy()
        for top in (band, -band):
            table = Polytope.box(np.full(5, -9.0), [top, 9.0, 9.0, 9.0, 9.0])
            assert table.scale == 9.0
            assert table.contains(view) == table.contains(copy)
            for d in (np.eye(5)[0], -np.eye(5)[0], rng.normal(size=5)):
                assert _outcome(advance_to_boundary, table, view, d) == (
                    _outcome(advance_to_boundary, table, copy, d)
                )


def _set_kernel_tolerances(monkeypatch, **tolerances):
    """Run the step kernel with some tolerances changed."""
    monkeypatch.setattr(dynamics, "TOL", dataclasses.replace(TOL, **tolerances))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("reverse", [False, True], ids=["box", "reversed"])
def test_exactly_tied_hit_times_pick_the_lowest_facet(monkeypatch, dim, reverse):
    """A diagonal shot in a box reaches ``dim`` facets at the same time, to
    the bit. With an active band too thin to hold the rounded hit, the hit's
    classification is empty and the facet that set the time is reported:
    the lowest index among the tied ones, in either facet order."""
    _set_kernel_tolerances(monkeypatch, eps=1e-300)
    box = Polytope.box(-np.ones(dim), np.ones(dim))
    rows = np.column_stack((box.normals, box.offsets))
    table = Polytope(rows[::-1] if reverse else rows, box.vertices)
    seen = 0
    for x in np.linspace(-0.9, 0.9, 37):
        for sign in (1.0, -1.0):
            p, d = np.full(dim, x), np.full(dim, sign)
            hit, _, active = advance_to_boundary(table, p, d)
            rates = table.normals @ unit(d)
            slack = table.normals @ p - table.offsets
            times = np.full(len(rates), np.inf)
            ahead = rates > 0.0
            times[ahead] = -slack[ahead] / rates[ahead]
            tied = np.flatnonzero(times == times.min()).tolist()
            assert len(tied) == dim
            here = classify_slack(
                table.normals @ hit - table.offsets, 1e-300 * table.scale
            )
            if here[1]:
                continue
            seen += 1
            assert active == (tied[0],)
    assert seen >= 10


def test_step_errors_keep_their_messages(monkeypatch):
    """The errors a single step raises keep their class and their bytes."""
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    cases = [
        ((0.5, 0.0), (0.1, -1.0), DegenerateStartError,
         "direction exits through active facet (rate 9.950e-01)"),
        ((1.0, 1.0), (1.0, 0.5), DegenerateStartError,
         "direction exits through active facet (rate 8.944e-01)"),
        ((1.5, 0.5), (1.0, 0.0), OutsideTableError,
         "start point violates a constraint by 5.000e-01"),
    ]
    for p, d, error, message in cases:
        with pytest.raises(error) as info:
            advance_to_boundary(square, p, d)
        assert type(info.value) is error
        assert str(info.value) == message
    _set_kernel_tolerances(monkeypatch, tangential=2.0)
    with pytest.raises(NoProgressError) as info:
        advance_to_boundary(square, (0.5, 0.5), (1.0, 0.3))
    assert str(info.value) == "no constraint is approached; table corrupt?"
    _set_kernel_tolerances(monkeypatch, eps=1e-300)
    for d, message in (
        ((1.0, 0.0), "forward crossing at dt=2.842e-14 is too small"),
        ((1.0, 1.0), "forward crossing at dt=4.019e-14 is too small"),
    ):
        with pytest.raises(NoProgressError) as info:
            advance_to_boundary(square, (1.0 - 2.0**-45, 0.5), d)
        assert str(info.value) == message


def test_square_vertical_orbit_period_four():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    run = simulate(square, TrajectoryState((0.25, 0.0), (0.0, 1.0)), 4.0)
    assert run.n_bounces == 4
    times = [e.time for e in run.events]
    assert np.allclose(times, [1.0, 2.0, 3.0, 4.0], atol=1e-12)
    assert np.allclose(run.end.point, [0.25, 0.0], atol=1e-12)
    assert np.allclose(run.end.direction, [0.0, 1.0], atol=1e-12)


def test_square_diamond_orbit_closes():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    start = TrajectoryState((0.5, 0.0), (1.0, 1.0))
    run = simulate(square, start, 2.0 * math.sqrt(2.0))
    assert run.n_bounces == 4
    hit_points = np.array([e.point for e in run.events])
    want = np.array([[1.0, 0.5], [0.5, 1.0], [0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(hit_points, want, atol=1e-12)
    assert np.allclose(run.end.direction, start.direction, atol=1e-12)


def test_every_bounce_satisfies_the_polar_predicate(rng):
    for _ in range(20):
        poly = random_convex_polygon(rng)
        state = random_interior_state(rng, poly)
        run = simulate(poly, state, 10.0)
        assert run.n_bounces > 0
        for event in run.events:
            assert is_polar(poly, event.point, -event.incoming, event.outgoing)


def test_position_interpolation_hits_knots():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    run = simulate(square, TrajectoryState((0.5, 0.0), (1.0, 1.0)), 2.0)
    for event in run.events:
        assert np.allclose(run.position_at(event.time), event.point, atol=1e-12)
    mid = run.position_at(0.5 * run.events[0].time)
    seg = 0.5 * (np.array([0.5, 0.0]) + run.events[0].point)
    assert np.allclose(mid, seg, atol=1e-12)


# -- corner policies ---------------------------------------------------------

def test_strict_policy_raises_on_corner_hit():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    shot = TrajectoryState((0.25, 0.25), (1.0, 1.0))
    with pytest.raises(CornerAmbiguousError) as info:
        simulate(square, shot, 3.0, CornerPolicy.STRICT)
    assert np.allclose(info.value.point, [1.0, 1.0], atol=1e-12)
    assert len(info.value.active) == 2


def test_point_reflect_retraces_at_corner():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    shot = TrajectoryState((0.25, 0.25), (1.0, 1.0))
    run = simulate(square, shot, 3.0, CornerPolicy.POINT_REFLECT)
    corner_events = [e for e in run.events if e.kind is BounceKind.CORNER]
    # the retraced path crosses the table and meets the opposite corner too
    assert len(corner_events) == 2
    event = corner_events[0]
    assert np.allclose(event.outgoing, -event.incoming, atol=1e-15)
    # the path retraces through the start point
    t_back = 2.0 * event.time - 0.0
    if t_back <= run.horizon:
        assert np.allclose(run.position_at(t_back), shot.point, atol=1e-10)


def test_fold_group_continuation_is_limit_of_regular_shots():
    """Hitting a pi/6 corner dead-on continues like infinitesimally offset
    shots: the folded outgoing direction matches the regular trajectory
    started a hair off the corner line, on either side."""
    triangle = Polytope.convex_polygon(
        [[0.0, 0.0], [1.0, 0.0], [0.0, math.sqrt(3.0)]]
    )
    apex = np.array([0.0, math.sqrt(3.0)])  # interior angle pi/6
    base = np.array([0.35, 0.2])
    aim = unit(apex - base)
    folded = simulate(
        triangle, TrajectoryState(base, aim), 4.0, CornerPolicy.FOLD_GROUP
    )
    corner_events = [e for e in folded.events if e.kind is BounceKind.CORNER]
    assert len(corner_events) == 1
    t_corner = corner_events[0].time
    probe = folded.position_at(t_corner + 0.5)

    perp = np.array([-aim[1], aim[0]])
    for side in (+1.0, -1.0):
        # offset must clear the corner-detection ball (~1e-9) by a margin
        shifted = TrajectoryState(base + side * 1e-7 * perp, aim)
        regular = simulate(triangle, shifted, 4.0, CornerPolicy.STRICT)
        assert np.linalg.norm(regular.position_at(t_corner + 0.5) - probe) < 1e-4


def test_unfolded_positions_agree_with_segment_chaining(rng):
    for _ in range(10):
        poly = random_convex_polygon(rng)
        state = random_interior_state(rng, poly)
        a = simulate(poly, state, 25.0)
        b = simulate_unfolded(poly, state, 25.0)
        assert a.n_bounces == b.n_bounces
        for ea, eb in zip(a.events, b.events):
            assert ea.active == eb.active
            assert abs(ea.time - eb.time) < 1e-9
            assert np.linalg.norm(ea.point - eb.point) < 1e-9
        assert np.linalg.norm(a.end.point - b.end.point) < 1e-9


def test_simulate_matches_hand_chained_public_steps(rng):
    """The loop and the public step functions share one kernel: chaining
    ``advance_to_boundary`` and ``reflect_at`` by hand reproduces every
    event of ``simulate`` to the last bit. The public step takes the slack
    of its start afresh, while ``simulate`` carries each hit's slack list and
    band; shots aimed at alcove vertices compare the two at corners too."""
    tables = [random_convex_polygon(rng) for _ in range(4)]
    tables += [random_polytope_3d(rng) for _ in range(3)]
    shots = [
        (poly, random_interior_state(rng, poly), CornerPolicy.POINT_REFLECT)
        for poly in tables
    ]
    for label in ("A3~", "B4~"):
        alcove = standard_alcove(label)
        x0 = alcove.interior_point()
        shots += [
            (alcove, TrajectoryState(x0, v - x0), CornerPolicy.FOLD_GROUP)
            for v in alcove.vertices
        ]
    for poly, state, policy in shots:
        run = simulate(poly, state, 15.0, policy)
        assert run.n_bounces > 0
        if policy is CornerPolicy.FOLD_GROUP:  # the shot meets its vertex
            assert any(e.kind is BounceKind.CORNER for e in run.events)
        p, d, t = state.point, state.direction, 0.0
        for event in run.events:
            hit, dt, active = advance_to_boundary(poly, p, d)
            res = reflect_at(poly, hit, d, active, policy)
            t = t + dt
            assert active == event.active
            assert res.kind is event.kind
            assert t == event.time
            assert np.array_equal(hit, event.point)
            assert np.array_equal(res.outgoing, event.outgoing)
            p, d = hit, res.outgoing


def test_a_point_whose_norm_overflows_is_outside():
    """The band is the table's, so a point whose own norm overflows is not
    given an infinite band: it is outside, with no warning, and a run from it
    is refused."""
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = square.contains((1e155, 0.0))
        assert (far.location, far.active) == (Location.OUTSIDE, ())
        with pytest.raises(OutsideTableError):
            simulate(square, TrajectoryState((1e155, 0.0), (1.0, 0.0)), 1.0)


def _scaled(table: Polytope, factor: float) -> Polytope:
    """``table`` scaled about the origin by a power of two: the same
    normals, and the offsets and vertices times ``factor``, all exact."""
    rows = np.column_stack((table.normals, factor * table.offsets))
    return Polytope(rows, factor * table.vertices, table.facet_vertices)


def _run_or_error(run, table, shot, horizon, policy):
    try:
        return run(table, shot, horizon, policy)
    except BilliardsError as err:
        return type(err)


@pytest.mark.parametrize("k", [1, 10, 40])
def test_scaling_a_table_by_a_power_of_two_scales_every_run_exactly(rng, k):
    """Scale a table whose largest coordinate is at least 1, a start and the
    horizon by 2^k. The table's band ``TOL.eps * scale`` scales with them,
    so both loops give the same active sets, kinds and errors, and every
    time and point is 2^k times the original, bit for bit. The shots are
    random, or aimed at a vertex, under ``POINT_REFLECT`` and ``STRICT``."""
    factor, horizon = 2.0**k, 6.0
    tables = [random_convex_polygon(rng) for _ in range(30)]
    tables += [random_polytope_3d(rng) for _ in range(30)]
    tables = [table for table in tables if np.abs(table.vertices).max() >= 1.0]
    assert len(tables) >= 40
    seen = set()
    for table in tables:
        big = _scaled(table, factor)
        assert big.scale == factor * table.scale
        inside = random_interior_state(rng, table).point
        vertex = table.vertices[int(rng.integers(len(table.vertices)))]
        for p, d in ((inside, rng.normal(size=table.dim)), (inside, vertex - inside)):
            small_shot = TrajectoryState(p, d)
            big_shot = TrajectoryState(factor * p, d)
            for policy in (CornerPolicy.POINT_REFLECT, CornerPolicy.STRICT):
                for run in (simulate, simulate_unfolded):
                    want = _run_or_error(run, table, small_shot, horizon, policy)
                    got = _run_or_error(run, big, big_shot, factor * horizon, policy)
                    if isinstance(want, type):
                        assert got is want
                        seen.add(want)
                        continue
                    assert (got.active, got.kinds) == (want.active, want.kinds)
                    assert np.array_equal(got.times, factor * want.times)
                    assert np.array_equal(got.points, factor * want.points)
                    assert np.array_equal(got.directions, want.directions)
                    seen.update(want.kinds)
    assert seen == {BounceKind.FACET, BounceKind.CORNER, CornerAmbiguousError}


def test_sample_equals_position_at_bit_for_bit(rng):
    poly = random_polytope_3d(rng)
    run = simulate(poly, random_interior_state(rng, poly), 8.0)
    event_times = [e.time for e in run.events]
    ts = np.concatenate(
        [[-3.0, -0.0, 0.0], event_times, rng.uniform(-1.0, 9.0, 200),
         [8.0, 8.5, 1e9]]
    )
    want = np.array([run.position_at(t) for t in ts])
    assert np.array_equal(run.sample(ts), want)


@pytest.mark.parametrize("runner", [simulate, simulate_unfolded])
def test_events_are_the_rows_of_the_knot_arrays(runner, rng):
    poly = random_polytope_3d(rng)
    run = runner(poly, random_interior_state(rng, poly), 8.0)
    n = run.n_bounces
    assert n > 0
    assert run.times.shape == (n + 2,) and run.points.shape == (n + 2, 3)
    assert run.directions.shape == (n + 1, 3) and run.incoming.shape == (n, 3)
    assert len(run.active) == len(run.kinds) == len(run.events) == n
    assert run.times[0] == 0.0 and run.times[-1] == run.horizon
    assert np.array_equal(run.points[0], run.start.point)
    assert np.array_equal(run.points[-1], run.end.point)
    assert np.array_equal(run.directions[0], run.start.direction)
    for k, event in enumerate(run.events):
        assert event.time == run.times[k + 1]
        assert np.array_equal(event.point, run.points[k + 1])
        assert np.array_equal(event.incoming, run.incoming[k])
        assert np.array_equal(event.outgoing, run.directions[k + 1])
        assert event.active == run.active[k]
        assert event.kind is run.kinds[k]
    assert run.events is run.events  # built once


@pytest.mark.parametrize("runner", [simulate, simulate_unfolded])
def test_a_run_that_ends_before_its_first_hit_has_two_knots(runner):
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    run = runner(square, TrajectoryState((0.5, 0.5), (1.0, 0.0)), 0.25)
    assert run.times.shape == (2,) and run.points.shape == (2, 2)
    assert run.directions.shape == (1, 2) and run.incoming.shape == (0, 2)
    assert run.active == () and run.kinds == () and run.events == []
    assert run.n_bounces == 0
    assert np.array_equal(run.sample([0.0, 0.25]), run.points)


@pytest.mark.parametrize("runner", [simulate, simulate_unfolded])
def test_sample_at_the_knot_times_returns_the_knots(runner, rng):
    """Bit for bit at the start and at every hit. The end knot is the
    loop's own end state, which ``simulate_unfolded`` computes through its
    isometry, so it is not sampled here."""
    poly = random_polytope_3d(rng)
    run = runner(poly, random_interior_state(rng, poly), 8.0)
    assert run.n_bounces > 0
    assert np.array_equal(run.sample(run.times[:-1]), run.points[:-1])


def test_the_knot_arrays_are_read_only(rng):
    poly = random_polytope_3d(rng)
    run = simulate(poly, random_interior_state(rng, poly), 8.0)
    rows = (run.events[0].point, run.events[0].incoming, run.events[0].outgoing)
    for arr in (run.times, run.points, run.directions, run.incoming, *rows):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_time_reversal_returns_to_start(rng):
    for _ in range(10):
        poly = random_convex_polygon(rng)
        state = random_interior_state(rng, poly)
        forward = simulate(poly, state, 12.0)
        back = simulate(poly, forward.end.reversed(), 12.0)
        assert back.n_bounces == forward.n_bounces
        assert np.linalg.norm(back.end.point - state.point) < 1e-9
        assert np.linalg.norm(back.end.direction + state.direction) < 1e-9


# -- guards ------------------------------------------------------------------

def test_start_outside_rejected():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(OutsideTableError):
        simulate(square, TrajectoryState((2.0, 0.5), (0.0, 1.0)), 1.0)


def test_boundary_start_moving_outward_rejected():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(DegenerateStartError):
        simulate(square, TrajectoryState((0.5, 0.0), (0.1, -1.0)), 1.0)


def test_bounce_budget_enforced(monkeypatch):
    monkeypatch.setattr(dynamics, "default_bounce_budget", lambda p, h: 3)
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(BounceBudgetExceededError, match="budget 3 before"):
        simulate(square, TrajectoryState((0.25, 0.0), (0.0, 1.0)), 50.0)


def test_negative_horizon_rejected():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(InputError):
        simulate(square, TrajectoryState((0.5, 0.5), (1.0, 0.0)), -1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda sq: CornerPolicy.parse("bogus"),
                     "unknown corner policy 'bogus'; choose from "
                     "['strict', 'point-reflect', 'fold-group']", id="policy"),
        pytest.param(lambda sq: reflect_at(sq, (0.0, 0.5), (-1.0, 0.0), ()),
                     "reflect_at needs a nonempty active set", id="no-active"),
        pytest.param(lambda sq: advance_to_boundary(sq, (0.5, 0.5), (0.0, 0.0)),
                     "cannot normalize the zero vector", id="zero-direction"),
        pytest.param(lambda sq: simulate(
                         sq, TrajectoryState((0.5, 0.5, 0.5), (1.0, 0.0, 0.0)), 1.0),
                     "state and table dimensions differ", id="3d-state"),
        pytest.param(lambda sq: simulate_unfolded(
                         sq, TrajectoryState((0.5, 0.5, 0.5), (1.0, 0.0, 0.0)), 1.0),
                     "state and table dimensions differ", id="3d-state-unfolded"),
    ],
)
def test_bad_step_arguments_are_refused_with_their_message(call, message):
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(InputError) as info:
        call(square)
    assert type(info.value) is InputError
    assert str(info.value) == message


# the same guards hold for the unfolded loop, which validates at its own edge

def test_unfolded_start_outside_rejected():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(OutsideTableError):
        simulate_unfolded(square, TrajectoryState((2.0, 0.5), (0.0, 1.0)), 1.0)


def test_unfolded_boundary_start_moving_outward_rejected():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(DegenerateStartError):
        simulate_unfolded(
            square, TrajectoryState((0.5, 0.0), (0.1, -1.0)), 1.0
        )


def test_unfolded_bounce_budget_enforced(monkeypatch):
    monkeypatch.setattr(dynamics, "default_bounce_budget", lambda p, h: 3)
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(BounceBudgetExceededError, match="budget 3 before"):
        simulate_unfolded(square, TrajectoryState((0.25, 0.0), (0.0, 1.0)), 50.0)


def test_unfolded_negative_horizon_rejected():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(InputError):
        simulate_unfolded(square, TrajectoryState((0.5, 0.5), (1.0, 0.0)), -1.0)


@pytest.mark.parametrize("run", [simulate, simulate_unfolded])
def test_a_horizon_whose_bounce_budget_overflows_is_refused(run):
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    shot = TrajectoryState((0.5, 0.5), (1.0, 0.0))
    for horizon in (5e306, 1e308):  # 10 * (horizon + 1) * 4 facets > max float
        with pytest.raises(InputError) as info:
            run(square, shot, horizon)
        assert str(info.value) == (
            f"horizon {horizon} is too long: its bounce budget overflows"
        )


def test_unfolded_strict_policy_raises_on_corner_hit():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    shot = TrajectoryState((0.25, 0.25), (1.0, 1.0))
    with pytest.raises(CornerAmbiguousError) as info:
        simulate_unfolded(square, shot, 3.0, CornerPolicy.STRICT)
    assert np.allclose(info.value.point, [1.0, 1.0], atol=1e-12)
    assert info.value.active == (0, 2)


def _corner_shots():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    triangle = Polytope.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cube = Polytope.box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    quad = Polytope.convex_polygon([[0.0, 0.0], [1.3, 0.1], [1.1, 0.9], [0.2, 1.2]])
    x0 = quad.interior_point()
    return [
        (square, TrajectoryState((0.25, 0.25), (1.0, 1.0))),
        (triangle, TrajectoryState((0.25, 0.25), (-1.0, -1.0))),
        (cube, TrajectoryState((0.25, 0.25, 0.25), (1.0, 1.0, 1.0))),
        (quad, TrajectoryState(x0, quad.vertices[2] - x0)),
    ]


@pytest.mark.parametrize(
    "table, shot", _corner_shots(), ids=["square", "triangle", "cube", "quad"]
)
def test_unfolded_point_reflection_matches_simulate(table, shot):
    """Under POINT_REFLECT the unfolding oracle turns its isometry by the
    point reflection about each corner it meets; its run must be the one
    ``simulate`` integrates."""
    a = simulate(table, shot, 8.0, CornerPolicy.POINT_REFLECT)
    b = simulate_unfolded(table, shot, 8.0, CornerPolicy.POINT_REFLECT)
    assert a.active == b.active
    assert a.kinds == b.kinds
    assert BounceKind.CORNER in a.kinds
    assert np.abs(a.times - b.times).max() <= 1e-12
    assert np.abs(a.points - b.points).max() <= 1e-12


def test_the_unfolded_oracle_does_not_step_through_the_kernel(monkeypatch):
    """``simulate_unfolded`` and ``folded_flow`` reach their positions through
    the reflection group's action on the slacks, not through ``simulate``'s
    step kernel: with ``_advance`` and ``_resolve`` made to raise, they still
    give ``simulate``'s active sets and kinds, at corners too."""
    point_shots = [
        (table, shot, simulate(table, shot, 8.0, CornerPolicy.POINT_REFLECT))
        for table, shot in _corner_shots()
    ]
    alcove = standard_alcove("B3~")
    x0 = alcove.interior_point()
    fold_shots = [
        (shot, simulate(alcove, shot, 8.0, CornerPolicy.FOLD_GROUP))
        for shot in (TrajectoryState(x0, v - x0) for v in alcove.vertices)
    ]

    def refuse(*args):
        raise AssertionError("the oracle called simulate's step kernel")

    monkeypatch.setattr(dynamics, "_advance", refuse)
    monkeypatch.setattr(dynamics, "_resolve", refuse)
    for table, shot, want in point_shots:
        got = simulate_unfolded(table, shot, 8.0, CornerPolicy.POINT_REFLECT)
        assert (got.active, got.kinds) == (want.active, want.kinds)
    corners = 0
    for shot, want in fold_shots:
        got = folded_flow(alcove, shot, 8.0)
        assert (got.active, got.kinds) == (want.active, want.kinds)
        corners += got.kinds.count(BounceKind.CORNER)
    assert corners > 0


@pytest.mark.parametrize(
    "corners, start, aim, active",
    [
        (((10.0, 10.0), (11.0, 11.0)), (10.5, 10.5), (11.0, 11.0 - 5e-9), (0, 2)),
        (((10.0, 10.0), (11.0, 11.0)), (10.5, 10.5), (11.0, 11.0 - 3e-8), (0,)),
        (((0.0, 0.0), (1.0, 100.0)), (0.5, 0.5), (0.0, 5e-8), (1, 3)),
        (((0.0, 0.0), (1.0, 100.0)), (0.5, 0.5), (0.0, 3e-7), (1,)),
    ],
    ids=[
        "5e-09-BounceKind.CORNER",
        "3e-08-BounceKind.FACET",
        "long-5e-08-BounceKind.CORNER",
        "long-3e-07-BounceKind.FACET",
    ],
)
def test_both_loops_take_the_band_of_a_hit_far_from_the_origin(
    corners, start, aim, active
):
    """A hit's band is the table's, ``TOL.eps`` times its largest
    coordinate, wherever the hit lies. On the box [10, 11]^2 it is 1.1e-8,
    so a shot that meets the facet x = 11 at 5e-9 below the corner is a
    corner in both loops (and refused under ``STRICT``), and one at 3e-8
    below it a facet. On the box [0, 1] x [0, 100] it is 1e-7 at a hit near
    the origin too, where the hit's own size would give 1e-9: a shot that
    meets x = 0 at y = 5e-8 is the corner (1, 3), and one at y = 3e-7 the
    facet (1,)."""
    box = Polytope.box(*corners)
    shot = TrajectoryState(start, np.subtract(aim, start))
    kind = BounceKind.FACET if len(active) == 1 else BounceKind.CORNER
    want = simulate(box, shot, 3.0, CornerPolicy.POINT_REFLECT)
    for run in (simulate, simulate_unfolded):
        traj = run(box, shot, 3.0, CornerPolicy.POINT_REFLECT)
        first = traj.events[0]
        assert np.abs(first.point - aim).max() < 1e-12
        assert (first.active, first.kind) == (active, kind)
        assert (traj.active, traj.kinds) == (want.active, want.kinds)
        if kind is BounceKind.CORNER:
            with pytest.raises(CornerAmbiguousError):
                run(box, shot, 3.0, CornerPolicy.STRICT)
        else:
            assert run(box, shot, 3.0, CornerPolicy.STRICT).kinds[0] is kind


@pytest.mark.parametrize("run", [simulate, simulate_unfolded])
def test_fold_group_refuses_a_non_pi_over_m_corner_in_both_loops(run):
    triangle = Polytope.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
    start = triangle.interior_point()
    shot = TrajectoryState(start, np.array([1.0, 0.0]) - start)
    with pytest.raises(NotAnAlcoveError):
        run(triangle, shot, 3.0, CornerPolicy.FOLD_GROUP)
