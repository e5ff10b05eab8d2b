"""One-sided limits of the wedge reflection map and the ray-traced oracle."""

import math
import re
import warnings

import numpy as np
import pytest

from billiards.corner import limit_reflection, unfold_wedge
from billiards.errors import InputError


def _angdist(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


# -- the closed-form limit ---------------------------------------------------

def test_gap_vanishes_exactly_at_pi_over_k():
    for k in range(2, 21):
        limit = limit_reflection(math.pi / k)
        assert limit.continuous
        assert limit.gap <= 1e-12
        assert limit.m == k
        assert math.isclose(limit.beta, math.pi / (2.0 * k), abs_tol=1e-12)


def test_gap_grows_linearly_off_the_zeros():
    """Near alpha = pi/k the gap is exactly 2*k*|eps| (same bounce count,
    offset slope 2k+1 vs 1): an independent prediction for the curve shape."""
    e = 1e-3
    for k in range(2, 21):
        for sign in (+1.0, -1.0):
            limit = limit_reflection(math.pi / k + sign * e)
            assert not limit.continuous
            assert math.isclose(limit.gap, 2.0 * k * e, abs_tol=1e-9)


def test_beta_range_and_bounce_count():
    rng = np.random.default_rng(7)
    for _ in range(300):
        alpha = float(rng.uniform(0.05, math.pi - 0.05))
        limit = limit_reflection(alpha)
        assert 0.0 <= limit.beta < alpha
        assert limit.m == math.ceil(math.pi / alpha - 0.5 - 1e-12)
        assert limit.bounce_count == limit.m
        # outgoing angles are inside the closed wedge sector
        assert -1e-12 <= limit.outgoing_above <= alpha + 1e-12
        assert -1e-12 <= limit.outgoing_below <= alpha + 1e-12


def test_wedge_points_and_directions_are_tuples_of_floats():
    limit = limit_reflection(0.7)
    shot = unfold_wedge(0.7, 1e-3)
    assert type(shot.bounce_points) is tuple
    assert len(shot.bounce_points) == shot.bounce_count == limit.m
    for vec in (limit.direction_above, limit.direction_below, shot.start,
                shot.outgoing_direction, *shot.bounce_points):
        assert type(vec) is tuple
        assert [type(x) for x in vec] == [float, float]


def test_limit_rejects_bad_openings():
    for bad in (0.0, -0.3, math.pi, 4.0):
        with pytest.raises(InputError):
            limit_reflection(bad)


# -- the ray-traced oracle ---------------------------------------------------

def test_right_angle_wedge_is_a_retroreflector():
    """Two mirrors at 90 degrees reverse any bisector-parallel shot."""
    limit = limit_reflection(math.pi / 2.0)
    bis = math.pi / 4.0
    for offset in (0.3, 0.01, -0.2, -0.004):
        shot = unfold_wedge(math.pi / 2.0, offset)
        assert shot.bounce_count == 2
        assert _angdist(shot.outgoing_angle, bis) < 1e-12
    assert _angdist(limit.outgoing_above, bis) < 1e-12
    assert _angdist(limit.outgoing_below, bis) < 1e-12


def test_continuous_openings_send_both_sides_to_the_same_direction():
    for k in (2, 3, 5, 8):
        alpha = math.pi / k
        limit = limit_reflection(alpha)
        above = unfold_wedge(alpha, +1e-7)
        below = unfold_wedge(alpha, -1e-7)
        assert above.bounce_count == limit.bounce_count
        assert below.bounce_count == limit.bounce_count
        assert _angdist(above.outgoing_angle, below.outgoing_angle) < 1e-12
        assert _angdist(above.outgoing_angle, limit.outgoing_above) < 1e-12


def test_traced_shots_match_the_formula_on_random_openings():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(150):
        alpha = float(rng.uniform(0.08, math.pi - 0.08))
        limit = limit_reflection(alpha)
        # keep the offset clear of the formula's branch points
        for sign, want in (
            (+1.0, limit.outgoing_above),
            (-1.0, limit.outgoing_below),
        ):
            shot = unfold_wedge(alpha, sign * 1e-9)
            assert shot.bounce_count == limit.bounce_count
            worst = max(worst, _angdist(shot.outgoing_angle, want))
    assert worst < 1e-7


def test_wedge_shot_rejects_apex_aim_and_bad_opening():
    with pytest.raises(InputError):
        unfold_wedge(1.0, 0.0)
    with pytest.raises(InputError):
        unfold_wedge(0.0, 0.1)
    with pytest.raises(InputError):
        unfold_wedge(math.pi, 0.1)


@pytest.mark.parametrize("alpha", [0.7, math.pi / 3.0, 2.5])
@pytest.mark.parametrize("offset", [1e-300, -1e-300, 1e-200])
def test_wedge_shot_refuses_an_offset_that_reaches_the_apex(alpha, offset):
    """An offset below the apex guard (1e-13 of the start radius) runs into
    the apex on the first bounce."""
    with pytest.raises(InputError) as info:
        unfold_wedge(alpha, offset)
    assert str(info.value) == (
        "shot ran into the apex; offset is effectively zero at this scale"
    )


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_wedge_shot_refuses_a_non_finite_offset_up_front(offset):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no arithmetic may run on it
        with pytest.raises(InputError) as info:
            unfold_wedge(1.1, offset)
    assert str(info.value) == f"offset must be finite, got {offset}"


def test_wedge_shot_refuses_an_opening_it_cannot_trace_quickly():
    """A shot makes about pi/alpha bounces, so an opening with
    ceil(pi/alpha) above 100 000 is refused before any tracing; the closed
    form still answers for it."""
    alpha = 1e-3
    assert unfold_wedge(alpha, 1e-9).bounce_count == limit_reflection(alpha).m
    for alpha in (math.pi / 100_000.5, 1e-7, 1e-300):
        with pytest.raises(InputError, match=f"^wedge opening {alpha} is too small"):
            unfold_wedge(alpha, 1e-9)
        assert limit_reflection(alpha).m >= 100_000


def test_an_opening_whose_pi_over_alpha_overflows_is_refused():
    for run in (limit_reflection, lambda a: unfold_wedge(a, 1e-9)):
        with pytest.raises(InputError, match="pi/alpha overflows"):
            run(5e-324)


def test_wedge_shot_refuses_an_offset_whose_trace_overflows():
    """The count does not depend on the offset's size until the shot's
    crossing times would overflow; such an offset is refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for offset in (1e290, -1e290):
            assert unfold_wedge(1.0, offset).bounce_count == 3
        for offset in (1e308, -1e308, 4e307, 1e293):
            with pytest.raises(InputError, match=re.escape(f"offset {offset} is too large")):
                unfold_wedge(1.0, offset)


def test_discontinuous_example_two_pi_fifths():
    """Opening 2*pi/5: one bounce per face pair, the two sides exit along
    the two faces, so the jump equals the full opening."""
    alpha = 2.0 * math.pi / 5.0
    limit = limit_reflection(alpha)
    assert limit.m == 2
    assert limit.beta == 0.0
    assert not limit.continuous
    assert math.isclose(limit.gap, alpha, abs_tol=1e-15)
    above = unfold_wedge(alpha, +1e-8)
    below = unfold_wedge(alpha, -1e-8)
    assert _angdist(above.outgoing_angle, alpha) < 1e-7
    assert _angdist(below.outgoing_angle, 0.0) < 1e-7
