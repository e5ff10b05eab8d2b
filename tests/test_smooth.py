"""Smooth strictly convex tables: chords, base angles, small-angle laws."""

import math
import re
import warnings

import numpy as np
import pytest

from billiards.corner import unfold_wedge
from billiards.errors import InputError
from billiards.smooth import (
    Circle,
    Ellipse,
    PerturbedCircle,
    _chord_deviations,
    base_angle_run,
    boundary_convergence_experiment,
    chord_deviation,
    smooth_bounce,
    verify_base_angle_laws,
)

TABLES = [Circle(1.0), Ellipse(2.0, 1.0), PerturbedCircle(0.05, 3)]


# -- parametrization plumbing ------------------------------------------------

@pytest.mark.parametrize("table", TABLES, ids=lambda t: type(t).__name__)
def test_boundary_points_satisfy_the_implicit_equation(table):
    for theta in np.linspace(0.0, 2.0 * math.pi, 37):
        x, y = table.point(theta)
        assert abs(table.implicit(x, y)) < 1e-12


@pytest.mark.parametrize("table", TABLES, ids=lambda t: type(t).__name__)
def test_theta_of_point_inverts_point(table):
    for theta in np.linspace(0.1, 2.0 * math.pi - 0.1, 23):
        x, y = table.point(theta)
        back = table.theta_of_point(x, y)
        bx, by = table.point(back)
        assert math.hypot(bx - x, by - y) < 1e-9


@pytest.mark.parametrize("table", TABLES, ids=lambda t: type(t).__name__)
def test_ray_exit_lands_on_the_boundary(table):
    rng = np.random.default_rng(5)
    for _ in range(100):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        alpha = rng.uniform(0.05, 1.2)
        px, py = table.point(theta)
        dx, dy = table.launch_direction(theta, alpha, +1)
        t = table.ray_exit(px, py, dx, dy)
        assert t > 1e-9
        assert abs(table.implicit(px + t * dx, py + t * dy)) < 1e-9


@pytest.mark.parametrize("table", TABLES, ids=lambda t: type(t).__name__)
@pytest.mark.parametrize("ray", ["outward", "tangent"])
def test_ray_exit_refuses_a_ray_that_does_not_point_inward(table, ray):
    """A tangent ray's slope into the table is zero up to rounding; at
    ``theta = 0.7`` each of these tables rounds it to zero or outward."""
    px, py = table.point(0.7)
    if ray == "outward":
        tx, ty = table.tangent(0.7)
        dx, dy = ty, -tx  # the outward normal
    else:
        dx, dy = table.tangent(0.7)
    with pytest.raises(InputError, match=f"ray leaves the {table.name} immediately"):
        table.ray_exit(px, py, dx, dy)


@pytest.mark.parametrize(
    "table, theta, side",
    [(Ellipse(2.0, 1.0), 2.0, +1), (PerturbedCircle(0.05, 3), 0.7, -1),
     (Circle(1.0), 0.263631815907954, +1)],
    ids=lambda x: type(x).__name__ if isinstance(x, (Circle, Ellipse, PerturbedCircle)) else str(x),
)
def test_a_tangent_ray_that_rounding_tips_inward_is_refused(table, theta, side):
    """Rounding gives these tangent rays a slope just into the table, and
    the solvers a chord at the rounding level of the start point (1.9e-16,
    1.4e-16 and 1.1e-16), which ``ray_exit`` refuses."""
    px, py = table.point(theta)
    tx, ty = table.tangent(theta)
    dx, dy = side * tx, side * ty
    chord = table._exit_distance(px, py, dx, dy)
    assert 0.0 < chord <= 4.0 * math.ulp(math.hypot(px, py))
    with pytest.raises(InputError, match=f"ray leaves the {table.name} immediately"):
        table.ray_exit(px, py, dx, dy)


def _bisection_ray_exit(table, px, py, dx, dy):
    """The perturbed circle's former root finder: bracket the sign change of
    ``implicit`` by doubling from 1e-9, then bisect to 1e-13."""
    t_lo, t_hi, t = 0.0, None, 1e-9
    for _ in range(120):
        if table.implicit(px + t * dx, py + t * dy) > 0.0:
            t_hi = t
            break
        t_lo = t
        t *= 2.0
        if t > 8.0:
            break
    assert t_hi is not None
    for _ in range(100):
        mid = 0.5 * (t_lo + t_hi)
        if table.implicit(px + mid * dx, py + mid * dy) > 0.0:
            t_hi = mid
        else:
            t_lo = mid
        if t_hi - t_lo < 1e-13:
            break
    return 0.5 * (t_lo + t_hi)


@pytest.mark.parametrize(
    "delta, k", [(0.05, 3), (-0.05, 3), (0.009, 10), (0.3, 1), (0.0005, 40)]
)
def test_perturbed_ray_exit_agrees_with_bisection(delta, k):
    """The safeguarded Newton finds the bisection's chord to within its
    1e-13 bracket plus the rounding noise of ``implicit`` (about 1e-16)
    divided by the slope ``sin(alpha)``, and lands on the boundary."""
    table = PerturbedCircle(delta, k)
    rng = np.random.default_rng(806)
    for side in (+1, -1):
        for _ in range(150):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            alpha = math.exp(rng.uniform(math.log(1e-4), math.log(1.55)))
            px, py = table.point(theta)
            dx, dy = table.launch_direction(theta, alpha, side)
            t = table.ray_exit(px, py, dx, dy)
            t_old = _bisection_ray_exit(table, px, py, dx, dy)
            assert abs(t - t_old) <= 2e-13 + 1e-15 / math.sin(alpha)
            assert abs(table.implicit(px + t * dx, py + t * dy)) <= 1e-14


def test_perturbed_ray_exit_evaluates_the_boundary_a_few_times(monkeypatch):
    """About 5 boundary evaluations per bounce; bisection to 1e-13 took 64."""
    table = PerturbedCircle(0.05, 3)
    calls = [0]

    def counted(method):
        def wrapper(*args):
            calls[0] += 1
            return method(*args)

        return wrapper

    for name in ("implicit", "_implicit_gradient"):
        monkeypatch.setattr(table, name, counted(getattr(table, name)))
    for alpha in (0.04, 0.02, 0.01):
        calls[0] = 0
        n = int(math.ceil(math.pi / alpha))
        base_angle_run(table, 0.1, alpha, n)
        assert calls[0] / n <= 10.0


def test_perturbed_ray_exit_stops_at_the_rounding_floor():
    """No ray takes more than 12 boundary evaluations. Newton converging
    from outside the table leaves ``lo`` at 0; once ``|g|`` sits at one ulp
    it no longer halves, and bisecting ``[0, hi]`` down to 1e-13 took up to
    36 evaluations on these launches before the search stopped at the
    rounding floor."""
    for delta, k in ((0.05, 3), (0.01, 5), (0.002, 20), (-0.05, 3)):
        table = PerturbedCircle(delta, k)
        calls = [0]
        gradient = table._implicit_gradient

        def counted(x, y):
            calls[0] += 1
            return gradient(x, y)

        table._implicit_gradient = counted
        rng = np.random.default_rng(807)
        worst = 0
        for _ in range(3000):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            alpha = math.exp(rng.uniform(math.log(1e-6), math.log(1.55)))
            side = int(rng.choice([+1, -1]))
            px, py = table.point(theta)
            dx, dy = table.launch_direction(theta, alpha, side)
            calls[0] = 0
            table.ray_exit(px, py, dx, dy)
            worst = max(worst, calls[0])
        assert worst <= 12, (delta, k, worst)


def test_curvature_positive_everywhere():
    for table in TABLES:
        for theta in np.linspace(0.0, 2.0 * math.pi, 73):
            assert table.curvature(theta) > 1e-6


def test_overly_wavy_perturbation_rejected():
    with pytest.raises(InputError):
        PerturbedCircle(0.2, 5)  # curvature changes sign


@pytest.mark.parametrize(
    "cls, args, name",
    [
        pytest.param(PerturbedCircle, (-1.0, 2), "delta", id="radius-reaches-0"),
        pytest.param(PerturbedCircle, (1.5, 1), "delta", id="radius-below-0"),
        pytest.param(PerturbedCircle, (math.nan, 3), "delta", id="delta-nan"),
        pytest.param(PerturbedCircle, (math.inf, 3), "delta", id="delta-inf"),
        # curvature -2.9e4 between samples of a grid of 720 angles
        pytest.param(PerturbedCircle, (0.05, 720), "delta", id="k-aliases"),
        pytest.param(PerturbedCircle, (0.05, 10**200), "harmonic k", id="k-huge"),
        pytest.param(PerturbedCircle, (0.05, 0), "harmonic k", id="k-0"),
        pytest.param(Circle, (0.0,), "radius", id="radius-0"),
        pytest.param(Circle, (1e101,), "radius", id="radius-1e101"),
        pytest.param(Circle, (math.nan,), "radius", id="radius-nan"),
        pytest.param(Ellipse, (1e200, 1.0), "semi-axis a", id="a-1e200"),
        pytest.param(Ellipse, (1e-200, 1.0), "semi-axis a", id="a-1e-200"),
        pytest.param(Ellipse, (1.0, math.inf), "semi-axis b", id="b-inf"),
        pytest.param(Ellipse, (1.0, -1.0), "semi-axis b", id="b-negative"),
    ],
)
def test_smooth_tables_refuse_what_they_are_not(cls, args, name):
    with pytest.raises(InputError, match=name):
        cls(*args)


def test_a_launch_side_other_than_plus_or_minus_one_is_refused():
    with pytest.raises(InputError, match=r"^side must be \+1 or -1$"):
        Circle(1.0).launch_direction(0.0, 0.1, side=0)


def test_perturbed_circle_convexity_condition_is_exact():
    """``|delta| * (1 + k^2) < 1`` against the curvature on a fine grid."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 20001)
    for k in (1, 2, 3, 7, 20):
        edge = 1.0 / (1 + k * k)
        for delta in (0.9 * edge, -0.9 * edge):
            table = PerturbedCircle(delta, k)
            assert min(table.curvature(t) for t in thetas) > 0.0
        for delta in (1.1 * edge, -1.1 * edge):
            with pytest.raises(InputError, match="delta"):
                PerturbedCircle(delta, k)
            r = 1.0 + delta * np.cos(k * thetas)
            r1 = -delta * k * np.sin(k * thetas)
            r2 = -delta * k * k * np.cos(k * thetas)
            assert (r * r + 2.0 * r1 * r1 - r * r2).min() < 0.0


def test_smooth_table_sizes_at_the_ends_of_the_range_build():
    for size in (1e-100, 1e100):
        assert Circle(size).curvature(0.0) == 1.0 / size
        assert 0.0 < Ellipse(size, 1.0).curvature(0.3) < math.inf


# -- the circle is exactly solvable ------------------------------------------

def test_circle_bounce_is_exact():
    """On a circle of radius R a chord at base angle a subtends 2a, has
    length 2 R sin a, and leaves the base angle unchanged."""
    circle = Circle(1.3)
    for alpha in (0.7, 0.2, 0.03):
        step = smooth_bounce(circle, 0.4, alpha, +1)
        assert math.isclose(
            step.theta_next - step.theta, 2.0 * alpha, abs_tol=1e-12
        )
        assert math.isclose(
            step.chord, 2.0 * 1.3 * math.sin(alpha), abs_tol=1e-12
        )
        assert math.isclose(step.alpha_next, alpha, abs_tol=1e-12)


def test_circle_run_conserves_the_base_angle():
    # conservation is exact; rounding drifts ~1e-15 per bounce over 400 steps
    run = base_angle_run(Circle(1.0), 0.1, 0.01, 400)
    assert np.max(np.abs(run.alphas - 0.01)) < 1e-11


def test_circle_chord_deviation_is_the_sagitta():
    circle = Circle(1.0)
    alpha = 0.05
    step = smooth_bounce(circle, 0.0, alpha, +1)
    dev = chord_deviation(
        circle, step.point, step.point_next, step.theta, step.theta_next
    )
    assert math.isclose(dev, 1.0 - math.cos(alpha), abs_tol=1e-14)


def test_circle_chord_deviation_of_a_chord_whose_square_underflows():
    """A chord of length 1e-170 squares to 0.0; its sagitta is still the
    depth of its closest approach to the center."""
    circle = Circle(1.0)
    assert chord_deviation(circle, (1.0, 0.0), (1.0, 1e-170), 0.0, 1e-170) == 0.0
    dev = chord_deviation(circle, (0.5, -1e-170), (0.5, 1e-170), 0.0, 0.0)
    assert dev == 0.5


# -- parameter advance and the branch cut ------------------------------------

@pytest.mark.parametrize("table", TABLES, ids=lambda t: type(t).__name__)
def test_theta_advances_monotonically_across_the_cut(table):
    theta, alpha = 2.0 * math.pi - 0.05, 0.1
    thetas = [theta]
    for _ in range(30):
        step = smooth_bounce(table, theta, alpha, +1)
        theta, alpha = step.theta_next, step.alpha_next
        thetas.append(theta)
    diffs = np.diff(thetas)
    assert np.all(diffs > 0.0)
    assert np.all(diffs < math.pi)


def test_negative_side_runs_clockwise():
    run = base_angle_run(Ellipse(2.0, 1.0), 1.0, 0.1, 50, side=-1)
    assert np.all(np.diff(run.thetas) < 0.0)


def test_bounce_points_stay_on_the_boundary():
    table = PerturbedCircle(0.05, 3)
    run = base_angle_run(table, 0.3, 0.02, 300)
    for x, y in run.points:
        assert abs(table.implicit(x, y)) < 1e-9


# -- the small-angle laws ----------------------------------------------------

def test_ellipse_laws_have_quadratic_exponents():
    report = verify_base_angle_laws(Ellipse(2.0, 1.0), (0.04, 0.02, 0.01))
    assert 1.8 <= report.increment_slope <= 2.2
    assert 1.8 <= report.deviation_slope <= 2.2
    assert report.chord_constant > 0.5


def test_perturbed_laws_have_quadratic_exponents():
    report = verify_base_angle_laws(PerturbedCircle(0.05, 3), (0.04, 0.02, 0.01))
    assert 1.8 <= report.increment_slope <= 2.2
    assert 1.8 <= report.deviation_slope <= 2.2
    assert report.chord_constant > 0.5


def test_circle_increments_are_identically_zero():
    report = verify_base_angle_laws(Circle(1.0), (0.04, 0.02, 0.01))
    assert np.max(report.max_increments) < 1e-13
    assert report.chord_constant > 1.9  # chord/alpha -> 2R


def test_circle_convergence_matches_the_closed_form():
    report = boundary_convergence_experiment(Circle(1.0), (0.02, 0.01, 0.005))
    assert report.max_prediction_error is not None
    assert report.max_prediction_error < 1e-12
    assert np.all(np.diff(report.max_deviations) < 0.0)


def test_ellipse_deviation_below_1e4_at_milli_angle():
    """A full-perimeter run at launch angle 1e-3 hugs the boundary to 1e-4."""
    table = Ellipse(2.0, 1.0)
    n = int(math.ceil(math.pi / 1e-3))
    run = base_angle_run(table, 0.1, 1e-3, n)
    worst = 0.0
    for k in range(run.n_bounces):
        dev = chord_deviation(
            table,
            tuple(run.points[k]),
            tuple(run.points[k + 1]),
            run.thetas[k],
            run.thetas[k + 1],
        )
        worst = max(worst, dev)
    assert worst < 1e-4


# -- the array Newton against a scalar one -----------------------------------

def _scalar_chord_deviation(table, p0, p1, theta0, theta1):
    """A chord's deviation measured one sample at a time: each of 17 samples
    gets its own scalar Newton for the nearest boundary parameter, then the
    largest distance gets a parabolic refinement."""
    samples = 17
    devs = []
    for s in np.linspace(0.0, 1.0, samples):
        x = p0[0] + s * (p1[0] - p0[0])
        y = p0[1] + s * (p1[1] - p0[1])
        theta = theta0 + s * (theta1 - theta0)
        for _ in range(12):
            px, py = table.point(theta)
            vx, vy = table.velocity(theta)
            h = 1e-6
            vx2, vy2 = table.velocity(theta + h)
            ax, ay = (vx2 - vx) / h, (vy2 - vy) / h
            f = (px - x) * vx + (py - y) * vy
            fp = vx * vx + vy * vy + (px - x) * ax + (py - y) * ay
            if fp == 0.0:
                break
            step = f / fp
            theta -= step
            if abs(step) < 1e-14:
                break
        px, py = table.point(theta)
        devs.append(math.hypot(px - x, py - y))
    devs = np.array(devs)
    k = int(np.argmax(devs))
    if 0 < k < samples - 1:
        y0, y1, y2 = devs[k - 1], devs[k], devs[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            return float(y1 - 0.125 * (y2 - y0) ** 2 / denom)
    return float(devs[k])


def _scalar_chords(table, run):
    return [
        _scalar_chord_deviation(
            table, tuple(run.points[k]), tuple(run.points[k + 1]),
            run.thetas[k], run.thetas[k + 1],
        )
        for k in range(run.n_bounces)
    ]


OVALS = [Ellipse(2.0, 1.0), PerturbedCircle(0.05, 3)]


@pytest.mark.parametrize("table", OVALS, ids=lambda t: type(t).__name__)
@pytest.mark.parametrize("theta0", [0.1, 2.0, 4.5])
def test_worst_deviation_equals_a_scalar_newton_per_sample(table, theta0):
    """Polishing every sample of a run in one array Newton changes no bit of
    the measured boundary layer."""
    alphas = (0.04, 0.02, 0.01)
    report = boundary_convergence_experiment(table, alphas, theta0=theta0)
    expected = []
    for alpha in report.alphas:
        run = base_angle_run(table, theta0, alpha, int(math.ceil(math.pi / alpha)))
        expected.append(max([0.0, *_scalar_chords(table, run)]))
    assert report.max_deviations.tolist() == expected


@pytest.mark.parametrize("table", OVALS, ids=lambda t: type(t).__name__)
def test_chord_deviation_is_the_kernel_on_one_chord(table):
    run = base_angle_run(table, 0.7, 0.03, 120)
    kernel = _chord_deviations(
        table, run.points[:-1], run.points[1:], run.thetas[:-1], run.thetas[1:]
    )
    single = [
        chord_deviation(
            table, tuple(run.points[k]), tuple(run.points[k + 1]),
            run.thetas[k], run.thetas[k + 1],
        )
        for k in range(run.n_bounces)
    ]
    assert single == kernel == _scalar_chords(table, run)


def test_rejects_flat_and_reversed_launch_angles():
    with pytest.raises(InputError):
        smooth_bounce(Circle(1.0), 0.0, 0.0, +1)
    with pytest.raises(InputError):
        smooth_bounce(Circle(1.0), 0.0, math.pi / 2.0, +1)


@pytest.mark.parametrize(
    "experiment", [verify_base_angle_laws, boundary_convergence_experiment]
)
@pytest.mark.parametrize(
    "alphas, message",
    [
        ((math.nan,), "launch angles must lie in (0, pi/2)"),
        ((0.02, math.nan), "launch angles must lie in (0, pi/2)"),
        ((0.02, 0.0), "launch angles must lie in (0, pi/2)"),
        ((0.02, math.pi / 2.0), "launch angles must lie in (0, pi/2)"),
        ((0.01,), "a fitted slope needs two distinct launch angles, got [0.01]"),
        ((0.02, 0.02), "a fitted slope needs two distinct launch angles"),
    ],
)
def test_a_ladder_that_fits_no_slope_is_refused(experiment, alphas, message):
    """NaN, an angle outside (0, pi/2), and a ladder of one distinct angle,
    through which numpy would fit a line with a RankWarning, are refused
    before any run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as info:
            experiment(Circle(1.0), alphas)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "experiment", [verify_base_angle_laws, boundary_convergence_experiment]
)
@pytest.mark.parametrize(
    "alphas, smallest",
    [
        ((1e-5, 2e-5), 1e-5),
        ((0.02, math.pi / 100_000.5), math.pi / 100_000.5),
        ((1e-300, 0.02), 1e-300),
    ],
)
def test_a_launch_angle_over_the_bounce_cap_is_refused(experiment, alphas, smallest):
    """A run makes ceil(pi/alpha) bounces and keeps each point, so an angle
    whose ceil(pi/alpha) is above the 100000 bounces a wedge shot may make is
    refused before any run, as the wedge tracer refuses it."""
    message = (
        f"launch angle {smallest} is too small: a full loop makes more than "
        "100000 bounces"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            experiment(Circle(1.0), alphas)
        with pytest.raises(InputError, match="a shot makes more than 100000 bounces"):
            unfold_wedge(smallest, 1e-9)


@pytest.mark.parametrize(
    "table, alpha, reached",
    [
        (Ellipse(300.0, 1.0), 0.04, "3.13688362641436"),
        (Ellipse(1000.0, 1.0), 0.04, "3.11750757942743"),
        (Circle(1.0), 1e-9, "0.0"),
    ],
)
def test_a_run_that_leaves_the_base_angle_range_is_refused_in_context(
    table, alpha, reached
):
    """A thin ellipse's first chord crosses the table, and on the circle a
    tiny angle rounds to zero: the refusal names the run and the bounce."""
    with pytest.raises(InputError) as info:
        base_angle_run(table, 0.1, alpha, 10)
    assert str(info.value) == (
        f"the {table.name} run launched at base angle {alpha!r} reached base "
        f"angle {reached} after bounce 1, outside (0, pi/2)"
    )
