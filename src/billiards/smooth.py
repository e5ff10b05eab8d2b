"""Billiards in smooth strictly convex 2D tables at small base angle.

The *base angle* of a chord is the angle it makes with the boundary tangent
at its launch point. For a strictly convex table with curvature bounded
between positive constants, a trajectory launched at a small base angle
``alpha`` stays in a boundary layer: chord lengths are bounded below by a
constant times ``alpha``, the base angle changes by at most a constant times
``alpha^2`` per bounce, and the whole trajectory remains within a constant
times ``alpha^2`` of the boundary. On the unit circle everything is exact:
the angle is conserved, every chord has length ``2*sin(alpha)``, and the
sagitta (the deepest the chord dips away from the arc) is ``1 - cos(alpha)``.

Tables expose exact local geometry (point, tangent, curvature) and a
``ray_exit`` that refuses a ray not pointing into the table, and a tangent
ray, whose chord would be at the rounding level of its start point. It is
solved in closed form for the conics, and for the perturbed circle by a
safeguarded Newton on the implicit function with its analytic gradient:
started at the osculating circle's chord and kept inside a sign-change
bracket, it takes about five boundary evaluations per bounce and about ten
at most on any ray. Each table writes its boundary once, as ``frame``: the
point and velocity at a parameter, or elementwise at an array of them with
the same formulas and bits. A run evaluates one frame per chord, at the hit,
and launches the next chord from it. The experiment helpers run
bounce sequences across a ladder of launch angles and fit log-log slopes,
so the quadratic laws show up as measured exponents near two. A run's
distance from the boundary is measured by sampling every chord and
polishing all samples of the run in one array Newton for their nearest
boundary points (the circle's sagitta is exact).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .corner import _MAX_BOUNCES
from .errors import InputError

__all__ = [
    "SmoothTable",
    "Circle",
    "Ellipse",
    "PerturbedCircle",
    "ChordStep",
    "smooth_bounce",
    "BounceRun",
    "base_angle_run",
    "chord_deviation",
    "ConvergenceReport",
    "boundary_convergence_experiment",
    "LawsReport",
    "verify_base_angle_laws",
    "loglog_slope",
]


def _trig(theta):
    """The module whose ``cos``/``sin`` evaluate ``theta``: ``numpy`` for an
    array of parameters, ``math`` for one. Each table's ``frame`` is written
    once and serves a bounce and a batch alike; the tests check that the two
    give the same bits."""
    return np if isinstance(theta, np.ndarray) else math


def _checked_size(name: str, value) -> float:
    """``value`` as a float, refused unless it lies in [1e-100, 1e100]: a
    table of that size has curvatures that neither overflow nor underflow."""
    value = float(value)
    if not 1e-100 <= value <= 1e100:
        raise InputError(f"{name} must be in [1e-100, 1e100], got {value}")
    return value


def _check_side(side: int) -> None:
    if side not in (+1, -1):
        raise InputError("side must be +1 or -1")


def _check_base_angle(alpha: float) -> None:
    if not 0.0 < alpha < 0.5 * math.pi:
        raise InputError(f"base angle must be in (0, pi/2), got {alpha}")


def _launch(tangent: tuple[float, float], alpha: float, side: int) -> tuple:
    """The unit chord direction at base angle ``alpha`` from the unit
    tangent ``tangent``: :meth:`SmoothTable.launch_direction`, trusted."""
    tx, ty = tangent
    nx, ny = -ty, tx  # the inward normal
    ca, sa = math.cos(alpha), math.sin(alpha)
    return ca * side * tx + sa * nx, ca * side * ty + sa * ny


class SmoothTable:
    """Strictly convex planar table, boundary parametrized CCW by ``theta``.

    A table writes its boundary once, as :meth:`frame`: the point and the
    derivative of the parametrization at ``theta``, a float or an array of
    them. :meth:`point`, :meth:`velocity` and :meth:`tangent` read it. A
    table also gives ``curvature(theta)``, ``implicit(x, y)`` (negative
    inside, zero on the boundary, positive outside), ``theta_of_point(x,
    y)`` and ``_exit_distance``, and may override :meth:`_deviations`.
    """

    name = "table"

    def point(self, theta) -> tuple:
        """Boundary point at ``theta``; elementwise for an array of thetas."""
        x, y, _, _ = self.frame(theta)
        return x, y

    def velocity(self, theta) -> tuple:
        """Derivative of the parametrization (not normalized); elementwise
        for an array of thetas."""
        _, _, vx, vy = self.frame(theta)
        return vx, vy

    def tangent(self, theta: float) -> tuple[float, float]:
        """Unit tangent at ``theta``, pointing the way ``theta`` grows."""
        return _unit_frame(self, theta)[2:]

    def ray_exit(self, px: float, py: float, dx: float, dy: float) -> float:
        """Distance along the inward ray from a boundary point to the next
        boundary hit. A ray that does not point into the table is refused
        with ``InputError``, and so is a tangent ray. Rounding leaves a
        tangent ray's slope into the table at zero, outward or just inward;
        in the last case its chord is at the rounding level of the start
        point (at most 4 ulps of ``|p|``), and such a chord is refused."""
        t = self._exit_distance(px, py, dx, dy)
        if t <= 4.0 * math.ulp(math.hypot(px, py)):
            raise InputError(f"ray leaves the {self.name} immediately")
        return t

    def _deviations(self, p0, p1, theta0, theta1) -> list[float]:
        """Largest distance to the boundary of each chord ``p0[i] ->
        p1[i]`` (arrays of points and of their parameters), by
        :func:`_chord_deviations`; the circle overrides it with its exact
        sagitta."""
        return _chord_deviations(self, p0, p1, theta0, theta1)

    def launch_direction(
        self, theta: float, alpha: float, side: int = +1
    ) -> tuple[float, float]:
        """Unit chord direction at base angle ``alpha``, traveling CCW for
        ``side=+1`` and CW for ``side=-1``."""
        _check_side(side)
        return _launch(self.tangent(theta), alpha, side)


def _unit_frame(table: SmoothTable, theta: float) -> tuple:
    """The boundary point and the unit tangent at ``theta``, ``(x, y, tx,
    ty)``, from one :meth:`SmoothTable.frame`: where a chord starts."""
    x, y, vx, vy = table.frame(theta)
    norm = math.hypot(vx, vy)
    return x, y, vx / norm, vy / norm


class Circle(SmoothTable):
    name = "circle"

    def __init__(self, radius: float = 1.0):
        self.radius = _checked_size("radius", radius)

    def frame(self, theta):
        trig = _trig(theta)
        x, y = self.radius * trig.cos(theta), self.radius * trig.sin(theta)
        return x, y, -y, x

    def curvature(self, theta):
        return 1.0 / self.radius

    def implicit(self, x, y):
        return math.hypot(x, y) - self.radius

    def _exit_distance(self, px, py, dx, dy):
        pd = px * dx + py * dy
        if pd >= 0.0:
            raise InputError("ray leaves the circle immediately")
        return -2.0 * pd  # second root of |p + t d|^2 = R^2 from the boundary

    def theta_of_point(self, x, y):
        return math.atan2(y, x)

    def _deviations(self, p0, p1, theta0, theta1):
        """The exact sagitta: the deepest point of a chord is its closest
        approach to the center."""
        devs = []
        for x0, y0, x1, y1 in zip(*p0.T.tolist(), *p1.T.tolist()):
            ux, uy = x1 - x0, y1 - y0
            norm = math.hypot(ux, uy)
            if norm < 1e-300:
                devs.append(0.0)
                continue
            squared = norm * norm
            if squared >= sys.float_info.min:
                t = -(x0 * ux + y0 * uy) / squared
            else:
                # the square of a chord this short underflows: project onto
                # the chord's unit direction instead
                t = -(x0 * (ux / norm) + y0 * (uy / norm)) / norm
            t = max(0.0, min(1.0, t))
            devs.append(self.radius - math.hypot(x0 + t * ux, y0 + t * uy))
        return devs


class Ellipse(SmoothTable):
    name = "ellipse"

    def __init__(self, a: float = 1.5, b: float = 1.0):
        self.a = _checked_size("semi-axis a", a)
        self.b = _checked_size("semi-axis b", b)

    def frame(self, theta):
        trig = _trig(theta)
        c, s = trig.cos(theta), trig.sin(theta)
        return self.a * c, self.b * s, -self.a * s, self.b * c

    def curvature(self, theta):
        s, c = math.sin(theta), math.cos(theta)
        return (
            self.a
            * self.b
            / (self.a**2 * s * s + self.b**2 * c * c) ** 1.5
        )

    def implicit(self, x, y):
        return (x / self.a) ** 2 + (y / self.b) ** 2 - 1.0

    def _exit_distance(self, px, py, dx, dy):
        qa = (dx / self.a) ** 2 + (dy / self.b) ** 2
        qb = 2.0 * (px * dx / self.a**2 + py * dy / self.b**2)
        qc = (px / self.a) ** 2 + (py / self.b) ** 2 - 1.0
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0 or qb >= 0.0:
            raise InputError("ray leaves the ellipse immediately")
        return (-qb + math.sqrt(disc)) / (2.0 * qa)

    def theta_of_point(self, x, y):
        return math.atan2(y / self.b, x / self.a)


class PerturbedCircle(SmoothTable):
    """Polar curve ``r(theta) = 1 + delta * cos(k * theta)``; strictly convex
    exactly when ``|delta| * (1 + k^2) < 1``, which construction requires.

    With ``c = cos(k * theta)`` the curvature's numerator ``r^2 + 2 r'^2 - r
    r''`` is ``1 + 2 delta^2 k^2 + delta (2 + k^2) c + delta^2 (1 - k^2)
    c^2``, concave in ``c``, so its least value over ``[-1, 1]`` is at ``c =
    +-1``: ``(1 +- delta) (1 +- delta (1 + k^2))``. The condition also keeps
    ``r`` positive and refuses a non-finite ``delta``. ``k`` is at most
    2^53, the last integer that ``k * theta`` carries exactly as a float.
    """

    name = "perturbed-circle"

    def __init__(self, delta: float = 0.05, k: int = 3):
        self.delta = float(delta)
        self.k = int(k)
        if not 1 <= self.k <= 2**53:
            raise InputError(f"harmonic k must be in [1, 2**53], got {k}")
        if not abs(self.delta) * (1 + self.k**2) < 1.0:
            raise InputError(
                f"delta must satisfy |delta| * (1 + k^2) < 1 for a strictly "
                f"convex table, got delta={delta} with k={k}"
            )

    def frame(self, theta):
        trig = _trig(theta)
        k_theta = self.k * theta
        r = 1.0 + self.delta * trig.cos(k_theta)
        r1 = -self.delta * self.k * trig.sin(k_theta)
        c, s = trig.cos(theta), trig.sin(theta)
        return r * c, r * s, r1 * c - r * s, r1 * s + r * c

    def curvature(self, theta):
        k_theta = self.k * theta
        r = 1.0 + self.delta * math.cos(k_theta)
        r1 = -self.delta * self.k * math.sin(k_theta)
        r2 = -self.delta * self.k * self.k * math.cos(k_theta)
        return (r * r + 2.0 * r1 * r1 - r * r2) / (r * r + r1 * r1) ** 1.5

    def implicit(self, x, y):
        r = 1.0 + self.delta * math.cos(self.k * math.atan2(y, x))
        return math.hypot(x, y) - r

    def _implicit_gradient(self, x, y):
        """``implicit(x, y)`` and its gradient ``(x, y) / rho + r'(phi) (y,
        -x) / rho^2``, in polar ``(rho, phi)``: one boundary evaluation of
        :meth:`ray_exit`."""
        rho = math.hypot(x, y)
        k_phi = self.k * math.atan2(y, x)
        # the frame's r' and r written out: this is the solver's inner loop
        r1 = -self.delta * self.k * math.sin(k_phi) / (rho * rho)
        r = 1.0 + self.delta * math.cos(k_phi)
        return rho - r, x / rho + r1 * y, y / rho - r1 * x

    def _exit_distance(self, px, py, dx, dy):
        """Safeguarded Newton on ``g(t) = implicit(p + t d)`` (Numerical
        Recipes' ``rtsafe``), started at the osculating circle's chord ``2
        sin(alpha) / curvature``. The sign of ``g`` keeps a bracket ``[lo,
        hi]``; a Newton step that leaves it, that more than doubles ``t``, or
        that fails to halve ``|g|``, is replaced by a bisection, or by
        doubling ``t`` while ``hi`` is unbounded. The search stops on a
        Newton step of at most 1e-14, a bracket of width at most 1e-13, or
        ``|g|`` at the rounding floor (one ulp of the radius, about 2.2e-16),
        tested in that order. Below a base angle of about 1e-4 ``g`` is
        rounding noise near the root, and the bracket or the floor ends the
        search."""
        _, gx, gy = self._implicit_gradient(px, py)
        slope = gx * dx + gy * dy
        if not slope < 0.0:
            raise InputError(f"ray leaves the {self.name} immediately")
        sin_alpha = -slope / math.hypot(gx, gy)
        t = 2.0 * sin_alpha / self.curvature(math.atan2(py, px))
        lo, hi, g_last = 0.0, math.inf, math.inf
        for _ in range(200):
            g, gx, gy = self._implicit_gradient(px + t * dx, py + t * dy)
            if g > 0.0:
                hi = t
            else:
                lo = t
            slope = gx * dx + gy * dy
            step = g / slope if slope else math.inf
            # the stopping rule comes first: a run converging from below
            # would otherwise see ``t - step`` round onto ``lo`` and double
            if abs(step) <= 1e-14:
                return t - step
            if hi - lo <= 1e-13:
                return 0.5 * (lo + hi)
            # |g| at the rounding floor: bisecting further only walks the
            # bracket down through rounding noise
            if abs(g) <= 2.3e-16:
                return t
            t_next = t - step
            if lo < t_next < hi and t_next <= 2.0 * t and abs(g) <= 0.5 * g_last:
                g_last = abs(g)
            else:
                t_next = 2.0 * t if hi == math.inf else 0.5 * (lo + hi)
                g_last = math.inf
            t = t_next
        raise InputError(f"ray found no boundary of the {self.name}")

    def theta_of_point(self, x, y):
        return math.atan2(y, x)


# -- bounce map -------------------------------------------------------------


@dataclass(frozen=True)
class ChordStep:
    theta: float
    theta_next: float
    alpha: float
    alpha_next: float
    chord: float
    point: tuple[float, float]
    point_next: tuple[float, float]
    direction: tuple[float, float]


def _chord(
    table: SmoothTable, theta: float, alpha: float, side: int, frame: tuple
) -> tuple:
    """One chord of the billiard map from ``frame``, the boundary point and
    unit tangent ``(x, y, tx, ty)`` at ``theta``, at base angle ``alpha`` on
    ``side``: the trusted kernel of :func:`smooth_bounce` and
    :func:`base_angle_run`, which check ``alpha`` and ``side``.

    Returns the chord's direction and length, the hit, ``theta_next``,
    ``alpha_next`` and the frame at ``theta_next``, from which the next
    chord starts. ``table.ray_exit`` still refuses a ray that does not point
    into the table."""
    px, py, tx, ty = frame
    dx, dy = _launch((tx, ty), alpha, side)
    chord = table.ray_exit(px, py, dx, dy)
    qx, qy = px + chord * dx, py + chord * dy
    theta_next = table.theta_of_point(qx, qy)
    # unwrap so the parameter advances with the travel sense (the raw value
    # from atan2 jumps by 2*pi at the branch cut)
    if side > 0:
        theta_next = theta + (theta_next - theta) % (2.0 * math.pi)
    else:
        theta_next = theta - (theta - theta_next) % (2.0 * math.pi)
    frame = _unit_frame(table, theta_next)
    cos_next = max(-1.0, min(1.0, side * (dx * frame[2] + dy * frame[3])))
    return (dx, dy), chord, (qx, qy), theta_next, math.acos(cos_next), frame


def smooth_bounce(
    table: SmoothTable, theta: float, alpha: float, side: int = +1
) -> ChordStep:
    """One chord of the billiard map in base-angle coordinates: ``alpha``
    and ``side`` are checked, then the chord is the one that
    :func:`base_angle_run` steps through, with the same bits."""
    _check_base_angle(alpha)
    _check_side(side)
    frame = _unit_frame(table, theta)
    direction, chord, point_next, theta_next, alpha_next, _ = _chord(
        table, theta, alpha, side, frame
    )
    return ChordStep(
        theta=theta,
        theta_next=theta_next,
        alpha=alpha,
        alpha_next=alpha_next,
        chord=chord,
        point=frame[:2],
        point_next=point_next,
        direction=direction,
    )


@dataclass
class BounceRun:
    table_name: str
    side: int
    thetas: np.ndarray       # length n+1
    alphas: np.ndarray       # length n+1
    chords: np.ndarray       # length n
    points: np.ndarray       # (n+1, 2)

    @property
    def n_bounces(self) -> int:
        return len(self.chords)


def base_angle_run(
    table: SmoothTable,
    theta0: float,
    alpha0: float,
    n_bounces: int,
    side: int = +1,
) -> BounceRun:
    """Iterate the chord map ``n_bounces`` times from ``(theta0, alpha0)``.

    ``alpha0`` and ``side`` are checked once, as :func:`smooth_bounce`
    checks them; each bounce then steps through the same chord kernel, with
    the same bits as chained :func:`smooth_bounce` calls, carrying each
    hit's frame into the next launch. A run whose base angle leaves (0,
    pi/2) is refused with ``InputError`` naming the table, the launch angle,
    the bounce and the angle reached.
    """
    theta, alpha = float(theta0), float(alpha0)
    _check_base_angle(alpha)
    _check_side(side)
    frame = _unit_frame(table, theta)
    thetas, alphas, chords, points = [theta], [alpha], [], [frame[:2]]
    for k in range(n_bounces):
        if k and not 0.0 < alpha < 0.5 * math.pi:
            raise InputError(
                f"the {table.name} run launched at base angle {alphas[0]!r} "
                f"reached base angle {alpha!r} after bounce {k}, outside "
                f"(0, pi/2)"
            )
        _, chord, hit, theta, alpha, frame = _chord(
            table, theta, alpha, side, frame
        )
        thetas.append(theta)
        alphas.append(alpha)
        chords.append(chord)
        points.append(hit)
    return BounceRun(
        table_name=table.name,
        side=side,
        thetas=np.array(thetas),
        alphas=np.array(alphas),
        chords=np.array(chords),
        points=np.array(points),
    )


_SAMPLES = np.linspace(0.0, 1.0, 17)


def _chord_deviations(
    table: SmoothTable,
    p0: np.ndarray,
    p1: np.ndarray,
    theta0: np.ndarray,
    theta1: np.ndarray,
) -> list[float]:
    """Largest distance to the boundary of each chord ``p0[i] -> p1[i]``.

    Each chord is sampled at 17 points, with the chord's parameters
    interpolated as starting guesses. One masked Newton then finds the
    nearest boundary parameter of every sample of every chord at once, on
    ``f(theta) = (point(theta) - sample) . velocity(theta)`` with the
    acceleration by forward difference (step ``1e-6``). A sample stops after
    12 steps, on ``f' == 0`` (without stepping) or on a step below ``1e-14``.
    Each chord's largest sample distance is refined by the parabola through
    it and its two neighbours.
    """
    n = len(theta0)
    x = p0[:, :1] + _SAMPLES * (p1[:, :1] - p0[:, :1])
    y = p0[:, 1:] + _SAMPLES * (p1[:, 1:] - p0[:, 1:])
    theta = theta0[:, None] + _SAMPLES * (theta1 - theta0)[:, None]
    x, y, theta = x.ravel(), y.ravel(), theta.ravel()
    h = 1e-6
    live = np.arange(theta.size)
    for _ in range(12):
        t = theta[live]
        px, py, vx, vy = table.frame(t)
        _, _, vx2, vy2 = table.frame(t + h)
        ax, ay = (vx2 - vx) / h, (vy2 - vy) / h
        ex, ey = px - x[live], py - y[live]
        f = ex * vx + ey * vy
        fp = vx * vx + vy * vy + ex * ax + ey * ay
        moving = fp != 0.0
        live = live[moving]
        step = f[moving] / fp[moving]
        theta[live] = t[moving] - step
        live = live[~(np.abs(step) < 1e-14)]
        if not live.size:
            break
    px, py, _, _ = table.frame(theta)
    # math.hypot, not np.hypot: the two differ in the last bit
    dists = np.fromiter(
        map(math.hypot, px - x, py - y), float, count=x.size
    ).reshape(n, len(_SAMPLES))
    k = np.argmax(dists, axis=1)
    top = dists[np.arange(n), k].tolist()
    # the vertex of the parabola through an inner top sample and its two
    # neighbours, on Python floats: their ``** 2`` is C's pow, which an
    # array's square does not match in the last bit
    rows = np.flatnonzero((k > 0) & (k < len(_SAMPLES) - 1))
    lows = dists[rows, k[rows] - 1].tolist()
    highs = dists[rows, k[rows] + 1].tolist()
    for row, y0, y2 in zip(rows.tolist(), lows, highs):
        y1 = top[row]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            top[row] = y1 - 0.125 * (y2 - y0) ** 2 / denom
    return top


def chord_deviation(
    table: SmoothTable,
    p0: tuple[float, float],
    p1: tuple[float, float],
    theta0: float,
    theta1: float,
) -> float:
    """Largest distance from the chord ``p0 -> p1`` to the boundary set.

    For the circle this is the exact sagitta (center-to-chord geometry); for
    other tables it is the array Newton that measures a whole run, over this
    one chord's samples, with a parabolic refinement of the max.
    """
    return table._deviations(
        np.array([p0], dtype=float),
        np.array([p1], dtype=float),
        np.array([theta0], dtype=float),
        np.array([theta1], dtype=float),
    )[0]


def _worst_chord_deviation(table: SmoothTable, run: BounceRun) -> float:
    """The largest :func:`chord_deviation` over the chords of a run."""
    devs = table._deviations(
        run.points[:-1], run.points[1:], run.thetas[:-1], run.thetas[1:]
    )
    return max([0.0, *devs])


# the launch angles a laws or convergence run uses unless given others
LAUNCH_ANGLES = (0.04, 0.02, 0.01, 0.005, 0.0025)


def _ladder(table: SmoothTable, alphas, theta0: float):
    """The launch angles from the largest down, as an array, and a generator
    of one full-loop run from ``theta0`` per angle, in that order.

    An angle outside (0, pi/2), NaN among them, is refused with
    ``InputError``, and so is an angle whose run would make more than
    ``_MAX_BOUNCES`` bounces (the cap of a wedge shot), and a ladder of fewer
    than two distinct angles, through which no slope can be fitted.
    """
    alphas = np.asarray(sorted(alphas, reverse=True), dtype=float)
    if not all(0.0 < a < 0.5 * math.pi for a in alphas.tolist()):
        raise InputError("launch angles must lie in (0, pi/2)")
    smallest = float(alphas[-1])
    if math.pi / smallest > _MAX_BOUNCES:
        raise InputError(
            f"launch angle {smallest} is too small: a full loop makes more "
            f"than {_MAX_BOUNCES} bounces"
        )
    if len(set(alphas.tolist())) < 2:
        raise InputError(
            f"a fitted slope needs two distinct launch angles, got {alphas.tolist()}"
        )
    runs = (
        base_angle_run(table, theta0, float(alpha), int(math.ceil(math.pi / alpha)))
        for alpha in alphas
    )
    return alphas, runs


def loglog_slope(xs, ys) -> float:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


@dataclass
class ConvergenceReport:
    table_name: str
    alphas: np.ndarray
    max_deviations: np.ndarray
    deviation_slope: float
    circle_predictions: np.ndarray | None  # 1 - cos(alpha), circle only
    max_prediction_error: float | None


def boundary_convergence_experiment(
    table: SmoothTable,
    alphas,
    theta0: float = 0.1,
) -> ConvergenceReport:
    """Measure how close small-angle trajectories hug the boundary.

    For each launch angle the run's largest chord deviation is recorded; the
    log-log slope across the ladder is the measured exponent of the
    boundary-layer law (2 in theory). On the circle the deviation is also
    compared with the exact sagitta ``1 - cos(alpha)``.
    """
    alphas, runs = _ladder(table, alphas, theta0)
    devs = np.array([_worst_chord_deviation(table, run) for run in runs])
    if isinstance(table, Circle):
        predictions = table.radius * (1.0 - np.cos(alphas))
        max_err = float(np.max(np.abs(devs - predictions)))
    else:
        predictions, max_err = None, None
    return ConvergenceReport(
        table_name=table.name,
        alphas=alphas,
        max_deviations=devs,
        deviation_slope=loglog_slope(alphas, devs),
        circle_predictions=predictions,
        max_prediction_error=max_err,
    )


@dataclass
class LawsReport:
    table_name: str
    alphas: np.ndarray
    max_increments: np.ndarray        # max positive base-angle change per run
    increment_slope: float            # ~2: increments scale like alpha^2
    min_chord_ratio: np.ndarray       # min chord/alpha per run
    chord_constant: float             # overall lower bound on chord/alpha
    max_deviations: np.ndarray
    deviation_slope: float            # ~2: boundary layer scales like alpha^2
    angle_spread: np.ndarray          # max |alpha_k - alpha_0| per run


def verify_base_angle_laws(
    table: SmoothTable,
    alphas=LAUNCH_ANGLES,
    theta0: float = 0.1,
) -> LawsReport:
    """Run full-loop bounce sequences across an angle ladder and measure the
    small-angle laws: linear chords, quadratic increments, quadratic
    boundary layer."""
    alphas, runs = _ladder(table, alphas, theta0)
    max_incs, min_ratio, devs, spreads = [], [], [], []
    for alpha, run in zip(alphas, runs):
        inc = np.diff(run.alphas)
        max_incs.append(float(np.max(inc)))
        min_ratio.append(float(np.min(run.chords / run.alphas[:-1])))
        spreads.append(float(np.max(np.abs(run.alphas - alpha))))
        devs.append(_worst_chord_deviation(table, run))
    max_incs = np.array(max_incs)
    min_ratio = np.array(min_ratio)
    devs = np.array(devs)
    return LawsReport(
        table_name=table.name,
        alphas=alphas,
        max_increments=max_incs,
        increment_slope=loglog_slope(alphas, max_incs),
        min_chord_ratio=min_ratio,
        chord_constant=float(np.min(min_ratio)),
        max_deviations=devs,
        deviation_slope=loglog_slope(alphas, devs),
        angle_spread=np.array(spreads),
    )
