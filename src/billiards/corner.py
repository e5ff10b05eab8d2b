"""Limiting behavior of billiards at a planar corner of opening ``alpha``.

Shoot a family of parallel trajectories along the angle bisector of a wedge,
offset by ``delta`` to either side, and shrink the offset. The number of
bounces stabilizes at ``m``, the smallest integer with
``(1/2 + m) * alpha >= pi``, and the outgoing direction converges to a
one-sided limit determined by ``beta = (1/2 + m) * alpha - pi``: measured
from the lower face it is ``beta`` on one side and ``alpha - beta`` on the
other (which is which swaps with the parity of ``m``). The two one-sided
limits agree exactly when ``beta = alpha / 2``, i.e. when ``alpha = pi / m``:
at those angles, and only at those angles, the corner scatters continuously
and the trajectory returns along the bisector.

``limit_reflection`` evaluates the closed form. ``unfold_wedge`` is a direct
ray tracer in the wedge, sharing no formulas with the closed form beyond
elementary trigonometry, so the two can check each other. Both work on
Python floats, and return points and directions as ``(x, y)`` tuples, so
that importing this module loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import TOL
from .errors import InputError

__all__ = ["WedgeLimit", "WedgeShot", "limit_reflection", "unfold_wedge"]


# the most bounces unfold_wedge traces, and the most a smooth-table ladder
# runs per launch angle: both make about pi/alpha of them
_MAX_BOUNCES = 100_000


def _checked_opening(alpha) -> float:
    """``alpha`` as a float in (0, pi) whose ``pi / alpha`` is finite."""
    alpha = float(alpha)
    if not 0.0 < alpha < math.pi:
        raise InputError(f"wedge opening must be in (0, pi), got {alpha}")
    if not math.isfinite(math.pi / alpha):
        raise InputError(f"wedge opening {alpha} is too small: pi/alpha overflows")
    return alpha


@dataclass(frozen=True)
class WedgeLimit:
    """One-sided limits of the corner map at opening ``alpha``.

    Angles are measured from the lower face of the wedge ``{0 <= arg <= alpha}``.
    ``above`` refers to trajectories offset toward the upper face.
    """

    alpha: float
    m: int
    beta: float
    gap: float
    continuous: bool
    outgoing_above: float
    outgoing_below: float
    direction_above: tuple[float, float]
    direction_below: tuple[float, float]
    bounce_count: int


def _closed_form(alpha: float) -> tuple[int, float, float, bool, float, float]:
    """``m``, ``beta``, ``gap``, whether the limit is continuous (its gap
    is at most ``TOL.gap``) and the outgoing angles above and below at a
    checked opening ``alpha``, on Python floats: the one formula of the
    limit, which ``limit_reflection`` wraps and a sweep reads directly."""
    m = math.ceil(math.pi / alpha - 0.5 - 1e-12)
    beta = max((m + 0.5) * alpha - math.pi, 0.0)
    gap = abs(alpha - 2.0 * beta)
    above = alpha - beta if m % 2 == 0 else beta
    return m, beta, gap, gap <= TOL.gap, above, alpha - above


def limit_reflection(alpha: float) -> WedgeLimit:
    """Closed-form corner limit for a wedge of opening ``alpha`` in (0, pi);
    the limit is continuous when its gap is at most ``TOL.gap``."""
    alpha = _checked_opening(alpha)
    m, beta, gap, continuous, above, below = _closed_form(alpha)
    return WedgeLimit(
        alpha=alpha,
        m=m,
        beta=beta,
        gap=gap,
        continuous=continuous,
        outgoing_above=above,
        outgoing_below=below,
        direction_above=(math.cos(above), math.sin(above)),
        direction_below=(math.cos(below), math.sin(below)),
        bounce_count=m,
    )


@dataclass(frozen=True)
class WedgeShot:
    """Result of tracing one bisector-parallel shot at finite offset; points
    and directions are ``(x, y)`` tuples of floats."""

    alpha: float
    offset: float
    start: tuple[float, float]
    bounce_points: tuple[tuple[float, float], ...]
    bounce_count: int
    outgoing_direction: tuple[float, float]
    outgoing_angle: float


def unfold_wedge(alpha: float, offset: float) -> WedgeShot:
    """Trace a single shot aimed at the corner, offset off the bisector.

    The wedge is ``{0 <= arg(p) <= alpha}``; the shot travels antiparallel
    to the bisector, displaced by the signed perpendicular ``offset``
    (positive toward the upper face). Bounces are computed by intersecting
    rays with the two faces; the trace ends when no forward face crossing
    remains and the shot escapes. A shot makes about ``pi / alpha`` bounces,
    so an opening with more than 100 000 is refused, as is an offset whose
    crossing times overflow.
    """
    alpha = _checked_opening(alpha)
    offset = float(offset)
    if math.pi / alpha > _MAX_BOUNCES:
        raise InputError(
            f"wedge opening {alpha} is too small to trace: a shot makes more "
            f"than {_MAX_BOUNCES} bounces"
        )
    if not math.isfinite(offset):
        raise InputError(f"offset must be finite, got {offset}")
    if offset == 0.0:
        raise InputError("offset 0 aims exactly at the apex; the hit is ambiguous")
    bx, by = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    # a-priori bound on how far from the apex any face crossing can sit
    k_max = math.ceil(math.pi / alpha) + 2
    sines = [
        abs(math.sin(k * alpha - alpha / 2.0))
        for k in range(1, k_max + 1)
        if 0.0 < k * alpha - alpha / 2.0 < math.pi
    ]
    s_min = min(sines) if sines else math.sin(alpha / 2.0)
    if s_min < 1e-13:
        raise InputError(
            "shot geometry is degenerate: a face crossing sits "
            "asymptotically far out (opening at a parity boundary)"
        )
    start_radius = max(1.0, 4.0 * abs(offset) / s_min)
    # a crossing time divides a coordinate, at most start_radius + |offset|,
    # by a direction component down to 1e-15
    if not math.isfinite(1e16 * (start_radius + abs(offset))):
        raise InputError(
            f"offset {offset} is too large: the shot's crossing times overflow"
        )
    # start_radius along the bisector (bx, by) plus offset along its left
    # normal (-by, bx)
    start = (start_radius * bx + offset * -by, start_radius * by + offset * bx)
    p = start
    d = (-bx, -by)
    cap = math.ceil(math.pi / alpha) + 10
    apex_guard = 1e-13 * start_radius
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    bounces: list[tuple[float, float]] = []
    while True:
        candidates: list[tuple[float, int]] = []
        if d[1] < -1e-15:
            t0 = -p[1] / d[1]
            x_hit = p[0] + t0 * d[0]
            if t0 > 0.0 and x_hit > -apex_guard:
                candidates.append((t0, 0))
        # upper face in coordinates rotated so it becomes the x-axis
        px = cos_a * p[0] + sin_a * p[1]
        py = -sin_a * p[0] + cos_a * p[1]
        dx = cos_a * d[0] + sin_a * d[1]
        dy = -sin_a * d[0] + cos_a * d[1]
        if dy > 1e-15:
            t1 = -py / dy
            x_hit = px + t1 * dx
            if t1 > 0.0 and x_hit > -apex_guard:
                candidates.append((t1, 1))
        if not candidates:
            break
        t, face = min(candidates)
        p = (p[0] + t * d[0], p[1] + t * d[1])
        if math.hypot(p[0], p[1]) <= apex_guard:
            raise InputError(
                "shot ran into the apex; offset is effectively zero at this scale"
            )
        if face == 0:
            d = (d[0], -d[1])
        else:
            ddx = cos_a * d[0] + sin_a * d[1]
            ddy = -(-sin_a * d[0] + cos_a * d[1])
            d = (cos_a * ddx - sin_a * ddy, sin_a * ddx + cos_a * ddy)
        bounces.append(p)
        if len(bounces) > cap:
            raise InputError(
                f"wedge trace exceeded {cap} bounces; geometry degenerate"
            )
    theta = math.atan2(d[1], d[0])
    if theta < 0.0:
        theta += 2.0 * math.pi
    return WedgeShot(
        alpha=alpha,
        offset=offset,
        start=start,
        bounce_points=tuple(bounces),
        bounce_count=len(bounces),
        outgoing_direction=d,
        outgoing_angle=theta,
    )
