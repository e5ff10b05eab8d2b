"""Minimal SVG rendering: 2D table outlines with trajectories, wedge fans.

The renderer is deliberately tiny and dependency-free: world-coordinate
primitives are collected in a :class:`Scene`, then mapped to pixel space
with a y-flip (SVG's y axis points down).  All numbers are printed with a
fixed format so identical inputs give identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

__all__ = ["Scene", "trajectory_svg", "wedge_fan_svg"]


def _fmt(x: float) -> str:
    return format(float(x), ".6f")


class Scene:
    """Collects world-space primitives and renders them to SVG text."""

    def __init__(self):
        self._elements: list[tuple] = []
        self._xs: list[float] = []
        self._ys: list[float] = []

    def _track(self, pts) -> None:
        for x, y in pts:
            self._xs.append(float(x))
            self._ys.append(float(y))

    def polygon(self, pts) -> None:
        pts = [(float(p[0]), float(p[1])) for p in pts]
        self._track(pts)
        self._elements.append(("polygon", pts, "#1f3b73", 2.0))

    def polyline(self, pts, stroke="#c0392b", width=1.5) -> None:
        pts = [(float(p[0]), float(p[1])) for p in pts]
        self._track(pts)
        self._elements.append(("polyline", pts, stroke, width))

    def segment(self, a, b, stroke, width) -> None:
        self.polyline([a, b], stroke=stroke, width=width)

    def dot(self, p, radius_px=3.0, fill="#2c3e50") -> None:
        p = (float(p[0]), float(p[1]))
        self._track([p])
        self._elements.append(("dot", p, radius_px, fill))

    def to_svg(self) -> str:
        width_px = 640.0
        if not self._xs:
            raise InputError("nothing to draw")
        xmin, xmax = min(self._xs), max(self._xs)
        ymin, ymax = min(self._ys), max(self._ys)
        span_x = max(xmax - xmin, 1e-9)
        span_y = max(ymax - ymin, 1e-9)
        margin = 0.05 * max(span_x, span_y)
        scale = width_px / (span_x + 2.0 * margin)
        height_px = (span_y + 2.0 * margin) * scale

        def to_px(p):
            x = (p[0] - xmin + margin) * scale
            y = (ymax + margin - p[1]) * scale
            return x, y

        parts = [
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(width_px)}" height="{_fmt(height_px)}" '
            f'viewBox="0 0 {_fmt(width_px)} {_fmt(height_px)}">\n'
        ]
        for element in self._elements:
            kind = element[0]
            if kind in ("polygon", "polyline"):
                _, pts, stroke, width = element
                coords = " ".join(
                    f"{_fmt(px)},{_fmt(py)}" for px, py in map(to_px, pts)
                )
                parts.append(
                    f'  <{kind} points="{coords}" fill="none" '
                    f'stroke="{stroke}" stroke-width="{_fmt(width)}" '
                    'stroke-linejoin="round" stroke-linecap="round"/>\n'
                )
            else:
                _, p, radius_px, fill = element
                px, py = to_px(p)
                parts.append(
                    f'  <circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                    f'r="{_fmt(radius_px)}" fill="{fill}"/>\n'
                )
        parts.append("</svg>\n")
        return "".join(parts)


def _ordered_boundary(table) -> np.ndarray:
    """Closed boundary loop of a 2D table as an (k, 2) array."""
    from .geometry import Polytope, ccw_order
    from .smooth import SmoothTable

    if isinstance(table, Polytope):
        if table.dim != 2:
            raise InputError("SVG output needs a 2D table")
        return ccw_order(table.vertices)
    if isinstance(table, SmoothTable):
        thetas = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
        return np.array([table.point(t) for t in thetas])
    raise InputError("SVG output needs a 2D table")


def trajectory_svg(table, trajectory) -> str:
    """Table outline, trajectory polyline, and dots at the bounce points."""
    scene = Scene()
    boundary = _ordered_boundary(table)
    scene.polygon(boundary)
    scene.polyline(trajectory.points)
    for hit in trajectory.points[1:-1]:
        scene.dot(hit)
    scene.dot(trajectory.points[0], radius_px=4.0, fill="#27ae60")
    return scene.to_svg()


def wedge_fan_svg(limit, shot) -> str:
    """The unfolded fan of a wedge of opening ``limit.alpha``.

    Mirror images of the wedge faces are drawn as rays at angles ``k*alpha``;
    the folded billiard path (polyline through the bounce points) is overlaid
    with the straight line it unfolds to.
    """
    alpha = limit.alpha
    start = np.asarray(shot.start, dtype=float)
    reach = float(np.linalg.norm(start))
    ray_len = 1.2 * reach
    scene = Scene()
    for k in range(limit.m + 1):
        angle = k * alpha
        tip = (ray_len * math.cos(angle), ray_len * math.sin(angle))
        scene.segment((0.0, 0.0), tip, stroke="#7f8c8d", width=1.0)
    # the two physical faces of the wedge, heavier
    scene.segment((0.0, 0.0), (ray_len, 0.0), stroke="#1f3b73", width=2.5)
    scene.segment(
        (0.0, 0.0),
        (ray_len * math.cos(alpha), ray_len * math.sin(alpha)),
        stroke="#1f3b73",
        width=2.5,
    )
    # unfolded straight line: the shot travels antiparallel to the bisector
    bisector = np.array([math.cos(0.5 * alpha), math.sin(0.5 * alpha)])
    far = start - 2.0 * reach * bisector
    scene.polyline(
        [(start[0], start[1]), (far[0], far[1])],
        stroke="#e67e22",
        width=1.2,
    )
    # folded path inside the wedge
    path = [start] + [np.asarray(p) for p in shot.bounce_points]
    tail = path[-1] + 0.8 * reach * np.asarray(shot.outgoing_direction)
    path.append(tail)
    scene.polyline(path, stroke="#c0392b", width=1.8)
    for p in shot.bounce_points:
        scene.dot(p)
    return scene.to_svg()
