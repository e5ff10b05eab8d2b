"""Shared random-geometry generators used across the test-suite.

Everything is driven by explicit ``numpy`` generators seeded per test, so
failures reproduce exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from billiards.config import TOL
from billiards.dynamics import TrajectoryState
from billiards.geometry import Polytope


def random_convex_polygon(rng, n_min: int = 3, n_max: int = 8,
                          scale: float = 1.0) -> Polytope:
    """A convex polygon with vertices on a circle (always valid, all extreme).

    A minimum angular gap keeps edges from degenerating; the circle trick
    guarantees convexity without a hull computation.
    """
    k = int(rng.integers(n_min, n_max + 1))
    # the rejection test runs on Python floats, which give numpy's bits for
    # a sort, differences and comparisons at a fraction of the call cost
    for _ in range(1000):
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi, k).tolist())
        ends = angles[1:] + [angles[0] + 2.0 * math.pi]
        gaps = [b - a for a, b in zip(angles, ends)]
        if min(gaps) > 0.15 and max(gaps) < math.pi - 0.15:
            break
    else:  # pragma: no cover - the loop above virtually always succeeds
        raise AssertionError("could not sample a well-separated polygon")
    radius = scale * rng.uniform(0.7, 1.5)
    center = rng.uniform(-0.3, 0.3, 2)
    angles = np.array(angles)
    pts = center + radius * np.column_stack((np.cos(angles), np.sin(angles)))
    return Polytope.convex_polygon(pts)


def random_triangle(rng, scale: float = 1.0) -> Polytope:
    return random_convex_polygon(rng, n_min=3, n_max=3, scale=scale)


def random_polytope_3d(rng) -> Polytope:
    """Hull of random points on a sphere (every sample is a vertex)."""
    for _ in range(100):
        k = int(rng.integers(8, 16))
        pts = rng.normal(size=(k, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(0.8, 1.4)
        try:
            return Polytope.from_point_cloud(pts)
        except Exception:
            continue
    raise AssertionError("could not sample a valid 3D polytope")


def random_interior_state(rng, polytope: Polytope) -> TrajectoryState:
    """A start well inside the table with a random unit direction."""
    weights = rng.dirichlet(np.ones(len(polytope.vertices)))
    point = weights @ polytope.vertices
    point = 0.7 * point + 0.3 * polytope.interior_point()
    direction = rng.normal(size=polytope.dim)
    while np.linalg.norm(direction) < 1e-6:  # pragma: no cover
        direction = rng.normal(size=polytope.dim)
    return TrajectoryState(point, direction)


def start_cases(rng):
    """Seeded ``(table, point, direction)`` starts of one step, on polygons
    and hulls at unit scale and at scale 40 and on a 5D box. The points lie
    inside the table, on a facet, at a corner, and off a facet by a fraction
    or a multiple of the table's band ``TOL.eps * table.scale``, inward and
    outward; on a 3D box, a facet's slack is exactly the band or minus it. The
    directions point inward, along the facet, out through it, at a rate
    just either side of ``TOL.tangential``, and at random."""
    tables = [
        random_convex_polygon(rng),
        random_convex_polygon(rng, scale=40.0),
        random_polytope_3d(rng),
        Polytope.from_point_cloud(40.0 * random_polytope_3d(rng).vertices),
        Polytope.box(-np.arange(1.0, 6.0), np.linspace(20.0, 30.0, 5)),
    ]
    for table in tables:
        normals, dim = table.normals, table.dim
        band = TOL.eps * table.scale
        inside = rng.dirichlet(np.ones(len(table.vertices))) @ table.vertices
        inside = 0.7 * inside + 0.3 * table.interior_point()
        for k in rng.choice(table.n_facets, size=3, replace=False).tolist():
            n = normals[k]
            ends = table.vertices[list(table.facet_vertices[k])]
            on_facet = rng.dirichlet(np.ones(len(ends))) @ ends
            points = [inside, on_facet, ends[0]]
            points += [on_facet + m * band * n
                       for m in (-2.0, -1.01, -0.99, -0.5, 0.5, 0.99, 1.01, 2.0)]
            t = rng.normal(size=dim)
            t -= t.dot(n) * n  # along the facet
            directions = [-n + 0.3 * t, t, n + 0.3 * t, rng.normal(size=dim),
                          t + 0.5 * TOL.tangential * np.linalg.norm(t) * n,
                          t + 2.0 * TOL.tangential * np.linalg.norm(t) * n,
                          inside - ends[0], ends[0] - inside]
            for p in points:
                for d in directions:
                    yield table, p, d
    # a start whose slack on facet 0 is exactly minus or plus the band, as
    # x[0] is 0 and the box's scale is 9
    x, band = np.array([0.0, 3.0, -4.0]), TOL.eps * 9.0
    for top in (band, -band):
        box = Polytope.box([-1.0, -9.0, -9.0], [top, 9.0, 9.0])
        assert box.scale == 9.0
        for d in ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 1e-11, 0.0],
                  [0.0, 1.0, 1.0], rng.normal(size=3)):
            yield box, x, np.array(d)


def random_tetrahedron_vertices(rng) -> np.ndarray:
    """Four Gaussian points with volume bounded away from zero."""
    while True:
        verts = rng.normal(size=(4, 3))
        vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
        if vol > 0.02:
            return verts


def random_acute_triple(rng) -> tuple[float, float, float]:
    """Edge lengths of an acute triangle (perturbed equilateral, rescaled)."""
    scale = rng.uniform(0.5, 3.0)
    a, b, c = scale * (1.0 + rng.uniform(-0.1, 0.1, 3))
    return float(a), float(b), float(c)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250823)
