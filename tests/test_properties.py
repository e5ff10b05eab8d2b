"""Property-based invariants: reflection, polarity, folding, geodesics, reversal."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from billiards.alcove import fold_point, standard_alcove
from billiards.dynamics import CornerPolicy, TrajectoryState, simulate
from billiards.errors import VertexHitError
from billiards.geometry import Polytope, is_polar, reflect
from billiards.surface import tetrahedron_mesh, trace_surface_geodesic

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def vectors_with_normal(draw):
    dim = draw(st.integers(2, 4))
    v = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
    raw = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
    assume(np.linalg.norm(v) > 1e-3)
    assume(np.linalg.norm(raw) > 1e-3)
    return v, raw / np.linalg.norm(raw)


@st.composite
def circle_polygons(draw):
    n = draw(st.integers(3, 7))
    gaps = np.array(draw(st.lists(st.floats(0.15, 1.2), min_size=n, max_size=n)))
    angles = np.cumsum(gaps) / gaps.sum() * 2.0 * math.pi
    radius = draw(st.floats(0.5, 2.0))
    points = radius * np.c_[np.cos(angles), np.sin(angles)]
    return Polytope.convex_polygon(points)


@st.composite
def boundary_polar_cases(draw):
    poly = draw(circle_polygons())
    facet = draw(st.integers(0, 100)) % poly.n_facets
    a, b = poly.facet_vertices[facet]
    t = draw(st.floats(0.05, 0.95))
    point = (1.0 - t) * poly.vertices[a] + t * poly.vertices[b]
    normal = poly.normals[facet]
    directions = []
    for _ in range(2):
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        w = np.array([math.cos(angle), math.sin(angle)])
        # fold into the tangent halfspace at a facet-interior point
        if w @ normal > 0.0:
            w = reflect(w, normal)
        directions.append(w)
    return poly, point, directions[0], directions[1]


@st.composite
def folded_points(draw):
    label = draw(st.sampled_from(["A1~", "A2~", "C2~", "G2~", "A3~"]))
    poly = standard_alcove(label)
    x = np.array(
        draw(
            st.lists(
                st.floats(-6.0, 6.0), min_size=poly.dim, max_size=poly.dim
            )
        )
    )
    return poly, x

@st.composite
def tetra_geodesics(draw):
    coords = draw(st.lists(finite, min_size=12, max_size=12))
    pts = np.array(coords).reshape(4, 3)
    volume = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
    assume(volume > 0.05)
    mesh = tetrahedron_mesh(pts)
    face = mesh.faces[0]
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3)))
    start = weights @ mesh.vertices[list(face)] / weights.sum()
    e1 = mesh.vertices[face[1]] - mesh.vertices[face[0]]
    e2 = mesh.vertices[face[2]] - mesh.vertices[face[0]]
    e1 = e1 / np.linalg.norm(e1)
    e2 -= (e2 @ e1) * e1
    e2 = e2 / np.linalg.norm(e2)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    direction = math.cos(angle) * e1 + math.sin(angle) * e2
    horizon = draw(st.floats(1.0, 5.0))
    return mesh, start, direction, horizon


@st.composite
def reversal_runs(draw):
    poly = draw(circle_polygons())
    k = len(poly.vertices)
    weights = np.array(
        draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    )
    point = weights @ poly.vertices / weights.sum()
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    direction = np.array([math.cos(angle), math.sin(angle)])
    horizon = draw(st.floats(0.5, 4.0))
    return poly, TrajectoryState(point, direction), horizon


@given(case=vectors_with_normal())
@settings(max_examples=200, deadline=None)
def test_reflection_is_an_involution_and_an_isometry(case):
    v, normal = case
    once = reflect(v, normal)
    assert np.allclose(reflect(once, normal), v, atol=1e-12)
    assert math.isclose(
        np.linalg.norm(once), np.linalg.norm(v), rel_tol=1e-12
    )
    # the normal component flips sign, the tangential part is untouched
    assert math.isclose(once @ normal, -(v @ normal), abs_tol=1e-12)


@given(case=boundary_polar_cases())
@settings(max_examples=100, deadline=None)
def test_polarity_is_symmetric_in_the_two_directions(case):
    poly, point, u, v = case
    assert is_polar(poly, point, u, v) == is_polar(poly, point, v, u)


@given(case=folded_points())
@settings(max_examples=60, deadline=None)
def test_fold_point_is_idempotent(case):
    poly, x = case
    y, word = fold_point(poly, x)
    assert poly.contains(y)
    again, second_word = fold_point(poly, y)
    assert second_word == []
    assert np.allclose(again, y, atol=1e-12)


@given(case=tetra_geodesics())
@settings(max_examples=60, deadline=None)
def test_surface_geodesics_unfold_to_straight_lines(case):
    mesh, start, direction, horizon = case
    try:
        geo = trace_surface_geodesic(mesh, 0, start, direction, horizon)
    except VertexHitError:
        assume(False)
    assert geo.max_collinearity_residual() <= 1e-10


@given(case=reversal_runs())
@settings(max_examples=80, deadline=None)
def test_running_the_flow_backwards_returns_to_the_start(case):
    poly, state, horizon = case
    forward = simulate(poly, state, horizon, CornerPolicy.POINT_REFLECT)
    # if a bounce lands exactly at the horizon the end state sits on the
    # boundary and its reversal points outward, which is outside the
    # domain of the flow; skip those measure-zero cases
    slack = np.min(poly.offsets - poly.normals @ forward.end.point)
    assume(slack > 1e-9)
    back = simulate(
        poly, forward.end.reversed(), horizon, CornerPolicy.POINT_REFLECT
    )
    # 1e-7 rather than machine precision: shots that clip the corner
    # detection ball can re-enter it off-center on the way back
    assert np.linalg.norm(back.end.point - state.point) <= 1e-7
    assert np.linalg.norm(back.end.direction + state.direction) <= 1e-7
