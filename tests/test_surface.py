"""Closed polyhedral surfaces: curvature, orbifold test, geodesics."""

import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from billiards.config import TOL
from billiards.errors import (
    InputError,
    NotAcuteError,
    OpenSurfaceError,
    VertexHitError,
)
from billiards.surface import (
    SurfaceMesh,
    cone_angles,
    convex_hull_mesh,
    disk_inequality,
    gauss_bonnet_total,
    is_disphenoid,
    is_orbifold_boundary,
    make_disphenoid,
    tetrahedron_mesh,
    trace_surface_geodesic,
    triangulate_check,
)
import billiards.surface as surface_module
from billiards.surface import _cone_angle_sums, _cross, _defect_identity_holds, _edge_tables
from billiards.geometry import Polytope, normalized, unit
from billiards.tables import build
from conftest import random_tetrahedron_vertices, random_acute_triple


# -- mesh validation ---------------------------------------------------------

def test_cube_mesh_is_valid_and_euler_two():
    cube = SurfaceMesh.cube(1.0)
    assert len(cube.vertices) == 8
    assert len(cube.faces) == 6
    assert len(cube.edges) == 12
    assert repr(cube) == "SurfaceMesh(V=8, E=12, F=6)"
    # the undirected edges (a < b), in the order of their first directed copies
    assert cube.edges == (
        (0, 3), (2, 3), (1, 2), (0, 1), (4, 5), (5, 6),
        (6, 7), (4, 7), (1, 5), (0, 4), (2, 6), (3, 7),
    )


def test_inward_orientation_rejected():
    # reversing every face keeps the manifold structure but flips the signed
    # volume, which the validator reports as an inward orientation
    cube = SurfaceMesh.cube(1.0)
    flipped = [tuple(reversed(face)) for face in cube.faces]
    with pytest.raises(InputError):
        SurfaceMesh(cube.vertices, flipped)


def test_open_mesh_rejected():
    cube = SurfaceMesh.cube(1.0)
    with pytest.raises(OpenSurfaceError) as info:
        SurfaceMesh(cube.vertices, cube.faces[:-1])
    assert str(info.value) == "edge (0, 3) borders 1 faces, expected 2"


@pytest.mark.parametrize(
    "faces, edge",
    [
        # the cube without top and bottom: two holes. The edge named is the
        # first directed edge whose reverse is missing, not the first edge
        ([(1, 5, 4, 0), (2, 6, 5, 1), (3, 7, 6, 2), (0, 4, 7, 3)], (4, 5)),
        ([(6, 5, 1, 2), (5, 4, 0, 1), (2, 3, 7, 6), (0, 4, 7, 3)], (5, 6)),
    ],
)
def test_open_mesh_names_its_first_open_edge(faces, edge):
    with pytest.raises(OpenSurfaceError) as info:
        SurfaceMesh(SurfaceMesh.cube(1.0).vertices, faces)
    assert str(info.value) == f"edge {edge} borders 1 faces, expected 2"


def test_closed_meshes_that_are_no_sphere_are_refused():
    cube = SurfaceMesh.cube(1.0)
    # a face given twice repeats each of its directed edges
    with pytest.raises(OpenSurfaceError) as info:
        SurfaceMesh(cube.vertices, cube.faces + cube.faces[:1])
    assert str(info.value) == (
        "directed edge (0, 3) appears in two faces; orientation is inconsistent"
    )
    # two disjoint tetrahedra: every edge borders two faces, but V - E + F = 4
    tet = SurfaceMesh.regular_tetrahedron()
    verts = np.concatenate((tet.vertices, tet.vertices + 10.0))
    faces = tet.faces + tuple(tuple(i + 4 for i in f) for f in tet.faces)
    with pytest.raises(OpenSurfaceError) as info:
        SurfaceMesh(verts, faces)
    assert str(info.value) == "Euler characteristic 4 != 2 (V=8, E=12, F=8)"


def test_a_vertex_no_face_uses_is_refused():
    """A tetrahedron with one more vertex that no face references."""
    tet = SurfaceMesh.regular_tetrahedron()
    verts = np.concatenate((tet.vertices, [[5.0, 5.0, 5.0]]))
    with pytest.raises(InputError) as info:
        SurfaceMesh(verts, tet.faces)
    assert str(info.value) == "faces must reference every vertex exactly"


def test_nonplanar_face_rejected():
    verts = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0.3], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    faces = SurfaceMesh.cube(1.0).faces
    with pytest.raises(InputError):
        SurfaceMesh(verts, faces)


def test_a_face_with_collinear_vertices_is_refused():
    """A cube, moved off the origin, with a vertex 8 in the middle of its
    edge (0, 1): the front face takes it as a straight corner, and the
    triangle (0, 1, 8) closes the mesh. That triangle's vertices are
    collinear, so it has no normal, and the refusal names it."""
    cube = SurfaceMesh.cube(1.0)
    verts = np.vstack([cube.vertices, [0.5, 0.0, 0.0]]) + [1.0, 2.0, 3.0]
    faces = list(cube.faces)
    faces[2] = (0, 8, 1, 5, 4)  # y = 0
    with pytest.raises(
        InputError,
        match=r"^face 6 has collinear vertices and no normal: \(0, 1, 8\)$",
    ):
        SurfaceMesh(verts, [*faces, (0, 1, 8)])


# An L-shaped prism: the hexagon below, counterclockwise seen from +z, at
# z = 0 (vertices 0-5) and z = 1 (vertices 6-11). The hexagon's corner at
# (1, 1), vertices 3 and 9, is reflex.
_L_XY = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
_L_VERTS = [(x, y, 0.0) for x, y in _L_XY] + [(x, y, 1.0) for x, y in _L_XY]
_L_SIDES = [(i, (i + 1) % 6, (i + 1) % 6 + 6, i + 6) for i in range(6)]
# bottom, top, sides
_L_FACES = [(5, 4, 3, 2, 1, 0), (6, 7, 8, 9, 10, 11), *_L_SIDES]
# each L face split along its diagonal from (0, 0) to (1, 1) into two convex
# quadrilaterals
_L_SPLIT_FACES = [(3, 2, 1, 0), (0, 5, 4, 3), (6, 7, 8, 9), (9, 10, 11, 6), *_L_SIDES]


# sizes from far below to far above the unit length scale of the tolerances
_SCALES = [1e-6, 1e-5, 3e-5, 1e-3, 1.0, 1e3]


def test_a_face_that_is_not_convex_is_refused():
    """At every size the reflex corner turns by ``-scale**2``, far past the
    band ``TOL.eps * |e_in| * |e_out|``."""
    for scale in _SCALES:
        with pytest.raises(InputError) as err:
            SurfaceMesh(np.array(_L_VERTS) * scale, _L_FACES)
        assert str(err.value) == (
            f"face 0 is not convex: its corner at vertex 3 turns by "
            f"{-scale**2:.3e}; split the face into convex faces"
        )
    # the first failing corner of the lowest face: the top face comes first
    with pytest.raises(InputError, match="^face 0 is not convex: its corner at vertex 9 "):
        SurfaceMesh(_L_VERTS, _L_FACES[1::-1] + _L_SIDES)


def test_the_l_prism_split_into_convex_faces_is_a_convex_surface():
    mesh = SurfaceMesh(_L_VERTS, _L_SPLIT_FACES)
    assert gauss_bonnet_total(mesh) == pytest.approx(4.0 * math.pi, abs=1e-12)
    # the reflex edge's ends have negative curvature
    assert [r.index for r in cone_angles(mesh) if r.curvature < 0] == [3, 9]
    geo = trace_surface_geodesic(mesh, 2, (0.5, 0.5, 1.0), (1.0, 0.0, 0.0), 1.2)
    assert geo.end_face == 2
    assert np.allclose(geo.end_point, [1.7, 0.5, 1.0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12])
def test_a_straight_corner_within_the_band_is_accepted(offset):
    """A cube with a vertex 8 on the middle of its top front edge, shared by
    the top face and the front face: the corner there is straight, or turns
    by ``-offset * scale**2`` on the top face, well within ``TOL.eps`` times
    its edges' lengths at every size."""
    cube = SurfaceMesh.cube(1.0)
    faces = list(cube.faces)
    faces[1] = (4, 8, 5, 6, 7)  # top
    faces[2] = (0, 1, 5, 8, 4)  # y = 0
    for scale in _SCALES:
        verts = np.vstack([cube.vertices, [0.5, offset, 1.0]]) * scale
        mesh = SurfaceMesh(verts, faces)
        assert gauss_bonnet_total(mesh) == pytest.approx(4.0 * math.pi, abs=1e-9)
        assert cone_angles(mesh)[8].cone_angle == pytest.approx(2.0 * math.pi, abs=1e-9)


# -- cone angles and curvature ----------------------------------------------

def test_cube_corner_angles():
    reports = cone_angles(SurfaceMesh.cube(1.0))
    for r in reports:
        assert math.isclose(r.cone_angle, 1.5 * math.pi, abs_tol=1e-12)
        assert math.isclose(r.curvature, 0.5 * math.pi, abs_tol=1e-12)
        assert r.orbifold_order is None  # 3*pi/2 is not 2*pi/n


def test_a_needle_tip_has_cone_angle_zero_and_no_order():
    """At the tip of a tetrahedron 1e9 long on a unit base, the cosine of
    each face angle rounds to 1, so the cone angle there is 0.0: no
    ``2*pi/n`` is near it, and the tip is not an orbifold point."""
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e9]]
    mesh = SurfaceMesh(verts, [(0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3)])
    tip = cone_angles(mesh)[3]
    assert (tip.cone_angle, tip.orbifold_order) == (0.0, None)
    assert is_orbifold_boundary(mesh).failing_vertices == (0, 1, 2, 3)


def test_regular_tetrahedron_is_a_2222_orbifold():
    tetra = SurfaceMesh.regular_tetrahedron(1.0)
    verdict = is_orbifold_boundary(tetra)
    assert verdict.is_orbifold and bool(verdict)
    assert verdict.orders == (2, 2, 2, 2)
    assert verdict.diophantine_ok
    for r in cone_angles(tetra):
        assert math.isclose(r.cone_angle, math.pi, abs_tol=1e-12)


def test_the_defect_identity_in_integers_matches_fractions():
    """``sum(1/n_i) == k - 2``, checked in integers, against ``Fraction`` on
    every multiset of k = 3..6 orders from 1..8 (the sum ignores order)."""
    from fractions import Fraction

    checked, held = 0, set()
    for k in range(3, 7):
        for orders in itertools.combinations_with_replacement(range(1, 9), k):
            want = sum(Fraction(1, n) for n in orders) == k - 2
            assert _defect_identity_holds(orders) == want, orders
            checked += 1
            if want:
                held.add(orders)
    assert checked == 2958
    # the four flat signatures, each padded with points of order one
    flat = [(2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 2, 2, 2)]
    assert held == {
        (1,) * pad + orders for orders in flat for pad in range(7 - len(orders))
    }


def test_cube_is_not_an_orbifold_boundary():
    verdict = is_orbifold_boundary(SurfaceMesh.cube(1.0))
    assert not verdict.is_orbifold and not verdict
    assert len(verdict.failing_vertices) == 8


def test_total_curvature_is_4pi_on_random_hulls(rng):
    for _ in range(10):
        pts = rng.normal(size=(int(rng.integers(8, 30)), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        mesh = convex_hull_mesh(pts)
        assert abs(gauss_bonnet_total(mesh) - 4.0 * math.pi) < 1e-9
        for r in cone_angles(mesh):
            assert r.cone_angle < 2.0 * math.pi - 1e-12


# -- disphenoids -------------------------------------------------------------

def test_make_disphenoid_realizes_requested_edges():
    verts = make_disphenoid(4.0, 5.0, 6.0)
    check = is_disphenoid(verts)
    assert check.is_disphenoid
    got = sorted(pair[0] for pair in check.lengths)
    assert np.allclose(got, [4.0, 5.0, 6.0], atol=1e-12)
    assert check.max_mismatch < 1e-12


def test_make_disphenoid_needs_acute_triple():
    with pytest.raises(NotAcuteError):
        make_disphenoid(3.0, 4.0, 5.0)  # right triangle, not acute


def test_disphenoid_has_all_cone_angles_pi(rng):
    for _ in range(20):
        verts = make_disphenoid(*random_acute_triple(rng))
        mesh = tetrahedron_mesh(verts)
        for r in cone_angles(mesh):
            assert abs(r.cone_angle - math.pi) < 1e-9
        assert is_orbifold_boundary(mesh).is_orbifold


def test_random_tetrahedra_are_generically_neither(rng):
    for _ in range(50):
        verts = random_tetrahedron_vertices(rng)
        orb = is_orbifold_boundary(tetrahedron_mesh(verts)).is_orbifold
        dis = is_disphenoid(verts).is_disphenoid
        assert orb == dis
        assert not dis


# -- triangulation combinatorics --------------------------------------------

def test_disphenoid_triangulation_is_self_dual_sized():
    mesh = tetrahedron_mesh(make_disphenoid(4.0, 5.0, 6.0))
    report = triangulate_check(mesh)
    assert report.euler_ok
    assert report.f_equals_v          # F = V = 4
    assert report.trivalent           # every vertex degree 3
    assert report.vertex_disk_ok
    assert report.n_triangles == 4
    assert report.n_vertices == 4


def test_cube_triangulation_is_not_trivalent():
    report = triangulate_check(SurfaceMesh.cube(1.0))
    assert report.euler_ok
    assert not report.f_equals_v      # 12 triangles vs 8 vertices
    assert not report.trivalent
    assert report.n_triangles == 12


def test_disk_inequality_small_cases():
    assert disk_inequality(4, 6)      # 8 <= 9
    assert disk_inequality(3, 3)      # 6 <= 6
    assert not disk_inequality(7, 9)  # 14 > 12


# -- geodesics ---------------------------------------------------------------

def test_cube_band_geodesic_closes():
    cube = SurfaceMesh.cube(1.0)
    face = next(
        k for k, f in enumerate(cube.faces)
        if all(abs(cube.vertices[v][1]) < 1e-12 for v in f)
    )  # the y = 0 face
    start = np.array([0.5, 0.0, 0.5])
    geo = trace_surface_geodesic(cube, face, start, [1.0, 0.0, 0.0], 4.0)
    assert geo.n_crossings == 4
    assert geo.end_face == face
    assert np.allclose(geo.end_point, start, atol=1e-12)
    assert geo.max_collinearity_residual() < 1e-12


def test_geodesic_unfolds_straight_on_random_hulls(rng):
    for _ in range(10):
        pts = rng.normal(size=(12, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        mesh = convex_hull_mesh(pts)
        face = int(rng.integers(len(mesh.faces)))
        tri = mesh.vertices[list(mesh.faces[face])]
        p = tri.mean(axis=0)
        d = tri[1] - tri[0] + 0.13 * (tri[2] - tri[0])
        geo = trace_surface_geodesic(mesh, face, p, d, 6.0)
        assert geo.n_crossings > 0
        assert geo.max_collinearity_residual() < 1e-10


def test_cube_vertex_hit_raises():
    cube = SurfaceMesh.cube(1.0)
    face = next(
        k for k, f in enumerate(cube.faces)
        if all(abs(cube.vertices[v][2] - 1.0) < 1e-12 for v in f)
    )  # the z = 1 face
    with pytest.raises(VertexHitError):
        trace_surface_geodesic(
            cube, face, [0.5, 0.5, 1.0], [1.0, 1.0, 0.0], 2.0
        )


@pytest.mark.parametrize(
    "face, point, horizon, message",
    [
        (0, None, -1.0, "horizon must be finite and >= 0, got -1.0"),
        (0, None, math.inf, "horizon must be finite and >= 0, got inf"),
        (0, None, math.nan, "horizon must be finite and >= 0, got nan"),
        (6, None, 1.0, "face index 6 out of range"),
        (-1, None, 1.0, "face index -1 out of range"),
        (0, [5.0, 5.0, 5.0], 1.0,
         "start point does not lie on the start face's plane"),
        # on the plane of the bottom face, but 4 beyond two of its edges
        (0, [5.0, 5.0, 0.0], 1.0,
         "start point lies 4.000e+00 beyond edge (1, 2) of face 0"),
    ],
)
def test_geodesic_refuses_bad_arguments(face, point, horizon, message):
    cube = SurfaceMesh.cube(1.0)
    if point is None:
        point = cube.vertices[list(cube.faces[0])].mean(axis=0)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        trace_surface_geodesic(cube, face, point, [1.0, 0.0, 0.0], horizon)


_CORNERS = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: SurfaceMesh([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)]),
                     "surface vertices must be 3D", id="2d-vertices"),
        pytest.param(lambda: SurfaceMesh.from_polytope(Polytope.box((0, 0), (1, 1))),
                     "surface extraction needs a 3D polytope", id="2d-polytope"),
        pytest.param(lambda: SurfaceMesh(_CORNERS, [(0, 1), (0, 2, 3)]),
                     "face 0 is degenerate: (0, 1)", id="two-sided-face"),
        pytest.param(lambda: SurfaceMesh(_CORNERS, [(0, 1, 1), (0, 2, 3)]),
                     "face 0 is degenerate: (0, 1, 1)", id="repeated-vertex"),
        pytest.param(lambda: tetrahedron_mesh(np.eye(3)),
                     "a tetrahedron needs exactly four 3D vertices", id="mesh-shape"),
        pytest.param(lambda: is_disphenoid(np.eye(3)),
                     "is_disphenoid expects four 3D vertices", id="disphenoid-shape"),
        pytest.param(lambda: tetrahedron_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]),
                     "tetrahedron is degenerate (coplanar vertices)", id="coplanar"),
        pytest.param(lambda: make_disphenoid(0.0, 1.0, 1.0),
                     "edge lengths must be positive", id="zero-edge"),
    ],
)
def test_malformed_surfaces_are_refused_with_their_message(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert type(info.value) is InputError
    assert str(info.value) == message


def test_vertex_of_order_two_is_where_a_geodesic_retraces():
    """Under ``BILLIARDS_EPS=1e-6`` a disphenoid with one vertex moved by
    2e-7 keeps cone angles within 3.2e-8 of pi: ``cone_angles`` gives
    vertex 0 order 2, and a geodesic aimed at vertex 0 from each face
    around it retraces there, with that cone angle. The tolerance is set
    once per process, so it runs in a child."""
    code = (
        "import math\n"
        "from billiards.surface import (\n"
        "    _cone_angle_sums, cone_angles, make_disphenoid, tetrahedron_mesh,\n"
        "    trace_surface_geodesic)\n"
        "verts = make_disphenoid(4, 5, 6)\n"
        "verts[1, 2] += 2e-7\n"
        "mesh = tetrahedron_mesh(verts)\n"
        "report = cone_angles(mesh)[0]\n"
        "assert abs(report.cone_angle - math.pi) > 1e-8\n"
        "print(report.orbifold_order)\n"
        "for k, face in enumerate(mesh.faces):\n"
        "    if 0 in face:\n"
        "        start = mesh.vertices[list(face)].mean(axis=0)\n"
        "        d = mesh.vertices[0] - start\n"
        "        horizon = 1.5 * math.hypot(*d)\n"
        "        geo = trace_surface_geodesic(mesh, k, start, d, horizon)\n"
        "        ((v,),) = [site for site in geo.sites if len(site) == 1]\n"
        "        print(v, _cone_angle_sums(mesh)[v] == report.cone_angle)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "BILLIARDS_EPS": "1e-6"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n" + "0 True\n" * 3


def test_disphenoid_vertex_passage_retraces(rng):
    mesh = tetrahedron_mesh(make_disphenoid(4.0, 5.0, 6.0))
    face = 0
    tri = mesh.vertices[list(mesh.faces[face])]
    start = tri.mean(axis=0)
    target = tri[2]
    d = unit(target - start)
    dist = float(np.linalg.norm(target - start))
    geo = trace_surface_geodesic(mesh, face, start, d, 2.0 * dist)
    ((v,),) = [site for site in geo.sites if len(site) == 1]
    assert abs(_cone_angle_sums(mesh)[v] - math.pi) < 1e-9
    assert np.allclose(geo.end_point, start, atol=1e-9)
    assert np.allclose(geo.end_direction, -d, atol=1e-9)


def test_a_geodesic_is_knot_arrays_and_each_event_is_a_row():
    """A geodesic that retraces at two vertices of cone angle pi and crosses
    edges between them: its knots are read-only and in time order, each
    crossing's edge borders the faces on both sides of it, each passage
    stays on its face at its vertex, and each knot unfolds to its arclength
    from the start of its straight run."""
    mesh = tetrahedron_mesh(make_disphenoid(4.0, 5.0, 6.0))
    tri = mesh.vertices[list(mesh.faces[0])]
    start = tri.mean(axis=0)
    geo = trace_surface_geodesic(mesh, 0, start, tri[2] - start, 30.0)
    n = len(geo.sites)
    assert geo.times.shape == (n + 2,) and geo.points.shape == (n + 2, 3)
    assert geo.unfolded.shape == (n + 2, 2) and len(geo.faces) == n + 1
    for arr in (geo.times, geo.points, geo.unfolded):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert geo.times[0] == 0.0 and geo.times[-1] == geo.horizon == 30.0
    assert np.all(np.diff(geo.times) > 0.0)
    assert _bits(geo.start_point) == _bits(start)
    assert (geo.start_face, geo.end_face) == (geo.faces[0], geo.faces[-1])
    crossed = [k for k, site in enumerate(geo.sites, 1) if len(site) == 2]
    passed = [k for k, site in enumerate(geo.sites, 1) if len(site) == 1]
    assert len(crossed) == geo.n_crossings > 0 and len(passed) > 1
    for k in crossed:
        from_face, to_face = geo.faces[k - 1 : k + 1]
        shared = set(mesh.faces[from_face]) & set(mesh.faces[to_face])
        assert from_face != to_face and set(geo.sites[k - 1]) <= shared
    for k in passed:
        (v,) = geo.sites[k - 1]
        assert geo.faces[k - 1] == geo.faces[k]
        assert abs(_cone_angle_sums(mesh)[v] - math.pi) < 1e-9
        assert np.linalg.norm(geo.points[k] - mesh.vertices[v]) < 1e-9
    # a straight run goes from the start or a passage to the next or the end
    assert _bits(geo.unfolded[0]) == _bits([0.0, 0.0])
    run_start = 0.0
    for k in range(1, n + 2):
        along = geo.times[k] - run_start
        assert np.allclose(geo.unfolded[k], [along, 0.0], rtol=0.0, atol=1e-9)
        if k in passed:
            run_start = geo.times[k]
    assert geo.max_collinearity_residual() < 1e-9


# -- immutable mesh and a stateless kernel ----------------------------------

def test_surface_mesh_arrays_are_read_only():
    """The face normals and edge maps built with a mesh stay true of it: its
    arrays cannot be written, while the caller's array can."""
    corners = np.array(make_disphenoid(4.0, 5.0, 6.0))
    mesh = tetrahedron_mesh(corners)
    for arr in (mesh.vertices, mesh.face_normal(0)):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    assert not np.shares_memory(mesh.vertices, corners)
    corners[0, 0] = 0.5
    assert mesh.vertices[0, 0] == 0.0


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_scalar_cross_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(61)
    pairs = [rng.normal(size=(2, 3)) for _ in range(500)]
    # mixed magnitudes, kept where no product over- or underflows
    pairs += [
        rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, size=(2, 3))
        for _ in range(500)
    ]
    grid = rng.normal(size=(6, 9))
    pairs += [(grid[::2, j], grid[1::2, j + 1]) for j in range(8)]  # strided
    pairs += [(grid[j % 6, ::3], grid[(j + 1) % 6, 1::3]) for j in range(6)]
    pairs += [(np.zeros(3), grid[0, :3]), (-np.zeros(3), np.ones(3))]
    for u, v in pairs:
        assert _bits(_cross(u, v)) == _bits(np.cross(u, v))


def _geodesic_bits(geo) -> list[bytes]:
    arrays = (geo.times, geo.points, geo.unfolded)
    out = [_bits(arr) for arr in (*arrays, geo.start_direction, geo.end_direction)]
    return out + [repr((geo.faces, geo.sites)).encode()]


def test_a_traced_mesh_traces_like_a_fresh_mesh(rng):
    """A trace keeps nothing on the mesh. A trace on a mesh that other traces
    have run on, here the same geodesic run backwards and then once forwards,
    matches a trace on a freshly built copy bit for bit."""
    meshes = [tetrahedron_mesh(make_disphenoid(4.0, 5.0, 6.0)), SurfaceMesh.cube(1.0)]
    for _ in range(6):
        pts = rng.normal(size=(int(rng.integers(8, 16)), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        meshes.append(convex_hull_mesh(pts))
        meshes.append(tetrahedron_mesh(random_tetrahedron_vertices(rng)))
    for mesh in meshes:
        face = int(rng.integers(len(mesh.faces)))
        tri = mesh.vertices[list(mesh.faces[face][:3])]
        w = rng.uniform(0.1, 1.0, 3)
        p, d = (w / w.sum()) @ tri, rng.normal(size=3)
        copy = SurfaceMesh(mesh.vertices, mesh.faces)
        fresh = trace_surface_geodesic(copy, face, p, d, 9.0)
        back = trace_surface_geodesic(
            mesh, fresh.end_face, fresh.end_point, -fresh.end_direction, 9.0
        )
        assert back.n_crossings == fresh.n_crossings > 0
        for _ in range(2):
            warm = trace_surface_geodesic(mesh, face, p, d, 9.0)
            assert _geodesic_bits(warm) == _geodesic_bits(fresh)


# pinned bit patterns: summing a vertex's face angles in another order
# moves the last bit, and a vertex hit must read the same sums
_DISPHENOID_456_CONE_ANGLES = (
    "0x1.921fb54442d17p+1", "0x1.921fb54442d18p+1",
    "0x1.921fb54442d18p+1", "0x1.921fb54442d18p+1",
)
_GENERIC_TETRA = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.2, 1.1, 0.0], [0.3, 0.4, 0.9]]
)
_GENERIC_TETRA_CONE_ANGLES = (
    "0x1.e4cd6d3432132p+1", "0x1.67e15b5d158e6p+1",
    "0x1.5f8a9ead7aac5p+1", "0x1.9c456dd248f84p+1",
)


def test_cone_angles_keep_their_values_bit_for_bit():
    for verts, want in (
        (make_disphenoid(4.0, 5.0, 6.0), _DISPHENOID_456_CONE_ANGLES),
        (_GENERIC_TETRA, _GENERIC_TETRA_CONE_ANGLES),
    ):
        mesh = tetrahedron_mesh(verts)
        for _ in range(2):
            assert tuple(r.cone_angle.hex() for r in cone_angles(mesh)) == want
    # a vertex hit on a fresh mesh computes the sums first, with the same bits
    mesh = tetrahedron_mesh(make_disphenoid(4.0, 5.0, 6.0))
    tri = mesh.vertices[list(mesh.faces[0])]
    start = tri.mean(axis=0)
    dist = float(np.linalg.norm(tri[2] - start))
    geo = trace_surface_geodesic(mesh, 0, start, tri[2] - start, 2.0 * dist)
    ((v,),) = [site for site in geo.sites if len(site) == 1]
    assert _cone_angle_sums(mesh)[v].hex() == _DISPHENOID_456_CONE_ANGLES[v]


def _per_corner_cone_angle_sums(mesh):
    """The former per-corner kernel, the oracle of the batched one: one
    ``arccos`` per corner, each corner's two unit edge vectors taken
    separately, added per vertex in face order."""

    def corner_angle(face, at):
        pos = face.index(at)
        p = mesh.vertices[at]
        a = unit(mesh.vertices[face[pos - 1]] - p)
        b = unit(mesh.vertices[face[(pos + 1) % len(face)]] - p)
        return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))

    sums = np.zeros(mesh.n_vertices)
    for face in mesh.faces:
        for v in face:
            sums[v] += corner_angle(face, v)
    return sums


def test_cone_angle_sums_are_kept_on_the_mesh_and_read_alike_in_either_order(rng):
    """The sums are computed once per mesh; ``gauss_bonnet_total`` and
    ``cone_angles`` give the bits of the per-corner oracle and of the old
    ``sum(r.curvature for r in cone_angles(mesh))``, whichever runs first."""
    makers = [lambda name=name: build(name)
                for name in ("cube", "tetra_regular", "disphenoid_456")]
    for _ in range(10):
        pts = rng.normal(size=(int(rng.integers(5, 30)), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        makers.append(lambda pts=pts: SurfaceMesh.from_polytope(
            Polytope.from_point_cloud(pts)))
    for make in makers:
        oracle = _per_corner_cone_angle_sums(make())
        want_reports = [
            (v, angle, 2.0 * math.pi - angle) for v, angle in enumerate(oracle.tolist())
        ]
        want_total = float(sum(2.0 * math.pi - angle for angle in oracle.tolist()))
        curvature_first = make()
        total = gauss_bonnet_total(curvature_first)
        reports = cone_angles(curvature_first)
        reports_first = make()
        later_reports = cone_angles(reports_first)
        later_total = gauss_bonnet_total(reports_first)
        for got_total, got in ((total, reports), (later_total, later_reports)):
            assert [(r.index, r.cone_angle, r.curvature) for r in got] == want_reports
            assert got_total.hex() == want_total.hex()
            assert got_total.hex() == float(sum(r.curvature for r in got)).hex()
        for mesh in (curvature_first, reports_first):
            assert _cone_angle_sums(mesh) is _cone_angle_sums(mesh)


def _cut_box(rng):
    """A box with one corner cut off: faces of three, four and five sides."""
    lo, hi = -rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3)
    box = Polytope.box(lo, hi)
    corner = int(np.argmax(box.vertices.sum(axis=1)))
    cut = hi - np.diag(rng.uniform(0.1, 0.4, 3))  # one point on each edge at hi
    pts = np.concatenate([np.delete(box.vertices, corner, axis=0), cut])
    return Polytope.from_point_cloud(pts)


def test_batched_cone_angles_match_the_per_corner_sums_bit_for_bit(rng):
    meshes = [SurfaceMesh.cube(1.0), SurfaceMesh.cube(3.7),
              SurfaceMesh.regular_tetrahedron(2.0),
              tetrahedron_mesh(make_disphenoid(4.0, 5.0, 6.0)),
              SurfaceMesh.from_polytope(Polytope.box([-1.0, -2.0, 0.5], [0.3, 1.0, 4.0]))]
    for _ in range(40):
        meshes.append(tetrahedron_mesh(random_tetrahedron_vertices(rng)))
        pts = rng.normal(size=(int(rng.integers(5, 30)), 3))
        meshes.append(convex_hull_mesh(pts * 10.0 ** rng.uniform(-3.0, 3.0)))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        meshes.append(SurfaceMesh.from_polytope(Polytope.from_point_cloud(pts)))
        meshes.append(SurfaceMesh.from_polytope(_cut_box(rng)))
    assert any(len(f) == 5 for f in meshes[-1].faces)
    for mesh in meshes:
        got = np.array(_cone_angle_sums(mesh))
        assert got.tobytes() == _per_corner_cone_angle_sums(mesh).tobytes()
        reports = cone_angles(mesh)
        assert np.array([r.cone_angle for r in reports]).tobytes() == got.tobytes()


def _per_face_newell_normals(mesh):
    """The former per-face normal loop, the oracle of the batched one:
    Newell's formula, one ``_cross`` per edge added in face order from
    zero, then ``unit``."""
    normals = []
    for face in mesh.faces:
        pts = mesh.vertices[list(face)]
        n = np.zeros(3)
        for i in range(len(face)):
            n += _cross(pts[i], pts[(i + 1) % len(face)])
        normals.append(unit(n))
    return np.array(normals)


def _per_facet_faces(polytope):
    """The former per-facet ordering of ``from_polytope``: each facet's
    vertices sorted by ``arctan2`` about its centroid, from its first
    vertex."""
    faces = []
    for i, tight in enumerate(polytope.facet_vertices):
        pts = polytope.vertices[list(tight)]
        center = pts.mean(axis=0)
        u = unit(pts[0] - center)
        v = _cross(polytope.normals[i], u)
        ang = np.arctan2((pts - center) @ v, (pts - center) @ u)
        faces.append(tuple(np.array(tight)[np.argsort(ang)].tolist()))
    return tuple(faces)


def _per_triangle_faces(verts, triangles, outward):
    """The former per-triangle orientation of ``tetrahedron_mesh`` and
    ``convex_hull_mesh``: ``(a, b, c)`` turned to ``(a, c, b)`` where its
    normal points against ``outward``."""
    faces = []
    for (a, b, c), out in zip(triangles, outward):
        n = _cross(verts[b] - verts[a], verts[c] - verts[a])
        if float(np.dot(n, out)) < 0:
            b, c = c, b
        faces.append((a, b, c))
    return tuple(faces)


def test_batched_mesh_build_matches_the_per_face_loops_bit_for_bit(rng):
    """Faces and normal bytes of meshes built in array passes equal those of
    the per-face loops: boxes (quadrilaterals with a vertex at angle +-pi
    from the first), cut boxes (pentagons), sphere hulls, ``convex_hull_mesh``
    from 1e-3 to 1e3 and random tetrahedra."""
    polytopes = [Polytope.box([-1.0, -2.0, 0.5], [0.3, 1.0, 4.0]),
                 Polytope.box(-rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3))]
    meshes = [SurfaceMesh.cube(1.0), SurfaceMesh.cube(3.7)]
    for _ in range(30):
        pts = rng.normal(size=(int(rng.integers(5, 30)), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        polytopes += [Polytope.from_point_cloud(pts), _cut_box(rng)]
        for scale in 10.0 ** np.arange(-3.0, 4.0):
            hull = ConvexHull(pts * scale)
            verts = pts[hull.vertices] * scale
            index = {int(v): i for i, v in enumerate(hull.vertices)}
            triangles = [[index[int(s)] for s in simplex] for simplex in hull.simplices]
            mesh = convex_hull_mesh(pts * scale)
            assert mesh.faces == _per_triangle_faces(
                verts, triangles, hull.equations[:, :3])
            meshes.append(mesh)
        verts = random_tetrahedron_vertices(rng)
        mesh = tetrahedron_mesh(verts)
        triangles = [[t for t in range(4) if t != skip] for skip in range(4)]
        inward = [verts[skip] - verts[t[0]] for skip, t in enumerate(triangles)]
        assert mesh.faces == _per_triangle_faces(verts, triangles, -np.array(inward))
        meshes.append(mesh)
    assert {len(f) for p in polytopes[:2] for f in p.facet_vertices} == {4}
    assert any(len(f) == 5 for f in polytopes[-1].facet_vertices)
    for polytope in polytopes:
        mesh = SurfaceMesh.from_polytope(polytope)
        assert mesh.faces == _per_facet_faces(polytope)
        meshes.append(mesh)
    for mesh in meshes:
        normals = np.array([mesh.face_normal(k) for k in range(len(mesh.faces))])
        assert normals.tobytes() == _per_face_newell_normals(mesh).tobytes()


def test_of_two_bent_faces_the_lower_one_is_named():
    """A box corner next to the cut corner of a cut box lies on two
    pentagons and a quadrilateral; moving it bends all three. With a planar
    quadrilateral first, the bent pentagons come before the bent
    quadrilateral, so the lowest bent face is not in the first size group:
    the refusal names it, with the thickness of the per-face SVD."""
    mesh = SurfaceMesh.from_polytope(_cut_box(np.random.default_rng(3)))
    sizes = [sorted(len(f) for f in mesh.faces if v in f) for v in range(mesh.n_vertices)]
    corner = sizes.index([4, 5, 5])
    verts = mesh.vertices.copy()
    verts[corner] += 0.05
    bent = [f for f in mesh.faces if corner in f]
    flat = [f for f in mesh.faces if corner not in f]
    quad = next(f for f in flat if len(f) == 4)
    faces = [quad] + sorted(bent, key=len, reverse=True)
    faces += [f for f in flat if f != quad]
    scale = max(float(np.abs(verts).max()), 1.0)
    want = []
    for k, face in enumerate(faces):
        pts = verts[list(face)]
        if len(face) > 3:
            sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            if sv[2] > TOL.eps * scale:
                want.append(f"face {k} is not planar (thickness {sv[2]:.3e})")
    assert [m.split()[1] for m in want] == ["1", "2", "3"]
    with pytest.raises(InputError, match=f"^{re.escape(want[0])}$"):
        SurfaceMesh(verts, faces)


def test_cone_angles_refuse_a_zero_length_edge():
    """A triangular prism whose top corner 3 sits on (or within 1e-9 of)
    bottom corner 0 keeps its side faces planar, but the corners next to the
    edge {0, 3} have no angle: the mesh is refused at construction, naming
    the edge and both its vertices. A 1e-8 edge is kept."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    faces = [(0, 2, 1), (3, 4, 5), (0, 1, 4, 3), (1, 2, 5, 4), (2, 0, 3, 5)]
    for height in (0.0, 5e-10):
        verts[3, 2] = height
        want = (f"edge (0, 3) has length {height:.3e}: vertex 0 at "
                f"[0.0, 0.0, 0.0] and vertex 3 at {verts[3].tolist()}")
        with pytest.raises(InputError, match=f"^{re.escape(want)}"):
            SurfaceMesh(verts, faces)
    verts[3, 2] = 1e-8
    assert len(cone_angles(SurfaceMesh(verts, faces))) == 6


@pytest.mark.parametrize(
    "vertex, message",
    [
        ([1.0, 0.0, math.nan], "vertex 1 has non-finite coordinates"),
        ([1e120, 0.0, 0.0], "vertex 1 has a coordinate of magnitude 1e+120"),
        ([1e77, 0.0, 0.0], "vertex 1 has a coordinate of magnitude 1e+77"),
    ],
)
def test_a_vertex_the_mesh_cannot_measure_is_refused(vertex, message):
    """Past 1e76 the squared lengths of the Newell normals overflow, so every
    mesh and tetrahedron entry point refuses a vertex there, or a
    non-finite one, by its row and without a numpy warning."""
    verts = np.array([[0.0, 0.0, 0.0], vertex, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    faces = [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (
            lambda: SurfaceMesh(verts, faces),
            lambda: tetrahedron_mesh(verts),
            lambda: is_disphenoid(verts),
        ):
            with pytest.raises(InputError, match=f"^{re.escape(message)}"):
                build()


def test_surface_coordinates_stop_at_1e76():
    """A polytope may reach 1e153, its surface only 1e76."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big_box = Polytope.box((0.0, 0.0, 0.0), (1e100, 1e100, 1e100))
        with pytest.raises(InputError, match="must be at most 1e\\+76"):
            SurfaceMesh.from_polytope(big_box)
        scaled = 1e76 * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                  [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        mesh = tetrahedron_mesh(scaled)
        assert gauss_bonnet_total(mesh) == pytest.approx(4.0 * math.pi)


def test_a_long_trace_revisits_every_face_and_leaves_the_mesh_alone():
    """Hundreds of crossings on a tetrahedron, so every face and directed
    edge is met again and again through the trace's own tables: the mesh's
    attributes are the same bytes afterwards, and the trace matches one on
    a freshly built mesh bit for bit."""
    rng = np.random.default_rng(62)
    verts = random_tetrahedron_vertices(rng)
    mesh = tetrahedron_mesh(verts)
    before = pickle.dumps(vars(mesh))
    tri = mesh.vertices[list(mesh.faces[1])]
    p, d = np.array([0.5, 0.3, 0.2]) @ tri, tri[1] - tri[0] + 0.37 * (tri[2] - tri[0])
    geo = trace_surface_geodesic(mesh, 1, p, d, 400.0)
    assert geo.n_crossings >= 300
    visits = list(geo.faces[1:])
    assert min(visits.count(f) for f in range(4)) >= 50
    assert pickle.dumps(vars(mesh)) == before
    fresh = trace_surface_geodesic(tetrahedron_mesh(verts), 1, p, d, 400.0)
    assert _geodesic_bits(geo) == _geodesic_bits(fresh)
    assert geo.max_collinearity_residual() < 1e-9



# -- the trace's edge tables and its start --------------------------------


def _per_edge_rows(mesh, face):
    """The exit-search rows of one face, built edge by edge: each edge's
    head position and its unit outward normal in the face plane."""
    poly, n = mesh.faces[face], mesh.face_normal(face)
    rows = []
    for a, b in zip(poly, poly[1:] + poly[:1]):
        va, vb = mesh.vertices[a], mesh.vertices[b]
        rows.append((a, b, va, normalized(_cross(vb - va, n))))
    return rows


def _per_edge_turn(mesh, face, to_face, va, vb):
    """The rotation about the edge ``va -> vb`` of ``face`` carrying
    ``to_face``'s plane onto ``face``'s, built from one edge's frames."""
    e_f = normalized(vb - va)
    n_f, n_g = mesh.face_normal(face), mesh.face_normal(to_face)
    m_f = normalized(_cross(e_f, n_f))
    m_g = normalized(_cross(-e_f, n_g))
    t = np.array([e_f, m_f, n_f], order="F").T
    s_t = np.array([e_f, -m_g, n_g], order="F")
    return t @ s_t


def _cut_box_mesh(rng):
    """A box with one corner cut off: faces of three, four and five sides."""
    lo, hi = -rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3)
    box = Polytope.box(lo, hi)
    corner = int(np.argmax(box.vertices.sum(axis=1)))
    cut = hi - np.diag(rng.uniform(0.1, 0.4, 3))
    cloud = np.concatenate([np.delete(box.vertices, corner, axis=0), cut])
    return SurfaceMesh.from_polytope(Polytope.from_point_cloud(cloud))


def test_one_pass_edge_tables_match_the_per_edge_formulas_bit_for_bit():
    """The trace's tables, built for every face and directed edge in one
    array pass, hold the bytes that the same formulas give on one edge at a
    time, on tetrahedra, hulls, cut boxes and the cube, at scales 1e-6 to
    1e6."""
    rng = np.random.default_rng(63)
    meshes = [SurfaceMesh.cube(1.0), SurfaceMesh.cube(3.7)]
    for _ in range(6):
        meshes.append(tetrahedron_mesh(random_tetrahedron_vertices(rng)))
        pts = rng.normal(size=(int(rng.integers(8, 16)), 3))
        meshes.append(SurfaceMesh.from_polytope(Polytope.from_point_cloud(pts)))
        meshes.append(_cut_box_mesh(rng))
    assert any(len(f) > 3 for mesh in meshes[2:] for f in mesh.faces)
    meshes += [
        SurfaceMesh(mesh.vertices * scale, mesh.faces)
        for mesh in meshes[:8] for scale in (1e-6, 1e6)
    ]
    for mesh in meshes:
        rows, heads, tails, across, rot, shift, rot_t = _edge_tables(mesh)
        assert len(heads) == 2 * len(mesh.edges)
        for face, face_rows in enumerate(rows):
            expected = _per_edge_rows(mesh, face)
            assert len(face_rows) == len(expected)
            for (j, va, m), (a, b, va_1, m_1) in zip(face_rows, expected):
                assert (heads[j], tails[j]) == (a, b)
                assert _bits(va) == _bits(va_1)
                assert _bits(m) == _bits(m_1)
                to_face = mesh._owner[(b, a)]
                turn = _per_edge_turn(mesh, face, to_face, va_1, mesh.vertices[b])
                assert across[j] == to_face
                assert _bits(rot[j]) == _bits(turn)
                assert _bits(shift[j]) == _bits(va_1 - turn @ va_1)
                assert _bits(rot_t[j]) == _bits(turn.T)
                assert rot_t[j].flags.f_contiguous


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_a_start_beyond_an_edge_is_refused_past_the_tolerance_only(scale):
    """The tolerance is ``TOL.eps`` times the mesh's length scale: a start
    half of it beyond the edge y = 0 is on the face, twice it is not."""
    cube, out, d = SurfaceMesh.cube(scale), TOL.eps * scale, [0.3, 1.0, 0.0]
    for y in (-0.5 * out, 0.0):
        trace_surface_geodesic(cube, 0, [0.5 * scale, y, 0.0], d, 0.5)
    message = f"start point lies {2.0 * out:.3e} beyond edge (0, 1) of face 0"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        trace_surface_geodesic(cube, 0, [0.5 * scale, -2.0 * out, 0.0], d, 0.5)


def test_a_start_on_an_edge_or_a_vertex_of_its_face_is_accepted():
    """Points on the boundary of the start face are on the face: from an edge
    and from a vertex the geodesic runs into the face, and from an edge
    heading out it crosses that edge at time 0."""
    cube = SurfaceMesh.cube(1.0)
    geo = trace_surface_geodesic(cube, 0, [0.5, 0.0, 0.0], [0.2, 1.0, 0.0], 0.5)
    assert geo.n_crossings == 0
    geo = trace_surface_geodesic(cube, 0, [1.0, 1.0, 0.0], [-1.0, -0.5, 0.0], 0.5)
    assert geo.n_crossings == 0 and geo.start_face == 0
    geo = trace_surface_geodesic(cube, 0, [0.5, 0.0, 0.0], [0.2, -1.0, 0.0], 0.5)
    assert geo.sites[0] == (0, 1) and geo.times[1] == 0.0


def test_a_start_within_tolerance_beyond_an_edge_crosses_it_at_once():
    """A start the tolerance accepts just beyond the edge y = 0, heading
    further out, crosses that edge at time 0 into the face y = 0; the
    exit search once skipped the edge and then found no exit at all."""
    cube = SurfaceMesh.cube(1.0)
    start = [0.5, -0.5 * TOL.eps, 0.0]
    geo = trace_surface_geodesic(cube, 0, start, [0.0, -1.0, 0.0], 0.5)
    assert geo.sites == ((0, 1),)
    assert geo.times.tolist() == [0.0, 0.0, 0.5]
    assert geo.faces == (0, 2)
    assert np.allclose(geo.end_point, [0.5, 0.0, 0.5], atol=1e-9)


def test_a_geodesic_over_the_crossing_cap_is_refused(monkeypatch):
    monkeypatch.setattr(surface_module, "_MAX_CROSSINGS", 5)
    cube = SurfaceMesh.cube(1.0)
    band = trace_surface_geodesic(cube, 2, [0.5, 0.0, 0.5], [1.0, 0.0, 0.0], 4.0)
    assert band.n_crossings == 4
    with pytest.raises(InputError, match="^geodesic exceeded 5 edge crossings$"):
        trace_surface_geodesic(cube, 2, [0.5, 0.0, 0.5], [1.0, 0.0, 0.0], 6.0)


def test_a_direction_along_a_flat_face_finds_no_exit_edge():
    """A face of three vertices all but on one line: a direction along it
    meets every edge at a rate of at most 1e-14, so no edge is an exit."""
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-15, 0.0], [0.5, 0.3, 1.0]]
    faces = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3)]
    mesh = SurfaceMesh(verts, faces)
    start = np.mean(verts[:3], axis=0)
    message = "geodesic found no exit edge; mesh corrupt?"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        trace_surface_geodesic(mesh, 0, start, [1.0, 0.0, 0.0], 1.0)


# -- Theorem 2, dynamically: straddling a vertex ----------------------------
#
# Geodesics aimed past a vertex at offsets +delta and -delta go round it on
# opposite sides. Where the cone angle is pi (every vertex of a disphenoid)
# both retrace, so the pair stays within O(delta) of each other and of the
# recorded vertex passage: the flow is continuous there. Elsewhere they
# leave at directions that differ, on the cone, by an angle fixed by the
# cone angle, and stay apart however small delta is. These helpers use only
# numpy and the public results.

_DELTAS = (1e-5, 1e-6, 1e-7)


def _angle(u, v) -> float:
    c = float(u @ v) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
    return math.acos(min(1.0, max(-1.0, c)))


def _sup_distance(g1, g2) -> float:
    """Largest distance in R^3 between the two paths at equal times. Both
    are linear between knots, so the distance is convex there and peaks at
    a knot of one of them."""
    (t1, p1), (t2, p2) = (g1.times, g1.points), (g2.times, g2.points)
    ts = np.union1d(t1, t2)
    at1 = np.column_stack([np.interp(ts, t1, p1[:, k]) for k in range(3)])
    at2 = np.column_stack([np.interp(ts, t2, p2[:, k]) for k in range(3)])
    return float(np.max(np.linalg.norm(at1 - at2, axis=1)))


def _straddle(mesh, face, vertex, extra):
    """The shot from the face's centroid aimed at ``vertex``, and the pairs
    shifted by +-delta across it, traced until ``extra`` past the vertex."""
    tri = mesh.vertices[list(mesh.faces[face])]
    start = tri.mean(axis=0)
    aim = mesh.vertices[vertex] - start
    dist = float(np.linalg.norm(aim))
    aim = aim / dist
    normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    across = np.cross(normal / np.linalg.norm(normal), aim)
    horizon = dist + extra
    pairs = {
        delta: tuple(
            trace_surface_geodesic(mesh, face, start + s * delta * across, aim, horizon)
            for s in (1.0, -1.0)
        )
        for delta in _DELTAS
    }
    return start, aim, horizon, pairs


def test_straddling_pairs_close_up_on_disphenoids():
    for triple in ((4.0, 5.0, 6.0), (1.0, 1.1, 1.25), (3.0, 3.0, 4.0)):
        mesh = tetrahedron_mesh(make_disphenoid(*triple))
        for vertex in mesh.faces[0]:
            start, aim, horizon, pairs = _straddle(mesh, 0, vertex, 3.0 * max(triple))
            exact = trace_surface_geodesic(mesh, 0, start, aim, horizon)
            assert [s for s in exact.sites if len(s) == 1][:1] == [(vertex,)]
            sups = []
            for delta, (above, below) in pairs.items():
                assert above.n_crossings == len(above.sites) > 3
                # each side stays delta from the recorded passage, which
                # retraces, and so 2 * delta from the other side
                sup = _sup_distance(above, below)
                assert sup <= 2.5 * delta
                assert _sup_distance(above, exact) <= 1.5 * delta
                assert _sup_distance(below, exact) <= 1.5 * delta
                sups.append(sup)
            assert sups[0] > sups[1] > sups[2]


def test_straddling_pairs_split_at_a_generic_vertex():
    mesh = tetrahedron_mesh(_GENERIC_TETRA)
    vertex = 0
    star = [f for f in mesh.faces if vertex in f]
    v = mesh.vertices[vertex]
    cone = 0.0  # the vertex's cone angle, summed here from its face angles
    altitude = math.inf  # no point of the star closer to v leaves it
    for f in star:
        a, b = (mesh.vertices[w] for w in f if w != vertex)
        cone += _angle(a - v, b - v)
        height = np.linalg.norm(np.cross(a - v, b - v)) / np.linalg.norm(b - a)
        altitude = min(altitude, float(height))
    assert abs(cone - math.pi) > 0.5
    # the two sides leave at cone polar angles +pi and -pi from the incoming
    # ray, so they part by 2*pi mod the cone angle, the short way round
    wrap = (2.0 * math.pi) % cone
    split = min(wrap, cone - wrap)
    extra = 0.5 * altitude
    face = mesh.faces.index(star[0])
    start, aim, horizon, pairs = _straddle(mesh, face, vertex, extra)
    with pytest.raises(VertexHitError):
        trace_surface_geodesic(mesh, face, start, aim, horizon)
    want = 2.0 * extra * math.sin(split / 2.0)
    sups = []
    for delta, (above, below) in pairs.items():
        p1, p2 = above.end_point, below.end_point
        f1, f2 = mesh.faces[above.end_face], mesh.faces[below.end_face]
        assert vertex in f1 and vertex in f2
        if f1 == f2:
            psi = _angle(p1 - v, p2 - v)
        else:  # walk round v through the edge the two faces share
            (w,) = set(f1) & set(f2) - {vertex}
            edge = mesh.vertices[w] - v
            psi = _angle(p1 - v, edge) + _angle(edge, p2 - v)
            psi = min(psi, cone - psi)
        r1, r2 = float(np.linalg.norm(p1 - v)), float(np.linalg.norm(p2 - v))
        apart = math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(psi))
        assert abs(apart - want) <= 1e-4 * want
        sups.append(_sup_distance(above, below))
    assert min(sups) >= 0.5 * want
    assert max(sups) <= 1.01 * min(sups)
