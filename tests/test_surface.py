"""Closed polyhedral surfaces: curvature, orbifold test, geodesics."""

import math
import os
import pickle
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

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
from billiards.surface import _cone_angle_sums, _cross
from billiards.geometry import Polytope, unit
from conftest import random_tetrahedron_vertices, random_acute_triple


# -- mesh validation ---------------------------------------------------------

def test_cube_mesh_is_valid_and_euler_two():
    cube = SurfaceMesh.cube(1.0)
    assert len(cube.vertices) == 8
    assert len(cube.faces) == 6
    assert len(cube.edges) == 12


def test_inward_orientation_rejected():
    # reversing every face keeps the manifold structure but flips the signed
    # volume, which the validator reports as an inward orientation
    cube = SurfaceMesh.cube(1.0)
    flipped = [tuple(reversed(face)) for face in cube.faces]
    with pytest.raises(InputError):
        SurfaceMesh(cube.vertices, flipped)


def test_open_mesh_rejected():
    cube = SurfaceMesh.cube(1.0)
    with pytest.raises(OpenSurfaceError):
        SurfaceMesh(cube.vertices, cube.faces[:-1])


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


# -- cone angles and curvature ----------------------------------------------

def test_cube_corner_angles():
    reports = cone_angles(SurfaceMesh.cube(1.0))
    for r in reports:
        assert math.isclose(r.cone_angle, 1.5 * math.pi, abs_tol=1e-12)
        assert math.isclose(r.curvature, 0.5 * math.pi, abs_tol=1e-12)
        assert r.orbifold_order is None  # 3*pi/2 is not 2*pi/n


def test_regular_tetrahedron_is_a_2222_orbifold():
    tetra = SurfaceMesh.regular_tetrahedron(1.0)
    verdict = is_orbifold_boundary(tetra)
    assert verdict.is_orbifold
    assert verdict.orders == (2, 2, 2, 2)
    assert verdict.diophantine_ok
    for r in cone_angles(tetra):
        assert math.isclose(r.cone_angle, math.pi, abs_tol=1e-12)


def test_cube_is_not_an_orbifold_boundary():
    verdict = is_orbifold_boundary(SurfaceMesh.cube(1.0))
    assert not verdict.is_orbifold
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


def test_vertex_of_order_two_is_where_a_geodesic_retraces():
    """Under ``BILLIARDS_EPS=1e-6`` a disphenoid with one vertex moved by
    2e-7 keeps cone angles within 3.2e-8 of pi: ``cone_angles`` gives
    vertex 0 order 2, and a geodesic aimed at vertex 0 from each face
    around it retraces there, with that cone angle. The tolerance is set
    once per process, so it runs in a child."""
    code = (
        "import math\n"
        "from billiards.surface import (\n"
        "    cone_angles, make_disphenoid, tetrahedron_mesh,\n"
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
        "        (passage,) = geo.vertex_passages\n"
        "        print(passage.vertex, passage.cone_angle == report.cone_angle)\n"
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
    assert len(geo.vertex_passages) == 1
    passage = geo.vertex_passages[0]
    assert abs(passage.cone_angle - math.pi) < 1e-9
    assert np.allclose(geo.end_point, start, atol=1e-9)
    assert np.allclose(geo.end_direction, -d, atol=1e-9)


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
    out = [_bits(geo.start_point), _bits(geo.start_direction)]
    for c in geo.crossings:
        out += [_bits([c.time]), _bits(c.point), repr(
            (c.edge, c.from_face, c.to_face)).encode(), _bits(c.unfolded)]
    for v in geo.vertex_passages:
        out += [_bits([v.time, v.cone_angle]), _bits(v.point), repr(v.vertex).encode()]
    out += [repr(geo.end_face).encode(), _bits(geo.end_point), _bits(geo.end_direction)]
    out += [_bits(seg) for seg in geo.segments]
    return out


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
# moves the last bit, and VertexPassage.cone_angle must read the same sums
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
    # a vertex hit reads the same sums
    mesh = tetrahedron_mesh(make_disphenoid(4.0, 5.0, 6.0))
    tri = mesh.vertices[list(mesh.faces[0])]
    start = tri.mean(axis=0)
    dist = float(np.linalg.norm(tri[2] - start))
    geo = trace_surface_geodesic(mesh, 0, start, tri[2] - start, 2.0 * dist)
    (passage,) = geo.vertex_passages
    assert passage.cone_angle.hex() == _DISPHENOID_456_CONE_ANGLES[passage.vertex]


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
    visits = [c.to_face for c in geo.crossings]
    assert min(visits.count(f) for f in range(4)) >= 50
    assert pickle.dumps(vars(mesh)) == before
    fresh = trace_surface_geodesic(tetrahedron_mesh(verts), 1, p, d, 400.0)
    assert _geodesic_bits(geo) == _geodesic_bits(fresh)
    assert geo.max_collinearity_residual() < 1e-9


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


def _knots(geo):
    """(time, point) at the start, every crossing and passage, and the end."""
    events = [(c.time, c.point) for c in geo.crossings]
    events += [(v.time, v.point) for v in geo.vertex_passages]
    events.sort(key=lambda e: e[0])
    times = np.array([0.0] + [t for t, _ in events] + [geo.horizon])
    points = np.array([geo.start_point] + [p for _, p in events] + [geo.end_point])
    return times, points


def _sup_distance(g1, g2) -> float:
    """Largest distance in R^3 between the two paths at equal times. Both
    are linear between knots, so the distance is convex there and peaks at
    a knot of one of them."""
    (t1, p1), (t2, p2) = _knots(g1), _knots(g2)
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
            assert [v.vertex for v in exact.vertex_passages][:1] == [vertex]
            sups = []
            for delta, (above, below) in pairs.items():
                assert above.n_crossings > 3 and not above.vertex_passages
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
