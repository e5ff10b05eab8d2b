"""Print one sha256 over the events, end states and samples of a fixed set of
seeded billiard runs, so two trees can be shown to step bit for bit alike.

Run from the repository root::

    PYTHONPATH=src python tools/flow_digest.py [-v]

The runs are:

* random convex polygons and random 3D hulls, each run by ``simulate`` and by
  ``simulate_unfolded`` under ``STRICT`` (a run that meets a corner records
  the error's class and message instead of its events);
* boxes in dimension 2 and 3 under ``POINT_REFLECT``, from random starts and
  aimed at their corners, and one corner shot per box under ``STRICT``;
* shots from the interior point of each standard alcove up to rank 8 at each
  of its vertices, run by ``folded_flow`` and by ``simulate`` under
  ``FOLD_GROUP``.

It also hashes ``Polytope.contains`` (location, active set and the bytes of
``worst_violation``) at seeded points on, near, inside and outside some of
those tables, and the tables themselves: the bytes of ``normals``,
``offsets``, ``vertices`` and ``facet_vertices`` of every bundled polytope,
through ``load_table`` and through ``tables.build``, and what
``table_from_data`` makes of un-normalized and malformed table payloads (the
same arrays, or the error's class and message).

Three more groups, one per smooth table (circle, ellipse, perturbed circle),
hash the bytes of the thetas, alphas, chords and points of ``base_angle_run``
on both sides from seeded launch parameters at base angles 0.04, 0.01 and
0.0025, one full loop each, and each run's ``_worst_chord_deviation``.

Three groups cover closed surfaces. One traces seeded geodesics on random
tetrahedra, on ``SurfaceMesh.from_polytope`` hulls (faces with more than
three sides among them) and on the cube, long enough to come back to every
face, some aimed at a vertex, and one retrace through a cone-angle-pi vertex
of a disphenoid. It hashes the bytes of each crossing's time, point, edge,
faces and unfolded point, each vertex passage, every segment and the end
state, or a refused trace's error class and message. The second hashes
``cone_angles``, ``gauss_bonnet_total`` and ``is_orbifold_boundary`` on the
bundled meshes and on seeded ``from_polytope`` and ``convex_hull_mesh``
hulls. The last, "meshes", hashes the faces and face normals of seeded
boxes, cut boxes, hulls and tetrahedra, built by ``from_polytope``,
``convex_hull_mesh`` and ``tetrahedron_mesh``. "Mesh refusals" hashes the
error class and message of ``SurfaceMesh`` on seeded malformed meshes at unit
scale: a bent quadrilateral, a reflex hexagon, inward winding, an open mesh,
a repeated directed edge, a short edge, a degenerate face and a face with
collinear vertices, so that the order and wording of the refusals show.

One group hashes the small verdicts: ``check_alcove`` on every bundled
polytope, every standard alcove and seeded triangles near and far from the
pi/m grid (``is_alcove``, the label, the diagram edges, the failures'
bytes and any warning); ``limit_reflection`` at seeded openings;
``is_disphenoid`` on seeded and constructed tetrahedra; the public
``chord_deviation`` on each smooth table from tuple inputs; and the
``dumps_json`` text of ``table_to_data`` for the bundled and seeded smooth
tables. The wedge directions, like every other point and direction of
``billiards.corner``, are hashed through ``np.asarray``, which gives the same
bytes for a tuple of floats and for an array.

"Smooth frames" hashes each smooth table of the small verdicts by itself:
the bytes of ``point``, ``velocity``, ``tangent``, ``curvature`` and
``implicit`` (on the boundary, inside and outside it) at seeded thetas, the
ellipses' and perturbed circles' ``point`` and ``velocity`` on one seeded
array of thetas, and every field of ``smooth_bounce`` on both sides at base
angles 0.04 and 0.0025.

"Start checks" hashes ``advance_to_boundary`` from seeded starts on
polygons, hulls and boxes: inside, on a facet, at a corner and about the
table's band ``TOL.eps * scale``, inward, along a facet and out of it. It
hashes the bytes of the hit, the distance and the active set, or the error's
class and message.

"Wedge shots" hashes ``unfold_wedge`` at seeded openings (some at pi/k and
just off it) and offsets: the start, the bounce points, the outgoing
direction and angle and the bounce count, or a refused shot's error class
and message.

"Fold points" hashes the one chamber fold both ways it is used: the bytes
of the point and the word of ``fold_point`` at seeded points inside each
standard alcove up to rank 8 and each bundled alcove, near its walls and
up to 50 table lengths away, and its refusal of the bundled non-alcove; and
the outgoing direction, kind and word of ``reflect_at`` under
``FOLD_GROUP`` at each vertex of those alcoves.

Every event contributes the bytes of its time, point, incoming and outgoing
directions, its active set and its kind; every run its end point, direction
and time. One more group hashes ``Trajectory.sample`` on each of these runs
but the ``simulate`` alcove shots, at seeded times and at every event time.
With ``-v`` one short digest per group is printed as well, to find the group
where two trees part. Each group of runs then prints a second one over the
runs' sequences only: each run's bounce count, active sets and kinds, or the
class of its error. Where a change moves the bytes of a group's runs, an
equal second digest shows that every run kept its facet/corner sequence.
"""

from __future__ import annotations

import hashlib
import math
import sys
import warnings

import numpy as np

from billiards.alcove import (
    check_alcove,
    fold_point,
    folded_flow,
    standard_alcove,
    standard_alcove_labels,
)
from billiards.config import TOL
from billiards.corner import limit_reflection, unfold_wedge
from billiards.dynamics import (
    CornerPolicy,
    TrajectoryState,
    advance_to_boundary,
    reflect_at,
    simulate,
    simulate_unfolded,
)
from billiards.errors import BilliardsError
from billiards.geometry import Polytope
from billiards.io import (
    bundled_table_names,
    dumps_json,
    load_table,
    table_from_data,
    table_to_data,
)
from billiards.smooth import (
    Circle,
    Ellipse,
    PerturbedCircle,
    SmoothTable,
    _worst_chord_deviation,
    base_angle_run,
    chord_deviation,
    smooth_bounce,
)
from billiards.surface import (
    SurfaceMesh,
    cone_angles,
    convex_hull_mesh,
    gauss_bonnet_total,
    is_disphenoid,
    is_orbifold_boundary,
    make_disphenoid,
    tetrahedron_mesh,
    trace_surface_geodesic,
)
from billiards.tables import build


def _polygon(rng) -> Polytope:
    """A convex polygon with 3 to 8 vertices on a circle, edges not tiny."""
    k = int(rng.integers(3, 9))
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * np.pi))
        if gaps.min() > 0.15 and gaps.max() < np.pi - 0.15:
            break
    center = rng.uniform(-0.3, 0.3, 2)
    radius = rng.uniform(0.7, 1.5)
    return Polytope.convex_polygon(
        center + radius * np.c_[np.cos(angles), np.sin(angles)]
    )


def _hull(rng) -> Polytope:
    """The hull of 8 to 15 points on a sphere."""
    pts = rng.normal(size=(int(rng.integers(8, 16)), 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return Polytope.from_point_cloud(pts * rng.uniform(0.8, 1.4))


def _start(rng, table: Polytope) -> TrajectoryState:
    point = rng.dirichlet(np.ones(len(table.vertices))) @ table.vertices
    point = 0.7 * point + 0.3 * table.interior_point()
    return TrajectoryState(point, rng.normal(size=table.dim))


def _run(run, table, state, horizon, *args):
    """The trajectory, or the error's class and message as bytes."""
    try:
        return run(table, state, horizon, *args)
    except BilliardsError as err:
        return f"{type(err).__name__}: {err}".encode()


def _record(digest, traj) -> None:
    if isinstance(traj, bytes):
        digest.update(traj)
        return
    for e in traj.events:
        digest.update(np.float64(e.time).tobytes())
        for arr in (e.point, e.incoming, e.outgoing):
            digest.update(arr.tobytes())
        digest.update(repr((e.active, e.kind.value)).encode())
    digest.update(b"end")
    digest.update(traj.end.point.tobytes())
    digest.update(traj.end.direction.tobytes())
    digest.update(np.float64(traj.end.time).tobytes())


def _random_table_runs():
    rng = np.random.default_rng(801)
    for k in range(60):
        table = _polygon(rng) if k % 2 == 0 else _hull(rng)
        state = _start(rng, table)
        for run in (simulate, simulate_unfolded):
            yield run, table, state, 40.0, CornerPolicy.STRICT


def _box_runs():
    rng = np.random.default_rng(802)
    for dim in (2, 3):
        box = Polytope.box(-np.ones(dim), np.linspace(1.0, 2.0, dim))
        center = box.interior_point()
        shots = [_start(rng, box) for _ in range(10)]
        shots += [TrajectoryState(center, v - center) for v in box.vertices]
        for state in shots:
            for run in (simulate, simulate_unfolded):
                yield run, box, state, 20.0, CornerPolicy.POINT_REFLECT
        # under STRICT a corner shot records the error's message
        for run in (simulate, simulate_unfolded):
            yield run, box, shots[-1], 20.0, CornerPolicy.STRICT


def _alcove_vertex_shots():
    for label in standard_alcove_labels(8):
        alcove = standard_alcove(label)
        x0 = alcove.interior_point()
        for v in alcove.vertices:
            yield alcove, TrajectoryState(x0, v - x0)


def _alcove_vertex_shot_runs():
    for alcove, state in _alcove_vertex_shots():
        yield folded_flow, alcove, state, 30.0


def _alcove_vertex_shot_simulate_runs():
    for alcove, state in _alcove_vertex_shots():
        yield simulate, alcove, state, 30.0, CornerPolicy.FOLD_GROUP


def _record_sequence(digest, traj) -> None:
    """Only the run's sequence: its bounce count, active sets and kinds, or
    the class of its error."""
    if isinstance(traj, bytes):
        digest.update(traj.split(b":", 1)[0])
        return
    kinds = [kind.value for kind in traj.kinds]
    digest.update(repr((traj.n_bounces, traj.active, kinds)).encode())


class _Events:
    """The group that records every run of ``runs``; given a second digest,
    it records each run's sequence there too."""

    def __init__(self, runs):
        self.runs = runs

    def __call__(self, digest, sequences=None) -> None:
        for call in self.runs():
            traj = _run(*call)
            _record(digest, traj)
            if sequences is not None:
                _record_sequence(sequences, traj)


def _samples(digest) -> None:
    """``sample`` on every run above, at 50 seeded times in ``[-1, horizon +
    1]`` (so clipped ones too), at 0 and the horizon, and at every event
    time."""
    rng = np.random.default_rng(804)
    for runs in (_random_table_runs, _box_runs, _alcove_vertex_shot_runs):
        for call in runs():
            traj = _run(*call)
            if isinstance(traj, bytes):
                digest.update(traj)
                continue
            horizon = call[3]
            ts = np.concatenate([
                rng.uniform(-1.0, horizon + 1.0, 50),
                [0.0, horizon],
                [e.time for e in traj.events],
            ])
            digest.update(traj.sample(ts).tobytes())


def _containment(digest) -> None:
    rng = np.random.default_rng(803)
    tables = [_polygon(rng) for _ in range(10)] + [_hull(rng) for _ in range(10)]
    tables += [standard_alcove(label) for label in ("A3~", "B4~", "E8~")]
    for table in tables:
        verts = table.vertices
        # vertices, points on facets and edges, inside and outside, and
        # points within rounding of the boundary
        points = list(verts)
        points += list(rng.dirichlet(np.ones(2), 20) @ verts[:2])
        points += list(rng.uniform(-2.0, 2.0, (20, table.dim)) * np.abs(verts).max())
        points += [v * (1.0 + s) for v in verts for s in (-1e-9, 1e-12, 1e-6)]
        for x in points:
            c = table.contains(x)
            digest.update(repr((c.location.value, c.active)).encode())
            digest.update(np.float64(c.worst_violation).tobytes())


def _update_table(digest, table) -> None:
    for arr in (table.normals, table.offsets, table.vertices):
        digest.update(arr.tobytes())
    digest.update(repr(table.facet_vertices).encode())


def _payloads():
    """Table payloads with un-normalized normals, with and without vertex
    data: as given, and with faults at chosen entries (one fault, or two in
    both orders)."""
    inf, nan = float("inf"), float("nan")
    rows = [([3.0, 0.0], 3.0), ([-5.0, 0.0], 0.0), ([0.0, 2.0], 2.0),
            ([0.0, -7.0], 0.0), ([1.0, 1.0], 1.5)]
    faults = {
        "wrong dimension": ([1.0, 0.0, 0.0], 1.0),
        "zero normal": ([0.0, 0.0], 1.0),
        "inf normal": ([inf, 0.0], 1.0),
        "nan normal": ([0.0, nan], 1.0),
        "inf offset": ([0.0, 1.0], inf),
        "nan offset": ([1.0, 0.0], nan),
        "-inf offset": ([0.0, -4.0], -inf),
        "offset overflows when rescaled": ([1e-100, 0.0], 1e300),
    }
    cases = [{}] + [{k: fault} for k in (0, 2, 4) for fault in faults.values()]
    names = list(faults)
    for a in names:
        for b in names:
            if a != b:
                cases.append({1: faults[a], 3: faults[b]})
    # the unit square with the corner x + y > 1.5 cut off
    vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 1.0]]
    for case in cases:
        halfspaces = [
            {"normal": n, "offset": c}
            for n, c in (case.get(k, row) for k, row in enumerate(rows))
        ]
        yield {"dim": 2, "halfspaces": halfspaces}
        yield {"dim": 2, "halfspaces": halfspaces, "vertices": vertices}


def _tables(digest) -> None:
    for name in bundled_table_names():
        for table in (load_table(name), build(name)):
            if isinstance(table, Polytope):
                _update_table(digest, table)
    for data in _payloads():
        try:
            table = table_from_data(data)
        except BilliardsError as err:
            digest.update(f"{type(err).__name__}: {err}".encode())
        else:
            _update_table(digest, table)


def _smooth_runs(table):
    """The group that records small-angle runs on the smooth ``table``."""

    def group(digest) -> None:
        rng = np.random.default_rng(805)
        for theta0 in rng.uniform(0.0, 2.0 * np.pi, 3):
            for alpha in (0.04, 0.01, 0.0025):
                for side in (+1, -1):
                    n = int(np.ceil(np.pi / alpha))
                    run = base_angle_run(table, theta0, alpha, n, side)
                    for arr in (run.thetas, run.alphas, run.chords, run.points):
                        digest.update(arr.tobytes())
                    digest.update(
                        np.float64(_worst_chord_deviation(table, run)).tobytes()
                    )

    return group


def _sphere_points(rng, n: int) -> np.ndarray:
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _cut_box(rng) -> Polytope:
    """A box with one corner cut off: faces of three, four and five sides."""
    lo, hi = -rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3)
    box = Polytope.box(lo, hi)
    corner = int(np.argmax(box.vertices.sum(axis=1)))
    cut = hi - np.diag(rng.uniform(0.1, 0.4, 3))
    return Polytope.from_point_cloud(
        np.concatenate([np.delete(box.vertices, corner, axis=0), cut])
    )


def _trace_meshes(rng):
    """Random tetrahedra, boxy hulls with quadrilateral faces, round hulls
    and the cube."""
    for k in range(24):
        yield tetrahedron_mesh(rng.normal(size=(4, 3)))
        if k % 3 == 0:
            yield SurfaceMesh.from_polytope(_cut_box(rng))
        elif k % 3 == 1:
            yield SurfaceMesh.from_polytope(
                Polytope.from_point_cloud(_sphere_points(rng, int(rng.integers(8, 16))))
            )
        else:
            yield SurfaceMesh.cube(float(rng.uniform(0.5, 2.0)))


def _update_geodesic(digest, geo) -> None:
    for c in geo.crossings:
        digest.update(np.float64(c.time).tobytes())
        digest.update(c.point.tobytes())
        digest.update(repr((c.edge, c.from_face, c.to_face)).encode())
        digest.update(c.unfolded.tobytes())
    for v in geo.vertex_passages:
        digest.update(np.array([v.time, v.cone_angle]).tobytes())
        digest.update(v.point.tobytes())
        digest.update(repr(v.vertex).encode())
    for seg in geo.segments:
        digest.update(seg.tobytes())
    digest.update(b"end")
    digest.update(repr(geo.end_face).encode())
    digest.update(geo.end_point.tobytes())
    digest.update(geo.end_direction.tobytes())


def _surface_geodesics(digest) -> None:
    rng = np.random.default_rng(806)
    for mesh in _trace_meshes(rng):
        scale = float(np.max(np.ptp(mesh.vertices, axis=0)))
        for aimed in (False, True):
            face = int(rng.integers(len(mesh.faces)))
            corners = mesh.vertices[list(mesh.faces[face])]
            p = rng.dirichlet(np.ones(len(corners))) @ corners
            d = (corners[int(rng.integers(len(corners)))] - p if aimed
                 else rng.normal(size=3))
            try:
                geo = trace_surface_geodesic(mesh, face, p, d, 40.0 * scale)
            except BilliardsError as err:
                digest.update(f"{type(err).__name__}: {err}".encode())
            else:
                _update_geodesic(digest, geo)
    # through a vertex of cone angle pi and back
    mesh = tetrahedron_mesh(make_disphenoid(4.0, 5.0, 6.0))
    tri = mesh.vertices[list(mesh.faces[0])]
    start = tri.mean(axis=0)
    dist = float(np.linalg.norm(tri[2] - start))
    _update_geodesic(
        digest, trace_surface_geodesic(mesh, 0, start, tri[2] - start, 3.0 * dist)
    )


def _cone_angles(digest) -> None:
    rng = np.random.default_rng(807)
    meshes = [t for t in map(load_table, bundled_table_names())
              if isinstance(t, SurfaceMesh)]
    for _ in range(20):
        pts = _sphere_points(rng, int(rng.integers(5, 30)))
        meshes.append(SurfaceMesh.from_polytope(Polytope.from_point_cloud(pts)))
        meshes.append(convex_hull_mesh(pts * rng.uniform(0.1, 10.0)))
    for mesh in meshes:
        for r in cone_angles(mesh):
            digest.update(np.array([r.cone_angle, r.curvature]).tobytes())
            digest.update(repr((r.index, r.orbifold_order)).encode())
        digest.update(np.float64(gauss_bonnet_total(mesh)).tobytes())
        digest.update(repr(is_orbifold_boundary(mesh)).encode())


def _meshes(digest) -> None:
    """The faces and the bytes of every face normal of the cube and of seeded
    meshes: ``from_polytope`` on boxes, cut boxes and sphere hulls,
    ``convex_hull_mesh`` from 1e-3 to 1e3 and ``tetrahedron_mesh``."""
    rng = np.random.default_rng(809)
    meshes = [SurfaceMesh.cube(1.0)]
    for _ in range(100):
        box = Polytope.box(-rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3))
        pts = _sphere_points(rng, int(rng.integers(5, 30)))
        meshes += [
            SurfaceMesh.from_polytope(box),
            SurfaceMesh.from_polytope(_cut_box(rng)),
            SurfaceMesh.from_polytope(Polytope.from_point_cloud(pts)),
            convex_hull_mesh(pts * 10.0 ** rng.uniform(-3.0, 3.0)),
            tetrahedron_mesh(rng.normal(size=(4, 3))),
        ]
    for mesh in meshes:
        digest.update(repr(mesh.faces).encode())
        for k in range(len(mesh.faces)):
            digest.update(mesh.face_normal(k).tobytes())


def _refusals(rng):
    """Seeded malformed meshes at unit scale, each as ``(vertices, faces)``:
    a bent quadrilateral, a reflex hexagon, inward winding, an open mesh, a
    repeated directed edge, a short edge, a degenerate face and a face with
    collinear vertices."""
    cube = SurfaceMesh.cube(1.0)
    for _ in range(10):
        # whole shifts, so that the midpoint of an edge is exact
        verts, faces = cube.vertices + rng.integers(-2, 3, 3), list(cube.faces)
        k = int(rng.integers(len(faces)))
        bent = verts.copy()
        bent[int(rng.integers(len(bent)))] += rng.uniform(-0.3, 0.3, 3)
        yield bent, faces
        # the L prism, its reflex corner moved about (1, 1)
        x, y = rng.uniform(0.5, 1.5, 2)
        hexagon = [(0, 0), (2, 0), (2, 1), (x, y), (1, 2), (0, 2)]
        sides = [(i, (i + 1) % 6, (i + 1) % 6 + 6, i + 6) for i in range(6)]
        prism = [(a, b, 0.0) for a, b in hexagon] + [(a, b, 1.0) for a, b in hexagon]
        yield prism, [(5, 4, 3, 2, 1, 0), (6, 7, 8, 9, 10, 11), *sides]
        yield verts, [face[::-1] for face in faces]
        yield verts, faces[:k] + faces[k + 1:]
        yield verts, faces + faces[k:k + 1]
        # a triangular prism whose top corner 3 nearly meets bottom corner 0
        height = float(rng.uniform(0.0, 9e-10))
        yield (
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, height], [1, 0, 1], [0, 1, 1]],
            [(0, 2, 1), (3, 4, 5), (0, 1, 4, 3), (1, 2, 5, 4), (2, 0, 3, 5)],
        )
        yield verts, faces[:k] + [faces[k] + faces[k][:1]] + faces[k + 1:]
        # the edge (a, b) of face k split at its midpoint 8, and the triangle
        # (a, b, 8) with collinear vertices across it
        i = int(rng.integers(4))
        a, b = faces[k][i], faces[k][(i + 1) % 4]
        split = list(faces)
        split[k] = faces[k][: i + 1] + (8,) + faces[k][i + 1:]
        yield np.vstack([verts, (verts[a] + verts[b]) / 2]), [*split, (a, b, 8)]


def _mesh_refusals(digest) -> None:
    """The error class and message of ``SurfaceMesh`` on each malformed
    mesh of :func:`_refusals`, or the faces and normals of one it builds."""
    for verts, faces in _refusals(np.random.default_rng(812)):
        try:
            mesh = SurfaceMesh(verts, faces)
        except BilliardsError as err:
            digest.update(_error(err))
        else:
            digest.update(repr(mesh.faces).encode())
            for k in range(len(mesh.faces)):
                digest.update(mesh.face_normal(k).tobytes())


def _start_cases(rng):
    """``(table, point, direction)`` starts of one step on a polygon and a
    hull, each at unit scale and at scale 40, and on a 5D box: inside, on a
    facet, at a corner and off a facet by fractions and multiples of the
    table's band ``TOL.eps * scale``; inward, along the facet, out of it, at
    rates either side of ``TOL.tangential`` and at random. Last, 3D boxes
    whose facet 0 has a slack of exactly plus or minus the band."""
    tables = [_polygon(rng), _hull(rng)]
    tables += [Polytope.convex_polygon(40.0 * _polygon(rng).vertices),
               Polytope.from_point_cloud(40.0 * _hull(rng).vertices),
               Polytope.box(-np.arange(1.0, 6.0), np.linspace(20.0, 30.0, 5))]
    for table in tables:
        band = TOL.eps * table.scale
        inside = _start(rng, table).point
        for k in rng.choice(table.n_facets, size=3, replace=False).tolist():
            n = table.normals[k]
            ends = table.vertices[list(table.facet_vertices[k])]
            on_facet = rng.dirichlet(np.ones(len(ends))) @ ends
            points = [inside, on_facet, ends[0]] + [
                on_facet + m * band * n for m in (-2.0, -1.01, -0.99, 0.99, 1.01, 2.0)
            ]
            t = rng.normal(size=table.dim)
            t -= t.dot(n) * n  # along the facet
            slow = TOL.tangential * np.linalg.norm(t) * n
            directions = [-n + 0.3 * t, t, n + 0.3 * t, t + 0.5 * slow,
                          t + 2.0 * slow, rng.normal(size=table.dim)]
            for p in points:
                for d in directions:
                    yield table, p, d
    # x[0] is 0 and the box's scale is 9, so facet 0's slack is exactly -top,
    # which is plus or minus the band
    x, band = np.array([0.0, 3.0, -4.0]), TOL.eps * 9.0
    for top in (band, -band):
        box = Polytope.box([-1.0, -9.0, -9.0], [top, 9.0, 9.0])
        for d in ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0]):
            yield box, x, np.array(d)


def _start_checks(digest) -> None:
    """``advance_to_boundary`` from each start of ``_start_cases``: the hit,
    the distance and the active set, or the error's class and message."""
    for table, p, d in _start_cases(np.random.default_rng(813)):
        try:
            hit, dt, active = advance_to_boundary(table, p, d)
        except BilliardsError as err:
            digest.update(_error(err))
            continue
        digest.update(hit.tobytes())
        digest.update(np.float64(dt).tobytes())
        digest.update(repr(active).encode())


def _error(err: BilliardsError) -> bytes:
    return f"{type(err).__name__}: {err}".encode()


def _triangle(a: float, b: float) -> Polytope:
    """The triangle on (0, 0) and (1, 0) with angles ``a`` and ``b`` there."""
    t = math.sin(b) / math.sin(a + b)
    return Polytope.convex_polygon(
        [[0.0, 0.0], [1.0, 0.0], [t * math.cos(a), t * math.sin(a)]]
    )


def _alcove_verdicts(digest, rng) -> None:
    tables = [t for t in map(load_table, bundled_table_names())
              if isinstance(t, Polytope)]
    tables += [standard_alcove(label) for label in standard_alcove_labels(8)]
    tables += [_polygon(rng) for _ in range(20)]
    # right-angled and pi/m triangles, on the grid and off it by 1e-12 to
    # 1e-4, so that some angles land on each side of the tolerance
    for p, q in ((2, 4), (3, 3), (2, 3), (2, 6), (4, 4), (3, 6), (5, 7)):
        for shift in (0.0, 1e-12, 1e-10, 3e-9, 1e-8, 1e-6, 1e-4):
            off = shift * rng.choice((-1.0, 1.0))
            tables.append(_triangle(math.pi / p + off, math.pi / q))
    for table in tables:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verdict = check_alcove(table)
        digest.update(repr((verdict.is_alcove, verdict.label)).encode())
        digest.update(repr([str(w.message) for w in caught]).encode())
        if verdict.diagram is not None:
            digest.update(repr(sorted(verdict.diagram.edges.items())).encode())
        digest.update(repr([c.label for c in verdict.components]).encode())
        for f in verdict.failures:
            digest.update(repr((f.facets, f.nearest_m)).encode())
            digest.update(np.array([f.angle, f.nearest_angle, f.error]).tobytes())


def _wedge_limits(digest, rng) -> None:
    alphas = list(rng.uniform(1e-3, math.pi - 1e-3, 200))
    for k in range(2, 40):
        for e in (0.0, 1e-9, 1e-8, 1e-7, 1e-6):
            alphas += [math.pi / k + e, math.pi / k - e]
    for alpha in alphas:
        limit = limit_reflection(alpha)
        digest.update(repr((limit.m, limit.continuous, limit.bounce_count)).encode())
        digest.update(np.array([
            limit.alpha, limit.beta, limit.gap,
            limit.outgoing_above, limit.outgoing_below,
        ]).tobytes())
        digest.update(np.asarray(limit.direction_above).tobytes())
        digest.update(np.asarray(limit.direction_below).tobytes())


def _wedge_shots(digest) -> None:
    """``unfold_wedge`` at seeded openings, at pi/k and just off it, and at
    tiny, small, large and refused offsets on both sides."""
    rng = np.random.default_rng(810)
    alphas = list(rng.uniform(1e-3, math.pi - 1e-3, 60))
    for k in (2, 3, 5, 8, 13, 40):
        alphas += [math.pi / k, math.pi / k + 1e-9, math.pi / k - 1e-7]
    alphas += [0.0, math.pi, math.pi / 100_000.5]
    for alpha in alphas:
        offsets = list(10.0 ** rng.uniform(-12.0, 2.0, 3)) + [1e-300, 1e290, 1e300]
        for offset in offsets + [0.0]:
            for sign in (1.0, -1.0):
                try:
                    shot = unfold_wedge(alpha, sign * offset)
                except BilliardsError as err:
                    digest.update(_error(err))
                    continue
                digest.update(repr((shot.alpha, shot.offset, shot.bounce_count)).encode())
                for arr in (shot.start, shot.bounce_points, shot.outgoing_direction):
                    digest.update(np.asarray(arr, dtype=float).tobytes())
                digest.update(np.float64(shot.outgoing_angle).tobytes())


def _fold_points(digest) -> None:
    """``fold_point`` on every standard alcove up to rank 8 and every bundled
    alcove, at seeded points inside, within 1e-6 of a wall on either side
    and 1 to 50 table lengths away, and its refusal of the bundled
    non-alcove; then ``reflect_at`` under ``FOLD_GROUP`` at each vertex of
    those alcoves, for the shot from the interior point and for seeded
    incoming directions."""
    rng = np.random.default_rng(811)
    alcoves = [standard_alcove(label) for label in standard_alcove_labels(8)]
    alcoves += [build(name) for name in ("rectangle", "simplex_A3", "square",
                                         "triangle_A2", "triangle_C2", "triangle_G2")]
    for table in alcoves:
        x0, scale = table.interior_point(), table.scale
        points = list(rng.dirichlet(np.ones(len(table.vertices)), 10) @ table.vertices)
        for k in rng.integers(table.n_facets, size=5):
            on_wall = table.vertices[list(table.facet_vertices[k])].mean(axis=0)
            for s in (-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6):
                points.append(on_wall + s * scale * table.normals[k])
        for r in rng.uniform(1.0, 50.0, 20):
            u = rng.normal(size=table.dim)
            points.append(x0 + r * scale * u / np.linalg.norm(u))
        for x in points:
            y, word = fold_point(table, x)
            digest.update(y.tobytes())
            digest.update(repr(word).encode())
        for v in table.vertices:
            active = table.contains(v).active
            for d in [v - x0, *rng.normal(size=(5, table.dim))]:
                try:
                    r = reflect_at(table, v, d, active, CornerPolicy.FOLD_GROUP)
                except BilliardsError as err:
                    digest.update(_error(err))
                    continue
                digest.update(r.outgoing.tobytes())
                digest.update(repr((r.kind.value, r.word)).encode())
    try:
        fold_point(build("triangle_nonalcove"), (0.1, 0.1))
    except BilliardsError as err:
        digest.update(_error(err))


def _disphenoid_checks(digest, rng) -> None:
    tetrahedra = [rng.normal(size=(4, 3)) for _ in range(20)]
    for _ in range(20):
        a, b, c = rng.uniform(4.0, 6.0, 3)
        verts = make_disphenoid(a, b, c) * rng.uniform(0.1, 10.0)
        tetrahedra.append(verts)
        for size in (1e-12, 1e-10, 1e-9, 1e-8):
            tetrahedra.append(verts + size * rng.normal(size=(4, 3)))
    tetrahedra.append(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
    for verts in tetrahedra:
        try:
            check = is_disphenoid(verts)
        except BilliardsError as err:
            digest.update(_error(err))
            continue
        digest.update(repr((check.is_disphenoid, check.opposite_pairs)).encode())
        digest.update(np.array([*np.ravel(check.lengths), check.max_mismatch]).tobytes())


def _smooth_tables() -> list[SmoothTable]:
    tables = [t for t in map(load_table, bundled_table_names())
              if isinstance(t, SmoothTable)]
    return tables + [Circle(2.5), Ellipse(1.5, 0.75), PerturbedCircle(-0.02, 5)]


def _chord_deviations(digest, rng) -> None:
    for table in _smooth_tables():
        for theta0 in rng.uniform(0.0, 2.0 * math.pi, 10):
            for width in (0.5, 0.05, 0.005):
                theta1 = theta0 + width
                p0, p1 = table.point(theta0), table.point(theta1)
                chords = [(p0, p1), (p0, p0)]
                # a chord from inside the table
                chords.append((tuple(0.5 * x for x in p0), p1))
                for q0, q1 in chords:
                    digest.update(np.float64(
                        chord_deviation(table, q0, q1, theta0, theta1)
                    ).tobytes())


def _smooth_table_data(digest) -> None:
    for table in _smooth_tables():
        digest.update(dumps_json(table_to_data(table)).encode())
    for name in bundled_table_names():
        table = build(name)
        if isinstance(table, SmoothTable):
            digest.update(dumps_json(table_to_data(table)).encode())


def _smooth_frames(digest) -> None:
    rng = np.random.default_rng(814)
    for table in _smooth_tables():
        for theta in rng.uniform(-2.0 * math.pi, 4.0 * math.pi, 50).tolist():
            x, y = table.point(theta)
            values = [x, y, *table.velocity(theta), *table.tangent(theta),
                      table.curvature(theta)]
            # the implicit function on the boundary, inside and outside it
            values += [table.implicit(s * x, s * y) for s in (1.0, 0.5, 1.5)]
            digest.update(np.array(values).tobytes())
        thetas = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, 64)
        if not isinstance(table, Circle):
            for arrays in (table.point(thetas), table.velocity(thetas)):
                digest.update(np.array(arrays).tobytes())
        for theta in thetas[:5].tolist():
            for alpha in (0.04, 0.0025):
                for side in (+1, -1):
                    s = smooth_bounce(table, theta, alpha, side)
                    digest.update(np.array([
                        s.theta, s.theta_next, s.alpha, s.alpha_next, s.chord,
                        *s.point, *s.point_next, *s.direction,
                    ]).tobytes())


def _small_verdicts(digest) -> None:
    rng = np.random.default_rng(808)
    _alcove_verdicts(digest, rng)
    _wedge_limits(digest, rng)
    _disphenoid_checks(digest, rng)
    _chord_deviations(digest, rng)
    _smooth_table_data(digest)


GROUPS = (
    ("random tables, STRICT", _Events(_random_table_runs)),
    ("boxes, POINT_REFLECT", _Events(_box_runs)),
    ("alcove vertex shots, folded_flow", _Events(_alcove_vertex_shot_runs)),
    ("alcove vertex shots, simulate under FOLD_GROUP",
     _Events(_alcove_vertex_shot_simulate_runs)),
    ("Trajectory.sample on every run", _samples),
    ("Polytope.contains on seeded points", _containment),
    ("tables, bundled and from payloads", _tables),
    ("smooth runs, circle", _smooth_runs(Circle(1.0))),
    ("smooth runs, ellipse", _smooth_runs(Ellipse(2.0, 1.0))),
    ("smooth runs, perturbed circle", _smooth_runs(PerturbedCircle(0.05, 3))),
    ("surface geodesics", _surface_geodesics),
    ("cone angles", _cone_angles),
    ("small verdicts", _small_verdicts),
    ("wedge shots", _wedge_shots),
    ("fold points", _fold_points),
    ("meshes", _meshes),
    ("mesh refusals", _mesh_refusals),
    ("start checks", _start_checks),
    ("smooth frames", _smooth_frames),
)


def main(argv: list[str]) -> int:
    verbose = "-v" in argv
    total = hashlib.sha256()
    for name, group in GROUPS:
        digest = hashlib.sha256()
        sequences = None
        if verbose and isinstance(group, _Events):
            sequences = hashlib.sha256()
            group(digest, sequences)
        else:
            group(digest)
        total.update(digest.digest())
        if verbose:
            print(f"{name}: {digest.hexdigest()[:16]}")
        if sequences is not None:
            print(f"{name}, sequences: {sequences.hexdigest()[:16]}")
    print(f"flow digest: sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
