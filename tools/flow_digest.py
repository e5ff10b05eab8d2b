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

Two groups cover closed surfaces. One traces seeded geodesics on random
tetrahedra, on ``SurfaceMesh.from_polytope`` hulls (faces with more than
three sides among them) and on the cube, long enough to come back to every
face, some aimed at a vertex, and one retrace through a cone-angle-pi vertex
of a disphenoid. It hashes the bytes of each crossing's time, point, edge,
faces and unfolded point, each vertex passage, every segment and the end
state, or a refused trace's error class and message. The other hashes
``cone_angles``, ``gauss_bonnet_total`` and ``is_orbifold_boundary`` on the
bundled meshes and on seeded ``from_polytope`` and ``convex_hull_mesh``
hulls.

One group hashes the small verdicts: ``check_alcove`` on every bundled
polytope, every standard alcove and seeded triangles near and far from the
pi/m grid (``is_alcove``, the label, the diagram edges, the failures'
bytes and any warning); ``limit_reflection`` at seeded openings;
``is_disphenoid`` on seeded and constructed tetrahedra; the public
``chord_deviation`` on each smooth table from tuple inputs; and the
``dumps_json`` text of ``table_to_data`` for the bundled and seeded smooth
tables.

Every event contributes the bytes of its time, point, incoming and outgoing
directions, its active set and its kind; every run its end point, direction
and time. One more group hashes ``Trajectory.sample`` on each of these runs
but the ``simulate`` alcove shots, at seeded times and at every event time.
With ``-v`` one short digest per group of runs is printed as well, to find the
group where two trees part.
"""

from __future__ import annotations

import hashlib
import math
import sys
import warnings

import numpy as np

from billiards.alcove import (
    check_alcove,
    folded_flow,
    standard_alcove,
    standard_alcove_labels,
)
from billiards.corner import limit_reflection
from billiards.dynamics import (
    CornerPolicy,
    TrajectoryState,
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


def _events(runs):
    """The group that records every run of ``runs``."""

    def group(digest) -> None:
        for call in runs():
            _record(digest, _run(*call))

    return group


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


def _trace_meshes(rng):
    """Random tetrahedra, boxy hulls with quadrilateral faces, round hulls
    and the cube."""
    for k in range(24):
        yield tetrahedron_mesh(rng.normal(size=(4, 3)))
        if k % 3 == 0:
            # a box with one corner cut off: faces of three, four and five
            # sides
            lo, hi = -rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3)
            box = Polytope.box(lo, hi)
            corner = int(np.argmax(box.vertices.sum(axis=1)))
            cut = hi - np.diag(rng.uniform(0.1, 0.4, 3))
            yield SurfaceMesh.from_polytope(Polytope.from_point_cloud(
                np.concatenate([np.delete(box.vertices, corner, axis=0), cut])
            ))
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
        digest.update(limit.direction_above.tobytes())
        digest.update(limit.direction_below.tobytes())


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


def _small_verdicts(digest) -> None:
    rng = np.random.default_rng(808)
    _alcove_verdicts(digest, rng)
    _wedge_limits(digest, rng)
    _disphenoid_checks(digest, rng)
    _chord_deviations(digest, rng)
    _smooth_table_data(digest)


GROUPS = (
    ("random tables, STRICT", _events(_random_table_runs)),
    ("boxes, POINT_REFLECT", _events(_box_runs)),
    ("alcove vertex shots, folded_flow", _events(_alcove_vertex_shot_runs)),
    ("alcove vertex shots, simulate under FOLD_GROUP",
     _events(_alcove_vertex_shot_simulate_runs)),
    ("Trajectory.sample on every run", _samples),
    ("Polytope.contains on seeded points", _containment),
    ("tables, bundled and from payloads", _tables),
    ("smooth runs, circle", _smooth_runs(Circle(1.0))),
    ("smooth runs, ellipse", _smooth_runs(Ellipse(2.0, 1.0))),
    ("smooth runs, perturbed circle", _smooth_runs(PerturbedCircle(0.05, 3))),
    ("surface geodesics", _surface_geodesics),
    ("cone angles", _cone_angles),
    ("small verdicts", _small_verdicts),
)


def main(argv: list[str]) -> int:
    total = hashlib.sha256()
    for name, group in GROUPS:
        digest = hashlib.sha256()
        group(digest)
        total.update(digest.digest())
        if "-v" in argv:
            print(f"{name}: {digest.hexdigest()[:16]}")
    print(f"flow digest: sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
