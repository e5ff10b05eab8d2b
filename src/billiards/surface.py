"""Intrinsic geometry of closed polyhedral surfaces in R^3.

A ``SurfaceMesh`` is a closed, consistently oriented polyhedral sphere:
every edge borders exactly two faces with opposite induced orientations and
the Euler count is ``V - E + F = 2``. The metric is flat away from the
vertices; all curvature concentrates in the *cone angle* at each vertex (the
sum of the incident face angles), with angular defect ``2*pi - angle``. The
defects of any closed convex surface add up to ``4*pi``.

A vertex is an orbifold point of order ``n`` when its cone angle is
``2*pi/n``. If every vertex is an orbifold point, summing defects forces
exactly four vertices, all of order two (cone angle ``pi``), and among
tetrahedra that happens precisely for *disphenoids*: tetrahedra whose three
pairs of opposite edges have equal lengths, i.e. whose faces are four
congruent acute triangles.

Geodesics run straight inside faces and unfold across edges: crossing an
edge rotates the direction about it through the dihedral angle, and the
accumulated unfolding isometry maps the whole path onto a straight segment
in the plane. Vertices are genuine singularities; the only case with a
continuous continuation is cone angle ``pi``, where the developed exit ray
coincides with the entry ray and the geodesic retraces itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .config import TOL
from .errors import (
    InputError,
    NotAcuteError,
    OpenSurfaceError,
    VertexHitError,
)
from .geometry import _MAX_HULL_COORDINATE, _checked_horizon, _checked_points
from .geometry import as_point, length_scale, normalized, unit, vector_norm

__all__ = [
    "SurfaceMesh",
    "VertexReport",
    "OrbifoldVerdict",
    "DisphenoidCheck",
    "TriangulationReport",
    "EdgeCrossing",
    "VertexPassage",
    "SurfaceGeodesic",
    "cone_angles",
    "gauss_bonnet_total",
    "is_orbifold_boundary",
    "is_disphenoid",
    "make_disphenoid",
    "tetrahedron_mesh",
    "convex_hull_mesh",
    "triangulate_check",
    "disk_inequality",
    "trace_surface_geodesic",
]


class SurfaceMesh:
    """Closed oriented polyhedral surface (vertices + CCW-from-outside faces).

    A mesh is immutable: it keeps a read-only copy of ``vertices``, so the
    edge maps, face normals and length scale built here stay true of it.

    Its *corner table* decides once which vertex follows and which precedes
    each face corner: ``_corners`` is a read-only ``(4, C)`` integer array,
    one column per corner in face order, with the rows vertex, next vertex,
    previous vertex and face; face ``k`` has the columns from ``_first[k]``,
    its corner at ``faces[k][0]``, up to ``_first[k + 1]``. Corner ``j`` is
    also the directed edge ``j``, from its vertex to the next, so the table
    is the array form of a half-edge list. The face normals, the convexity
    and orientation tests, the cone angles and a geodesic's edge tables
    read it.
    """

    def __init__(self, vertices, faces):
        # a copy, so that making it read-only leaves the caller's array alone
        self.vertices: np.ndarray = np.array(vertices, dtype=float, ndmin=2)
        if self.vertices.shape[1] != 3:
            raise InputError("surface vertices must be 3D")
        _checked_points(self.vertices, "surface", _MAX_HULL_COORDINATE)
        # read-only, so that what is derived from it below stays true of it
        self.vertices.setflags(write=False)
        self.faces: tuple[tuple[int, ...], ...] = tuple(
            tuple(map(int, f)) for f in faces
        )
        self._build_edges()
        self._validate()
        # unit normals by Newell's formula, each face's terms added from zero
        # in corner order, as a loop over the face adds them (same last bit)
        at, after, _, face = self._corners
        normals = np.zeros((len(self.faces), 3))
        np.add.at(normals, face, _cross_rows(self.vertices[at], self.vertices[after]))
        length = np.sqrt(np.vecdot(normals, normals))
        zero = np.flatnonzero(length < 1e-300).tolist()
        if zero:
            k = zero[0]
            raise InputError(
                f"face {k} has collinear vertices and no normal: {self.faces[k]}"
            )
        normals /= length[:, None]
        normals.setflags(write=False)
        self._normals = normals
        self._refuse_reflex_corners()
        # the cone angle sums, computed on their first use
        self._cone_angles: tuple[float, ...] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def cube(cls, side: float = 1.0) -> "SurfaceMesh":
        s = float(side)
        verts = np.array(
            [
                [0, 0, 0], [s, 0, 0], [s, s, 0], [0, s, 0],
                [0, 0, s], [s, 0, s], [s, s, s], [0, s, s],
            ],
            dtype=float,
        )
        faces = [
            (0, 3, 2, 1),  # bottom, z = 0
            (4, 5, 6, 7),  # top, z = s
            (0, 1, 5, 4),  # y = 0
            (1, 2, 6, 5),  # x = s
            (2, 3, 7, 6),  # y = s
            (3, 0, 4, 7),  # x = 0
        ]
        return cls(verts, faces)

    @classmethod
    def regular_tetrahedron(cls, edge: float = 1.0) -> "SurfaceMesh":
        a = float(edge)
        verts = a / math.sqrt(2.0) * np.array(
            [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
        ) / math.sqrt(2.0)
        return tetrahedron_mesh(verts)

    @classmethod
    def from_polytope(cls, polytope) -> "SurfaceMesh":
        """Boundary surface of a 3D polytope, facet polygons ordered CCW by
        their angle about the centroid from the first vertex: the facets of
        one size in one array pass, with the arithmetic of a lone facet."""
        if polytope.dim != 3:
            raise InputError("surface extraction needs a 3D polytope")
        faces: list = [None] * len(polytope.facet_vertices)
        for ks, idx in _size_groups(polytope.facet_vertices):
            pts = polytope.vertices[idx]
            center = pts.mean(axis=1)
            u = _unit_rows(pts[:, 0] - center)
            v = _cross_rows(polytope.normals[ks], u)
            rel = pts - center[:, None]
            # stacks of (k, 3) @ (3, 1) products, each the gemv of one facet
            x, y = (rel @ u[:, :, None])[..., 0], (rel @ v[:, :, None])[..., 0]
            ang = np.arctan2(y, x)
            order = np.take_along_axis(idx, np.argsort(ang, axis=1), axis=1)
            for k, face in zip(ks, order.tolist()):
                faces[k] = tuple(face)
        return cls(polytope.vertices, faces)

    # -- combinatorial structure -------------------------------------------

    def _build_edges(self) -> None:
        # each directed edge (a, b) -> the face whose boundary runs a -> b; in
        # a closed oriented mesh the face across (a, b) is the owner of (b, a)
        owner: dict[tuple[int, int], int] = {}
        for k, face in enumerate(self.faces):
            if len(face) < 3 or len(set(face)) != len(face):
                raise InputError(f"face {k} is degenerate: {face}")
            # a face's own directed edges are distinct, as its vertices are
            for ab in zip(face, face[1:] + face[:1]):
                if owner.setdefault(ab, k) != k:
                    raise OpenSurfaceError(
                        f"directed edge {ab} appears in two faces; "
                        "orientation is inconsistent"
                    )
        used = {i for f in self.faces for i in f}
        if used != set(range(len(self.vertices))):
            raise InputError("faces must reference every vertex exactly")
        self._owner = owner
        # the undirected edges (a < b), in the order of their first copies
        self.edges = tuple(dict.fromkeys(
            (a, b) if a < b else (b, a) for a, b in owner
        ))
        # the corner table: owner's keys are the corners' (vertex, next)
        # pairs in face order, and a face's last corner comes before its first
        n, f = len(owner), len(self.faces)
        sizes = np.fromiter(map(len, self.faces), np.intp, f)
        first = np.zeros(f + 1, np.intp)
        np.cumsum(sizes, out=first[1:])
        before = np.arange(-1, n - 1)
        before[first[:-1]] = first[1:] - 1
        corners = np.empty((4, n), np.intp)
        pairs = np.fromiter(chain.from_iterable(owner), np.intp, 2 * n)
        corners[:2] = pairs.reshape(n, 2).T
        corners[2] = corners[0, before]
        corners[3] = np.repeat(np.arange(f), sizes)
        corners.setflags(write=False)
        first.setflags(write=False)
        self._corners, self._first = corners, first

    def _validate(self) -> None:
        # _build_edges refused a repeated directed edge, so the mesh is closed
        # exactly when every edge has a copy in each direction
        if len(self._owner) != 2 * len(self.edges):
            a, b = next(ab for ab in self._owner if ab[::-1] not in self._owner)
            raise OpenSurfaceError(
                f"edge {(min(a, b), max(a, b))} borders 1 faces, expected 2"
            )
        v, e, f = len(self.vertices), len(self.edges), len(self.faces)
        if v - e + f != 2:
            raise OpenSurfaceError(
                f"Euler characteristic {v - e + f} != 2 (V={v}, E={e}, F={f})"
            )
        # the length scale of every absolute tolerance on this mesh
        self._scale = length_scale(self.vertices)
        limit = TOL.eps * self._scale
        ends = self.vertices[np.array(self.edges)]
        diff = ends[:, 1] - ends[:, 0]
        # one array pass picks out the edges that may be short, and math.dist
        # decides each in edge order (the factor 2 covers the rounding and
        # underflow of the squared lengths)
        short = np.flatnonzero(np.sqrt(np.vecdot(diff, diff)) < 2.0 * limit)
        for a, b in (self.edges[i] for i in short.tolist()):
            pa, pb = self.vertices[a].tolist(), self.vertices[b].tolist()
            length = math.dist(pa, pb)
            if length < limit:
                raise InputError(
                    f"edge {(a, b)} has length {length:.3e}: vertex {a} at "
                    f"{pa} and vertex {b} at {pb} (nearly) coincide"
                )
        # one batched SVD per size of face with more than three sides (a
        # triangle is planar); the lowest non-planar face is named
        bent = []
        sided = self._corners.shape[1] > 3 * f
        for ks, idx in _size_groups(self.faces) if sided else ():
            if idx.shape[1] > 3:
                pts = self.vertices[idx]
                centered = pts - pts.mean(axis=1, keepdims=True)
                sv = np.linalg.svd(centered, compute_uv=False)[:, 2]
                bent += [(ks[i], sv[i]) for i in np.flatnonzero(sv > limit).tolist()]
        if bent:
            k, thickness = min(bent)
            raise InputError(f"face {k} is not planar (thickness {thickness:.3e})")
        if self._signed_volume() <= 0.0:
            raise InputError("faces are oriented inward; flip the winding")

    def _refuse_reflex_corners(self) -> None:
        """Refuse a face that is not convex: the turn ``(e_in x e_out) . n``
        of its edges at a corner, against its unit normal ``n``, is below
        ``-TOL.eps * |e_in| * |e_out|``; a straight corner, whose turn is
        within that band of zero, passes at any size. The exit search of a
        geodesic and the cone angles read a face as convex. All corners are
        checked in one array pass, but a triangle has no reflex corner, so a
        mesh of triangles is not checked; the first failing corner is named."""
        at, after, before, face = self._corners
        if len(at) == 3 * len(self.faces):
            return
        corner = self.vertices[at]
        e_in = corner - self.vertices[before]
        e_out = self.vertices[after] - corner
        turns = np.vecdot(_cross_rows(e_in, e_out), self._normals[face])
        band = TOL.eps * np.sqrt(np.vecdot(e_in, e_in) * np.vecdot(e_out, e_out))
        reflex = np.flatnonzero(turns < -band).tolist()
        if reflex:
            j = reflex[0]
            raise InputError(
                f"face {int(face[j])} is not convex: its corner at vertex "
                f"{int(at[j])} turns by {float(turns[j]):.3e}; split the face "
                "into convex faces"
            )

    def _signed_volume(self) -> float:
        # the fan of each face from its first vertex: a corner's vertex and
        # the next, for the corners at neither end of the face's vertex list
        at, after, _, face = self._corners
        lead = at[self._first[:-1]][face]
        fan = (at != lead) & (after != lead)
        triangles = np.stack((lead[fan], at[fan], after[fan]), axis=1)
        total = 0.0
        # summed one by one in fan order, as a plain loop (not sum(), which
        # compensates from Python 3.12 on), so the orientation verdict stays
        for det in np.linalg.det(self.vertices[triangles]).tolist():
            total += det
        return total / 6.0

    def face_normal(self, k: int) -> np.ndarray:
        return self._normals[k]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return (
            f"SurfaceMesh(V={len(self.vertices)}, E={len(self.edges)}, "
            f"F={len(self.faces)})"
        )


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, bit for bit: the same products and
    differences, without its axis handling."""
    u1, u2, u3 = u.tolist()
    v1, v2, v3 = v.tolist()
    return np.array([u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1])


# u x v in the component order of np.cross: u[i+1] v[i+2] - u[i+2] v[i+1]
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`_cross` along the last axis of two stacks of 3-vectors, bit for
    bit, in one array pass per product."""
    return u[..., _NEXT] * v[..., _AFTER] - u[..., _AFTER] * v[..., _NEXT]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` over its length, as :func:`normalized` divides one
    vector, bit for bit: the squared lengths are the same ``ddot`` calls."""
    return v / np.sqrt(np.vecdot(v, v))[:, None]


def _size_groups(faces) -> list[tuple[list[int], np.ndarray]]:
    """The faces grouped by their number of vertices: each group's face
    numbers in face order, with its ``(n, k)`` array of vertex indices."""
    groups: dict[int, list[int]] = {}
    for k, face in enumerate(faces):
        groups.setdefault(len(face), []).append(k)
    return [(ks, np.array([faces[k] for k in ks])) for ks in groups.values()]


def _tetrahedron(vertices, shape_error: str) -> tuple[np.ndarray, float]:
    """Four 3D vertices spanning a nondegenerate tetrahedron, and the
    :func:`~billiards.geometry.length_scale` its tolerances are taken
    against."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    if verts.shape != (4, 3):
        raise InputError(shape_error)
    _checked_points(verts, "surface", _MAX_HULL_COORDINATE)
    vol = float(np.linalg.det(verts[1:] - verts[0]))
    scale = length_scale(verts)
    if abs(vol) < 1e-12 * scale**3:
        raise InputError("tetrahedron is degenerate (coplanar vertices)")
    return verts, scale


# the faces of a tetrahedron, face ``s`` leaving out vertex ``s``
_TETRAHEDRON_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _oriented(faces: np.ndarray, verts: np.ndarray, outward: np.ndarray) -> list:
    """The triangles ``(a, b, c)`` of an ``(n, 3)`` index array, each turned to
    ``(a, c, b)`` where its normal ``(b - a) x (c - a)`` points against its
    row of ``outward``, in one cross-then-dot pass."""
    a, b, c = faces.T
    n = _cross_rows(verts[b] - verts[a], verts[c] - verts[a])
    flip = np.vecdot(n, outward) < 0
    return [
        (i, k, j) if turn else (i, j, k)
        for (i, j, k), turn in zip(faces.tolist(), flip.tolist())
    ]


def tetrahedron_mesh(vertices) -> SurfaceMesh:
    """Outward-oriented boundary of a nondegenerate tetrahedron."""
    verts, _ = _tetrahedron(vertices, "a tetrahedron needs exactly four 3D vertices")
    # from the vertex each face leaves out to the face
    outward = verts[_TETRAHEDRON_FACES[:, 0]] - verts
    return SurfaceMesh(verts, _oriented(_TETRAHEDRON_FACES, verts, outward))


def convex_hull_mesh(points) -> SurfaceMesh:
    """Triangulated boundary of the convex hull of a 3D point cloud."""
    from scipy.spatial import ConvexHull

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    hull = ConvexHull(pts)
    index = np.empty(len(pts), dtype=int)
    index[hull.vertices] = np.arange(len(hull.vertices))
    verts = pts[hull.vertices]
    faces = _oriented(index[hull.simplices], verts, hull.equations[:, :3])
    return SurfaceMesh(verts, faces)


# -- curvature --------------------------------------------------------------


@dataclass(frozen=True)
class VertexReport:
    index: int
    cone_angle: float
    curvature: float
    orbifold_order: int | None


def _cone_angle_sums(mesh: SurfaceMesh) -> tuple[float, ...]:
    """Per-vertex sum of the incident face angles, computed once per mesh (a
    mesh is immutable) and kept on it: the angle at every face corner, from
    the unit vectors to its two neighbours, in one array pass, then added to
    its vertex's sum from zero in corner order, since another order moves
    the last bit of a sum."""
    if mesh._cone_angles is not None:
        return mesh._cone_angles
    at, after, before, _ = mesh._corners
    corner = mesh.vertices[at]
    a = _unit_rows(mesh.vertices[before] - corner)
    b = _unit_rows(mesh.vertices[after] - corner)
    angles = np.arccos(np.clip(np.vecdot(a, b), -1.0, 1.0))
    sums = np.zeros(mesh.n_vertices)
    np.add.at(sums, at, angles)
    mesh._cone_angles = tuple(sums.tolist())
    return mesh._cone_angles


def cone_angles(mesh: SurfaceMesh) -> list[VertexReport]:
    """Per-vertex cone angle, angular defect, and orbifold order if any: a
    vertex has order ``n`` when its angle is within ``TOL.eps`` of
    ``2*pi/n``."""
    return [
        VertexReport(v, angle, 2.0 * math.pi - angle, _orbifold_order(angle))
        for v, angle in enumerate(_cone_angle_sums(mesh))
    ]


def _orbifold_order(angle: float) -> int | None:
    """The ``n`` whose ``2*pi/n`` is within ``TOL.eps`` of the cone angle
    ``angle``, or None."""
    if not angle > 0:
        return None
    n = max(1, round(2.0 * math.pi / angle))
    return n if abs(angle - 2.0 * math.pi / n) <= TOL.eps else None


def gauss_bonnet_total(mesh: SurfaceMesh) -> float:
    """Sum of angular defects; equals 4*pi on any closed convex surface."""
    # the defects of cone_angles' reports, summed in vertex order
    return float(sum(2.0 * math.pi - angle for angle in _cone_angle_sums(mesh)))


@dataclass(frozen=True)
class OrbifoldVerdict:
    is_orbifold: bool
    orders: tuple[int, ...] | None
    failing_vertices: tuple[int, ...]
    diophantine_ok: bool | None

    def __bool__(self) -> bool:
        return self.is_orbifold


def is_orbifold_boundary(mesh: SurfaceMesh) -> OrbifoldVerdict:
    """Is every vertex a cone point of angle ``2*pi/n``?

    On success the orders must satisfy ``sum(1/n_i) == k - 2`` exactly (an
    integer identity forced by the defect sum); the verdict records that
    check, and for a closed convex surface it pins down four vertices of
    order two.
    """
    reports = cone_angles(mesh)
    failing = tuple(r.index for r in reports if r.orbifold_order is None)
    if failing:
        return OrbifoldVerdict(False, None, failing, None)
    orders = tuple(r.orbifold_order for r in reports)
    holds = _defect_identity_holds(orders)
    return OrbifoldVerdict(holds, orders, (), holds)


def _defect_identity_holds(orders: tuple[int, ...]) -> bool:
    """``sum(1/n_i) == k - 2`` for the ``k`` orders, exactly, in integers:
    times their least common multiple ``L``, each ``1/n_i`` is ``L // n_i``."""
    lcm = math.lcm(*orders)
    return sum(lcm // n for n in orders) == (len(orders) - 2) * lcm


# -- disphenoids ------------------------------------------------------------


@dataclass(frozen=True)
class DisphenoidCheck:
    is_disphenoid: bool
    opposite_pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    lengths: tuple[tuple[float, float], ...]
    max_mismatch: float


_OPPOSITE_EDGE_PAIRS = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)


def is_disphenoid(vertices) -> DisphenoidCheck:
    """Equality of the three opposite-edge length pairs of a tetrahedron,
    within ``TOL.eps`` times the tetrahedron's scale."""
    verts, scale = _tetrahedron(vertices, "is_disphenoid expects four 3D vertices")
    lengths = tuple(
        tuple(float(np.linalg.norm(verts[a] - verts[b])) for a, b in pair)
        for pair in _OPPOSITE_EDGE_PAIRS
    )
    mismatch = max(abs(l1 - l2) for l1, l2 in lengths)
    return DisphenoidCheck(
        mismatch <= TOL.eps * scale, _OPPOSITE_EDGE_PAIRS, lengths, mismatch
    )


def make_disphenoid(a: float, b: float, c: float) -> np.ndarray:
    """Vertices of the tetrahedron whose faces are congruent (a, b, c)
    triangles.

    Realized inside a box: vertices ``(0,0,0), (x,y,0), (x,0,z), (0,y,z)``
    with ``x^2 = (b^2+c^2-a^2)/2`` and cyclic. The square roots exist exactly
    when the triangle is acute; otherwise ``NotAcuteError``.
    """
    a, b, c = float(a), float(b), float(c)
    if min(a, b, c) <= 0.0:
        raise InputError("edge lengths must be positive")
    x2 = (b * b + c * c - a * a) / 2.0
    y2 = (a * a + c * c - b * b) / 2.0
    z2 = (a * a + b * b - c * c) / 2.0
    if min(x2, y2, z2) <= 0.0:
        raise NotAcuteError(
            f"triangle ({a}, {b}, {c}) is not acute; no disphenoid exists"
        )
    x, y, z = math.sqrt(x2), math.sqrt(y2), math.sqrt(z2)
    return np.array(
        [[0.0, 0.0, 0.0], [x, y, 0.0], [x, 0.0, z], [0.0, y, z]]
    )


# -- triangulation combinatorics -------------------------------------------


def disk_inequality(n_vertices: int, n_edges: int) -> bool:
    """Edge bound ``2V <= E + 3`` satisfied by triangulated disks."""
    return 2 * n_vertices <= n_edges + 3


@dataclass(frozen=True)
class TriangulationReport:
    n_vertices: int
    n_edges: int
    n_triangles: int
    euler_ok: bool
    f_equals_v: bool
    degrees: tuple[int, ...]
    trivalent: bool
    vertex_disk_ok: bool  # 2(V-1) <= (E - deg) + 3 after deleting each vertex


def triangulate_check(mesh: SurfaceMesh) -> TriangulationReport:
    """Fan-triangulate each face and audit the combinatorics.

    Each face is fanned from its lowest-index vertex; the report carries the
    triangle/vertex/edge counts, the Euler check, whether the triangle count
    equals the vertex count, vertex degrees with the all-trivalent flag, and
    the star-deletion disk inequality at every vertex.
    """
    # a fan keeps the face's edges and adds the diagonals from its pivot
    edges = set(mesh.edges)
    for face in mesh.faces:
        pos = face.index(min(face))
        rotated = face[pos:] + face[:pos]
        edges.update((rotated[0], w) for w in rotated[2:-1])
    v, e = mesh.n_vertices, len(edges)
    f = sum(len(face) - 2 for face in mesh.faces)
    degrees = [0] * v
    for edge in edges:
        for w in edge:
            degrees[w] += 1
    return TriangulationReport(
        n_vertices=v, n_edges=e, n_triangles=f, euler_ok=v - e + f == 2,
        f_equals_v=f == v, degrees=tuple(degrees),
        trivalent=all(d == 3 for d in degrees),
        vertex_disk_ok=all(disk_inequality(v - 1, e - d) for d in degrees),
    )


# -- geodesics --------------------------------------------------------------


@dataclass(frozen=True)
class EdgeCrossing:
    time: float
    point: np.ndarray
    edge: tuple[int, int]
    from_face: int
    to_face: int
    unfolded: np.ndarray  # 2D image under the accumulated unfolding


@dataclass(frozen=True)
class VertexPassage:
    time: float
    vertex: int
    point: np.ndarray
    cone_angle: float


@dataclass(frozen=True, eq=False)
class SurfaceGeodesic:
    """A geodesic through ``n`` events, each an edge crossing or a vertex
    passage, as read-only knot arrays, like a polytope
    :class:`~billiards.dynamics.Trajectory`.

    ``times`` ``(n+2,)``
        0, each event time, then ``horizon``.
    ``points`` ``(n+2, 3)``
        the start point, each event point, then the end point.
    ``unfolded`` ``(n+2, 2)``
        each knot's image under the unfolding of the straight run that
        reaches it. A run starts at the start or at a vertex passage, which
        its unfolding maps to the origin, the start's row.
    ``faces``, ``sites``
        tuples with the face of each of the ``n+1`` segments, and the edge
        ``(a, b)``, ``a < b``, that each event crosses or the vertex ``(v,)``
        that it passes.

    ``crossings``, ``vertex_passages`` and ``segments`` are built on first
    access from rows of the knot arrays.
    """

    mesh: SurfaceMesh
    start_direction: np.ndarray
    end_direction: np.ndarray
    times: np.ndarray
    points: np.ndarray
    unfolded: np.ndarray
    faces: tuple[int, ...]
    sites: tuple[tuple[int, ...], ...]

    horizon = property(lambda self: float(self.times[-1]))
    start_face = property(lambda self: self.faces[0])
    start_point = property(lambda self: self.points[0])
    end_face = property(lambda self: self.faces[-1])
    end_point = property(lambda self: self.points[-1])
    n_crossings = property(lambda self: sum(len(s) == 2 for s in self.sites))

    @functools.cached_property
    def crossings(self) -> list[EdgeCrossing]:
        t, f, uv = self.times.tolist(), self.faces, self.unfolded
        return [
            EdgeCrossing(t[k], self.points[k], s, f[k - 1], f[k], uv[k])
            for k, s in enumerate(self.sites, 1) if len(s) == 2
        ]

    @functools.cached_property
    def vertex_passages(self) -> list[VertexPassage]:
        hits = [(k, s[0]) for k, s in enumerate(self.sites, 1) if len(s) == 1]
        cones = _cone_angle_sums(self.mesh) if hits else []
        return [
            VertexPassage(float(self.times[k]), v, self.points[k], cones[v])
            for k, v in hits
        ]

    @functools.cached_property
    def segments(self) -> list[np.ndarray]:
        """Unfolded 2D points per straight run (between vertex passages),
        including the run's endpoints; each run's points are collinear up to
        accumulated rounding."""
        cuts = [k for k, s in enumerate(self.sites, 1) if len(s) == 1]
        return [
            np.concatenate((self.unfolded[:1], self.unfolded[i + 1 : j + 1]))
            for i, j in zip([0, *cuts], [*cuts, len(self.times) - 1])
        ]

    def _event_names(self) -> list[str]:
        """Each event's name in a CSV row: ``edge a-b`` or ``vertex v``."""
        return [
            f"edge {s[0]}-{s[1]}" if len(s) == 2 else f"vertex {s[0]}"
            for s in self.sites
        ]

    def max_collinearity_residual(self) -> float:
        """The largest distance of an unfolded knot from the chord of its
        straight run."""
        worst = 0.0
        for seg in self.segments:
            d = seg[-1] - seg[0]
            norm = float(np.linalg.norm(d))
            if len(seg) > 2 and norm >= 1e-300:
                d, rel = d / norm, seg - seg[0]
                cross = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])
                worst = max(worst, float(np.max(cross)))
        return worst


class _Unfolder:
    """Affine isometry from the current face's plane onto R^2."""

    def __init__(self, point: np.ndarray, direction: np.ndarray, normal: np.ndarray):
        self.a = np.stack([direction, normalized(_cross(normal, direction))])
        self.o = -self.a.dot(point)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.a.dot(x) + self.o

    def rotate(self, rot: np.ndarray, shift: np.ndarray) -> None:
        """Compose with the isometry ``x -> rot @ x + shift``."""
        self.o = self.o + self.a.dot(shift)
        self.a = self.a.dot(rot)


def _edge_tables(mesh: SurfaceMesh) -> tuple:
    """The exit-search rows of every face and the turn across every directed
    edge, in one array pass over the directed edges in face order.

    Directed edge ``j`` is ``(a, b)`` of the face whose boundary runs ``a ->
    b``. Face ``k``'s rows are ``(j, va, m)`` for its edges in its order,
    with ``va`` the position of ``a`` and ``m`` the edge's unit normal in the
    face plane, pointing out of the face. The turn across edge ``j`` is the
    face ``g`` across it, and the rotation ``rot[j]`` about it that carries
    ``g``'s plane onto the face's and matches the two outward normals, with
    the shift that makes ``x -> rot[j] @ x + shift[j]`` fix the edge.
    ``rot_t[j]`` is ``rot[j].T``. Each value has the bits of the same
    formula on one edge."""
    at, after, _, face = mesh._corners
    heads, tails = at.tolist(), after.tolist()
    across = [mesh._owner[ba] for ba in zip(tails, heads)]
    n_f, n_g = mesh._normals[face], mesh._normals[across]
    va = mesh.vertices[at]
    edge = mesh.vertices[after] - va
    e_f = _unit_rows(edge)
    # m = edge x n_f, and m_f = e_f x n_f and m_g = -e_f x n_g, the normals
    # out of the face and out of g in their planes, in one pass
    u, v = np.concatenate((edge, e_f, -e_f)), np.concatenate((n_f, n_f, n_g))
    m, m_f, m_g = _unit_rows(_cross_rows(u, v)).reshape(3, -1, 3)
    # [e_f | m_f | n_f] @ [e_f | -m_g | n_g].T per edge: the first frame as
    # columns of a C-ordered matrix, the second as rows of an F-ordered one,
    # the layouts of one edge's product, so each product keeps its bits
    rot = np.stack([e_f, m_f, n_f], axis=2) @ np.stack(
        [e_f, -m_g, n_g], axis=2
    ).transpose(0, 2, 1)
    shift = va - (rot @ va[:, :, None])[..., 0]
    flat, first = list(zip(range(len(heads)), va, m)), mesh._first.tolist()
    rows = [flat[i:j] for i, j in zip(first, first[1:])]
    return rows, heads, tails, across, rot, shift, rot.transpose(0, 2, 1)


# the maximum number of edge crossings of one traced geodesic
_MAX_CROSSINGS = 100_000


def trace_surface_geodesic(
    mesh: SurfaceMesh,
    face: int,
    point,
    direction,
    horizon: float,
) -> SurfaceGeodesic:
    """Trace the straight-line flow on the surface for arclength ``horizon``.

    The start point must lie on the given face: on its plane, and beyond
    none of its edges by more than ``TOL.eps`` times the mesh's length
    scale. The direction is projected into the face plane. A geodesic that
    comes within ``TOL.eps`` times the length scale of a vertex hits it.
    That raises ``VertexHitError`` unless the cone angle there is within
    ``TOL.eps`` of ``pi``, where :func:`cone_angles` gives the vertex order
    2; then the geodesic retraces (the developed exit ray equals the entry
    ray) and a ``VertexPassage`` is recorded.

    The arguments are checked here, once; the loop trusts them. The edge
    normals of every face and the rotation and shift across every directed
    edge are built at the start, in one array pass, into tables local to
    the call: nothing is kept on the mesh. Cone angles are computed only
    when a vertex is hit.
    """
    horizon = _checked_horizon(horizon)
    if not 0 <= face < len(mesh.faces):
        raise InputError(f"face index {face} out of range")
    p = as_point(point, 3)
    n = mesh.face_normal(face)
    base = mesh.vertices[mesh.faces[face][0]]
    if abs(float(np.dot(p - base, n))) > 1e-7 * max(1.0, float(np.linalg.norm(p))):
        raise InputError("start point does not lie on the start face's plane")
    rows, heads, tails, across, rots, shifts, rots_t = _edge_tables(mesh)
    scale = mesh._scale
    beyond, j = max((float((p - va).dot(m)), j) for j, va, m in rows[face])
    if beyond > TOL.eps * scale:
        a, b = heads[j], tails[j]
        raise InputError(
            f"start point lies {beyond:.3e} beyond edge {(min(a, b), max(a, b))} "
            f"of face {face}"
        )
    d = as_point(direction, 3)
    d = start_dir = unit(d - float(np.dot(d, n)) * n)
    unfolder = _Unfolder(p, d, n)
    # (time, point, unfolded, site, face) per knot, the start's first; a
    # run's unfolding maps its first point to the origin
    knots: list[tuple] = [(0.0, p, np.zeros(2), None, face)]
    n_crossings = 0
    t = 0.0
    while True:
        remaining = horizon - t
        best: tuple[float, int] | None = None  # (dt, j)
        for j, va, m in rows[face]:
            rate = float(d.dot(m))
            if rate <= 1e-14:
                continue
            # in a convex face, an edge ahead that lies behind the point is
            # one the point is beyond, by rounding or within the start's
            # tolerance: the geodesic crosses it at once
            dt = max(float((va - p).dot(m)) / rate, 0.0)
            if best is None or dt < best[0]:
                best = (dt, j)
        if best is None:
            raise InputError("geodesic found no exit edge; mesh corrupt?")
        dt, j = best
        if dt >= remaining:
            end_point = p + remaining * d
            knots.append((horizon, end_point, unfolder.apply(end_point), None, None))
            times, points, unfolded, sites, faces = zip(*knots)
            arrays = np.array(times), np.array(points), np.array(unfolded)
            for arr in arrays:
                arr.setflags(write=False)
            return SurfaceGeodesic(mesh, start_dir, d, *arrays, faces[:-1], sites[1:-1])
        hit = p + dt * d
        t = t + dt
        a, b = heads[j], tails[j]
        near_a = vector_norm(hit - mesh.vertices[a]) <= TOL.eps * scale
        near_b = vector_norm(hit - mesh.vertices[b]) <= TOL.eps * scale
        if near_a or near_b:
            v_idx = a if near_a else b
            if _orbifold_order(_cone_angle_sums(mesh)[v_idx]) != 2:
                raise VertexHitError(v_idx, hit)
            # retrace: at cone angle pi the developed continuation folds back
            knots.append((t, hit, unfolder.apply(hit), (v_idx,), face))
            d = -d
            p = hit
            unfolder = _Unfolder(p, d, mesh.face_normal(face))
            continue
        to_face = across[j]
        knots.append((t, hit, unfolder.apply(hit), (min(a, b), max(a, b)), to_face))
        n_crossings += 1
        if n_crossings > _MAX_CROSSINGS:
            raise InputError(f"geodesic exceeded {_MAX_CROSSINGS} edge crossings")
        unfolder.rotate(rots[j], shifts[j])
        d = rots_t[j].dot(d)
        n_new = mesh.face_normal(to_face)
        d = normalized(d - float(d.dot(n_new)) * n_new)
        p = hit
        face = to_face
