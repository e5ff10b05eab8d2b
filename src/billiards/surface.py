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

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import TOL
from .errors import (
    InputError,
    NotAcuteError,
    OpenSurfaceError,
    VertexHitError,
)
from .geometry import _MAX_HULL_COORDINATE, _checked_points
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
            tuple(int(i) for i in f) for f in faces
        )
        self._build_edges()
        self._validate()
        self._normals = tuple(self._face_normal(k) for k in range(len(self.faces)))

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
        """Boundary surface of a 3D polytope, facet polygons ordered CCW."""
        if polytope.dim != 3:
            raise InputError("surface extraction needs a 3D polytope")
        faces = []
        for i, tight in enumerate(polytope.facet_vertices):
            n = polytope.normals[i]
            pts = polytope.vertices[list(tight)]
            center = pts.mean(axis=0)
            u = unit(pts[0] - center)
            v = _cross(n, u)
            ang = np.arctan2((pts - center) @ v, (pts - center) @ u)
            faces.append(tuple(np.array(tight)[np.argsort(ang)].tolist()))
        return cls(polytope.vertices, faces)

    # -- combinatorial structure -------------------------------------------

    def _build_edges(self) -> None:
        directed: dict[tuple[int, int], int] = {}
        for k, face in enumerate(self.faces):
            if len(face) < 3 or len(set(face)) != len(face):
                raise InputError(f"face {k} is degenerate: {face}")
            for i in range(len(face)):
                a, b = face[i], face[(i + 1) % len(face)]
                if (a, b) in directed:
                    raise OpenSurfaceError(
                        f"directed edge {(a, b)} appears in two faces; "
                        "orientation is inconsistent"
                    )
                directed[(a, b)] = k
        edges: dict[tuple[int, int], list[int]] = {}
        for (a, b), k in directed.items():
            edges.setdefault((min(a, b), max(a, b)), []).append(k)
        self.edges = edges

    def _validate(self) -> None:
        used = {i for f in self.faces for i in f}
        if used != set(range(len(self.vertices))):
            raise InputError("faces must reference every vertex exactly")
        # _build_edges refused a repeated directed edge, so an edge with two
        # faces has one in each direction
        for (a, b), ks in self.edges.items():
            if len(ks) != 2:
                raise OpenSurfaceError(
                    f"edge {(a, b)} borders {len(ks)} faces, expected 2"
                )
        v, e, f = len(self.vertices), len(self.edges), len(self.faces)
        if v - e + f != 2:
            raise OpenSurfaceError(
                f"Euler characteristic {v - e + f} != 2 (V={v}, E={e}, F={f})"
            )
        # the length scale of every absolute tolerance on this mesh
        self._scale = length_scale(self.vertices)
        points = self.vertices.tolist()
        for a, b in self.edges:
            length = math.dist(points[a], points[b])
            if length < TOL.eps * self._scale:
                raise InputError(
                    f"edge {(a, b)} has length {length:.3e}: vertex {a} at "
                    f"{points[a]} and vertex {b} at {points[b]} (nearly) coincide"
                )
        for k, face in enumerate(self.faces):
            pts = self.vertices[list(face)]
            if len(face) > 3:
                centered = pts - pts.mean(axis=0)
                sv = np.linalg.svd(centered, compute_uv=False)
                if sv[2] > TOL.eps * self._scale:
                    raise InputError(f"face {k} is not planar (thickness {sv[2]:.3e})")
        if self._signed_volume() <= 0.0:
            raise InputError("faces are oriented inward; flip the winding")

    def _signed_volume(self) -> float:
        fan = [
            (face[0], face[i], face[i + 1])
            for face in self.faces
            for i in range(1, len(face) - 1)
        ]
        total = 0.0
        # summed one by one in fan order, as a plain loop (not sum(), which
        # compensates from Python 3.12 on), so the orientation verdict stays
        for det in np.linalg.det(self.vertices[fan]).tolist():
            total += det
        return total / 6.0

    def _face_normal(self, k: int) -> np.ndarray:
        face = self.faces[k]
        pts = self.vertices[list(face)]
        # Newell's formula; robust for any planar polygon
        n = np.zeros(3)
        for i in range(len(face)):
            p, q = pts[i], pts[(i + 1) % len(face)]
            n += _cross(p, q)
        n = unit(n)
        n.setflags(write=False)
        return n

    def face_normal(self, k: int) -> np.ndarray:
        return self._normals[k]

    def neighbor_across(self, face_idx: int, a: int, b: int) -> int:
        """Face on the other side of the (undirected) edge {a, b}."""
        ks = self.edges[(min(a, b), max(a, b))]
        return ks[0] if ks[1] == face_idx else ks[1]

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


def tetrahedron_mesh(vertices) -> SurfaceMesh:
    """Outward-oriented boundary of a nondegenerate tetrahedron."""
    verts, _ = _tetrahedron(vertices, "a tetrahedron needs exactly four 3D vertices")
    faces = []
    for skip in range(4):
        i, j, k = [t for t in range(4) if t != skip]
        n = _cross(verts[j] - verts[i], verts[k] - verts[i])
        if float(np.dot(n, verts[skip] - verts[i])) > 0:
            j, k = k, j
        faces.append((i, j, k))
    return SurfaceMesh(verts, faces)


def convex_hull_mesh(points) -> SurfaceMesh:
    """Triangulated boundary of the convex hull of a 3D point cloud."""
    from scipy.spatial import ConvexHull

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    hull = ConvexHull(pts)
    index = {int(v): i for i, v in enumerate(hull.vertices)}
    verts = pts[hull.vertices]
    faces = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        a, b, c = (index[int(s)] for s in simplex)
        n = _cross(verts[b] - verts[a], verts[c] - verts[a])
        if float(np.dot(n, eq[:3])) < 0:
            b, c = c, b
        faces.append((a, b, c))
    return SurfaceMesh(verts, faces)


# -- curvature --------------------------------------------------------------


@dataclass(frozen=True)
class VertexReport:
    index: int
    cone_angle: float
    curvature: float
    orbifold_order: int | None


def _cone_angle_sums(mesh: SurfaceMesh) -> list[float]:
    """Per-vertex sum of the incident face angles, in face order.

    The angles at all face corners come from one array pass, each from the
    unit vectors towards the corner's two neighbours on its face; they are
    then added vertex by vertex in a plain loop, corner by corner in face
    order, since another order moves the last bit of a sum.
    """
    at = [v for face in mesh.faces for v in face]
    before = [v for face in mesh.faces for v in face[-1:] + face[:-1]]
    after = [v for face in mesh.faces for v in face[1:] + face[:1]]
    corner = mesh.vertices[at]
    a = mesh.vertices[before] - corner
    b = mesh.vertices[after] - corner
    a = a / np.sqrt(np.vecdot(a, a))[:, None]
    b = b / np.sqrt(np.vecdot(b, b))[:, None]
    angles = np.arccos(np.clip(np.vecdot(a, b), -1.0, 1.0))
    sums = [0.0] * mesh.n_vertices
    for v, angle in zip(at, angles.tolist()):
        sums[v] += angle
    return sums


def cone_angles(mesh: SurfaceMesh) -> list[VertexReport]:
    """Per-vertex cone angle, angular defect, and orbifold order if any: a
    vertex has order ``n`` when its angle is within ``TOL.eps`` of
    ``2*pi/n``."""
    reports = []
    for v, angle in enumerate(_cone_angle_sums(mesh)):
        order = None
        n = max(1, round(2.0 * math.pi / angle)) if angle > 0 else None
        if n is not None and abs(angle - 2.0 * math.pi / n) <= TOL.eps:
            order = n
        reports.append(
            VertexReport(v, float(angle), float(2.0 * math.pi - angle), order)
        )
    return reports


def gauss_bonnet_total(mesh: SurfaceMesh) -> float:
    """Sum of angular defects; equals 4*pi on any closed convex surface."""
    return float(sum(r.curvature for r in cone_angles(mesh)))


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
    residual = sum(Fraction(1, n) for n in orders) - (len(orders) - 2)
    return OrbifoldVerdict(residual == 0, orders, (), residual == 0)


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
    lengths = []
    mismatch = 0.0
    for (a, b), (c, d) in _OPPOSITE_EDGE_PAIRS:
        l1 = float(np.linalg.norm(verts[a] - verts[b]))
        l2 = float(np.linalg.norm(verts[c] - verts[d]))
        lengths.append((l1, l2))
        mismatch = max(mismatch, abs(l1 - l2))
    return DisphenoidCheck(
        mismatch <= TOL.eps * scale, _OPPOSITE_EDGE_PAIRS, tuple(lengths), mismatch
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
    triangles: list[tuple[int, int, int]] = []
    for face in mesh.faces:
        pos = face.index(min(face))
        rotated = face[pos:] + face[:pos]
        for i in range(1, len(rotated) - 1):
            triangles.append((rotated[0], rotated[i], rotated[i + 1]))
    edge_set: set[tuple[int, int]] = set()
    for (i, j, k) in triangles:
        for a, b in ((i, j), (j, k), (k, i)):
            edge_set.add((min(a, b), max(a, b)))
    v = mesh.n_vertices
    e = len(edge_set)
    f = len(triangles)
    degrees = [0] * v
    for (a, b) in edge_set:
        degrees[a] += 1
        degrees[b] += 1
    vertex_disk_ok = all(
        disk_inequality(v - 1, e - degrees[w]) for w in range(v)
    )
    return TriangulationReport(
        n_vertices=v,
        n_edges=e,
        n_triangles=f,
        euler_ok=(v - e + f == 2),
        f_equals_v=(f == v),
        degrees=tuple(degrees),
        trivalent=all(d == 3 for d in degrees),
        vertex_disk_ok=vertex_disk_ok,
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


@dataclass
class SurfaceGeodesic:
    start_face: int
    start_point: np.ndarray
    start_direction: np.ndarray
    horizon: float
    crossings: list[EdgeCrossing]
    vertex_passages: list[VertexPassage]
    end_face: int
    end_point: np.ndarray
    end_direction: np.ndarray
    segments: list[np.ndarray] = field(default_factory=list)
    """Unfolded 2D points per straight run (between vertex passages),
    including the run's endpoints; each run's points are collinear up to
    accumulated rounding."""

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def max_collinearity_residual(self) -> float:
        worst = 0.0
        for seg in self.segments:
            if len(seg) < 3:
                continue
            p0, p1 = seg[0], seg[-1]
            d = p1 - p0
            norm = float(np.linalg.norm(d))
            if norm < 1e-300:
                continue
            d = d / norm
            rel = seg - p0
            cross = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])
            worst = max(worst, float(np.max(cross)))
        return worst


class _Unfolder:
    """Affine isometry from the current face's plane onto R^2."""

    def __init__(self, point: np.ndarray, direction: np.ndarray, normal: np.ndarray):
        e1 = direction
        e2 = normalized(_cross(normal, e1))
        self.a = np.stack([e1, e2])
        self.o = -self.a @ point

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x + self.o

    def rotate(self, rot: np.ndarray, shift: np.ndarray) -> None:
        """Compose with the isometry ``x -> rot @ x + shift``."""
        self.o = self.o + self.a @ shift
        self.a = self.a @ rot


def _edge_rotation(
    mesh: SurfaceMesh, from_face: int, to_face: int, va: np.ndarray, vb: np.ndarray
) -> np.ndarray:
    """Rotation about the edge ``va -> vb`` of ``from_face`` (in its order)
    carrying ``to_face``'s plane onto ``from_face``'s, matching the two
    outward normals."""
    e_f = normalized(vb - va)
    n_f = mesh.face_normal(from_face)
    n_g = mesh.face_normal(to_face)
    m_f = normalized(_cross(e_f, n_f))   # out of from_face, in its plane
    m_g = normalized(_cross(-e_f, n_g))  # out of to_face, in its plane
    # the frames as columns, [e_f | m_f | n_f] @ [e_f | -m_g | n_g].T, laid
    # out in memory as np.column_stack would, so the product keeps its bits
    t = np.array([e_f, m_f, n_f], order="F").T
    s_t = np.array([e_f, -m_g, n_g], order="F")
    return t @ s_t


def _edge_rows(mesh: SurfaceMesh, face: int) -> list[tuple]:
    """The edges ``(a, b)`` of ``face`` in its order, each with the position
    of ``a`` and the edge's unit normal in the face plane, pointing out of
    the face."""
    poly = mesh.faces[face]
    n = mesh.face_normal(face)
    rows = []
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        va, vb = mesh.vertices[a], mesh.vertices[b]
        rows.append((a, b, va, normalized(_cross(vb - va, n))))
    return rows


def trace_surface_geodesic(
    mesh: SurfaceMesh,
    face: int,
    point,
    direction,
    horizon: float,
) -> SurfaceGeodesic:
    """Trace the straight-line flow on the surface for arclength ``horizon``.

    The start point must lie on the given face; the direction is projected
    into the face plane. A geodesic that comes within ``TOL.eps`` times the
    mesh's length scale of a vertex hits it. That raises ``VertexHitError``
    unless the cone angle there is within ``TOL.eps`` of ``pi``, where
    :func:`cone_angles` gives the vertex order 2; then the geodesic retraces
    (the developed exit ray equals the entry ray) and a ``VertexPassage`` is
    recorded.

    The arguments are checked here, once; the loop trusts them. Two tables
    local to the call spare the loop repeated work: a face's edge normals
    are built on its first visit, and the rotation across a directed edge,
    with the shift that carries the unfolding over it, on its first
    crossing. Nothing is kept on the mesh. Cone angles are computed only
    when a vertex is hit.
    """
    horizon = float(horizon)
    if horizon < 0 or not np.isfinite(horizon):
        raise InputError(f"horizon must be finite and >= 0, got {horizon}")
    if not 0 <= face < len(mesh.faces):
        raise InputError(f"face index {face} out of range")
    p = as_point(point, 3)
    n = mesh.face_normal(face)
    base = mesh.vertices[mesh.faces[face][0]]
    if abs(float(np.dot(p - base, n))) > 1e-7 * max(1.0, float(np.linalg.norm(p))):
        raise InputError("start point does not lie on the start face's plane")
    d = as_point(direction, 3)
    d = d - float(np.dot(d, n)) * n
    d = unit(d)
    scale = mesh._scale
    start_point, start_dir, start_face = p.copy(), d.copy(), face
    unfolder = _Unfolder(p, d, n)
    segment: list[np.ndarray] = [unfolder.apply(p)]
    segments: list[np.ndarray] = []
    crossings: list[EdgeCrossing] = []
    passages: list[VertexPassage] = []
    max_crossings = 100_000
    edge_rows: dict[int, list[tuple]] = {}  # face -> its _edge_rows
    # (face, a, b) -> (to_face, rot, shift, rot.T) across the edge a -> b
    turns: dict[tuple[int, int, int], tuple] = {}
    t = 0.0
    while True:
        remaining = horizon - t
        n = mesh.face_normal(face)
        rows = edge_rows.get(face)
        if rows is None:
            rows = edge_rows[face] = _edge_rows(mesh, face)
        best: tuple[float, int, int] | None = None  # (dt, a, b)
        for a, b, va, m in rows:
            rate = float(d.dot(m))
            if rate <= 1e-14:
                continue
            dt = float((va - p).dot(m)) / rate
            if dt < -1e-12 * scale:
                continue
            dt = max(dt, 0.0)
            if best is None or dt < best[0]:
                best = (dt, a, b)
        if best is None:
            raise InputError("geodesic found no exit edge; mesh corrupt?")
        dt, a, b = best
        if dt >= remaining:
            end_point = p + remaining * d
            segment.append(unfolder.apply(end_point))
            segments.append(np.array(segment))
            return SurfaceGeodesic(
                start_face=start_face,
                start_point=start_point,
                start_direction=start_dir,
                horizon=horizon,
                crossings=crossings,
                vertex_passages=passages,
                end_face=face,
                end_point=end_point,
                end_direction=d,
                segments=segments,
            )
        hit = p + dt * d
        t = t + dt
        va, vb = mesh.vertices[a], mesh.vertices[b]
        near_a = vector_norm(hit - va) <= TOL.eps * scale
        near_b = vector_norm(hit - vb) <= TOL.eps * scale
        if near_a or near_b:
            v_idx = a if near_a else b
            cone = _cone_angle_sums(mesh)[v_idx]
            if abs(cone - math.pi) > TOL.eps:
                raise VertexHitError(v_idx, hit)
            # retrace: at cone angle pi the developed continuation folds back
            passages.append(VertexPassage(t, v_idx, hit.copy(), cone))
            segment.append(unfolder.apply(hit))
            segments.append(np.array(segment))
            d = -d
            p = hit
            unfolder = _Unfolder(p, d, n)
            segment = [unfolder.apply(p)]
            continue
        turn = turns.get((face, a, b))
        if turn is None:
            to_face = mesh.neighbor_across(face, a, b)
            rot = _edge_rotation(mesh, face, to_face, va, vb)
            turn = turns[(face, a, b)] = (to_face, rot, va - rot @ va, rot.T)
        to_face, rot, shift, rot_t = turn
        crossing_unfolded = unfolder.apply(hit)
        segment.append(crossing_unfolded)
        crossings.append(
            EdgeCrossing(
                time=t,
                point=hit.copy(),
                edge=(min(a, b), max(a, b)),
                from_face=face,
                to_face=to_face,
                unfolded=crossing_unfolded,
            )
        )
        if len(crossings) > max_crossings:
            raise InputError(f"geodesic exceeded {max_crossings} edge crossings")
        unfolder.rotate(rot, shift)
        d = rot_t @ d
        n_new = mesh.face_normal(to_face)
        d = normalized(d - float(d.dot(n_new)) * n_new)
        p = hit
        face = to_face
