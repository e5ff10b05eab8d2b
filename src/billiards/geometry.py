"""Convex polytopes as halfspace intersections, and the cone predicates the
bounce rule is built on.

A table is ``K = {x : <n_i, x> <= c_i}`` with unit outward normals ``n_i``.
At a boundary point the *active* constraints are those tight within the
table's one band, ``TOL.eps * scale`` with ``scale`` its
:func:`length_scale`, the band of every incidence test on the table; they
span the outward normal cone ``N_p = cone{n_i}`` and cut the tangent cone
``T_p = {u : <n_i, u> <= 0}``. A bounce from incoming
direction ``u`` to outgoing ``v`` is *polar* when ``-(u+v)`` lies in
``N_p``: membership is decided by nonnegative least squares with the
residual thresholded at ``TOL.eps``. On a facet (one active normal) this
reduces to the mirror law, and the unique polar partner of ``u`` is
``reflect(-u, n)``.

A :class:`Polytope` is two read-only arrays, the unit normals (one row per
facet) and the offsets, plus its vertices; a halfspace has one form, a
``[normal | offset]`` row. Construction checks the table in batched array
calls: the tight vertex set of every facet from one pass over the
vertex-by-facet slack matrix, and the affine ranks of those sets with one
decomposition per set size. Given only halfspaces, vertices are enumerated
by brute force over facet subsets, which is practical for dimension up to
three and small facet counts; larger tables must supply full data.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .config import TOL
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InputError,
    RedundantHalfspaceError,
    UnboundedRegionError,
    WordBudgetExceededError,
)

__all__ = [
    "Polytope",
    "Location",
    "Containment",
    "as_point",
    "unit",
    "reflect",
    "cone_membership",
    "is_polar",
    "nearest_pi_over_m",
]


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float64 array, optionally checking the dimension."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"expected a point/vector, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InputError("points must have dimension >= 1")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"expected dimension {dim}, got {arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        raise InputError(f"non-finite coordinates: {arr}")
    return arr


def _checked_horizon(horizon) -> float:
    """``horizon`` as a finite float >= 0: the arclength of a run."""
    horizon = float(horizon)
    if horizon < 0 or not math.isfinite(horizon):
        raise InputError(f"horizon must be finite and >= 0, got {horizon}")
    return horizon


def vector_norm(arr: np.ndarray) -> float:
    """Euclidean length of a 1-D float array, bit for bit ``np.linalg.norm``
    (which also sums over a contiguous copy of a strided view)."""
    flat = arr.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def unit(v) -> np.ndarray:
    """Normalize to unit length; zero vectors are rejected."""
    return normalized(as_point(v))


def normalized(arr: np.ndarray) -> np.ndarray:
    """:func:`unit` for an array that is already a finite 1-D float point."""
    length = vector_norm(arr)
    if length < 1e-300:
        raise InputError("cannot normalize the zero vector")
    return arr / length


def reflect(v, normal) -> np.ndarray:
    """Mirror ``v`` across the hyperplane with unit normal ``normal``."""
    v = as_point(v)
    return reflected(v, as_point(normal, dim=v.shape[0]))


def reflected(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """:func:`reflect` for finite 1-D float arrays of one dimension."""
    return v - 2.0 * float(v.dot(n)) * n


class Location(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def tight_facets(values: list[float], band: float) -> tuple[tuple[int, ...], float]:
    """The indices of the slack ``values`` at or above ``-band``, the active
    set of a point that no value puts outside, and the largest of those
    values (``-inf`` when there is none). The one copy of this rule."""
    floor = -band
    active = tuple([i for i, s in enumerate(values) if s >= floor])
    worst = -math.inf
    for i in active:
        if values[i] > worst:
            worst = values[i]
    return active, worst


def classify_slack(
    slack: np.ndarray, band: float
) -> tuple[Location, tuple[int, ...], float]:
    """Location of a point from its slack vector ``normals @ x - offsets``.

    The rule behind :meth:`Polytope.contains`, whose ``band`` is ``TOL.eps``
    times the table's ``scale``: the point is outside when a constraint is
    violated by more than ``band``, or when a slack is NaN, and the
    constraints within ``band`` of zero are active. Returns ``(location,
    active, worst_violation)``.

    The reductions run on Python floats from one ``tolist()``: a max and
    comparisons, which give the bits numpy's ``max`` and
    ``abs(slack) <= band`` give. Once no value exceeds the band,
    ``|s| <= band`` is ``s >= -band``, the rule of :func:`tight_facets`,
    which the bounce kernel reads too. Two cases take ``worst_violation``
    from numpy's ``max`` instead. A zero maximum held by more than one
    entry may be a tie of ``0.0`` and ``-0.0``, of which numpy and Python
    keep different ones; a lone zero is the same entry under both. And a
    slack is NaN where a product with a normal overflows, which only a point
    of magnitude near the float limit, far outside every table, can make;
    Python's ``max`` can pass over a NaN, which makes the sum NaN.
    """
    values = slack.tolist()
    worst = max(values)
    if (worst == 0.0 and values.count(0.0) > 1) or math.isnan(sum(values)):
        worst = float(slack.max())
    if not worst <= band:
        return Location.OUTSIDE, (), worst
    active = tight_facets(values, band)[0]
    return (Location.BOUNDARY if active else Location.INTERIOR), active, worst


@dataclass(frozen=True)
class Containment:
    location: Location
    active: tuple[int, ...]
    worst_violation: float

    def __bool__(self) -> bool:
        return self.location is not Location.OUTSIDE


def cone_membership(
    generators: np.ndarray, target: np.ndarray, eps: float
) -> tuple[bool, np.ndarray, np.ndarray]:
    """Is ``target`` a nonnegative combination of the generator rows?

    Returns ``(member, coefficients, residual_vector)``, with ``member`` true
    when ``|residual| <= eps``. The coefficients solve nonnegative least
    squares by the active-set method of Lawson and Hanson (*Solving Least
    Squares Problems*, 1974, ch. 23). The residual is
    ``target - coeffs @ generators``; by the least squares optimality
    conditions it has nonpositive inner product with every generator and is
    orthogonal to ``coeffs @ generators``, which makes it a certified
    separating direction whenever membership fails. A target within ``eps``
    of the origin is a member through the zero combination.
    """
    gen = np.atleast_2d(np.asarray(generators, dtype=float))
    target = np.asarray(target, dtype=float)
    size = vector_norm(target)
    if gen.shape[0] == 0 or size <= eps:
        return size <= eps, np.zeros(gen.shape[0]), target.copy()
    coeffs = _nnls(gen, target)
    residual = target - coeffs @ gen
    return vector_norm(residual) <= eps, coeffs, residual


class _PassiveRows:
    """Rows of ``gen`` factored for least squares, one row added at a time.

    ``basis[:p]`` is an orthonormal basis of the span of the rows held, and
    ``pinv[:p]`` holds the rows of their pseudo-inverse, so the least squares
    coefficients of a target on those rows are ``pinv[:p] @ target``.
    """

    def __init__(self, gen: np.ndarray):
        self.gen = gen
        self.rows: list[int] = []
        dim = gen.shape[1]
        self.basis = np.empty((dim, dim))
        self.pinv = np.empty((dim, dim))

    def add(self, j: int, target: np.ndarray | None = None) -> bool:
        """Append row ``j`` unless it depends on the rows held or, given a
        target, its least squares coefficient would not be positive."""
        p = len(self.rows)
        if p == self.basis.shape[0]:
            return False
        g = self.gen[j]
        if p:
            held = self.basis[:p]
            v = g - (held @ g) @ held
            v -= (held @ v) @ held  # a second Gram-Schmidt pass keeps it orthonormal
        else:
            v = g
        rho = math.sqrt(v @ v)
        if rho <= 1e-12 * math.sqrt(g @ g):
            return False
        v = v / rho
        if target is not None and v @ target <= 0.0:
            return False
        scaled = v / rho
        if p:
            self.pinv[:p] -= (self.pinv[:p] @ g)[:, None] * scaled
        self.basis[p] = v
        self.pinv[p] = scaled
        self.rows.append(j)
        return True

    def keep(self, rows: list[int]) -> None:
        """Refactor for a subset of the rows held, in the same order (a
        subset of independent rows is independent, so every row is re-added)."""
        self.rows = []
        for j in rows:
            self.add(j)

    def solve(self, target: np.ndarray) -> np.ndarray:
        return self.pinv[: len(self.rows)] @ target


def _nnls(
    gen: np.ndarray, target: np.ndarray, max_iter: int | None = None
) -> np.ndarray:
    """Coefficients ``c >= 0`` minimizing ``|target - c @ gen|``.

    Lawson and Hanson's active-set method for small dense problems: move the
    row with the largest positive gradient into the passive set, solve least
    squares on the passive rows, and step back toward the previous feasible
    point, dropping rows, while a coefficient is not positive. Raises
    :class:`BudgetExceededError` after ``max_iter`` additions (default
    ``3 * len(gen)``) rather than return a partial result.
    """
    k = gen.shape[0]
    max_iter = 3 * k if max_iter is None else max_iter
    tol = 1e-12 * float(np.abs(gen).max()) * math.sqrt(target @ target)
    coeffs = np.zeros(k)
    passive = _PassiveRows(gen)
    for _ in range(max_iter):
        gradient = gen @ (target - coeffs @ gen)
        gradient[passive.rows] = -np.inf
        while True:
            j = int(gradient.argmax())
            if gradient[j] <= tol:
                return coeffs
            if passive.add(j, target):
                break
            gradient[j] = -np.inf
        trial = passive.solve(target)
        while trial.size and trial.min() <= 0.0:
            now = coeffs[passive.rows]
            bad = trial <= 0.0
            ratios = now[bad] / (now[bad] - trial[bad])
            now += ratios.min() * (trial - now)
            now[bad.nonzero()[0][ratios.argmin()]] = 0.0
            kept = now > 0.0
            coeffs = np.zeros(k)
            coeffs[np.asarray(passive.rows)[kept]] = now[kept]
            passive.keep([i for i, keep in zip(passive.rows, kept) if keep])
            trial = passive.solve(target)
        coeffs[passive.rows] = trial
    raise BudgetExceededError(
        f"nonnegative least squares did not converge in {max_iter} iterations"
    )


def affine_rank(pts: np.ndarray, tol: float) -> int:
    """Dimension of the affine hull of the rows of ``pts``, counting singular
    values of the centred rows above ``tol``."""
    # one or two points need no decomposition
    if len(pts) == 1:
        return 0
    if len(pts) == 2:
        return 1 if vector_norm(pts[1] - pts[0]) > tol else 0
    centered = pts - pts.mean(axis=0)
    return int(np.sum(np.linalg.svd(centered, compute_uv=False) > tol))


def affine_ranks(points: np.ndarray, sets, tol: float) -> list[int]:
    """:func:`affine_rank` of ``points[s]`` for each index set ``s``, bit for
    bit, batched by set size: sets of at most one point have rank 0, all
    two-point sets take one norm test, and each larger size one stacked SVD
    of the centred sets."""
    ranks = [0] * len(sets)
    by_size: dict[int, list[int]] = {}
    for k, s in enumerate(sets):
        if len(s) > 1:
            by_size.setdefault(len(s), []).append(k)
    for size, members in by_size.items():
        if size == 2:
            first, second = zip(*(sets[k] for k in members))
            diff = points.take(second, axis=0) - points.take(first, axis=0)
            squares = np.vecdot(diff, diff).tolist()
            found = [int(math.sqrt(square) > tol) for square in squares]
        else:
            pts = points.take([sets[k] for k in members], axis=0)  # (sets, size, dim)
            centered = pts - pts.mean(axis=1, keepdims=True)
            singular = np.linalg.svd(centered, compute_uv=False)
            found = (singular > tol).sum(axis=1).tolist()
        for k, rank in zip(members, found):
            ranks[k] = rank
    return ranks


def length_scale(points: np.ndarray) -> float:
    """The one length every incidence tolerance on a table or a mesh is
    taken against: the largest absolute coordinate of its points, at least
    1. A NaN coordinate makes it NaN."""
    return max(float(np.abs(points).max()), 1.0)


def facet_pairs(n_facets: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The facet pairs ``i < j`` of a table with ``n_facets`` facets, in the
    order of a loop over ``i`` and then ``j``: their row and column indices,
    and the ``(n_facets, n_facets)`` matrix holding the number ``k`` of the
    pair ``{i, j}`` at ``[i, j]`` and ``[j, i]`` and the pair count on the
    diagonal, which spreads one value per pair to a symmetric matrix.

    Tables of up to 64 facets share cached read-only arrays; a larger table
    gets its own, as they grow with the square of the facet count."""
    if n_facets <= 64:
        return _shared_facet_pairs(n_facets)
    return _shared_facet_pairs.__wrapped__(n_facets)


@functools.lru_cache(maxsize=None)
def _shared_facet_pairs(n_facets: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    first, second = np.triu_indices(n_facets, 1)
    spread = np.full((n_facets, n_facets), len(first))
    spread[first, second] = spread[second, first] = np.arange(len(first))
    for arr in (first, second, spread):
        arr.setflags(write=False)
    return first, second, spread


class _CoordinateLimit(NamedTuple):
    """The largest coordinate magnitude a point array may have, and what
    would overflow above it."""

    bound: float
    overflows: str


# squared edge lengths, at most 4 d c^2 in dimension d for coordinates of
# magnitude at most c, stay finite for c = 1e153 below dimension 45
_MAX_COORDINATE = _CoordinateLimit(1e153, "squared edge lengths")
# qhull's facet normals in 3D and a surface mesh's Newell normals are cross
# products of edges, whose squared lengths grow as the fourth power of the
# coordinates
_MAX_HULL_COORDINATE = _CoordinateLimit(1e76, "squared lengths of face normals")


def _checked_points(
    pts, kind: str, limit: _CoordinateLimit = _MAX_COORDINATE
) -> None:
    """Refuse a point array with a non-finite coordinate or one of magnitude
    above ``limit.bound``, naming its row; ``kind`` names the points."""
    if float(np.abs(pts).max(initial=0.0)) <= limit.bound:
        return
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        k = int(finite.argmin())
        raise InputError(f"vertex {k} has non-finite coordinates {pts[k]}")
    sizes = np.abs(pts).max(axis=1)
    k = int(sizes.argmax())
    raise InputError(
        f"vertex {k} has a coordinate of magnitude {float(sizes[k])}; "
        f"{kind} coordinates must be at most {limit.bound}, "
        f"or {limit.overflows} overflow"
    )


def _checked_rows(halfspaces) -> np.ndarray:
    """The halfspaces as an ``(H, dim + 1)`` float array of finite
    ``[normal | offset]`` rows with ``H, dim >= 1``; any other shape, rows of
    different lengths, entries that are not numbers and non-finite rows are
    refused."""
    try:
        rows = np.asarray(halfspaces, dtype=float)
    except (ValueError, TypeError):
        # the entries of each row, which need not be numbers
        entries = [np.asarray(row, dtype=object).ravel().tolist() for row in halfspaces]
        sizes = [len(row) for row in entries]
        for k, size in enumerate(sizes):
            if size != sizes[0]:
                raise DimensionMismatchError(
                    f"halfspace {k} has dim {size - 1}, "
                    f"halfspace 0 has dim {sizes[0] - 1}"
                ) from None
        for k, row in enumerate(entries):
            for entry in row:
                try:
                    float(entry)
                except (ValueError, TypeError):
                    raise InputError(
                        f"halfspace {k} has an entry that is not a number: "
                        f"{entry!r}"
                    ) from None
        # rows of numbers that still make no array, such as rows nested to
        # different depths
        raise InputError(
            "halfspaces must be an (H, dim + 1) array of [normal | offset] "
            "rows of numbers"
        ) from None
    if rows.shape[:1] == (0,):
        raise InputError("a polytope needs at least one halfspace")
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise InputError(
            "halfspaces must be an (H, dim + 1) array of [normal | offset] "
            f"rows with dim >= 1, got shape {rows.shape}"
        )
    if not np.isfinite(rows).all():
        k = int((~np.isfinite(rows).all(axis=1)).argmax())
        raise InputError(
            f"halfspace {k} has non-finite data: normal {rows[k, :-1]}, "
            f"offset {rows[k, -1]}"
        )
    return rows


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """``[normal | offset]`` rows divided by the lengths of their normals,
    which keeps each halfspace and makes its normal unit.

    Refuses the first row, in row order, with a non-finite or zero normal, a
    normal whose squared length overflows or underflows, or an offset that
    is not finite once divided.
    """
    normals = rows[:, :-1]
    with np.errstate(all="ignore"):
        squared = np.vecdot(normals, normals)
        unit_rows = rows / np.sqrt(squared)[:, None]
    # checked on Python floats, cheaper than numpy's reductions for a few
    # rows; a non-finite square or offset makes the sum non-finite
    values = squared.tolist()
    total = sum(values) + sum(unit_rows[:, -1].tolist())
    if min(values, default=1.0) < sys.float_info.min or not math.isfinite(total):
        for k, normal in enumerate(normals):
            if not np.isfinite(normal).all():
                raise InputError(f"non-finite coordinates: {normal}")
            if not normal.any():
                raise InputError("halfspace normal may not be zero")
            if not sys.float_info.min <= squared[k] < math.inf:
                raise InputError(
                    f"halfspace {k} has a normal coordinate of magnitude "
                    f"{float(np.abs(normal).max())}; its squared length "
                    f"{'overflows' if squared[k] > 1.0 else 'underflows'}"
                )
            offset = float(unit_rows[k, -1])
            if not math.isfinite(offset):
                raise InputError(f"halfspace offset must be finite, got {offset}")
    return unit_rows


class Polytope:
    """Bounded full-dimensional intersection of halfspaces, with vertex data.

    A table is two read-only arrays, ``normals`` (one unit outward normal per
    row) and ``offsets``, with ``normals @ x <= offsets`` inside; every
    check and every derived quantity is computed from them. ``scale``, the
    :func:`length_scale` of the vertices, is the one length that
    ``TOL.eps`` is multiplied by in the table's tests on lengths: the
    construction checks, :meth:`contains` and both bounce loops all read
    the band ``TOL.eps * scale``.

    The first argument is an ``(H, dim + 1)`` array-like of ``[normal |
    offset]`` rows with unit normals. Construction refuses any other shape,
    non-unit normals, non-finite data, coordinates above 1e153 and an empty
    vertex array up front, then
    validates that every halfspace supports a facet (else
    ``RedundantHalfspaceError``), that all vertices are feasible, and that the
    outward normals positively span the ambient space (else
    ``UnboundedRegionError``).
    """

    def __init__(self, halfspaces, vertices, facet_vertices=None):
        rows = _checked_rows(halfspaces)
        # copies, so that making them read-only leaves the caller's data alone
        self.normals: np.ndarray = np.array(rows[:, :-1], order="C")
        self.offsets: np.ndarray = np.array(rows[:, -1])
        self.dim: int = self.normals.shape[1]
        self.vertices: np.ndarray = np.array(vertices, dtype=float, ndmin=2)
        self.scale: float = self._checked_scale()
        # read-only, so that what is derived from a table (such as its alcove
        # verdict) stays true of it
        for arr in (self.normals, self.offsets, self.vertices):
            arr.setflags(write=False)
        slack = self.vertices @ self.normals.T - self.offsets  # (V, H)
        computed = self._tight_vertex_sets(slack)
        if facet_vertices is None:
            self.facet_vertices = computed
        else:
            self.facet_vertices = tuple(tuple(sorted(f)) for f in facet_vertices)
            if self.facet_vertices != computed:
                raise InputError(
                    "facet_vertices disagree with the tight-vertex sets "
                    "computed from the halfspaces"
                )
        self._validate(slack)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_halfspaces(cls, halfspaces) -> "Polytope":
        """Enumerate vertices by intersecting ``dim``-subsets of hyperplanes,
        given ``[normal | offset]`` rows as for the constructor.

        Practical for dimension <= 3 or small facet counts; the subset count
        is capped to keep the cost sane.
        """
        rows = _checked_rows(halfspaces)
        normals, offsets = rows[:, :-1], rows[:, -1]
        n_facets, dim = normals.shape
        # every point of a facet lies at distance |offset| from the origin
        # (unit normals), so a coordinate of its vertices reaches
        # |offset| / sqrt(dim): refuse what the constructor would refuse,
        # before the enumeration squares such coordinates
        far = np.abs(offsets) > _MAX_COORDINATE.bound * math.sqrt(dim)
        if far.any():
            k = int(far.argmax())
            raise InputError(
                f"halfspace {k} has offset {float(offsets[k])}; its facet has "
                f"no point with coordinates at most {_MAX_COORDINATE.bound}"
            )
        max_subsets = 200_000
        if math.comb(n_facets, dim) > max_subsets:
            raise InputError(
                f"vertex enumeration over C({n_facets},{dim}) subsets exceeds "
                f"the cap {max_subsets}; supply vertices explicitly"
            )
        verts: list[np.ndarray] = []
        # nearly parallel facets meet far out; a vertex there is refused by
        # the constructor, and its squares may overflow on the way
        with np.errstate(over="ignore", invalid="ignore"):
            for subset in itertools.combinations(range(n_facets), dim):
                a = normals[list(subset)]
                b = offsets[list(subset)]
                try:
                    x = np.linalg.solve(a, b)
                except np.linalg.LinAlgError:
                    continue
                if not np.isfinite(x).all():
                    continue
                # no table, so no scale yet: the band of the candidate itself
                band = TOL.eps * max(1.0, vector_norm(x))
                location, _, _ = classify_slack(normals @ x - offsets, band)
                if location is not Location.OUTSIDE:
                    if not any(np.linalg.norm(x - v) <= TOL.eps for v in verts):
                        verts.append(x)
        if len(verts) < dim + 1:
            raise UnboundedRegionError(
                "halfspace intersection has too few vertices to be a bounded "
                f"full-dimensional body (found {len(verts)})"
            )
        return cls(rows, np.array(verts))

    @classmethod
    def convex_polygon(cls, points) -> "Polytope":
        """2D polytope from the vertices of a convex polygon (any order)."""
        pts = np.array(points, dtype=float, ndmin=2, copy=None)
        if pts.shape[1] != 2:
            raise DimensionMismatchError("convex_polygon expects 2D points")
        if pts.shape[0] < 3:
            raise InputError("a polygon needs at least 3 vertices")
        _checked_points(pts, "polygon")
        pts = ccw_order(pts)
        edges = np.concatenate((pts[1:], pts[:1])) - pts
        if math.sqrt(min(np.vecdot(edges, edges).tolist())) < 1e-12:
            raise InputError("polygon has a repeated vertex")
        rows = np.empty((len(pts), 3))
        rows[:, 0] = edges[:, 1]  # outward for CCW order
        rows[:, 1] = -edges[:, 0]
        normals = rows[:, :2]
        rows[:, 2] = np.vecdot(normals, pts)
        return cls(_unit_rows(rows), pts)

    @classmethod
    def from_point_cloud(cls, points) -> "Polytope":
        """Convex hull of a point cloud (dimension 2 or 3, via qhull)."""
        from scipy.spatial import ConvexHull

        pts = np.atleast_2d(np.asarray(points, dtype=float))
        limit = _MAX_HULL_COORDINATE if pts.shape[1] == 3 else _MAX_COORDINATE
        _checked_points(pts, "point cloud", limit)
        if pts.shape[1] == 2:
            hull = ConvexHull(pts)
            return cls.convex_polygon(pts[hull.vertices])
        if pts.shape[1] != 3:
            raise DimensionMismatchError("from_point_cloud supports dim 2 or 3")
        hull = ConvexHull(pts)
        # <eq[:3], x> + eq[3] <= 0 on the hull
        normals = np.array(hull.equations[:, :3])
        offsets = -hull.equations[:, 3]
        # qhull splits a facet into triangles that repeat its plane: keep a
        # row unless a row kept before it gives the same plane (when no two
        # rows do, every row is kept)
        same = (np.vecdot(normals[:, None], normals[None]) > 1.0 - 1e-10) & (
            np.abs(offsets[:, None] - offsets[None]) <= TOL.eps
        )
        if np.tril(same, -1).any():
            same = same.tolist()
            keep: list[int] = []
            for j in range(len(same)):
                if not any(same[j][i] for i in keep):
                    keep.append(j)
            normals, offsets = normals[keep], offsets[keep]
        rows = np.column_stack((normals, offsets))
        return cls(_unit_rows(rows), pts[hull.vertices])

    @classmethod
    def box(cls, lower, upper) -> "Polytope":
        lo = as_point(lower)
        hi = as_point(upper, lo.shape[0])
        if np.any(hi <= lo):
            raise InputError("box needs lower < upper coordinatewise")
        dim = lo.shape[0]
        # facets +e_j <= hi_j and -e_j <= -lo_j, in that order for each j
        rows = np.empty((2 * dim, dim + 1))
        rows[0::2, :dim] = np.eye(dim)
        rows[1::2, :dim] = -np.eye(dim)
        rows[0::2, dim] = hi
        rows[1::2, dim] = -lo
        corners = np.array(
            [
                [lo[j] if (k >> j) & 1 == 0 else hi[j] for j in range(dim)]
                for k in range(2**dim)
            ]
        )
        return cls(rows, corners)

    # -- validation --------------------------------------------------------

    def _checked_scale(self) -> float:
        """Refuse data no arithmetic should see: normals that are not unit,
        and missing, non-finite or huge vertices. Returns the vertices'
        :func:`length_scale`, the length of every tolerance in the checks
        that follow."""
        normals = self.normals
        if max(map(abs, normals.ravel().tolist())) <= 1.0 + 1e-12:
            squares = np.vecdot(normals, normals).tolist()
        else:
            # not unit, as a unit normal has no coordinate above 1; a huge
            # coordinate squares to inf, without numpy's overflow warning
            with np.errstate(over="ignore"):
                squares = np.vecdot(normals, normals).tolist()
        for square in squares:
            length = math.sqrt(square)
            if abs(length - 1.0) > 1e-12:
                raise InputError(f"halfspace normal is not unit (norm {length})")
        if self.vertices.size == 0:
            raise InputError("a polytope needs at least one vertex")
        if self.vertices.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"vertices have dim {self.vertices.shape[1]}, "
                f"halfspaces have dim {self.dim}"
            )
        scale = length_scale(self.vertices)
        if not scale <= _MAX_COORDINATE.bound:
            _checked_points(self.vertices, "polytope")
        return scale

    def _tight_vertex_sets(self, slack: np.ndarray) -> tuple[tuple[int, ...], ...]:
        tight = np.abs(slack.T) <= TOL.eps * self.scale  # (H, V)
        facets, verts = np.nonzero(tight)
        verts = verts.tolist()
        sets = []
        start = 0
        for count in np.bincount(facets, minlength=len(tight)).tolist():
            sets.append(tuple(verts[start:start + count]))
            start += count
        return tuple(sets)

    def _validate(self, slack: np.ndarray) -> None:
        """Checks on the vertex-by-halfspace ``slack`` matrix."""
        scale = self.scale
        # reductions by the ufuncs themselves, without ndarray.max's wrapper
        worst = float(np.maximum.reduce(slack, axis=None))
        if worst > TOL.eps * scale:
            raise InputError(
                f"vertex violates a halfspace by {worst:.3e} (scale {scale:g})"
            )
        first, second, _ = facet_pairs(self.n_facets)
        normals = self.normals
        cos = np.vecdot(normals[:, None], normals[None])[first, second]
        if np.maximum.reduce(cos, initial=-math.inf) > 1.0 - 1e-12:
            parallel = cos > 1.0 - 1e-12
            coincide = parallel & (
                np.abs(self.offsets[first] - self.offsets[second]) <= TOL.eps * scale
            )
            if coincide.any():
                k = int(coincide.argmax())
                raise RedundantHalfspaceError(
                    f"halfspaces {first[k]} and {second[k]} coincide"
                )
        ranks = affine_ranks(self.vertices, self.facet_vertices, TOL.eps * scale)
        for i, (tight, rank) in enumerate(zip(self.facet_vertices, ranks)):
            if len(tight) < self.dim:
                raise RedundantHalfspaceError(
                    f"halfspace {i} touches only {len(tight)} vertices; "
                    f"a facet needs at least {self.dim}"
                )
            if rank != self.dim - 1:
                raise RedundantHalfspaceError(
                    f"halfspace {i} is tight on a set of affine rank {rank}, "
                    f"expected {self.dim - 1}"
                )
        self._check_bounded()

    def _check_bounded(self) -> None:
        if self.dim == 2:
            angles = sorted(
                np.arctan2(self.normals[:, 1], self.normals[:, 0]).tolist()
            )
            angles.append(angles[0] + 2 * math.pi)
            if max(b - a for a, b in zip(angles, angles[1:])) >= math.pi - 1e-12:
                raise UnboundedRegionError(
                    "outward normals leave an angular gap >= pi"
                )
            return
        # The normals positively span R^d iff they have rank d and -sum(n_i)
        # is in their cone: then sum((1 + mu_i) n_i) = 0 with every weight
        # positive, so each -n_i is in the cone and the cone is the span.
        rank = int(np.linalg.matrix_rank(self.normals, tol=TOL.eps))
        if rank < self.dim:
            raise UnboundedRegionError(
                f"outward normals span only {rank} of {self.dim} dimensions"
            )
        total = self.normals.sum(axis=0)
        ok, _, residual = cone_membership(
            self.normals, -total, TOL.eps * max(1.0, vector_norm(total))
        )
        if not ok:
            raise UnboundedRegionError(
                "outward normals fail to span direction "
                f"{normalized(residual)}"
            )

    # -- queries -----------------------------------------------------------

    @property
    def n_facets(self) -> int:
        return len(self.normals)

    def interior_point(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def contains(self, x) -> Containment:
        x = as_point(x, self.dim)
        slack = self.normals @ x - self.offsets
        return Containment(*classify_slack(slack, TOL.eps * self.scale))

    def __repr__(self) -> str:
        return (
            f"Polytope(dim={self.dim}, facets={self.n_facets}, "
            f"vertices={len(self.vertices)})"
        )


def is_polar(polytope: Polytope, p, u, v) -> bool:
    """Decide whether ``(u, v)`` is a legal bounce pair at ``p``.

    Both directions must lie in the tangent cone at ``p``; the pair is polar
    when ``-(u+v)`` is a nonnegative combination of the active outward
    normals, with least squares residual at most ``TOL.eps``. At interior
    points the normal cone is trivial and polarity means ``v = -u``.
    """
    uu = unit(u)
    vv = unit(v)
    loc = polytope.contains(p)
    if loc.location is Location.OUTSIDE:
        raise InputError(
            f"tangent cone requested outside the table (violation "
            f"{loc.worst_violation:.3e})"
        )
    normals = polytope.normals[list(loc.active)]
    for w, name in ((uu, "incoming"), (vv, "outgoing")):
        w = as_point(w, polytope.dim)
        if len(normals) and np.max(normals @ w) > TOL.eps:
            raise InputError(f"{name} direction is not in the tangent cone")
    ok, _, _ = cone_membership(normals, -(uu + vv), TOL.eps)
    return ok


# the most reflections a chamber fold makes; a direction folded at an alcove's
# vertex needs at most its stabilizer's reflections (120 for E8)
_MAX_FOLD_WORD = 100_000


def _chamber_fold(
    normals: np.ndarray, offsets: np.ndarray | None, x: np.ndarray, band: float
) -> tuple[np.ndarray, list[int]]:
    """Reflect ``x`` across the wall of largest slack ``normals @ x -
    offsets`` (the first of equal ones) until no slack is above ``band``;
    a direction passes ``offsets=None``. Returns ``(x, word)``, the word
    listing the walls crossed in order; a finite float ``x`` that needs no
    reflection is returned itself."""
    word: list[int] = []
    for _ in range(_MAX_FOLD_WORD):
        slack = normals @ x if offsets is None else normals @ x - offsets
        values = slack.tolist()
        top = max(values)
        if top <= band:
            return x, word
        k = values.index(top)
        x = x - 2.0 * top * normals[k]
        word.append(k)
    raise WordBudgetExceededError(
        f"folding did not terminate within {_MAX_FOLD_WORD} reflections"
    )


def ccw_order(points: np.ndarray) -> np.ndarray:
    """The rows of an ``(k, 2)`` array of points in counterclockwise order
    of their angle about the centroid, starting nearest the angle -pi."""
    # the sum and division np.mean makes, without its Python-level wrapper
    offsets = points - np.add.reduce(points, axis=0) / len(points)
    return points[np.arctan2(offsets[:, 1], offsets[:, 0]).argsort()]


def nearest_pi_over_m(angle: float) -> tuple[int, float]:
    """The integer ``m`` in [2, TOL.m_max] minimizing ``|angle - pi/m|``.

    Returns ``(m, error)``. Dihedral angles of reflection-group chambers are
    exactly of this form; everything else is reported with its distance to
    the closest admissible bin.
    """
    m_max = TOL.m_max
    if not 0.0 < angle < np.pi:
        return 2, abs(angle - np.pi / 2)
    m_guess = np.pi / angle
    best_m, best_err = 2, abs(angle - np.pi / 2)
    for m in {2, m_max, math.floor(m_guess), math.ceil(m_guess)}:
        m = min(max(m, 2), m_max)
        err = abs(angle - np.pi / m)
        if err < best_err:
            best_m, best_err = m, err
    return best_m, best_err
