"""Geometry kernel: halfspaces, polytopes, cones, and the polar predicate."""

import math
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import nnls

from billiards.alcove import standard_alcove, standard_alcove_labels
from billiards.config import TOL
from billiards.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InputError,
    RedundantHalfspaceError,
    UnboundedRegionError,
)
from billiards.geometry import (
    Location,
    Polytope,
    _chamber_fold,
    _nnls,
    _unit_rows,
    classify_slack,
    cone_membership,
    is_polar,
    nearest_pi_over_m,
    reflect,
    unit,
)
from billiards.io import bundled_table_names, load_table
from conftest import random_convex_polygon


# -- reflect -----------------------------------------------------------------

def test_reflect_involution_and_decomposition(rng):
    for _ in range(200):
        v = rng.normal(size=3)
        n = unit(rng.normal(size=3))
        r = reflect(v, n)
        assert np.allclose(reflect(r, n), v, atol=1e-12)
        # the normal component flips, the tangential part is untouched
        assert math.isclose(float(np.dot(r, n)), -float(np.dot(v, n)),
                            abs_tol=1e-12)
        assert np.allclose(r - np.dot(r, n) * n, v - np.dot(v, n) * n,
                           atol=1e-12)
        assert math.isclose(np.linalg.norm(r), np.linalg.norm(v),
                            rel_tol=1e-12)


# -- halfspaces --------------------------------------------------------------

def _rows(table: Polytope) -> np.ndarray:
    """The ``[normal | offset]`` rows of a table."""
    return np.column_stack((table.normals, table.offsets))


def test_halfspace_normalization_preserves_geometry():
    (row,) = _unit_rows(np.array([[3.0, 4.0, 10.0]]))
    assert math.isclose(np.linalg.norm(row[:2]), 1.0, abs_tol=1e-15)
    # the point (2, 1) satisfied 3x+4y = 10 with the raw data; still boundary
    assert abs(row[:2] @ [2.0, 1.0] - row[2]) < 1e-12


def test_halfspace_rejects_non_unit_normal():
    with pytest.raises(InputError):
        Polytope([[3.0, 4.0, 10.0]], [[2.0, 1.0]])


def test_rows_as_nested_lists_build_the_same_table():
    box = Polytope.box((0.0, 0.0, 0.0), (2.0, 1.0, 3.0))
    rows = _rows(box)
    for table in (
        Polytope(rows.tolist(), box.vertices.tolist()),
        Polytope.from_halfspaces(rows.tolist()),
    ):
        assert np.array_equal(table.normals, box.normals)
        assert np.array_equal(table.offsets, box.offsets)
        assert {tuple(v) for v in table.vertices} == {tuple(v) for v in box.vertices}


# -- polytope construction and validation ------------------------------------

def test_box_containment_and_active_sets():
    box = Polytope.box((0.0, 0.0), (2.0, 1.0))
    assert box.contains([1.0, 0.5]).location is Location.INTERIOR
    assert box.contains([3.0, 0.5]).location is Location.OUTSIDE
    on_edge = box.contains([2.0, 0.5])
    assert on_edge.location is Location.BOUNDARY
    assert len(on_edge.active) == 1
    corner = box.contains([0.0, 0.0])
    assert corner.location is Location.BOUNDARY
    assert len(corner.active) == 2


def test_a_polytope_repr_names_its_dimension_facets_and_vertices():
    assert repr(Polytope.box((0.0, 0.0), (1.0, 1.0))) == (
        "Polytope(dim=2, facets=4, vertices=4)"
    )
    assert repr(Polytope.box(np.zeros(3), np.ones(3))) == (
        "Polytope(dim=3, facets=6, vertices=8)"
    )


def _classify_oracle(slack, band):
    """classify_slack written with numpy's reductions; a NaN slack, which
    numpy's max keeps, is outside."""
    worst = float(slack.max())
    if math.isnan(worst) or worst > band:
        return Location.OUTSIDE, (), worst
    active = tuple(np.flatnonzero(np.abs(slack) <= band).tolist())
    return (Location.BOUNDARY if active else Location.INTERIOR), active, worst


def _slack_cases(rng):
    """(slack, band) pairs: seeded slacks at several scales, values exactly
    at the band's edges, tied zeros of both signs in both orders, a single
    facet, bands of tables of scale 1, 5, 40 and 2e3, and slacks that hold
    a NaN or an infinity."""
    eps = 1e-9
    for scale in (1.0, 5.0, 40.0, 2e3):
        band = eps * scale
        for size in (1, 2, 3, 6, 17):
            for spread in (1.0, 1e-9, 1e-12):
                yield spread * rng.normal(size=size), band
                yield -spread * np.abs(rng.normal(size=size)), band
            edges = rng.choice([band, -band, 0.5 * band, -2.0 * band,
                                2.0 * band, -1.0], size=size)
            yield edges, band
        for ties in ([0.0, -0.0], [-0.0, 0.0], [-1.0, 0.0, -0.0, -2.0],
                     [-0.0, -3.0, 0.0], [-0.0], [0.0], [-band, -0.0, 0.0],
                     [0.0] + [-0.0] * 9, [-0.0] * 9 + [0.0]):
            yield np.array(ties), band
        yield np.array([band]), band
        yield np.array([-band, -band]), band
        yield np.array([np.nextafter(band, 1.0), -band]), band
    # a product with a normal overflows only at coordinates near the float
    # limit, where a slack can be NaN; Python's max passes over a NaN that
    # is not first
    for slack in ([-1.0, math.nan, 5.0], [5.0, math.nan], [math.nan, -1.0],
                  [math.inf, -1.0], [-math.inf, 0.0], [math.inf, -math.inf]):
        for band in (eps, math.inf):
            yield np.array(slack), band


def test_classify_slack_matches_the_numpy_oracle_bit_for_bit(rng):
    """Location, active set and the bytes of the worst violation, sign of
    zero included, equal those of numpy's max and abs reductions."""
    for slack, band in _slack_cases(rng):
        location, active, worst = classify_slack(slack, band)
        want_location, want_active, want_worst = _classify_oracle(slack, band)
        assert (location, active) == (want_location, want_active)
        assert type(worst) is float
        assert struct.pack("<d", worst) == struct.pack("<d", want_worst)


def test_polytope_arrays_are_read_only():
    """What is derived from a table, such as its alcove verdict, stays true
    of it: its arrays cannot be written, while the caller's array can."""
    corners = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    box = Polytope.box((0.0, 0.0), (2.0, 1.0))
    table = Polytope(_rows(box), corners)
    for arr in (table.normals, table.offsets, table.vertices):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    corners[0, 0] = 0.5
    assert table.vertices[0, 0] == 0.0


def test_vertex_enumeration_matches_polygon_constructor(rng):
    """Random polygons, and boxes in 2D and 3D, whose parallel facets give
    singular subsets that the enumeration skips."""
    tables = [random_convex_polygon(rng) for _ in range(25)]
    tables += [Polytope.box([0.0, -1.0], [2.0, 3.0]),
               Polytope.box(np.zeros(3), [1.0, 2.0, 4.0])]
    for poly in tables:
        rebuilt = Polytope.from_halfspaces(_rows(poly))
        got = {tuple(np.round(v, 9)) for v in rebuilt.vertices}
        want = {tuple(np.round(v, 9)) for v in poly.vertices}
        assert got == want


def test_point_cloud_hull_drops_interior_points():
    cloud = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.25, 0.75]],
        dtype=float,
    )
    poly = Polytope.from_point_cloud(cloud)
    assert poly.n_facets == 4
    assert len(poly.vertices) == 4


def test_redundant_halfspace_rejected():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    extra = [1.0, 0.0, 5.0]  # touches nothing
    with pytest.raises(RedundantHalfspaceError):
        Polytope.from_halfspaces(np.vstack([_rows(square), extra]))


def test_unbounded_region_rejected():
    slab = [[1.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]
    with pytest.raises((UnboundedRegionError, InputError)):
        Polytope.from_halfspaces(slab)


@pytest.mark.parametrize(
    "rows, vertices",
    [([[1.0, 0.0]], [[0.0]]), ([[1.0, 0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]])],
    ids=["half-line", "half-plane"],
)
def test_a_single_halfspace_is_refused_as_unbounded(rows, vertices):
    """One facet has no facet pairs to compare, and bounds nothing."""
    with pytest.raises(UnboundedRegionError):
        Polytope(rows, vertices)


def _bounded_by_axis_rule(normals: np.ndarray) -> bool:
    """The boundedness rule the one-solve check replaced: each of the 2*dim
    directions +-e_j is in the cone of the normals, by scipy's nnls with
    residual at most 1e-9."""
    dim = normals.shape[1]
    for e in np.vstack([np.eye(dim), -np.eye(dim)]):
        if nnls(normals.T, e)[1] > 1e-9:
            return False
    return True


def _accepted(rows, vertices) -> bool:
    """Construction verdict: True if built, False on UnboundedRegionError."""
    try:
        Polytope(rows, vertices)
    except UnboundedRegionError:
        return False
    return True


def test_boundedness_verdict_matches_axis_rule(rng):
    """One cone solve (rank d and -sum(n_i) in the cone) accepts and rejects
    exactly what the 2*dim solves for +-e_j did."""
    tables = [load_table(name) for name in bundled_table_names()]
    polytopes = [t for t in tables if isinstance(t, Polytope)]
    polytopes += [standard_alcove(label) for label in standard_alcove_labels(8)]
    assert len(polytopes) > 31
    for poly in polytopes:
        assert _bounded_by_axis_rule(poly.normals)
        assert _accepted(_rows(poly), poly.vertices)
    rejected = 0
    for _ in range(500):
        hull = Polytope.from_point_cloud(rng.normal(size=(int(rng.integers(4, 16)), 3)))
        assert _bounded_by_axis_rule(hull.normals)
        # dropping a facet keeps every vertex check passing; whether the rest
        # still bounds a region is what the two rules must agree on
        drop = int(rng.integers(hull.n_facets))
        kept = np.delete(_rows(hull), drop, axis=0)
        verdict = _accepted(kept, hull.vertices)
        assert verdict == _bounded_by_axis_rule(kept[:, :-1])
        rejected += not verdict
    assert 0 < rejected < 500


def test_unbounded_inputs_that_pass_the_vertex_checks():
    # triangular prism without its caps: normals of rank 2 in R^3
    tri = [(1.0, 0.0), (-0.5, math.sqrt(3) / 2), (-0.5, -math.sqrt(3) / 2)]
    prism = np.array([(x, y, z) for z in (0.0, 1.0) for x, y in tri])
    sides = _unit_rows(np.array([
        [b[1] - a[1], a[0] - b[0], 0.0, a[0] * b[1] - a[1] * b[0]]
        for a, b in zip(tri, tri[1:] + tri[:1])
    ]))
    # unit cube without its top: the normals miss +e_z
    cube = Polytope.box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    open_top = _rows(cube)[cube.normals[:, 2] < 0.5]
    # a corner tetrahedron without the face x + y + z <= 1: a pointed cone
    tetra = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]])
    open_face = np.column_stack((-np.eye(3), np.zeros(3)))
    for rows, vertices in (
        (sides, prism), (open_top, cube.vertices), (open_face, tetra)
    ):
        assert not _bounded_by_axis_rule(rows[:, :-1])
        with pytest.raises(UnboundedRegionError):
            Polytope(rows, vertices)


_SQUARE = Polytope.box((0.0, 0.0), (1.0, 1.0))
_SQUARE_HS = _rows(_SQUARE)
_SQUARE_VERTS = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
_CUBE = Polytope.box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
_CUBE_HS = _rows(_CUBE)
_TRI = [(1.0, 0.0), (-0.5, math.sqrt(3) / 2), (-0.5, -math.sqrt(3) / 2)]


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda: Polytope(_SQUARE_HS, [[0, 0], [2, 0], [1, 1], [0, 1]]),
            InputError,
            "vertex violates a halfspace by 1.000e+00 (scale 2)",
            id="vertex-outside",
        ),
        pytest.param(
            # two coincident pairs, (0, 5) and (1, 4): the first in row order
            # is reported
            lambda: Polytope(_SQUARE_HS[[0, 1, 2, 3, 1, 0]], _SQUARE_VERTS),
            RedundantHalfspaceError,
            "halfspaces 0 and 5 coincide",
            id="coincident",
        ),
        pytest.param(
            lambda: Polytope(np.vstack([_SQUARE_HS, [1.0, 0.0, 5.0]]), _SQUARE_VERTS),
            RedundantHalfspaceError,
            "halfspace 4 touches only 0 vertices; a facet needs at least 2",
            id="touches-too-few",
        ),
        pytest.param(
            # the corner (0, 0) listed twice: two tight vertices, one point
            lambda: Polytope(
                np.vstack([_SQUARE_HS, _unit_rows(np.array([[-1.0, -1.0, 0.0]]))]),
                _SQUARE_VERTS + [[0.0, 0.0]],
            ),
            RedundantHalfspaceError,
            "halfspace 4 is tight on a set of affine rank 0, expected 1",
            id="rank-2d",
        ),
        pytest.param(
            # an edge of the cube with its midpoint: three collinear vertices
            lambda: Polytope(
                np.vstack([_CUBE_HS, _unit_rows(np.array([[1.0, 1.0, 0.0, 2.0]]))]),
                np.vstack([_CUBE.vertices, [[1.0, 1.0, 0.5]]]),
            ),
            RedundantHalfspaceError,
            "halfspace 6 is tight on a set of affine rank 1, expected 2",
            id="rank-3d",
        ),
        pytest.param(
            lambda: Polytope(
                _SQUARE_HS, _SQUARE.vertices, [[0, 1], [1, 2], [2, 3], [3, 0]]
            ),
            InputError,
            "facet_vertices disagree with the tight-vertex sets computed "
            "from the halfspaces",
            id="facet-vertices",
        ),
        pytest.param(
            lambda: Polytope(_SQUARE_HS[[0, 1, 3]], _SQUARE_VERTS),
            UnboundedRegionError,
            "outward normals leave an angular gap >= pi",
            id="angular-gap",
        ),
        pytest.param(
            lambda: Polytope(
                _unit_rows(np.array([
                    [b[1] - a[1], a[0] - b[0], 0.0, a[0] * b[1] - a[1] * b[0]]
                    for a, b in zip(_TRI, _TRI[1:] + _TRI[:1])
                ])),
                [(x, y, z) for z in (0.0, 1.0) for x, y in _TRI],
            ),
            UnboundedRegionError,
            "outward normals span only 2 of 3 dimensions",
            id="rank-deficient-normals",
        ),
        pytest.param(
            lambda: Polytope(_CUBE_HS[_CUBE_HS[:, 2] < 0.5], _CUBE.vertices),
            UnboundedRegionError,
            "outward normals fail to span direction [-0. -0.  1.]",
            id="span",
        ),
        pytest.param(
            lambda: Polytope.convex_polygon([[0, 0], [1, 0], [1, 0], [0, 1]]),
            InputError,
            "polygon has a repeated vertex",
            id="repeated-polygon-vertex",
        ),
        pytest.param(
            lambda: Polytope.convex_polygon([[0, 0], [1, 0]]),
            InputError,
            "a polygon needs at least 3 vertices",
            id="polygon-too-few",
        ),
        pytest.param(
            lambda: Polytope([[3.0, 4.0, 10.0]], [[2.0, 1.0]]),
            InputError,
            "halfspace normal is not unit (norm 5.0)",
            id="non-unit-normal",
        ),
        pytest.param(
            lambda: Polytope([], _SQUARE_VERTS),
            InputError,
            "a polytope needs at least one halfspace",
            id="no-halfspace",
        ),
        pytest.param(
            lambda: Polytope([[1.0, 0.0, 1.0]], [[0.0, 0.0, 0.0]]),
            DimensionMismatchError,
            "vertices have dim 3, halfspaces have dim 2",
            id="dimension-mismatch",
        ),
        pytest.param(
            lambda: Polytope.convex_polygon([[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
            DimensionMismatchError,
            "convex_polygon expects 2D points",
            id="polygon-dimension",
        ),
        pytest.param(
            lambda: Polytope([[1, 0, 1], [1, 0, 0, 1]], [[0, 0]]),
            DimensionMismatchError,
            "halfspace 1 has dim 3, halfspace 0 has dim 2",
            id="mixed-halfspace-dimensions",
        ),
        pytest.param(
            lambda: Polytope.from_halfspaces(
                _SQUARE_HS[:3].tolist() + [[0, 0, -1, 0]]
            ),
            DimensionMismatchError,
            "halfspace 3 has dim 3, halfspace 0 has dim 2",
            id="mixed-halfspace-dimensions-enumerated",
        ),
        pytest.param(
            lambda: Polytope(np.array([1.0, 0.0, 1.0]), _SQUARE_VERTS),
            InputError,
            "halfspaces must be an (H, dim + 1) array of [normal | offset] "
            "rows with dim >= 1, got shape (3,)",
            id="rows-1d",
        ),
        pytest.param(
            lambda: Polytope.from_halfspaces(np.array([1.0, 0.0, 1.0])),
            InputError,
            "halfspaces must be an (H, dim + 1) array of [normal | offset] "
            "rows with dim >= 1, got shape (3,)",
            id="rows-1d-enumerated",
        ),
        pytest.param(
            lambda: Polytope([_SQUARE_HS.tolist()], _SQUARE_VERTS),
            InputError,
            "halfspaces must be an (H, dim + 1) array of [normal | offset] "
            "rows with dim >= 1, got shape (1, 4, 3)",
            id="rows-nested-too-deep",
        ),
        pytest.param(
            lambda: Polytope(np.ones((4, 1)), _SQUARE_VERTS),
            InputError,
            "halfspaces must be an (H, dim + 1) array of [normal | offset] "
            "rows with dim >= 1, got shape (4, 1)",
            id="rows-without-normal",
        ),
        pytest.param(
            lambda: Polytope.from_halfspaces([["a", 0.0, 1.0], *_SQUARE_HS[1:]]),
            InputError,
            "halfspace 0 has an entry that is not a number: 'a'",
            id="non-numeric-entry-enumerated",
        ),
        pytest.param(
            lambda: Polytope([*_SQUARE_HS[:3], [0.0, {}, 0.0]], _SQUARE_VERTS),
            InputError,
            "halfspace 3 has an entry that is not a number: {}",
            id="non-numeric-entry",
        ),
        pytest.param(
            lambda: Polytope([*_SQUARE_HS[:3], [[0.0, -1.0, 0.0]]], _SQUARE_VERTS),
            InputError,
            "halfspaces must be an (H, dim + 1) array of [normal | offset] "
            "rows of numbers",
            id="rows-nested-unevenly",
        ),
    ],
)
def test_construction_errors_are_pinned(build, error, message):
    """Each construction error keeps its class and its exact message."""
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: Polytope(_SQUARE_HS, [[0, 0], [1, 0], [1, 1], [0, math.nan]]),
            "vertex 3 has non-finite coordinates [ 0. nan]",
            id="nan-vertex",
        ),
        pytest.param(
            lambda: Polytope(_SQUARE_HS, [[0, 0], [1, 0], [1, 1], [0, math.inf]]),
            "vertex 3 has non-finite coordinates [ 0. inf]",
            id="inf-vertex",
        ),
        pytest.param(
            lambda: Polytope(_SQUARE_HS, np.zeros((0, 2))),
            "a polytope needs at least one vertex",
            id="no-vertex",
        ),
        pytest.param(
            lambda: Polytope(_SQUARE_HS, []),
            "a polytope needs at least one vertex",
            id="empty-list",
        ),
        pytest.param(
            lambda: _unit_rows(np.array([[1.0, 0.0, math.inf]])),
            "halfspace offset must be finite, got inf",
            id="inf-offset",
        ),
        pytest.param(
            lambda: Polytope.from_halfspaces(
                np.vstack([_SQUARE_HS[:3], [0.0, -1.0, math.nan]])
            ),
            "halfspace 3 has non-finite data: normal [ 0. -1.], offset nan",
            id="nan-offset",
        ),
        pytest.param(
            lambda: _unit_rows(np.array([[1.0, 0.0, 1.0], [1e200, 1e200, 1.0]])),
            "halfspace 1 has a normal coordinate of magnitude 1e+200; its "
            "squared length overflows",
            id="normal-square-overflows",
        ),
        pytest.param(
            lambda: _unit_rows(np.array([[1e-300, 0.0, 1.0]])),
            "halfspace 0 has a normal coordinate of magnitude 1e-300; its "
            "squared length underflows",
            id="normal-square-underflows",
        ),
        pytest.param(
            # a subnormal square has lost the precision a unit normal needs
            lambda: _unit_rows(np.array([[1e-160, 0.0, 1.0]])),
            "halfspace 0 has a normal coordinate of magnitude 1e-160; its "
            "squared length underflows",
            id="normal-square-subnormal",
        ),
        pytest.param(
            # a unit normal has no coordinate above 1; this one squares to inf
            lambda: Polytope(
                [[1e200, 0, 1], [-1, 0, 0], [0, 1, 1], [0, -1, 0]], _SQUARE_VERTS
            ),
            "halfspace normal is not unit (norm inf)",
            id="huge-normal",
        ),
        pytest.param(
            lambda: Polytope.from_halfspaces(
                np.column_stack([_SQUARE_HS[:, :-1], np.full(4, 1e200)])
            ),
            "halfspace 0 has offset 1e+200; its facet has no point with "
            "coordinates at most 1e+153",
            id="from-halfspaces-far-facet",
        ),
        pytest.param(
            lambda: Polytope.box([-1e200, -1e200], [1e200, 1e200]),
            "vertex 0 has a coordinate of magnitude 1e+200; polytope coordinates "
            "must be at most 1e+153, or squared edge lengths overflow",
            id="box-overflow",
        ),
        pytest.param(
            lambda: Polytope(_SQUARE_HS, [[0, 0], [1, 0], [1, 1], [0, -3e160]]),
            "vertex 3 has a coordinate of magnitude 3e+160; polytope coordinates "
            "must be at most 1e+153, or squared edge lengths overflow",
            id="polytope-overflow",
        ),
        pytest.param(
            lambda: Polytope.from_point_cloud(
                [[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1e200],
                 [-1e200, -1e200, -1e200]]
            ),
            "vertex 0 has a coordinate of magnitude 1e+200; point cloud "
            "coordinates must be at most 1e+76, or squared lengths of face "
            "normals overflow",
            id="cloud-overflow",
        ),
        pytest.param(
            # qhull fails in 3D from about 1e77 on
            lambda: Polytope.from_point_cloud(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1e100]]
            ),
            "vertex 3 has a coordinate of magnitude 1e+100; point cloud "
            "coordinates must be at most 1e+76, or squared lengths of face "
            "normals overflow",
            id="cloud-overflow-qhull",
        ),
        pytest.param(
            lambda: Polytope.convex_polygon([[0, 0], [1, 0], [0, math.nan]]),
            "vertex 2 has non-finite coordinates [ 0. nan]",
            id="polygon-nan",
        ),
        pytest.param(
            lambda: Polytope.convex_polygon([[0, 0], [1, 0], [math.inf, 1]]),
            "vertex 2 has non-finite coordinates [inf  1.]",
            id="polygon-inf",
        ),
        pytest.param(
            lambda: Polytope.from_point_cloud(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -math.inf]]
            ),
            "vertex 3 has non-finite coordinates [  0.   0. -inf]",
            id="cloud-inf",
        ),
        pytest.param(
            lambda: Polytope.convex_polygon(
                [[1e200, 0], [0, 1e200], [-1e200, -1e200]]
            ),
            "vertex 0 has a coordinate of magnitude 1e+200; polygon coordinates "
            "must be at most 1e+153, or squared edge lengths overflow",
            id="polygon-overflow",
        ),
        pytest.param(
            lambda: unit([math.nan, 0.5]),
            "non-finite coordinates: [nan 0.5]",
            id="point-nan",
        ),
        pytest.param(lambda: unit([]), "points must have dimension >= 1", id="point-empty"),
        pytest.param(
            lambda: Polytope.convex_polygon([[0, 0], [1, 0], [0, -3e160]]),
            "vertex 2 has a coordinate of magnitude 3e+160; polygon coordinates "
            "must be at most 1e+153, or squared edge lengths overflow",
            id="polygon-overflow-one-vertex",
        ),
    ],
)
def test_non_finite_or_missing_data_refused_before_arithmetic(build, message):
    """Refused with an InputError that names the bad value, and no numpy
    warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as info:
            build()
    assert type(info.value) is InputError
    assert str(info.value) == message


def _first_off_unit_norm(normals):
    """The array form of the unit-normal check: the length of the first
    normal more than 1e-12 off unit, or None."""
    with np.errstate(over="ignore"):
        lengths = np.sqrt(np.vecdot(normals, normals))
    off_unit = np.abs(lengths - 1.0) > 1e-12
    return float(lengths[off_unit.argmax()]) if off_unit.any() else None


def test_the_unit_normal_check_names_the_first_normal_the_array_check_names(rng):
    """The square's four normals, each scaled by up to 40 ulps of 1e-12 either
    side of the band, or by a huge factor: the table builds exactly when the
    array check finds no normal off unit, and a refusal names the length of
    the first one it finds, with no numpy warning."""
    base = np.array(_SQUARE_HS)
    for trial in range(400):
        rows = base.copy()
        factors = 1.0 + rng.integers(-40, 41, size=4) * 0.5e-13
        if trial % 10 == 0:
            factors[rng.integers(4)] = 1e200
        rows[:, :2] *= factors[:, None]
        want = _first_off_unit_norm(rows[:, :2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                Polytope(rows, _SQUARE_VERTS)
                continue
            with pytest.raises(InputError) as info:
                Polytope(rows, _SQUARE_VERTS)
        assert str(info.value) == f"halfspace normal is not unit (norm {want})"


def test_polygon_at_the_coordinate_limit_builds_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = Polytope.convex_polygon([[1e153, 0], [0, 1e153], [-1e153, -1e153]])
        assert table.contains([0.0, 0.0]).location is Location.INTERIOR


def test_box_and_cloud_at_their_coordinate_limits_build_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        box = Polytope.box([-1e153, -1e153, -1e153], [1e153, 1e153, 1e153])
        assert box.contains([0.0, 0.0, 0.0]).location is Location.INTERIOR
        hull = Polytope.from_point_cloud(
            [[1e76, 0, 0], [0, 1e76, 0], [0, 0, 1e76], [-1e76, -1e76, -1e76]]
        )
        assert hull.contains([0.0, 0.0, 0.0]).location is Location.INTERIOR


def test_from_halfspaces_skips_a_vertex_at_infinity_without_warnings():
    """A facet tilted from x <= 1 by a subnormal angle meets it, and x >= 0,
    where the solve overflows: the enumeration skips those points quietly,
    and the tilted facet is refused as touching no vertex."""
    rows = [*_SQUARE_HS.tolist(), [1.0, 1e-310, 2.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RedundantHalfspaceError) as info:
            Polytope.from_halfspaces(rows)
    assert str(info.value) == (
        "halfspace 4 touches only 0 vertices; a facet needs at least 2"
    )


def test_from_halfspaces_refuses_a_far_vertex_without_warnings():
    """Nearly parallel facets with small offsets can still meet beyond the
    coordinate limit; enumerating them squares that vertex quietly."""
    tilt = 1e-10
    rows = [
        [1.0, 0.0, 1e145],
        [-1.0, 0.0, 1e145],
        [0.0, -1.0, 1e145],
        [-math.sin(tilt), math.cos(tilt), 1e145],
        [math.sin(tilt), math.cos(tilt), 1e145],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="polytope coordinates must be at most"):
            Polytope.from_halfspaces(rows)


def _thirty_halfspaces_in_dimension_8():
    """The cube [-1, 1]^8 and 14 seeded cuts: C(30, 8) vertex candidates."""
    rows = [[*row, 1.0] for row in np.vstack([np.eye(8), -np.eye(8)])]
    for n in np.random.default_rng(0).normal(size=(14, 8)):
        rows.append([*(n / np.linalg.norm(n)), 5.0])
    return rows


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(lambda: unit([[1.0, 2.0]]), InputError,
                     "expected a point/vector, got shape (1, 2)", id="point-2d"),
        pytest.param(lambda: Polytope.box((1.0, 0.0), (0.0, 1.0)), InputError,
                     "box needs lower < upper coordinatewise", id="box-order"),
        pytest.param(lambda: Polytope.from_point_cloud(np.eye(4)),
                     DimensionMismatchError,
                     "from_point_cloud supports dim 2 or 3", id="cloud-4d"),
        pytest.param(
            lambda: Polytope.from_halfspaces(_thirty_halfspaces_in_dimension_8()),
            InputError,
            "vertex enumeration over C(30,8) subsets exceeds the cap 200000; "
            "supply vertices explicitly",
            id="enumeration-cap",
        ),
    ],
)
def test_malformed_geometry_is_refused_with_its_class_and_message(
    build, error, message
):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        Polytope([[1.0, 0.0, 1.0]], np.array([[0.0, 0.0, 0.0]]))


# -- cone membership with certified witness ----------------------------------

def _cone_coefficients_2x2(n1, n2, target):
    """Closed-form coefficients writing ``target = a*n1 + b*n2``."""
    mat = np.column_stack([n1, n2])
    return np.linalg.solve(mat, target)


def test_cone_membership_agrees_with_closed_form_2d(rng):
    """NNLS decision vs direct 2x2 solve, plus the separating witness.

    Whenever membership fails, the returned residual must itself certify
    the failure: it lies in the dual (tangent) side of every generator and
    has negative inner product with the target.
    """
    for _ in range(300):
        spread = rng.uniform(0.2, math.pi - 0.2)
        base = rng.uniform(0.0, 2.0 * math.pi)
        n1 = np.array([math.cos(base), math.sin(base)])
        n2 = np.array([math.cos(base + spread), math.sin(base + spread)])
        target = unit(rng.normal(size=2))
        member, coeffs, residual = cone_membership(
            np.array([n1, n2]), target, 1e-9
        )
        exact = _cone_coefficients_2x2(n1, n2, target)
        assert member == bool(np.all(exact >= -1e-9))
        if member:
            assert np.allclose(coeffs @ np.array([n1, n2]), target, atol=1e-8)
        else:
            # separating witness: nonpositive against every generator (hence
            # against the whole cone), strictly positive against the target
            assert np.dot(residual, n1) <= 1e-9
            assert np.dot(residual, n2) <= 1e-9
            assert np.dot(residual, target) > 1e-12


def _nnls_problems(rng, count):
    """Seeded (generators, target) pairs, at most 12 generators in dimension
    at most 8. One in five is plain; the others have more generators than
    dimensions, a zero target, a duplicate generator, or two nearly parallel
    generators."""
    for i in range(count):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(2, 13))
        gen = rng.normal(size=(k, dim))
        target = rng.normal(size=dim)
        kind = i % 5
        if kind == 1:  # more generators than dimensions
            gen = rng.normal(size=(int(rng.integers(dim + 1, 13)), dim))
        elif kind == 2:  # zero target
            target = np.zeros(dim)
        elif kind == 3:  # duplicate generators
            gen[-1] = gen[0]
        elif kind == 4:  # nearly parallel generators
            gen[1] = gen[0] + 10.0 ** rng.uniform(-8, -3) * rng.normal(size=dim)
        yield gen, target


def test_cone_membership_solver_matches_scipy_nnls(rng):
    """The in-house Lawson-Hanson solver against scipy's nnls, plus the KKT
    certificate: coefficients >= 0, residual . g_i <= tol for every
    generator, and the residual orthogonal to the fitted combination."""
    for gen, target in _nnls_problems(rng, 3000):
        _, coeffs, residual = cone_membership(gen, target, 1e-9)
        _, ref_norm = nnls(gen.T, target)
        size = float(np.linalg.norm(target))
        assert math.isclose(np.linalg.norm(residual), ref_norm,
                            rel_tol=1e-9, abs_tol=1e-9 * size)
        tol = 1e-9 * size * float(np.abs(gen).max())
        assert np.all(coeffs >= 0.0)
        assert np.all(gen @ residual <= tol)
        assert abs(float(residual @ (coeffs @ gen))) <= tol


def test_nnls_raises_rather_than_return_a_partial_result():
    gen = np.eye(3)
    target = np.array([1.0, 2.0, 3.0])  # needs all three generators
    assert np.allclose(_nnls(gen, target), target)
    with pytest.raises(BudgetExceededError):
        _nnls(gen, target, max_iter=2)


def test_vertex_off_its_facets_by_less_than_eps_builds():
    """Under ``BILLIARDS_EPS=1e-6`` a vertex 1e-7 outside its two facets is
    on them: the vertex check, the tight sets and the facet ranks read the
    one tolerance. The tolerance is set once per process, so it runs in a
    child."""
    code = (
        "import numpy as np\n"
        "from billiards.geometry import Polytope\n"
        "square = Polytope.box((0.0, 0.0), (1.0, 1.0))\n"
        "rows = np.column_stack((square.normals, square.offsets))\n"
        "verts = square.vertices.copy()\n"
        "verts[3] += 1e-7\n"
        "table = Polytope(rows, verts)\n"
        "print(table.facet_vertices, table.contains(verts[3]).active)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "BILLIARDS_EPS": "1e-6"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "((1, 3), (0, 2), (2, 3), (0, 1)) (0, 2)\n"


# -- the polar predicate -----------------------------------------------------

def test_polar_on_facet_means_mirror_law(rng):
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    p = np.array([0.5, 0.0])  # bottom edge, outward normal (0, -1)
    for _ in range(100):
        angle = rng.uniform(0.1, math.pi - 0.1)
        travel = np.array([math.cos(-angle), math.sin(-angle)])  # downward
        u = -travel
        v = reflect(travel, np.array([0.0, -1.0]))
        assert is_polar(square, p, u, v)
        # tilting the outgoing direction breaks the law
        tilt = 1e-3
        w = np.array(
            [math.cos(math.atan2(v[1], v[0]) + tilt),
             math.sin(math.atan2(v[1], v[0]) + tilt)]
        )
        if w[1] > 1e-6:  # stay inside the tangent halfplane
            assert not is_polar(square, p, u, w)


def test_polar_symmetry_and_interior_case(rng):
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    p_interior = np.array([0.4, 0.6])
    d = unit(rng.normal(size=2))
    assert is_polar(square, p_interior, d, -d)
    assert not is_polar(square, p_interior, d, d)
    # at a corner the predicate is symmetric in its two directions
    corner = np.array([0.0, 0.0])
    for _ in range(100):
        a = rng.uniform(0.0, math.pi / 2.0)
        b = rng.uniform(0.0, math.pi / 2.0)
        u = np.array([math.cos(a), math.sin(a)])
        v = np.array([math.cos(b), math.sin(b)])
        assert is_polar(square, corner, u, v) == is_polar(square, corner, v, u)


@pytest.mark.parametrize(
    "p, u, v, error",
    [
        ([2.0, 0.5], [-1.0, 0.0], [-1.0, 0.5], InputError),  # outside the table
        ([0.5, 0.0], [0.3, -0.8], [0.3, 0.8], InputError),  # incoming leaves
        ([0.5, 0.0], [0.3, 0.8], [0.3, -0.8], InputError),  # outgoing leaves
        ([0.5, 0.0, 0.0], [0.3, 0.8], [-0.3, 0.8], DimensionMismatchError),
        ([0.5, 0.0], [0.3, 0.8, 0.0], [-0.3, 0.8], DimensionMismatchError),
        ([0.5, 0.0], [0.3, 0.8], [-0.3, 0.8, 0.0], DimensionMismatchError),
        ([0.5, 0.0], [0.0, 0.0], [-0.3, 0.8], InputError),  # zero incoming
        ([0.5, 0.0], [0.3, 0.8], [0.0, 0.0], InputError),  # zero outgoing
    ],
)
def test_is_polar_refuses_bad_arguments(p, u, v, error):
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(error) as info:
        is_polar(square, p, u, v)
    assert type(info.value) is error


def test_right_angle_corner_reverses_direction():
    """At a right corner the polar partner of any incoming is its negative."""
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    corner = np.array([0.0, 0.0])
    for angle in np.linspace(0.05, math.pi / 2.0 - 0.05, 20):
        u = np.array([math.cos(angle), math.sin(angle)])
        assert is_polar(square, corner, u, u)


# -- folding a direction into a cone -----------------------------------------
# a FOLD_GROUP corner folds its direction with _chamber_fold, walls through
# the origin (no offsets) and band TOL.eps

def test_fold_direction_word_matches_wedge_oracle():
    """60-degree wedge at the origin: direction 210 deg folds to 30 deg.

    The expected word alternates the two walls; the folded direction is the
    unique cone representative of the orbit.
    """
    n_lower = np.array([0.0, -1.0])
    ang = math.radians(60.0)
    n_upper = np.array([-math.sin(ang), math.cos(ang)])
    v = np.array([math.cos(math.radians(210.0)),
                  math.sin(math.radians(210.0))])
    folded, word = _chamber_fold(np.array([n_lower, n_upper]), None, v, TOL.eps)
    expected = np.array([math.cos(math.radians(30.0)),
                         math.sin(math.radians(30.0))])
    assert np.allclose(folded, expected, atol=1e-12)
    assert list(word) == [0, 1, 0]


def test_fold_direction_fixed_point_inside_cone():
    normals = np.array([[0.0, -1.0], [-1.0, 0.0]])
    v = unit([0.7, 0.4])
    folded, word = _chamber_fold(normals, None, v, TOL.eps)
    assert np.allclose(folded, v, atol=1e-15)
    assert word == []


# -- angle binning -----------------------------------------------------------

def test_nearest_bin_hits_exact_angles():
    for m in range(2, 65):
        got_m, err = nearest_pi_over_m(math.pi / m)
        assert got_m == m
        assert err < 1e-15


def test_nearest_bin_reports_distance():
    angle = math.pi / 3 + 0.01
    m, err = nearest_pi_over_m(angle)
    assert m == 3
    assert math.isclose(err, 0.01, abs_tol=1e-12)


@pytest.mark.parametrize(
    "angle, error",
    [(0.0, math.pi / 2), (math.pi, math.pi / 2), (4.0, 4.0 - math.pi / 2)],
)
def test_an_angle_outside_the_open_range_is_binned_at_m_two(angle, error):
    """No bin pi/m lies outside (0, pi); such an angle is reported against
    pi/2, the widest bin, with its distance to it."""
    assert nearest_pi_over_m(angle) == (2, error)
