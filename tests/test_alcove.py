"""Alcove recognition, diagram classification, folding maps."""

import math
import re

import numpy as np
import pytest

from billiards.alcove import (
    check_alcove,
    classify,
    dihedral_angles,
    fold_point,
    folded_flow,
    standard_alcove,
    standard_alcove_labels,
    CoxeterDiagram,
)
from billiards.alcove import _candidate_labels, _catalogue_edges
from billiards.config import TOL
from billiards.corner import limit_reflection
from billiards.dynamics import (
    BounceKind,
    CornerPolicy,
    TrajectoryState,
    advance_to_boundary,
    reflect_at,
    simulate,
    simulate_unfolded,
)
from billiards.errors import InputError, NotAnAlcoveError, WordBudgetExceededError
from billiards.geometry import (
    Polytope,
    affine_rank,
    affine_ranks,
    nearest_pi_over_m,
)
from billiards.tables import triangle_A2, triangle_nonalcove
from conftest import random_polytope_3d, random_triangle


EQUILATERAL = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5 * math.sqrt(3.0)]]
RIGHT_ISOSCELES = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
HALF_EQUILATERAL = [[0.0, 0.0], [1.0, 0.0], [0.0, math.sqrt(3.0)]]


# -- dihedral geometry -------------------------------------------------------

def test_square_dihedrals_and_parallels():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    geom = dihedral_angles(square)
    n_adjacent = int(np.sum(geom.adjacent)) // 2
    n_parallel = int(np.sum(geom.parallel)) // 2
    assert n_adjacent == 4
    assert n_parallel == 2
    for i, j in zip(*np.nonzero(geom.adjacent)):
        assert math.isclose(geom.angles[i, j], math.pi / 2.0, abs_tol=1e-12)


def test_half_equilateral_angle_multiset():
    tri = Polytope.convex_polygon(HALF_EQUILATERAL)
    geom = dihedral_angles(tri)
    found = sorted(
        geom.angles[i, j]
        for i in range(3)
        for j in range(i + 1, 3)
        if geom.adjacent[i, j]
    )
    want = sorted([math.pi / 2.0, math.pi / 3.0, math.pi / 6.0])
    assert np.allclose(found, want, atol=1e-12)


def _dihedral_oracle(polytope):
    """The pair-by-pair rule: one affine_rank per pair of facets that share
    enough vertices for a codimension-2 face."""
    h, dim = polytope.n_facets, polytope.dim
    tol = 1e-9 * max(1.0, float(np.abs(polytope.vertices).max()))
    adjacent = np.zeros((h, h), dtype=bool)
    parallel = np.zeros((h, h), dtype=bool)
    angles = np.full((h, h), np.nan)
    sets = [set(fv) for fv in polytope.facet_vertices]
    for i in range(h):
        for j in range(i + 1, h):
            shared = sorted(sets[i] & sets[j])
            cos_ij = float(np.dot(polytope.normals[i], polytope.normals[j]))
            cos_ij = min(max(cos_ij, -1.0), 1.0)
            if (
                len(shared) >= max(dim - 1, 1)
                and affine_rank(polytope.vertices[shared], tol) == dim - 2
            ):
                adjacent[i, j] = adjacent[j, i] = True
                angles[i, j] = angles[j, i] = math.pi - math.acos(cos_ij)
            elif cos_ij <= -1.0 + 1e-9:
                parallel[i, j] = parallel[j, i] = True
    return adjacent, parallel, angles


def _prism(points_2d):
    """The prism of height one over a convex polygon: its side facets are
    rectangles, four vertices each."""
    return Polytope.from_point_cloud(
        [(x, y, z) for z in (0.0, 1.0) for x, y in points_2d]
    )


def _near_degenerate_sets(rng):
    """Point sets of 2 to 9 points in dimension 2 to 8 that lie on a flat of
    some dimension up to a perturbation of 1e-10 to 1e-8, so their singular
    values straddle the 1e-9 tolerance. Yields (points, index sets of mixed
    sizes) per dimension."""
    for dim in range(2, 9):
        points, sets = [], []
        for _ in range(60):
            size = int(rng.integers(2, 10))
            flat = int(rng.integers(0, min(size - 1, dim)))
            base = rng.normal(size=(flat, dim))
            pts = rng.normal(size=dim) + rng.normal(size=(size, flat)) @ base
            pts += 10.0 ** rng.uniform(-10, -8) * rng.normal(size=(size, dim))
            sets.append(tuple(range(len(points), len(points) + size)))
            points.extend(pts)
        yield np.array(points), sets


def test_batched_ranks_match_the_pairwise_oracle(rng):
    """dihedral_angles and the facet ranks, batched by set size, equal the
    pair-by-pair affine_rank loop bit for bit: masks, angles with NaN in the
    same places, and every rank."""
    tables = [random_polytope_3d(rng) for _ in range(40)]
    tables.append(Polytope.box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    tables.append(_prism(triangle_nonalcove().vertices))
    assert all(max(map(len, t.facet_vertices)) == 4 for t in tables[40:42])
    # more than 64 facets: pair indices built per table, not shared
    sphere = rng.normal(size=(60, 3))
    tables.append(Polytope.from_point_cloud(
        sphere / np.linalg.norm(sphere, axis=1, keepdims=True)
    ))
    assert tables[-1].n_facets > 64
    tables += [standard_alcove(label) for label in standard_alcove_labels(8)]
    for table in tables:
        adjacent, parallel, angles = _dihedral_oracle(table)
        geom = dihedral_angles(table)
        assert np.array_equal(geom.adjacent, adjacent)
        assert np.array_equal(geom.parallel, parallel)
        assert geom.angles.tobytes() == angles.tobytes()
        tol = 1e-9 * max(1.0, float(np.abs(table.vertices).max()))
        want = [affine_rank(table.vertices[list(fv)], tol)
                for fv in table.facet_vertices]
        assert affine_ranks(table.vertices, table.facet_vertices, tol) == want
    for points, sets in _near_degenerate_sets(rng):
        want = [affine_rank(points[list(s)], 1e-9) for s in sets]
        assert affine_ranks(points, sets, 1e-9) == want
        # the sets sit close enough to the tolerance that a tenfold one
        # would change some ranks
        assert [affine_rank(points[list(s)], 1e-8) for s in sets] != want


# -- recognition on the catalogue of 2D tables -------------------------------

@pytest.mark.parametrize(
    "points, label",
    [
        (EQUILATERAL, "A2~"),
        (RIGHT_ISOSCELES, "C2~"),
        (HALF_EQUILATERAL, "G2~"),
    ],
)
def test_triangle_alcove_labels(points, label):
    verdict = check_alcove(Polytope.convex_polygon(points))
    assert verdict.is_alcove
    assert verdict.label == label


def test_boxes_are_product_alcoves():
    for lo, hi, label in [
        ((0.0, 0.0), (1.0, 1.0), "A1~ x A1~"),
        ((0.0, 0.0), (2.0, 1.0), "A1~ x A1~"),
        ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), "A1~ x A1~ x A1~"),
    ]:
        verdict = check_alcove(Polytope.box(lo, hi))
        assert verdict.is_alcove
        assert verdict.label == label


def test_generic_triangle_rejected_with_nearest_bins():
    tri = Polytope.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
    verdict = check_alcove(tri)
    assert not verdict.is_alcove
    assert verdict.label is None
    assert len(verdict.failures) >= 1
    for failure in verdict.failures:
        assert math.isclose(
            failure.nearest_angle, math.pi / failure.nearest_m, abs_tol=1e-15
        )
        assert failure.error > 1e-9
        # the reported bin really is the nearest one
        for m in range(2, 65):
            assert abs(failure.angle - math.pi / m) >= failure.error - 1e-15


def test_fold_point_raises_with_worst_failure_when_not_alcove():
    tri = Polytope.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
    worst = max(check_alcove(tri).failures, key=lambda f: f.error)
    with pytest.raises(
        NotAnAlcoveError, match=re.escape(f"between facets {worst.facets} ")
    ):
        fold_point(tri, (0.4, 0.2))


def test_random_triangles_never_classify(rng):
    for _ in range(200):
        verdict = check_alcove(random_triangle(rng))
        assert not verdict.is_alcove


# -- the standard alcove catalogue -------------------------------------------

# The 31 labels up to rank 8, in the order the benchmark's alcove workload
# cycles through them.
_LABELS_UP_TO_8 = [
    "A1~", "A2~", "A3~", "A4~", "A5~", "A6~", "A7~", "A8~",
    "B3~", "B4~", "B5~", "B6~", "B7~", "B8~",
    "C2~", "C3~", "C4~", "C5~", "C6~", "C7~", "C8~",
    "D4~", "D5~", "D6~", "D7~", "D8~",
    "E6~", "E7~", "E8~", "F4~", "G2~",
]


def _has_family(family: str, n: int) -> bool:
    """Which (family, rank) pairs name an affine diagram: the catalogue's
    earlier rule, one branch per family, kept as the reference for its
    table of ranks."""
    return (
        (family == "A" and n == 1)
        or (family == "A" and n >= 2)
        or (family == "B" and n >= 3)
        or (family == "C" and n >= 2)
        or (family == "D" and n >= 4)
        or (family == "E" and n in (6, 7, 8))
        or (family == "F" and n == 4)
        or (family == "G" and n == 2)
    )


def test_the_catalogue_keeps_its_families_ranks_and_order():
    assert standard_alcove_labels(8) == _LABELS_UP_TO_8
    assert standard_alcove_labels() == _LABELS_UP_TO_8
    # no affine diagram has rank 0 (A~1 is the first), so nothing is listed
    assert standard_alcove_labels(0) == standard_alcove_labels(-3) == []
    for rank in range(0, 13):
        listed = set(standard_alcove_labels(rank))
        candidates = [label for label, _ in _candidate_labels(rank + 1)]
        for family in "ABCDEFGH":
            label = f"{family}{rank}~"
            assert (label in listed) == _has_family(family, rank), label
            assert (label in candidates) == _has_family(family, rank), label
            if _has_family(family, rank):
                assert len(_catalogue_edges(family, rank)) >= rank
            else:
                with pytest.raises(InputError, match="no affine family"):
                    _catalogue_edges(family, rank)
        if rank:
            below = standard_alcove_labels(rank - 1)
            assert [x for x in standard_alcove_labels(rank) if x in below] == below


def test_standard_alcoves_roundtrip_their_labels():
    """Build the canonical simplex for every affine label up to rank 8 and
    recover exactly that label from its dihedral angles."""
    for label in _LABELS_UP_TO_8:
        alcove = standard_alcove(label)
        verdict = check_alcove(alcove)
        assert verdict.is_alcove, label
        assert verdict.label == label


@pytest.mark.parametrize("label", ["Z3", "A", "A3~~"])
def test_standard_alcove_refuses_a_label_it_cannot_parse(label):
    with pytest.raises(InputError) as info:
        standard_alcove(label)
    assert type(info.value) is InputError
    assert str(info.value) == f"cannot parse affine label {label!r}"


def test_unknown_component_gets_no_label():
    # a path with an edge labeled 5 belongs to no affine family
    diagram = CoxeterDiagram(3, {(0, 1): 5.0, (1, 2): 3.0})
    components = classify(diagram)
    assert len(components) == 1
    assert components[0].label is None


# -- folding -----------------------------------------------------------------

def _boxfold_oracle(x: float, width: float) -> float:
    """Triangle-wave folding of the line into [0, width]."""
    period = x % (2.0 * width)
    return period if period <= width else 2.0 * width - period


def test_fold_point_matches_triangle_wave_on_boxes(rng):
    box = Polytope.box((0.0, 0.0), (2.0, 1.0))
    for _ in range(300):
        x = rng.uniform(-20.0, 20.0, 2)
        y, word = fold_point(box, x)
        want = [_boxfold_oracle(x[0], 2.0), _boxfold_oracle(x[1], 1.0)]
        assert np.allclose(y, want, atol=1e-9)
        assert box.contains(y)


def _argmax_fold(normals, offsets, x, band):
    """The greedy fold written with numpy's argmax: the reference for the
    first-maximum choice of the shared chamber fold."""
    word = []
    while True:
        slack = normals @ x - offsets
        k = int(np.argmax(slack))
        if slack[k] <= band:
            return x, word
        x = x - 2.0 * slack[k] * normals[k]
        word.append(k)


def test_points_and_corner_directions_fold_as_the_argmax_reference(rng):
    """Bit for bit, with ties (a box point on its diagonal) broken towards
    the first wall: ``fold_point`` on seeded far points, and ``reflect_at``
    under ``FOLD_GROUP`` at every vertex, whose walls pass through it."""
    tables = [standard_alcove(label) for label in ("A2~", "G2~", "B4~", "E8~")]
    tables.append(Polytope.box((0.0, 0.0), (1.0, 1.0)))
    for table in tables:
        band = TOL.eps * table.scale
        points = list(rng.normal(size=(20, table.dim)) * 20.0 * table.scale)
        points.append(np.full(table.dim, 5.5))
        for x in points:
            y, word = fold_point(table, x)
            want, want_word = _argmax_fold(table.normals, table.offsets, x, band)
            assert (y.tobytes(), word) == (want.tobytes(), want_word)
        for v in table.vertices:
            active = table.contains(v).active
            normals = table.normals[list(active)]
            for d in rng.normal(size=(5, table.dim)):
                r = reflect_at(table, v, d, active, CornerPolicy.FOLD_GROUP)
                unit_d = d / np.linalg.norm(d)
                want, want_word = _argmax_fold(normals, 0.0, unit_d, TOL.eps)
                assert r.outgoing.tobytes() == want.tobytes()
                assert r.word == tuple(active[k] for k in want_word)


def test_fold_point_idempotent_and_word_replays(rng):
    alcove = standard_alcove("C2~")
    for _ in range(100):
        x = rng.uniform(-8.0, 8.0, 2)
        y, word = fold_point(alcove, x)
        z, word2 = fold_point(alcove, y)
        assert np.allclose(z, y, atol=1e-12)
        assert word2 == []
        # replaying the word on x reproduces y
        replay = np.asarray(x, dtype=float).copy()
        for k in word:
            n = alcove.normals[k]
            replay = replay - 2.0 * (replay @ n - alcove.offsets[k]) * n
        assert np.allclose(replay, y, atol=1e-9)


def test_folded_flow_equals_group_fold_simulation():
    triangle = Polytope.convex_polygon(EQUILATERAL)
    state = TrajectoryState((0.5, 0.2), (0.0, 1.0))  # runs into the apex
    a = folded_flow(triangle, state, 5.0)
    b = simulate(triangle, state, 5.0, CornerPolicy.FOLD_GROUP)
    assert a.n_bounces == b.n_bounces
    ts = np.linspace(0.0, 5.0, 501)
    assert np.max(np.linalg.norm(a.sample(ts) - b.sample(ts), axis=1)) < 1e-9


@pytest.mark.parametrize("label", standard_alcove_labels(8))
def test_folded_flow_is_the_fold_of_the_straight_line(label, rng):
    """Event-free oracle: on an alcove the folded flow at time t is
    fold_point(x0 + t*d0). A shot at a vertex must pass a corner (above
    dimension one, where a vertex is a facet)."""
    table = standard_alcove(label)
    vertex = table.vertices[int(rng.integers(len(table.vertices)))]
    weights = rng.dirichlet(np.ones(len(table.vertices)))
    x0 = 0.7 * (weights @ table.vertices) + 0.3 * table.interior_point()
    horizon = 4.0 * float(np.linalg.norm(vertex - x0))
    traj = folded_flow(table, TrajectoryState(x0, vertex - x0), horizon)
    d0 = traj.start.direction
    if table.dim >= 2:
        assert any(e.kind is BounceKind.CORNER for e in traj.events)
    for event in traj.events:
        y, _ = fold_point(table, x0 + event.time * d0, verify=False)
        assert np.linalg.norm(y - event.point) <= 1e-8
    y, _ = fold_point(table, x0 + horizon * d0, verify=False)
    assert np.linalg.norm(y - traj.end.point) <= 1e-8


def test_folded_flow_refuses_non_alcoves():
    tri = Polytope.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
    # the refusal is not forgotten: a second call on the table raises again
    for _ in range(2):
        with pytest.raises(NotAnAlcoveError):
            folded_flow(tri, TrajectoryState((0.4, 0.2), (0.1, 1.0)), 2.0)
        with pytest.raises(NotAnAlcoveError):
            fold_point(tri, (0.4, 0.2))


def test_a_fold_longer_than_100000_reflections_is_refused():
    """On the unit square each reflection moves a far point one width
    closer, so a point 1e5 widths out needs a word of about 1e5 letters."""
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    y, word = fold_point(square, (99_999.5, 0.5))
    assert (y.tolist(), len(word)) == ([0.5, 0.5], 99_999)
    with pytest.raises(WordBudgetExceededError) as info:
        fold_point(square, (100_000.5, 0.5))
    assert str(info.value) == "folding did not terminate within 100000 reflections"


def test_fold_group_refuses_a_non_alcove_before_the_run():
    """FOLD_GROUP is defined on alcoves only: a run on another table is
    refused up front, even one that meets nothing but a facet."""
    tri = triangle_nonalcove()
    shot = TrajectoryState((0.4, 0.3), (0.0, -1.0))  # one bounce, off (0, 0)
    for run in (simulate, simulate_unfolded):
        assert run(tri, shot, 0.5, CornerPolicy.POINT_REFLECT).n_bounces == 1
        with pytest.raises(NotAnAlcoveError, match="from pi/"):
            run(tri, shot, 0.5, CornerPolicy.FOLD_GROUP)
    with pytest.raises(NotAnAlcoveError, match="from pi/"):
        reflect_at(tri, (0.4, 0.0), (0.0, -1.0), (0,), CornerPolicy.FOLD_GROUP)


def test_fold_entry_points_check_each_table_once(monkeypatch):
    import billiards.alcove as alcove_module

    calls = []

    def counting_check(polytope):
        calls.append(polytope)
        return check_alcove(polytope)

    monkeypatch.setattr(alcove_module, "check_alcove", counting_check)
    alcove = standard_alcove("A3~")
    x0 = alcove.interior_point()
    state = TrajectoryState(x0, (1.0, 0.5, 0.25))
    fold = CornerPolicy.FOLD_GROUP
    for _ in range(3):
        fold_point(alcove, x0 + 2.0)
        folded_flow(alcove, state, 3.0)
        simulate(alcove, state, 3.0, fold)
        simulate_unfolded(alcove, state, 3.0, fold)
        hit, _, active = advance_to_boundary(alcove, x0, state.direction)
        reflect_at(alcove, hit, state.direction, active, fold)
    assert calls == [alcove]


# -- Theorem 1 above dimension two: straddling a prism's edge -----------------

def _straddle_vertical_edge(triangle, corner, delta):
    """Shoot at the vertical edge of the prism over ``triangle`` that stands
    on vertex ``corner``, at height 1/2, parallel to the bisector of the
    wedge the two side facets make there, offset by ``+delta`` toward the
    wedge's upper face and by ``-delta`` toward its lower one. Returns the
    wedge's ``limit_reflection`` and the outgoing angle of each shot after
    its near-edge bounces, measured from the lower face."""
    pts = triangle.vertices
    apex = pts[corner]
    lower, upper = pts[(corner + 1) % 3] - apex, pts[corner - 1] - apex
    if lower[0] * upper[1] - lower[1] * upper[0] < 0.0:
        lower, upper = upper, lower
    lower, upper = lower / np.linalg.norm(lower), upper / np.linalg.norm(upper)
    limit = limit_reflection(math.acos(float(lower @ upper)))
    bisector = (lower + upper) / np.linalg.norm(lower + upper)
    toward_upper = np.array([-bisector[1], bisector[0]])
    prism = _prism(pts)
    angles = {}
    for sign in (+1.0, -1.0):
        x0 = apex + 0.25 * bisector + sign * delta * toward_upper
        run = simulate(
            prism,
            TrajectoryState([x0[0], x0[1], 0.5], [-bisector[0], -bisector[1], 0.0]),
            1.0,
            CornerPolicy.STRICT,
        )
        near = run.events[: limit.m]
        assert len(near) == limit.m
        for event in near:
            assert event.kind is BounceKind.FACET
            assert np.hypot(*(event.point[:2] - apex)) <= 100.0 * delta
            assert event.point[2] == 0.5
        out = near[-1].outgoing
        assert out[2] == 0.0
        angles[sign] = math.atan2(
            lower[0] * out[1] - lower[1] * out[0], lower[0] * out[0] + lower[1] * out[1]
        )
    return limit, angles[+1.0], angles[-1.0]


@pytest.mark.parametrize("corner", [0, 1, 2])
def test_straddling_a_non_pi_over_k_prism_edge_splits_by_the_gap(corner):
    """The prism over a triangle with no pi/k angle is no alcove: on either
    side of a vertical edge, whose dihedral angle is the triangle's angle,
    shots leave along the two one-sided limits of the planar corner, however
    close to the edge they pass, so the flow is discontinuous there."""
    for delta in (1e-3, 1e-5, 1e-7):
        limit, above, below = _straddle_vertical_edge(
            triangle_nonalcove(), corner, delta
        )
        assert not limit.continuous and limit.gap > 0.3
        assert abs(above - limit.outgoing_above) <= 1e-12
        assert abs(below - limit.outgoing_below) <= 1e-12
        assert abs(abs(above - below) - limit.gap) <= 1e-12


@pytest.mark.parametrize("corner", [0, 1, 2])
def test_straddling_a_pi_over_three_prism_edge_closes_up(corner):
    """Over the equilateral triangle, an alcove, both sides of each vertical
    edge leave in one direction as the offset shrinks."""
    for delta in (1e-3, 1e-5, 1e-7):
        limit, above, below = _straddle_vertical_edge(triangle_A2(), corner, delta)
        assert limit.continuous
        assert abs(above - below) <= 1e-12
        assert abs(above - limit.outgoing_above) <= 1e-12


def test_straddling_a_generic_tetrahedron_edge_splits_by_the_gap():
    """Theorem 1 without product structure: a tetrahedron with no pi/k angle
    at its edge 0-1 is no prism. Shots in the plane orthogonal to the edge,
    parallel to the bisector of the wedge its two facets make and offset by
    ``+delta`` toward the upper facet and by ``-delta`` toward the lower one,
    make the wedge's m facet hits and leave along its two one-sided limits."""
    v0, v1, v2, v3 = np.array(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.3, 0.9, 0.0), (0.35, 0.3, 0.8)]
    )
    tet = Polytope.from_point_cloud([v0, v1, v2, v3])
    edge = (v1 - v0) / np.linalg.norm(v1 - v0)

    def across(v):
        """The unit part of ``v`` orthogonal to the edge."""
        w = v - (v @ edge) * edge
        return w / np.linalg.norm(w)

    lower, upper = across(v2 - v0), across(v3 - v0)
    alpha = math.acos(float(lower @ upper))
    _, err = nearest_pi_over_m(alpha)
    assert err > 0.1
    limit = limit_reflection(alpha)
    assert limit.m == 3 and not limit.continuous
    normal = across(upper - (upper @ lower) * lower)  # in the plane, off lower
    bisector = math.cos(0.5 * alpha) * lower + math.sin(0.5 * alpha) * normal
    toward_upper = -math.sin(0.5 * alpha) * lower + math.cos(0.5 * alpha) * normal
    for delta in (1e-3, 1e-5, 1e-7):
        for sign, want in ((+1.0, limit.outgoing_above), (-1.0, limit.outgoing_below)):
            x0 = 0.5 * (v0 + v1) + 0.1 * bisector + sign * delta * toward_upper
            run = simulate(
                tet, TrajectoryState(x0, -bisector), 0.25, CornerPolicy.STRICT
            )
            near = run.events[: limit.m]
            assert len(near) == limit.m
            for event in near:
                assert event.kind is BounceKind.FACET
                off_edge = event.point - v0 - ((event.point - v0) @ edge) * edge
                assert np.linalg.norm(off_edge) <= 100.0 * delta
            out = near[-1].outgoing
            assert abs(out @ edge) <= 1e-15
            assert abs(math.atan2(out @ normal, out @ lower) - want) <= 1e-12
