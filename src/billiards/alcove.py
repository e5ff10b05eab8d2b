"""Alcove detection and affine Coxeter classification.

A bounded convex polytope is an *alcove* (a fundamental chamber of a
discrete group generated by the reflections in its walls) exactly when every
pair of facets meeting in a codimension-2 face does so at a dihedral angle
``pi/m`` for an integer ``m >= 2``. The decision procedure bins each dihedral
angle against that grid; any miss is reported with the nearest admissible
angle, so a failed check doubles as a diagnosis.

Alcoves are classified by their labeled diagram: one node per facet, an edge
labeled ``m`` when the dihedral angle is ``pi/m`` with ``m >= 3``, an
``infinity`` edge for parallel facets, no edge for right angles. Connected
components are matched against the affine families A~n, B~n, C~n, D~n,
E~6/7/8, F~4, G~2 plus the rank-one slab A~1 by brute-force labeled graph
isomorphism (components here never exceed nine nodes).

``standard_alcove`` inverts the story: from a family label it builds the
Gram matrix ``G[i][j] = -cos(pi/m_ij)`` (``-1`` for parallel walls), factors
it, and assembles the simplex with those wall normals at offset one.
"""

from __future__ import annotations

import functools
import math
import re
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import TOL
from .errors import InputError, NotAnAlcoveError
from .geometry import (
    Polytope,
    _chamber_fold,
    affine_ranks,
    as_point,
    facet_pairs,
    nearest_pi_over_m,
)

if TYPE_CHECKING:
    from .dynamics import Trajectory, TrajectoryState

__all__ = [
    "DihedralAngles",
    "AlcoveFailure",
    "AlcoveVerdict",
    "CoxeterDiagram",
    "Component",
    "dihedral_angles",
    "check_alcove",
    "classify",
    "standard_alcove",
    "standard_alcove_labels",
    "fold_point",
    "folded_flow",
]

INF = math.inf


@dataclass(frozen=True)
class DihedralAngles:
    """Pairwise facet geometry: which pairs meet in a codim-2 face, which are
    parallel, and the dihedral angle where defined (NaN elsewhere)."""

    adjacent: np.ndarray
    parallel: np.ndarray
    angles: np.ndarray


def dihedral_angles(polytope: Polytope) -> DihedralAngles:
    """Facets ``i`` and ``j`` are adjacent when their shared vertices span a
    codimension-2 face, and parallel when they are not adjacent and their
    normals are opposite within ``TOL.eps``; an adjacent pair meets at the
    angle ``pi - acos(<n_i, n_j>)``."""
    h = polytope.n_facets
    dim = polytope.dim
    first, second, spread = facet_pairs(h)
    pairs = list(zip(first.tolist(), second.tolist()))
    normals = polytope.normals
    cos = np.vecdot(normals[:, None], normals[None]).tolist()
    facet_sets = [set(fv) for fv in polytope.facet_vertices]
    # pairs that share enough vertices for a codimension-2 face; the rank of
    # the shared set decides
    candidates: list[int] = []
    shared_sets: list[list[int]] = []
    for k, (i, j) in enumerate(pairs):
        shared = facet_sets[i] & facet_sets[j]
        if len(shared) >= max(dim - 1, 1):
            candidates.append(k)
            shared_sets.append(sorted(shared))
    ranks = affine_ranks(polytope.vertices, shared_sets, TOL.eps * polytope.scale)
    meets = {k for k, rank in zip(candidates, ranks) if rank == dim - 2}
    # one value per pair, then a last one for the diagonal
    pair_adjacent = [False] * (len(pairs) + 1)
    pair_parallel = [False] * (len(pairs) + 1)
    pair_angle = [math.nan] * (len(pairs) + 1)
    for k, (i, j) in enumerate(pairs):
        cos_ij = min(max(cos[i][j], -1.0), 1.0)
        if k in meets:
            pair_adjacent[k] = True
            pair_angle[k] = math.pi - math.acos(cos_ij)
        elif cos_ij <= -1.0 + TOL.eps:
            pair_parallel[k] = True
    adjacent = np.array(pair_adjacent)[spread]
    parallel = np.array(pair_parallel)[spread]
    angles = np.array(pair_angle)[spread]
    return DihedralAngles(adjacent, parallel, angles)


@dataclass(frozen=True)
class AlcoveFailure:
    """One dihedral angle off the pi/m grid."""

    facets: tuple[int, int]
    angle: float
    nearest_m: int
    nearest_angle: float
    error: float


@dataclass(frozen=True)
class Component:
    nodes: tuple[int, ...]
    label: str | None  # None when the component matches no affine family


@dataclass(frozen=True)
class CoxeterDiagram:
    """Labeled diagram on facet indices; ``edges`` maps sorted pairs to the
    label m (int >= 3) or ``math.inf`` for parallel walls."""

    n_nodes: int
    edges: dict[tuple[int, int], float] = field(default_factory=dict)

    def components(self) -> list[tuple[int, ...]]:
        parent = list(range(self.n_nodes))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (i, j) in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        groups: dict[int, list[int]] = {}
        for node in range(self.n_nodes):
            groups.setdefault(find(node), []).append(node)
        return [tuple(sorted(g)) for g in sorted(groups.values())]

    def induced(self, nodes: tuple[int, ...]) -> dict[tuple[int, int], float]:
        index = {v: k for k, v in enumerate(nodes)}
        return {
            (min(index[i], index[j]), max(index[i], index[j])): m
            for (i, j), m in self.edges.items()
            if i in index and j in index
        }


@dataclass(frozen=True)
class AlcoveVerdict:
    is_alcove: bool
    failures: tuple[AlcoveFailure, ...]
    diagram: CoxeterDiagram | None
    components: tuple[Component, ...]

    @property
    def label(self) -> str | None:
        """Joined component labels, or None if any component is unmatched."""
        if not self.is_alcove or any(c.label is None for c in self.components):
            return None
        return " x ".join(sorted(c.label for c in self.components))


def check_alcove(polytope: Polytope) -> AlcoveVerdict:
    """Decide the alcove property and classify on success.

    Every codim-2 dihedral angle must sit within ``TOL.eps`` of ``pi/m``
    for some integer ``m`` in [2, 64]. Failures carry the offending pair,
    the measured angle, and the nearest admissible bin.
    """
    eps = TOL.eps
    geom = dihedral_angles(polytope)
    h = polytope.n_facets
    first, second, _ = facet_pairs(h)
    failures: list[AlcoveFailure] = []
    edges: dict[tuple[int, int], float] = {}
    parallel = geom.parallel.ravel().tolist()
    adjacent = geom.adjacent.ravel().tolist()
    angles = geom.angles.ravel().tolist()
    for i, j in zip(first.tolist(), second.tolist()):
        k = i * h + j  # the pair's place in the flattened (h, h) matrices
        if parallel[k]:
            edges[(i, j)] = INF
        elif adjacent[k]:
            ang = angles[k]
            m, err = nearest_pi_over_m(ang)
            if err > eps:
                failures.append(AlcoveFailure((i, j), ang, m, math.pi / m, err))
            elif m >= 3:
                edges[(i, j)] = float(m)
    if failures:
        return AlcoveVerdict(False, tuple(failures), None, ())
    diagram = CoxeterDiagram(h, edges)
    return AlcoveVerdict(True, (), diagram, classify(diagram))


def _not_an_alcove(verdict: AlcoveVerdict) -> NotAnAlcoveError:
    """The error for a failed verdict, naming its worst dihedral angle."""
    worst = max(verdict.failures, key=lambda f: f.error)
    return NotAnAlcoveError(
        f"dihedral angle {worst.angle:.12f} between facets {worst.facets} "
        f"is {worst.error:.3e} away from pi/{worst.nearest_m}"
    )


def classify(diagram: CoxeterDiagram) -> tuple[Component, ...]:
    """Match each connected component against the affine catalogue."""
    return tuple(
        Component(nodes, _match_component(diagram.induced(nodes), len(nodes)))
        for nodes in diagram.components()
    )


# -- affine catalogue -------------------------------------------------------


# The ranks of each affine family (Humphreys 1990, section 4.7), in the order
# standard_alcove_labels lists them; A~1 is the slab.
_FAMILY_RANKS: dict[str, tuple[int, float]] = {
    "A": (1, INF), "B": (3, INF), "C": (2, INF), "D": (4, INF),
    "E": (6, 8), "F": (4, 4), "G": (2, 2),
}


def _catalogue_edges(family: str, rank: int) -> dict[tuple[int, int], float]:
    """Edge map of the affine diagram of the given family and rank, on nodes
    0..rank (rank+1 nodes)."""
    n = rank
    ranks = _FAMILY_RANKS.get(family)
    if ranks is None or not ranks[0] <= n <= ranks[1]:
        raise InputError(f"no affine family {family}~{n}")
    if family == "A":
        if n == 1:
            return {(0, 1): INF}
        edges = {(i, i + 1): 3.0 for i in range(n)}
        edges[(0, n)] = 3.0
        return edges
    if family == "B":
        edges = {(0, 2): 3.0, (1, 2): 3.0}
        for i in range(2, n - 1):
            edges[(i, i + 1)] = 3.0
        edges[(n - 1, n)] = 4.0
        return edges
    if family == "C":
        edges = {(i, i + 1): 3.0 for i in range(1, n - 1)}
        edges[(0, 1)] = 4.0
        edges[(n - 1, n)] = 4.0
        return edges
    if family == "D":
        edges = {(0, 2): 3.0, (1, 2): 3.0, (n - 2, n - 1): 3.0, (n - 2, n): 3.0}
        for i in range(2, n - 2):
            edges[(i, i + 1)] = 3.0
        return edges
    if family == "E" and n == 6:
        return {
            (0, 1): 3.0, (1, 2): 3.0,
            (0, 3): 3.0, (3, 4): 3.0,
            (0, 5): 3.0, (5, 6): 3.0,
        }
    if family == "E" and n == 7:
        return {
            (0, 1): 3.0, (1, 2): 3.0, (2, 3): 3.0,
            (0, 4): 3.0, (4, 5): 3.0, (5, 6): 3.0,
            (0, 7): 3.0,
        }
    if family == "E":  # E~8
        return {
            (0, 1): 3.0, (1, 2): 3.0, (2, 3): 3.0, (3, 4): 3.0, (4, 5): 3.0,
            (0, 6): 3.0, (6, 7): 3.0,
            (0, 8): 3.0,
        }
    if family == "F":
        return {(0, 1): 3.0, (1, 2): 3.0, (2, 3): 4.0, (3, 4): 3.0}
    return {(0, 1): 6.0, (1, 2): 3.0}  # G~2


def standard_alcove_labels(max_rank: int = 8) -> list[str]:
    """All irreducible affine labels up to the given rank, family by family
    in the order A, B, C, D, E, F, G and by rank within a family; none below
    rank one."""
    return [
        f"{family}{n}~"
        for family, (lo, hi) in _FAMILY_RANKS.items()
        for n in range(lo, min(hi, max_rank) + 1)
    ]


def _candidate_labels(n_nodes: int) -> list[tuple[str, dict]]:
    rank = n_nodes - 1
    return [
        (f"{family}{rank}~", _catalogue_edges(family, rank))
        for family, (lo, hi) in _FAMILY_RANKS.items()
        if lo <= rank <= hi
    ]


class _Shape(NamedTuple):
    """What the isomorphism search reads of a labeled diagram: each node's
    neighbours mapped to the labels of the edges to them, each node's
    signature (the sorted labels of its edges), and the invariants compared
    first (the sorted edge labels, then the sorted signatures)."""

    adjacency: list[dict[int, float]]
    signatures: list[tuple[float, ...]]
    invariants: tuple[list[float], list[tuple[float, ...]]]


def _shape(n_nodes: int, edges: dict) -> _Shape:
    adjacency: list[dict[int, float]] = [{} for _ in range(n_nodes)]
    for (i, j), m in edges.items():
        adjacency[i][j] = m
        adjacency[j][i] = m
    signatures = [tuple(sorted(nbrs.values())) for nbrs in adjacency]
    return _Shape(
        adjacency, signatures, (sorted(edges.values()), sorted(signatures))
    )


@functools.lru_cache(maxsize=32)
def _catalogue_shapes(n_nodes: int) -> tuple[tuple[str, _Shape], ...]:
    """The affine diagrams on ``n_nodes`` nodes, each shaped once per
    process; the catalogue is fixed, so the shapes never go stale."""
    return tuple(
        (label, _shape(n_nodes, edges))
        for label, edges in _candidate_labels(n_nodes)
    )


def _isomorphic(a: _Shape, b: _Shape) -> bool:
    """Labeled graph isomorphism by backtracking with signature pruning."""
    if a.invariants != b.invariants:
        return False
    adj_a, adj_b = a.adjacency, b.adjacency
    sig_a, sig_b = a.signatures, b.signatures
    n_nodes = len(adj_a)
    mapping: dict[int, int] = {}
    used: set[int] = set()
    order = sorted(range(n_nodes), key=lambda v: -len(adj_a[v]))

    def extend(k: int) -> bool:
        if k == n_nodes:
            return True
        a = order[k]
        for b in range(n_nodes):
            if b in used or sig_a[a] != sig_b[b]:
                continue
            ok = True
            for nb, target in mapping.items():
                if adj_a[a].get(nb) != adj_b[b].get(target):
                    ok = False
                    break
            if ok:
                mapping[a] = b
                used.add(b)
                if extend(k + 1):
                    return True
                del mapping[a]
                used.remove(b)
        return False

    return extend(0)


def _match_component(edges: dict, n_nodes: int) -> str | None:
    shape = _shape(n_nodes, edges)
    for label, catalogue in _catalogue_shapes(n_nodes):
        if _isomorphic(shape, catalogue):
            return label
    return None


# -- standard alcove construction ------------------------------------------


def _parse_label(label: str) -> tuple[str, int]:
    m = re.fullmatch(r"([A-G])(\d+)~?", label.strip())
    if not m:
        raise InputError(f"cannot parse affine label {label!r}")
    return m.group(1), int(m.group(2))


def standard_alcove(label: str) -> Polytope:
    """Concrete alcove with the given irreducible affine type.

    Wall normals are recovered from the Gram matrix ``-cos(pi/m_ij)`` by
    eigenfactorization (the matrix of an affine diagram is positive
    semidefinite with a one-dimensional kernel); all walls sit at offset one,
    and the region is a simplex whose classification round-trips to
    ``label``.
    """
    family, rank = _parse_label(label)
    edges = _catalogue_edges(family, rank)
    n_nodes = rank + 1
    gram = np.eye(n_nodes)
    for (i, j), m in edges.items():
        val = -1.0 if math.isinf(m) else -math.cos(math.pi / m)
        gram[i, j] = gram[j, i] = val
    eigvals, eigvecs = np.linalg.eigh(gram)
    positive = eigvals > 1e-9
    if int(np.sum(positive)) != rank:
        raise InputError(
            f"gram matrix of {label} has rank {int(np.sum(positive))}, "
            f"expected {rank}"
        )
    factors = eigvecs[:, positive] * np.sqrt(eigvals[positive])
    normals = factors / np.linalg.norm(factors, axis=1, keepdims=True)
    # vertex i is where every wall but wall i is tight: one stacked solve
    others = np.nonzero(~np.eye(n_nodes, dtype=bool))[1].reshape(n_nodes, rank)
    vertices = np.linalg.solve(normals[others], np.ones((n_nodes, rank, 1)))
    return Polytope(
        np.column_stack((normals, np.ones(n_nodes))), vertices[..., 0]
    )


# -- folding ---------------------------------------------------------------


# Each table's verdict, computed on its first fold_point call or FOLD_GROUP
# run. A Polytope's arrays are read-only and TOL
# is frozen, so the verdict cannot go stale; the weak keys let a table and its
# verdict be freed together.
_VERDICTS: weakref.WeakKeyDictionary[Polytope, AlcoveVerdict] = (
    weakref.WeakKeyDictionary()
)


def _require_alcove(polytope: Polytope) -> AlcoveVerdict:
    verdict = _VERDICTS.get(polytope)
    if verdict is None:
        verdict = _VERDICTS[polytope] = check_alcove(polytope)
    if not verdict.is_alcove:
        raise _not_an_alcove(verdict)
    return verdict


def fold_point(
    polytope: Polytope, x, *, verify: bool = True
) -> tuple[np.ndarray, list[int]]:
    """Map an arbitrary point into the alcove by wall reflections.

    Greedy: reflect across the most violated wall until feasible, the same
    fold as a ``FOLD_GROUP`` corner applies to a direction. Each step
    strictly decreases the distance to any interior basepoint, so on a true
    alcove this terminates; the returned word lists wall indices in the
    order applied (identity word for points already inside).

    With ``verify`` the table must pass :func:`check_alcove`, else
    ``NotAnAlcoveError`` is raised. A table is checked once: its verdict is
    remembered for as long as the table lives, so later calls on it skip
    the check.
    """
    if verify:
        _require_alcove(polytope)
    y = as_point(x, polytope.dim).copy()
    band = TOL.eps * polytope.scale
    return _chamber_fold(polytope.normals, polytope.offsets, y, band)


def folded_flow(
    polytope: Polytope,
    state: TrajectoryState,
    horizon: float,
) -> Trajectory:
    """Geodesic flow on the alcove orbifold: a straight line pushed through
    the folding map.

    Equivalent to the billiard flow with the group-fold corner rule, with
    positions carried as facet slacks through the reflection group's action
    on them (one Gram-matrix row per wall crossed) and read back once, as
    ``simulate_unfolded`` does under ``FOLD_GROUP``. Raises
    ``NotAnAlcoveError`` when the table fails the dihedral criterion: that is
    ``FOLD_GROUP``'s precondition, which ``simulate_unfolded`` checks once
    per table, as :func:`fold_point` does.
    """
    # imported here, so that recognizing an alcove compiles no flow code
    from .dynamics import CornerPolicy, simulate_unfolded

    return simulate_unfolded(polytope, state, horizon, CornerPolicy.FOLD_GROUP)
