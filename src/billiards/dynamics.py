"""Piecewise-straight billiard trajectories inside a convex polytope.

Between boundary hits the state moves at unit speed along a straight
segment. At a hit the outgoing direction is chosen so that the pair
(reversed incoming, outgoing) is polar: on a facet that forces the mirror
law, and at a corner (two or more active facets) a policy decides:

``STRICT``
    refuse and raise ``CornerAmbiguousError``; useful when a run is only
    meaningful if it never touches a corner.
``POINT_REFLECT``
    send the trajectory straight back (``outgoing = -incoming``). The
    difference ``outgoing - incoming`` is then ``-2 incoming`` with the
    reversed incoming in the tangent cone, so the bounce is polar whenever
    the reversed incoming direction lies in the tangent cone; at obtuse
    corners with off-axis arrivals the returned ray can leave the tangent
    cone, which is the price of an always-defined involution.
``FOLD_GROUP``
    reflect the incoming direction across the active walls until it points
    inward: the reflection-group continuation, defined only on an alcove.
    The public entry points check the table once and raise
    ``NotAnAlcoveError`` before a run on any other table starts.

``simulate_unfolded`` replays the same event logic on the image of a single
straight line under the reflection group of the facets, which it carries as
the facet slacks of the position and their rates: a step adds to the slacks,
a mirror applies one row of the Gram matrix of the normals, and the points
are read back once, after the run. So positions reach each event through a
different arithmetic path, and it never calls ``simulate``'s step kernel.
Agreement of the two is a meaningful consistency check, not a tautology.

Both return a :class:`Trajectory`, whose read-only knot arrays are the run:
the knot times and points (start, each hit, end) and the direction of each
segment, which is also the incoming direction of the hit that ends it.
``simulate`` collects one plain tuple per hit and stacks them once, in
``_trajectory``; ``simulate_unfolded`` reads its points and directions back
in one product. The :class:`BounceEvent` list is built from the arrays on
first access.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import TOL
from .errors import (
    BounceBudgetExceededError,
    CornerAmbiguousError,
    DegenerateStartError,
    InputError,
    NoProgressError,
    OutsideTableError,
)
from .geometry import (
    Location,
    Polytope,
    _chamber_fold,
    _checked_horizon,
    as_point,
    reflected,
    tight_facets,
    unit,
)

__all__ = [
    "CornerPolicy",
    "TrajectoryState",
    "BounceEvent",
    "BounceResolution",
    "Trajectory",
    "advance_to_boundary",
    "reflect_at",
    "simulate",
    "simulate_unfolded",
    "default_bounce_budget",
]


class CornerPolicy(Enum):
    STRICT = "strict"
    POINT_REFLECT = "point-reflect"
    FOLD_GROUP = "fold-group"

    @classmethod
    def parse(cls, name: str) -> "CornerPolicy":
        key = name.strip().lower().replace("_", "-")
        for policy in cls:
            if key in (policy.value, policy.value.replace("-", "")):
                return policy
        raise InputError(
            f"unknown corner policy {name!r}; choose from "
            f"{[p.value for p in cls]}"
        )


@dataclass(frozen=True)
class TrajectoryState:
    """Position, unit direction and elapsed arclength."""

    point: np.ndarray
    direction: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "point", as_point(self.point))
        object.__setattr__(
            self, "direction", unit(as_point(self.direction, self.point.shape[0]))
        )
        object.__setattr__(self, "time", float(self.time))

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    def reversed(self) -> "TrajectoryState":
        return TrajectoryState(self.point.copy(), -self.direction, 0.0)


class BounceKind(Enum):
    FACET = "facet"
    CORNER = "corner"


@dataclass(frozen=True)
class BounceEvent:
    """One boundary hit: ``incoming``/``outgoing`` are travel directions
    (the polar pair is ``(-incoming, outgoing)``)."""

    time: float
    point: np.ndarray
    incoming: np.ndarray
    outgoing: np.ndarray
    active: tuple[int, ...]
    kind: BounceKind


@dataclass(frozen=True)
class BounceResolution:
    outgoing: np.ndarray
    kind: BounceKind
    word: tuple[int, ...]  # facet indices of the mirrors applied, in order


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A billiard run of ``n`` hits as read-only knot arrays.

    ``times`` ``(n+2,)``
        0, each hit time, then ``horizon``.
    ``points`` ``(n+2, d)``
        the start point, each hit point, then the end point.
    ``directions`` ``(n+1, d)``
        the travel direction of each segment: the start direction, then the
        outgoing direction of each hit. Its rows but the last are
        :attr:`incoming`.
    ``active``, ``kinds``
        tuples with the active set and the :class:`BounceKind` of each hit.

    ``start`` and ``end`` are the states at times 0 and ``horizon``.
    """

    start: TrajectoryState
    end: TrajectoryState
    horizon: float
    policy: CornerPolicy
    times: np.ndarray
    points: np.ndarray
    directions: np.ndarray
    active: tuple[tuple[int, ...], ...]
    kinds: tuple[BounceKind, ...]

    def __post_init__(self):
        for arr in (self.times, self.points, self.directions):
            arr.setflags(write=False)

    @property
    def n_bounces(self) -> int:
        return len(self.kinds)

    @property
    def incoming(self) -> np.ndarray:
        """``(n, d)``: the travel direction with which each hit is reached,
        which is the direction of the segment that ends there."""
        return self.directions[:-1]

    @functools.cached_property
    def events(self) -> list[BounceEvent]:
        """The hits as :class:`BounceEvent` objects, built on first access
        from rows of the knot arrays."""
        return [
            BounceEvent(*hit)
            for hit in zip(
                self.times[1:-1].tolist(),
                self.points[1:-1],
                self.incoming,
                self.directions[1:],
                self.active,
                self.kinds,
            )
        ]

    def _event_names(self) -> list[str]:
        """Each hit's name in a CSV row: its kind."""
        return [kind.value for kind in self.kinds]

    def position_at(self, t: float) -> np.ndarray:
        return self.sample([t])[0]

    def sample(self, ts) -> np.ndarray:
        """The position at each of the times ``ts`` (clipped to ``[0,
        horizon]``), one row each."""
        times, points, dirs = self.times, self.points, self.directions
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, self.horizon)
        i = np.searchsorted(times, ts, side="right") - 1
        i = np.clip(i, 0, len(dirs) - 1)
        return points[i] + (ts - times[i])[:, None] * dirs[i]


def _trajectory(
    start: TrajectoryState, hits: list[tuple], end: TrajectoryState, policy: CornerPolicy
) -> Trajectory:
    """Stack a run's ``(time, point, outgoing, active, kind)`` hit tuples into
    the read-only arrays of a :class:`Trajectory` that ends at ``end.time``."""
    times, points, outgoing, active, kinds = zip(*hits) if hits else ((),) * 5
    return Trajectory(
        start,
        end,
        end.time,
        policy,
        np.array([0.0, *times, end.time]),
        np.array([start.point, *points, end.point]),
        np.array([start.direction, *outgoing]),
        active,
        kinds,
    )


def default_bounce_budget(polytope: Polytope, horizon: float) -> int:
    """Linear-in-time cap on the number of bounces, scaled by facet count.
    A horizon whose cap overflows a float is refused with ``InputError``."""
    cap = 10.0 * (horizon + 1.0) * polytope.n_facets
    if not math.isfinite(cap):
        raise InputError(
            f"horizon {horizon} is too long: its bounce budget overflows"
        )
    return int(math.ceil(cap))


def advance_to_boundary(
    polytope: Polytope, point, direction
) -> tuple[np.ndarray, float, tuple[int, ...]]:
    """Travel from ``point`` along ``direction`` to the next boundary hit.

    Returns ``(hit_point, distance, active_set_at_hit)``. Constraints
    approached at a rate below the tangential threshold are treated as
    sliding and never selected. Starting on the boundary with an outward
    direction raises ``DegenerateStartError``; a missing forward crossing
    raises ``NoProgressError``.
    """
    p = as_point(point, polytope.dim)
    # the kernel's d.dot(d) over a strided view could round in another order
    d = np.ascontiguousarray(as_point(direction, polytope.dim))
    hit, dt, active, _, _ = _advance(polytope, p, d, TOL.eps * polytope.scale)
    return hit, dt, active


def reflect_at(
    polytope: Polytope,
    point,
    incoming,
    active,
    policy: CornerPolicy = CornerPolicy.POINT_REFLECT,
) -> BounceResolution:
    """Outgoing travel direction for a hit with the given active set.
    ``FOLD_GROUP`` needs an alcove table, else ``NotAnAlcoveError``."""
    active = tuple(active)
    if not active:
        raise InputError("reflect_at needs a nonempty active set")
    if policy is CornerPolicy.FOLD_GROUP:
        from .alcove import _require_alcove  # only FOLD_GROUP runs need alcove
        _require_alcove(polytope)
    d = unit(as_point(incoming, polytope.dim))
    return BounceResolution(*_resolve(polytope, point, d, active, policy))


# -- trusted step kernel -------------------------------------------------------
#
# ``simulate`` validates the table, the state and the horizon once, then steps
# with ``_advance`` and ``_resolve``, which do not re-check their inputs. The
# public functions above validate and call the same kernel, so a hand-chained
# run and a simulated run agree to the last bit.
#
# Every incidence test of a run reads one band, ``TOL.eps * polytope.scale``,
# which ``_begin`` takes once per run; no step takes a norm of its point. A
# step takes the slack of each point it meets once, as a list, with its worst
# value: ``(values, worst)``. ``simulate`` hands the pair of each hit to the
# next step, which starts from that very point, and each list is reduced
# once: the hit's worst value is the largest of its tight values, which
# ``tight_facets`` finds as it scans for the active set. Every step checks
# its start inside the scan for the first crossing, ``_first_crossing``,
# with no active set built: the start is outside when its worst value is
# above the band, and it leaves the table when a facet approached faster
# than ``TOL.tangential`` has a slack at or above ``-band``. These are the
# outside and active tests of ``classify_slack``, with the same band, and an
# active facet is never the next one crossed. The hit's active set is that
# of ``classify_slack`` too: the ``tight_facets`` of its list, or none when
# one of those is above the band and the hit is outside.
#
# ``simulate_unfolded`` shares ``_first_crossing`` and ``tight_facets``, so it
# makes the same decisions by the same rules with the same band, but it takes
# its slacks and rates from its own lists, never from a point of
# ``simulate``'s run, so it stays an independent oracle.
#
# A step works on arrays of a few to a few dozen entries, where each numpy
# call costs more than its arithmetic. So numpy keeps the products with the
# normals (``normals.dot``, the same BLAS call as ``@``) and the vector
# updates, and every reduction runs on Python floats from one ``tolist()``
# of each slack and one of the rates: the worst slack, the worst rate of the
# active facets, the scan for the first crossing and the hit's active set.
# That is exact, because these reductions only take maxima, compare, and
# divide once per row, ``-s / r``, the same IEEE division numpy makes; a
# strict ``<`` keeps the first of tied minima, as ``argmin`` does.
# ``_resolve`` returns a plain tuple; only the public ``reflect_at`` wraps it
# in a ``BounceResolution``.


def _first_crossing(
    values: list[float], rates: list[float], band: float, worst: float
) -> tuple[int, float]:
    """The start check and the scan for the first crossing of one step.

    ``values`` is the slack at the start as a list, ``band`` its band,
    ``worst`` its largest value (or the largest of those at or above
    ``-band``, which is above the band exactly when the largest is), and
    ``rates`` the rate of each slack along the unit direction. Returns
    ``(k, dt)``, the facet crossed first and the distance to it, and raises
    what :func:`advance_to_boundary` raises for a bad start or no crossing.
    """
    if worst > band:
        raise OutsideTableError(
            f"start point violates a constraint by {worst:.3e}"
        )
    tangential = TOL.tangential
    floor = -band
    exiting = -math.inf  # the largest rate of an active facet
    k = -1
    for i, (s, r) in enumerate(zip(values, rates)):
        if r > tangential:
            if s >= floor:
                if r > exiting:
                    exiting = r
                continue
            t = -s / r
            if k < 0 or t < dt:
                k, dt = i, t
    if exiting > tangential:
        raise DegenerateStartError(
            f"direction exits through active facet (rate {exiting:.3e})"
        )
    if k < 0:
        raise NoProgressError("no constraint is approached; table corrupt?")
    dt = max(dt, 0.0)
    if not math.isfinite(dt) or dt <= TOL.step:
        raise NoProgressError(f"forward crossing at dt={dt:.3e} is too small")
    return k, dt


def _advance(
    polytope: Polytope,
    p: np.ndarray,
    d: np.ndarray,
    band: float,
    start: tuple[list[float], float] | None = None,
) -> tuple[np.ndarray, float, tuple[int, ...], np.ndarray, tuple[list[float], float]]:
    """:func:`advance_to_boundary` for finite points of the table's dimension.

    ``d`` is a contiguous 1-D direction; a zero one raises ``InputError``.
    ``band`` is the table's band ``TOL.eps * polytope.scale``. ``start`` is
    the pair ``(values, worst)`` at ``p``, if the caller has it: the slack
    ``normals @ p - offsets`` as a list and the worst value that
    :func:`_first_crossing` reads. Returns ``(hit, dt, active,
    unit_direction, at_hit)``, with ``at_hit`` that pair at the hit, and
    raises what :func:`advance_to_boundary` raises. ``active`` is the active
    set ``classify_slack`` gives the hit, or the facet that set ``dt`` if
    that is empty.
    """
    normals, offsets = polytope.normals, polytope.offsets
    length = math.sqrt(d.dot(d))
    if length < 1e-300:
        raise InputError("cannot normalize the zero vector")
    d = d / length
    if start is None:
        values = (normals.dot(p) - offsets).tolist()
        # a worst slack above the band is positive, so Python's max gives
        # the bits that classify_slack reports; the two differ only on a NaN
        # slack, which needs coordinates near the float limit
        worst = max(values)
    else:
        values, worst = start
    k, dt = _first_crossing(values, normals.dot(d).tolist(), band, worst)
    hit = p + dt * d
    hit_values = (normals.dot(hit) - offsets).tolist()
    # a value above the band is tight too, so the hit is outside, with no
    # active set, exactly when classify_slack's max finds one. The largest
    # tight value is the worst the next step's start check reads.
    active, worst = tight_facets(hit_values, band)
    if worst > band:
        active = ()
    # the minimizing facet must be tight; recover it directly
    return hit, dt, active or (k,), d, (hit_values, worst)


def _resolve(
    polytope: Polytope,
    point,
    d: np.ndarray,
    active: tuple[int, ...],
    policy: CornerPolicy,
) -> tuple[np.ndarray, BounceKind, tuple[int, ...]]:
    """:func:`reflect_at` for a unit direction and a nonempty active set, as
    a plain ``(outgoing, kind, word)`` tuple."""
    if len(active) == 1:
        return reflected(d, polytope.normals[active[0]]), BounceKind.FACET, active
    if policy is CornerPolicy.STRICT:
        raise CornerAmbiguousError(as_point(point, polytope.dim), active)
    if policy is CornerPolicy.POINT_REFLECT:
        return -d, BounceKind.CORNER, ()
    # FOLD_GROUP: the caller has checked that the table is an alcove
    normals = polytope.normals[list(active)]
    folded, local_word = _chamber_fold(normals, None, d, TOL.eps)
    return folded, BounceKind.CORNER, tuple(active[k] for k in local_word)


def _begin(
    polytope: Polytope,
    state: TrajectoryState,
    horizon: float,
    policy: CornerPolicy,
) -> tuple[float, int, float, float]:
    """The checks at the start of a run, shared by both loops.

    Refuses a bad horizon, a state of another dimension, ``FOLD_GROUP`` on a
    non-alcove, and a start outside or leaving the table. Returns
    ``(horizon, budget, eps_time, band)``, with ``band`` the table's band
    ``TOL.eps * polytope.scale``, which every incidence test of the run
    reads.
    """
    horizon = _checked_horizon(horizon)
    if state.dim != polytope.dim:
        raise InputError("state and table dimensions differ")
    if policy is CornerPolicy.FOLD_GROUP:
        from .alcove import _require_alcove  # only FOLD_GROUP runs need alcove
        _require_alcove(polytope)
    loc = polytope.contains(state.point)
    if loc.location is Location.OUTSIDE:
        raise OutsideTableError(
            f"trajectory starts outside the table "
            f"(violation {loc.worst_violation:.3e})"
        )
    if loc.active:
        worst = float(np.max(polytope.normals[list(loc.active)] @ state.direction))
        if worst > TOL.tangential:
            raise DegenerateStartError(
                "trajectory starts on the boundary pointing outward"
            )
    budget = default_bounce_budget(polytope, horizon)
    eps_time = TOL.step * (1.0 + horizon)
    return horizon, budget, eps_time, TOL.eps * polytope.scale


def simulate(
    polytope: Polytope,
    state: TrajectoryState,
    horizon: float,
    policy: CornerPolicy = CornerPolicy.POINT_REFLECT,
) -> Trajectory:
    """Run the billiard flow for total arclength ``horizon``. A run that
    needs more than :func:`default_bounce_budget` bounces raises
    ``BounceBudgetExceededError``."""
    horizon, budget, eps_time, band = _begin(polytope, state, horizon, policy)
    p = state.point.copy()
    d = state.direction.copy()
    at_p = None
    t = 0.0
    hits: list[tuple] = []
    while horizon - t > eps_time:
        hit, dt, active, d_unit, at_hit = _advance(polytope, p, d, band, at_p)
        if dt > (horizon - t) + eps_time:
            p = p + (horizon - t) * d
            t = horizon
            break
        t = t + dt
        outgoing, kind, _ = _resolve(polytope, hit, d_unit, active, policy)
        hits.append((t, hit, outgoing, active, kind))
        if len(hits) > budget:
            raise BounceBudgetExceededError(
                f"exceeded bounce budget {budget} before horizon {horizon}"
            )
        p, d, at_p = hit, outgoing, at_hit
    end = TrajectoryState(p, d, horizon)
    return _trajectory(state, hits, end, policy)


def simulate_unfolded(
    polytope: Polytope,
    state: TrajectoryState,
    horizon: float,
    policy: CornerPolicy = CornerPolicy.POINT_REFLECT,
) -> Trajectory:
    """Same flow as :func:`simulate`, stepped in slack coordinates.

    The run is the image of the straight line ``x0 + t * d0`` under the
    reflection group of the table's facets, carried as two lists: the facet
    slacks ``s = N x - b`` of the position and their rates ``r = N d``. A
    step adds ``dt * r`` to ``s``; the mirror of facet ``j`` maps both lists
    by one row of the Gram matrix ``G = N N^T``, ``s_i -= 2 G_ij s_j``; the
    point reflection at a corner negates ``r``, and the fold word applies
    one mirror per letter. The start check, the scan and the active set
    follow :func:`simulate`'s rules, through :func:`_first_crossing`. The
    points and directions are read back once, after the run, through the
    pseudo-inverse of ``N`` (a bounded table's normals have full column
    rank). So rounding flows through a genuinely different computation than
    the segment-chaining integrator, which never sees the Gram matrix.
    """
    horizon, budget, eps_time, band = _begin(polytope, state, horizon, policy)
    normals, offsets = polytope.normals, polytope.offsets
    gram2 = (2.0 * normals.dot(normals.T)).tolist()
    back = np.linalg.pinv(normals).T  # (s + b) @ back is the point of slack s
    s = (normals.dot(state.point) - offsets).tolist()
    r = normals.dot(state.direction).tolist()
    worst = max(s)
    t = 0.0
    times: list[float] = []
    at_hits: list[list[float]] = []
    outgoing: list[list[float]] = []
    actives: list[tuple[int, ...]] = []
    kinds: list[BounceKind] = []
    while horizon - t > eps_time:
        k, dt = _first_crossing(s, r, band, worst)
        if dt > (horizon - t) + eps_time:
            break
        t = t + dt
        s = [a + dt * c for a, c in zip(s, r)]
        near, worst = tight_facets(s, band)
        # as in _advance: an outside hit has no active set, and the facet
        # that set dt stands for an empty one
        active = (() if worst > band else near) or (k,)
        times.append(t)
        at_hits.append(s)
        if len(active) == 1:
            kind, word = BounceKind.FACET, active
        elif policy is CornerPolicy.STRICT:
            raise CornerAmbiguousError((np.array(s) + offsets).dot(back), active)
        elif policy is CornerPolicy.POINT_REFLECT:
            # the point reflection about the corner fixes the corner
            kind, word = BounceKind.CORNER, ()
            r = [-c for c in r]
        else:
            # FOLD_GROUP: _begin has checked that the table is an alcove
            kind = BounceKind.CORNER
            d = np.array(r).dot(back)
            _, local_word = _chamber_fold(normals[list(active)], None, d, TOL.eps)
            word = tuple(active[i] for i in local_word)
        for j in word:
            row, sj, rj = gram2[j], s[j], r[j]
            s = [a - g * sj for a, g in zip(s, row)]
            r = [a - g * rj for a, g in zip(r, row)]
        outgoing.append(r)
        actives.append(active)
        kinds.append(kind)
        if len(times) > budget:
            raise BounceBudgetExceededError(
                f"exceeded bounce budget {budget} before horizon {horizon}"
            )
    n = len(times)
    # one product reads back every hit and every outgoing direction; the end
    # lies on the last segment
    rows = np.array([*at_hits, *outgoing]).reshape(2 * n, len(s))
    rows[:n] += offsets
    read = rows.dot(back)
    directions = np.concatenate((state.direction[None], read[n:]))
    points = np.empty((n + 2, polytope.dim))
    points[0], points[1:-1] = state.point, read[:n]
    points[-1] = points[-2] + (horizon - t) * directions[-1]
    end = TrajectoryState(points[-1].copy(), directions[-1], horizon)
    return Trajectory(
        state,
        end,
        horizon,
        policy,
        np.array([0.0, *times, horizon]),
        points,
        directions,
        tuple(actives),
        tuple(kinds),
    )
