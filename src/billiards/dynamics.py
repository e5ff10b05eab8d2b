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

``simulate_unfolded`` replays the same event logic but represents the
trajectory as a single straight line composed with an accumulating affine
isometry (one mirror per bounce), so positions reach each event through a
different arithmetic path. Agreement of the two is a meaningful consistency
check, not a tautology.

Both return a :class:`Trajectory`, whose read-only knot arrays are the run:
the knot times and points (start, each hit, end), the direction of each
segment and the incoming direction of each hit. The loops collect one plain
tuple per hit and stack them once, in ``_trajectory``; the
:class:`BounceEvent` list is built from the arrays on first access.
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
    classify_slack,
    reflected,
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
        outgoing direction of each hit.
    ``incoming`` ``(n, d)``
        the travel direction with which each hit is reached. It is kept
        apart from ``directions``, since ``simulate_unfolded`` computes it
        through its isometry, not as the previous outgoing direction.
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
    incoming: np.ndarray
    active: tuple[tuple[int, ...], ...]
    kinds: tuple[BounceKind, ...]

    @property
    def n_bounces(self) -> int:
        return len(self.kinds)

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
    """Stack a run's ``(time, point, incoming, outgoing, active, kind)`` hit
    tuples into the read-only arrays of a :class:`Trajectory` that ends at
    ``end.time``."""
    times, points, incoming, outgoing, active, kinds = (
        zip(*hits) if hits else ((),) * 6
    )
    arrays = (
        np.array([0.0, *times, end.time]),
        np.array([start.point, *points, end.point]),
        np.array([start.direction, *outgoing]),
        np.array(incoming).reshape(len(kinds), start.dim),
    )
    for arr in arrays:
        arr.setflags(write=False)
    return Trajectory(start, end, end.time, policy, *arrays, active, kinds)


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
    hit, dt, active, _, _, _ = _advance(polytope, p, d)
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
# ``simulate`` and ``simulate_unfolded`` validate the table, the state and the
# horizon once, then step with the two functions below, which do not re-check
# their inputs. The public functions above validate and call the same kernel,
# so a hand-chained run and a simulated run agree to the last bit.
#
# ``simulate`` carries the slack and the classification of each hit into the
# next step, which starts from that very point; its first step reuses the
# classification that ``_begin`` made of the start. ``simulate_unfolded``
# deliberately does not: it classifies its own isometry-built position at
# every step, so it stays an independent oracle.
#
# A step works on arrays of a few to a few dozen entries, where each numpy
# call costs more than its arithmetic. So numpy keeps the products with the
# normals (``normals.dot``, the same BLAS call as ``@``) and the vector
# updates, and every reduction runs on Python floats from one ``tolist()``:
# the worst rate of the active facets, the scan for the first crossing and,
# in ``classify_slack``, the worst slack and the active set. That is exact,
# because these reductions only take maxima, compare, and divide once per
# row, ``-s / r``, the same IEEE division numpy makes; a strict ``<`` keeps
# the first of tied minima, as ``argmin`` does. ``_resolve`` returns a plain
# tuple; only the public ``reflect_at`` wraps it in a ``BounceResolution``.

_Classification = tuple[Location, tuple[int, ...], float]


def _advance(
    polytope: Polytope,
    p: np.ndarray,
    d: np.ndarray,
    slack: np.ndarray | None = None,
    here: _Classification | None = None,
) -> tuple[
    np.ndarray, float, tuple[int, ...], np.ndarray, np.ndarray, _Classification
]:
    """:func:`advance_to_boundary` for finite points of the table's dimension.

    ``d`` is a contiguous 1-D direction; a zero one raises ``InputError``.
    ``slack`` is ``normals @ p - offsets`` and ``here`` is
    ``classify_slack(slack, p, TOL.eps)``, if the caller has them.
    Returns ``(hit, dt, active, unit_direction, slack_at_hit,
    classification_at_hit)`` and raises what :func:`advance_to_boundary`
    raises. ``active`` is the active set of the classification at the hit,
    or the facet that set ``dt`` if that is empty.
    """
    normals, offsets = polytope.normals, polytope.offsets
    length = math.sqrt(d.dot(d))
    if length < 1e-300:
        raise InputError("cannot normalize the zero vector")
    d = d / length
    if slack is None:
        slack = normals.dot(p) - offsets
    if here is None:
        here = classify_slack(slack, p, TOL.eps)
    location, active, worst = here
    if location is Location.OUTSIDE:
        raise OutsideTableError(
            f"start point violates a constraint by {worst:.3e}"
        )
    rates = normals.dot(d).tolist()
    tangential = TOL.tangential
    if active:
        worst_rate = max([rates[i] for i in active])
        if worst_rate > tangential:
            raise DegenerateStartError(
                f"direction exits through active facet (rate {worst_rate:.3e})"
            )
        for i in active:  # an active facet is never the next one crossed
            rates[i] = 0.0
    k = -1
    for i, (s, r) in enumerate(zip(slack.tolist(), rates)):
        if r > tangential:
            t = -s / r
            if k < 0 or t < dt:
                k, dt = i, t
    if k < 0:
        raise NoProgressError("no constraint is approached; table corrupt?")
    dt = max(dt, 0.0)
    if not math.isfinite(dt) or dt <= TOL.step:
        raise NoProgressError(f"forward crossing at dt={dt:.3e} is too small")
    hit = p + dt * d
    hit_slack = normals.dot(hit) - offsets
    hit_here = classify_slack(hit_slack, hit, TOL.eps)
    # the minimizing facet must be tight; recover it directly
    return hit, dt, hit_here[1] or (k,), d, hit_slack, hit_here


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
) -> tuple[float, int, float, _Classification]:
    """The checks at the start of a run, shared by both loops.

    Refuses a bad horizon, a state of another dimension, ``FOLD_GROUP`` on a
    non-alcove, and a start outside or leaving the table. Returns
    ``(horizon, budget, eps_time, here)``, with ``here`` the classification
    of the start point.
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
    return horizon, budget, eps_time, (loc.location, loc.active, loc.worst_violation)


def simulate(
    polytope: Polytope,
    state: TrajectoryState,
    horizon: float,
    policy: CornerPolicy = CornerPolicy.POINT_REFLECT,
) -> Trajectory:
    """Run the billiard flow for total arclength ``horizon``. A run that
    needs more than :func:`default_bounce_budget` bounces raises
    ``BounceBudgetExceededError``."""
    horizon, budget, eps_time, here = _begin(polytope, state, horizon, policy)
    p = state.point.copy()
    d = state.direction.copy()
    slack = None
    t = 0.0
    hits: list[tuple] = []
    while horizon - t > eps_time:
        hit, dt, active, d_unit, hit_slack, hit_here = _advance(
            polytope, p, d, slack, here
        )
        if dt > (horizon - t) + eps_time:
            p = p + (horizon - t) * d
            t = horizon
            break
        t = t + dt
        outgoing, kind, _ = _resolve(polytope, hit, d_unit, active, policy)
        hits.append((t, hit, d, outgoing, active, kind))
        if len(hits) > budget:
            raise BounceBudgetExceededError(
                f"exceeded bounce budget {budget} before horizon {horizon}"
            )
        p, d, slack, here = hit, outgoing, hit_slack, hit_here
    end = TrajectoryState(p, d, horizon)
    return _trajectory(state, hits, end, policy)


def _mirror(n: np.ndarray, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Affine reflection ``x -> Hx + b`` across the hyperplane
    ``<n, x> = offset``."""
    h = np.eye(n.shape[0]) - 2.0 * np.outer(n, n)
    b = 2.0 * offset * n
    return h, b


def simulate_unfolded(
    polytope: Polytope,
    state: TrajectoryState,
    horizon: float,
    policy: CornerPolicy = CornerPolicy.POINT_REFLECT,
) -> Trajectory:
    """Same flow as :func:`simulate`, positions built by unfolding.

    The trajectory is the image of the single straight line
    ``x0 + t * d0`` under an isometry updated at each bounce (the mirror of
    the facet hit, the point reflection at a corner, or the fold word). Event
    positions are evaluated through the accumulated isometry, so rounding
    flows through a genuinely different computation than the segment-chaining
    integrator.
    """
    horizon, budget, eps_time, _ = _begin(polytope, state, horizon, policy)
    x0 = state.point.copy()
    d0 = state.direction.copy()
    q = np.eye(polytope.dim)
    shift = np.zeros(polytope.dim)
    mirrors = [
        _mirror(n, c) for n, c in zip(polytope.normals, polytope.offsets.tolist())
    ]
    t = 0.0
    line = x0 + t * d0  # the straight line at time t, before any isometry
    hits: list[tuple] = []
    while horizon - t > eps_time:
        p = q @ line + shift
        d = q @ d0
        # the slack and the classification come from this isometry-built
        # position, never from a point of the folded run, so the two paths
        # stay independent
        hit, dt, active, d_unit, _, _ = _advance(polytope, p, d)
        if dt > (horizon - t) + eps_time:
            t = horizon
            break
        t = t + dt
        line = x0 + t * d0
        outgoing, kind, word = _resolve(polytope, hit, d_unit, active, policy)
        table_hit = q @ line + shift
        hits.append((t, table_hit, d, outgoing, active, kind))
        if len(hits) > budget:
            raise BounceBudgetExceededError(
                f"exceeded bounce budget {budget} before horizon {horizon}"
            )
        if kind is BounceKind.FACET or word:
            for idx in word:
                h, b = mirrors[idx]
                q = h @ q
                shift = h @ shift + b
        else:
            # point reflection about the corner
            q = -q
            shift = 2.0 * table_hit - shift
    end_point = q @ (x0 + horizon * d0) + shift
    end_dir = q @ d0
    end = TrajectoryState(end_point, end_dir, horizon)
    return _trajectory(state, hits, end, policy)
