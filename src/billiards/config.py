"""Numerical tolerances used throughout the package.

Every incidence test (is a point on a face, are two points one vertex, is
an angle pi/m) reads one epsilon, ``TOL.eps``, so that "on the boundary"
means the same thing everywhere; a test on lengths multiplies it by the
table's one length, :func:`billiards.geometry.length_scale`. So a polytope
has one activity band, ``TOL.eps * polytope.scale``, wherever a point lies
on it. ``TOL`` is the one source of every tolerance: the environment
variable ``BILLIARDS_EPS``, read once at import time, sets ``TOL.eps`` for
the whole process (a bad value is refused on each read of ``TOL.eps``, not
at import, so that the CLI, which imports this module before its ``main``
runs, can refuse it in one line). No function takes an ``eps=`` option; the
four predicates that take a tolerance argument (``classify_slack``,
``cone_membership``, ``affine_rank``, ``affine_ranks``) are handed
``TOL.eps`` by their callers, times a length or a norm where they compare
lengths.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import InputError


def _env_eps() -> float:
    """``BILLIARDS_EPS``, or 1e-9 where it is unset; a value that is not a
    float in (0, 1e-2) is refused."""
    raw = os.environ.get("BILLIARDS_EPS")
    if raw is None:
        return 1e-9
    try:
        value = float(raw)
    except ValueError as exc:
        raise InputError(f"BILLIARDS_EPS is not a float: {raw!r}") from exc
    if not 0.0 < value < 1e-2:
        raise InputError(f"BILLIARDS_EPS out of range (0, 1e-2): {value}")
    return value


@dataclass(frozen=True)
class Tolerances:
    """Bundle of epsilons. ``eps`` follows ``BILLIARDS_EPS``; the rest are
    fixed scale guards."""

    eps: float = field(default_factory=_env_eps)  # incidence: faces, vertices, pi/m
    step: float = 1e-12        # minimal forward progress along a ray
    tangential: float = 1e-10  # |<dir, normal>| below this counts as sliding
    gap: float = 1e-7          # corner-continuity gap threshold
    m_max: int = 64            # largest m considered when binning to pi/m


class _Refused(Tolerances):
    """``TOL`` under a bad ``BILLIARDS_EPS``: each read of ``eps`` raises its
    refusal, and the fixed guards keep their defaults."""

    eps = property(lambda self: _env_eps())


try:
    TOL = Tolerances()
except InputError:
    TOL = object.__new__(_Refused)
