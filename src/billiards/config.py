"""Numerical tolerances used throughout the package.

All geometric predicates (activity of a constraint, polarity of a direction
pair, angle binning) share one epsilon so that "on the boundary" means the
same thing everywhere. ``TOL`` is the one source of every tolerance: the
environment variable ``BILLIARDS_EPS``, read once at import time, sets that
shared epsilon for the whole process, and no function takes a tolerance
argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


def _env_eps(default: float = 1e-9) -> float:
    raw = os.environ.get("BILLIARDS_EPS")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"BILLIARDS_EPS is not a float: {raw!r}") from exc
    if not 0.0 < value < 1e-2:
        raise ValueError(f"BILLIARDS_EPS out of range (0, 1e-2): {value}")
    return value


@dataclass(frozen=True)
class Tolerances:
    """Bundle of epsilons. ``active``/``polar``/``angle`` share the global
    default; the rest are fixed scale guards."""

    active: float = field(default_factory=_env_eps)   # constraint tightness
    polar: float = field(default_factory=_env_eps)    # cone-membership residual
    angle: float = field(default_factory=_env_eps)    # dihedral angle binning
    step: float = 1e-12        # minimal forward progress along a ray
    tangential: float = 1e-10  # |<dir, normal>| below this counts as sliding
    gap: float = 1e-7          # corner-continuity gap threshold
    vertex_hit: float = 1e-9   # cone-angle window for vertex passage
    m_max: int = 64            # largest m considered when binning to pi/m


TOL = Tolerances()
