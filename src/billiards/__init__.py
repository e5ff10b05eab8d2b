"""Billiards on convex polytopes, polyhedral surfaces, and smooth ovals.

The package decides the reflection law at corners through the polar-pair
criterion, recognizes which polytopes are affine Weyl alcoves (and names
their Coxeter diagram types), evaluates the one-sided limits of the corner
reflection map in planar wedges, measures cone angles and geodesics on
closed polyhedral surfaces, and verifies the small-angle laws of chord
sequences on smooth strictly convex tables.

Quick start::

    from billiards import Polytope, TrajectoryState, simulate, check_alcove

    table = Polytope.box((0.0, 0.0), (1.0, 1.0))
    run = simulate(table, TrajectoryState((0.25, 0.5), (1.0, 0.3)), horizon=10.0)
    verdict = check_alcove(table)       # A1~ x A1~

The ``billiards`` command-line tool exposes the same operations on JSON
table files; see :mod:`billiards.cli`.

``import billiards`` loads only :mod:`~billiards.config` and
:mod:`~billiards.errors` (neither needs numpy), so ``BILLIARDS_EPS`` is read
at import; a bad value is refused on each read of ``TOL.eps``. Every other
name, and every submodule named as an attribute (``billiards.io``), is
imported on first access (PEP 562).
"""

import importlib

from . import config, errors

__version__ = "0.1.0"

# the names each submodule exports, in the order of ``__all__``
_EXPORTS = {
    "config": ("TOL", "Tolerances"),
    "errors": (
        "BilliardsError",
        "BounceBudgetExceededError",
        "BudgetExceededError",
        "CornerAmbiguousError",
        "DegenerateStartError",
        "DimensionMismatchError",
        "InputError",
        "NoProgressError",
        "NotAcuteError",
        "NotAnAlcoveError",
        "OpenSurfaceError",
        "OutsideTableError",
        "RedundantHalfspaceError",
        "UnboundedRegionError",
        "VertexHitError",
        "WordBudgetExceededError",
    ),
    "geometry": (
        "Containment",
        "Location",
        "Polytope",
        "cone_membership",
        "is_polar",
        "nearest_pi_over_m",
        "reflect",
        "unit",
    ),
    "dynamics": (
        "BounceEvent",
        "BounceKind",
        "CornerPolicy",
        "Trajectory",
        "TrajectoryState",
        "advance_to_boundary",
        "reflect_at",
        "simulate",
        "simulate_unfolded",
    ),
    "alcove": (
        "AlcoveVerdict",
        "CoxeterDiagram",
        "check_alcove",
        "classify",
        "dihedral_angles",
        "fold_point",
        "folded_flow",
        "standard_alcove",
        "standard_alcove_labels",
    ),
    "corner": ("WedgeLimit", "WedgeShot", "limit_reflection", "unfold_wedge"),
    "surface": (
        "OrbifoldVerdict",
        "SurfaceGeodesic",
        "SurfaceMesh",
        "TriangulationReport",
        "VertexReport",
        "cone_angles",
        "convex_hull_mesh",
        "disk_inequality",
        "gauss_bonnet_total",
        "is_disphenoid",
        "is_orbifold_boundary",
        "make_disphenoid",
        "tetrahedron_mesh",
        "trace_surface_geodesic",
        "triangulate_check",
    ),
    "smooth": (
        "Circle",
        "Ellipse",
        "PerturbedCircle",
        "SmoothTable",
        "base_angle_run",
        "boundary_convergence_experiment",
        "smooth_bounce",
        "verify_base_angle_laws",
    ),
    "io": ("load_table", "save_table"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "svg", "tables"})

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    """Import the submodule that owns ``name`` (or is ``name``) on first
    access; an exported value is then kept in the package's globals, so
    later lookups do not come back here."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
