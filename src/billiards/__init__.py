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
"""

from .config import TOL, Tolerances
from .errors import (
    BilliardsError,
    BounceBudgetExceededError,
    BudgetExceededError,
    CornerAmbiguousError,
    DegenerateStartError,
    DimensionMismatchError,
    InputError,
    NoProgressError,
    NotAcuteError,
    NotAnAlcoveError,
    OpenSurfaceError,
    OutsideTableError,
    RedundantHalfspaceError,
    UnboundedRegionError,
    VertexHitError,
    WordBudgetExceededError,
)
from .geometry import (
    Containment,
    Location,
    Polytope,
    cone_membership,
    fold_direction_into_cone,
    is_polar,
    nearest_pi_over_m,
    reflect,
    unit,
)
from .dynamics import (
    BounceEvent,
    BounceKind,
    CornerPolicy,
    Trajectory,
    TrajectoryState,
    advance_to_boundary,
    reflect_at,
    simulate,
    simulate_unfolded,
)
from .alcove import (
    AlcoveVerdict,
    CoxeterDiagram,
    check_alcove,
    classify,
    dihedral_angles,
    fold_point,
    folded_flow,
    standard_alcove,
    standard_alcove_labels,
)
from .corner import WedgeLimit, WedgeShot, limit_reflection, unfold_wedge
from .surface import (
    OrbifoldVerdict,
    SurfaceGeodesic,
    SurfaceMesh,
    TriangulationReport,
    VertexReport,
    cone_angles,
    convex_hull_mesh,
    disk_inequality,
    gauss_bonnet_total,
    is_disphenoid,
    is_orbifold_boundary,
    make_disphenoid,
    tetrahedron_mesh,
    trace_surface_geodesic,
    triangulate_check,
)
from .smooth import (
    Circle,
    Ellipse,
    PerturbedCircle,
    SmoothTable,
    base_angle_run,
    boundary_convergence_experiment,
    smooth_bounce,
    verify_base_angle_laws,
)
from .io import load_table, save_table

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "Tolerances",
    # errors
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
    # geometry
    "Containment",
    "Location",
    "Polytope",
    "cone_membership",
    "fold_direction_into_cone",
    "is_polar",
    "nearest_pi_over_m",
    "reflect",
    "unit",
    # dynamics
    "BounceEvent",
    "BounceKind",
    "CornerPolicy",
    "Trajectory",
    "TrajectoryState",
    "advance_to_boundary",
    "reflect_at",
    "simulate",
    "simulate_unfolded",
    # alcoves
    "AlcoveVerdict",
    "CoxeterDiagram",
    "check_alcove",
    "classify",
    "dihedral_angles",
    "fold_point",
    "folded_flow",
    "standard_alcove",
    "standard_alcove_labels",
    # corners
    "WedgeLimit",
    "WedgeShot",
    "limit_reflection",
    "unfold_wedge",
    # surfaces
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
    # smooth tables
    "Circle",
    "Ellipse",
    "PerturbedCircle",
    "SmoothTable",
    "base_angle_run",
    "boundary_convergence_experiment",
    "smooth_bounce",
    "verify_base_angle_laws",
    # files
    "load_table",
    "save_table",
    "__version__",
]
