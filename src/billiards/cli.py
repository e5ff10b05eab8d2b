"""Command-line interface.

Five subcommands over JSON table files (or bundled table names)::

    billiards simulate TABLE START DIR HORIZON [--policy P] [--unfold]
                       [--csv F] [--svg F] [--out F]
    billiards check-alcove TABLE [--out F]
    billiards corner ALPHA [--offset D] [--svg F] [--out F]
    billiards corner --sweep LO HI N [--csv F] [--out F]
    billiards surface TABLE (--report | --geodesic FACE START DIR HORIZON
                       | --disphenoid) [--csv F] [--out F]
    billiards smooth TABLE (--laws | --converge) [--alphas LIST] [--out F]

Every command prints a JSON report envelope on stdout (and mirrors it to
``--out`` when given); the envelope validates against the published report
schema, floats are printed with 17 significant digits, and identical
invocations produce byte-identical output.  Vectors on the command line are
comma-separated, e.g. ``0.25,0``.

Exit codes: 0 success; 2 invalid input (bad table file, bad arguments, SVG
requested for a non-2D table); 3 ambiguous corner or irregular incidence
under a policy that refuses to choose; 4 the run could not finish (a
bounce/word/iteration budget exhausted, or no forward progress).

The environment variable ``BILLIARDS_EPS`` is the one tolerance setting: it
sets the geometric tolerance (default 1e-9) for the whole process.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import TOL
from .corner import _checked_opening, _closed_form, limit_reflection, unfold_wedge
from .errors import (
    BudgetExceededError,
    CornerAmbiguousError,
    DegenerateStartError,
    InputError,
    NoProgressError,
    NotAnAlcoveError,
    VertexHitError,
)
from .io import (
    dumps_json,
    load_table,
    trajectory_header,
    trajectory_rows,
    validate_report_data,
    write_csv,
)

if TYPE_CHECKING:
    from .surface import SurfaceMesh

# Each handler imports the modules it runs when it runs, so a cold process
# compiles only what its subcommand needs (and svg only for --svg). corner
# is small and stays imported here: perfbench's tracer looks it up in
# sys.modules right after importing billiards.cli.

__all__ = ["main", "build_parser"]


# -- small parsing helpers ---------------------------------------------------

def _parse_vector(text: str) -> tuple[float, ...]:
    cleaned = text.strip().strip("()[]")
    parts = [p.strip() for p in cleaned.split(",") if p.strip()]
    if not parts:
        raise InputError(f"empty vector argument {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise InputError(f"cannot parse vector argument {text!r}") from None


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputError(f"cannot parse {what} {text!r} as a number") from None


def _vec_list(v) -> list[float]:
    return [float(x) for x in np.asarray(v, dtype=float)]


def _load(name: str, kind: type, what: str):
    """The table ``name`` names, refused unless it is a ``kind``."""
    table = load_table(name)
    if not isinstance(table, kind):
        raise InputError(f"{name!r} is not a {what} (got {type(table).__name__})")
    return table


def _load_mesh(name: str) -> SurfaceMesh:
    from .geometry import Polytope
    from .surface import SurfaceMesh

    table = load_table(name)
    if isinstance(table, SurfaceMesh):
        return table
    if isinstance(table, Polytope) and table.dim == 3:
        return SurfaceMesh.from_polytope(table)
    raise InputError(
        f"{name!r} is not a surface mesh (or 3D polytope); got "
        f"{type(table).__name__}"
    )


def _envelope(command: str, table: str | None, parameters: dict, result: dict,
              artifacts: dict | None = None) -> dict:
    report: dict = {"command": command, "status": "ok"}
    if table is not None:
        report["table"] = table
    report["parameters"] = parameters
    report["result"] = result
    if artifacts:
        report["artifacts"] = artifacts
    return report


# -- simulate ----------------------------------------------------------------

def _cmd_simulate(args) -> dict:
    from .dynamics import CornerPolicy, TrajectoryState, simulate, simulate_unfolded
    from .geometry import Polytope

    table = _load(args.table, Polytope, "polytope table")
    start = _parse_vector(args.start)
    direction = _parse_vector(args.direction)
    horizon = _parse_float(args.horizon, "horizon")
    policy = CornerPolicy.parse(args.policy)
    state = TrajectoryState(start, direction)
    runner = simulate_unfolded if args.unfold else simulate
    trajectory = runner(table, state, horizon, policy)

    artifacts = {}
    if args.csv:
        write_csv(args.csv, trajectory_header(table.dim),
                  trajectory_rows(trajectory))
        artifacts["csv"] = args.csv
    if args.svg:
        if table.dim != 2:
            raise InputError("SVG output is only available for 2D tables")
        from .svg import trajectory_svg

        Path(args.svg).write_text(trajectory_svg(table, trajectory))
        artifacts["svg"] = args.svg

    events = [
        {
            "time": t,
            "point": point,
            "incoming": incoming,
            "outgoing": outgoing,
            "active": list(active),
            "kind": kind.value,
        }
        for t, point, incoming, outgoing, active, kind in zip(
            trajectory.times[1:-1].tolist(),
            trajectory.points[1:-1].tolist(),
            trajectory.incoming.tolist(),
            trajectory.directions[1:].tolist(),
            trajectory.active,
            trajectory.kinds,
        )
    ]
    result = {
        "dim": table.dim,
        "n_bounces": trajectory.n_bounces,
        "start": {"point": _vec_list(state.point),
                  "direction": _vec_list(state.direction)},
        "end": {"point": _vec_list(trajectory.end.point),
                "direction": _vec_list(trajectory.end.direction),
                "time": trajectory.horizon},
        "events": events,
    }
    parameters = {
        "start": _vec_list(start),
        "direction": _vec_list(np.asarray(state.direction)),
        "horizon": horizon,
        "policy": policy.value,
        "unfold": bool(args.unfold),
    }
    return _envelope("simulate", args.table, parameters, result, artifacts)


# -- check-alcove ------------------------------------------------------------

def _cmd_check_alcove(args) -> dict:
    from .alcove import check_alcove
    from .geometry import Polytope

    table = _load(args.table, Polytope, "polytope table")
    verdict = check_alcove(table)
    diagram = None
    if verdict.diagram is not None:
        edges = [
            [i, j, m]
            for (i, j), m in sorted(verdict.diagram.edges.items())
        ]
        diagram = {"n_nodes": verdict.diagram.n_nodes, "edges": edges}
    types = [c.label or "unrecognized" for c in verdict.components]
    failures = [
        {
            "facets": list(f.facets),
            "angle": f.angle,
            "nearest_m": f.nearest_m,
            "nearest_angle": f.nearest_angle,
            "error": f.error,
        }
        for f in verdict.failures
    ]
    result = {
        "is_alcove": verdict.is_alcove,
        "label": verdict.label,
        "types": sorted(types),
        "diagram": diagram,
        "failures": failures,
    }
    return _envelope("check-alcove", args.table, {}, result)


# -- corner ------------------------------------------------------------------

# the most openings one sweep samples
_MAX_SWEEP = 1_000_000


def _corner_single(args) -> dict:
    alpha = _parse_float(args.alpha, "opening angle")
    limit = limit_reflection(alpha)
    offset = args.offset
    shot_above = unfold_wedge(alpha, +offset)
    shot_below = unfold_wedge(alpha, -offset)

    artifacts = {}
    if args.svg:
        from .svg import wedge_fan_svg

        Path(args.svg).write_text(wedge_fan_svg(limit, shot_above))
        artifacts["svg"] = args.svg

    def shot_payload(shot):
        return {
            "offset": shot.offset,
            "bounce_count": shot.bounce_count,
            "outgoing_angle": shot.outgoing_angle,
        }

    result = {
        "alpha": limit.alpha,
        "m": limit.m,
        "beta": limit.beta,
        "gap": limit.gap,
        "continuous": limit.continuous,
        "outgoing_above": limit.outgoing_above,
        "outgoing_below": limit.outgoing_below,
        "bounce_count": limit.bounce_count,
        "shots": {
            "above": shot_payload(shot_above),
            "below": shot_payload(shot_below),
        },
    }
    parameters = {"alpha": alpha, "offset": offset}
    return _envelope("corner", None, parameters, result, artifacts)


def _corner_sweep(args) -> dict:
    lo = _parse_float(args.sweep[0], "sweep lower bound")
    hi = _parse_float(args.sweep[1], "sweep upper bound")
    try:
        n = int(args.sweep[2])
    except ValueError:
        raise InputError(
            f"sweep count {args.sweep[2]!r} is not an integer"
        ) from None
    if n < 2 or not (0.0 < lo < hi < math.pi):
        raise InputError(
            "sweep needs 0 < LO < HI < pi and at least two samples"
        )
    if n > _MAX_SWEEP:
        raise InputError(f"sweep count {n} is above the limit of {_MAX_SWEEP}")
    # the closed form's scalars, without a WedgeLimit (and its two direction
    # arrays) per opening
    gaps = []
    rows = []
    for a in np.linspace(lo, hi, n).tolist():
        alpha = _checked_opening(a)
        m, beta, gap, _, _ = _closed_form(alpha)
        gaps.append(gap)
        if args.csv:
            rows.append([alpha, m, beta, gap, gap <= TOL.gap])

    artifacts = {}
    if args.csv:
        write_csv(args.csv, ["alpha", "m", "beta", "gap", "continuous"], rows)
        artifacts["csv"] = args.csv

    n_continuous = sum(1 for gap in gaps if gap <= TOL.gap)
    gaps = np.array(gaps)
    result = {
        "lo": lo,
        "hi": hi,
        "n": n,
        "n_continuous": n_continuous,
        "min_gap": float(gaps.min()),
        "max_gap": float(gaps.max()),
        "mean_gap": float(gaps.mean()),
    }
    parameters = {"sweep": [lo, hi, n]}
    return _envelope("corner", None, parameters, result, artifacts)


def _cmd_corner(args) -> dict:
    if (args.alpha is None) == (args.sweep is None):
        raise InputError("corner needs exactly one of ALPHA or --sweep LO HI N")
    if args.sweep is not None:
        return _corner_sweep(args)
    return _corner_single(args)


# -- surface -----------------------------------------------------------------

def _surface_report(mesh: SurfaceMesh) -> dict:
    from .surface import (
        cone_angles,
        gauss_bonnet_total,
        is_orbifold_boundary,
        triangulate_check,
    )

    reports = cone_angles(mesh)
    total = gauss_bonnet_total(mesh)
    orbifold = is_orbifold_boundary(mesh)
    tri = triangulate_check(mesh)
    return {
        "n_vertices": len(mesh.vertices),
        "n_edges": len(mesh.edges),
        "n_faces": len(mesh.faces),
        "vertices": [
            {
                "index": r.index,
                "cone_angle": r.cone_angle,
                "curvature": r.curvature,
                "orbifold_order": r.orbifold_order,
            }
            for r in reports
        ],
        "total_curvature": total,
        "gauss_bonnet_error": total - 4.0 * math.pi,
        "orbifold": {
            "is_orbifold": orbifold.is_orbifold,
            "orders": list(orbifold.orders) if orbifold.orders else None,
            "failing_vertices": list(orbifold.failing_vertices),
            "diophantine_ok": orbifold.diophantine_ok,
        },
        "triangulation": {
            "n_vertices": tri.n_vertices,
            "n_edges": tri.n_edges,
            "n_triangles": tri.n_triangles,
            "euler_ok": tri.euler_ok,
            "f_equals_v": tri.f_equals_v,
            "trivalent": tri.trivalent,
            "vertex_disk_ok": tri.vertex_disk_ok,
            "degrees": list(tri.degrees),
        },
    }


def _surface_geodesic(mesh: SurfaceMesh, args) -> tuple[dict, dict]:
    from .surface import trace_surface_geodesic

    face = int(_parse_float(args.geodesic[0], "face index"))
    point = _parse_vector(args.geodesic[1])
    direction = _parse_vector(args.geodesic[2])
    horizon = _parse_float(args.geodesic[3], "horizon")
    geo = trace_surface_geodesic(mesh, face, point, direction, horizon)

    artifacts = {}
    if args.csv:
        rows: list[list] = [[0.0, *_vec_list(geo.start_point), "start"]]
        hits = [
            (c.time, c.point, f"edge {c.edge[0]}-{c.edge[1]}")
            for c in geo.crossings
        ] + [
            (p.time, p.point, f"vertex {p.vertex}")
            for p in geo.vertex_passages
        ]
        for t, p, label in sorted(hits, key=lambda h: h[0]):
            rows.append([t, *_vec_list(p), label])
        rows.append([geo.horizon, *_vec_list(geo.end_point), "end"])
        write_csv(args.csv, trajectory_header(3), rows)
        artifacts["csv"] = args.csv

    result = {
        "start_face": geo.start_face,
        "start_point": _vec_list(geo.start_point),
        "start_direction": _vec_list(geo.start_direction),
        "horizon": geo.horizon,
        "n_crossings": geo.n_crossings,
        "n_vertex_passages": len(geo.vertex_passages),
        "end_face": geo.end_face,
        "end_point": _vec_list(geo.end_point),
        "end_direction": _vec_list(geo.end_direction),
        "straightness_residual": geo.max_collinearity_residual(),
    }
    return result, artifacts


def _surface_disphenoid(mesh: SurfaceMesh) -> dict:
    from .surface import cone_angles, is_disphenoid

    if len(mesh.vertices) != 4:
        raise InputError(
            "the disphenoid check needs a tetrahedron mesh (4 vertices), "
            f"got {len(mesh.vertices)}"
        )
    check = is_disphenoid(mesh.vertices)
    angles = [r.cone_angle for r in cone_angles(mesh)]
    return {
        "is_disphenoid": check.is_disphenoid,
        "opposite_pairs": [
            {"edges": [list(e) for e in pair], "lengths": list(lengths)}
            for pair, lengths in zip(check.opposite_pairs, check.lengths)
        ],
        "max_length_mismatch": check.max_mismatch,
        "cone_angles": angles,
        "all_cone_angles_pi": bool(
            max(abs(a - math.pi) for a in angles) <= TOL.eps
        ),
    }


def _cmd_surface(args) -> dict:
    mesh = _load_mesh(args.table)
    artifacts: dict = {}
    if args.report:
        mode = "report"
        result = _surface_report(mesh)
        parameters: dict = {"mode": mode}
    elif args.geodesic is not None:
        mode = "geodesic"
        result, artifacts = _surface_geodesic(mesh, args)
        parameters = {
            "mode": mode,
            "face": result["start_face"],
            "horizon": result["horizon"],
        }
    else:
        mode = "disphenoid"
        result = _surface_disphenoid(mesh)
        parameters = {"mode": mode}
    return _envelope("surface", args.table, parameters, result, artifacts)


# -- smooth ------------------------------------------------------------------

def _parse_alphas(text: str | None) -> tuple[float, ...]:
    if text is None:
        from .smooth import LAUNCH_ANGLES

        return LAUNCH_ANGLES
    alphas = _parse_vector(text)
    if any(a <= 0 or a >= 0.5 * math.pi for a in alphas):
        raise InputError("launch angles must lie in (0, pi/2)")
    return alphas


def _cmd_smooth(args) -> dict:
    from .smooth import (
        SmoothTable,
        boundary_convergence_experiment,
        verify_base_angle_laws,
    )

    table = _load(args.table, SmoothTable, "smooth 2D table")
    alphas = _parse_alphas(args.alphas)
    if args.laws:
        report = verify_base_angle_laws(table, alphas)
        result = {
            "mode": "laws",
            "table_kind": report.table_name,
            "alphas": list(report.alphas),
            "max_increments": list(report.max_increments),
            "increment_slope": report.increment_slope,
            "min_chord_ratio": list(report.min_chord_ratio),
            "chord_constant": report.chord_constant,
            "max_deviations": list(report.max_deviations),
            "deviation_slope": report.deviation_slope,
            "angle_spread": list(report.angle_spread),
            "notes": (
                "deviation is the sup distance from the trajectory to the "
                "boundary as a set; sharpness of the exponents for tables of "
                "lower regularity is out of scope"
            ),
        }
        parameters = {"mode": "laws", "alphas": list(alphas)}
    else:
        report = boundary_convergence_experiment(table, alphas)
        rows = []
        for i, a in enumerate(report.alphas):
            row = {"alpha": float(a),
                   "max_deviation": float(report.max_deviations[i])}
            if report.circle_predictions is not None:
                row["prediction"] = float(report.circle_predictions[i])
            rows.append(row)
        result = {
            "mode": "converge",
            "table_kind": report.table_name,
            "rows": rows,
            "deviation_slope": report.deviation_slope,
            "max_prediction_error": report.max_prediction_error,
            "monotone_decreasing": bool(
                all(
                    report.max_deviations[i + 1] < report.max_deviations[i]
                    for i in range(len(report.max_deviations) - 1)
                )
            ),
        }
        parameters = {"mode": "converge", "alphas": list(alphas)}
    return _envelope("smooth", args.table, parameters, result)


# -- parser / dispatch -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiards",
        description=(
            "Billiards on convex polytopes, polyhedral surfaces, and smooth "
            "ovals: simulation, alcove recognition, corner limits, surface "
            "geometry, and small-angle chord laws."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand")

    p_sim = sub.add_parser(
        "simulate", help="run the billiard flow on a polytope table"
    )
    p_sim.add_argument("table", help="table file or bundled table name")
    p_sim.add_argument("start", help="start point, e.g. 0.25,0")
    p_sim.add_argument("direction", help="initial direction, e.g. 0,1")
    p_sim.add_argument("horizon", help="total arclength to run")
    p_sim.add_argument(
        "--policy",
        default="point-reflect",
        help="corner rule: strict, pointreflect, or foldgroup (foldgroup "
        "needs an alcove table)",
    )
    p_sim.add_argument(
        "--unfold",
        action="store_true",
        help="compute positions through the unfolding isometry",
    )
    p_sim.add_argument("--csv", help="write bounce rows t,x1..xn,event here")
    p_sim.add_argument("--svg", help="write a 2D picture here")
    p_sim.add_argument("--out", help="also write the JSON report here")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_alc = sub.add_parser(
        "check-alcove", help="decide the alcove property and name the type"
    )
    p_alc.add_argument("table", help="polytope table file or bundled name")
    p_alc.add_argument("--out", help="also write the JSON report here")
    p_alc.set_defaults(handler=_cmd_check_alcove)

    p_cor = sub.add_parser(
        "corner", help="one-sided limits of the wedge reflection map"
    )
    p_cor.add_argument(
        "alpha", nargs="?", default=None, help="wedge opening angle in radians"
    )
    p_cor.add_argument(
        "--sweep",
        nargs=3,
        metavar=("LO", "HI", "N"),
        default=None,
        help="evaluate the limits on a grid of openings",
    )
    p_cor.add_argument(
        "--offset",
        type=float,
        default=1e-3,
        help="bisector offset of the validation shots (single-angle mode)",
    )
    p_cor.add_argument("--csv", help="write alpha,m,beta,gap,continuous here")
    p_cor.add_argument("--svg", help="write the unfolded fan picture here")
    p_cor.add_argument("--out", help="also write the JSON report here")
    p_cor.set_defaults(handler=_cmd_corner)

    p_sur = sub.add_parser(
        "surface", help="cone angles, curvature, and geodesics on a mesh"
    )
    p_sur.add_argument("table", help="surface mesh file or bundled name")
    mode = p_sur.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--report",
        action="store_true",
        help="cone angles, curvature total, orbifold and triangulation checks",
    )
    mode.add_argument(
        "--geodesic",
        nargs=4,
        metavar=("FACE", "START", "DIR", "HORIZON"),
        help="trace a surface geodesic from a point on a face",
    )
    mode.add_argument(
        "--disphenoid",
        action="store_true",
        help="decide the equal-opposite-edges property of a tetrahedron",
    )
    p_sur.add_argument("--csv", help="write geodesic rows t,x1,x2,x3,event here")
    p_sur.add_argument("--out", help="also write the JSON report here")
    p_sur.set_defaults(handler=_cmd_surface)

    p_smo = sub.add_parser(
        "smooth", help="small-angle chord laws on a smooth convex table"
    )
    p_smo.add_argument(
        "table",
        help="smooth table file or builtin name: circle, ellipse, perturbed",
    )
    mode = p_smo.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--laws",
        action="store_true",
        help="fit the chord, increment, and boundary-layer laws",
    )
    mode.add_argument(
        "--converge",
        action="store_true",
        help="tabulate boundary deviation as the launch angle shrinks",
    )
    p_smo.add_argument(
        "--alphas", help="comma-separated launch angles, e.g. 0.04,0.02,0.01"
    )
    p_smo.add_argument("--out", help="also write the JSON report here")
    p_smo.set_defaults(handler=_cmd_smooth)

    _accept_negative_vectors(parser)
    return parser


def _accept_negative_vectors(parser: argparse.ArgumentParser) -> None:
    """Let positionals like ``-4.7,0.1,1.6`` parse as values, not options.

    argparse only treats a leading-dash token as a value when it looks like
    a bare negative number; comma-separated vectors fail that check and get
    rejected as unknown options.  Widen the matcher on every (sub)parser.
    """
    pattern = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d[\d.,eE+-]*$|^-\.\d[\d.,eE+-]*$")
    stack = [parser]
    while stack:
        current = stack.pop()
        try:
            current._negative_number_matcher = pattern
        except AttributeError:  # pragma: no cover - future argparse internals
            return
        for action in current._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        return 2
    try:
        report = args.handler(args)
    except (InputError, DegenerateStartError, NotAnAlcoveError) as exc:
        print(f"billiards: error: {exc}", file=sys.stderr)
        return 2
    except (CornerAmbiguousError, VertexHitError) as exc:
        print(f"billiards: ambiguous incidence: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"billiards: budget exhausted: {exc}", file=sys.stderr)
        return 4
    except NoProgressError as exc:
        print(f"billiards: no progress: {exc}", file=sys.stderr)
        return 4
    validate_report_data(report)
    text = dumps_json(report)
    sys.stdout.write(text)
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
