"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package at its stated
tolerance and time budget, and prints exactly one summary line

    ACCEPTANCE nn <name>: PASS|FAIL (<details>; <elapsed>)

so a plain ``pytest -v`` run shows the whole scoreboard.
"""

import json
import math
import time

import numpy as np

from billiards.alcove import check_alcove, fold_point, folded_flow, standard_alcove
from billiards.cli import main as cli_main
from billiards.corner import limit_reflection
from billiards.dynamics import (
    CornerPolicy,
    TrajectoryState,
    simulate,
    simulate_unfolded,
)
from billiards.errors import CornerAmbiguousError, VertexHitError
from billiards.geometry import Polytope, is_polar, reflect
from billiards.io import validate_report_data
from billiards.smooth import (
    Circle,
    Ellipse,
    PerturbedCircle,
    base_angle_run,
    boundary_convergence_experiment,
    verify_base_angle_laws,
)
from billiards.surface import (
    SurfaceMesh,
    cone_angles,
    gauss_bonnet_total,
    is_disphenoid,
    is_orbifold_boundary,
    make_disphenoid,
    tetrahedron_mesh,
    trace_surface_geodesic,
    triangulate_check,
)
from billiards.tables import build, BUILDERS
from conftest import (
    random_acute_triple,
    random_convex_polygon,
    random_interior_state,
    random_polytope_3d,
    random_tetrahedron_vertices,
    random_triangle,
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _angdist(a, b):
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _gate(capsys, number, name, budget, body):
    start = time.perf_counter()
    try:
        ok, detail = body()
    except Exception as exc:  # still emit the scoreboard line, then re-raise
        with capsys.disabled():
            print(
                f"ACCEPTANCE {number:02d} {name}: FAIL "
                f"({type(exc).__name__}: {exc})"
            )
        raise
    elapsed = time.perf_counter() - start
    in_budget = elapsed <= budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    with capsys.disabled():
        print(
            f"ACCEPTANCE {number:02d} {name}: {verdict} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s)"
        )
    assert ok, f"{name}: {detail}"
    assert in_budget, f"{name}: took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_alcove_recognition(capsys):
    def body():
        rng = np.random.default_rng(101)
        accepted_random = 0
        for _ in range(10_000):
            if check_alcove(random_triangle(rng)).is_alcove:
                accepted_random += 1
        expected = {
            "rectangle": "A1~ x A1~",
            "triangle_A2": "A2~",
            "triangle_C2": "C2~",
            "triangle_G2": "G2~",
        }
        labels_ok = all(
            check_alcove(build(name)).label == label
            for name, label in expected.items()
        )
        nonalcove_rejected = not check_alcove(build("triangle_nonalcove")).is_alcove
        ok = labels_ok and nonalcove_rejected and accepted_random == 0
        detail = (
            "4 bundled alcoves accepted with correct labels, "
            f"non-alcove rejected, {accepted_random}/10000 random "
            "triangles accepted"
        )
        return ok, detail

    _gate(capsys, 1, "alcove-recognition", 5.0, body)


def test_criterion_02_folded_flow_corner_continuity(capsys):
    def body():
        tables = [
            build(n)
            for n in ("square", "rectangle", "triangle_A2",
                      "triangle_C2", "triangle_G2")
        ]
        tables.append(standard_alcove("A3~"))
        ts = np.linspace(0.0, 10.0, 2001)
        deltas = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
        worst_final = 0.0
        all_decreasing = True
        for poly in tables:
            x0 = poly.vertices.mean(axis=0)
            if poly.dim == 2:
                corner = poly.vertices[0]
                w = _unit([-(corner - x0)[1], (corner - x0)[0]])
            else:
                shared = sorted(
                    set(poly.facet_vertices[0]) & set(poly.facet_vertices[1])
                )
                corner = poly.vertices[shared[:2]].mean(axis=0)
                edge = poly.vertices[shared[1]] - poly.vertices[shared[0]]
                w = _unit(np.cross(corner - x0, edge))
            sups = []
            for delta in deltas:
                pair = []
                for sign in (+1.0, -1.0):
                    d = _unit(corner + sign * delta * w - x0)
                    traj = folded_flow(poly, TrajectoryState(x0, d), 10.0)
                    pair.append(traj.sample(ts))
                sups.append(
                    float(np.max(np.linalg.norm(pair[0] - pair[1], axis=1)))
                )
            all_decreasing &= all(b < a for a, b in zip(sups, sups[1:]))
            worst_final = max(worst_final, sups[-1])
        ok = all_decreasing and worst_final < 1e-6
        detail = (
            "straddling-shot separation shrinks monotonically on all 6 "
            f"tables, worst at offset 1e-8: {worst_final:.1e} < 1e-6"
        )
        return ok, detail

    _gate(capsys, 2, "folded-flow-corner-continuity", 10.0, body)


def test_criterion_03_corner_limit_gap(capsys):
    def body():
        # closed form: the jump vanishes exactly at openings pi/k and
        # reopens linearly with slope 2k on either side
        worst_zero = 0.0
        worst_linear = 0.0
        e = 1e-3
        for k in range(2, 21):
            worst_zero = max(worst_zero, limit_reflection(math.pi / k).gap)
            for s in (+1.0, -1.0):
                gap = limit_reflection(math.pi / k + s * e).gap
                worst_linear = max(worst_linear, abs(gap - 2.0 * k * e))

        # traced shots: straddle the 2*pi/5 apex of a triangle table and
        # compare the two one-sided outgoing directions with the predicted
        # jump
        alpha = 2.0 * math.pi / 5.0
        tri = Polytope.convex_polygon(
            [[0.0, 0.0], [1.0, 0.0], [math.cos(alpha), math.sin(alpha)]]
        )
        lim = limit_reflection(alpha)
        bis = np.array([math.cos(alpha / 2.0), math.sin(alpha / 2.0)])
        w = np.array([-bis[1], bis[0]])
        measured = {}
        fan_ok = True
        for sign, tag in ((+1.0, "above"), (-1.0, "below")):
            x0 = 0.25 * bis + sign * 1e-4 * w
            traj = simulate(
                tri, TrajectoryState(x0, -bis), 1.0, CornerPolicy.STRICT
            )
            fan = traj.events[: lim.m]
            fan_ok &= len(fan) == lim.m and all(
                np.linalg.norm(ev.point) < 0.01 for ev in fan
            )
            out = fan[-1].outgoing
            measured[tag] = math.atan2(out[1], out[0])
        jump = _angdist(measured["above"], measured["below"])
        jump_err = abs(jump - lim.gap)
        side_err = max(
            _angdist(
                measured["above"],
                math.atan2(lim.direction_above[1], lim.direction_above[0]),
            ),
            _angdist(
                measured["below"],
                math.atan2(lim.direction_below[1], lim.direction_below[0]),
            ),
        )
        ok = (
            worst_zero <= 1e-12
            and worst_linear <= 1e-9
            and fan_ok
            and jump_err <= 1e-6
            and side_err <= 1e-6
        )
        detail = (
            f"zeros at pi/k within {worst_zero:.1e}, linear reopening within "
            f"{worst_linear:.1e}, traced jump at 2pi/5 matches within "
            f"{jump_err:.1e}"
        )
        return ok, detail

    _gate(capsys, 3, "corner-limit-gap", 5.0, body)


def test_criterion_04_unfolding_equivalence(capsys):
    def body():
        rng = np.random.default_rng(104)
        worst = 0.0
        skipped = 0
        total_bounces = 0
        runs = 0
        while runs < 1000:
            poly = (
                random_convex_polygon(rng)
                if runs % 2 == 0
                else random_polytope_3d(rng)
            )
            state = random_interior_state(rng, poly)
            try:
                folded = simulate(poly, state, 100.0, CornerPolicy.STRICT)
                unfolded = simulate_unfolded(
                    poly, state, 100.0, CornerPolicy.STRICT
                )
            except CornerAmbiguousError:
                skipped += 1
                if skipped > 10:
                    return False, "too many corner hits on random shots"
                continue
            runs += 1
            if folded.n_bounces != unfolded.n_bounces:
                return False, "bounce counts differ"
            for a, b in zip(folded.events, unfolded.events):
                if a.active != b.active or a.kind != b.kind:
                    return False, "bounce sequences differ"
                worst = max(worst, float(np.linalg.norm(a.point - b.point)))
            worst = max(
                worst,
                float(np.linalg.norm(folded.end.point - unfolded.end.point)),
            )
            total_bounces += folded.n_bounces
        ok = worst <= 1e-8
        detail = (
            f"1000 runs over horizon 100 ({total_bounces} bounces, "
            f"{skipped} corner hits discarded), identical bounce sequences, "
            f"max point deviation {worst:.1e}"
        )
        return ok, detail

    _gate(capsys, 4, "unfolding-equivalence", 30.0, body)


def test_criterion_05_total_curvature(capsys):
    def body():
        rng = np.random.default_rng(105)
        worst = 0.0
        angles_ok = True
        for _ in range(100):
            mesh = SurfaceMesh.from_polytope(random_polytope_3d(rng))
            worst = max(worst, abs(gauss_bonnet_total(mesh) - 4.0 * math.pi))
            angles_ok &= all(
                r.cone_angle < 2.0 * math.pi for r in cone_angles(mesh)
            )
        ok = worst <= 1e-8 and angles_ok
        detail = (
            f"total curvature within {worst:.1e} of 4pi on 100 random "
            "convex surfaces, every cone angle below 2pi"
        )
        return ok, detail

    _gate(capsys, 5, "total-curvature", 10.0, body)


def test_criterion_06_disphenoid_characterization(capsys):
    def body():
        rng = np.random.default_rng(106)
        for _ in range(1000):
            verts = random_tetrahedron_vertices(rng)
            orb = is_orbifold_boundary(tetrahedron_mesh(verts)).is_orbifold
            dis = is_disphenoid(verts).is_disphenoid
            if orb != dis:
                return False, "orbifold and equal-opposite-edges tests disagree"
        triangulation_ok = True
        for _ in range(1000):
            verts = make_disphenoid(*random_acute_triple(rng))
            mesh = tetrahedron_mesh(verts)
            if not (
                is_orbifold_boundary(mesh).is_orbifold
                and is_disphenoid(verts).is_disphenoid
            ):
                return False, "constructed disphenoid not recognized"
            report = triangulate_check(mesh)
            triangulation_ok &= report.f_equals_v and report.trivalent
        ok = triangulation_ok
        detail = (
            "orbifold <=> equal opposite edges on 1000 generic + 1000 "
            "constructed tetrahedra, triangulations have F=V and are "
            "trivalent"
        )
        return ok, detail

    _gate(capsys, 6, "disphenoid-characterization", 10.0, body)


def test_criterion_07_boundary_approach(capsys):
    def body():
        alphas = (0.04, 0.02, 0.01, 0.005, 0.0025)
        circle = boundary_convergence_experiment(Circle(1.0), alphas)
        circle_err = circle.max_prediction_error
        ellipse = boundary_convergence_experiment(Ellipse(2.0, 1.0), alphas)
        slope = ellipse.deviation_slope
        escapes = 0
        for table in (Circle(1.0), Ellipse(2.0, 1.0), PerturbedCircle(0.05, 3)):
            run = base_angle_run(table, 0.1, 0.01, 500)
            for p0, p1 in zip(run.points[:-1], run.points[1:]):
                for t in np.linspace(0.0, 1.0, 9):
                    q = (1.0 - t) * p0 + t * p1
                    if table.implicit(q[0], q[1]) > 1e-9:
                        escapes += 1
        ok = circle_err <= 1e-10 and 1.8 <= slope <= 2.2 and escapes == 0
        detail = (
            f"circle deviation matches 1-cos(alpha) within {circle_err:.1e}, "
            f"ellipse deviation slope {slope:.3f} in [1.8, 2.2], no interior "
            "escape over 500 bounces; sharpness of the regularity class "
            "itself is a non-numerical statement and is not machine-checked"
        )
        return ok, detail

    _gate(capsys, 7, "boundary-approach", 60.0, body)


def test_criterion_08_chord_laws(capsys):
    def body():
        circle = verify_base_angle_laws(Circle(1.0))
        # on the circle the base angle is conserved exactly, so the
        # per-bounce increments sit at rounding level, far below any
        # quadratic envelope; a log-log fit on pure noise is meaningless
        # there, so the exponent is gated on the non-circular tables
        circle_inc = max(circle.max_increments)
        ellipse = verify_base_angle_laws(Ellipse(2.0, 1.0))
        perturbed = verify_base_angle_laws(PerturbedCircle(0.05, 3))
        slopes_ok = (
            1.8 <= ellipse.increment_slope <= 2.2
            and 1.8 <= perturbed.increment_slope <= 2.2
        )
        chords_ok = (
            circle.chord_constant > 1.9
            and ellipse.chord_constant > 0.5
            and perturbed.chord_constant > 0.5
        )
        ok = circle_inc <= 1e-12 and slopes_ok and chords_ok
        detail = (
            f"circle increments at rounding level ({circle_inc:.1e}), "
            f"increment slopes ellipse {ellipse.increment_slope:.3f} / "
            f"perturbed {perturbed.increment_slope:.3f} in [1.8, 2.2], "
            "chord/alpha bounded below on all tables"
        )
        return ok, detail

    _gate(capsys, 8, "chord-laws", 60.0, body)


def test_criterion_09_property_suites(capsys):
    def body():
        rng = np.random.default_rng(109)

        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            v = rng.normal(size=dim)
            n = _unit(rng.normal(size=dim))
            if not np.allclose(reflect(reflect(v, n), n), v, atol=1e-12):
                return False, "reflection is not an involution"

        for _ in range(1000):
            poly = random_convex_polygon(rng)
            facet = int(rng.integers(poly.n_facets))
            a, b = poly.facet_vertices[facet]
            t = rng.uniform(0.1, 0.9)
            p = (1 - t) * poly.vertices[a] + t * poly.vertices[b]
            normal = poly.normals[facet]
            dirs = []
            for _ in range(2):
                w = _unit(rng.normal(size=2))
                if w @ normal > 0:
                    w = reflect(w, normal)
                dirs.append(w)
            if is_polar(poly, p, dirs[0], dirs[1]) != is_polar(
                poly, p, dirs[1], dirs[0]
            ):
                return False, "polarity is not symmetric"

        labels = ("A1~", "A2~", "C2~", "G2~", "A3~")
        for i in range(1000):
            poly = standard_alcove(labels[i % len(labels)])
            x = rng.uniform(-6.0, 6.0, size=poly.dim)
            y, _ = fold_point(poly, x)
            again, word = fold_point(poly, y)
            if word or not np.allclose(again, y, atol=1e-12):
                return False, "point folding is not idempotent"

        geodesics = 0
        vertex_hits = 0
        while geodesics < 1000:
            mesh = tetrahedron_mesh(random_tetrahedron_vertices(rng))
            face = mesh.faces[0]
            wts = rng.uniform(0.1, 1.0, size=3)
            start = wts @ mesh.vertices[list(face)] / wts.sum()
            e1 = _unit(mesh.vertices[face[1]] - mesh.vertices[face[0]])
            e2 = mesh.vertices[face[2]] - mesh.vertices[face[0]]
            e2 = _unit(e2 - (e2 @ e1) * e1)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            d = math.cos(ang) * e1 + math.sin(ang) * e2
            try:
                geo = trace_surface_geodesic(mesh, 0, start, d, 3.0)
            except VertexHitError:
                vertex_hits += 1
                continue
            geodesics += 1
            if geo.max_collinearity_residual() > 1e-10:
                return False, "geodesic fails to unfold to a straight line"

        reversed_runs = 0
        while reversed_runs < 1000:
            poly = random_convex_polygon(rng)
            state = random_interior_state(rng, poly)
            fwd = simulate(poly, state, 2.0, CornerPolicy.POINT_REFLECT)
            slack = np.min(poly.offsets - poly.normals @ fwd.end.point)
            if slack <= 1e-9:  # bounce exactly at the horizon: reverse
                continue       # start would sit on the wall
            back = simulate(
                poly, fwd.end.reversed(), 2.0, CornerPolicy.POINT_REFLECT
            )
            reversed_runs += 1
            if (
                np.linalg.norm(back.end.point - state.point) > 1e-7
                or np.linalg.norm(back.end.direction + state.direction) > 1e-7
            ):
                return False, "reversed flow misses the start"

        detail = (
            "reflection involution, polarity symmetry, folding idempotence, "
            "geodesic straightness, and time reversal each hold on 1000 "
            f"cases ({vertex_hits} vertex hits discarded)"
        )
        return True, detail

    _gate(capsys, 9, "property-suites", 30.0, body)


def test_criterion_10_cli_contract(capsys):
    def body():
        def run(*argv):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            return code, out

        reports_ok = True
        for argv in (
            ["simulate", "square", "0.25,0", "0,1", "4"],
            ["check-alcove", "triangle_G2"],
            ["corner", "1.2"],
            ["surface", "tetra_regular", "--report"],
            ["smooth", "circle", "--laws", "--alphas", "0.04,0.02"],
        ):
            code, out = run(*argv)
            reports_ok &= code == 0
            validate_report_data(json.loads(out))

        c1, out1 = run("check-alcove", "triangle_G2")
        c2, out2 = run("check-alcove", "triangle_G2")
        stable = c1 == c2 == 0 and out1 == out2

        codes_ok = (
            run("simulate", "missing_table", "0,0", "1,1", "1")[0] == 2
            and run(
                "simulate", "simplex_A3", "0.1,0.05,0.02", "1,0.3,0.2", "1",
                "--svg", "/tmp/na.svg",
            )[0] == 2
            and run(
                "simulate", "square", "0.25,0.25", "1,1", "3",
                "--policy", "strict",
            )[0] == 3
        )
        tables_ok = len(BUILDERS) == 13
        ok = reports_ok and stable and codes_ok and tables_ok
        detail = (
            "all subcommand reports schema-valid, repeated output "
            "byte-identical, exit codes 2/3 honored, 13 bundled tables"
        )
        return ok, detail

    _gate(capsys, 10, "cli-contract", 10.0, body)
