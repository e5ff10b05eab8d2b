"""The four benchmark workloads: seeded inputs, the operation, its check.

Every workload exposes the same small interface:

``draw(rng)``
    the next operation's input, built only from ``rng`` (plain numbers and
    arrays, or prebuilt tables that every operation shares);
``execute(item)``
    the calls into ``billiards`` that one operation pays for; only this is
    timed;
``check(item, result)``
    raises ``CheckFailed`` unless the result meets the tolerance of the
    acceptance criterion it mirrors, and returns the number of elementary
    steps the operation performed;
``EXPECTED``
    exception types that are expected geometric outcomes of a random input
    (a strict shot into a corner, a geodesic into a vertex). An operation
    that raises one is discarded and another input is drawn, as criteria 04
    and 09 do; it is neither completed nor failed.

The library is reached through module attributes at call time
(``bl.simulate``, ``bl.cli.main``), so a traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import billiards as bl
import billiards.cli
import billiards.io
import billiards.tables

import hostspeed

STRICT = bl.CornerPolicy.STRICT
FOUR_PI = 4.0 * math.pi


class CheckFailed(Exception):
    """An operation's output missed its correctness check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _angdist(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


# -- random geometry ----------------------------------------------------------


def polygon_points(rng, k: int) -> np.ndarray:
    """``k`` vertices of a convex polygon on a circle, angles well apart."""
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
        if gaps.min() > 0.15 and gaps.max() < np.pi - 0.15:
            break
    radius = rng.uniform(0.7, 1.5)
    center = rng.uniform(-0.3, 0.3, 2)
    return center + radius * np.c_[np.cos(angles), np.sin(angles)]


def sphere_points(rng, k: int) -> np.ndarray:
    """``k`` points on one sphere, so every point is a hull vertex."""
    pts = rng.normal(size=(k, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(0.8, 1.4)


def interior_start(rng, vertices: np.ndarray) -> np.ndarray:
    weights = rng.dirichlet(np.ones(len(vertices)))
    return 0.7 * (weights @ vertices) + 0.3 * vertices.mean(axis=0)


def tetrahedron_vertices(rng) -> np.ndarray:
    while True:
        verts = rng.normal(size=(4, 3))
        if abs(np.linalg.det(verts[1:] - verts[0])) / 6.0 > 0.02:
            return verts


def acute_triple(rng) -> tuple[float, float, float]:
    scale = rng.uniform(0.5, 3.0)
    a, b, c = scale * (1.0 + rng.uniform(-0.1, 0.1, 3))
    return float(a), float(b), float(c)


# -- flow ---------------------------------------------------------------------


class Flow:
    """Criterion 04: one op builds a random table and runs the folded and the
    unfolded flow under STRICT for horizon 100; both must agree."""

    EXPECTED = (bl.CornerAmbiguousError,)
    HORIZON = 100.0
    WARMUP_OPS = 6
    TRACE_OPS = 24

    def __init__(self):
        # tables alternate between 2D and 3D and cycle through their vertex
        # counts, so every seed has the same mix of sizes
        self._sizes = itertools.cycle([
            size for i in range(24) for size in ((2, 3 + i % 6), (3, 8 + i % 8))
        ])

    def draw(self, rng):
        dim, k = next(self._sizes)
        pts = polygon_points(rng, k) if dim == 2 else sphere_points(rng, k)
        start = interior_start(rng, pts)
        direction = rng.normal(size=dim)
        return dim, pts, start, direction

    def execute(self, item):
        dim, pts, start, direction = item
        if dim == 2:
            table = bl.Polytope.convex_polygon(pts)
        else:
            table = bl.Polytope.from_point_cloud(pts)
        state = bl.TrajectoryState(start, direction)
        folded = bl.simulate(table, state, self.HORIZON, STRICT)
        unfolded = bl.simulate_unfolded(table, state, self.HORIZON, STRICT)
        return folded, unfolded

    def check(self, item, result):
        a, b = result
        _require(a.n_bounces > 0, "no bounce within horizon 100")
        _require(a.n_bounces == b.n_bounces, "bounce counts differ")
        for ea, eb in zip(a.events, b.events):
            _require(ea.active == eb.active and ea.kind == eb.kind,
                     "bounce sequences differ")
            _require(float(np.linalg.norm(ea.point - eb.point)) <= 1e-8,
                     "bounce points differ by more than 1e-8")
        _require(float(np.linalg.norm(a.end.point - b.end.point)) <= 1e-8,
                 "end points differ by more than 1e-8")
        return a.n_bounces + b.n_bounces


# -- alcove -------------------------------------------------------------------


BUNDLED_LABELS = {
    "rectangle": "A1~ x A1~",
    "triangle_A2": "A2~",
    "triangle_C2": "C2~",
    "triangle_G2": "G2~",
    "triangle_nonalcove": None,
}
# Mix per round, plus one "standard" op for each of the 31 affine labels of
# rank <= 8. Random triangles are the majority, so the median latency falls
# inside one tight cluster instead of between two.
ALCOVE_ROUND = (
    ("triangle", 80), ("bundled", 5), ("folded", 8), ("fold_point", 8),
    ("wedge", 8),
)


class Alcove:
    """Many small tables with few bounces each: recognition, classification,
    folding, and the corner limits of criteria 01, 02, 03 and 09."""

    EXPECTED = ()
    WARMUP_OPS = 140
    TRACE_OPS = 560

    def __init__(self):
        self.labels = bl.standard_alcove_labels(8)
        self.alcoves = {lab: bl.standard_alcove(lab) for lab in self.labels}
        for name in ("triangle_A2", "triangle_C2", "triangle_G2", "rectangle"):
            self.alcoves[name] = billiards.tables.build(name)
        # tables the folded shots aim at a vertex of: every alcove of rank >= 2
        self.shot_tables = [k for k, p in self.alcoves.items() if p.dim >= 2]
        self._round: list = []
        # folded shots and fold_point inputs cycle through their tables, so
        # every seed has the same mix of dimensions and the seed varies only
        # the points
        self._shots = itertools.cycle(self.shot_tables)
        self._folds = itertools.cycle(self.labels)

    def draw(self, rng):
        if not self._round:
            kinds = [k for k, n in ALCOVE_ROUND for _ in range(n)]
            kinds += ["standard"] * len(self.labels)
            standard = iter(self.labels)
            self._round = [
                self._make(kind, rng, standard)
                for kind in (kinds[i] for i in rng.permutation(len(kinds)))
            ]
        return self._round.pop()

    def _make(self, kind, rng, standard):
        if kind == "triangle":
            return kind, polygon_points(rng, 3)
        if kind == "bundled":
            names = list(BUNDLED_LABELS)
            return kind, names[int(rng.integers(len(names)))]
        if kind == "standard":
            return kind, next(standard)
        if kind == "folded":
            key = next(self._shots)
            table = self.alcoves[key]
            x0 = interior_start(rng, table.vertices)
            vertex = table.vertices[int(rng.integers(len(table.vertices)))]
            horizon = 4.0 * float(np.linalg.norm(vertex - x0))
            return kind, key, x0, vertex - x0, horizon
        if kind == "fold_point":
            key = next(self._folds)
            return kind, key, rng.uniform(-6.0, 6.0, size=self.alcoves[key].dim)
        alpha = float(rng.uniform(0.08, math.pi - 0.08))
        return "wedge", alpha

    def execute(self, item):
        kind = item[0]
        if kind == "triangle":
            return bl.check_alcove(bl.Polytope.convex_polygon(item[1]))
        if kind == "bundled":
            return bl.check_alcove(billiards.tables.build(item[1]))
        if kind == "standard":
            return bl.check_alcove(bl.standard_alcove(item[1]))
        if kind == "folded":
            _, key, x0, direction, horizon = item
            table = self.alcoves[key]
            return bl.folded_flow(table, bl.TrajectoryState(x0, direction), horizon)
        if kind == "fold_point":
            table = self.alcoves[item[1]]
            y, word = bl.fold_point(table, item[2])
            again, word2 = bl.fold_point(table, y)
            return y, word, again, word2
        alpha = item[1]
        return (
            bl.limit_reflection(alpha),
            bl.unfold_wedge(alpha, +1e-9),
            bl.unfold_wedge(alpha, -1e-9),
        )

    def check(self, item, result):
        kind = item[0]
        if kind == "triangle":
            _require(not result.is_alcove, "random triangle accepted as alcove")
            return 0
        if kind == "bundled":
            want = BUNDLED_LABELS[item[1]]
            if want is None:
                _require(not result.is_alcove, f"{item[1]} accepted")
            else:
                _require(result.label == want, f"{item[1]} labelled {result.label}")
            return 0
        if kind == "standard":
            _require(result.label == item[1],
                     f"standard_alcove({item[1]}) labelled {result.label}")
            return 0
        if kind == "folded":
            return self._check_folded(item, result)
        if kind == "fold_point":
            y, word, again, word2 = result
            _require(not word2 and bool(np.allclose(again, y, atol=1e-12)),
                     "point folding is not idempotent")
            return 0
        limit, above, below = result
        for shot, want in ((above, limit.outgoing_above),
                           (below, limit.outgoing_below)):
            _require(shot.bounce_count == limit.bounce_count,
                     "wedge bounce count differs from the closed form")
            _require(_angdist(shot.outgoing_angle, want) < 1e-7,
                     "wedge outgoing angle differs from the closed form")
        return 0

    def _check_folded(self, item, traj):
        # event-free oracle: the folded flow at time t is the fold of the
        # straight line x0 + t*d0 into the alcove
        _, key, x0, _, horizon = item
        table = self.alcoves[key]
        d0 = traj.start.direction
        _require(any(e.kind is bl.BounceKind.CORNER for e in traj.events),
                 "vertex shot produced no corner bounce")
        for e in traj.events:
            y, _ = bl.fold_point(table, x0 + e.time * d0, verify=False)
            _require(float(np.linalg.norm(y - e.point)) <= 1e-8,
                     "folded flow leaves the fold of the straight line")
        y, _ = bl.fold_point(table, x0 + horizon * d0, verify=False)
        _require(float(np.linalg.norm(y - traj.end.point)) <= 1e-8,
                 "folded flow end point differs from the fold")
        return traj.n_bounces


# -- surface_smooth -----------------------------------------------------------


SMOOTH_KINDS = (
    ("laws", "circle"), ("laws", "ellipse"), ("laws", "perturbed"),
    ("converge", "circle"), ("converge", "ellipse"), ("converge", "perturbed"),
)
# The alpha ladder is fixed, so every seed runs the same smooth chords; the
# seed varies the launch point.
SMOOTH_ALPHAS = (0.04, 0.02, 0.01)
SURFACE_ROUND = (
    ("geodesic_tetra", 6), ("geodesic_hull", 6), ("gauss_bonnet", 4),
    ("orbifold", 3), ("disphenoid", 3), ("smooth", 1),
)


def smooth_table(kind: str):
    if kind == "circle":
        return bl.Circle(1.0)
    if kind == "ellipse":
        return bl.Ellipse(2.0, 1.0)
    return bl.PerturbedCircle(0.05, 3)


class SurfaceSmooth:
    """The tables that are not polytopes: geodesics and curvature on closed
    meshes (criteria 05, 06, 09) and the small-angle laws on smooth ovals
    (criteria 07, 08)."""

    EXPECTED = (bl.VertexHitError,)
    GEODESIC_HORIZON = 20.0
    WARMUP_OPS = 23
    TRACE_OPS = 46

    def __init__(self):
        self._round: list = []
        self._smooth = 0
        self._hull_sizes = itertools.cycle(range(8, 16))

    def draw(self, rng):
        if not self._round:
            kinds = [k for k, n in SURFACE_ROUND for _ in range(n)]
            self._round = [self._make(kinds[i], rng)
                           for i in rng.permutation(len(kinds))]
        return self._round.pop()

    def _make(self, kind, rng):
        if kind in ("geodesic_tetra", "geodesic_hull"):
            verts = (tetrahedron_vertices(rng) if kind == "geodesic_tetra"
                     else sphere_points(rng, next(self._hull_sizes)))
            weights = rng.uniform(0.1, 1.0, size=3)
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            return kind, verts, weights / weights.sum(), angle
        if kind == "gauss_bonnet":
            return kind, sphere_points(rng, next(self._hull_sizes))
        if kind == "orbifold":
            return kind, tetrahedron_vertices(rng)
        if kind == "disphenoid":
            return kind, acute_triple(rng)
        mode, table = SMOOTH_KINDS[self._smooth % len(SMOOTH_KINDS)]
        self._smooth += 1
        return mode, table, float(rng.uniform(0.0, 2.0 * math.pi)), SMOOTH_ALPHAS

    def execute(self, item):
        kind = item[0]
        if kind in ("geodesic_tetra", "geodesic_hull"):
            _, verts, weights, angle = item
            if kind == "geodesic_tetra":
                mesh = bl.tetrahedron_mesh(verts)
            else:
                mesh = bl.SurfaceMesh.from_polytope(bl.Polytope.from_point_cloud(verts))
            face = mesh.vertices[list(mesh.faces[0][:3])]
            e1 = bl.unit(face[1] - face[0])
            e2 = face[2] - face[0]
            e2 = bl.unit(e2 - (e2 @ e1) * e1)
            direction = math.cos(angle) * e1 + math.sin(angle) * e2
            return bl.trace_surface_geodesic(
                mesh, 0, weights @ face, direction, self.GEODESIC_HORIZON
            )
        if kind == "gauss_bonnet":
            mesh = bl.SurfaceMesh.from_polytope(bl.Polytope.from_point_cloud(item[1]))
            return bl.gauss_bonnet_total(mesh), bl.cone_angles(mesh)
        if kind in ("orbifold", "disphenoid"):
            verts = item[1] if kind == "orbifold" else bl.make_disphenoid(*item[1])
            mesh = bl.tetrahedron_mesh(verts)
            return (bl.is_orbifold_boundary(mesh).is_orbifold,
                    bl.is_disphenoid(verts).is_disphenoid)
        mode, table, theta0, alphas = item
        if mode == "laws":
            return bl.verify_base_angle_laws(smooth_table(table), alphas, theta0)
        return bl.boundary_convergence_experiment(
            smooth_table(table), alphas, theta0=theta0
        )

    def check(self, item, result):
        kind = item[0]
        if kind in ("geodesic_tetra", "geodesic_hull"):
            _require(result.max_collinearity_residual() <= 1e-10,
                     "geodesic fails to unfold to a straight line")
            return result.n_crossings
        if kind == "gauss_bonnet":
            total, reports = result
            _require(abs(total - FOUR_PI) <= 1e-8, "total curvature is not 4pi")
            _require(all(r.cone_angle < 2.0 * math.pi for r in reports),
                     "a cone angle reaches 2pi")
            return 0
        if kind == "orbifold":
            _require(result[0] == result[1],
                     "orbifold and equal-opposite-edges tests disagree")
            return 0
        if kind == "disphenoid":
            _require(result[0] and result[1], "constructed disphenoid not recognized")
            return 0
        mode, table, _, _ = item
        if mode == "laws":
            if table == "circle":
                _require(float(np.max(result.max_increments)) <= 1e-12,
                         "circle base-angle increments above rounding level")
                _require(result.chord_constant > 1.9, "circle chord/alpha too small")
            else:
                _require(1.8 <= result.increment_slope <= 2.2,
                         f"{table} increment slope {result.increment_slope}")
                _require(result.chord_constant > 0.5, f"{table} chord/alpha too small")
        elif table == "circle":
            _require(result.max_prediction_error <= 1e-10,
                     "circle deviation differs from 1 - cos(alpha)")
        else:
            _require(1.8 <= result.deviation_slope <= 2.2,
                     f"{table} deviation slope {result.deviation_slope}")
        # the reports give no chord count, so only edge crossings are steps
        return 0


# -- cli ----------------------------------------------------------------------


POLYGONS = ("square", "rectangle", "triangle_A2", "triangle_C2",
            "triangle_G2", "triangle_nonalcove")
POLYTOPES = POLYGONS + ("simplex_A3",)
MESHES = ("tetra_regular", "cube", "disphenoid_456")
SMOOTH_TABLES = ("circle", "ellipse", "perturbed")


def _num(x: float) -> str:
    return f"{x:.6f}"


def _vec(v) -> str:
    return ",".join(_num(float(c)) for c in v)


def cli_argvs(rng) -> list[list[str]]:
    """One invocation of each criterion-10 subcommand plus ``corner --sweep``."""
    name = POLYGONS[int(rng.integers(len(POLYGONS)))]
    table = billiards.tables.build(name)
    start = interior_start(rng, table.vertices)
    # a short alpha ladder keeps the child's work small beside its start-up
    a = float(rng.uniform(0.06, 0.1))
    lo = float(rng.uniform(0.1, 0.5))
    return [
        ["simulate", name, _vec(start), _vec(rng.normal(size=2)),
         _num(rng.uniform(2.0, 6.0))],
        ["check-alcove", POLYTOPES[int(rng.integers(len(POLYTOPES)))]],
        ["corner", _num(rng.uniform(0.2, 3.0))],
        ["corner", "--sweep", _num(lo), _num(lo + rng.uniform(2.0, 2.5)),
         str(int(rng.integers(200, 1001)))],
        ["surface", MESHES[int(rng.integers(len(MESHES)))], "--report"],
        ["smooth", SMOOTH_TABLES[int(rng.integers(len(SMOOTH_TABLES)))],
         "--laws", "--alphas", f"{_num(a)},{_num(a / 2.0)}"],
    ]


def child_env(src: Path) -> dict:
    """The environment of a child interpreter: ``billiards`` is imported from
    the checkout's ``src``, which is named explicitly because the package is
    not installed."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + rest if rest else "")
    return env


class CliInProcess:
    """Criterion 10 through a warm in-process ``billiards.cli.main``: the
    traced form of ``cli``, so spans reach ``cli`` and ``io``. Exit code 0,
    a report that validates against the schema, and byte-identical output on
    every repeat of the same invocation."""

    EXPECTED = ()
    WARMUP_OPS = 6
    TRACE_OPS = 18

    def __init__(self, rng):
        self.argvs = cli_argvs(rng)
        self._next = 0
        self.first_output: dict[tuple, bytes] = {}

    def draw(self, rng):
        argv = self.argvs[self._next % len(self.argvs)]
        self._next += 1
        return tuple(argv)

    def execute(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = billiards.cli.main(list(argv))
        return code, buf.getvalue().encode(), b""

    def check(self, argv, result):
        code, out, err = result
        _require(code == 0, f"exit code {code}: {err.decode()[-300:]}")
        try:
            billiards.io.validate_report_data(json.loads(out))
        except Exception as exc:  # any parse or schema error fails the check
            raise CheckFailed(f"report does not validate: {exc}") from exc
        first = self.first_output.setdefault(argv, out)
        _require(out == first, "repeated invocation is not byte-identical")
        return 1


class Cli(CliInProcess):
    """Criterion 10 as a user meets it: one op is one cold
    ``python -m billiards.cli`` process, with the same checks."""

    WARMUP_OPS = 1
    REFERENCE = hostspeed.CHILD  # the timed work happens in a child interpreter

    def __init__(self, rng, root: Path):
        super().__init__(rng)
        self.root = root
        self.env = child_env(root / "src")
        self.child_rss_kb: list[int] = []

    def execute(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "billiards.cli", *argv],
            cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        # wait4 rather than wait: it also gives the child's peak memory
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        return proc.returncode, out, err


def child_import_s(root: Path) -> float:
    """Wall time of ``import billiards`` in a fresh interpreter, as the child
    measures it."""
    code = ("import time; t = time.perf_counter(); import billiards; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=child_env(root / "src"),
        capture_output=True, text=True, check=True,
    )
    return float(proc.stdout)


def import_breakdown(root: Path) -> dict:
    """``python -X importtime -c "import billiards"`` in a fresh child: the
    cumulative import time of ``billiards`` and the summed cumulative time
    of the outermost ``scipy`` modules, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import billiards"],
        cwd=root, env=child_env(root / "src"),
        capture_output=True, text=True, check=True,
    )
    return _parse_importtime(proc.stderr)


def _parse_importtime(text: str) -> dict:
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    billiards_us = scipy_us = 0
    ancestors: list[tuple[int, str]] = []
    # children are printed before their parent: walk backwards to see parents
    for depth, cumulative, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == "billiards":
            billiards_us = cumulative
        if name.split(".")[0] == "scipy" and not any(
            a.split(".")[0] == "scipy" for _, a in ancestors
        ):
            scipy_us += cumulative
        ancestors.append((depth, name))
    return {"billiards_s": billiards_us / 1e6, "scipy_s": scipy_us / 1e6}
