"""Spans around the public functions of each ``billiards`` module.

The wrappers are installed from outside the package: a module-level function
is replaced in every ``billiards`` module that holds it (callers such as
``dynamics`` look up ``as_point`` and ``contains`` in their own globals at
call time), and a method is replaced on its class. ``uninstall`` puts the
originals back, so untraced passes run the library unchanged.

A span is ``[name, start, end, parent, op, info, error]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the operation it belongs
to, ``info`` what ``measure`` extracted from the return value (bounces,
crossings, word length, bounce kind), and ``error`` the exception type name
if the call raised. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

FIELDS = ["name", "start", "end", "parent", "op", "info", "error"]


def _bounces(traj):
    return traj.n_bounces


# (span name, module, attribute, measure applied to the return value)
TARGETS = [
    ("geometry.polytope_build", "billiards.geometry", "Polytope.__init__", None),
    ("geometry.contains", "billiards.geometry", "Polytope.contains", None),
    ("geometry.as_point", "billiards.geometry", "as_point", None),
    ("geometry.cone_membership", "billiards.geometry", "cone_membership", None),
    ("dynamics.simulate", "billiards.dynamics", "simulate", _bounces),
    ("dynamics.simulate_unfolded", "billiards.dynamics", "simulate_unfolded", _bounces),
    ("dynamics.advance_to_boundary", "billiards.dynamics", "advance_to_boundary", None),
    ("dynamics.reflect_at", "billiards.dynamics", "reflect_at", lambda r: r.kind.value),
    ("alcove.check_alcove", "billiards.alcove", "check_alcove", None),
    ("alcove.dihedral_angles", "billiards.alcove", "dihedral_angles", None),
    ("alcove.standard_alcove", "billiards.alcove", "standard_alcove", None),
    ("alcove.folded_flow", "billiards.alcove", "folded_flow", _bounces),
    ("alcove.fold_point", "billiards.alcove", "fold_point", lambda r: len(r[1])),
    ("corner.limit_reflection", "billiards.corner", "limit_reflection", None),
    ("corner.unfold_wedge", "billiards.corner", "unfold_wedge", None),
    ("surface.mesh_build", "billiards.surface", "SurfaceMesh.__init__", None),
    ("surface.cone_angles", "billiards.surface", "cone_angles", None),
    ("surface.gauss_bonnet_total", "billiards.surface", "gauss_bonnet_total", None),
    ("surface.trace_surface_geodesic", "billiards.surface", "trace_surface_geodesic",
     lambda g: g.n_crossings),
    ("smooth.smooth_bounce", "billiards.smooth", "smooth_bounce", None),
    ("smooth.verify_base_angle_laws", "billiards.smooth", "verify_base_angle_laws", None),
    ("io.load_table", "billiards.io", "load_table", None),
    ("io.validate_report_data", "billiards.io", "validate_report_data", None),
    ("io.dumps_json", "billiards.io", "dumps_json", None),
    ("cli.main", "billiards.cli", "main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.active = False
        self.op = -1

    def _wrap(self, name, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                span[6] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if measure is not None:
                span[5] = measure(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "billiards" or key.startswith("billiards.")]
        for name, module_name, attr, measure in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, measure))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def take(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


class Summary:
    """Per span name: inclusive and self durations, scaled by ``factor`` to
    the reference host speed, with infos and errors."""

    def __init__(self, spans: list[list], factor: float):
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self.rows: dict[str, list[tuple]] = defaultdict(list)
        for i, s in enumerate(spans):
            dur = s[2] - s[1]
            self.rows[s[0]].append((factor * dur, factor * (dur - child[i]), s[5], s[6]))

    def calls(self, name: str) -> int:
        return len(self.rows[name])

    def ok_calls(self, name: str) -> int:
        return sum(1 for r in self.rows[name] if r[3] is None)

    def errors(self, name: str, error: str) -> int:
        return sum(1 for r in self.rows[name] if r[3] == error)

    def info_sum(self, name: str) -> float:
        return sum(r[2] for r in self.rows[name] if r[3] is None)

    def incl_ok(self, name: str) -> float:
        return sum(r[0] for r in self.rows[name] if r[3] is None)

    def self_total(self, name: str, info=None) -> float:
        return sum(r[1] for r in self.rows[name] if info is None or r[2] == info)

    def count_info(self, name: str, info) -> int:
        return sum(1 for r in self.rows[name] if r[2] == info)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: dict[str, list[list]],
                  factors: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each from the workload that exercises the layer;
    ``factors`` holds each traced pass's host speed factor."""
    flow = Summary(spans["flow"], factors["flow"])
    alc = Summary(spans["alcove"], factors["alcove"])
    surf = Summary(spans["surface_smooth"], factors["surface_smooth"])
    cli = Summary(spans["cli"], factors["cli"])
    sim, unf = "dynamics.simulate", "dynamics.simulate_unfolded"
    bounces = flow.info_sum(sim) + flow.info_sum(unf)
    us, ms = 1e6, 1e3

    def per_call(s: Summary, name: str, scale: float) -> float:
        return scale * _ratio(s.incl_ok(name), s.ok_calls(name))

    def self_per_call(s: Summary, name: str, info=None) -> float:
        n = s.calls(name) if info is None else s.count_info(name, info)
        return us * _ratio(s.self_total(name, info), n)

    def per_unit(s: Summary, name: str) -> float:
        return us * _ratio(s.incl_ok(name), s.info_sum(name))

    fold = "alcove.fold_point"
    m = {
        "geometry.polytope_build.calls": (alc.calls("geometry.polytope_build"), "count"),
        "geometry.polytope_build.us_per_call": (per_call(alc, "geometry.polytope_build", us), "us"),
        "geometry.contains.calls_per_bounce": (_ratio(flow.calls("geometry.contains"), bounces), "count"),
        "geometry.contains.self_us_per_bounce": (us * _ratio(flow.self_total("geometry.contains"), bounces), "us"),
        "geometry.as_point.calls_per_bounce": (_ratio(flow.calls("geometry.as_point"), bounces), "count"),
        "geometry.cone_membership.calls": (flow.calls("geometry.cone_membership"), "count"),
        "geometry.cone_membership.self_s": (flow.self_total("geometry.cone_membership"), "s"),
        "dynamics.simulate.us_per_bounce": (per_unit(flow, sim), "us"),
        "dynamics.simulate_unfolded.us_per_bounce": (per_unit(flow, unf), "us"),
        "dynamics.advance_to_boundary.self_us_per_call": (self_per_call(flow, "dynamics.advance_to_boundary"), "us"),
        "dynamics.reflect_at.self_us_per_call": (self_per_call(flow, "dynamics.reflect_at"), "us"),
        "dynamics.reflect_at.corner_self_us_per_call": (self_per_call(alc, "dynamics.reflect_at", "corner"), "us"),
        "dynamics.bounces": (bounces, "count"),
        "dynamics.corner_bounces": (alc.count_info("dynamics.reflect_at", "corner"), "count"),
        "dynamics.corner_discards": (flow.errors(sim, "CornerAmbiguousError"), "count"),
        "alcove.check_alcove.us_per_call": (per_call(alc, "alcove.check_alcove", us), "us"),
        "alcove.dihedral_angles.self_us_per_call": (self_per_call(alc, "alcove.dihedral_angles"), "us"),
        "alcove.standard_alcove.us_per_call": (per_call(alc, "alcove.standard_alcove", us), "us"),
        "alcove.folded_flow.us_per_bounce": (per_unit(alc, "alcove.folded_flow"), "us"),
        "alcove.fold_point.us_per_call": (per_call(alc, fold, us), "us"),
        "alcove.fold_point.word_len_mean": (_ratio(alc.info_sum(fold), alc.calls(fold)), "count"),
        "corner.limit_reflection.us_per_call": (per_call(alc, "corner.limit_reflection", us), "us"),
        "corner.unfold_wedge.us_per_call": (per_call(alc, "corner.unfold_wedge", us), "us"),
        "surface.mesh_build.us_per_call": (per_call(surf, "surface.mesh_build", us), "us"),
        "surface.cone_angles.self_us_per_call": (self_per_call(surf, "surface.cone_angles"), "us"),
        "surface.gauss_bonnet_total.us_per_call": (per_call(surf, "surface.gauss_bonnet_total", us), "us"),
        "surface.trace_surface_geodesic.us_per_crossing": (per_unit(surf, "surface.trace_surface_geodesic"), "us"),
        "surface.crossings": (surf.info_sum("surface.trace_surface_geodesic"), "count"),
        "surface.vertex_hits": (surf.errors("surface.trace_surface_geodesic", "VertexHitError"), "count"),
        "smooth.smooth_bounce.us_per_call": (per_call(surf, "smooth.smooth_bounce", us), "us"),
        "smooth.verify_base_angle_laws.ms_per_call": (per_call(surf, "smooth.verify_base_angle_laws", ms), "ms"),
        "io.load_table.ms_per_call": (per_call(cli, "io.load_table", ms), "ms"),
        "io.validate_report_data.ms_per_call": (per_call(cli, "io.validate_report_data", ms), "ms"),
        "io.dumps_json.ms_per_call": (per_call(cli, "io.dumps_json", ms), "ms"),
        "cli.main.ms_per_call": (per_call(cli, "cli.main", ms), "ms"),
    }
    return m


def write_spans(path, seed: int, spans: dict[str, list[list]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"seed": seed, "fields": FIELDS, "workloads": spans}, fh)
