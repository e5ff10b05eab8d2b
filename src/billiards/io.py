"""Table files, deterministic JSON output, CSV writing, bundled tables.

File format (validated against ``data/table.schema.json``):

* convex polytope -- ``{"dim": n, "halfspaces": [{"normal": [...],
  "offset": r}, ...], "vertices": [[...], ...], "facet_vertices":
  [[indices], ...]}``; ``vertices``/``facet_vertices`` are optional and are
  cross-checked against the halfspaces when present.  The entries become
  one array of ``[normal | offset]`` rows, each divided by its normal's
  length (which keeps the halfspace).
* surface mesh -- ``{"surface": {"vertices": [[x,y,z], ...], "faces":
  [[v0,v1,...], ...]}}`` with outward-oriented, counterclockwise faces.
* smooth oval -- ``{"smooth2d": {"kind": "circle"|"ellipse"|"perturbed",
  ...params}}``.

JSON emitted by :func:`dumps_json` is deterministic: insertion-ordered
keys, floats printed with 17 significant digits (which round-trips every
double exactly), and infinities encoded as the strings ``"inf"`` /
``"-inf"``.  Identical inputs therefore produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .geometry import Polytope
    from .smooth import SmoothTable
    from .surface import SurfaceMesh

__all__ = [
    "table_schema",
    "report_schema",
    "validate_table_data",
    "validate_report_data",
    "table_from_data",
    "table_to_data",
    "load_table",
    "save_table",
    "bundled_table_names",
    "resolve_table",
    "format_float",
    "dumps_json",
    "write_csv",
    "trajectory_rows",
    "trajectory_header",
]


# -- schemas ----------------------------------------------------------------

@functools.cache
def _schema(filename: str) -> dict:
    text = resources.files("billiards").joinpath("data", filename).read_text()
    return json.loads(text)


@functools.cache
def _validator(filename: str):
    """One validator per shipped schema. ``jsonschema.validate`` would also
    check the schema against its metaschema on every call; the test suite
    does that once instead."""
    import jsonschema

    schema = _schema(filename)
    return jsonschema.validators.validator_for(schema)(schema)


def _schema_error(data, filename: str):
    """The error ``jsonschema.validate`` raises for ``data``, or None.
    ``jsonschema`` is imported here, on first use, so that ``import
    billiards`` does not pay for it."""
    import jsonschema

    return jsonschema.exceptions.best_match(_validator(filename).iter_errors(data))


def table_schema() -> dict:
    """JSON schema for table files."""
    return _schema("table.schema.json")


def report_schema() -> dict:
    """JSON schema for the CLI report envelope."""
    return _schema("report.schema.json")


def validate_table_data(data) -> None:
    error = _schema_error(data, "table.schema.json")
    if error is not None:
        raise InputError(
            f"table file fails schema validation: {error.message}"
        ) from error


def validate_report_data(data) -> None:
    error = _schema_error(data, "report.schema.json")
    if error is not None:
        raise error


# -- building tables from parsed JSON ---------------------------------------

# Each kind of table imports its module in the branch that builds or
# serializes it, so that loading a smooth table compiles no polytope code.

def _smooth_kinds() -> dict[str, type[SmoothTable]]:
    """The ``smooth2d`` kinds. A smooth table's attributes are its
    constructor's parameters, so ``vars`` of a table is its payload."""
    from .smooth import Circle, Ellipse, PerturbedCircle

    return {"circle": Circle, "ellipse": Ellipse, "perturbed": PerturbedCircle}


def table_from_data(data) -> Polytope | SurfaceMesh | SmoothTable:
    """Build a table object from parsed JSON, validating the schema first.

    JSON numbers have no range: a number no float holds (an integer literal
    of 309 digits, say) is refused with ``InputError``.
    """
    validate_table_data(data)
    try:
        return _build_table(data)
    except OverflowError as exc:
        raise InputError(
            f"table data leaves the float range ({exc.args[-1]})"
        ) from None


def _build_table(data) -> Polytope | SurfaceMesh | SmoothTable:
    if "halfspaces" in data:
        from .geometry import Polytope, _unit_rows

        dim = int(data["dim"])
        rows = [[*entry["normal"], entry["offset"]] for entry in data["halfspaces"]]
        for k, row in enumerate(rows):
            if len(row) != dim + 1:
                # a fault in an earlier entry is the one reported
                _unit_rows(np.array(rows[:k], dtype=float).reshape(-1, dim + 1))
                raise InputError(
                    f"halfspace normal {row[:-1]} does not have the declared "
                    f"dimension {dim}"
                )
        rows = _unit_rows(np.array(rows, dtype=float))
        if "vertices" in data:
            vertices = np.asarray(data["vertices"], dtype=float)
            return Polytope(rows, vertices, data.get("facet_vertices"))
        return Polytope.from_halfspaces(rows)
    if "surface" in data:
        from .surface import SurfaceMesh

        body = data["surface"]
        vertices = np.asarray(body["vertices"], dtype=float)
        faces = [tuple(int(i) for i in face) for face in body["faces"]]
        return SurfaceMesh(vertices, faces)
    params = dict(data["smooth2d"])
    return _smooth_kinds()[params.pop("kind")](**params)


def table_to_data(table) -> dict:
    """Serialize a table object to its JSON-ready dictionary."""
    from .geometry import Polytope

    if isinstance(table, Polytope):
        return {
            "dim": table.dim,
            "halfspaces": [
                {"normal": normal, "offset": offset}
                for normal, offset in zip(
                    table.normals.tolist(), table.offsets.tolist()
                )
            ],
            "vertices": table.vertices.tolist(),
            "facet_vertices": [list(f) for f in table.facet_vertices],
        }
    from .surface import SurfaceMesh

    if isinstance(table, SurfaceMesh):
        return {
            "surface": {
                "vertices": table.vertices.tolist(),
                "faces": [list(f) for f in table.faces],
            }
        }
    for kind, cls in _smooth_kinds().items():
        if isinstance(table, cls):
            return {"smooth2d": {"kind": kind, **vars(table)}}
    raise InputError(f"cannot serialize object of type {type(table).__name__}")


# -- file lookup -------------------------------------------------------------

def bundled_table_names() -> list[str]:
    """Names usable anywhere a table path is accepted."""
    base = resources.files("billiards").joinpath("data", "tables")
    return sorted(p.name[: -len(".json")] for p in base.iterdir()
                  if p.name.endswith(".json"))


def resolve_table(name_or_path) -> Path:
    """An existing file path, or a bundled table by (base)name."""
    path = Path(name_or_path)
    if path.exists():
        return path
    stem = path.name[: -len(".json")] if path.name.endswith(".json") else path.name
    bundled = resources.files("billiards").joinpath("data", "tables", f"{stem}.json")
    try:
        if bundled.is_file():
            return Path(str(bundled))
    except OSError:
        pass
    raise InputError(
        f"no table file at {name_or_path!r} and no bundled table of that "
        f"name (bundled: {', '.join(bundled_table_names())})"
    )


def load_table(name_or_path) -> Polytope | SurfaceMesh | SmoothTable:
    """Load a table file (or bundled table name) into its object form."""
    path = resolve_table(name_or_path)
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:  # a JSONDecodeError, or an integer too long
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return table_from_data(data)


def save_table(table, path) -> None:
    Path(path).write_text(dumps_json(table_to_data(table)))


# -- deterministic JSON ------------------------------------------------------

def format_float(x: float) -> str:
    """A float as a decimal literal with 17 significant digits.

    17 digits round-trip every IEEE double exactly, so two runs that compute
    bit-identical numbers emit byte-identical text.
    """
    if math.isnan(x):
        raise InputError("refusing to serialize NaN")
    return format(float(x), ".17g")


def _json_scalar(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format_float(v)
    if isinstance(value, str):
        return json.dumps(value)
    raise InputError(f"cannot serialize value of type {type(value).__name__}")


def _is_scalar(value) -> bool:
    return value is None or isinstance(
        value, (bool, int, float, str, np.bool_, np.integer, np.floating)
    )


def _emit(value, out: list[str], level: int) -> None:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise InputError("JSON object keys must be strings")
            out.append(f"{inner}{json.dumps(key)}: ")
            _emit(item, out, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
        return
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        if all(_is_scalar(item) for item in items):
            out.append("[" + ", ".join(_json_scalar(item) for item in items) + "]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(inner)
            _emit(item, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
        return
    out.append(_json_scalar(value))


def dumps_json(data) -> str:
    """Deterministic JSON text (fixed float formatting, insertion order)."""
    out: list[str] = []
    _emit(data, out, 0)
    out.append("\n")
    return "".join(out)


# -- CSV ---------------------------------------------------------------------

def _csv_cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """CSV with the package's fixed float formatting (17 significant digits)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(cell) for cell in row])


def trajectory_header(dim: int) -> list[str]:
    return ["t"] + [f"x{i}" for i in range(1, dim + 1)] + ["event"]


def trajectory_rows(trajectory) -> list[list]:
    """Fixed-order rows ``t, x1..xn, event`` for a polytope trajectory.

    The first row is the launch state (event ``start``), then one row per
    boundary hit (event ``facet`` or ``corner``), then the final position
    (event ``end``).
    """
    kinds = ["start", *(kind.value for kind in trajectory.kinds), "end"]
    return [
        [t, *point, kind]
        for t, point, kind in zip(
            trajectory.times.tolist(), trajectory.points.tolist(), kinds
        )
    ]
