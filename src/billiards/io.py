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

Only building a polytope or a mesh from parsed JSON imports numpy. The JSON
and CSV writers accept numpy scalars and arrays, but look numpy up in
``sys.modules`` instead of importing it (a process that never imported numpy
holds no numpy value), so writing a report of Python floats, as the
``corner`` subcommand does, needs no numpy.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

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

def _schema(filename: str) -> dict:
    """A fresh parse of a shipped schema, which its caller may change: the
    cached checks each compile their own."""
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

    The in-house check of :func:`_predicate` answers first. ``jsonschema``,
    whose import costs about as much as numpy's, is imported only when that
    answer is no, to word the refusal exactly as it always has.
    """
    if _predicate(filename)(data):
        return None
    import jsonschema

    return jsonschema.exceptions.best_match(_validator(filename).iter_errors(data))


# A yes/no check with Draft 2020-12 semantics for the keywords the shipped
# schemas use. Any other keyword raises when a schema is compiled, so the
# JSON files stay the one copy of the rules.

# annotations, definitions, and ``then``, which its sibling ``if`` applies
_NOT_CHECKS = frozenset({"$schema", "$id", "title", "description", "$defs", "then"})


def _is_number(x) -> bool:
    # jsonschema's test: numpy scalars count, and a bool is no number
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    # an integral float such as 2.0 is an integer; a bool is not
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality: ``true`` is not ``1``, and ``1`` is ``1.0``."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _compile(schema, defs: dict):
    """The predicate ``instance -> bool`` of ``schema``; ``defs`` maps each
    name under the root's ``$defs`` to its predicate, looked up at call time
    so that a reference may precede its definition."""
    if isinstance(schema, bool):
        return (lambda x: True) if schema else (lambda x: False)
    checks = [
        _keyword(key, value, schema, defs)
        for key, value in schema.items()
        if key not in _NOT_CHECKS
    ]
    return lambda x: all(check(x) for check in checks)


def _keyword(key: str, value, schema: dict, defs: dict):
    """The check of one keyword of ``schema``. Every check but ``type``,
    ``enum``, ``const``, ``$ref`` and the combinators passes an instance of a
    type it does not constrain."""
    if key == "type":
        if not isinstance(value, str) or value not in _TYPES:
            raise ValueError(f"unsupported schema type {value!r}")
        return _TYPES[value]
    if key == "enum":
        return lambda x: any(_equal(x, v) for v in value)
    if key == "const":
        return lambda x: _equal(x, value)
    if key == "required":
        return lambda x: not isinstance(x, dict) or all(k in x for k in value)
    if key == "properties":
        props = {k: _compile(sub, defs) for k, sub in value.items()}
        return lambda x: not isinstance(x, dict) or all(
            check(x[k]) for k, check in props.items() if k in x
        )
    if key == "additionalProperties":
        known = frozenset(schema.get("properties", ()))
        extra = _compile(value, defs)
        return lambda x: not isinstance(x, dict) or all(
            extra(x[k]) for k in x if k not in known
        )
    if key == "items":
        item = _compile(value, defs)
        return lambda x: not isinstance(x, list) or all(map(item, x))
    if key == "minItems":
        return lambda x: not isinstance(x, list) or len(x) >= value
    if key == "maxItems":
        return lambda x: not isinstance(x, list) or len(x) <= value
    if key == "minimum":
        return lambda x: not _is_number(x) or not x < value
    if key == "exclusiveMinimum":
        return lambda x: not _is_number(x) or not x <= value
    if key == "$ref":
        name = value.removeprefix("#/$defs/")
        if name == value or name not in defs:
            raise ValueError(f"unsupported schema reference {value!r}")
        return lambda x: defs[name](x)
    if key in ("allOf", "anyOf", "oneOf"):
        subs = [_compile(sub, defs) for sub in value]
        if key == "allOf":
            return lambda x: all(sub(x) for sub in subs)
        if key == "anyOf":
            return lambda x: any(sub(x) for sub in subs)
        return lambda x: sum(sub(x) for sub in subs) == 1
    if key == "not":
        sub = _compile(value, defs)
        return lambda x: not sub(x)
    if key == "if":
        # no ``else``: an instance that fails ``if`` passes
        test, then = _compile(value, defs), _compile(schema.get("then", True), defs)
        return lambda x: not test(x) or then(x)
    raise ValueError(f"unsupported schema keyword {key!r}")


def _compile_root(schema: dict):
    """The predicate of a root schema and of everything under its ``$defs``."""
    defs = dict.fromkeys(schema.get("$defs", {}))
    for name, sub in schema.get("$defs", {}).items():
        defs[name] = _compile(sub, defs)
    return _compile(schema, defs)


@functools.cache
def _predicate(filename: str):
    """Whether an instance satisfies the shipped schema ``filename``: the
    verdict of ``jsonschema``'s ``is_valid``, without importing it."""
    return _compile_root(_schema(filename))


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

def _smooth_kinds() -> dict[str, tuple[type[SmoothTable], tuple[str, ...]]]:
    """The ``smooth2d`` kinds, each with its class and the names of its
    constructor's parameters. A table keeps each parameter as the attribute
    of that name; those attributes, and no other, are its payload."""
    from .smooth import Circle, Ellipse, PerturbedCircle

    return {
        "circle": (Circle, ("radius",)),
        "ellipse": (Ellipse, ("a", "b")),
        "perturbed": (PerturbedCircle, ("delta", "k")),
    }


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
    import numpy as np

    if "halfspaces" in data:
        from .geometry import Polytope, _unit_rows

        dim = int(data["dim"])
        rows = [[*entry["normal"], entry["offset"]] for entry in data["halfspaces"]]
        for k, row in enumerate(rows):
            if len(row) != dim + 1:
                # a fault in an earlier entry is the one reported; there is
                # none before row 0, and a dim that row 0 does not fit may be
                # too large to shape any array by
                if k:
                    _unit_rows(np.array(rows[:k], dtype=float).reshape(-1, dim + 1))
                raise InputError(
                    f"halfspace normal {row[:-1]} does not have the declared "
                    f"dimension {dim}"
                )
        rows = _unit_rows(np.array(rows, dtype=float))
        if "vertices" in data:
            for k, vertex in enumerate(data["vertices"]):
                if len(vertex) != dim:
                    raise InputError(
                        f"vertex {k} {vertex} does not have the declared "
                        f"dimension {dim}"
                    )
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
    cls, _ = _smooth_kinds()[params.pop("kind")]
    return cls(**params)


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
    for kind, (cls, names) in _smooth_kinds().items():
        if isinstance(table, cls):
            params = {name: getattr(table, name) for name in names}
            return {"smooth2d": {"kind": kind, **params}}
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


def _value_types() -> tuple:
    """``(bools, ints, floats, arrays)``, the types a JSON or CSV value may
    have: Python's, and numpy's once this process has imported numpy. A
    process that never imported numpy holds no numpy value, so the check
    imports nothing."""
    np = sys.modules.get("numpy")
    if np is None:
        return bool, int, float, ()
    return (bool, np.bool_), (int, np.integer), (float, np.floating), np.ndarray


def _json_scalar(value, types) -> str:
    bools, ints, floats, _ = types
    if isinstance(value, bools):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, ints):
        return str(int(value))
    if isinstance(value, floats):
        v = float(value)
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format_float(v)
    if isinstance(value, str):
        return json.dumps(value)
    raise InputError(f"cannot serialize value of type {type(value).__name__}")


def _is_scalar(value, types) -> bool:
    bools, ints, floats, _ = types
    return value is None or isinstance(value, (str, bools, ints, floats))


def _emit(value, out: list[str], level: int, types: tuple) -> None:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, types[3]):  # a numpy array
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
            _emit(item, out, level + 1, types)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
        return
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        if all(_is_scalar(item, types) for item in items):
            out.append(
                "[" + ", ".join(_json_scalar(item, types) for item in items) + "]"
            )
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(inner)
            _emit(item, out, level + 1, types)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
        return
    out.append(_json_scalar(value, types))


def dumps_json(data) -> str:
    """Deterministic JSON text (fixed float formatting, insertion order)."""
    out: list[str] = []
    _emit(data, out, 0, _value_types())
    out.append("\n")
    return "".join(out)


# -- CSV ---------------------------------------------------------------------

def _csv_cell(value, types) -> str:
    bools, ints, floats, _ = types
    if isinstance(value, bools):
        return "true" if value else "false"
    if isinstance(value, floats):
        return format_float(float(value))
    if isinstance(value, ints):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """CSV with the package's fixed float formatting (17 significant digits)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            # per row: a generator of rows may import numpy as it goes
            types = _value_types()
            writer.writerow([_csv_cell(cell, types) for cell in row])


def trajectory_header(dim: int) -> list[str]:
    return ["t"] + [f"x{i}" for i in range(1, dim + 1)] + ["event"]


def trajectory_rows(run) -> list[list]:
    """Fixed-order rows ``t, x1..xn, event`` for a polytope trajectory or a
    surface geodesic: the launch state (event ``start``), one row per event
    (``facet`` or ``corner`` for a polytope hit, ``edge a-b`` or ``vertex v``
    for a geodesic), then the final position (event ``end``).
    """
    names = ["start", *run._event_names(), "end"]
    return [
        [t, *point, name]
        for t, point, name in zip(run.times.tolist(), run.points.tolist(), names)
    ]
