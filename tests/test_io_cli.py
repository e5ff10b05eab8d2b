"""Table files, deterministic reports, CLI behavior and exit codes."""

import importlib
import importlib.util
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import billiards
from billiards import cli, errors
from billiards.cli import main
from billiards.errors import BounceBudgetExceededError, InputError
from billiards.geometry import Polytope
from billiards.io import (
    bundled_table_names,
    dumps_json,
    format_float,
    load_table,
    report_schema,
    save_table,
    table_from_data,
    table_schema,
    table_to_data,
    validate_report_data,
    validate_table_data,
)
from billiards.io import _compile_root, _predicate, _validator
from billiards.smooth import Ellipse
from billiards.surface import SurfaceMesh
from billiards.tables import BUILDERS, build


# -- file format -------------------------------------------------------------

def test_every_bundled_table_loads(tmp_path):
    names = bundled_table_names()
    assert set(names) == set(BUILDERS)
    for name in names:
        load_table(name)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_bundled_file_is_its_builder_serialized(name):
    """Each bundled file is the text its builder serializes to. Text, not
    loaded objects: loading renormalizes halfspace normals, which may move
    them in the last bit."""
    text = resources.files("billiards").joinpath(
        "data", "tables", f"{name}.json"
    ).read_text()
    assert dumps_json(table_to_data(build(name))) == text


@pytest.mark.parametrize("schema", [table_schema, report_schema])
def test_shipped_schemas_are_valid_against_their_metaschema(schema):
    """Validation skips the metaschema check on every call; this is it."""
    schema = schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_polytope_roundtrip(tmp_path):
    poly = Polytope.convex_polygon([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
    path = tmp_path / "tri.json"
    save_table(poly, path)
    again = load_table(path)
    assert isinstance(again, Polytope)
    assert np.allclose(again.normals, poly.normals, atol=1e-15)
    assert np.allclose(again.offsets, poly.offsets, atol=1e-15)
    assert np.allclose(again.vertices, poly.vertices, atol=1e-15)
    assert again.facet_vertices == poly.facet_vertices


def test_surface_roundtrip(tmp_path):
    mesh = SurfaceMesh.cube(1.0)
    path = tmp_path / "cube.json"
    save_table(mesh, path)
    again = load_table(path)
    assert isinstance(again, SurfaceMesh)
    assert np.allclose(again.vertices, mesh.vertices)
    assert again.faces == mesh.faces


def test_smooth_roundtrip(tmp_path):
    path = tmp_path / "oval.json"
    save_table(Ellipse(2.0, 1.0), path)
    again = load_table(path)
    assert isinstance(again, Ellipse)
    assert again.a == 2.0 and again.b == 1.0


def test_a_smooth_payload_holds_only_the_constructor_parameters():
    """A smooth table serializes its constructor's parameters and nothing
    else: an extra instance attribute, such as the bound method a removed
    monkeypatch leaves behind, does not reach the payload."""
    table = Ellipse(2.0, 1.0)
    table.frame = table.frame
    table.note = "not a parameter"
    assert table_to_data(table) == table_to_data(Ellipse(2.0, 1.0)) == {
        "smooth2d": {"kind": "ellipse", "a": 2.0, "b": 1.0}
    }
    assert dumps_json(table_to_data(table)) == dumps_json(
        table_to_data(Ellipse(2.0, 1.0))
    )


def test_normals_normalized_on_load_preserving_geometry():
    data = {
        "dim": 2,
        "halfspaces": [
            {"normal": [3.0, 0.0], "offset": 3.0},
            {"normal": [-5.0, 0.0], "offset": 0.0},
            {"normal": [0.0, 2.0], "offset": 2.0},
            {"normal": [0.0, -7.0], "offset": 0.0},
        ],
    }
    poly = table_from_data(data)
    assert np.allclose(np.linalg.norm(poly.normals, axis=1), 1.0, atol=1e-15)
    assert poly.contains([0.5, 0.5])
    assert not poly.contains([1.5, 0.5])


MALFORMED_TABLES = [
    {"dim": 2},  # missing halfspaces
    {"halfspaces": [{"normal": [1, 0], "offset": 1}]},  # missing dim
    {"smooth2d": {"kind": "hyperbola"}},  # unknown kind
    {"smooth2d": {"kind": "circle", "a": 2.0}},  # wrong parameter
    {"surface": {"vertices": [[0, 0, 0]]}},  # missing faces
    {"dim": 2, "halfspaces": [], "extra": 1},  # extra key
]


@pytest.mark.parametrize("payload", MALFORMED_TABLES)
def test_schema_rejects_malformed_tables(payload):
    with pytest.raises(InputError):
        table_from_data(payload)


def test_mismatched_facet_vertices_rejected():
    square = Polytope.box((0.0, 0.0), (1.0, 1.0))
    data = {
        "dim": 2,
        "halfspaces": [
            {"normal": normal, "offset": offset}
            for normal, offset in zip(
                square.normals.tolist(), square.offsets.tolist()
            )
        ],
        "vertices": square.vertices.tolist(),
        "facet_vertices": [[0, 1]] * 4,  # wrong incidences
    }
    with pytest.raises(InputError):
        table_from_data(data)


# -- deterministic serialization ---------------------------------------------

def test_float_formatting_has_17_significant_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(2.0 / 3.0) == "0.66666666666666663"
    # the printed form round-trips to the identical double
    for x in (math.pi, 1e-300, 3.0e17, -0.4973):
        assert float(format_float(x)) == x


def test_dumps_json_is_deterministic_and_reparses():
    payload = {
        "b": [1.0, 0.5, float("inf")],
        "a": {"nested": [1, 2, 3], "flag": True, "none": None},
    }
    one = dumps_json(payload)
    two = dumps_json(payload)
    assert one == two
    parsed = json.loads(one)
    assert parsed["b"][2] == "inf"
    assert parsed["a"]["nested"] == [1, 2, 3]


def test_dumps_json_writes_an_array_as_its_list():
    values = np.array([[0.1, -2.0], [3e-17, float("inf")]])
    assert dumps_json(values) == dumps_json(values.tolist())
    payload = {"points": values, "time": np.float64(0.5)}
    assert dumps_json(payload) == dumps_json({"points": values.tolist(), "time": 0.5})


def test_dumps_json_refuses_nan():
    with pytest.raises(InputError):
        dumps_json({"x": float("nan")})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: dumps_json({"x": {1, 2}}),
                     "cannot serialize value of type set", id="set-value"),
        pytest.param(lambda: dumps_json({1: 2.0}),
                     "JSON object keys must be strings", id="int-key"),
        pytest.param(lambda: table_to_data(object()),
                     "cannot serialize object of type object", id="no-table"),
        pytest.param(lambda: build("nope"),
                     "unknown bundled table 'nope'; choose from "
                     + ", ".join(sorted(BUILDERS)), id="unknown-bundled"),
    ],
)
def test_writers_and_builders_refuse_what_they_cannot_hold(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert type(info.value) is InputError
    assert str(info.value) == message


# -- CLI ---------------------------------------------------------------------

def _run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_simulate_square_example(tmp_path, capsys):
    csv_path = tmp_path / "run.csv"
    code, out = _run_cli(
        capsys, "simulate", "square", "0.25,0", "0,1", "4",
        "--csv", str(csv_path),
    )
    assert code == 0
    report = json.loads(out)
    validate_report_data(report)
    assert report["result"]["n_bounces"] == 4
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "t,x1,x2,event"
    bounce_rows = [r for r in rows[1:] if r.split(",")[-1]
                   not in ("start", "end")]
    assert len(bounce_rows) == 4


def test_cli_output_is_byte_identical(capsys):
    code1, out1 = _run_cli(capsys, "check-alcove", "triangle_G2")
    code2, out2 = _run_cli(capsys, "check-alcove", "triangle_G2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_out_flag_mirrors_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = _run_cli(
        capsys, "check-alcove", "rectangle", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == out
    report = json.loads(out)
    assert report["result"]["is_alcove"] is True
    assert report["result"]["label"] == "A1~ x A1~"


def test_cli_check_alcove_reports_failures(capsys):
    code, out = _run_cli(capsys, "check-alcove", "triangle_nonalcove")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["is_alcove"] is False
    assert result["label"] is None
    assert result["failures"]
    first = result["failures"][0]
    assert math.isclose(
        first["nearest_angle"], math.pi / first["nearest_m"], abs_tol=1e-12
    )


def test_cli_strict_corner_exit_code(capsys):
    code, _ = _run_cli(
        capsys, "simulate", "square", "0.25,0.25", "1,1", "3",
        "--policy", "strict",
    )
    assert code == 3


def test_cli_foldgroup_passes_corners(capsys):
    code, out = _run_cli(
        capsys, "simulate", "triangle_A2", "0.5,0.2", "0,1", "3",
        "--policy", "foldgroup",
    )
    assert code == 0
    kinds = {e["kind"] for e in json.loads(out)["result"]["events"]}
    assert "corner" in kinds


def _one_error_line(capsys, *argv) -> str:
    """The single stderr line of a CLI call that must exit 2."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("simulate", "square", "", "0,1", "1"), "empty vector argument ''"),
        (("simulate", "square", "0.25,x", "0,1", "1"),
         "cannot parse vector argument '0.25,x'"),
        (("simulate", "circle", "0.25,0", "0,1", "1"),
         "'circle' is not a polytope table (got Circle)"),
        (("surface", "circle", "--report"), "'circle' is not a surface mesh"),
        (("corner", "--sweep", "0.1", "1.0", "many"),
         "sweep count 'many' is not an integer"),
        (("corner", "--sweep", "1.0", "0.1", "5"), "sweep needs 0 < LO < HI < pi"),
        (("corner",), "corner needs exactly one of ALPHA or --sweep"),
        (("corner", "0.7", "--sweep", "0.1", "1.0", "5"),
         "corner needs exactly one of ALPHA or --sweep"),
        (("surface", "cube", "--disphenoid"), "needs a tetrahedron mesh"),
        (("surface", "cube", "--geodesic", "nan", "0.5,0.5,0", "1,0,0", "1"),
         "face index 'nan' is not an integer"),
        (("surface", "cube", "--geodesic", "inf", "0.5,0.5,0", "1,0,0", "1"),
         "face index 'inf' is not an integer"),
        (("surface", "cube", "--geodesic", "1.5", "0.5,0.5,0", "1,0,0", "1"),
         "face index '1.5' is not an integer"),
        (("smooth", "circle", "--laws", "--alphas", "2"),
         "launch angles must lie in (0, pi/2)"),
        (("smooth", "circle", "--laws", "--alphas", "nan"),
         "launch angles must lie in (0, pi/2)"),
        (("smooth", "circle", "--converge", "--alphas", "0.02,nan"),
         "launch angles must lie in (0, pi/2)"),
        (("smooth", "circle", "--laws", "--alphas", "0.01"),
         "needs two distinct launch angles"),
        (("smooth", "circle", "--converge", "--alphas", "0.02,0.02"),
         "needs two distinct launch angles"),
        (("smooth", "circle", "--laws", "--alphas", "1e-5,2e-5"),
         "launch angle 1e-05 is too small: a full loop makes more than 100000 "
         "bounces"),
        (("smooth", "circle", "--converge", "--alphas", "0.02,5e-324"),
         "launch angle 5e-324 is too small: a full loop makes more than 100000 "
         "bounces"),
        (("simulate", "square", "0.25,0.5", "1,0.3", "1", "--policy", "bogus"),
         "unknown corner policy 'bogus'; choose from "
         "['strict', 'point-reflect', 'fold-group']"),
        (("simulate", "square", "nan,0.5", "0,1", "1"),
         "non-finite coordinates: [nan 0.5]"),
        (("simulate", "square", "0.25,0.5,0.1", "0,1,0", "1"),
         "state and table dimensions differ"),
        # just below 2*pi/3, a face crossing of the shot sits out at ~1e16
        (("corner", "2.094395102393195"),
         "shot geometry is degenerate: a face crossing sits asymptotically far "
         "out (opening at a parity boundary)"),
    ],
)
def test_cli_refuses_bad_arguments_in_one_line(capsys, argv, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = _one_error_line(capsys, *argv)
    assert line.startswith("billiards: error: ")
    assert fragment in line


@pytest.mark.parametrize("direction", ["-1,0,0", "1,0,0"])
def test_cli_refuses_a_geodesic_start_off_its_face(capsys, direction):
    """(5, 5, 0) is on the plane of the cube's face 0 but not on the face:
    whichever way the geodesic points, one line names the face and the
    edge, where the trace once ended off the cube or found no exit."""
    argv = ("surface", "cube", "--geodesic", "0", "5,5,0", direction, "3")
    line = _refusal(capsys, *argv)
    assert line == (
        "billiards: error: start point lies 4.000e+00 beyond edge (1, 2) of face 0"
    )


def test_cli_refuses_a_table_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text("{not json")
    line = _one_error_line(capsys, "simulate", str(path), "0.2,0.2", "0,1", "1")
    assert line == (
        f"billiards: error: {path} is not valid JSON: Expecting property name "
        "enclosed in double quotes: line 1 column 2 (char 1)"
    )


def test_cli_without_a_subcommand_prints_usage(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: billiards")


def test_cli_foldgroup_refuses_a_non_alcove_before_the_run(capsys):
    # the shot meets one facet and no corner
    line = _one_error_line(
        capsys, "simulate", "triangle_nonalcove", "0.4,0.3", "0,-1", "0.5",
        "--policy", "foldgroup",
    )
    assert line.startswith("billiards: error: dihedral angle ")
    assert "away from pi/" in line


def test_cli_refuses_a_horizon_whose_bounce_budget_overflows(capsys):
    line = _one_error_line(
        capsys, "simulate", "square", "0.5,0.5", "1,0", "1e308"
    )
    assert line == (
        "billiards: error: horizon 1e+308 is too long: its bounce budget "
        "overflows"
    )


def test_cli_input_errors_exit_2(tmp_path, capsys):
    assert _run_cli(capsys, "simulate", "nope", "0,0", "1,1", "1")[0] == 2
    assert _run_cli(capsys, "simulate", "square", "5,5", "1,1", "1")[0] == 2
    assert _run_cli(capsys, "simulate", "square", "0.5,0.5", "1,0", "x")[0] == 2
    svg = tmp_path / "x.svg"
    assert _run_cli(
        capsys, "simulate", "simplex_A3", "0.1,0.05,0.02", "1,0.3,0.2", "1",
        "--svg", str(svg),
    )[0] == 2
    assert not svg.exists()


@pytest.mark.parametrize("offset", ["nan", "inf"])
def test_cli_corner_refuses_a_non_finite_offset(offset, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["corner", "1.1", "--offset", offset])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"billiards: error: offset must be finite, got {offset}\n"


def _refusal(capsys, *argv) -> str:
    """The one error line of a CLI call that must exit 2, with every warning
    raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _one_error_line(capsys, *argv)


@pytest.mark.parametrize("alpha", ["1e-7", "1e-300"])
def test_cli_corner_refuses_an_opening_too_small_to_trace(alpha, capsys):
    line = _refusal(capsys, "corner", alpha)
    assert line == (
        f"billiards: error: wedge opening {float(alpha)} is too small to "
        "trace: a shot makes more than 100000 bounces"
    )


def test_cli_corner_refuses_an_offset_whose_trace_overflows(capsys):
    line = _refusal(capsys, "corner", "1", "--offset", "1e308")
    assert line == (
        "billiards: error: offset 1e+308 is too large: the shot's crossing "
        "times overflow"
    )
    code, out = _run_cli(capsys, "corner", "1", "--offset", "1e290")
    shots = json.loads(out)["result"]["shots"]
    assert code == 0
    assert shots["above"]["bounce_count"] == shots["below"]["bounce_count"] == 3


def test_cli_corner_refuses_a_sweep_count_above_a_million(capsys):
    line = _refusal(capsys, "corner", "--sweep", "0.1", "3", "1000000000000")
    assert line == (
        "billiards: error: sweep count 1000000000000 is above the limit of "
        "1000000"
    )


def test_sweep_openings_are_numpy_linspace():
    """``_linspace`` is ``np.linspace``, bit for bit: on seeded sweeps,
    counts at the edges of the arithmetic, and spans of a few ulps at
    subnormal openings, where the step underflows to zero."""
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(500):
        lo = float(rng.uniform(1e-4, 3.0))
        cases.append((lo, float(rng.uniform(lo, math.pi)), int(rng.integers(2, 3000))))
    cases += [(0.3, 2.6, n) for n in (2, 3, 600, 8191, 8192, 8193, 1_000_000)]
    for lo in (1.8e-308, 2.2e-308, 0.3):
        hi = lo
        for _ in range(4):
            hi = math.nextafter(hi, 1.0)
            cases += [(lo, hi, n) for n in (2, 3, 4, 7, 1000)]
    assert any((hi - lo) / (n - 1) == 0.0 for lo, hi, n in cases)
    for lo, hi, n in cases:
        assert cli._linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()


def test_sweep_mean_is_numpy_mean():
    """``_mean`` adds in numpy's pairwise order: the same bits as
    ``np.mean`` and ``np.add.reduce`` at every size below 300 and around
    the block and buffer sizes, on values that span ten decades."""
    rng = np.random.default_rng(29)
    sizes = [*range(1, 300), 1023, 1024, 1025, 8191, 8192, 8193, 100_003, 1_000_000]
    for n in sizes:
        values = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-10.0, 0.0, n)
        xs = values.tolist()
        assert cli._pairwise_sum(xs, 0, n) == float(np.add.reduce(values)), n
        assert cli._mean(xs) == float(values.mean()), n


@pytest.mark.parametrize("mode", ["--report", "--disphenoid"])
@pytest.mark.parametrize(
    "vertex, message",
    [
        ([1.0, 0.0, math.nan], "vertex 1 has non-finite coordinates [ 1.  0. nan]"),
        ([1e120, 0.0, 0.0], "vertex 1 has a coordinate of magnitude 1e+120; "
         "surface coordinates must be at most 1e+76"),
    ],
)
def test_cli_surface_refuses_a_vertex_it_cannot_measure(
    mode, vertex, message, tmp_path, capsys
):
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps({"surface": {
        "vertices": [[0, 0, 0], vertex, [0, 1, 0], [0, 0, 1]],
        "faces": [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]],
    }}))
    line = _refusal(capsys, "surface", str(path), mode)
    assert line.startswith(f"billiards: error: {message}")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("vertex", math.nan, "vertex 3 has non-finite coordinates [ 1. nan]"),
        ("offset", math.inf, "halfspace offset must be finite, got inf"),
        ("normal", math.inf, "non-finite coordinates: [inf  0.]"),
        ("normal", math.nan, "non-finite coordinates: [nan  0.]"),
    ],
)
def test_cli_refuses_a_table_file_with_non_finite_data(
    field, value, message, tmp_path, capsys
):
    """JSON's NaN and Infinity parse as floats; the table is refused with one
    error line, not a misleading verdict or a numpy warning."""
    data = table_to_data(Polytope.box((0.0, 0.0), (1.0, 1.0)))
    if field == "vertex":
        data["vertices"][3][1] = value
    elif field == "normal":
        data["halfspaces"][0]["normal"][0] = value
    else:
        data["halfspaces"][0]["offset"] = value
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check-alcove", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"billiards: error: {message}\n"


@pytest.mark.parametrize(
    "normal, message",
    [
        (
            [1e200, 1e200],
            "halfspace 0 has a normal coordinate of magnitude 1e+200; its "
            "squared length overflows",
        ),
        (
            [1e-300, 0.0],
            "halfspace 0 has a normal coordinate of magnitude 1e-300; its "
            "squared length underflows",
        ),
    ],
)
def test_cli_refuses_a_table_file_whose_normal_square_leaves_the_range(
    normal, message, tmp_path, capsys
):
    data = table_to_data(Polytope.box((0.0, 0.0), (1.0, 1.0)))
    data["halfspaces"][0]["normal"] = normal
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check-alcove", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"billiards: error: {message}\n"


def _square_rows(offset):
    return [
        {"normal": normal, "offset": offset}
        for normal in ([1, 0], [-1, 0], [0, 1], [0, -1])
    ]


OUT_OF_RANGE_TABLES = [
    pytest.param(
        {"dim": 2, "halfspaces": [
            {"normal": [1, 0], "offset": 10**400}, *_square_rows(1)[1:]
        ]},
        "table data leaves the float range (int too large to convert to float)",
        id="integer-offset-beyond-floats",
    ),
    pytest.param(
        {"dim": 2, "halfspaces": _square_rows(1e200)},
        "halfspace 0 has offset 1e+200; its facet has no point with "
        "coordinates at most 1e+153",
        id="huge-offsets-no-vertices",
    ),
]


@pytest.mark.parametrize("data, message", OUT_OF_RANGE_TABLES)
def test_cli_refuses_out_of_range_table_numbers_in_one_line(
    data, message, tmp_path, capsys
):
    """A number no float holds, or offsets whose vertices no check could
    square, end in one error line: no traceback and no numpy warning."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check-alcove", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"billiards: error: {message}\n"


NO_OVALS = [
    ({"kind": "perturbed", "delta": -1.0, "k": 2}, "delta"),
    ({"kind": "perturbed", "delta": 1.5, "k": 1}, "delta"),
    ({"kind": "ellipse", "a": 1e200, "b": 1}, "semi-axis a"),
    ({"kind": "ellipse", "a": 1e-200, "b": 1}, "semi-axis a"),
]


@pytest.mark.parametrize("params, name", NO_OVALS)
def test_cli_smooth_refuses_a_table_that_is_no_oval_in_one_line(
    params, name, tmp_path, capsys
):
    """A perturbed circle whose radius reaches zero or goes negative, or an
    ellipse whose curvature leaves the float range, is refused when the
    table is built."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"smooth2d": params}))
    code = main(["smooth", str(path), "--laws"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"billiards: error: {name} must")


@pytest.mark.parametrize("a", [300.0, 1000.0])
def test_cli_smooth_refuses_a_run_that_leaves_the_small_angles_in_one_line(
    a, tmp_path, capsys
):
    """On a thin ellipse the first chord of the laws run crosses the table;
    the refusal names the run, not a base angle the caller never gave."""
    path = tmp_path / "table.json"
    table = {"smooth2d": {"kind": "ellipse", "a": a, "b": 1}}
    path.write_text(json.dumps(table))
    line = _one_error_line(capsys, "smooth", str(path), "--laws")
    assert line.startswith(
        "billiards: error: the ellipse run launched at base angle 0.04 "
        "reached base angle 3.1"
    )
    assert line.endswith(" after bounce 1, outside (0, pi/2)")


_ZERO = ({"normal": [0.0, 0.0], "offset": 1.0}, "halfspace normal may not be zero")
_WIDE = (
    {"normal": [1.0, 0.0, 0.0], "offset": 1.0},
    "halfspace normal [1.0, 0.0, 0.0] does not have the declared dimension 2",
)
_NAN_OFFSET = (
    {"normal": [0.0, 3.0], "offset": math.nan},
    "halfspace offset must be finite, got nan",
)


@pytest.mark.parametrize("vertices", [False, True])
@pytest.mark.parametrize(
    "first, second",
    [(_ZERO, _WIDE), (_WIDE, _ZERO), (_NAN_OFFSET, _WIDE), (_WIDE, _NAN_OFFSET)],
)
def test_loader_reports_the_first_faulty_entry(first, second, vertices):
    data = table_to_data(Polytope.box((0.0, 0.0), (1.0, 1.0)))
    if not vertices:
        del data["vertices"], data["facet_vertices"]
    data["halfspaces"][1] = first[0]
    data["halfspaces"][3] = second[0]
    with pytest.raises(InputError) as info:
        table_from_data(data)
    assert type(info.value) is InputError
    assert str(info.value) == first[1]


def _bundled_data(name: str) -> dict:
    text = resources.files("billiards").joinpath(
        "data", "tables", f"{name}.json"
    ).read_text()
    return json.loads(text)


# square.json with vertex 1 cut short, or with a dim no array can be shaped by
SHAPELESS_TABLES = [
    pytest.param(
        {"vertices": [[0, 0], [1], [0, 1], [1, 1]]},
        "vertex 1 [1] does not have the declared dimension 2",
        id="ragged-vertices",
    ),
    pytest.param(
        {"dim": 2**62},
        "halfspace normal [1, 0] does not have the declared dimension "
        "4611686018427387904",
        id="huge-dim",
    ),
]


@pytest.mark.parametrize("edit, message", SHAPELESS_TABLES)
def test_table_whose_rows_fit_no_array_is_refused_in_one_line(
    edit, message, tmp_path, capsys
):
    """Rows of unequal lengths, or a dim too large to shape an array by, are
    refused by the row that does not fit, before any array is built."""
    data = {**_bundled_data("square"), **edit}
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        table_from_data(data)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    line = _one_error_line(capsys, "check-alcove", str(path))
    assert line == f"billiards: error: {message}"


def test_cli_budget_exit_4(monkeypatch, capsys):
    import billiards.dynamics

    def explode(*args, **kwargs):
        raise BounceBudgetExceededError("budget gone")

    # the simulate handler reads the function from its module at call time
    monkeypatch.setattr(billiards.dynamics, "simulate", explode)
    code, _ = _run_cli(capsys, "simulate", "square", "0.5,0.5", "1,0", "1")
    assert code == 4


EXIT_CODES = {
    errors.InputError: 2,
    errors.DimensionMismatchError: 2,
    errors.RedundantHalfspaceError: 2,
    errors.UnboundedRegionError: 2,
    errors.OutsideTableError: 2,
    errors.NotAcuteError: 2,
    errors.OpenSurfaceError: 2,
    errors.DegenerateStartError: 2,
    errors.NotAnAlcoveError: 2,
    errors.CornerAmbiguousError: 3,
    errors.VertexHitError: 3,
    errors.BudgetExceededError: 4,
    errors.BounceBudgetExceededError: 4,
    errors.WordBudgetExceededError: 4,
    errors.NoProgressError: 4,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_cli_maps_every_error_class_to_its_exit_code(monkeypatch, capsys):
    import billiards.cli as cli_module

    assert set(_subclasses(errors.BilliardsError)) == set(EXIT_CODES)
    for cls, expected in EXIT_CODES.items():
        if cls is errors.CornerAmbiguousError:
            exc = cls((0.0, 0.0), (0, 1))
        elif cls is errors.VertexHitError:
            exc = cls(3, (0.0, 0.0, 1.0))
        else:
            exc = cls("boom")

        def explode(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli_module, "_cmd_check_alcove", explode)
        code = main(["check-alcove", "square"])
        captured = capsys.readouterr()
        assert code == expected, cls.__name__
        assert captured.out == ""
        assert captured.err.startswith("billiards: "), cls.__name__
        assert captured.err.count("\n") == 1, cls.__name__
        assert "Traceback" not in captured.err


def test_cli_vertex_hit_exit_3(capsys):
    code, _ = _run_cli(
        capsys, "surface", "cube",
        "--geodesic", "1", "0.5,0.5,1", "1,1,0", "2",
    )
    assert code == 3


def test_cli_corner_single_and_sweep(tmp_path, capsys):
    code, out = _run_cli(capsys, "corner", "0.7853981633974483")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["m"] == 4
    assert result["continuous"] is True

    csv_path = tmp_path / "gaps.csv"
    code, out = _run_cli(
        capsys, "corner", "--sweep", "0.2", "3.0", "50",
        "--csv", str(csv_path),
    )
    assert code == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "alpha,m,beta,gap,continuous"
    assert len(rows) == 51


def test_cli_refused_sweep_writes_no_csv(tmp_path, capsys):
    """The rows are written as they are evaluated, but an opening whose
    pi/alpha overflows is refused before the CSV file is opened."""
    csv_path = tmp_path / "gaps.csv"
    line = _refusal(
        capsys, "corner", "--sweep", "1e-310", "1.0", "10", "--csv", str(csv_path)
    )
    assert line == (
        "billiards: error: wedge opening 1e-310 is too small: pi/alpha overflows"
    )
    assert not csv_path.exists()


def test_cli_corner_svg(tmp_path, capsys):
    svg_path = tmp_path / "fan.svg"
    code, _ = _run_cli(
        capsys, "corner", "0.9", "--svg", str(svg_path)
    )
    assert code == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_cli_surface_report(capsys):
    code, out = _run_cli(capsys, "surface", "tetra_regular", "--report")
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(result["gauss_bonnet_error"]) < 1e-9
    assert result["orbifold"]["orders"] == [2, 2, 2, 2]

    code, out = _run_cli(capsys, "surface", "cube", "--report")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["orbifold"]["is_orbifold"] is False


def test_cli_surface_geodesic_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "geo.csv"
    # the direction starts with a bare minus sign: the parser must read it
    # as a value, not an option
    code, out = _run_cli(
        capsys, "surface", "disphenoid_456",
        "--geodesic", "0",
        "3.1622776601683795,2.4494897427831783,1.0540925533894598",
        "-4.7434164902525691,0.57409915846480752,1.3340858878835351",
        "30",
        "--csv", str(csv_path),
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["n_crossings"] > 0
    assert result["straightness_residual"] < 1e-10
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "t,x1,x2,x3,event"
    assert rows[1].endswith("start")
    assert rows[-1].endswith("end")


def test_cli_geodesic_csv_rows_pass_vertices_in_time_order(tmp_path, capsys):
    """From the centroid of face 0 of disphenoid_456 towards vertex 2: the
    geodesic retraces there, crosses edge 1-3 and retraces at vertex 0."""
    csv_path = tmp_path / "geo.csv"
    code, out = _run_cli(
        capsys, "surface", "disphenoid_456",
        "--geodesic", "0",
        "3.1622776601683795,2.4494897427831783,1.0540925533894598",
        "1.5811388300841895,-2.4494897427831783,0.5270462766947299",
        "12",
        "--csv", str(csv_path),
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["n_crossings"], result["n_vertex_passages"]) == (1, 2)
    rows = [row.split(",") for row in csv_path.read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == [
        "start", "vertex 2", "edge 1-3", "vertex 0", "end"
    ]
    times = [float(row[0]) for row in rows]
    assert times == sorted(times)
    assert times[-1] == 12.0


def test_cli_surface_disphenoid_mode(capsys):
    code, out = _run_cli(capsys, "surface", "disphenoid_456", "--disphenoid")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["is_disphenoid"] is True
    assert result["all_cone_angles_pi"] is True


def test_cli_surface_refuses_a_zero_length_edge(tmp_path, capsys):
    """A triangular prism whose top corner 3 sits on bottom corner 0: both
    modes refuse the mesh in one line that names the edge."""
    path = tmp_path / "prism.json"
    path.write_text(json.dumps({"surface": {
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                     [0, 0, 0], [1, 0, 1], [0, 1, 1]],
        "faces": [[0, 2, 1], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4],
                  [2, 0, 3, 5]],
    }}))
    for mode in (["--report"], ["--geodesic", "0", "0.2,0.2,0", "1,0.3,0", "3"]):
        line = _one_error_line(capsys, "surface", str(path), *mode)
        assert "edge (0, 3) has length 0.000e+00: vertex 0" in line
        assert "vertex 3" in line


def test_cli_surface_refuses_a_face_that_is_not_convex(tmp_path, capsys):
    """An L-shaped prism: its top and bottom hexagons have a reflex corner,
    which both modes refuse in one line naming the face and the vertex."""
    xy = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    path = tmp_path / "l_prism.json"
    path.write_text(json.dumps({"surface": {
        "vertices": [[x, y, 0] for x, y in xy] + [[x, y, 1] for x, y in xy],
        "faces": [[5, 4, 3, 2, 1, 0], [6, 7, 8, 9, 10, 11]]
        + [[i, (i + 1) % 6, (i + 1) % 6 + 6, i + 6] for i in range(6)],
    }}))
    for mode in (["--report"], ["--geodesic", "1", "0.5,0.5,1", "1,0,0", "1.2"]):
        line = _one_error_line(capsys, "surface", str(path), *mode)
        assert line == (
            "billiards: error: face 0 is not convex: its corner at vertex 3 "
            "turns by -1.000e+00; split the face into convex faces"
        )


def test_cli_smooth_laws_and_converge(capsys):
    code, out = _run_cli(
        capsys, "smooth", "circle", "--laws", "--alphas", "0.04,0.02"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["chord_constant"] > 1.9

    code, out = _run_cli(
        capsys, "smooth", "ellipse", "--converge", "--alphas", "0.04,0.02,0.01"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["monotone_decreasing"] is True
    assert len(result["rows"]) == 3

    # on the circle each row also carries the closed-form deviation
    code, out = _run_cli(
        capsys, "smooth", "circle", "--converge", "--alphas", "0.04,0.02"
    )
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert [row["prediction"] for row in rows] == [
        1.0 - math.cos(a) for a in (0.04, 0.02)
    ]


@pytest.mark.parametrize("mode", ["--laws", "--converge"])
def test_cli_smooth_perturbed(mode, capsys):
    code, out = _run_cli(
        capsys, "smooth", "perturbed", mode, "--alphas", "0.04,0.02"
    )
    assert code == 0
    report = json.loads(out)
    validate_report_data(report)
    assert report["table"] == "perturbed"


def test_cli_simulate_svg(tmp_path, capsys):
    svg_path = tmp_path / "run.svg"
    code, _ = _run_cli(
        capsys, "simulate", "square", "0.5,0", "1,1", "3",
        "--svg", str(svg_path),
    )
    assert code == 0
    assert svg_path.read_text().startswith("<svg")


def test_cli_every_report_validates_against_schema(tmp_path, capsys):
    invocations = [
        ["simulate", "square", "0.5,0", "1,1", "3"],
        ["simulate", "triangle_C2", "0.3,0.3", "0.6,0.8", "5", "--unfold"],
        ["check-alcove", "triangle_A2"],
        ["corner", "1.1"],
        ["corner", "--sweep", "0.3", "2.0", "10"],
        ["surface", "tetra_regular", "--report"],
        ["surface", "simplex_A3", "--report"],  # a 3D polytope's surface
        ["surface", "disphenoid_456", "--disphenoid"],
        ["smooth", "circle", "--laws", "--alphas", "0.04,0.02"],
    ]
    for argv in invocations:
        code, out = _run_cli(capsys, *argv)
        assert code == 0, argv
        validate_report_data(json.loads(out))


def test_editing_a_returned_schema_changes_no_verdict(capsys):
    """The schema functions hand out copies: editing one changes no verdict,
    neither before the checks are first compiled nor after."""
    assert main(["corner", "1.1"]) == 0
    report = json.loads(capsys.readouterr().out)
    for compiled in (False, True):
        if not compiled:
            _predicate.cache_clear()
            _validator.cache_clear()
        report_schema()["properties"]["status"]["const"] = "bad"
        table_schema().clear()
        validate_report_data(report)
        with pytest.raises(jsonschema.ValidationError):
            validate_report_data({**report, "status": "bad"})
        with pytest.raises(InputError, match="fails schema validation"):
            validate_table_data({})
    assert report_schema()["properties"]["status"] == {"const": "ok"}


# -- the in-house schema check -----------------------------------------------

# jsonschema's verdicts, the oracle of the in-house check
ORACLES = {
    name: jsonschema.validators.validator_for(schema)(schema)
    for name, schema in (
        ("table.schema.json", table_schema()),
        ("report.schema.json", report_schema()),
    )
}


def _agree(data, filename: str) -> bool:
    """Assert that the two verdicts on ``data`` agree; return the verdict."""
    verdict = ORACLES[filename].is_valid(data)
    assert _predicate(filename)(data) is verdict, data
    return verdict


@pytest.fixture(autouse=True)
def _every_cli_report_agrees(monkeypatch):
    """Every report a CLI test in this module produces is judged by both."""
    import billiards.cli as cli_module

    def validate(report):
        _agree(report, "report.schema.json")
        validate_report_data(report)

    monkeypatch.setattr(cli_module, "validate_report_data", validate)


def _tables_in_tests() -> list:
    """Every bundled table and every table payload the tests refuse."""
    boxes = []
    for first, second in itertools.permutations((_ZERO, _WIDE, _NAN_OFFSET), 2):
        data = table_to_data(Polytope.box((0.0, 0.0), (1.0, 1.0)))
        data["halfspaces"][1], data["halfspaces"][3] = first[0], second[0]
        boxes.append(data)
    for normal in ([1e200, 1e200], [1e-300, 0.0]):
        data = table_to_data(Polytope.box((0.0, 0.0), (1.0, 1.0)))
        data["halfspaces"][0]["normal"] = normal
        data["halfspaces"][1]["offset"] = math.inf
        data["vertices"][3][1] = math.nan
        boxes.append(data)
    square = _bundled_data("square")
    return [
        *(_bundled_data(name) for name in bundled_table_names()),
        *MALFORMED_TABLES,
        *(param.values[0] for param in OUT_OF_RANGE_TABLES),
        *({**square, **param.values[0]} for param in SHAPELESS_TABLES),
        *({"smooth2d": params} for params, _ in NO_OVALS),
        *boxes,
    ]


def test_table_check_agrees_with_jsonschema_on_the_tables_in_tests():
    """Only the malformed payloads fail the schema; the others are refused
    when the table is built."""
    verdicts = [_agree(data, "table.schema.json") for data in _tables_in_tests()]
    assert verdicts.count(False) == len(MALFORMED_TABLES)


# Tables drawn at the edges of the schema (integral floats for integers, 0
# for ``minimum``, the least double for ``exclusiveMinimum``), and the same
# tables with one value changed, dropped or added.
_NUMBERS = st.one_of(
    st.sampled_from([0, -1, 0.0, -0.0, 2.0, 5e-324, -5e-324, 10**400]),
    st.floats(),
)
_POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1, 1.0, 10**400, math.inf]),
    st.floats(min_value=0.0, exclude_min=True),
)


def _integers(least: int):
    return st.one_of(st.integers(least, least + 3),
                     st.integers(least, least + 3).map(float))


def _lists(items, least: int, most: int):
    return st.lists(items, min_size=least, max_size=most)


_POLYTOPES = st.fixed_dictionaries(
    {"dim": _integers(1),
     "halfspaces": _lists(st.fixed_dictionaries(
         {"normal": _lists(_NUMBERS, 1, 3), "offset": _NUMBERS}), 2, 3)},
    optional={"vertices": _lists(_lists(_NUMBERS, 1, 3), 2, 3),
              "facet_vertices": _lists(_lists(_integers(0), 1, 2), 0, 2)},
)
_SURFACES = st.fixed_dictionaries({"surface": st.fixed_dictionaries({
    "vertices": _lists(_lists(_NUMBERS, 3, 3), 4, 5),
    "faces": _lists(_lists(_integers(0), 3, 4), 4, 5),
})})
# each kind with its own parameters or with any of them, so that each
# ``if``/``then`` branch both passes and fails
_PARAMS = {"radius": _POSITIVE, "a": _POSITIVE, "b": _POSITIVE,
           "delta": _NUMBERS, "k": _integers(1)}
_KINDS = {"circle": ("radius",), "ellipse": ("a", "b"), "perturbed": ("delta", "k")}
_SMOOTH = st.one_of(
    *(st.fixed_dictionaries({"kind": st.just(kind)},
                            optional={name: _PARAMS[name] for name in names})
      for kind, names in _KINDS.items()),
    st.fixed_dictionaries({"kind": st.sampled_from(list(_KINDS))},
                          optional=_PARAMS),
).map(lambda params: {"smooth2d": params})
_SHAPES = st.one_of(_SMOOTH, _POLYTOPES, _SURFACES)
# an extra key, a parameter of another smooth kind (each ``if``/``then``
# branch), or a key of another table shape (the ``oneOf``)
_ADDED_KEYS = st.sampled_from(
    ["extra", "kind", "radius", "a", "b", "delta", "k", "dim", "surface",
     "smooth2d"]
)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# each change, and the values it may apply to
_CHANGES = {
    "bool": _is_number,  # a bool where a number goes
    "bound": _is_number,  # a value at or next to 0 or 1, the schema's bounds
    "integral": lambda v: _is_number(v) and isinstance(v, int) and abs(v) < 2**53,
    "other": lambda v: True,  # a value of another type
    "drop": lambda v: True,
    "empty": lambda v: isinstance(v, list),
    "repeat": lambda v: isinstance(v, list) and v,
}


_REPLACEMENTS = {
    "bool": [True, False],
    "bound": [-1, -5e-324, -0.0, 0, 0.0, 5e-324, 1, 1.0],
    "other": [None, "1", [], {}],
}


def _slots(value):
    """``(container, key)`` of every value nested in ``value``."""
    if isinstance(value, (dict, list)):
        for key in list(value) if isinstance(value, dict) else range(len(value)):
            yield value, key
            yield from _slots(value[key])


@st.composite
def _tables(draw):
    """A table as drawn, or with one change: a key added to one of its
    objects, or one value swapped for a bool, a value at a bound, a float
    (integral or not) in place of an integer, or a value of another type;
    or one value dropped, an array emptied, or an array's last item
    repeated, which makes it one too long."""
    data = draw(_SHAPES)
    change = draw(st.sampled_from(["none", "add", *_CHANGES]))
    if change == "add":
        objects = [data, *(c[k] for c, k in _slots(data) if isinstance(c[k], dict))]
        draw(st.sampled_from(objects))[draw(_ADDED_KEYS)] = draw(_POSITIVE)
        return data
    if change == "none":
        return data
    slots = [(c, k) for c, k in _slots(data) if _CHANGES[change](c[k])]
    if not slots:
        return data
    container, key = draw(st.sampled_from(slots))
    value = container[key]
    if change == "drop":
        del container[key]
    elif change == "empty":
        value.clear()
    elif change == "repeat":
        value.append(value[-1])
    elif change == "integral":
        container[key] = draw(st.sampled_from([float(value), value + 0.5]))
    else:
        container[key] = draw(st.sampled_from(_REPLACEMENTS[change]))
    return data


_TABLES = st.one_of(_tables(), st.sampled_from([None, "1", 1, [], {}]))


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_TABLES)
def test_table_check_agrees_with_jsonschema_on_schema_shaped_json(data):
    _agree(data, "table.schema.json")


def test_report_check_agrees_with_jsonschema_on_altered_reports(capsys):
    """The reports of CLI runs are judged by both in the fixture above; these
    envelopes, each a report with one field altered, test the refusals."""
    code, out = _run_cli(capsys, "corner", "1.0")
    assert code == 0
    report = json.loads(out)
    altered = [
        {key: value for key, value in report.items() if key != "result"},
        {**report, "extra": 1},
        {**report, "status": "OK"},
        {**report, "command": True},
        {**report, "command": "check-alcove"},
        {**report, "table": 1},
        {**report, "parameters": []},
        {**report, "result": None},
        {**report, "artifacts": {"csv": "gaps.csv", "svg": "fan.svg"}},
        {**report, "artifacts": {"csv": 1}},
        {**report, "artifacts": {"pdf": "fan.pdf"}},
        [report],
        None,
    ]
    verdicts = [_agree(data, "report.schema.json") for data in altered]
    assert verdicts.count(True) == 2


@pytest.mark.parametrize(
    "schema, instances",
    [
        ({"type": "number"}, [True, False, 1, 1.5, 10**400, math.nan, "1"]),
        ({"type": "integer"}, [True, 2, 2.0, -0.0, 2.5, math.inf, 10**400]),
        ({"enum": [1, [0], {"a": 1}, "x"]},
         [True, 1.0, [False], [0.0], {"a": True}, {"a": 1.0}, "x", "1"]),
        ({"const": False}, [False, 0, 0.0, None, True]),
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, [1, 1.5, "1"]),
        ({"if": {"const": 1}, "then": False}, [1, 1.0, 2, True]),
    ],
)
def test_schema_check_follows_draft_2020_12(schema, instances):
    """The rules the shipped schemas do not exercise on their own: a bool is
    no number, 2.0 is an integer, ``true`` is not ``1``, ``oneOf`` takes
    exactly one branch, and ``if`` without ``else`` passes when it fails."""
    oracle = jsonschema.Draft202012Validator(schema)
    check = _compile_root(schema)
    for instance in instances:
        assert check(instance) is oracle.is_valid(instance), instance


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "pattern": "^a"},
        {"if": {"type": "object"}, "else": False},
        {"type": ["object", "null"]},
        {"type": "boolean"},
        {"$ref": "other.json#/$defs/vector"},
        {"$ref": "#/$defs/missing", "$defs": {"vector": True}},
        {"properties": {"a": {"format": "uri"}}},
        {"$defs": {"vector": {"uniqueItems": True}}},
    ],
)
def test_schema_check_refuses_keywords_it_does_not_know(schema):
    """A keyword, type or reference outside the shipped subset raises when the
    schema compiles, so a schema edit cannot be half understood."""
    with pytest.raises(ValueError, match="^unsupported schema"):
        _compile_root(schema)


def test_every_exported_name_resolves():
    modules = [billiards] + [
        importlib.import_module(f"billiards.{info.name}")
        for info in pkgutil.iter_modules(billiards.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_module_entrypoint_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "billiards.cli", "check-alcove", "square"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["label"] == "A1~ x A1~"


def test_env_tolerance_override_applies_at_import():
    """``BILLIARDS_EPS`` sets ``TOL.eps``, the one incidence tolerance; the
    other fields are fixed guards."""
    code = (
        "import dataclasses\n"
        "from billiards.config import TOL\n"
        "print(dataclasses.asdict(TOL))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "BILLIARDS_EPS": "1e-6"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "{'eps': 1e-06, 'step': 1e-12, 'tangential': 1e-10, 'gap': 1e-07, "
        "'m_max': 64}\n"
    )


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "BILLIARDS_EPS is not a float: 'abc'"),
        ("0.5", "BILLIARDS_EPS out of range (0, 1e-2): 0.5"),
        ("nan", "BILLIARDS_EPS out of range (0, 1e-2): nan"),
    ],
)
def test_a_bad_env_tolerance_is_refused_in_one_line(value, message):
    """``python -m billiards.cli`` imports ``billiards.config`` before
    ``main`` runs; ``TOL.eps`` is read on its first use, in ``main``, so a
    bad ``BILLIARDS_EPS`` is an input error: exit code 2 and one line on
    stderr, for a numpy command and for ``corner``, which loads no numpy."""
    for argv in (["check-alcove", "simplex_A3"], ["corner", "1.0"]):
        proc = subprocess.run(
            [sys.executable, "-m", "billiards.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "BILLIARDS_EPS": value},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"billiards: error: {message}\n"


def test_a_bad_env_tolerance_is_refused_on_each_read_of_eps(monkeypatch):
    """Under a bad ``BILLIARDS_EPS`` a new ``Tolerances`` is refused with
    ``InputError``, and ``billiards.config``, run afresh, still imports: its
    ``TOL`` keeps the fixed guards and raises the refusal on each read of
    ``eps``."""
    from billiards import config

    monkeypatch.delenv("BILLIARDS_EPS", raising=False)
    assert config.Tolerances().eps == 1e-9
    monkeypatch.setenv("BILLIARDS_EPS", "1e-6")
    assert config.Tolerances().eps == 1e-6
    for value in ("abc", "0.5", "nan", "0", "-1e-9"):
        monkeypatch.setenv("BILLIARDS_EPS", value)
        with pytest.raises(InputError, match="^BILLIARDS_EPS "):
            config.Tolerances()
        spec = importlib.util.spec_from_file_location(
            "billiards._config_afresh", config.__file__
        )
        fresh = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, fresh)
        spec.loader.exec_module(fresh)
        assert (fresh.TOL.step, fresh.TOL.m_max) == (1e-12, 64)
        for _ in range(2):
            with pytest.raises(InputError, match="^BILLIARDS_EPS "):
                fresh.TOL.eps


def test_import_billiards_loads_no_jsonschema():
    """``jsonschema`` is imported on the first validation, not by ``import
    billiards``."""
    code = (
        "import sys, billiards\n"
        "print('jsonschema' in sys.modules)\n"
        "billiards.io.validate_report_data({})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.stdout == "False\n"
    assert "jsonschema.exceptions.ValidationError" in proc.stderr


def test_cli_import_path_loads_no_scipy():
    code = (
        "import sys, billiards, billiards.cli\n"
        "status = billiards.cli.main(['check-alcove', 'simplex_A3'])\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(status, sorted(loaded), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["is_alcove"]
    assert proc.stderr.strip() == "0 []"


def _cold_start_shapes() -> dict:
    """The command shapes ``tools/cold_start.py`` times."""
    path = Path(__file__).resolve().parents[1] / "tools" / "cold_start.py"
    spec = importlib.util.spec_from_file_location("cold_start", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SHAPES


COLD_START_SHAPES = _cold_start_shapes()


@pytest.mark.parametrize("argv", COLD_START_SHAPES.values(),
                         ids=list(COLD_START_SHAPES))
def test_cli_loads_no_jsonschema_when_it_succeeds(argv):
    """The in-house check accepts every report and bundled table, so a cold
    CLI call that succeeds never imports ``jsonschema``."""
    code = (
        "import sys, billiards.cli\n"
        f"status = billiards.cli.main({argv!r})\n"
        "print(status, 'jsonschema' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "0 False\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["corner", "1.0"], "0 False\n"),
        (["corner", "--sweep", "0.3", "2.6", "600"], "0 False\n"),
        (["corner", "--sweep", "0.3", "2.6", "600", "--csv", "CSV"], "0 False\n"),
        (["corner", "1.0", "--svg", "SVG"], "0 False\n"),
        (["corner", "0"], "billiards: error: wedge opening must be in (0, pi), "
         "got 0.0\n2 False\n"),
    ],
    ids=["corner", "corner --sweep", "corner --sweep --csv", "corner --svg",
         "corner refused"],
)
def test_cli_corner_loads_no_numpy(argv, err, tmp_path):
    """The corner limits, the wedge tracer, the wedge fan picture and the
    report and CSV writers run on Python floats, so a cold ``billiards
    corner`` never imports numpy, whether it succeeds or refuses."""
    files = {"CSV": str(tmp_path / "gaps.csv"), "SVG": str(tmp_path / "fan.svg")}
    argv = [files.get(a, a) for a in argv]
    code = (
        "import sys, billiards.cli\n"
        f"status = billiards.cli.main({argv!r})\n"
        "print(status, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == err
    if "--csv" in argv:
        assert len((tmp_path / "gaps.csv").read_text().splitlines()) == 601
    if "--svg" in argv:
        assert (tmp_path / "fan.svg").read_text().startswith("<svg ")


def test_import_billiards_corner_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, billiards.corner; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.stdout == "False\n", proc.stderr


def test_import_billiards_loads_only_config_and_errors():
    """``import billiards`` reads ``BILLIARDS_EPS`` and loads no numpy; every
    other submodule and exported name is imported on first access."""
    code = (
        "import sys, billiards\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('billiards', 'numpy')))\n"
        "print(billiards.io.__name__, billiards.simulate.__module__,\n"
        "      hasattr(billiards, 'no_such_name'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['billiards', 'billiards.config', 'billiards.errors']",
        "billiards.io billiards.dynamics False",
    ]


_CORNER_UNUSED = {
    "geometry", "dynamics", "alcove", "surface", "smooth", "svg", "tables"
}


@pytest.mark.parametrize(
    "argv, unused",
    [
        pytest.param(["simulate", "square", "0.3,0.4", "0.6,0.8", "4"],
                     {"alcove", "surface", "smooth", "svg", "tables"},
                     id="simulate"),
        pytest.param(["check-alcove", "simplex_A3"],
                     {"dynamics", "surface", "smooth", "svg", "tables"},
                     id="check-alcove"),
        pytest.param(["corner", "1.0"], _CORNER_UNUSED, id="corner"),
        pytest.param(["corner", "--sweep", "0.3", "2.6", "200"], _CORNER_UNUSED,
                     id="corner-sweep"),
        pytest.param(["surface", "cube", "--report"],
                     {"dynamics", "alcove", "smooth", "svg", "tables"},
                     id="surface-report"),
        pytest.param(["smooth", "circle", "--laws", "--alphas", "0.08,0.04"],
                     {"geometry", "dynamics", "alcove", "surface", "svg", "tables"},
                     id="smooth-laws"),
    ],
)
def test_cold_cli_loads_only_what_its_subcommand_runs(argv, unused):
    """A fresh ``python -m billiards.cli`` process, one per command shape of
    the benchmark's ``cli`` workload, imports no module the command does not
    run; ``-X importtime`` names every module the process imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "billiards.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert not {f"billiards.{name}" for name in unused} & loaded
    assert "billiards.corner" in loaded
    # the orbifold identity is checked in integers, with no fractions
    assert "fractions" not in loaded
