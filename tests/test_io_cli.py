"""Table files, deterministic reports, CLI behavior and exit codes."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

import billiards
from billiards import errors
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
)
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


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 2},  # missing halfspaces
        {"halfspaces": [{"normal": [1, 0], "offset": 1}]},  # missing dim
        {"smooth2d": {"kind": "hyperbola"}},  # unknown kind
        {"smooth2d": {"kind": "circle", "a": 2.0}},  # wrong parameter
        {"surface": {"vertices": [[0, 0, 0]]}},  # missing faces
        {"dim": 2, "halfspaces": [], "extra": 1},  # extra key
    ],
)
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


def test_dumps_json_refuses_nan():
    with pytest.raises(InputError):
        dumps_json({"x": float("nan")})


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


@pytest.mark.parametrize(
    "data, message",
    [
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
    ],
)
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


@pytest.mark.parametrize(
    "params, name",
    [
        ({"kind": "perturbed", "delta": -1.0, "k": 2}, "delta"),
        ({"kind": "perturbed", "delta": 1.5, "k": 1}, "delta"),
        ({"kind": "ellipse", "a": 1e200, "b": 1}, "semi-axis a"),
        ({"kind": "ellipse", "a": 1e-200, "b": 1}, "semi-axis a"),
    ],
)
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
        ["surface", "disphenoid_456", "--disphenoid"],
        ["smooth", "circle", "--laws", "--alphas", "0.04,0.02"],
    ]
    for argv in invocations:
        code, out = _run_cli(capsys, *argv)
        assert code == 0, argv
        validate_report_data(json.loads(out))


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
