"""End-to-end tests for the command-line driver and SVG renderer."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from conftest import bounded_stack

import fewslopes
from fewslopes.cli import RenderOptions, render_svg, run
from fewslopes.drawing import Drawing, EdgeArc
from fewslopes.families import gen_gd, gen_octahedron
from fewslopes.jsonio import drawing_from_obj, dumps_canonical, graph_to_obj
from fewslopes.straightline import draw_straight
from fewslopes.verify import verify_drawing

K5 = {"n": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]}

K4 = {"n": 4, "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}


def cycle(k):
    return {"n": k, "edges": [[i, (i + 1) % k] for i in range(k)]}


CROSSING = {
    "format": 2,
    "method": "custom",
    "points": [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
    "edges": [
        {"u": 0, "v": 1, "bends": []},
        {"u": 2, "v": 3, "bends": []},
    ],
}

# the float 1.1 minus 1 is not 0.1: two directions, apart in their low bits
ULP_SLOPES = {
    "format": 2,
    "method": "custom",
    "coord_kind": "float",
    "points": [[0.0, 0.0], [1.0, 0.1], [0.0, 1.0], [1.0, 1.1]],
    "edges": [
        {"u": 0, "v": 1, "bends": []},
        {"u": 2, "v": 3, "bends": []},
    ],
}


def put(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(dumps_canonical(obj) + "\n", encoding="utf-8")
    return str(p)


def get(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def svg_parts(text):
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(f"{ns}path")
    circles = root.findall(f"{ns}circle")
    return root, paths, circles


class TestPipeline:
    def test_gen_draw_verify_ok(self, tmp_path):
        gp = str(tmp_path / "g.json")
        dp = str(tmp_path / "d.json")
        rp = str(tmp_path / "r.json")
        assert run(["gen", "--family", "octahedron", "--out", gp]) == 0
        assert run(["draw", "--method", "twobend", "--in", gp, "--out", dp]) == 0
        assert run(["verify", "--in", dp, "--out", rp]) == 0
        rep = get(rp)
        assert rep["ok"] is True
        assert rep["crossing_free"] is True
        assert rep["distinct_slopes"] == 3
        assert rep["max_bends"] <= 2

    def test_pack_then_stats(self, tmp_path):
        gp = put(tmp_path, "g.json", graph_to_obj(gen_octahedron()))
        pp = str(tmp_path / "p.json")
        sp = str(tmp_path / "s.json")
        assert run(["pack", "--in", gp, "--out", pp]) == 0
        cp = get(pp)
        assert len(cp["radii"]) == 6
        assert len(cp["outer"]) == 3
        assert run(["stats", "--in", pp, "--out", sp]) == 0
        st = get(sp)
        assert st["kind"] == "packing"
        assert st["circles"] == 6

    @pytest.mark.parametrize("d", range(4, 10))
    def test_pack_triangulates_first(self, tmp_path, d):
        # G_d is not a triangulation; pack packs the triangulation
        # draw_straight packs, which has the same vertices
        g = gen_gd(d)
        gp = put(tmp_path, "g.json", graph_to_obj(g))
        pp = str(tmp_path / "p.json")
        assert run(["pack", "--in", gp, "--out", pp]) == 0
        assert len(get(pp)["radii"]) == g.n

    @pytest.mark.parametrize("n", [2, 3])
    def test_pack_refuses_fewer_than_four_vertices(self, tmp_path, capsys, n):
        # a path on 2 vertices fails in triangulate, one on 3 in the packing
        gp = put(tmp_path, "g.json", {"n": n, "edges": [[0, 1], [1, 2]][: n - 1]})
        assert run(["pack", "--in", gp]) == 1
        assert capsys.readouterr().err.startswith("error: TooFewVertices: ")

    def test_stats_kinds(self, tmp_path):
        gp = put(tmp_path, "g.json", K4)
        dp = str(tmp_path / "d.json")
        sp = str(tmp_path / "s.json")
        assert run(["stats", "--in", gp, "--out", sp]) == 0
        assert get(sp) == {
            "kind": "graph",
            "vertices": 4,
            "edges": 6,
            "degree_min": 3,
            "degree_max": 3,
        }
        assert run(["draw", "--method", "straight", "--in", gp, "--out", dp]) == 0
        assert run(["stats", "--in", dp, "--out", sp]) == 0
        st = get(sp)
        assert st["kind"] == "drawing"
        assert (st["vertices"], st["edges"], st["segments"]) == (4, 6, 6)


class TestExitCodes:
    def test_slope_override_too_small_fails(self, tmp_path, capsys):
        gp = put(tmp_path, "g.json", graph_to_obj(gen_octahedron()))
        assert run(["draw", "--method", "twobend", "--slopes", "2", "--in", gp]) == 1
        err = capsys.readouterr().err
        assert "DegreeTooHigh" in err

    @pytest.mark.parametrize("k, slopes", [(4, 2), (5, 3)])
    def test_cycle_within_slope_override_draws(self, tmp_path, k, slopes):
        gp = put(tmp_path, "g.json", cycle(k))
        dp = str(tmp_path / "d.json")
        rp = str(tmp_path / "r.json")
        assert run(["draw", "--method", "twobend", "--slopes", str(slopes), "--in", gp, "--out", dp]) == 0
        assert run(["verify", "--in", dp, "--out", rp]) == 0
        assert get(rp)["distinct_slopes"] == slopes

    def test_odd_cycle_on_two_slopes_fails(self, tmp_path, capsys):
        gp = put(tmp_path, "g.json", cycle(5))
        assert run(["draw", "--method", "twobend", "--slopes", "2", "--in", gp]) == 1
        assert "SlopesTooFew" in capsys.readouterr().err

    def test_nonplanar_input_fails(self, tmp_path, capsys):
        gp = put(tmp_path, "g.json", K5)
        assert run(["draw", "--method", "straight", "--in", gp]) == 1
        assert "NotPlanar" in capsys.readouterr().err

    def test_verify_reports_violation(self, tmp_path, capsys):
        dp = put(tmp_path, "d.json", CROSSING)
        rp = str(tmp_path / "r.json")
        assert run(["verify", "--in", dp, "--out", rp]) == 1
        rep = get(rp)
        assert rep["ok"] is False
        assert rep["crossing_witness"]["where"] == [0.5, 0.5]

    def test_missing_gen_parameters(self, tmp_path, capsys):
        assert run(["gen", "--family", "gd"]) == 1
        assert run(["gen", "--family", "random"]) == 1
        capsys.readouterr()

    def test_usage_errors_exit_2(self, capsys):
        assert run([]) == 2
        assert run(["frobnicate"]) == 2
        assert run(["gen"]) == 2
        assert run(["draw", "--method", "scribble"]) == 2
        assert run(["draw", "--method", "twobend", "--slopes", "0"]) == 2
        capsys.readouterr()

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert run(["stats", "--in", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert run(["stats", "--in", str(tmp_path / "absent.json")]) == 1
        capsys.readouterr()

    def test_precision_exhausted_is_one_error_line(self, tmp_path, capsys):
        # the smallest disk is ~5e-20 of the outer ones: the float layout breaks
        gp = put(tmp_path, "g.json", graph_to_obj(bounded_stack(150, 1, 8)))
        assert run(["draw", "--method", "straight", "--in", gp]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: PrecisionExhausted: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_coordinate_is_one_error_line(self, tmp_path, capsys, bad):
        # the segment to the bad point would cross (1,0)-(0,1) if it were read
        p = tmp_path / "d.json"
        p.write_text(
            '{"format":2,"method":"custom","points":[[0.0,0.0],[%s,1.0],[1.0,0.0],[0.0,1.0]],'
            '"edges":[{"u":0,"v":1,"bends":[]},{"u":2,"v":3,"bends":[]}]}' % bad,
            encoding="utf-8",
        )
        assert run(["verify", "--in", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: non-finite coordinate")
        assert err.count("\n") == 1


def _changed(obj, **changes):
    """obj with fields replaced; a None value deletes the field."""
    return {k: v for k, v in {**obj, **changes}.items() if v is not None}


ONE_EDGE = {"u": 0, "v": 1, "bends": [[1, 0]]}
ONE_EDGE_DRAWING = {
    "format": 2, "method": "custom", "points": [[0, 0], [1, 1]], "edges": [ONE_EDGE],
}


def _malformed(**changes):
    return _changed(ONE_EDGE_DRAWING, **changes)


def _malformed_edge(**changes):
    return _malformed(edges=[_changed(ONE_EDGE, **changes)])


MALFORMED_DRAWINGS = {
    "top-level-list": ([1, 2], "a drawing is a JSON object, not list"),
    "no-method": (_malformed(method=None), "drawing has no 'method' field"),
    "no-points": (_malformed(points=None), "drawing has no 'points' field"),
    "no-edges": (_malformed(edges=None), "drawing has no 'edges' field"),
    "points-not-a-list": (_malformed(points={"0": [0, 0]}), "field 'points' is not an array"),
    "edge-not-an-object": (_malformed(edges=[[0, 1]]), "edge 0 is not an object"),
    "no-u": (_malformed_edge(u=None), "edge 0 has no 'u' field"),
    "no-v": (_malformed_edge(v=None), "edge 0 has no 'v' field"),
    "no-bends": (_malformed_edge(bends=None), "edge 0 has no 'bends' field"),
    "u-not-an-int": (_malformed_edge(u="0"), "edge 0 field 'u' is not an integer: '0'"),
    "u-true": (_malformed_edge(u=True), "edge 0 field 'u' is not an integer: True"),
    "bends-not-a-list": (_malformed_edge(bends=5), "edge 0 field 'bends' is not an array"),
    "point-not-a-pair": (_malformed(points=[[0, 0], [1]]), r"point \[1\] is not a pair"),
    "point-a-number": (_malformed(points=[[0, 0], 1]), "point 1 is not a pair"),
    "bend-not-a-pair": (_malformed_edge(bends=[[1, 0, 0]]), r"point \[1, 0, 0\] is not a pair"),
    "endpoint-without-point": (_malformed_edge(v=2), "edge endpoint 2 has no vertex point"),
    "format-1-poly-edge": (  # a format 1 file has no "format" key
        _malformed(format=None, edges=[{"u": 0, "v": 1, "poly": [[0, 0], [1, 0], [1, 1]]}]),
        "edge 0 has a 'poly' field: a format 1 drawing",
    ),
    "format-1": (_malformed(format=1), "drawing format 1 is not 2"),
    "format-3": (_malformed(format=3), "drawing format 3 is not 2"),
    "format-string": (_malformed(format="2"), "drawing format '2' is not 2"),
    "meta-not-an-object": (_malformed(meta=[1]), "field 'meta' is not an object"),
}


def test_malformed_cases_start_from_a_valid_drawing(tmp_path):
    assert run(["verify", "--in", put(tmp_path, "d.json", ONE_EDGE_DRAWING)]) == 0


@pytest.mark.parametrize("name", sorted(MALFORMED_DRAWINGS))
def test_malformed_drawing_is_one_value_error(tmp_path, capsys, name):
    obj, match = MALFORMED_DRAWINGS[name]
    with pytest.raises(ValueError, match=match):
        drawing_from_obj(obj)
    assert run(["verify", "--in", put(tmp_path, "d.json", obj)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "obj,match",
    [
        ([1, 2], "a graph is a JSON object, not list"),
        ({"edges": []}, "graph has no 'n' field"),
        ({"n": 2, "edges": [[0]]}, "edge 0 is not a pair of integers: [0]"),
    ],
    ids=["array", "no-n", "one-end-edge"],
)
@pytest.mark.parametrize("cmd", [["stats"], ["draw", "--method", "onebend"], ["pack"]])
def test_malformed_graph_is_one_value_error(tmp_path, capsys, obj, match, cmd):
    assert run([*cmd, "--in", put(tmp_path, "g.json", obj)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: {match}\n"


def run_module(*args):
    env = dict(os.environ)
    src = str(Path(fewslopes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fewslopes.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_module_entry_point_runs_main():
    out = run_module("gen", "--family", "octahedron")
    assert out.returncode == 0
    assert '"n":6' in out.stdout
    assert out.stderr == ""


def test_verify_reports_a_crossing_beyond_float_range(tmp_path):
    # the edges cross at (2**1099, 1/2), whose x has no float
    big = 2**1100
    dp = put(tmp_path, "d.json", {
        "format": 2,
        "method": "custom",
        "points": [[0, 0], [big, 1], [0, 1], [big, 0]],
        "edges": [
            {"u": 0, "v": 1, "bends": []},
            {"u": 2, "v": 3, "bends": []},
        ],
    })
    out = run_module("verify", "--in", dp)
    assert out.returncode == 1
    assert out.stderr == ""
    rep = json.loads(out.stdout)
    assert rep["ok"] is False and rep["crossing_free"] is False
    assert rep["crossing_witness"]["where"] == [None, 0.5]


class TestSvg:
    def draw_svg(self, tmp_path, graph_obj, *extra):
        gp = put(tmp_path, "g.json", graph_obj)
        sp = str(tmp_path / "out.svg")
        rc = run(["draw", "--in", gp, "--out", sp, "--format", "svg", *extra])
        assert rc == 0
        with open(sp, "r", encoding="utf-8") as fh:
            return fh.read()

    def test_k4_counts(self, tmp_path):
        text = self.draw_svg(tmp_path, K4, "--method", "straight")
        _, paths, circles = svg_parts(text)
        assert len(paths) == 6
        assert len(circles) == 4

    def test_twobend_colors_match_census(self, tmp_path):
        text = self.draw_svg(
            tmp_path, graph_to_obj(gen_octahedron()), "--method", "twobend", "--slopes", "3"
        )
        _, paths, _ = svg_parts(text)
        strokes = {p.get("stroke") for p in paths}
        assert len(strokes) == 3

    def test_float_colors_follow_slope_classes(self):
        # the first three edges run along one exact direction, (1, 0.1) and
        # its binary multiples, the first one in two collinear pieces; the
        # last one, from 1.0 to 1.1, is off it in its low bits
        polys = [
            ((0.0, 0.0), (0.5, 0.05), (1.0, 0.1)),
            ((3.0, 0.0), (5.0, 0.2)),
            ((6.0, 0.0), (6.25, 0.025)),
            ((0.0, 1.0), (1.0, 1.1)),
        ]
        pts, arcs = {}, []
        for i, poly in enumerate(polys):
            pts[2 * i], pts[2 * i + 1] = poly[0], poly[-1]
            arcs.append(EdgeArc(2 * i, 2 * i + 1, poly))
        dr = Drawing("custom", pts, arcs, "float")
        rep = verify_drawing(dr)
        assert rep.distinct_slopes == 2 and rep.max_bends == 0
        _, paths, _ = svg_parts(render_svg(dr))
        assert len(paths) == len(arcs)  # no edge changes class, so none is split
        strokes = [p.get("stroke") for p in paths]
        assert len(set(strokes)) == rep.distinct_slopes
        assert len(set(strokes[:-1])) == 1

    def test_no_color_single_stroke(self, tmp_path):
        text = self.draw_svg(
            tmp_path,
            graph_to_obj(gen_octahedron()),
            "--method",
            "twobend",
            "--no-color",
        )
        _, paths, _ = svg_parts(text)
        assert {p.get("stroke") for p in paths} == {"#1a1a1a"}

    def test_empty_graph_valid_svg(self, tmp_path):
        text = self.draw_svg(tmp_path, {"n": 0, "edges": []}, "--method", "twobend")
        root, paths, circles = svg_parts(text)
        assert root.tag.endswith("svg")
        assert paths == [] and circles == []

    def test_render_options_validation(self):
        with pytest.raises(ValueError):
            RenderOptions(width=0)

    def test_library_render_is_xml(self):
        text = render_svg(draw_straight(gen_octahedron()))
        root, paths, circles = svg_parts(text)
        assert len(circles) == 6
        assert len(paths) >= 12


class TestToleranceEnv:
    """verify checks exactly and has no --tol: any value is a usage error."""

    def test_tol_is_usage_error(self, tmp_path, capsys):
        dp = put(tmp_path, "d.json", ULP_SLOPES)
        assert run(["verify", "--in", dp, "--tol", "1e-9"]) == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1e-9", "-0.2", "nan", "inf"])
    def test_negative_or_non_finite_tol_is_usage_error(self, tmp_path, capsys, tol):
        dp = put(tmp_path, "d.json", ULP_SLOPES)
        assert run(["verify", "--in", dp, f"--tol={tol}"]) == 2
        assert f"unrecognized arguments: --tol={tol}" in capsys.readouterr().err
        assert run(["verify", "--in", dp, "--tol", tol]) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


class TestExactVerify:
    def test_float_file_is_checked_as_its_numbers(self, tmp_path):
        dp = put(tmp_path, "d.json", ULP_SLOPES)
        rp = str(tmp_path / "r.json")
        assert run(["verify", "--in", dp, "--out", rp]) == 0
        rep = get(rp)
        assert rep["distinct_slopes"] == 2 and rep["ok"] is True
        assert "exact" not in rep and "tolerance" not in rep

    def test_angle_wedge_is_one_value_error(self, tmp_path, capsys):
        # a wedge of float start and span angles declares no integer rays
        wedge = {"apex": [0, 0], "start": 2.5, "span": 1.5}
        obj = {**ULP_SLOPES, "meta": {"wedge": wedge}}
        assert run(["verify", "--in", put(tmp_path, "d.json", obj)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: ValueError: meta wedge field 'rays' must be two nonzero "
            "integer pairs, got None\n"
        )


class TestDeterminism:
    def test_repeated_runs_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            gp = str(tmp_path / f"g{name}.json")
            dp = str(tmp_path / f"d{name}.json")
            assert run(["gen", "--family", "random", "--n", "30", "--seed", "7", "--out", gp]) == 0
            assert run(["draw", "--method", "onebend", "--in", gp, "--out", dp]) == 0
            with open(dp, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_drawing_json_parses_back(self, tmp_path):
        gp = put(tmp_path, "g.json", graph_to_obj(gen_octahedron()))
        dp = str(tmp_path / "d.json")
        assert run(["draw", "--method", "twobend", "--in", gp, "--out", dp]) == 0
        dr = drawing_from_obj(get(dp))
        assert dr.method == "twobend"
        assert len(dr.points) == 6
