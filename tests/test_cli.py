"""End-to-end tests for the command-line driver and SVG renderer."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import fewslopes
from fewslopes.cli import RenderOptions, render_svg, run
from fewslopes.drawing import Drawing, EdgeArc
from fewslopes.families import gen_octahedron, gen_random_triangulation
from fewslopes.jsonio import drawing_from_obj, dumps_canonical, graph_to_obj
from fewslopes.straightline import draw_straight
from fewslopes.verify import verify_drawing

K5 = {"n": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]}

K4 = {"n": 4, "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}

CROSSING = {
    "method": "custom",
    "points": [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
    "edges": [
        {"u": 0, "v": 1, "poly": [[0.0, 0.0], [1.0, 1.0]]},
        {"u": 2, "v": 3, "poly": [[0.0, 1.0], [1.0, 0.0]]},
    ],
}

# two directions 1.5e-3 rad apart: distinct at tol 1e-9, ambiguous at 1e-3
NEAR_SLOPES = {
    "method": "custom",
    "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0015]],
    "edges": [
        {"u": 0, "v": 1, "poly": [[0.0, 0.0], [1.0, 0.0]]},
        {"u": 2, "v": 3, "poly": [[0.0, 1.0], [1.0, 1.0015]]},
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

    def test_snap_overflow_is_one_error_line(self, tmp_path, capsys):
        # degree 21 needs snapping grids beyond float range
        gp = put(tmp_path, "g.json", graph_to_obj(gen_random_triangulation(60, 3)))
        assert run(["draw", "--method", "straight", "--in", gp]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: PrecisionExhausted: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_coordinate_is_one_error_line(self, tmp_path, capsys, bad):
        # the segment to the bad point would cross (1,0)-(0,1) if it were read
        p = tmp_path / "d.json"
        p.write_text(
            '{"method":"custom","points":[[0.0,0.0],[%s,1.0],[1.0,0.0],[0.0,1.0]],'
            '"edges":[{"u":0,"v":1,"poly":[[0.0,0.0],[%s,1.0]]},'
            '{"u":2,"v":3,"poly":[[1.0,0.0],[0.0,1.0]]}]}' % (bad, bad),
            encoding="utf-8",
        )
        assert run(["verify", "--in", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: non-finite coordinate")
        assert err.count("\n") == 1


def test_module_entry_point_runs_main():
    env = dict(os.environ)
    src = str(Path(fewslopes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "fewslopes.cli", "gen", "--family", "octahedron"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert '"n":6' in out.stdout
    assert out.stderr == ""


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
        # one class chains 11 directions 0.9e-9 rad apart, wider than the
        # 1e-9 tolerance; its last one lies nearer the next class's middle
        # than its own, and shares an edge with the class's first one
        tol = 1e-9
        angs = [0.5 + 0.9 * j * tol for j in range(11)] + [0.5 + 11.5 * tol]
        runs = [(angs[0], angs[10])] + [(a,) for a in angs[1:10]] + [(angs[11],)]
        pts, arcs = {}, []
        for i, run_angs in enumerate(runs):
            poly = [(3.0 * i, 0.0)]
            for a in run_angs:
                poly.append((poly[-1][0] + math.sin(a), poly[-1][1] + math.cos(a)))
            pts[2 * i], pts[2 * i + 1] = poly[0], poly[-1]
            arcs.append(EdgeArc(2 * i, 2 * i + 1, tuple(poly)))
        dr = Drawing("custom", pts, arcs, "float")
        rep = verify_drawing(dr, tol=tol)
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
    def test_env_var_sets_default(self, tmp_path, monkeypatch):
        dp = put(tmp_path, "d.json", NEAR_SLOPES)
        monkeypatch.delenv("FEWSLOPES_TOL", raising=False)
        assert run(["verify", "--in", dp, "--out", str(tmp_path / "a.json")]) == 0
        monkeypatch.setenv("FEWSLOPES_TOL", "1e-3")
        assert run(["verify", "--in", dp, "--out", str(tmp_path / "b.json")]) == 1

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        dp = put(tmp_path, "d.json", NEAR_SLOPES)
        monkeypatch.setenv("FEWSLOPES_TOL", "1e-3")
        rc = run(["verify", "--in", dp, "--tol", "1e-9", "--out", str(tmp_path / "c.json")])
        assert rc == 0


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
