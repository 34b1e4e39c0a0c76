"""Round-trip and canonical-bytes tests for the JSON layer."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from fewslopes.drawing import Drawing, EdgeArc, SlopeSet
from fewslopes.families import gen_octahedron, gen_random_triangulation
from fewslopes.graphs import PlanarGraph, planar_embed
from fewslopes.circlepack import layout_centers, pack_radii
from fewslopes.jsonio import (
    drawing_from_obj,
    drawing_to_obj,
    dumps_canonical,
    graph_from_obj,
    graph_to_obj,
    packing_from_obj,
    packing_to_obj,
)
from fewslopes.onebend import draw_onebend
from fewslopes.straightline import draw_straight
from fewslopes.twobend import draw_twobend
from fewslopes.verify import verify_drawing


def canon(obj) -> str:
    return dumps_canonical(obj)


class TestCanonical:
    def test_sorted_keys_no_whitespace(self):
        assert canon({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_nested_sorting(self):
        assert canon({"z": {"b": [1, 2], "a": 0}}) == '{"z":{"a":0,"b":[1,2]}}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canon({"x": float("nan")})

    def test_stable_bytes(self):
        obj = graph_to_obj(gen_octahedron())
        assert canon(obj) == canon(json.loads(canon(obj)))


class TestGraph:
    def test_round_trip_with_labels(self):
        g = gen_octahedron()
        h = graph_from_obj(json.loads(canon(graph_to_obj(g))))
        assert h.n == g.n
        assert h.edges == g.edges
        assert h.labels == g.labels

    def test_round_trip_without_labels(self):
        g = PlanarGraph(4, ((0, 1), (1, 2), (2, 3)))
        obj = graph_to_obj(g)
        assert "labels" not in obj
        h = graph_from_obj(obj)
        assert h.labels is None
        assert h.edges == g.edges


    @pytest.mark.parametrize(
        "obj,match",
        [
            ([1, 2], "a graph is a JSON object, not list"),
            ({"edges": []}, "graph has no 'n' field"),
            ({"n": True, "edges": []}, "graph field 'n' is not an integer: True"),
            ({"n": 2}, "graph has no 'edges' field"),
            ({"n": 2, "edges": {}}, "graph field 'edges' is not an array"),
            ({"n": 2, "edges": [[0]]}, r"edge 0 is not a pair of integers: \[0\]"),
            ({"n": 3, "edges": [[0, 1], [1, 2.0]]}, "edge 1 is not a pair of integers"),
            ({"n": 2, "edges": [[0, 1]], "labels": "ab"}, "graph field 'labels' is not an array"),
            ({"n": 3, "edges": [], "labels": [1, 2, None]}, "graph field 'labels' holds 1, not a string"),
            ({"n": 2, "edges": [], "labels": ["a", None]}, "graph field 'labels' holds None, not a string"),
        ],
    )
    def test_malformed_graph_names_the_field(self, obj, match):
        with pytest.raises(ValueError, match=match):
            graph_from_obj(obj)


class TestPacking:
    def test_round_trip(self):
        e = planar_embed(gen_octahedron())
        cp = layout_centers(pack_radii(e), e)
        cq = packing_from_obj(json.loads(canon(packing_to_obj(cp))))
        assert cq.radii == pytest.approx(cp.radii, abs=0)
        assert cq.centers == cp.centers
        assert cq.outer == cp.outer
        assert cq.epsilon == cp.epsilon
        # the embedding is not carried through serialization
        assert cq.embedding is None

    def test_double_emit_identical(self):
        e = planar_embed(gen_octahedron())
        cp = layout_centers(pack_radii(e), e)
        s1 = canon(packing_to_obj(cp))
        s2 = canon(packing_to_obj(packing_from_obj(json.loads(s1))))
        assert s1 == s2


class TestDrawingRoundTrip:
    def check(self, dr: Drawing):
        s1 = canon(drawing_to_obj(dr))
        back = drawing_from_obj(json.loads(s1))
        assert back.method == dr.method
        assert back.coord_kind == dr.coord_kind
        assert back.points == dr.points
        assert len(back.edges) == len(dr.edges)
        for a, b in zip(back.edges, dr.edges):
            assert (a.u, a.v, a.poly) == (b.u, b.v, b.poly)
        assert canon(drawing_to_obj(back)) == s1

    def test_int_coordinates(self):
        self.check(draw_straight(gen_octahedron()))

    def test_rational_coordinates(self):
        self.check(draw_onebend(gen_octahedron()))

    def test_float_coordinates(self):
        dr = Drawing(
            "custom",
            {0: (0.0, 0.5), 1: (1.25, -3.0)},
            (EdgeArc(0, 1, ((0.0, 0.5), (1.25, -3.0))),),
            "float",
            {},
        )
        self.check(dr)

    def test_twobend_with_slope_indices(self):
        # no edge is written with slope_indices; a file from before, whose
        # two-bend edges carry them, parses, verifies and re-emits without them
        dr = draw_twobend(gen_random_triangulation(18, seed=2))
        obj = drawing_to_obj(dr)
        assert not any("slope_indices" in eo for eo in obj["edges"])
        self.check(dr)
        old = json.loads(canon(obj))
        sl = SlopeSet(dr.meta["s"])
        for eo, a in zip(old["edges"], dr.edges, strict=True):
            eo["slope_indices"] = [
                sl.directed_index(q[0] - p[0], q[1] - p[1]) % sl.s for p, q in a.segments
            ]
        back = drawing_from_obj(old)
        assert verify_drawing(back).ok
        assert canon(drawing_to_obj(back)) == canon(obj)

    def test_points_must_cover_vertices(self):
        dr = Drawing("custom", {0: (0, 0), 2: (1, 1)}, (), "int", {})
        with pytest.raises(ValueError):
            drawing_to_obj(dr)


class TestFormat2:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: draw_straight(gen_octahedron()),
            lambda: draw_onebend(gen_random_triangulation(30, 2)),
            lambda: draw_twobend(gen_random_triangulation(18, seed=2)),
        ],
        ids=["straight", "onebend", "twobend"],
    )
    def test_structure(self, build):
        dr = build()
        text = canon(drawing_to_obj(dr))
        obj = json.loads(text)
        assert set(obj) == {"format", "method", "coord_kind", "points", "edges", "meta"}
        assert obj["format"] == 2
        for eo, arc in zip(obj["edges"], dr.edges, strict=True):
            assert set(eo) == {"u", "v", "bends"}
            assert len(eo["bends"]) == len(arc.poly) - 2
        want = {"int": int, "rational": str, "float": float}[dr.coord_kind]
        coords = [c for p in obj["points"] for c in p]
        coords += [c for eo in obj["edges"] for p in eo["bends"] for c in p]
        assert all(type(c) is want for c in coords)
        assert "frac" not in text and "dec" not in text  # no rational as a dict
        assert canon(drawing_to_obj(drawing_from_obj(json.loads(text)))) == text

    def test_polyline_ends_are_the_vertex_points(self):
        dr = drawing_from_obj(json.loads(canon(drawing_to_obj(draw_onebend(gen_octahedron())))))
        for a in dr.edges:
            assert a.poly[0] is dr.points[a.u] and a.poly[-1] is dr.points[a.v]

    @pytest.mark.parametrize(
        "kind, p, bends, q",
        [
            ("rational", ["1/2", "0/1"], [["2/4", "0/5"]], ["3/1", "3/1"]),
            ("rational", ["1/2", "0/1"], [["1/1", "1/1"], ["1/1", "1/1"]], ["3/1", "3/1"]),
            ("int", [1, 0], [[3, 3]], [3, 3]),
            ("float", [0.5, 0.0], [[0.5, 0.0]], [3.0, 3.0]),
        ],
        ids=["rational-equal-to-its-point", "rational-equal-bends", "int", "float"],
    )
    def test_bend_equal_to_its_neighbour_is_degenerate(self, kind, p, bends, q):
        with pytest.raises(ValueError, match="degenerate polyline piece"):
            drawing_from_obj(segment_obj(kind, p, q, bends))


class TestRationalEncoding:
    def test_rational_is_one_num_den_string(self):
        dr = Drawing(
            "custom",
            {0: (Fraction(1, 3), Fraction(0)), 1: (Fraction(2), Fraction(-5, 4))},
            (EdgeArc(0, 1, ((Fraction(1, 3), Fraction(0)), (Fraction(2), Fraction(-5, 4)))),),
            "rational",
            {},
        )
        obj = drawing_to_obj(dr)
        assert obj["points"] == [["1/3", "0/1"], ["2/1", "-5/4"]]
        back = drawing_from_obj(obj)
        assert back.points[0][0] == Fraction(1, 3)
        assert back.points[1][1] == Fraction(-5, 4)

    def test_meta_fraction_encoded(self):
        dr = Drawing(
            "custom",
            {0: (0, 0)},
            (),
            "int",
            {"step": Fraction(3, 7), "nested": [Fraction(1, 2), 4]},
        )
        obj = drawing_to_obj(dr)
        assert obj["meta"]["step"] == "3/7"
        assert obj["meta"]["nested"] == ["1/2", 4]
        json.loads(canon(obj))

    def test_meta_of_unknown_type_rejected(self):
        # str() would write the int64 as the string "3" without any error
        dr = Drawing("custom", {0: (0, 0)}, (), "int", {"nested": [np.int64(3)]})
        with pytest.raises(TypeError, match="int64"):
            drawing_to_obj(dr)

    def test_coordinate_beyond_float_range(self):
        far = Fraction(2**1100, 3)
        ends = ((Fraction(0), Fraction(0)), (far, Fraction(1)))
        dr = Drawing(
            "custom", dict(enumerate(ends)), (EdgeArc(0, 1, ends),), "rational",
            {"far": -far},
        )
        text = canon(drawing_to_obj(dr))
        obj = json.loads(text)
        assert obj["points"][1][0] == f"{2**1100}/3"
        assert obj["meta"]["far"] == f"-{2**1100}/3"
        back = drawing_from_obj(obj)
        assert back.points[1][0] == far
        assert canon(drawing_to_obj(back)) == text
        assert verify_drawing(back).ok


def one_edge_drawing(kind: str, x) -> Drawing:
    """A drawing of kind whose one edge runs from (0, 0) to (x, 1)."""
    ends = ((0, 0), (x, 1))
    return Drawing("custom", dict(enumerate(ends)), (EdgeArc(0, 1, ends),), kind, {})


class TestWriterKeepsCoordinates:
    @pytest.mark.parametrize(
        "x",
        [Fraction(1, 2), 0.5, Fraction(2), 2.0, True],
        ids=["half", "float-half", "fraction-2", "float-2", "true"],
    )
    def test_int_drawing_refuses_a_non_int(self, x):
        # int(x) would write 0 for a half
        with pytest.raises(ValueError, match=re.escape(f"coordinate {x!r} is not an int")):
            drawing_to_obj(one_edge_drawing("int", x))

    @pytest.mark.parametrize(
        "x", [2**60 + 1, Fraction(1, 3), 2**1100], ids=["2**60+1", "third", "beyond-range"]
    )
    def test_float_drawing_refuses_an_inexact_float(self, x):
        # float(2**60 + 1) is 2**60: written so, it would be another drawing
        match = re.escape(f"coordinate {x!r} is not exactly a float")
        with pytest.raises(ValueError, match=match):
            drawing_to_obj(one_edge_drawing("float", x))

    @pytest.mark.parametrize(
        "x", [2**60, Fraction(1, 2), np.float64(0.1)], ids=["2**60", "half", "float64"]
    )
    def test_float_drawing_writes_an_exact_value(self, x):
        obj = drawing_to_obj(one_edge_drawing("float", x))
        assert obj["points"][1] == [float(x), 1.0] and type(obj["points"][1][0]) is float
        assert float(x) == x


class TestHandWrittenLeniency:
    def test_kind_inferred_int(self):
        obj = {
            "method": "custom",
            "points": [[0, 0], [4, 2]],
            "edges": [{"u": 0, "v": 1, "bends": [[4, 0]]}],
        }
        dr = drawing_from_obj(obj)
        assert dr.coord_kind == "int"
        assert dr.points[1] == (4, 2)
        assert dr.meta == {}

    def test_kind_inferred_float(self):
        obj = {
            "method": "custom",
            "points": [[0, 0], [1, 2]],
            "edges": [{"u": 0, "v": 1, "bends": [[0.5, 0]]}],
        }
        dr = drawing_from_obj(obj)
        assert dr.coord_kind == "float"
        assert dr.points[1] == (1.0, 2.0)
        assert dr.edges[0].poly[1] == (0.5, 0.0)

    def test_kind_inferred_rational(self):
        obj = {
            "method": "custom",
            "points": [["1/2", "0/1"]],
            "edges": [],
        }
        dr = drawing_from_obj(obj)
        assert dr.coord_kind == "rational"
        assert dr.points[0] == (Fraction(1, 2), Fraction(0))

    def test_kind_inferred_rational_from_a_bend(self):
        obj = {
            "method": "custom",
            "points": [[0, 0], [4, 2]],
            "edges": [{"u": 0, "v": 1, "bends": [["7/2", "0/1"]]}],
        }
        dr = drawing_from_obj(obj)
        assert dr.coord_kind == "rational"
        assert dr.edges[0].poly == ((0, 0), (Fraction(7, 2), 0), (4, 2))


def segment_obj(kind, p, q, bends=()):
    """A one-edge drawing from vertex point p to q through bends."""
    return {
        "format": 2,
        "method": "custom",
        "coord_kind": kind,
        "points": [p, q],
        "edges": [{"u": 0, "v": 1, "bends": list(bends)}],
    }


class TestDrawingParse:
    @pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1", None])
    def test_int_coordinate_must_be_an_integer(self, bad):
        # 1.5 used to be read as 1, and the verifier then certified (0,0)-(1,1)
        with pytest.raises(ValueError, match=f"coordinate {bad!r} is not a valid int"):
            drawing_from_obj(segment_obj("int", [0, 0], [bad, 1]))

    def test_int_bend_true_is_not_one(self):
        # true == 1 in Python; the parser must not read the bend as [1, 0]
        with pytest.raises(ValueError, match="coordinate True"):
            drawing_from_obj(segment_obj("int", [0, 0], [2, 2], [[True, 0]]))

    def test_rational_file_may_write_plain_ints(self):
        obj = segment_obj("rational", [0, "1/2"], [3, -2])
        dr = drawing_from_obj(obj)
        assert dr.points == {0: (0, Fraction(1, 2)), 1: (3, -2)}
        assert all(type(c) is Fraction for p in dr.points.values() for c in p)
        text = canon(drawing_to_obj(dr))
        assert json.loads(text)["points"] == [["0/1", "1/2"], ["3/1", "-2/1"]]
        assert canon(drawing_to_obj(drawing_from_obj(json.loads(text)))) == text

    def test_inferred_rational_with_plain_ints(self):
        obj = segment_obj("rational", [0, "1/2"], [3, 2])
        del obj["coord_kind"]
        dr = drawing_from_obj(obj)
        assert dr.coord_kind == "rational" and dr.points[1] == (3, 2)

    def test_unreduced_rational_is_read_reduced(self):
        dr = drawing_from_obj(segment_obj("rational", ["2/4", "0/5"], ["3/-1", "6/2"]))
        assert dr.points == {0: (Fraction(1, 2), 0), 1: (-3, 3)}
        assert drawing_to_obj(dr)["points"] == [["1/2", "0/1"], ["-3/1", "3/1"]]

    @pytest.mark.parametrize(
        "kind, bad",
        [
            ("rational", {"dec": "inf", "frac": "1/0"}),
            ("rational", {"dec": "0.5"}),
            ("rational", {"frac": "1/2/3"}),
            ("rational", {"frac": 2}),
            ("rational", 0.5),
            ("rational", True),
            ("float", {"dec": "0.5", "frac": "1/2"}),
            ("float", "0.5"),
            ("float", False),
            pytest.param("float", 10**400, id="float-int-past-float-range"),
            pytest.param("rational", "1/0", id="rational-zero-den"),
            pytest.param("rational", "0.5", id="rational-decimal"),
            pytest.param("rational", "1/2/3", id="rational-two-slashes"),
            pytest.param("rational", "3", id="rational-no-slash"),
            pytest.param("rational", "x/2", id="rational-not-a-number"),
            pytest.param("float", "1/2", id="float-num-den"),
        ],
    )
    def test_malformed_coordinate_is_a_value_error(self, kind, bad):
        with pytest.raises(ValueError, match=f"is not a valid {kind} coordinate"):
            drawing_from_obj(segment_obj(kind, [0, 0], [bad, 1]))

    def test_unknown_coord_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown coord_kind 'complex'"):
            drawing_from_obj(segment_obj("complex", [0, 0], [1, 1]))
        with pytest.raises(ValueError, match=r"unknown coord_kind \['int'\]"):
            drawing_from_obj(segment_obj(["int"], [0, 0], [1, 1]))


class TestFloatFiniteness:
    """The float coordinates of a float drawing must be finite; ints and
    Fractions in it are accepted whatever their size."""

    @staticmethod
    def drawing(bad_point=None, bad_bend=None):
        pts = {0: (0.0, 0.0), 1: bad_point or (1.0, 2.0), 2: (3.0, 0.0)}
        arcs = [
            EdgeArc(0, 1, (pts[0], pts[1])),
            EdgeArc(1, 2, (pts[1], bad_bend or (2.0, 5.0), pts[2])),
        ]
        return Drawing("custom", pts, arcs, "float")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_point_is_named(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"non-finite coordinate {(1.0, bad)}")):
            self.drawing(bad_point=(1.0, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bend_is_named(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"non-finite coordinate {(bad, 5.0)}")):
            self.drawing(bad_bend=(bad, 5.0))

    @pytest.mark.parametrize(
        "odd",
        [2**1100, Fraction(1, 3), Fraction(2**1100, 3)],
        ids=["huge-int", "fraction", "huge-fraction"],
    )
    def test_int_beyond_float_range_and_fraction_accepted(self, odd):
        assert self.drawing(bad_point=(1.0, odd)).points[1] == (1.0, odd)
        assert self.drawing(bad_bend=(odd, 5.0)).edges[1].poly[1] == (odd, 5.0)

    def test_non_finite_bend_after_a_huge_int_is_named(self):
        # the huge int makes the one-pass test raise; the scan names the bend
        with pytest.raises(ValueError, match=re.escape(f"non-finite coordinate {(math.nan, 5.0)}")):
            self.drawing(bad_point=(1.0, 2**1100), bad_bend=(math.nan, 5.0))
