"""Two-bend pipeline: slot routing, gluing at cut vertices, fallbacks."""

from __future__ import annotations

import math

import pytest
from conftest import bounded_stack, glued_blocks

from fewslopes.drawing import EdgeArc, SlopeSet
from fewslopes.errors import DegreeTooHigh, DegreeTooSmall, SlopesTooFew
from fewslopes.families import gen_octahedron, gen_random_triangulation
from fewslopes.graphs import PlanarGraph, planar_embed
from fewslopes.jsonio import drawing_to_obj, dumps_canonical
from fewslopes.twobend import (
    _used_slots_at,
    draw_biconnected_twobend,
    draw_low_degree,
    draw_twobend,
    regular_slopes,
)
from fewslopes.verify import check_rotation, slope_census, verify_drawing


def k4_chain(blocks: int) -> PlanarGraph:
    """K4 blocks glued into a chain at shared vertices."""
    edges = []
    n = 0
    last = 0
    for b in range(blocks):
        vs = [last] + [n + 1 + i if b else i + 1 for i in range(3)] if b else [0, 1, 2, 3]
        if b:
            vs = [last, n, n + 1, n + 2]
            n += 3
        else:
            n = 4
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((vs[i], vs[j]))
        last = vs[-1]
    return PlanarGraph(n, tuple(edges))


def multi_block_graph() -> PlanarGraph:
    """Root block (0,1,2,3,5), bridge (3,4), K4 on 5-8 and K4 on 8-11."""
    edges = [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
    edges += [(u, v) for u in range(8, 12) for v in range(u + 1, 12)]
    edges += [(0, 5), (0, 1), (1, 2), (2, 5), (2, 3), (3, 4), (0, 3)]
    return PlanarGraph(12, tuple(edges))


class TestSlopeChoice:
    @pytest.mark.parametrize("d,s", [(3, 2), (4, 2), (6, 3), (7, 4), (11, 6)])
    def test_minimum_slope_count(self, d, s):
        assert regular_slopes(d).s == s

    def test_override_below_minimum_rejected(self):
        with pytest.raises(SlopesTooFew):
            draw_twobend(gen_octahedron(), SlopeSet(1))

    def test_directed_slots(self):
        sl = SlopeSet(3)
        assert sl.directed_index(0.0, 1.0) == 0
        assert sl.directed_index(math.sin(math.pi / 3), math.cos(math.pi / 3)) == 1
        assert sl.directed_index(0.0, -1.0) == 3
        assert sl.directed_index(1.0, 0.9) is None
        assert sl.undirected_index(0.0, -1.0) == 0


class TestTriangleBlock:
    def test_hand_checked_invariants(self):
        g = PlanarGraph(3, ((0, 1), (0, 2), (1, 2)))
        e = planar_embed(g)
        dr = draw_biconnected_twobend(e, 0, regular_slopes(3, 2))
        rep = verify_drawing(dr, SlopeSet(2))
        assert rep.ok and rep.max_bends <= 2
        assert rep.distinct_slopes <= 2
        assert dr.meta["wedge_contained"]
        assert "fan_slots" in dr.meta and "wedge" in dr.meta


class TestOctahedron:
    def test_three_slopes_pass(self):
        dr = draw_twobend(gen_octahedron(), SlopeSet(3))
        rep = verify_drawing(dr)
        assert rep.ok
        assert rep.distinct_slopes <= 3
        assert rep.max_bends <= 2
        assert rep.contiguity_ok and all(rep.contiguity_ok.values())
        assert rep.wedge_ok

    def test_two_slopes_structurally_impossible(self):
        with pytest.raises(DegreeTooHigh):
            draw_twobend(gen_octahedron(), SlopeSet(2))

    def test_default_escalates_for_regular_graph(self):
        dr = draw_twobend(gen_octahedron())
        assert dr.meta["s"] == 3
        assert verify_drawing(dr).ok

    def test_default_stays_minimal_when_some_vertex_is_light(self):
        wheel = PlanarGraph(
            5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1))
        )
        dr = draw_twobend(wheel)
        assert dr.meta["s"] == 2
        assert verify_drawing(dr).ok

    def test_rotation_system_realized(self):
        g = gen_octahedron()
        dr = draw_twobend(g, SlopeSet(3))
        assert check_rotation(dr, planar_embed(g).rotation) == []


class TestGluing:
    def test_chain_of_blocks(self):
        g = k4_chain(3)
        dr = draw_twobend(g)
        rep = verify_drawing(dr)
        assert rep.ok
        assert set(dr.points) == set(range(g.n))

    def test_tree_of_edges(self):
        star = PlanarGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
        rep = verify_drawing(draw_twobend(star))
        assert rep.ok

    def test_mixed_blocks(self):
        g = glued_blocks(8, 4)
        rep = verify_drawing(draw_twobend(g))
        assert rep.ok

    def test_disconnected_components_side_by_side(self):
        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        g = PlanarGraph(8, tuple(k4 + [(u + 4, v + 4) for u, v in k4]))
        dr = draw_twobend(g)
        assert dr.meta["components"] == 2
        assert verify_drawing(dr).ok

    def test_multi_block_meta_uses_graph_ids(self):
        g = multi_block_graph()
        dr = draw_twobend(g)
        meta = dr.meta
        assert meta["blocks"] == 4
        bottom = tuple(sorted((meta["v1"], meta["v2"])))
        assert g.has_edge(*bottom)
        assert bottom in meta["nonvertical_middle_edges"]
        assert list(dr.points[meta["t"]]) == meta["wedge"]["apex"]

    @pytest.mark.parametrize(
        "g", [k4_chain(3), glued_blocks(8, 4), multi_block_graph()],
        ids=["k4_chain", "glued_blocks", "multi_block"],
    )
    def test_slope_indices_follow_gluing_rotation(self, g):
        dr = draw_twobend(g)
        sl = SlopeSet(dr.meta["s"])
        for a in dr.edges:
            for (p, q), k in zip(a.segments, a.slope_indices):
                assert sl.undirected_index(q[0] - p[0], q[1] - p[1], 1e-6) == k

    def test_used_slots_read_from_stored_index(self):
        # a 2.5e-13 segment at 1e3 resolves its direction only to ~0.06 rad
        sl = SlopeSet(3)
        p = (1000.0, 1000.0)
        ang = sl.angle(1)
        q = (p[0] + 3e-13 * math.sin(ang), p[1] + 3e-13 * math.cos(ang))
        assert sl.directed_index(q[0] - p[0], q[1] - p[1], tol=1e-6) is None
        pts, arcs = {0: p, 1: q}, [EdgeArc(0, 1, (p, q), (1,))]
        assert _used_slots_at(pts, arcs, 0, sl) == {1}
        assert _used_slots_at(pts, arcs, 1, sl) == {4}


class TestLowDegree:
    def test_path_uses_one_slope(self):
        g = PlanarGraph(4, ((0, 1), (1, 2), (2, 3)))
        dr = draw_low_degree(g)
        _, distinct = slope_census(dr)
        assert distinct == 1

    def test_even_cycle_uses_two(self):
        g = PlanarGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))
        dr = draw_low_degree(g)
        _, distinct = slope_census(dr)
        assert distinct == 2
        assert verify_drawing(dr).crossing_free

    def test_odd_cycle_needs_three(self):
        g = PlanarGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
        dr = draw_low_degree(g)
        _, distinct = slope_census(dr)
        assert distinct == 3
        assert verify_drawing(dr).crossing_free

    def test_degree_routing(self):
        cyc = PlanarGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        with pytest.raises(DegreeTooSmall):
            draw_twobend(cyc)
        with pytest.raises(ValueError):
            draw_low_degree(gen_octahedron())


class TestLargerInstances:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_bounded_degree_stack(self, seed):
        g = bounded_stack(60, seed, 8)
        dr = draw_twobend(g)
        rep = verify_drawing(dr)
        assert rep.ok
        assert rep.distinct_slopes <= (g.max_degree + 1) // 2

    def test_unbounded_triangulation(self):
        g = gen_random_triangulation(40, 10)
        rep = verify_drawing(draw_twobend(g))
        assert rep.ok

    def test_deterministic_bytes(self):
        g = bounded_stack(40, 5, 8)
        a = dumps_canonical(drawing_to_obj(draw_twobend(g)))
        b = dumps_canonical(drawing_to_obj(draw_twobend(g)))
        assert a == b
