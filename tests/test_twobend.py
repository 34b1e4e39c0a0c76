"""Two-bend pipeline: slot routing, gluing at cut vertices, fallbacks."""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from conftest import bench_instances, bounded_stack, capped_planar, glued_blocks

from fewslopes import graphs, twobend
from fewslopes.drawing import Drawing, EdgeArc, SlopeSet
from fewslopes.errors import DegreeTooHigh, DegreeTooSmall, GluingFailed, SlopesTooFew
from fewslopes.families import gen_octahedron, gen_random_triangulation
from fewslopes.graphs import PlanarGraph, planar_embed
from fewslopes.jsonio import drawing_to_obj, dumps_canonical
from fewslopes.twobend import (
    _dist_point_ray,
    _dist_point_segment,
    _used_slots_at,
    draw_biconnected_twobend,
    draw_low_degree,
    draw_twobend,
    regular_slopes,
)
from fewslopes.verify import check_noncrossing, check_rotation, slope_census, verify_drawing


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


def k4(vs) -> list[tuple[int, int]]:
    return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]


def octahedron_pair() -> PlanarGraph:
    """Two octahedra less an edge, each with a new vertex (6 and 13) joined
    to the ends of the removed edge, and a bridge between the new vertices.
    Every other vertex has degree 4 = 2s, so only 6 or 13 can be on top."""
    octa = gen_octahedron()
    a, b = octa.edges[0]
    edges = []
    for off in (0, 7):
        edges += [(u + off, v + off) for u, v in octa.edges if (u, v) != (a, b)]
        edges += [(a + off, 6 + off), (b + off, 6 + off)]
    return PlanarGraph(14, tuple(edges + [(6, 13)]))


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
        assert sl.directed_index(0.0, -1.0) % sl.s == 0


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
        "g",
        [
            PlanarGraph(8, tuple(k4([0, 2, 3, 4]) + k4([1, 5, 6, 7]) + [(0, 1)])),
            PlanarGraph(12, tuple(
                k4([0, 2, 3, 4]) + k4([1, 5, 6, 7]) + k4([8, 9, 10, 11]) + [(0, 1), (7, 8)]
            )),
        ],
        ids=["two_k4", "k4_path"],
    )
    def test_root_top_avoids_cut_vertices(self, g):
        # the first block is the bridge (0, 1), both of whose ends are cut vertices
        dr = draw_twobend(g)
        assert dr.meta["t"] not in (0, 1)
        rep = verify_drawing(dr)
        assert rep.ok and rep.wedge_ok

    def test_cut_vertex_top_drops_wedge(self):
        dr = draw_twobend(octahedron_pair())
        assert dr.meta["s"] == 2 and dr.meta["t"] in (6, 13)
        assert "wedge" not in dr.meta
        rep = verify_drawing(dr)
        assert rep.wedge_ok is None and rep.ok

    def test_meta_degree_is_the_graphs(self):
        g = k4_chain(3)
        assert draw_twobend(g).meta["d"] == g.max_degree == 6

    def test_block_chain_beyond_float_resolution_is_typed(self):
        # each glued K4 is halved against the clearance at its cut vertex
        with pytest.raises(GluingFailed, match="below float resolution"):
            draw_twobend(k4_chain(10))

    @pytest.mark.parametrize(
        "g", [k4_chain(3), glued_blocks(8, 4), multi_block_graph()],
        ids=["k4_chain", "glued_blocks", "multi_block"],
    )
    def test_slope_indices_follow_gluing_rotation(self, g):
        dr = draw_twobend(g)
        sl = SlopeSet(dr.meta["s"])
        for a in dr.edges:
            for (p, q), k in zip(a.segments, a.slope_indices):
                kd = sl.directed_index(q[0] - p[0], q[1] - p[1], 1e-6)
                assert kd is not None and kd % sl.s == k

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

    def test_block_chain_at_scale(self):
        # 1600 vertices in many blocks: a st-order step searches only the
        # block of the vertex it places and a glue measures only the
        # features near its cut vertex, so the whole graph draws in well
        # under a second
        g = capped_planar(1600, 0, 8)
        ok, witness = check_noncrossing(draw_twobend(g))
        assert ok, witness

    def test_deterministic_bytes(self):
        g = bounded_stack(40, 5, 8)
        a = dumps_canonical(drawing_to_obj(draw_twobend(g)))
        b = dumps_canonical(drawing_to_obj(draw_twobend(g)))
        assert a == b


def scan_clearance(pts, arcs, v, wedge) -> float:
    """Oracle for _clearance: half the least distance from v to every other
    point and every segment, a radial segment at v counted by its far end,
    and to the wedge's rays."""
    p = pts[v]
    best = math.inf
    for w, q in pts.items():
        if w != v:
            best = min(best, math.hypot(q[0] - p[0], q[1] - p[1]))
    for a in arcs:
        segs = a.segments
        for i, (q0, q1) in enumerate(segs):
            if a.u == v and i == 0:
                far = q1
            elif a.v == v and i == len(segs) - 1:
                far = q0
            else:
                best = min(best, _dist_point_segment(p, q0, q1))
                continue
            best = min(best, math.hypot(far[0] - p[0], far[1] - p[1]))
    if wedge is not None and (p[0], p[1]) != tuple(wedge.apex):
        for ang in (wedge.start, wedge.start + wedge.span):
            best = min(best, _dist_point_ray(p, wedge.apex, ang))
    return best / 2.0


class TestClearance:
    @pytest.mark.parametrize(
        "g,glues",
        [(glued_blocks(8, 4), 2), (k4_chain(9), 8), (capped_planar(250, 0, 8), 4)],
        ids=["glued_blocks", "k4_chain_9", "capped_planar_250"],
    )
    def test_equals_full_scan_at_every_glue(self, monkeypatch, g, glues):
        real = twobend._clearance
        seen = []

        def checked(comp, v, wedge):
            got = real(comp, v, wedge)
            assert got == scan_clearance(comp.pts, comp.arcs, v, wedge), v
            seen.append(got)
            return got

        monkeypatch.setattr(twobend, "_clearance", checked)
        draw_twobend(g)
        assert len(seen) == glues

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_full_scan_on_random_polylines(self, seed):
        # long bent arcs whose boxes hold many points, at unit scale and in
        # a cluster 1e-9 wide at coordinates near 1e3, where every distance
        # carries rounding error
        rng = random.Random(seed)
        base, size = (0.0, 10.0) if seed % 2 else (1000.1, 1e-9)

        def pt():
            return (base + size * rng.random(), base + size * rng.random())

        pts = {v: pt() for v in range(25)}
        arcs = []
        for _ in range(40):
            u, v = rng.sample(range(25), 2)
            poly = (pts[u], *(pt() for _ in range(rng.randrange(3))), pts[v])
            arcs.append(EdgeArc(u, v, poly, (0,) * (len(poly) - 1)))
        comp = twobend._Composite(Drawing("twobend", pts, arcs, "float", {}))
        for v in pts:
            assert twobend._clearance(comp, v, None) == scan_clearance(pts, arcs, v, None), v

    def test_deep_chain_shrinks_below_the_margin(self, monkeypatch):
        # k4_chain(9) reaches clearances below the prefilter's rounding
        # margin, 2^-41 to 2^-40 of the largest coordinate, so
        # test_equals_full_scan_at_every_glue covers the case where the
        # margin, not the gap, decides
        real = twobend._clearance
        ratios = []

        def recorded(comp, v, wedge):
            got = real(comp, v, wedge)
            ratios.append(got / max(abs(c) for p in comp.pts.values() for c in p))
            return got

        monkeypatch.setattr(twobend, "_clearance", recorded)
        draw_twobend(k4_chain(9))
        assert min(ratios) < 2.0**-41


def test_st_order_searches_only_the_changed_block(monkeypatch):
    # a step splits only the block of the vertex it places, so the searches
    # cover a small share of the unplaced vertices summed over all steps
    real_blocks, real_st_order = graphs._blocks, twobend.st_order
    searched = unplaced = 0

    def counted_blocks(adj, keep):
        nonlocal searched
        searched += len(keep)
        return real_blocks(adj, keep)

    def counted_st_order(e, s, t):
        nonlocal unplaced
        st = real_st_order(e, s, t)
        n = len(st.order)
        unplaced += (n - 1) * (n - 2) // 2  # |rest| is n - 2, ..., 1
        return st

    monkeypatch.setattr(graphs, "_blocks", counted_blocks)
    monkeypatch.setattr(twobend, "st_order", counted_st_order)
    draw_twobend(capped_planar(1600, 0, 8))
    assert unplaced > 10**5
    assert searched < 0.10 * unplaced, (searched, unplaced)


# twobend-blocks seed 1, round 0: (n, seed) of bench_instances().capped_planar
TWOBEND_BLOCKS_ROUND0 = {
    150: 9699978853088943037,
    225: 15608320593117688252,
    300: 16030627719229544678,
    375: 4380220430956175233,
    450: 11703788607160492643,
    525: 1353994463432362869,
    600: 5893131959065055312,
}


def _bench_twobend(n: int):
    return draw_twobend(bench_instances().capped_planar(n, 8, TWOBEND_BLOCKS_ROUND0[n]))


# sha256 of the canonical JSON of each drawing, taken when st_order tested
# every candidate with its own search and _route rebuilt the pending list
# per vertex: the lowpoint st-order and the spliced pending list must keep
# every order, column x and coordinate. The twobend-blocks digests were
# taken when st_order searched the whole unplaced subgraph per step and
# _clearance scanned every feature of the composite per glue.
PINNED_BYTES = {
    "octahedron": (lambda: draw_twobend(gen_octahedron(), SlopeSet(3)),
        "65eabf4fac98ae7a9e9d92a3922cc86913fdd5885223633463a838b05e3f62d2",
    ),
    "k4_chain_3": (lambda: draw_twobend(k4_chain(3)),
        "e503bcb28c2a296a3859bd648eb3f476f3b3bfc8f5199f572fa14779d2ca8312",
    ),
    "octahedron_pair": (lambda: draw_twobend(octahedron_pair()),
        "801066ff59beaea0a7e0659b551114cbbdf423e5c7f5fd485e942ab48ff72248",
    ),
    "multi_block": (lambda: draw_twobend(multi_block_graph()),
        "c9a12d3081334aeefe6358ac9c3a71871d23e01e6c14a52918dd20580206d944",
    ),
    "glued_blocks_8_4": (lambda: draw_twobend(glued_blocks(8, 4)),
        "410172d068a8a4cedd0467cad68f4f9e79e66ac4dc350ca665bf0a00ceac5818",
    ),
    "bounded_stack_60_3_8": (lambda: draw_twobend(bounded_stack(60, 3, 8)),
        "4d26f66d65cd7f66970694e847bb0f2314a78145423948fb0070c35400f3728b",
    ),
    "capped_planar_250_0_8": (lambda: draw_twobend(capped_planar(250, 0, 8)),
        "6e1d12688f7d2a2bb1eebbf288036c6a909fcbf137ddb56c3bec09dc9ac886d6",
    ),
    "twobend_blocks_150": (lambda: _bench_twobend(150),
        "58c53baa7329e69aa89d30cda5259adf2e2e7e2f4ee501c4c688e9b806d5d034",
    ),
    "twobend_blocks_225": (lambda: _bench_twobend(225),
        "b4f3e31f0194d1ccf6b7d3e017ce107dfb50dbafc117d4e649914e790f86aa8f",
    ),
    "twobend_blocks_300": (lambda: _bench_twobend(300),
        "9b9820a704c8c3568dc17d1da89033739046da0f8ac0443954a0fb78cafa42a7",
    ),
    "twobend_blocks_375": (lambda: _bench_twobend(375),
        "69d8a8d3dbc2546f0d9ef01c5050ac8c7e4fcac9c0e0deda7a865168efafc8ce",
    ),
    "twobend_blocks_450": (lambda: _bench_twobend(450),
        "9a2b0bd9c5120f499ac1676f7c873c7e9cbdee18c81e057bdeadfbaf28893033",
    ),
    "twobend_blocks_525": (lambda: _bench_twobend(525),
        "b50fce1c13d3614c678aa4b45da96760828104232a0c211233f778f23b51693a",
    ),
    "twobend_blocks_600": (lambda: _bench_twobend(600),
        "e3a83ecb97d9345be8404bb0e88779510ece2b966c24537736c4edf48a20547a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BYTES))
def test_drawing_bytes_are_pinned(name):
    build, digest = PINNED_BYTES[name]
    text = dumps_canonical(drawing_to_obj(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
