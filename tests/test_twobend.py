"""Two-bend pipeline: slot routing, gluing at cut vertices, fallbacks."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from conftest import (
    TWOBEND_BLOCKS_ROUND0,
    bench_instances,
    bounded_stack,
    capped_planar,
    glued_blocks,
)

from fewslopes import graphs, twobend
from fewslopes.drawing import Drawing, EdgeArc, SlopeSet, Wedge
from fewslopes.errors import (
    DegreeTooHigh,
    DegreeTooSmall,
    GluingFailed,
    SlopesTooFew,
    StOrderInfeasible,
)
from fewslopes.families import gen_octahedron, gen_random_triangulation
from fewslopes.graphs import Embedding, PlanarGraph, planar_embed
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
from fewslopes.verify import (
    check_noncrossing,
    check_rotation,
    check_wedge,
    slope_census,
    verify_drawing,
)


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


def joined_antiprisms() -> PlanarGraph:
    """Two 6-antiprisms (rims i, i+1 and 6+i, 6+(i+1)%6, rungs i, 6+i and
    i, 6+(i+1)%6), the second offset by 12, less the edges (0, 1) and
    (12, 13), with a new vertex 24 joined to 0, 1, 12 and 13: 4-regular,
    and 24 is a cut vertex."""
    edges = {(0, 24), (1, 24), (12, 24), (13, 24)}
    for off in (0, 12):
        for i in range(6):
            j = (i + 1) % 6
            edges |= {(off + i, off + j), (off + 6 + i, off + 6 + j)}
            edges |= {(off + i, off + 6 + i), (off + i, off + 6 + j)}
    edges = {(min(e), max(e)) for e in edges} - {(0, 1), (12, 13)}
    return PlanarGraph(25, tuple(sorted(edges)))


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
        assert rep.wedge_ok
        assert "fan_slots" in dr.meta and "wedge" in dr.meta


# st_order takes the smallest outer neighbour of v1 that is not a cut vertex
# of G - v1 as v2; on this block with t = 2, no v1 on either face at 2 has one
@pytest.mark.xfail(strict=True, raises=StOrderInfeasible)
def test_block_without_greedy_st_order_draws():
    g = PlanarGraph(
        6, ((0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (3, 4), (3, 5))
    )
    e = Embedding(g, planar_embed(g).rotation, (0, 3, 1, 2))
    assert verify_drawing(draw_biconnected_twobend(e, 2, SlopeSet(2))).ok


def caterpillar(k: int) -> PlanarGraph:
    """A spine path of k vertices with one leaf at each: 2k vertices, d = 3."""
    spine = [(i, i + 1) for i in range(k - 1)]
    return PlanarGraph(2 * k, tuple(spine + [(i, k + i) for i in range(k)]))


# every cut vertex on the spine halves the child block glued at it; from
# k = 54 on the halvings fall below float resolution (k = 53 draws)
@pytest.mark.xfail(strict=True, raises=GluingFailed)
def test_long_caterpillar_draws_with_two_slopes():
    rep = verify_drawing(draw_twobend(caterpillar(54)))
    assert rep.ok and rep.distinct_slopes <= 2


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

    def test_default_stays_minimal_for_regular_graph_with_cut_vertex(self):
        # the cut vertex has block degree 2 < 2s in each of its blocks, so
        # it is a top with a spare slot at ceil(d/2) slopes
        g = joined_antiprisms()
        assert {g.degree(v) for v in range(g.n)} == {4}
        assert graphs.block_cut_tree(g).cut_vertices == (24,)
        dr = draw_twobend(g)
        assert dr.meta["s"] == 2
        rep = verify_drawing(dr, SlopeSet(2))
        assert rep.ok and rep.distinct_slopes == 2

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


def glued_components(monkeypatch, gs) -> list:
    """The components of gs glued from two or more blocks, each a drawing
    with its component meta, taken before the components are laid side by
    side. The wedge_contained of each drawing of gs agrees with the
    verifier."""
    drawn = []
    draw_component = twobend._draw_component

    def spy(*args):
        comp, meta = draw_component(*args)
        if meta.get("blocks", 1) > 1:
            drawn.append(Drawing("twobend", dict(comp.points), list(comp.edges), meta=dict(meta)))
        return comp, meta

    monkeypatch.setattr(twobend, "_draw_component", spy)
    for g in gs:
        dr = draw_twobend(g)
        assert dr.meta["wedge_contained"] is (check_wedge(dr) is True)
    return drawn


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

    def test_isolated_vertex_is_a_component(self):
        g = PlanarGraph(5, tuple(k4(range(4))))
        dr = draw_twobend(g)
        assert dr.meta["components"] == 2 and set(dr.points) == set(range(5))
        assert verify_drawing(dr).ok

    @pytest.mark.parametrize(
        "gs,glues",
        [
            ([glued_blocks(8, 4)], 2),
            ([k4_chain(9)], 8),
            ([bench_instances().capped_planar(n, 8, seed)
              for n, seed in sorted(TWOBEND_BLOCKS_ROUND0.items())], 38),
        ],
        ids=["glued_blocks", "k4_chain_9", "twobend_blocks_round0"],
    )
    def test_child_slots_follow_the_taken_arc(self, monkeypatch, gs, glues):
        # the slots taken at a cut vertex form one arc, and each child block
        # takes the slots right after its clockwise end
        real = twobend._glue
        seen = []

        def spied(comp, c, child, verts, slopes, wedge):
            m = 2 * slopes.s
            before = _used_slots_at(comp.points, comp.arcs_at(c), c, slopes)
            ends = [k for k in before if (k + 1) % m not in before]
            assert len(ends) == 1, (c, sorted(before))
            real(comp, c, child, verts, slopes, wedge)
            lo, hi = child.meta["fan_slots"]
            added = _used_slots_at(comp.points, comp.arcs_at(c), c, slopes) - before
            assert added == {(ends[0] + 1 + i) % m for i in range(hi - lo + 1)}
            seen.append(c)

        monkeypatch.setattr(twobend, "_glue", spied)
        for g in gs:
            draw_twobend(g)
        assert len(seen) == glues

    def test_slots_not_one_arc_are_typed(self, monkeypatch):
        monkeypatch.setattr(twobend, "_used_slots_at", lambda *args: {0, 2})
        with pytest.raises(GluingFailed, match="not one arc: \\[0, 2\\]"):
            draw_twobend(k4_chain(2))

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
        assert "wedge" not in dr.meta and dr.meta["wedge_contained"] is False
        rep = verify_drawing(dr)
        assert rep.wedge_ok is None and rep.ok

    @pytest.mark.parametrize("g", [glued_blocks(8, 4), k4_chain(3)], ids=["glued_blocks", "k4_chain"])
    def test_glued_wedge_flag_agrees_with_verifier(self, monkeypatch, g):
        glued = glued_components(monkeypatch, [g])
        assert len(glued) == 1
        assert ("wedge" in glued[0].meta) is (check_wedge(glued[0]) is True)

    def test_glued_wedge_flag_agrees_with_verifier_on_twobend_blocks(self, monkeypatch):
        glued = glued_components(monkeypatch, [
            bench_instances().capped_planar(n, 8, seed)
            for n, seed in sorted(TWOBEND_BLOCKS_ROUND0.items())
        ])
        assert len(glued) == 6
        for dr in glued:
            assert ("wedge" in dr.meta) is (check_wedge(dr) is True)

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

    def test_path_and_isolated_vertex(self):
        g = PlanarGraph(4, ((0, 1), (1, 2)))
        dr = draw_low_degree(g)
        assert set(dr.points) == set(range(4))
        assert slope_census(dr)[1] == 1
        assert verify_drawing(dr).crossing_free

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

    @pytest.mark.parametrize(
        "n, cycle, slopes",
        [(20_000, True, 2), (20_001, True, 3), (20_000, False, 1)],
        ids=["even-cycle", "odd-cycle", "path"],
    )
    def test_long_paths_and_cycles_draw_on_integers(self, n, cycle, slopes):
        g = PlanarGraph(n, tuple((i, (i + 1) % n) for i in range(n if cycle else n - 1)))
        dr = draw_low_degree(g)
        assert dr.coord_kind == "int"
        assert dr.meta == {"d": 2, "slopes_used": slopes, "on_slope_grid": False}
        rep = verify_drawing(dr)
        assert rep.ok
        assert rep.distinct_slopes == slopes

    def test_mixed_components_do_not_cross(self):
        # a path, a triangle, an isolated vertex and a 4-cycle
        edges = ((0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (7, 8), (8, 9), (9, 10), (10, 7))
        g = PlanarGraph(11, edges)
        dr = draw_low_degree(g)
        assert set(dr.points) == set(range(11))
        assert sorted((a.u, a.v) for a in dr.edges) == list(g.edges)
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
    if (p[0], p[1]) != tuple(wedge.apex):
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
            assert got == scan_clearance(comp.points, comp.edges, v, wedge), v
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
        comp = twobend._Composite(1)
        comp.add(Drawing("twobend", pts, arcs), range(25))
        # a wedge that holds every point, as the root block's wedge holds
        # the blocks glued below it, with rays near the outer points
        wedge = Wedge((base + size / 2, base + 2 * size), 0.75 * math.pi, 0.5 * math.pi)
        for v in pts:
            assert twobend._clearance(comp, v, wedge) == scan_clearance(pts, arcs, v, wedge), v

    def test_deep_chain_shrinks_below_the_margin(self, monkeypatch):
        # k4_chain(9) reaches clearances below the prefilter's rounding
        # margin, 2^-41 to 2^-40 of the largest coordinate, so
        # test_equals_full_scan_at_every_glue covers the case where the
        # margin, not the gap, decides
        real = twobend._clearance
        ratios = []

        def recorded(comp, v, wedge):
            got = real(comp, v, wedge)
            ratios.append(got / max(abs(c) for p in comp.points.values() for c in p))
            return got

        monkeypatch.setattr(twobend, "_clearance", recorded)
        draw_twobend(k4_chain(9))
        assert min(ratios) < 2.0**-41


def ray_hits_segment(apex, angle: float, p, q, tol: float) -> bool:
    """Oracle for twobend._ray_hits, one segment at a time: True if the open
    ray from apex at the given clockwise-from-up angle properly crosses the
    segment pq away from the apex."""
    dx, dy = math.sin(angle), math.cos(angle)
    rx, ry = p[0] - apex[0], p[1] - apex[1]
    sx, sy = q[0] - p[0], q[1] - p[1]
    den = dx * sy - dy * sx
    if abs(den) < 1e-15:
        return False
    t_ray = (rx * sy - ry * sx) / den
    t_seg = (rx * dy - ry * dx) / -den
    return t_ray > tol and tol < t_seg < 1.0 - tol


def assert_rays_match_oracle(apex, angles, segs, tol=1e-12) -> list[bool]:
    """twobend._ray_hits against the oracle on every segment and angle; the
    verdicts, in that order."""
    p = np.array([a for a, _ in segs], dtype=float).reshape(-1, 2)
    q = np.array([b for _, b in segs], dtype=float).reshape(-1, 2)
    verdicts = []
    for ang in angles:
        want = [ray_hits_segment(apex, ang, a, b, tol) for a, b in segs]
        assert twobend._ray_hits(apex, ang, p, q, tol).tolist() == want, ang
        verdicts += want
    return verdicts


class TestWedgeRays:
    def test_blocks_of_twobend_blocks_round0(self, monkeypatch):
        # every wedge test the drawings make, including those of the wedges
        # a drawing outgrows before t moves up far enough
        real = twobend._contained
        verdicts = []

        def checked(polys, wedge, apex_pt, slopes):
            segs = [seg for poly in polys for seg in zip(poly, poly[1:])]
            angles = (wedge.start, wedge.start + wedge.span)
            verdicts.extend(assert_rays_match_oracle(wedge.apex, angles, segs))
            return real(polys, wedge, apex_pt, slopes)

        monkeypatch.setattr(twobend, "_contained", checked)
        for n in sorted(TWOBEND_BLOCKS_ROUND0):
            _bench_twobend(n)
        assert len(verdicts) > 30000 and any(verdicts)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_segments_near_both_rays(self, seed):
        # ends on either side of a ray at distances down to 0 and past the
        # tolerance, ends at the apex and behind it, and segments parallel
        # or nearly parallel to the ray, whose |den| straddles 1e-15
        rng = random.Random(seed)
        s = rng.choice([2, 3, 4, 5])
        apex = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        lo = rng.randrange(1, s + 1)
        start = (lo - 0.5) * math.pi / s
        angles = (start, start + rng.randrange(1, s) * math.pi / s)
        offsets = [0.0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-9, 1e-3, 1.0]
        segs = []
        for ang in angles:
            dx, dy = math.sin(ang), math.cos(ang)
            for _ in range(400):
                t0, t1 = rng.uniform(-1.0, 50.0), rng.uniform(-1.0, 50.0)
                o0 = rng.choice(offsets) * rng.choice([-1, 1])
                o1 = rng.choice(offsets) * rng.choice([-1, 1])
                a = (apex[0] + t0 * dx + o0 * dy, apex[1] + t0 * dy - o0 * dx)
                b = (apex[0] + t1 * dx + o1 * dy, apex[1] + t1 * dy - o1 * dx)
                segs.append((a, b))
                segs.append((apex, b))
                tilt = rng.choice([0.0, 1e-16, 1e-15, 1e-14, 1e-6])
                c = (a[0] + dx + tilt * dy, a[1] + dy - tilt * dx)
                segs.append((a, c))
        verdicts = assert_rays_match_oracle(apex, angles, segs)
        assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("n", [1000, 4000])
def test_st_order_and_route_work_is_linear(n, monkeypatch):
    # st_order retests a vertex only when a neighbor is placed or a face at
    # it is first touched, and _route walks O(r) links per vertex; counted
    # through the helpers that make them, both stay within one constant
    # times n + m on one big block
    counts = {"cut tests": 0, "link steps": 0}
    real_is_cut, real_walk = graphs._is_cut, twobend._walk

    def counted_is_cut(*args):
        counts["cut tests"] += 1
        return real_is_cut(*args)

    def counted_walk(col, link):
        for c in real_walk(col, link):
            counts["link steps"] += 1
            yield c

    monkeypatch.setattr(graphs, "_is_cut", counted_is_cut)
    monkeypatch.setattr(twobend, "_walk", counted_walk)
    g = bench_instances().bounded_triangulation(n, 8, 1)
    draw_twobend(g)
    size = g.n + len(g.edges)
    assert counts["cut tests"] >= g.n - 3 and counts["link steps"] >= len(g.edges)
    assert all(k < 3 * size for k in counts.values()), (counts, size)


def test_edges_and_faces_are_built_once_per_block(monkeypatch):
    # each EdgeArc is built once in its block drawing, after the top has
    # stopped moving, and once at its glued place; each block embedding
    # traces its faces once, also when its outer face is moved to the top
    g = bench_instances().capped_planar(600, 8, TWOBEND_BLOCKS_ROUND0[600])
    assert g.is_connected()
    blocks = len(graphs.block_cut_tree(g).blocks)
    counts = {"arcs": 0, "face traces": 0}
    real_init, real_all_faces = EdgeArc.__post_init__, graphs._all_faces

    def counted_init(self):
        counts["arcs"] += 1
        real_init(self)

    def counted_all_faces(*args):
        counts["face traces"] += 1
        return real_all_faces(*args)

    monkeypatch.setattr(EdgeArc, "__post_init__", counted_init)
    monkeypatch.setattr(graphs, "_all_faces", counted_all_faces)
    draw_twobend(g)
    assert counts["arcs"] <= 2 * len(g.edges), counts
    assert counts["face traces"] == blocks, (counts, blocks)


def test_blocks_are_grouped_by_component_in_one_pass(monkeypatch):
    # 2000 disjoint K4s: scanning every block once per component is
    # quadratic in the number of components
    passes = []

    class CountingTuple(tuple):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    real_bct = twobend.block_cut_tree

    def counted_bct(g):
        bct = real_bct(g)
        return dataclasses.replace(bct, vertices=CountingTuple(bct.vertices))

    monkeypatch.setattr(twobend, "block_cut_tree", counted_bct)
    g = PlanarGraph(8000, tuple(e for b in range(0, 8000, 4) for e in k4(range(b, b + 4))))
    dr = draw_twobend(g)
    assert dr.meta["components"] == 2000
    assert len(passes) == 1


def _bench_twobend(n: int):
    return draw_twobend(bench_instances().capped_planar(n, 8, TWOBEND_BLOCKS_ROUND0[n]))


# sha256 of the canonical JSON of each drawing, taken when st_order tested
# every candidate with its own search and _route rebuilt the pending list
# per vertex: the lowpoint st-order and the spliced pending list must keep
# every order, column x and coordinate. The twobend-blocks digests were
# taken when st_order searched the whole unplaced subgraph per step and
# _clearance scanned every feature of the composite per glue. All were
# re-taken for drawing format 2 once each drawing's format 2 parse equalled
# its format 1 parse, every coordinate in value and type. The face-local
# cut test of st_order and the linked column lists of _route keep them all.
# two_k4_and_isolated was taken when a component of one block returned its
# root drawing without gluing: two such components on renamed vertex ids
# and an isolated vertex 0.
PINNED_BYTES = {
    "octahedron": (lambda: draw_twobend(gen_octahedron(), SlopeSet(3)),
        "e4f25711c4aab9db676e5e027c29e5ef60bf8e1da00193e85477468121e95e15",
    ),
    "k4_chain_3": (lambda: draw_twobend(k4_chain(3)),
        "a6cf6dd3b0a914ad2d889624024e5a8f8202d87b2b4ef7cb13acfed2ab1f73a1",
    ),
    "octahedron_pair": (lambda: draw_twobend(octahedron_pair()),
        "83f4d62996c48ad55d19fad15cfc7913844aab4bc80363972671b685eca3d476",
    ),
    "multi_block": (lambda: draw_twobend(multi_block_graph()),
        "804e6c13c55217cd5de13c0a5b98476923fd732be986399369b3fc2b0f5d2087",
    ),
    "glued_blocks_8_4": (lambda: draw_twobend(glued_blocks(8, 4)),
        "c7204af44ae3f48100b66513c694e256ffcca1737d80b8ed38b6f2ce43bd53ec",
    ),
    "bounded_stack_60_3_8": (lambda: draw_twobend(bounded_stack(60, 3, 8)),
        "acc963b3227366ed7da760d26c849290d1092ef83864ebbb84ea9d5a44808bee",
    ),
    "capped_planar_250_0_8": (lambda: draw_twobend(capped_planar(250, 0, 8)),
        "304b7de41f569facb7c4dba54e9baeefbce8b2c26f0f99dc703da4171588fa95",
    ),
    "two_k4_and_isolated": (
        lambda: draw_twobend(PlanarGraph(9, tuple(k4([1, 2, 3, 4]) + k4([5, 6, 7, 8])))),
        "69e3b6a2ace1ed43600229691f7d46c755ab35b9a601511d7e885596e86a1a42",
    ),
    "twobend_blocks_150": (lambda: _bench_twobend(150),
        "d28842d2b860791b7f3710bf1ae2127ed11af07c56940ab1c6961d69928ec759",
    ),
    "twobend_blocks_225": (lambda: _bench_twobend(225),
        "0a8c3f57803f7ff2775e0ac06aeeb9091284c164ef8f6174f2db4d570b0d2ab2",
    ),
    "twobend_blocks_300": (lambda: _bench_twobend(300),
        "9b9f5c03d6388cbbbe4b23a81cc579b62cd766399fd6346bcd2b4881f7b4ac09",
    ),
    "twobend_blocks_375": (lambda: _bench_twobend(375),
        "3874d66e018d9c4fd29ea4c32233347c65db548044e039eb09ec20fa45981cf4",
    ),
    "twobend_blocks_450": (lambda: _bench_twobend(450),
        "ae763651e4b2c35737e6ea5e514ca9da6090c8685c8f2c5c1a05c2095dc5cf48",
    ),
    "twobend_blocks_525": (lambda: _bench_twobend(525),
        "e0072575cdaa869399cfae36b763f3a900ca8c743a3192b2115b5367e7b3d869",
    ),
    "twobend_blocks_600": (lambda: _bench_twobend(600),
        "231bc93542a09baf3c4ab7900b341f1d8c9bb9978792b00c25d5e118fbb70686",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BYTES))
def test_drawing_bytes_are_pinned(name):
    build, digest = PINNED_BYTES[name]
    text = dumps_canonical(drawing_to_obj(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
