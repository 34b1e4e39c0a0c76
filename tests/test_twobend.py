"""Two-bend pipeline: slot routing, gluing at cut vertices, fallbacks."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    TWOBEND_BLOCKS_ROUND0,
    bench_instances,
    bounded_stack,
    capped_planar,
    caterpillar,
    glued_blocks,
)

from fewslopes import graphs, twobend
from fewslopes.drawing import Drawing, EdgeArc, SlopeSet
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
    _used_slots_at,
    draw_biconnected_twobend,
    draw_low_degree,
    draw_twobend,
    regular_slopes,
)
from fewslopes.verify import (
    check_contiguous,
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
        # s = 3 is not regular: up, the diagonal and the horizontal
        sl = SlopeSet(3)
        assert sl.vectors == ((0, 1), (1, 1), (1, 0))
        assert sl.directed_index(0.0, 1.0) == 0
        assert sl.directed_index(2.0, 2.0) == 1
        assert sl.directed_index(1.0, 0.0) == 2
        assert sl.directed_index(0.0, -1.0) == 3
        assert sl.directed_index(-1.0, -1.0) == 4
        assert sl.directed_index(-1.0, 0.0) == 5
        assert sl.directed_index(math.sin(math.pi / 3), math.cos(math.pi / 3)) is None
        assert sl.directed_index(1.0, 0.9) is None
        assert sl.directed_index(0.0, -1.0) % sl.s == 0

    @pytest.mark.parametrize("s", [2, 4])
    def test_two_and_four_slopes_are_regular(self, s):
        sl = SlopeSet(s)
        for k in range(2 * s):
            assert sl.angle(k) == pytest.approx(k * math.pi / s, abs=1e-15)
            # the float (sin, cos) of k*pi/s is off the exact set; a multiple
            # of the vector is on it
            x, y = sl.vector(k)
            assert sl.directed_index(0.5 * x, 0.5 * y) == k

    @pytest.mark.parametrize("s", range(1, 9))
    def test_vectors_are_primitive_and_clockwise(self, s):
        sl = SlopeSet(s)
        assert sl.vectors[0] == (0, 1) and len(sl.vectors) == s
        assert all(x == 1 for x, _ in sl.vectors[1:])
        angles = [sl.angle(k) for k in range(2 * s)]
        assert angles == sorted(angles) and len(set(angles)) == 2 * s
        assert all(sl.vector(k + s) == (-x, -y) for k, (x, y) in enumerate(sl.vectors))


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


# no order fits _route on this face: v1 v2 must be an outer edge avoiding
# t = 2 that is no separation pair, and both such edges, (0, 3) and (3, 1),
# are one, cutting off 5 and 4, whose last vertex has no later neighbour. So
# no numbering algorithm can pass this; another face at t can (6 of the 10
# over the block's planar rotation systems admit an order and draw)
@pytest.mark.xfail(strict=True, raises=StOrderInfeasible)
def test_block_without_greedy_st_order_draws():
    g = PlanarGraph(
        6, ((0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (3, 4), (3, 5))
    )
    e = Embedding(g, planar_embed(g).rotation, (0, 3, 1, 2))
    assert verify_drawing(draw_biconnected_twobend(e, 2, SlopeSet(2))).ok


# every cut vertex on the spine shrinks the child block glued at it, 53
# blocks deep; the integer coordinates only grow longer
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
            drawn.append(Drawing("twobend", dict(comp.points), list(comp.edges), "int", dict(meta)))
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

        def spied(owner, c, taken, block, slopes):
            m = 2 * slopes.s
            before = set(taken)
            ends = [k for k in before if (k + 1) % m not in before]
            assert len(ends) == 1, (c, sorted(before))
            child = real(owner, c, taken, block, slopes)
            lo, hi = child.dr.meta["fan_slots"]
            want = {(ends[0] + 1 + i) % m for i in range(hi - lo + 1)}
            assert taken - before == want
            t = child.to_local[c]
            arcs = [a for a in child.dr.edges if t in (a.u, a.v)]
            drawn = _used_slots_at(child.dr.points, arcs, t, child.frame)
            assert {(k + child.turn) % m for k in drawn} == want
            seen.append(c)
            return child

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

    def test_long_block_chain_draws_on_three_slopes(self):
        # each K4 hangs at the last one's cut vertex, drawn on a frame of
        # directions the gluing map carries onto the non-regular three slopes
        dr = draw_twobend(k4_chain(10))
        rep = verify_drawing(dr)
        assert dr.meta["s"] == 3 and dr.coord_kind == "int"
        assert rep.ok and rep.distinct_slopes <= 3

    @pytest.mark.parametrize(
        "g", [k4_chain(3), glued_blocks(8, 4), multi_block_graph()],
        ids=["k4_chain", "glued_blocks", "multi_block"],
    )
    def test_slope_indices_follow_gluing_rotation(self, g):
        # every segment of every glued block, mapped by its gluing rotation,
        # has a slope index: its exact direction is one of the SlopeSet's
        # vectors, and the directed slots at each vertex form one arc
        dr = draw_twobend(g)
        sl = SlopeSet(dr.meta["s"])
        for a in dr.edges:
            for p, q in a.segments:
                assert sl.directed_index(q[0] - p[0], q[1] - p[1]) is not None
        assert all(check_contiguous(dr, sl).values())

    def test_used_slots_read_from_exact_direction(self):
        # at 2^60 a unit segment has no float direction; its slot comes from
        # its integer direction, parallel to D_1 = (1, 1), and one dot product
        sl = SlopeSet(3)
        p = (2**60, 2**60)
        q = (p[0] + 1, p[1] + 1)
        assert float(q[0]) - float(p[0]) == 0.0
        pts, arcs = {0: p, 1: q}, [EdgeArc(0, 1, (p, q))]
        assert _used_slots_at(pts, arcs, 0, sl) == {1}
        assert _used_slots_at(pts, arcs, 1, sl) == {4}
        # the s = 4 frame turned by one slot holds the non-primitive (0, 2)
        # and (2, 0); an end segment along a multiple of either finds it
        frame = twobend._Frame(4, ((0, 2), (1, 1), (2, 0), (1, -1)))
        assert frame.vectors == tuple(
            twobend._apply(((1, -1), (1, 1)), SlopeSet(4).vector(k + 1)) for k in range(4)
        )
        pts = {0: (0, 0), 1: (0, -6), 2: (6, 0), 3: (-3, 3), 4: (-4, 0)}
        arcs = [EdgeArc(0, w, (pts[0], pts[w])) for w in (1, 2, 3, 4)]
        assert _used_slots_at(pts, arcs, 0, frame) == {4, 2, 7, 6}
        assert _used_slots_at(pts, arcs[:1], 1, frame) == {0}


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
        with pytest.raises(DegreeTooHigh, match="degree 4: draw_low_degree accepts at most 2"):
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
        # block of the vertex it places and a glue costs O(1) beyond drawing
        # its block, so the whole graph draws in well under a second
        g = capped_planar(1600, 0, 8)
        ok, witness = check_noncrossing(draw_twobend(g))
        assert ok, witness

    def test_deterministic_bytes(self):
        g = bounded_stack(40, 5, 8)
        a = dumps_canonical(drawing_to_obj(draw_twobend(g)))
        b = dumps_canonical(drawing_to_obj(draw_twobend(g)))
        assert a == b


def clockwise_rank(v) -> Fraction:
    """A rational that grows with the clockwise angle of v from straight
    up, in [0, 4): one unit per quadrant."""
    x, y = v
    if x >= 0 and y > 0:
        return Fraction(x, x + y)
    if x > 0:
        return 1 + Fraction(-y, x - y)
    if y < 0:
        return 2 + Fraction(-x, -x - y)
    return 3 + Fraction(y, y - x)


def inside_oracle(v, rays) -> bool:
    """Whether v points strictly inside the cone turning clockwise from the
    first ray to the second, from the ranks of the three directions."""
    a = clockwise_rank(rays[0])
    return 0 < (clockwise_rank(v) - a) % 4 < (clockwise_rank(rays[1]) - a) % 4


def meets_ray_oracle(p, q, w) -> bool:
    """Whether the segment pq meets the closed ray from the origin along w
    other than at an end of pq at the origin: p + t(q - p) = l w with
    0 <= t <= 1 and l >= 0, solved by Cramer's rule."""
    d = (q[0] - p[0], q[1] - p[1])
    det = d[0] * -w[1] + w[0] * d[1]
    if det == 0:  # parallel: on the ray's line, with a point ahead of the apex
        on_line = p[0] * w[1] - p[1] * w[0] == 0
        return on_line and max(p[0] * w[0] + p[1] * w[1], q[0] * w[0] + q[1] * w[1]) > 0
    t = Fraction(-p[0] * -w[1] + w[0] * -p[1], det)
    lam = Fraction(d[0] * -p[1] + p[0] * d[1], det)
    return 0 <= t <= 1 and lam >= 0 and not (lam == 0 and t in (0, 1))


def on_ray(p, w) -> bool:
    return p[0] * w[1] == p[1] * w[0] and p[0] * w[0] + p[1] * w[1] >= 0


class TestWedgeRays:
    def test_blocks_of_twobend_blocks_round0(self, monkeypatch):
        # every wedge test the drawings make, including those of the wedges
        # a drawing outgrows before t moves up far enough
        real = twobend._in_wedge
        verdicts = []

        def checked(polys, apex, rays):
            got = real(polys, apex, rays)
            rel = [[(x - apex[0], y - apex[1]) for x, y in poly] for poly in polys]
            want = all(inside_oracle(p, rays) for poly in rel for p in poly if p != (0, 0))
            convex = (clockwise_rank(rays[1]) - clockwise_rank(rays[0])) % 4 < 2
            if want and not convex:
                want = not any(
                    meets_ray_oracle(p, q, w)
                    for poly in rel for p, q in zip(poly, poly[1:]) for w in rays
                )
            assert got == want
            verdicts.append(got)
            return got

        monkeypatch.setattr(twobend, "_in_wedge", checked)
        for n in sorted(TWOBEND_BLOCKS_ROUND0):
            _bench_twobend(n)
        assert len(verdicts) > 30 and not all(verdicts)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_segments_near_both_rays(self, seed):
        # ends on either side of a ray's line, on it behind the apex, at the
        # apex's neighbours, and segments parallel to a ray or through the
        # apex, for wedges of every width on the slopes and glued frames
        rng = random.Random(seed)
        s = rng.choice([2, 3, 4, 5])
        sl = SlopeSet(s)
        L = twobend._gluing_map(sl, rng.randrange(2 * s))
        adj = ((L[1][1], -L[0][1]), (-L[1][0], L[0][0]))
        frame = twobend._Frame(s, tuple(twobend._apply(adj, sl.vector(k)) for k in range(s)))
        verdicts = {"inside": [], "meets": []}
        for _ in range(300):
            lo = rng.randrange(1, s + 1)
            rays = twobend._rays(frame, (lo, rng.randrange(s, min(2 * s - 1, lo + 2 * s - 2) + 1)))
            w = rng.choice(rays)
            pts = [
                (t * w[0] + o * w[1], t * w[1] - o * w[0])
                for t in range(-3, 4) for o in (-2, -1, 0, 1, 2)
            ] + [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(10)]
            for _ in range(20):
                p, q = rng.sample(pts, 2)
                for v in (p, q):
                    if v != (0, 0):
                        got = twobend._inside(v, rays)
                        assert got == inside_oracle(v, rays), (rays, v)
                        verdicts["inside"].append(got)
                if not (on_ray(p, w) or on_ray(q, w)):
                    got = twobend._meets_ray(p, q, w)
                    assert got == meets_ray_oracle(p, q, w), (p, q, w)
                    verdicts["meets"].append(got)
        for seen in verdicts.values():
            assert any(seen) and not all(seen)


def point_segment_dist2(p, a, b) -> Fraction:
    """The exact squared distance from the point p to the segment ab."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    rx, ry = p[0] - a[0], p[1] - a[1]
    along, length2 = rx * dx + ry * dy, dx * dx + dy * dy
    if along <= 0:
        return Fraction(rx * rx + ry * ry)
    if along >= length2:
        return Fraction((p[0] - b[0]) ** 2 + (p[1] - b[1]) ** 2)
    return Fraction((rx * dy - ry * dx) ** 2, length2)


def block_drawings(monkeypatch, gs) -> list:
    """(drawing, frame) of every block draw_twobend draws for the graphs gs,
    also before it stops at a block without a greedy st-order."""
    drawn = []
    real = twobend.draw_biconnected_twobend

    def spy(e, t, frame):
        dr = real(e, t, frame)
        drawn.append((dr, frame))
        return dr

    monkeypatch.setattr(twobend, "draw_biconnected_twobend", spy)
    for g in gs:
        try:
            draw_twobend(g)
        except StOrderInfeasible:
            pass
    return drawn


def test_features_lie_a_column_from_each_vertex(monkeypatch):
    # the column lemma the gluing bound rests on: in every block drawing, a
    # feature not radial at a vertex (another vertex, or a segment that is
    # not an end segment at it) lies at least one column step from it
    gen = bench_instances().capped_planar
    gs = [gen(n, d, seed) for n in (100, 300) for d in range(3, 11) for seed in (1, 2, 3)]
    blocks = block_drawings(monkeypatch, gs)
    least = []
    for dr, frame in blocks:
        step = twobend._step(frame)
        segs = [
            (a, i, p, q) for a in dr.edges for i, (p, q) in enumerate(a.segments)
        ]
        box = np.array([(min(p[0], q[0]), min(p[1], q[1]), max(p[0], q[0]), max(p[1], q[1]))
                        for _, _, p, q in segs], dtype=float)
        pts = dr.points
        for v, pv in pts.items():
            near = np.flatnonzero(
                (box[:, 0] - step <= pv[0]) & (pv[0] <= box[:, 2] + step)
                & (box[:, 1] - step <= pv[1]) & (pv[1] <= box[:, 3] + step)
            )
            dists = [
                point_segment_dist2(pv, p, q)
                for a, i, p, q in (segs[j] for j in near.tolist())
                if not (a.u == v and i == 0) and not (a.v == v and i == len(a.poly) - 2)
            ]
            dists += [Fraction((pv[0] - pw[0]) ** 2 + (pv[1] - pw[1]) ** 2)
                      for w, pw in pts.items() if w != v]
            least.append(min(dists) / step**2)
    assert len(blocks) > 900
    assert min(least) == 1


def glued_subtrees(monkeypatch, gs):
    """For each glued block of the graphs gs: the block, the squared δ of its
    glue and the points of its subtree, all at the scale of the drawing."""
    out = []
    real = twobend._assemble

    def spy(placed):
        comp = real(placed)
        top = max(b.depth for b in placed)
        owner, parent, first = {}, {}, {}
        edges = iter(comp.edges)
        for i, b in enumerate(placed):
            first[i] = [next(edges) for _ in b.dr.edges]
            if b.cut is not None:
                parent[i] = owner[b.cut]
            for v in b.verts:
                owner.setdefault(v, i)
        for i, b in enumerate(placed):
            if b.cut is None:
                continue
            below, pts = {i}, []
            for j in range(i, len(placed)):
                if j in below or parent.get(j) in below:
                    below.add(j)
                    pts += [p for a in first[j] for p in a.poly]
            o = placed[parent[i]]
            out.append((b, comp.points[b.cut], b.delta2 * 4 ** (top - o.depth), pts))
        return comp

    monkeypatch.setattr(twobend, "_assemble", spy)
    for g in gs:
        assert draw_twobend(g).coord_kind == "int"
    return out


@pytest.mark.parametrize(
    "gs",
    [
        [glued_blocks(8, 4)],
        [k4_chain(9)],
        [capped_planar(250, 0, 8)],
        [k4_chain(10)],
        [caterpillar(54)],
        [bench_instances().capped_planar(n, 8, seed)
         for n, seed in sorted(TWOBEND_BLOCKS_ROUND0.items())],
    ],
    ids=["glued_blocks", "k4_chain_9", "capped_planar_250", "k4_chain_10", "caterpillar_54",
         "twobend_blocks_round0"],
)
def test_glued_subtree_lies_within_a_third_of_delta(monkeypatch, gs):
    # _glue's invariant: every subtree glued at a cut vertex c lies within
    # δ/3 of c and strictly inside its own wedge at c
    glues = glued_subtrees(monkeypatch, gs)
    assert glues
    for block, c, delta2, pts in glues:
        assert delta2 > 0
        for p in pts:
            v = (p[0] - c[0], p[1] - c[1])
            assert 9 * (v[0] ** 2 + v[1] ** 2) <= delta2
            assert v == (0, 0) or twobend._inside(v, block.rays)


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


# sha256 of the canonical JSON of each drawing, taken when two-bend first
# drew in integers: the slopes became integer direction vectors, each glued
# block is mapped by an integer matrix and shrunk by the O(1) bound of
# _glue, the root's top sits at the origin, and every point is written once
# as an int. Until then the digests pinned the float drawings, which the
# lowpoint st-order, the spliced pending list, drawing format 2, the
# face-local cut test and the linked column lists each kept byte for byte.
# Re-taken once when meta's wedge turned from float start and span angles
# into the two integer rays, and once when edges stopped carrying
# slope_indices; nothing else in the bytes changed either time.
# two_k4_and_isolated covers two one-block components on renamed vertex ids
# and an isolated vertex 0.
# caterpillar_40_shifted, its spine 1..39 and then 0, glues the leg at each
# spine vertex before the next spine edge, in the order of repeated passes
# over the blocks by index; gluing reachable blocks by ascending index
# alone gives other bytes.
PINNED_BYTES = {
    "octahedron": (lambda: draw_twobend(gen_octahedron(), SlopeSet(3)),
        "d1ff7da54d99abe8f463513928ccf75f72e304bbf6df4ce937e0d6e349c3c97c",
    ),
    "k4_chain_3": (lambda: draw_twobend(k4_chain(3)),
        "bf857a650ff24d8dcde30098c42379e826179e65ccccf76af14bb662b90775ab",
    ),
    "octahedron_pair": (lambda: draw_twobend(octahedron_pair()),
        "6bc477453d97fb4ae9a61e6497d2d7c5e0d000bcafbd0460b9de28e41546df77",
    ),
    "multi_block": (lambda: draw_twobend(multi_block_graph()),
        "d4e6c2411cb253ec166f9b1fc9463539d65dcd17d6a7e400ab39776e19eb561a",
    ),
    "glued_blocks_8_4": (lambda: draw_twobend(glued_blocks(8, 4)),
        "b2334b1f31643c78297201a796580e6e8e405029f8d35e2785df648cf69c2288",
    ),
    "bounded_stack_60_3_8": (lambda: draw_twobend(bounded_stack(60, 3, 8)),
        "d364ff29ba6943a91c83b076e7ab468a9f3d01b2081eb749e53b5172960bacb0",
    ),
    "capped_planar_250_0_8": (lambda: draw_twobend(capped_planar(250, 0, 8)),
        "69815ddf94d80c9698ccf275320a6788ea0317293bf699b0b436558cc02f0ba4",
    ),
    "caterpillar_40_shifted": (lambda: draw_twobend(caterpillar(40, 1)),
        "a50eec3a9c31516ee65cd04fd63fee5673ad905239bd17f5d5beab4a9f24cda2",
    ),
    "two_k4_and_isolated": (
        lambda: draw_twobend(PlanarGraph(9, tuple(k4([1, 2, 3, 4]) + k4([5, 6, 7, 8])))),
        "9f962b296691950e2a470dfec6abb654464c05736ed4b6d74b0fa261e3f33f62",
    ),
    "twobend_blocks_150": (lambda: _bench_twobend(150),
        "ce2317568980bea17d73b5765d0172b9bc1d756846e541acaec0ed975f8afca7",
    ),
    "twobend_blocks_225": (lambda: _bench_twobend(225),
        "adaa1201e72805f98914b7cecd9fdcb8e60ca11ed64c503d8c069dd6ca16eb10",
    ),
    "twobend_blocks_300": (lambda: _bench_twobend(300),
        "efc3d4081ecd7ea37d6fcfb05a582a8bad1afc543ffcc1018196d740c0c50a9e",
    ),
    "twobend_blocks_375": (lambda: _bench_twobend(375),
        "2385bcd98ed6f8ef3c3137e522acf23791b391da5ad334df2e2e2a59d8060f88",
    ),
    "twobend_blocks_450": (lambda: _bench_twobend(450),
        "6b20edccbbe9403f4b01c33bd5f127f45d46af83658008134655993531a48916",
    ),
    "twobend_blocks_525": (lambda: _bench_twobend(525),
        "b00594b2291a1da2a27c61fcb6e7731c1e2158c232c693ba6ce2f153aa534636",
    ),
    "twobend_blocks_600": (lambda: _bench_twobend(600),
        "142312249a9212e382fe3ec8a8bebfd0c3e31d556d2fbcbf8d2ec9f723bde048",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BYTES))
def test_drawing_bytes_are_pinned(name):
    build, digest = PINNED_BYTES[name]
    text = dumps_canonical(drawing_to_obj(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
