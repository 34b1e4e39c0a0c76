"""Combinatorial layer: graphs, embeddings, orders, block decomposition."""

from __future__ import annotations

import contextlib
import random
import time
from collections import Counter
from functools import cached_property

import networkx as nx
import pytest
from conftest import (
    TWOBEND_BLOCKS_ROUND0,
    TWOBEND_BLOCKS_ROUND0_SEED2,
    bench_instances,
    capped_planar,
    glued_blocks,
)

from fewslopes import _lrplanarity, graphs, twobend
from fewslopes.errors import (
    Disconnected,
    NotBiconnected,
    NotPlanar,
    NotTriangulated,
    StOrderInfeasible,
    TooFewVertices,
    VerticesNotOnOuterFace,
)
from fewslopes.families import gen_octahedron, gen_random_triangulation
from fewslopes.graphs import (
    BlockCutTree,
    CanonicalOrder,
    Embedding,
    PlanarGraph,
    _blocks,
    _rotate_min,
    block_cut_tree,
    canonical_order,
    planar_embed,
    st_order,
    triangulate,
)
from fewslopes.twobend import draw_twobend


def complete(n: int) -> PlanarGraph:
    return PlanarGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def random_tree(n: int, seed: int) -> PlanarGraph:
    rng = random.Random(seed)
    return PlanarGraph(n, tuple((rng.randrange(v), v) for v in range(1, n)))


CUBE = PlanarGraph(
    8,
    ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
     (0, 4), (1, 5), (2, 6), (3, 7)),
)


class TestPlanarGraph:
    def test_edges_normalized_and_sorted(self):
        g = PlanarGraph(3, ((2, 0), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            PlanarGraph(2, ((1, 1),))

    def test_rejects_parallel_edge(self):
        with pytest.raises(ValueError):
            PlanarGraph(2, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PlanarGraph(2, ((0, 2),))

    def test_degree_helpers(self):
        g = complete(4)
        assert g.max_degree == 3
        assert g.degree(2) == 3
        assert g.neighbors(0) == (1, 2, 3)
        assert g.has_edge(1, 3) and not g.has_edge(0, 0)


class TestEmbedding:
    def test_k4_is_triangulated_with_four_faces(self):
        e = planar_embed(complete(4))
        assert len(e.faces) == 4
        assert all(len(f) == 3 for f in e.faces)
        assert e.euler_ok() and e.is_triangulated()

    def test_empty_graph_has_too_few_vertices(self):
        with pytest.raises(TooFewVertices):
            planar_embed(PlanarGraph(0, ()))

    def test_every_dart_traced_once(self):
        e = planar_embed(gen_octahedron())
        assert sum(len(f) for f in e.faces) == 2 * len(e.graph.edges)
        assert e.euler_ok()

    def test_outer_face_longest(self):
        e = planar_embed(CUBE)
        assert len(e.outer_face) == 4
        assert all(len(f) == 4 for f in e.faces)

    def test_trace_face_inverts_storage(self):
        e = planar_embed(gen_octahedron())
        for f in e.faces:
            assert e.trace_face(f[0], f[1]) == f

    @pytest.mark.parametrize("g", [gen_octahedron(), CUBE, capped_planar(60, 1, 5)],
                             ids=["octahedron", "cube", "capped_planar_60"])
    def test_face_of_indexes_every_dart(self, g):
        e = planar_embed(g)
        assert len(e.face_of) == 2 * len(g.edges)
        for (a, b), i in e.face_of.items():
            f = e.faces[i]
            assert (a, b) in zip(f, f[1:] + f[:1])
        # at v, the face of dart (v, rot[v][i]) is the one entering v from rot[v][i + 1]
        for v, rot in enumerate(e.rotation):
            for i, w in enumerate(rot):
                assert e.face_of[v, w] == e.face_of[rot[(i + 1) % len(rot)], v]

    def test_outer_face_may_start_anywhere(self):
        e = planar_embed(CUBE)
        f = e.outer_face
        again = Embedding(e.graph, e.rotation, f[2:] + f[:2])
        assert again.outer_face == f[2:] + f[:2]
        assert again.faces == e.faces

    def test_rejects_cycle_that_is_not_a_face(self):
        e = planar_embed(complete(4))
        with pytest.raises(ValueError, match="not a face"):
            Embedding(e.graph, e.rotation, (0, 1, 2, 3))

    def test_rejects_outer_face_through_non_adjacent_pair(self):
        e = planar_embed(CUBE)
        f = e.outer_face
        assert not CUBE.has_edge(f[0], f[2])
        with pytest.raises(ValueError, match="not a face"):
            Embedding(e.graph, e.rotation, (f[0], f[2], f[1], f[3]))

    def test_rotation_arc_walks_clockwise(self):
        e = planar_embed(complete(4))
        rot = e.rotation[0]
        assert e.rotation_arc(0, rot[0]) == [rot[1], rot[2]]
        assert e.rotation_arc(0, rot[2]) == [rot[0], rot[1]]

    def test_k5_not_planar_with_witness(self):
        with pytest.raises(NotPlanar) as err:
            planar_embed(complete(5))
        assert len(err.value.witness_edges) >= 9

    def test_k33_not_planar(self):
        g = PlanarGraph(6, tuple((i, j) for i in range(3) for j in range(3, 6)))
        with pytest.raises(NotPlanar):
            planar_embed(g)

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            planar_embed(PlanarGraph(4, ((0, 1), (2, 3))))

    def test_embedding_deterministic(self):
        g = gen_random_triangulation(40, 11)
        assert planar_embed(g).rotation == planar_embed(g).rotation


def relabelled(g: PlanarGraph, seed: int) -> PlanarGraph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return PlanarGraph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def cycle(n: int) -> PlanarGraph:
    return PlanarGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def outerplanar(n: int, seed: int) -> PlanarGraph:
    """A cycle with random non-crossing chords: 2-connected, never 3-connected."""
    rng = random.Random(seed)
    chords, todo = [], [(0, n - 1)]
    while todo:
        lo, hi = todo.pop()
        if hi - lo < 2:
            continue
        k = rng.randrange(lo + 1, hi)
        chords += [c for c in ((lo, k), (k, hi)) if c[1] - c[0] > 1 and rng.random() < 0.6]
        todo += [(lo, k), (k, hi)]
    return relabelled(PlanarGraph(n, cycle(n).edges + tuple(chords)), seed)


def thinned(g: PlanarGraph, seed: int) -> PlanarGraph:
    """g less a random third of its edges, each dropped only if g stays connected."""
    rng = random.Random(seed)
    edges = list(g.edges)
    for e in rng.sample(edges, len(edges) // 3):
        rest = PlanarGraph(g.n, tuple(f for f in edges if f != e))
        if rest.is_connected():
            edges.remove(e)
    return PlanarGraph(g.n, tuple(edges))


def random_non_planar(seed: int) -> PlanarGraph:
    """A connected graph networkx finds non-planar, most with m <= 3n - 6, so
    that the left-right test itself refutes them."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(6, 16)
        m = rng.randint(2 * n, 3 * n - 4)
        pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m)
        g = PlanarGraph(n, tuple(pairs))
        if g.is_connected() and not nx.check_planarity(g.to_networkx())[0]:
            return g


def networkx_rotation(g: PlanarGraph) -> tuple[tuple[int, ...], ...]:
    ok, emb = nx.check_planarity(g.to_networkx())
    assert ok
    return tuple(_rotate_min(tuple(emb.neighbors_cw_order(v))) for v in range(g.n))


def networkx_witness(g: PlanarGraph) -> tuple[tuple[int, int], ...]:
    ok, sub = nx.check_planarity(g.to_networkx(), counterexample=True)
    assert not ok
    return tuple(sorted((min(u, v), max(u, v)) for u, v in sub.edges()))


class TestLeftRightMatchesNetworkx:
    """planar_embed runs its own left-right test; it must give networkx's
    rotations and forbidden-subgraph witness, which the drawing bytes rest on."""

    @pytest.mark.parametrize(
        "g",
        [pytest.param(random_tree(n, s), id=f"tree_{n}_{s}") for n, s in ((2, 0), (9, 1), (60, 2))]
        + [pytest.param(relabelled(cycle(n), n), id=f"cycle_{n}") for n in (3, 7, 40)]
        + [pytest.param(outerplanar(n, s), id=f"outerplanar_{n}_{s}") for n, s in ((6, 0), (25, 1), (70, 2))]
        + [
            pytest.param(relabelled(gen_random_triangulation(n, s), s), id=f"triangulation_{n}_{s}")
            for n, s in ((4, 0), (30, 1), (150, 2))
        ]
        + [
            pytest.param(thinned(gen_random_triangulation(n, s), s), id=f"thinned_{n}_{s}")
            for n, s in ((20, 3), (80, 4), (200, 5))
        ],
    )
    def test_rotation_on_planar_graphs(self, g):
        assert planar_embed(g).rotation == networkx_rotation(g)

    @pytest.mark.parametrize("n,d,seed", [(150, 8, 1), (300, 6, 2), (200, 4, 3)])
    def test_rotation_on_capped_planar_blocks(self, n, d, seed):
        blocks = [b for b in _block_graphs(bench_instances().capped_planar(n, d, seed)) if b.n >= 3]
        assert len(blocks) > 1
        for bg in blocks:
            assert planar_embed(bg).rotation == networkx_rotation(bg)

    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(complete(5), id="K5"),
            pytest.param(PlanarGraph(6, tuple((i, j) for i in range(3) for j in range(3, 6))), id="K33"),
        ]
        + [pytest.param(random_non_planar(s), id=f"random_{s}") for s in range(8)],
    )
    def test_witness_on_non_planar_graphs(self, g):
        with pytest.raises(NotPlanar) as err:
            planar_embed(g)
        assert err.value.witness_edges == networkx_witness(g)

    def test_witness_takes_few_planarity_tests(self, monkeypatch):
        # a K5 joined by one edge to a triangulation on 1000 vertices: one
        # planarity test per edge made 3006 of them, with the first one
        calls = []
        real_lr = _lrplanarity._lr

        def counted_lr(*args, **kwargs):
            calls.append(1)
            return real_lr(*args, **kwargs)

        monkeypatch.setattr(_lrplanarity, "_lr", counted_lr)
        k5 = tuple((1000 + i, 1000 + j) for i in range(5) for j in range(i + 1, 5))
        edges = gen_random_triangulation(1000, 1).edges + ((0, 1000),) + k5
        g = PlanarGraph(1005, tuple(sorted(edges)))
        assert len(g.edges) == 3005
        with pytest.raises(NotPlanar) as err:
            planar_embed(g)
        assert err.value.witness_edges == k5
        assert len(calls) < 300, len(calls)

    def test_deep_cycle_embeds_without_recursion(self):
        # the depth-first search runs 20 000 deep, far past the recursion limit
        e = planar_embed(cycle(20_000))
        assert len(e.faces) == 2 and e.euler_ok()

    def test_rotate_min_is_least_rotation(self):
        rng = random.Random(0)
        for _ in range(3000):
            t = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 12)))
            assert _rotate_min(t) == min(t[i:] + t[:i] for i in range(len(t))), t

    def test_wide_star_embeds(self):
        # face tracing costs O(1) per dart: 40 000 leaves took about 27 s
        # when each step searched the center's rotation
        for leaves in (10_000, 40_000):
            t0 = time.perf_counter()
            e = planar_embed(PlanarGraph(leaves + 1, tuple((0, v) for v in range(1, leaves + 1))))
            assert time.perf_counter() - t0 < 10.0
            assert len(e.faces) == 1 and len(e.outer_face) == 2 * leaves
            assert set(e.outer_face[::2]) == {0}
            assert sorted(e.outer_face[1::2]) == list(range(1, leaves + 1))


class TestTriangulate:
    def test_cube_becomes_triangulation(self):
        e = planar_embed(CUBE)
        t = triangulate(e)
        assert t.is_triangulated()
        assert set(CUBE.edges) <= set(t.graph.edges)

    def test_triangulation_is_fixed_point(self):
        e = planar_embed(gen_octahedron())
        t = triangulate(e)
        assert t.graph.edges == e.graph.edges
        assert t.graph.n == e.graph.n

    def test_path_face_gets_filled(self):
        g = PlanarGraph(4, ((0, 1), (1, 2), (2, 3)))
        t = triangulate(planar_embed(g))
        assert t.is_triangulated()
        assert set(g.edges) <= set(t.graph.edges)

    @pytest.mark.parametrize(
        "g",
        [pytest.param(random_tree(n, n), id=f"tree_{n}") for n in (3, 5, 12, 40, 200)]
        + [pytest.param(glued_blocks(8, s, 5), id=f"glued_blocks_{s}") for s in range(3)]
        + [
            pytest.param(bench_instances().capped_planar(n, d, s), id=f"capped_{n}_{d}_{s}")
            for n, d, s in ((60, 3, 1), (200, 4, 2), (200, 5, 2))
        ],
    )
    def test_fans_every_face_without_new_vertices(self, g):
        # every face after biconnection is a simple cycle with a chord-free apex
        assert g.is_connected() and block_cut_tree(g).cut_vertices
        t = triangulate(planar_embed(g))
        assert t.is_triangulated() and t.graph.n == g.n
        assert set(g.edges) <= set(t.graph.edges)


class TestStOrder:
    def test_octahedron_order_properties(self):
        e = planar_embed(gen_octahedron())
        s, t = e.outer_face[0], e.outer_face[1]
        o = st_order(e, s, t)
        assert o[0] == s and o[-1] == t
        assert sorted(o) == list(range(6))
        pos = {v: i for i, v in enumerate(o)}
        g = e.graph
        for v in o[1:-1]:
            assert any(pos[u] < pos[v] for u in g.neighbors(v))
            assert any(pos[u] > pos[v] for u in g.neighbors(v))

    def test_v2_on_outer_cycle(self):
        e = planar_embed(gen_random_triangulation(30, 5))
        s, t = e.outer_face[0], e.outer_face[2]
        o = st_order(e, s, t)
        assert o[1] in e.outer_face

    def test_requires_biconnected(self):
        path = PlanarGraph(3, ((0, 1), (1, 2)))
        e = planar_embed(path)
        with pytest.raises(NotBiconnected):
            st_order(e, 0, 2)

    def test_requires_outer_endpoints(self):
        e = planar_embed(gen_octahedron())
        inner = next(v for v in range(6) if v not in e.outer_face)
        with pytest.raises(VerticesNotOnOuterFace):
            st_order(e, e.outer_face[0], inner)


def _connected_without(adj, keep: set) -> bool:
    start = next(iter(keep))
    stack, seen = [start], {start}
    while stack:
        for w in adj[stack.pop()]:
            if w in keep and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(keep)


def greedy_st_order(e: Embedding, s: int, t: int) -> tuple[int, ...]:
    """Oracle for st_order: the greedy it implements, with one search per
    candidate. v_2 is the smallest outer-cycle neighbor of s that leaves
    G - {s, v_2} connected; then each step places the smallest unplaced
    vertex other than t that has a placed neighbor and leaves the unplaced
    vertices connected."""
    g = e.graph
    if g.n < 3 or not nx.is_biconnected(g.to_networkx()):
        raise NotBiconnected("oracle")
    outer = e.outer_face
    if s not in outer or t not in outer:
        raise VerticesNotOnOuterFace("oracle")
    adj = g.adjacency
    pos = outer.index(s)
    all_v = set(range(g.n))
    for v2 in sorted({outer[pos - 1], outer[(pos + 1) % len(outer)]} - {t}):
        if not _connected_without(adj, all_v - {s, v2}):
            continue
        order, placed = [s, v2], {s, v2}
        rest = all_v - placed
        while rest:
            pick = next(
                u for u in sorted(rest)
                if (u != t or len(rest) == 1)
                and any(w in placed for w in adj[u])
                and (len(rest) == 1 or _connected_without(adj, rest - {u}))
            )
            order.append(pick)
            placed.add(pick)
            rest.remove(pick)
        return tuple(order)
    raise StOrderInfeasible("oracle")


def _st_outcome(order_fn, e, s, t):
    """The order, or the name of the error raised."""
    try:
        return order_fn(e, s, t)
    except (NotBiconnected, StOrderInfeasible, VerticesNotOnOuterFace) as exc:
        return type(exc).__name__


def _block_graphs(g: PlanarGraph):
    bct = block_cut_tree(g)
    for block, verts in zip(bct.blocks, bct.vertices):
        local = {v: j for j, v in enumerate(verts)}
        yield PlanarGraph(len(verts), tuple((local[u], local[v]) for u, v in block))


def _assert_matches_greedy(e: Embedding) -> None:
    """st_order agrees with the oracle on every ordered pair of outer
    vertices of a block of at most 100 vertices. On a larger block, where
    one oracle call takes up to seconds, it checks the pair a drawing tries
    first with t = outer[0]."""
    outer = e.outer_face
    if e.graph.n <= 100:
        pairs = [(s, t) for s in outer for t in outer if s != t]
    else:
        pairs = [(outer[1], outer[0])]
    for s, t in pairs:
        want = _st_outcome(greedy_st_order, e, s, t)
        assert _st_outcome(st_order, e, s, t) == want, (e.graph.n, s, t)


class TestStOrderMatchesGreedy:
    @pytest.mark.parametrize("n,seed", [(4, 0), (8, 1), (15, 2), (30, 3), (60, 4)])
    def test_every_outer_pair_of_a_triangulation(self, n, seed):
        e = planar_embed(gen_random_triangulation(n, seed))
        for s in e.outer_face:
            for t in e.outer_face:
                if s != t:
                    want = _st_outcome(greedy_st_order, e, s, t)
                    assert _st_outcome(st_order, e, s, t) == want, (s, t)

    def test_every_block_of_a_capped_graph(self):
        # long outer faces, so v_2 admissibility and the t-skip both matter
        blocks = [b for b in _block_graphs(capped_planar(250, 0, 8)) if b.n >= 3]
        assert sum(b.n for b in blocks) > 200
        for bg in blocks:
            e = planar_embed(bg)
            outer = e.outer_face
            for j, t in enumerate(outer):
                s = outer[(j + 1) % len(outer)]
                want = _st_outcome(greedy_st_order, e, s, t)
                assert _st_outcome(st_order, e, s, t) == want, (bg.n, s, t)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_block_of_twobend_blocks_round0(self, seed):
        instances = {1: TWOBEND_BLOCKS_ROUND0, 2: TWOBEND_BLOCKS_ROUND0_SEED2}[seed]
        for n, iseed in sorted(instances.items()):
            g = bench_instances().capped_planar(n, 8, iseed)
            for bg in _block_graphs(g):
                if bg.n >= 3:
                    _assert_matches_greedy(planar_embed(bg))

    # capped graphs whose drawing stops at a child block with no greedy order
    @pytest.mark.parametrize(
        "d,seed,at", [(4, 5, 1), (5, 5, 1), (9, 3, 0), (9, 4, 2), (10, 3, 0)]
    )
    def test_every_block_of_a_capped_graph_without_a_drawing(self, d, seed, at, monkeypatch):
        g = bench_instances().capped_planar(300, d, seed)
        for bg in _block_graphs(g):
            if bg.n >= 3:
                _assert_matches_greedy(planar_embed(bg))
        # and every call the drawing makes, on the embeddings it makes
        calls = []

        def recorded(e, s, t):
            calls.append((e, s, t))
            return st_order(e, s, t)

        monkeypatch.setattr(twobend, "st_order", recorded)
        with pytest.raises(
            StOrderInfeasible,
            match=f"^no outer edge at {at} leaves the graph connected without its endpoints$",
        ):
            draw_twobend(g)
        outcomes = [_st_outcome(st_order, e, s, t) for e, s, t in calls]
        assert outcomes[-1] == "StOrderInfeasible"
        assert outcomes == [_st_outcome(greedy_st_order, e, s, t) for e, s, t in calls]

    def test_rejects_what_the_greedy_rejects(self):
        two_triangles = PlanarGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
        e = planar_embed(two_triangles)
        assert _st_outcome(st_order, e, 0, 1) == "NotBiconnected"
        assert _st_outcome(greedy_st_order, e, 0, 1) == "NotBiconnected"


def _block_sets(blocks) -> set[frozenset]:
    return {frozenset(b) for b in blocks}


def _induced(g: PlanarGraph, keep) -> tuple[PlanarGraph, list[int]]:
    """The subgraph of g that keep induces, on local ids, and its sorted
    vertices (local id -> vertex of g)."""
    verts = sorted(keep)
    local = {v: j for j, v in enumerate(verts)}
    edges = tuple((local[u], local[v]) for u, v in g.edges if u in local and v in local)
    return PlanarGraph(len(verts), edges), verts


class TestBlocks:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_networkx_on_connected_induced_subgraphs(self, seed):
        rng = random.Random(seed)
        g = capped_planar(120, seed, 6) if seed % 2 else gen_random_triangulation(80, seed)
        G = g.to_networkx()
        for _ in range(25):
            keep = set(rng.sample(range(g.n), rng.randrange(2, g.n + 1)))
            comp = max(nx.connected_components(G.subgraph(keep)), key=lambda c: (len(c), min(c)))
            sub, verts = _induced(g, comp)
            want = _block_sets(nx.biconnected_components(G.subgraph(comp)))
            got = [{verts[j] for j in b} for b in _blocks(sub.adjacency)]
            assert _block_sets(got) == want

    def test_path_cycle_and_single_vertex(self):
        path = PlanarGraph(4, ((0, 1), (1, 2), (2, 3)))
        assert _block_sets(_blocks(path.adjacency)) == {
            frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})
        }
        assert _block_sets(_blocks(_induced(path, {2, 1, 0})[0].adjacency)) == {
            frozenset({0, 1}), frozenset({1, 2})
        }
        assert _blocks(PlanarGraph(1, ()).adjacency) == []
        cycle = PlanarGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert _blocks(cycle.adjacency) == [{0, 1, 2, 3}]

    def test_every_component_and_isolated_vertex(self):
        # a triangle, an isolated vertex and a path: one search covers all
        g = PlanarGraph(7, ((0, 1), (1, 2), (0, 2), (4, 5), (5, 6)))
        assert _block_sets(_blocks(g.adjacency)) == {
            frozenset({0, 1, 2}), frozenset({4, 5}), frozenset({5, 6})
        }


class TestOneSearchPerQuestion:
    # child blocks of both graphs retry v_1; seed 5 ends in StOrderInfeasible
    @pytest.mark.parametrize("seed,fails", [(5, True), (6, False)])
    def test_one_block_search_and_one_face_index_per_embedding(self, seed, fails, monkeypatch):
        searches = []
        real_blocks = graphs._blocks

        def counted_blocks(adj):
            searches.append(len(adj))
            return real_blocks(adj)

        monkeypatch.setattr(graphs, "_blocks", counted_blocks)
        per_call = {"block_cut_tree": [], "st_order": []}
        ordered = []  # the embedding of every st_order call

        def counting(name, fn):
            def wrapper(*args):
                if name == "st_order":
                    ordered.append(args[0])
                before = len(searches)
                try:
                    return fn(*args)
                finally:
                    per_call[name].append(len(searches) - before)
            return wrapper

        monkeypatch.setattr(twobend, "block_cut_tree", counting("block_cut_tree", block_cut_tree))
        monkeypatch.setattr(twobend, "st_order", counting("st_order", st_order))
        built = Counter()
        indexed = []  # every embedding indexed, kept alive so no id is reused
        real_index = Embedding.__dict__["face_of"].func

        def counted_index(e):
            indexed.append(e)
            built[id(e)] += 1
            return real_index(e)

        prop = cached_property(counted_index)
        prop.__set_name__(Embedding, "face_of")
        monkeypatch.setattr(Embedding, "face_of", prop)

        g = bench_instances().capped_planar(300, 4, seed)
        with pytest.raises(StOrderInfeasible) if fails else contextlib.nullcontext():
            draw_twobend(g)
        assert per_call["block_cut_tree"] == [1]
        assert max(per_call["st_order"]) <= 1
        assert len(searches) == 1 + sum(per_call["st_order"])
        assert max(Counter(map(id, ordered)).values()) >= 2  # some v_1 was retried
        assert set(built) == set(map(id, ordered))
        assert set(built.values()) == {1}


def rebuild_canonical_order(e: Embedding) -> CanonicalOrder:
    """Oracle for canonical_order: the same reverse deletion, rebuilding the
    cycle set and recounting every cycle vertex's cycle neighbors at each
    step."""
    n = e.graph.n
    rot = {v: list(e.rotation[v]) for v in range(n)}
    cycle = list(e.outer_face)
    v1, v2 = cycle[0], cycle[1]
    order = [0] * n
    support = [()] * n
    for k in range(n - 1, 1, -1):
        cycset = set(cycle)
        pick = next(
            v for v in sorted(cycle)
            if v not in (v1, v2) and sum(1 for w in rot[v] if w in cycset) == 2
        )
        i = cycle.index(pick)
        c_l, c_r = cycle[i - 1], cycle[(i + 1) % len(cycle)]
        r = rot[pick]
        j = r.index(c_l)
        arc = []
        while True:
            j = (j + 1) % len(r)
            if r[j] == c_r:
                break
            arc.append(r[j])
        order[k] = pick
        support[k] = tuple([c_l] + arc + [c_r])
        cycle[i:i + 1] = arc
        for w in rot[pick]:
            rot[w].remove(pick)
        del rot[pick]
    order[0], order[1] = v1, v2
    return CanonicalOrder(tuple(order), tuple(support))


class TestCanonicalOrder:
    def test_triangulation_support(self):
        e = planar_embed(gen_random_triangulation(25, 3))
        co = canonical_order(e)
        assert sorted(co.order) == list(range(25))
        assert co.order[0] == e.outer_face[0]
        for k in range(2, 25):
            assert len(co.support[k]) >= 2

    def test_rejects_non_triangulation(self):
        with pytest.raises(NotTriangulated):
            canonical_order(planar_embed(CUBE))

    def test_matches_rebuild_on_triangle(self):
        e = planar_embed(complete(3))
        assert canonical_order(e) == rebuild_canonical_order(e)

    @pytest.mark.parametrize("n,seed", [(4, 0), (5, 1), (12, 2), (40, 3), (90, 4), (200, 5)])
    def test_matches_rebuild_on_random_triangulations(self, n, seed):
        e = planar_embed(gen_random_triangulation(n, seed))
        assert canonical_order(e) == rebuild_canonical_order(e)

    @pytest.mark.parametrize("n", [300, 1000])
    def test_matches_rebuild_on_bench_triangulations(self, n):
        e = planar_embed(bench_instances().bounded_triangulation(n, 8, 1))
        assert canonical_order(e) == rebuild_canonical_order(e)


class TestBlockCutTree:
    def test_two_triangles_sharing_a_vertex(self):
        g = PlanarGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
        bct = block_cut_tree(g)
        assert len(bct.blocks) == 2
        assert bct.cut_vertices == (2,)
        at_2 = tuple(i for i, verts in enumerate(bct.vertices) if 2 in verts)
        assert at_2 == (0, 1)

    def test_path_splits_into_edges(self):
        g = PlanarGraph(4, ((0, 1), (1, 2), (2, 3)))
        bct = block_cut_tree(g)
        assert len(bct.blocks) == 3
        assert bct.cut_vertices == (1, 2)

    def test_biconnected_single_block(self):
        bct = block_cut_tree(gen_octahedron())
        assert len(bct.blocks) == 1 and not bct.cut_vertices
        assert bct.vertices == ((0, 1, 2, 3, 4, 5),)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_networkx_on_random_graphs(self, seed):
        g = sparse_graph(seed)
        assert block_cut_tree(g) == networkx_block_cut_tree(g)

    def test_random_graphs_have_every_shape(self):
        graphs = [sparse_graph(seed) for seed in range(40)]
        assert any(0 in map(len, g.adjacency) for g in graphs)  # isolated vertex
        assert any(sum(len(c) > 1 for c in g.components) > 1 for g in graphs)
        trees = [block_cut_tree(g) for g in graphs]
        assert any(len(b) == 1 for t in trees for b in t.blocks)  # bridge
        assert any(len(b) >= 3 for t in trees for b in t.blocks)
        assert sum(len(t.cut_vertices) for t in trees) > 40

    @pytest.mark.parametrize("n", sorted(TWOBEND_BLOCKS_ROUND0))
    def test_matches_networkx_on_twobend_blocks_round0(self, n):
        g = bench_instances().capped_planar(n, 8, TWOBEND_BLOCKS_ROUND0[n])
        bct = block_cut_tree(g)
        assert len(bct.blocks) > 1
        assert bct == networkx_block_cut_tree(g)


def sparse_graph(seed: int) -> PlanarGraph:
    """Random graph sparse enough for isolated vertices, bridges and several
    components; it need not be planar."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    p = rng.choice([0.03, 0.06, 0.1, 0.2])
    return PlanarGraph(
        n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
    )


def networkx_block_cut_tree(g: PlanarGraph) -> BlockCutTree:
    G = g.to_networkx()
    blocks = sorted(
        tuple(sorted((min(u, v), max(u, v)) for u, v in comp))
        for comp in nx.biconnected_component_edges(G)
    )
    return BlockCutTree(
        tuple(blocks),
        tuple(tuple(sorted({v for e in b for v in e})) for b in blocks),
        tuple(sorted(nx.articulation_points(G))),
    )
