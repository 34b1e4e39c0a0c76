"""Combinatorial layer: graphs, embeddings, orders, block decomposition."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from conftest import bench_instances, capped_planar

from fewslopes.errors import (
    Disconnected,
    NotBiconnected,
    NotPlanar,
    NotTriangulated,
    StOrderInfeasible,
    VerticesNotOnOuterFace,
)
from fewslopes.families import gen_octahedron, gen_random_triangulation
from fewslopes.graphs import (
    CanonicalOrder,
    Embedding,
    PlanarGraph,
    _blocks,
    block_cut_tree,
    canonical_order,
    planar_embed,
    st_order,
    triangulate,
)


def complete(n: int) -> PlanarGraph:
    return PlanarGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


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

    def test_edge_index_matches_order(self):
        g = complete(4)
        assert [g.edges[i] for i in range(6)] == [
            e for e, _ in sorted(g.edge_index.items(), key=lambda kv: kv[1])
        ]


class TestEmbedding:
    def test_k4_is_triangulated_with_four_faces(self):
        e = planar_embed(complete(4))
        assert len(e.faces) == 4
        assert all(len(f) == 3 for f in e.faces)
        assert e.euler_ok() and e.is_triangulated()

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


class TestTriangulate:
    def test_cube_becomes_triangulation(self):
        e = planar_embed(CUBE)
        t = triangulate(e)
        assert t.is_triangulated()
        assert set(CUBE.edges) <= set(t.graph.edges)
        assert t.aux_edges == frozenset(set(t.graph.edges) - set(CUBE.edges))

    def test_triangulation_is_fixed_point(self):
        e = planar_embed(gen_octahedron())
        t = triangulate(e)
        assert t.graph.edges == e.graph.edges
        assert not t.aux_edges and not t.aux_vertices

    def test_path_face_gets_filled(self):
        g = PlanarGraph(4, ((0, 1), (1, 2), (2, 3)))
        t = triangulate(planar_embed(g))
        assert t.is_triangulated()
        assert set(g.edges) <= set(t.graph.edges)


class TestStOrder:
    def test_octahedron_order_properties(self):
        e = planar_embed(gen_octahedron())
        s, t = e.outer_face[0], e.outer_face[1]
        o = st_order(e, s, t)
        assert o.order[0] == s and o.order[-1] == t
        assert sorted(o.order) == list(range(6))
        pos = o.position()
        g = e.graph
        for v in o.order[1:-1]:
            assert any(pos[u] < pos[v] for u in g.neighbors(v))
            assert any(pos[u] > pos[v] for u in g.neighbors(v))

    def test_v2_on_outer_cycle(self):
        e = planar_embed(gen_random_triangulation(30, 5))
        s, t = e.outer_face[0], e.outer_face[2]
        o = st_order(e, s, t)
        assert o.v2 in e.outer_face

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
    """The order as a tuple, or the name of the error raised."""
    try:
        order = order_fn(e, s, t)
    except (NotBiconnected, StOrderInfeasible, VerticesNotOnOuterFace) as exc:
        return type(exc).__name__
    return getattr(order, "order", order)


def _block_graphs(g: PlanarGraph):
    bct = block_cut_tree(g)
    for i, block in enumerate(bct.blocks):
        verts = bct.block_vertices(i)
        local = {v: j for j, v in enumerate(verts)}
        yield PlanarGraph(len(verts), tuple((local[u], local[v]) for u, v in block))


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

    def test_rejects_what_the_greedy_rejects(self):
        two_triangles = PlanarGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
        e = planar_embed(two_triangles)
        assert _st_outcome(st_order, e, 0, 1) == "NotBiconnected"
        assert _st_outcome(greedy_st_order, e, 0, 1) == "NotBiconnected"


def _block_sets(blocks) -> set[frozenset]:
    return {frozenset(b) for b in blocks}


class TestBlocks:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_networkx_on_connected_induced_subgraphs(self, seed):
        rng = random.Random(seed)
        g = capped_planar(120, seed, 6) if seed % 2 else gen_random_triangulation(80, seed)
        G = g.to_networkx()
        for _ in range(25):
            keep = set(rng.sample(range(g.n), rng.randrange(2, g.n + 1)))
            comp = max(nx.connected_components(G.subgraph(keep)), key=lambda c: (len(c), min(c)))
            want = _block_sets(nx.biconnected_components(G.subgraph(comp)))
            assert _block_sets(_blocks(g.adjacency, comp)) == want

    def test_path_cycle_and_single_vertex(self):
        path = PlanarGraph(4, ((0, 1), (1, 2), (2, 3)))
        assert _block_sets(_blocks(path.adjacency, {0, 1, 2, 3})) == {
            frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})
        }
        assert _block_sets(_blocks(path.adjacency, {2, 1, 0})) == {
            frozenset({0, 1}), frozenset({1, 2})
        }
        assert _blocks(path.adjacency, {3}) == []
        cycle = PlanarGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert _blocks(cycle.adjacency, {0, 1, 2, 3}) == [{0, 1, 2, 3}]


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
        at_2 = tuple(i for i in range(len(bct.blocks)) if 2 in bct.block_vertices(i))
        assert at_2 == (0, 1)

    def test_path_splits_into_edges(self):
        g = PlanarGraph(4, ((0, 1), (1, 2), (2, 3)))
        bct = block_cut_tree(g)
        assert len(bct.blocks) == 3
        assert bct.cut_vertices == (1, 2)

    def test_biconnected_single_block(self):
        bct = block_cut_tree(gen_octahedron())
        assert len(bct.blocks) == 1 and not bct.cut_vertices
        assert bct.block_vertices(0) == (0, 1, 2, 3, 4, 5)
