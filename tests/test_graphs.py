"""Combinatorial layer: graphs, embeddings, orders, block decomposition."""

from __future__ import annotations

import pytest

from fewslopes.errors import (
    Disconnected,
    NotBiconnected,
    NotPlanar,
    NotTriangulated,
    VerticesNotOnOuterFace,
)
from fewslopes.families import gen_octahedron, gen_random_triangulation
from fewslopes.graphs import (
    Embedding,
    PlanarGraph,
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


class TestBlockCutTree:
    def test_two_triangles_sharing_a_vertex(self):
        g = PlanarGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
        bct = block_cut_tree(g)
        assert len(bct.blocks) == 2
        assert bct.cut_vertices == (2,)
        assert bct.blocks_at(2) == (0, 1)

    def test_path_splits_into_edges(self):
        g = PlanarGraph(4, ((0, 1), (1, 2), (2, 3)))
        bct = block_cut_tree(g)
        assert len(bct.blocks) == 3
        assert bct.cut_vertices == (1, 2)

    def test_biconnected_single_block(self):
        bct = block_cut_tree(gen_octahedron())
        assert len(bct.blocks) == 1 and not bct.cut_vertices
        assert bct.block_vertices(0) == (0, 1, 2, 3, 4, 5)
