"""Combinatorial foundations: planar graphs, embeddings, triangulation,
st-orders, canonical orders, and block-cut decomposition.

Conventions used throughout the package:
  - rotation[v] lists the neighbors of v in clockwise order (y axis up);
  - faces are traced with next(u -> v) = (v, w) where w is the cyclic
    predecessor of u in rotation[v]; under this rule each traced face keeps
    its region to the right of travel, so inner faces come out clockwise and
    the outer face counterclockwise once coordinates exist.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property

import networkx as nx

from .errors import (
    Disconnected,
    NotBiconnected,
    NotPlanar,
    NotTriangulated,
    StOrderInfeasible,
    VerticesNotOnOuterFace,
)

__all__ = [
    "PlanarGraph",
    "Embedding",
    "StOrder",
    "CanonicalOrder",
    "BlockCutTree",
    "planar_embed",
    "triangulate",
    "st_order",
    "canonical_order",
    "block_cut_tree",
]


# --- basic graph ---------------------------------------------------------------

def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class PlanarGraph:
    """Simple undirected graph with dense vertex ids 0..n-1.

    Planarity itself is validated when an embedding is requested, so that
    non-planar inputs can be constructed, passed around, and rejected by the
    pipeline with a proper NotPlanar error.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        norm = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            e = _norm_edge(u, v)
            if e in seen:
                raise ValueError(f"parallel edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("labels length must equal n")
            object.__setattr__(self, "labels", tuple(self.labels))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def to_networkx(self) -> nx.Graph:
        G = nx.Graph()
        G.add_nodes_from(range(self.n))
        G.add_edges_from(self.edges)
        return G

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets of the connected components, each sorted, in order of
        their smallest vertex."""
        seen = set()
        comps = []
        adj = self.adjacency
        for v0 in range(self.n):
            if v0 in seen:
                continue
            stack, comp = [v0], []
            seen.add(v0)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self.components) <= 1


# --- embedding -----------------------------------------------------------------

def _rotate_min(t: tuple[int, ...]) -> tuple[int, ...]:
    """Cyclic rotation of t starting at its smallest element (ties by the
    lexicographically smallest full rotation)."""
    if not t:
        return t
    best = min(tuple(t[i:] + t[:i]) for i in range(len(t)))
    return best


@dataclass(frozen=True)
class Embedding:
    """Rotation system plus designated outer face.

    rotation[v] is the clockwise cyclic neighbor order of v. aux_vertices and
    aux_edges flag elements added by triangulate().
    """

    graph: PlanarGraph
    rotation: tuple[tuple[int, ...], ...]
    outer_face: tuple[int, ...]
    aux_vertices: frozenset = frozenset()
    aux_edges: frozenset = frozenset()

    def __post_init__(self):
        g = self.graph
        if len(self.rotation) != g.n:
            raise ValueError("rotation length must equal n")
        for v in range(g.n):
            if sorted(self.rotation[v]) != list(g.adjacency[v]):
                raise ValueError(f"rotation at {v} disagrees with adjacency")
        object.__setattr__(self, "rotation", tuple(tuple(r) for r in self.rotation))
        o = tuple(self.outer_face)
        object.__setattr__(self, "outer_face", o)
        if g.n == 1 and o == (0,):
            return
        # the face of dart (o[0], o[1]) starts at o[0], so it must equal o
        dart = len(o) >= 2 and o[0] in range(g.n) and o[1] in self.rotation[o[0]]
        if not dart or self.trace_face(o[0], o[1]) != o:
            raise ValueError("outer_face is not a face of the rotation system")

    def trace_face(self, u: int, v: int) -> tuple[int, ...]:
        return _trace_faces(self.rotation, [(u, v)])[0]

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_all_faces(self.rotation, self.graph.edges))

    def euler_ok(self) -> bool:
        g = self.graph
        faces = 1 if g.n == 1 else len(self.faces)
        return g.n - len(g.edges) + faces == 2

    def is_triangulated(self) -> bool:
        return all(len(f) == 3 for f in self.faces)

    def rotation_arc(self, v: int, start_after: int) -> list[int]:
        """Neighbors of v in clockwise order starting just after start_after."""
        rot = self.rotation[v]
        i = rot.index(start_after)
        return [rot[(i + j) % len(rot)] for j in range(1, len(rot))]


def planar_embed(g: PlanarGraph) -> Embedding:
    """Deterministic combinatorial embedding of a connected planar graph."""
    if not g.is_connected():
        raise Disconnected("planar_embed requires a connected graph")
    if g.n == 1:
        return Embedding(g, ((),), (0,))
    G = g.to_networkx()
    ok, cert = nx.check_planarity(G, counterexample=True)
    if not ok:
        witness = tuple(sorted(_norm_edge(u, v) for u, v in cert.edges()))
        raise NotPlanar(
            f"graph is not planar (forbidden-subdivision witness with {len(witness)} edges)",
            witness_edges=witness,
        )
    rotation = []
    for v in range(g.n):
        order = tuple(cert.neighbors_cw_order(v))
        rotation.append(_rotate_min(order))
    faces = tuple(_all_faces(rotation, g.edges))
    emb = Embedding(g, tuple(rotation), min(faces, key=_largest_first))
    emb.__dict__["faces"] = faces  # the cached property, traced once here
    assert emb.euler_ok(), "face tracing violated Euler's formula"
    return emb


def _trace_faces(rotation, darts) -> list[tuple[int, ...]]:
    """The face of each dart not already covered, in the order given.

    The dart after (a, b) is (b, w), where w precedes a in rotation[b].
    """
    seen = set()
    out = []
    for dart in darts:
        if dart in seen:
            continue
        face = []
        while dart not in seen:
            seen.add(dart)
            face.append(dart[0])
            a, b = dart
            rb = rotation[b]
            dart = (b, rb[rb.index(a) - 1])
        out.append(tuple(face))
    return out


def _all_faces(rotation, edges) -> list[tuple[int, ...]]:
    return _trace_faces(rotation, sorted([*edges, *((b, a) for a, b in edges)]))


def _largest_first(face: tuple[int, ...]):
    return (-len(face), _rotate_min(face))


# --- triangulation -------------------------------------------------------------

def triangulate(e: Embedding) -> Embedding:
    """Add edges (and stellation vertices when a face admits no chord fan)
    until every face, the outer one included, is a triangle.

    Original vertices and edges are preserved; additions are flagged in
    aux_vertices / aux_edges of the result.
    """
    g = e.graph
    if g.n < 3:
        raise ValueError("triangulate requires n >= 3")
    if not g.is_connected():
        raise Disconnected("triangulate requires a connected embedding")

    n = g.n
    rot = [list(r) for r in e.rotation]
    edges = set(g.edges)
    aux_edges = set()
    aux_vertices = set()
    outer_dart = (e.outer_face[0], e.outer_face[1]) if len(e.outer_face) >= 2 else None

    def add_edge(p, r):
        edges.add(_norm_edge(p, r))
        aux_edges.add(_norm_edge(p, r))

    # Stage A: biconnect. A face walk revisiting a vertex marks a cut
    # vertex; bridging its two occurrences' neighbors splits the face and
    # merges two blocks.
    while True:
        faces = _all_faces(rot, edges)
        applied = False
        for face in sorted(faces, key=_largest_first):
            k = len(face)
            counts = {}
            for w in face:
                counts[w] = counts.get(w, 0) + 1
            if all(c == 1 for c in counts.values()):
                continue
            for i in range(k):
                q = face[i]
                if counts[q] < 2:
                    continue
                p, r = face[i - 1], face[(i + 1) % k]
                if p == r or _norm_edge(p, r) in edges:
                    continue
                add_edge(p, r)
                # face visits (p -> q -> r); new triangle (p,q,r) needs
                # consecutive (q, r) in rot[p] and (p, q) in rot[r]
                rot[p].insert(rot[p].index(q) + 1, r)
                rot[r].insert(rot[r].index(q), p)
                applied = True
                break
            if applied:
                break
        if not applied:
            if any(
                max(map(f.count, set(f))) > 1 for f in faces
            ):
                raise AssertionError("biconnection stage stalled")
            break

    # Stage B: triangulate every simple face by a chord fan from an apex
    # whose chords are all absent, else by stellation. Chords added inside
    # one face never disturb another face's walk, so one snapshot suffices.
    for face in sorted(_all_faces(rot, edges), key=_largest_first):
        k = len(face)
        if k <= 3:
            continue
        apex_pos = None
        for pos in sorted(range(k), key=lambda i: face[i]):
            a = face[pos]
            chords = [
                _norm_edge(a, face[(pos + j) % k]) for j in range(2, k - 1)
            ]
            if all(c not in edges for c in chords) and len(set(chords)) == len(chords):
                apex_pos = pos
                break
        if apex_pos is not None:
            w = [face[(apex_pos + j) % k] for j in range(k)]  # w[0] = apex
            a = w[0]
            # rot[a]: (w1, w2, ..., w_{k-1}) must read consecutively
            ia = rot[a].index(w[1])
            for j in range(2, k - 1):
                rot[a].insert(ia + j - 1, w[j])
                add_edge(a, w[j])
            for j in range(2, k - 1):
                rot[w[j]].insert(rot[w[j]].index(w[j + 1]) + 1, a)
        else:
            z = n
            n += 1
            aux_vertices.add(z)
            rot.append(list(face))
            for j in range(k):
                wj = face[j]
                nxt = face[(j + 1) % k]
                rot[wj].insert(rot[wj].index(nxt) + 1, z)
                add_edge(wj, z)

    labels = None
    if g.labels is not None:
        labels = tuple(g.labels) + tuple(f"aux{i}" for i in range(n - g.n))
    g2 = PlanarGraph(n, tuple(sorted(edges)), labels)
    faces = tuple(_all_faces(rot, g2.edges))
    assert all(len(f) == 3 for f in faces), "triangulation left a big face"
    outer = faces[0] if outer_dart is None else _trace_faces(rot, [outer_dart])[0]
    emb = Embedding(
        g2,
        tuple(tuple(r) for r in rot),
        outer,
        aux_vertices=frozenset(aux_vertices),
        aux_edges=frozenset(aux_edges),
    )
    emb.__dict__["faces"] = faces
    assert emb.euler_ok()
    return emb


# --- st-order ------------------------------------------------------------------

@dataclass(frozen=True)
class StOrder:
    """Vertex order v_1..v_n where every inner vertex has an earlier and a
    later neighbor; v_2 lies on the outer face and v_1v_2 is an outer edge."""

    order: tuple[int, ...]
    s: int
    t: int

    @property
    def v2(self) -> int:
        return self.order[1]

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


def _blocks(adj, keep) -> list[set[int]]:
    """Vertex sets of the blocks of the connected induced subgraph G[keep];
    a single vertex has none.

    One iterative depth-first search with Hopcroft–Tarjan lowpoints: low[u]
    is the smallest discovery number reachable from u's subtree by one back
    edge. When a child c of u finishes with low[c] >= num[u], u and the
    vertices discovered since c, c included, form a block.
    """
    root = next(iter(keep))
    num = {root: 0}
    low = {root: 0}
    found: list[int] = []  # discovered vertices not yet in a finished block
    blocks = []
    stack = [(root, iter(adj[root]), 0)]
    while stack:
        u, nbrs, since = stack[-1]
        for w in nbrs:
            if w not in keep:
                continue
            if w not in num:
                num[w] = low[w] = len(num)
                stack.append((w, iter(adj[w]), len(found)))
                found.append(w)
                break
            if num[w] < low[u]:  # the tree edge to u's parent is harmless
                low[u] = num[w]
        else:
            stack.pop()
            if not stack:
                break
            p = stack[-1][0]
            if low[u] < low[p]:
                low[p] = low[u]
            if low[u] >= num[p]:
                block = set(found[since:])
                block.add(p)
                del found[since:]
                blocks.append(block)
    return blocks


class _Blocks:
    """The blocks of a connected induced subgraph G[rest] while rest loses
    one non-cut vertex at a time: each block's vertex set by id, and the ids
    of the blocks at each vertex. A vertex is a cut vertex iff it lies in
    two or more blocks."""

    def __init__(self, adj, rest):
        self.adj = adj
        self.sets: dict[int, set[int]] = {}
        self.at: dict[int, set[int]] = {v: set() for v in rest}
        self.ids = itertools.count()
        self._split(rest)

    def _split(self, keep) -> None:
        for block in _blocks(self.adj, keep):
            b = next(self.ids)
            self.sets[b] = block
            for v in block:
                self.at[v].add(b)

    def is_cut(self, v: int) -> bool:
        return len(self.at[v]) >= 2

    def remove(self, v: int) -> None:
        """Drop the non-cut vertex v. Every block but the one holding v stays
        a block of what remains; that one, less v, is split by one search."""
        held = self.at.pop(v)
        assert len(held) <= 1, f"removed cut vertex {v}"
        if not held:  # v was the last vertex
            return
        b = held.pop()
        block = self.sets.pop(b)
        block.remove(v)
        for w in block:
            self.at[w].remove(b)
        if len(block) >= 2:
            self._split(block)


def st_order(e: Embedding, s: int, t: int) -> StOrder:
    """Greedy st-order for a biconnected embedding with v_1 = s, v_n = t.

    v_2 is the smallest-id outer-cycle neighbor of s that is not a cut
    vertex of G - s, so G - {s, v_2} stays connected. Each later step
    places the smallest-id frontier vertex (unplaced, with a placed
    neighbor) that is neither t nor a cut vertex of the unplaced subgraph,
    which therefore stays connected, and the peel always succeeds.

    The blocks of the unplaced subgraph are kept from step to step: placing
    a non-cut vertex changes only the one block that holds it, so a step
    costs one lowpoint search of that block, not of the whole unplaced
    subgraph, plus sorting the frontier. Raises StOrderInfeasible when no
    admissible v_2 exists.
    """
    g = e.graph
    if s == t:
        raise ValueError("s and t must differ")
    adj = g.adjacency
    all_v = set(range(g.n))
    if g.n < 3 or [all_v] != _blocks(adj, all_v):
        raise NotBiconnected("st_order requires a biconnected graph")
    outer = e.outer_face
    if s not in outer or t not in outer:
        raise VerticesNotOnOuterFace(f"s={s}, t={t} must both lie on the outer face")
    pos = outer.index(s)
    cyc_nbrs = sorted({outer[pos - 1], outer[(pos + 1) % len(outer)]} - {t})
    blocks_without_s = _blocks(adj, all_v - {s})
    for v2 in cyc_nbrs:
        if sum(v2 in b for b in blocks_without_s) > 1:
            continue
        order = [s, v2]
        rest = all_v - {s, v2}
        blocks = _Blocks(adj, rest)
        frontier = {w for w in (*adj[s], *adj[v2]) if w in rest}
        while rest:
            pick = next(
                (u for u in sorted(frontier)
                 if (u != t or len(rest) == 1) and not blocks.is_cut(u)),
                None,
            )
            assert pick is not None, "greedy st-order stalled on feasible input"
            order.append(pick)
            rest.remove(pick)
            blocks.remove(pick)
            frontier.remove(pick)
            frontier.update(w for w in adj[pick] if w in rest)
        st = StOrder(tuple(order), s, t)
        _assert_st_valid(g, st)
        return st
    raise StOrderInfeasible(
        f"no outer edge at {s} leaves the graph connected without its endpoints"
    )


def _assert_st_valid(g: PlanarGraph, st: StOrder) -> None:
    p = st.position()
    for v in range(g.n):
        i = p[v]
        nbr_pos = [p[w] for w in g.adjacency[v]]
        if 0 < i:
            assert min(nbr_pos) < i, f"vertex {v} lacks an earlier neighbor"
        if i < g.n - 1:
            assert max(nbr_pos) > i, f"vertex {v} lacks a later neighbor"


# --- canonical order -----------------------------------------------------------

@dataclass(frozen=True)
class CanonicalOrder:
    """Canonical order of a triangulation.

    support[k] lists, for the vertex at position k >= 2, its earlier
    neighbors in outer-cycle order at insertion time (endpoints first/last).
    Positions 0 and 1 carry empty tuples.
    """

    order: tuple[int, ...]
    support: tuple[tuple[int, ...], ...]


def canonical_order(e: Embedding) -> CanonicalOrder:
    """Reverse-deletion canonical order: repeatedly strip the smallest-id
    outer vertex other than v_1, v_2 that has no chord, exposing its
    interior neighbors on the cycle.

    Each cycle vertex keeps a count of its cycle neighbors, and a vertex
    with no chord has exactly two. A deletion changes only the counts of its
    two cycle neighbors and of the vertices next to the exposed ones, so a
    step costs the degrees it touches, not a recount of the whole cycle; a
    heap of the vertices whose count reached two gives the smallest one.
    """
    if not e.is_triangulated():
        raise NotTriangulated("canonical order requires a triangulation")
    g = e.graph
    n = g.n
    if n == 3:
        order = (e.outer_face[0], e.outer_face[1], e.outer_face[2])
        return CanonicalOrder(order, ((), (), (order[0], order[1])))

    rot = {v: list(e.rotation[v]) for v in range(n)}
    present = set(range(n))
    cycle = list(e.outer_face)
    on_cycle = set(cycle)
    v1, v2 = cycle[0], cycle[1]
    order = [0] * n
    support: list[tuple[int, ...]] = [()] * n
    chords = {v: sum(1 for w in rot[v] if w in on_cycle) for v in cycle}
    ready = [v for v in cycle if chords[v] == 2 and v not in (v1, v2)]
    heapq.heapify(ready)

    def count(w: int, by: int) -> None:
        chords[w] += by
        if chords[w] == 2 and w not in (v1, v2):
            heapq.heappush(ready, w)

    for k in range(n - 1, 1, -1):
        # entries go stale when a count leaves 2; a picked vertex never returns
        while ready and (ready[0] not in on_cycle or chords[ready[0]] != 2):
            heapq.heappop(ready)
        assert ready, "no canonical candidate; embedding inconsistent"
        pick = heapq.heappop(ready)
        i = cycle.index(pick)
        c_l, c_r = cycle[i - 1], cycle[(i + 1) % len(cycle)]
        # (c_r, c_l) are rotation-consecutive at an outer vertex, so walking
        # clockwise from c_l collects exactly the interior neighbors
        r = rot[pick]
        j = r.index(c_l)
        arc = []
        while True:
            j = (j + 1) % len(r)
            if r[j] == c_r:
                break
            arc.append(r[j])
        assert len(arc) == len(r) - 2, "outer-cycle orientation invariant broken"
        assert all(w not in on_cycle for w in arc), "chord vertex picked"
        order[k] = pick
        support[k] = tuple([c_l] + arc + [c_r])
        cycle[i:i + 1] = arc
        on_cycle.remove(pick)
        del chords[pick]
        count(c_l, -1)
        count(c_r, -1)
        present.remove(pick)
        for w in rot[pick]:
            rot[w].remove(pick)
        del rot[pick]
        on_cycle.update(arc)
        for a in arc:
            nbrs = [w for w in rot[a] if w in on_cycle]
            chords[a] = 0
            count(a, len(nbrs))
            for w in nbrs:
                if w not in arc:
                    count(w, 1)

    assert present == {v1, v2}
    order[0], order[1] = v1, v2
    co = CanonicalOrder(tuple(order), tuple(support))
    _assert_canonical_valid(g, co)
    return co


def _assert_canonical_valid(g: PlanarGraph, co: CanonicalOrder) -> None:
    assert sorted(co.order) == list(range(g.n))
    pos = {v: i for i, v in enumerate(co.order)}
    for k in range(2, g.n):
        v = co.order[k]
        sup = co.support[k]
        assert len(sup) >= 2, f"vertex {v} covers fewer than 2 vertices"
        assert all(pos[w] < k for w in sup)
        assert set(sup) == {w for w in g.adjacency[v] if pos[w] < k}


# --- block-cut tree ------------------------------------------------------------

@dataclass(frozen=True)
class BlockCutTree:
    """Biconnected blocks (as edge lists) plus cut vertices of a graph, over
    all its components; blocks and cut vertices are sorted for determinism."""

    blocks: tuple[tuple[tuple[int, int], ...], ...]
    cut_vertices: tuple[int, ...]

    def block_vertices(self, i: int) -> tuple[int, ...]:
        vs = set()
        for u, v in self.blocks[i]:
            vs.add(u)
            vs.add(v)
        return tuple(sorted(vs))


def block_cut_tree(g: PlanarGraph) -> BlockCutTree:
    G = g.to_networkx()
    blocks = []
    for comp in nx.biconnected_component_edges(G):
        edges = tuple(sorted(_norm_edge(u, v) for u, v in comp))
        blocks.append(edges)
    blocks.sort()
    cuts = tuple(sorted(nx.articulation_points(G)))
    bct = BlockCutTree(tuple(blocks), cuts)
    assert sum(len(b) for b in bct.blocks) == len(g.edges)
    return bct
