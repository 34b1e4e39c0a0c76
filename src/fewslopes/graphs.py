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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from ._lrplanarity import lr_rotations, lr_witness
from .errors import (
    Disconnected,
    NotBiconnected,
    NotPlanar,
    NotTriangulated,
    StOrderInfeasible,
    TooFewVertices,
    VerticesNotOnOuterFace,
)

__all__ = [
    "PlanarGraph",
    "Embedding",
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

    def to_networkx(self):
        import networkx as nx

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
    lexicographically smallest full rotation).

    Only rotations starting at an occurrence of min(t) compete; the j-th
    round keeps those with the smallest j-th element, so a long face is not
    copied once per rotation.
    """
    k = len(t)
    if not k:
        return t
    low = min(t)
    starts = [i for i in range(k) if t[i] == low]
    j = 1
    while len(starts) > 1 and j < k:
        low = min(t[(i + j) % k] for i in starts)
        starts = [i for i in starts if t[(i + j) % k] == low]
        j += 1
    i = starts[0]
    return tuple(t[i:] + t[:i])


@dataclass(frozen=True)
class Embedding:
    """Rotation system plus designated outer face.

    rotation[v] is the clockwise cyclic neighbor order of v.
    """

    graph: PlanarGraph
    rotation: tuple[tuple[int, ...], ...]
    outer_face: tuple[int, ...]

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

    @cached_property
    def face_of(self) -> dict[tuple[int, int], int]:
        """Dart (a, b) -> index in faces of the face that holds it. At v, the
        face of dart (v, rotation[v][i]) lies between rotation[v][i] and
        rotation[v][i + 1]."""
        return {(a, b): i for i, f in enumerate(self.faces) for a, b in zip(f, f[1:] + f[:1])}

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
    if g.n == 0:
        raise TooFewVertices("planar_embed needs at least 1 vertex")
    if not g.is_connected():
        raise Disconnected("planar_embed requires a connected graph")
    if g.n == 1:
        return Embedding(g, ((),), (0,))
    rotation = lr_rotations(g.n, g.adjacency)
    if rotation is None:
        witness = lr_witness(g.n, g.edges)
        raise NotPlanar(
            f"graph is not planar (forbidden-subdivision witness with {len(witness)} edges)",
            witness_edges=witness,
        )
    faces = tuple(_all_faces(rotation, g.edges))
    emb = Embedding(g, tuple(rotation), min(faces, key=_largest_first))
    emb.__dict__["faces"] = faces  # the cached property, traced once here
    assert emb.euler_ok(), "face tracing violated Euler's formula"
    return emb


def _trace_faces(rotation, darts) -> list[tuple[int, ...]]:
    """The face of each dart not already covered, in the order given.

    The dart after (a, b) is (b, w), where w precedes a in rotation[b]. Each
    vertex's neighbor -> predecessor map is built on its first visit, so a
    trace costs O(1) per dart and per neighbor of a visited vertex, whatever
    the degrees.
    """
    pred = [None] * len(rotation)
    seen = set()
    out = []
    for dart in darts:
        if dart in seen:
            continue
        face = []
        while dart not in seen:
            seen.add(dart)
            a, b = dart
            face.append(a)
            pb = pred[b]
            if pb is None:
                rb = rotation[b]
                pb = pred[b] = dict(zip(rb, rb[-1:] + rb[:-1]))
            dart = (b, pb[a])
        out.append(tuple(face))
    return out


def _all_faces(rotation, edges) -> list[tuple[int, ...]]:
    return _trace_faces(rotation, sorted([*edges, *((b, a) for a, b in edges)]))


def _largest_first(face: tuple[int, ...]):
    return (-len(face), _rotate_min(face))


# --- triangulation -------------------------------------------------------------

def triangulate(e: Embedding) -> Embedding:
    """Add edges until every face, the outer one included, is a triangle.

    The vertices are those of e, and its edges are kept.
    """
    g = e.graph
    if g.n < 3:
        raise TooFewVertices("triangulate requires n >= 3")
    if not g.is_connected():
        raise Disconnected("triangulate requires a connected embedding")

    rot = [list(r) for r in e.rotation]
    edges = set(g.edges)
    outer_dart = (e.outer_face[0], e.outer_face[1]) if len(e.outer_face) >= 2 else None

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
                edges.add(_norm_edge(p, r))
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

    # Stage B: fan every face from its smallest apex with no chord present.
    # After stage A each face is a simple cycle, and the edges joining its
    # non-consecutive vertices run outside it as non-crossing chords; a cycle
    # of k >= 4 vertices with non-crossing chords has two vertices on no
    # chord, so an apex exists. Chords added inside one face never disturb
    # another face's walk, so one snapshot suffices.
    for face in sorted(_all_faces(rot, edges), key=_largest_first):
        k = len(face)
        if k <= 3:
            continue
        apex_pos = next(
            p for p in sorted(range(k), key=face.__getitem__)
            if all(_norm_edge(face[p], face[(p + j) % k]) not in edges for j in range(2, k - 1))
        )
        w = [face[(apex_pos + j) % k] for j in range(k)]  # w[0] = apex
        a = w[0]
        # rot[a]: (w1, w2, ..., w_{k-1}) must read consecutively
        ia = rot[a].index(w[1])
        for j in range(2, k - 1):
            rot[a].insert(ia + j - 1, w[j])
            edges.add(_norm_edge(a, w[j]))
        for j in range(2, k - 1):
            rot[w[j]].insert(rot[w[j]].index(w[j + 1]) + 1, a)

    g2 = PlanarGraph(g.n, tuple(sorted(edges)), g.labels)
    faces = tuple(_all_faces(rot, g2.edges))
    assert all(len(f) == 3 for f in faces), "triangulation left a big face"
    outer = faces[0] if outer_dart is None else _trace_faces(rot, [outer_dart])[0]
    emb = Embedding(g2, tuple(tuple(r) for r in rot), outer)
    emb.__dict__["faces"] = faces
    assert emb.euler_ok()
    return emb


# --- st-order ------------------------------------------------------------------

def _blocks(adj) -> list[set[int]]:
    """Vertex sets of the blocks of the graph with adjacency lists adj; an
    isolated vertex has none.

    One iterative depth-first search from each unvisited root, with
    Hopcroft–Tarjan lowpoints: low[u] is the smallest discovery number
    reachable from u's subtree by one back edge. When a child c of u
    finishes with low[c] >= num[u], u and the vertices discovered since c,
    c included, form a block.
    """
    num: dict[int, int] = {}
    low: dict[int, int] = {}
    found: list[int] = []  # discovered vertices not yet in a finished block
    blocks = []
    for root in range(len(adj)):
        if root in num:
            continue
        num[root] = low[root] = len(num)
        stack = [(root, iter(adj[root]), 0)]
        while stack:
            u, nbrs, since = stack[-1]
            for w in nbrs:
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


def _is_cut(u, nbrs, face_of, placed, touched) -> bool:
    """Whether an unplaced vertex u with clockwise neighbors nbrs is a cut
    vertex of the unplaced subgraph: whether two or more of the gaps between
    cyclically consecutive unplaced neighbors hold a touched face. The face
    between nbrs[i] and nbrs[i + 1] is that of dart (u, nbrs[i])."""
    d = len(nbrs)
    start = next((i for i in range(d) if not placed[nbrs[i]]), None)
    if start is None:
        return False
    gaps = 0
    hit = False
    for i in range(start - d, start):  # from the face after nbrs[start] round to nbrs[start]
        if not hit and touched[face_of[u, nbrs[i]]]:
            hit = True
        if hit and not placed[nbrs[i + 1]]:
            gaps += 1
            if gaps == 2:
                return True
            hit = False
    return False


def _peel(e: Embedding, s: int, t: int, firsts: list[int]) -> list[int]:
    """The greedy order from s to t whose second vertex is taken from
    firsts, with the face-local cut test; see st_order."""
    n = e.graph.n
    adj, rot, faces, face_of = e.graph.adjacency, e.rotation, e.faces, e.face_of
    placed = [False] * n
    touched = [False] * len(faces)
    near = [False] * n  # has a placed neighbor
    ready = [False] * n  # eligible when last tested
    heap: list[int] = []

    def place(v: int) -> None:
        placed[v] = True
        stale = {w for w in adj[v] if not placed[w]}
        for w in stale:
            near[w] = True
        for w in rot[v]:
            fi = face_of[v, w]
            if not touched[fi]:
                touched[fi] = True
                stale.update(faces[fi])
        for u in stale:
            if placed[u] or u == t or not near[u]:
                continue
            ready[u] = not _is_cut(u, rot[u], face_of, placed, touched)
            if ready[u]:
                heapq.heappush(heap, u)

    place(s)
    v2 = next((v for v in firsts if ready[v]), None)
    if v2 is None:
        raise StOrderInfeasible(
            f"no outer edge at {s} leaves the graph connected without its endpoints"
        )
    order = [s, v2]
    place(v2)
    while len(order) < n - 1:
        pick = None
        while heap:
            u = heapq.heappop(heap)
            if ready[u] and not placed[u]:  # else the entry went stale
                pick = u
                break
        assert pick is not None, "greedy st-order stalled on feasible input"
        order.append(pick)
        place(pick)
    order.append(t)
    return order


def st_order(e: Embedding, s: int, t: int) -> tuple[int, ...]:
    """Greedy st-order v_1..v_n for a biconnected embedding with v_1 = s,
    v_n = t: every inner vertex has an earlier and a later neighbor, and
    v_1v_2 is an outer edge.

    After s, each step places the smallest-id eligible vertex: one that is
    unplaced, has a placed neighbor, is not t, and is not a cut vertex of
    the unplaced subgraph, which therefore stays connected. For v_2 the
    candidates are the outer-cycle neighbors of s; later, every vertex.
    When v_2 exists, the peel always succeeds.

    The cut test is local to the faces at u. Call a face touched once one
    of its vertices is placed, and split the clockwise rotation of u at its
    unplaced neighbors w_1..w_k into k gaps. Then u is a cut vertex of the
    unplaced subgraph iff two or more gaps hold a touched face. Proof: the
    faces of a biconnected plane graph are simple cycles, and the placed
    set P is connected. If gaps i and j hold touched faces, a closed curve
    through u, those two faces and P meets no unplaced vertex but u and has
    unplaced neighbors of u on both sides. A gap with no touched face holds
    no placed neighbor, so it is one face, whose cycle joins its two
    unplaced neighbors without u; when at most one gap is touched, these
    paths join all of w_1..w_k, and every unplaced vertex reaches one of
    them.

    A test reads u's rotation once, and the faces from the embedding's
    dart-to-face index. A placement retests only its unplaced neighbors and
    the vertices of the faces it touches first, and each face is touched
    once, so the tests sum to O(m) of O(d) each; a lazy min-heap of the
    eligible vertices gives each step's pick. The peel takes O(m·d·log n)
    time. Raises StOrderInfeasible when no admissible v_2 exists.
    """
    g = e.graph
    if s == t:
        raise ValueError("s and t must differ")
    if g.n < 3 or _blocks(g.adjacency) != [set(range(g.n))]:
        raise NotBiconnected("st_order requires a biconnected graph")
    outer = e.outer_face
    if s not in outer or t not in outer:
        raise VerticesNotOnOuterFace(f"s={s}, t={t} must both lie on the outer face")
    pos = outer.index(s)
    firsts = sorted({outer[pos - 1], outer[(pos + 1) % len(outer)]} - {t})
    return tuple(_peel(e, s, t, firsts))


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
    n = e.graph.n
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
    return CanonicalOrder(tuple(order), tuple(support))


# --- block-cut tree ------------------------------------------------------------

@dataclass(frozen=True)
class BlockCutTree:
    """Biconnected blocks (as edge lists and vertex lists) plus cut vertices
    of a graph, over all its components; all are sorted for determinism."""

    blocks: tuple[tuple[tuple[int, int], ...], ...]
    vertices: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]


def block_cut_tree(g: PlanarGraph) -> BlockCutTree:
    """One lowpoint search over the whole graph. Two blocks share at most one
    vertex, so a block's edges are those its vertex set induces, and a cut
    vertex is one that lies in two or more blocks."""
    adj = g.adjacency
    found = []
    for block in _blocks(adj):
        verts = tuple(sorted(block))
        edges = tuple((u, w) for u in verts for w in adj[u] if u < w and w in block)
        found.append((edges, verts))
    found.sort()
    held = Counter(v for _, verts in found for v in verts)
    cuts = tuple(sorted(v for v, k in held.items() if k >= 2))
    return BlockCutTree(tuple(e for e, _ in found), tuple(v for _, v in found), cuts)
