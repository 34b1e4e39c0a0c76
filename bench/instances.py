"""Seeded instance generators for the benchmark.

Every generator takes its seed as an argument and returns a graph with
exactly the number of vertices it names and maximum degree exactly the cap
it names (a ValueError says so when that is impossible). The generators live
here rather than in the package so that a change to the package's own
families cannot change what the benchmark measures.
"""

from __future__ import annotations

import random

from fewslopes.graphs import PlanarGraph


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class _Triangulation:
    """Combinatorial sphere triangulation kept as edges plus, per edge, the
    two vertices opposite it (one in each incident triangle)."""

    def __init__(self):
        self.adj = [set(range(4)) - {v} for v in range(4)]
        self.edges: list[tuple[int, int]] = []
        self.slot: dict[tuple[int, int], int] = {}
        self.third: dict[tuple[int, int], list[int]] = {}
        for u in range(4):
            for v in range(u + 1, 4):
                self._add(u, v, [w for w in range(4) if w not in (u, v)])

    @property
    def n(self) -> int:
        return len(self.adj)

    def deg(self, v: int) -> int:
        return len(self.adj[v])

    def _add(self, u: int, v: int, thirds: list[int], at: int | None = None):
        e = _key(u, v)
        if at is None:
            self.slot[e] = len(self.edges)
            self.edges.append(e)
        else:
            self.slot[e] = at
            self.edges[at] = e
        self.third[e] = thirds
        self.adj[u].add(v)
        self.adj[v].add(u)

    def _remove(self, u: int, v: int) -> int:
        e = _key(u, v)
        del self.third[e]
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        return self.slot.pop(e)

    def _swap_third(self, u: int, v: int, old: int, new: int):
        lst = self.third[_key(u, v)]
        lst[lst.index(old)] = new

    def stack(self, a: int, b: int, c: int):
        """Put a new degree-3 vertex inside the triangle abc."""
        x = self.n
        self.adj.append(set())
        self._swap_third(a, b, c, x)
        self._swap_third(b, c, a, x)
        self._swap_third(a, c, b, x)
        self._add(a, x, [b, c])
        self._add(b, x, [a, c])
        self._add(c, x, [a, b])

    def can_flip(self, e: tuple[int, int], cap: int) -> bool:
        a, b = e
        c, d = self.third[e]
        return (
            d not in self.adj[c]
            and self.deg(a) > 3
            and self.deg(b) > 3
            and self.deg(c) < cap
            and self.deg(d) < cap
        )

    def flip(self, e: tuple[int, int]):
        """Replace e = ab by the opposite diagonal cd."""
        a, b = e
        c, d = self.third[e]
        at = self._remove(a, b)
        self._swap_third(a, c, b, d)
        self._swap_third(b, c, a, d)
        self._swap_third(a, d, b, c)
        self._swap_third(b, d, a, c)
        self._add(c, d, [a, b], at)


def bounded_triangulation(n: int, dmax: int, seed: int) -> PlanarGraph:
    """Maximal planar graph on exactly n vertices with maximum degree exactly
    dmax.

    A stacked triangulation grown under the degree cap: each new vertex goes
    into a random triangle whose corners are all below the cap. Where plain
    stacking would stop early, degree-capped random edge flips free a
    triangle and growth goes on. Stacking nests triangles deeply, so circle
    packings of these graphs span many orders of magnitude in radius.
    """
    if n < 6 or dmax < 5:
        raise ValueError("need n >= 6 and dmax >= 5")
    rng = random.Random(seed)
    t = _Triangulation()
    for _ in range(1000 * n):
        if t.n == n:
            break
        for _ in range(64):
            e = t.edges[rng.randrange(len(t.edges))]
            c = t.third[e][rng.randrange(2)]
            if max(t.deg(e[0]), t.deg(e[1]), t.deg(c)) < dmax:
                t.stack(e[0], e[1], c)
                break
        else:
            for _ in range(8):
                e = t.edges[rng.randrange(len(t.edges))]
                if t.can_flip(e, dmax):
                    t.flip(e)
    else:
        raise ValueError(f"growth under degree cap {dmax} stalled below n={n}")

    # growth may leave every vertex below the cap; each flip here lifts a
    # vertex of top degree by one, so the loop ends within dmax rounds
    while max(t.deg(v) for v in range(n)) < dmax:
        top = max(t.deg(v) for v in range(n))
        for v in [v for v in range(n) if t.deg(v) == top]:
            e = next(
                (
                    _key(a, b)
                    for a in sorted(t.adj[v])
                    for b in sorted(t.adj[v] & t.adj[a])
                    if t.can_flip(_key(a, b), dmax)
                    and v in t.third[_key(a, b)]
                ),
                None,
            )
            if e is not None:
                t.flip(e)
                break
        else:
            raise ValueError(f"cannot lift any vertex to degree {dmax}")
    g = PlanarGraph(n, tuple(sorted(t.edges)))
    if len(g.edges) != 3 * n - 6 or g.max_degree != dmax:
        raise ValueError("triangulation invariant broken")
    return g


def capped_planar(n: int, dmax: int, seed: int) -> PlanarGraph:
    """Planar graph on exactly n vertices with maximum degree exactly dmax.

    A seeded stacked triangulation sheds edges at every vertex above the
    cap, always toward its fullest neighbor. The result is not triangulated
    and usually has several blocks; it may be disconnected.
    """
    if n < 4 or dmax < 3:
        raise ValueError("need n >= 4 and dmax >= 3")
    rng = random.Random(seed)
    adj = [set(range(4)) - {v} for v in range(4)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        adj.append({a, b, c})
        for w in (a, b, c):
            adj[w].add(v)
        faces.extend([(a, b, v), (a, c, v), (b, c, v)])
    if max(len(a) for a in adj) <= dmax:
        raise ValueError(f"n={n} seed={seed} never exceeds degree {dmax}")
    while True:
        over = [v for v in range(n) if len(adj[v]) > dmax]
        if not over:
            break
        v = max(over, key=lambda x: (len(adj[x]), x))
        u = max(adj[v], key=lambda x: (len(adj[x]), x))
        adj[v].discard(u)
        adj[u].discard(v)
    edges = tuple(sorted((v, u) for v in range(n) for u in adj[v] if v < u))
    g = PlanarGraph(n, edges)
    if g.max_degree != dmax:
        raise ValueError("capping missed the cap")
    return g
