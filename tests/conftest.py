"""Shared instance builders and test oracles.

Everything here is deterministic given its seed so reruns produce identical
graphs (and therefore byte-identical drawings downstream).
"""

from __future__ import annotations

import importlib.util
import math
import random
from pathlib import Path

from fewslopes.families import gen_random_triangulation
from fewslopes.graphs import PlanarGraph

BENCH_INSTANCES = Path(__file__).resolve().parents[1] / "bench" / "instances.py"

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

# the same for seed 2
TWOBEND_BLOCKS_ROUND0_SEED2 = {
    150: 18320269517544729426,
    225: 2624899411849109899,
    300: 12439149989687694684,
    375: 15104162658631139677,
    450: 15037045365048274124,
    525: 3886011834867453894,
    600: 6016899586835337954,
}


def bench_instances():
    """bench/instances.py, loaded by path: the benchmark's generators."""
    spec = importlib.util.spec_from_file_location("bench_instances", BENCH_INSTANCES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def bounded_stack(n: int, seed: int, dmax: int) -> PlanarGraph:
    """Stacked triangulation that never lets a vertex exceed degree dmax.

    Splits a random face whose corners can all absorb one more edge; stops
    early (fewer than n vertices) once no face qualifies. Small caps saturate
    quickly, which is fine: callers get the largest instance the cap allows.
    """
    if n < 4 or dmax < 4:
        raise ValueError("need n >= 4 and dmax >= 4")
    rng = random.Random(seed)
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    tris = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    deg = [3, 3, 3, 3]
    m = 4
    while m < n:
        feas = [t for t in tris if all(deg[w] + 1 <= dmax for w in t)]
        if not feas:
            break
        a, b, c = feas[rng.randrange(len(feas))]
        tris.remove((a, b, c))
        v = m
        m += 1
        deg.append(3)
        for w in (a, b, c):
            deg[w] += 1
            edges.append((w, v))
        tris.extend([(a, b, v), (a, c, v), (b, c, v)])
    return PlanarGraph(m, tuple(edges))


def capped_planar(n: int, seed: int, d: int) -> PlanarGraph:
    """Planar graph with maximum degree exactly d.

    Removes edges at overfull vertices of a random triangulation, always
    shedding toward the fullest neighbor; the result may lose triangulation
    and even connectivity, which downstream pipelines must tolerate.
    """
    g = gen_random_triangulation(n, seed)
    if g.max_degree < d:
        raise ValueError(f"seed {seed} gives max degree {g.max_degree} < {d}")
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    deg = [len(a) for a in adj]
    while True:
        over = [v for v in range(g.n) if deg[v] > d]
        if not over:
            break
        v = max(over, key=lambda x: (deg[x], x))
        cands = [u for u in adj[v] if deg[u] >= 2] or list(adj[v])
        u = max(cands, key=lambda x: (deg[x], x))
        adj[v].discard(u)
        adj[u].discard(v)
        deg[v] -= 1
        deg[u] -= 1
    edges = tuple(
        sorted((v, u) for v in range(g.n) for u in adj[v] if v < u)
    )
    out = PlanarGraph(g.n, edges)
    assert out.max_degree == d, f"capping landed at {out.max_degree}, wanted {d}"
    return out


def caterpillar(k: int, shift: int = 0) -> PlanarGraph:
    """A spine path of k vertices with one leaf at each: 2k vertices, d = 3.
    The i-th spine vertex is (i + shift) mod k, and its leaf is k + i."""
    s = [(i + shift) % k for i in range(k)]
    spine = [tuple(sorted((s[i], s[i + 1]))) for i in range(k - 1)]
    return PlanarGraph(2 * k, tuple(spine + [(s[i], k + i) for i in range(k)]))


def glued_blocks(d: int, seed: int, k: int = 3) -> PlanarGraph:
    """Chain of k bounded-degree blocks sharing cut vertices, max degree <= d."""
    if d < 6:
        raise ValueError("gluing budget needs d >= 6")
    rng = random.Random(seed)
    block_cap = max(4, d - 3)
    parts = [
        bounded_stack(6 + rng.randrange(6), 1000 * seed + i, block_cap)
        for i in range(k)
    ]
    base = parts[0]
    n = base.n
    edges = list(base.edges)
    deg = [base.degree(v) for v in range(n)]
    for part in parts[1:]:
        # attach the block's lightest vertex onto the lightest existing one
        b0 = min(range(part.n), key=lambda v: (part.degree(v), v))
        host = min(
            (v for v in range(n) if deg[v] + part.degree(b0) <= d),
            key=lambda v: (deg[v], v),
        )
        relabel = {}
        for v in range(part.n):
            if v == b0:
                relabel[v] = host
            else:
                relabel[v] = n
                n += 1
                deg.append(0)
        for u, v in part.edges:
            a, b = relabel[u], relabel[v]
            edges.append((a, b))
            deg[a] += 1
            deg[b] += 1
    out = PlanarGraph(n, tuple(edges))
    assert out.max_degree <= d
    return out


def _dist_pt_seg(p, a, b) -> float:
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    px, py = float(p[0]), float(p[1])
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / L2))
    return math.hypot(px - ax - t * vx, py - ay - t * vy)


def _dist_to_polyline(p, poly) -> float:
    return min(_dist_pt_seg(p, poly[i], poly[i + 1]) for i in range(len(poly) - 1))


def hausdorff_within(pa, pb, bound: float) -> bool:
    """Certified test: is the Hausdorff distance between polylines < bound?

    Branch-and-bound on each source segment.  Point-to-segment distance is
    convex along a straight subsegment, so against any single target segment
    the subsegment's worst point is one of its endpoints; taking the best
    target segment gives an upper bound with no dependence on subsegment
    length, and flat regions prune without subdividing.  Returns False as
    soon as a point at distance >= bound is found.
    """
    for src, dst in ((pa, pb), (pb, pa)):
        dseg = [(dst[j], dst[j + 1]) for j in range(len(dst) - 1)]
        for i in range(len(src) - 1):
            stack = [(src[i], src[i + 1])]
            while stack:
                a, b = stack.pop()
                wa = math.inf
                wb = math.inf
                ub = math.inf
                for p, q in dseg:
                    da = _dist_pt_seg(a, p, q)
                    db = _dist_pt_seg(b, p, q)
                    wa = min(wa, da)
                    wb = min(wb, db)
                    ub = min(ub, max(da, db))
                if wa >= bound or wb >= bound:
                    return False
                if ub < bound:
                    continue
                mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
                if math.hypot(b[0] - a[0], b[1] - a[1]) < 2e-12:
                    if _dist_to_polyline(mid, dst) >= bound:
                        return False
                    continue
                stack.append((a, mid))
                stack.append((mid, b))
    return True
