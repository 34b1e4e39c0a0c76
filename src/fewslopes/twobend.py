"""Two-bend drawings on s = ceil(d/2) regular slopes.

Vertices are processed in an st-order and placed on increasing horizontal
levels. Every edge is routed through a "pending column": a vertical channel
opened when the lower endpoint is placed and closed by a sloped fan segment
when the upper endpoint consumes it. Columns live in a master list whose
left-to-right order mirrors the pending order induced by the embedding, so
the final x coordinate of a column is simply its index in the list.

Each edge therefore consists of at most three pieces: a short sloped piece
leaving the lower endpoint, the vertical middle piece, and a sloped fan
piece entering the upper endpoint. The bottom edge v1v2 is the one
exception: it dips below the first level and its middle piece is not
vertical.

Cut vertices are handled by drawing each biconnected block with its
attachment vertex on top, then rotating the block by a multiple of pi/s and
shrinking it until it fits into a free angular sector at the attachment
point of the partly assembled drawing.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .drawing import Drawing, EdgeArc, SlopeSet, Wedge
from .errors import (
    DegreeTooHigh,
    DegreeTooSmall,
    GluingFailed,
    NotBiconnected,
    SlopesTooFew,
    StOrderInfeasible,
    VerticesNotOnOuterFace,
)
from .graphs import (
    BlockCutTree,
    Embedding,
    PlanarGraph,
    block_cut_tree,
    planar_embed,
    st_order,
)
from .verify import check_wedge

_TWO_PI = 2.0 * math.pi


def regular_slopes(d: int, s: int | None = None) -> SlopeSet:
    """Slope set for maximum degree d: ceil(d/2) slopes, override allowed.

    An override below ceil(d/2) cannot host a degree-d vertex (a vertex needs
    one directed slope per incident segment, and there are only 2s of them).
    """
    if d < 1:
        raise ValueError("maximum degree must be at least 1")
    need = (d + 1) // 2
    if s is None:
        s = need
    elif s < need:
        raise SlopesTooFew(f"{s} slopes cannot draw maximum degree {d}; need {need}")
    return SlopeSet(s)


# --- routing pass: the master column list ---------------------------------------


@dataclass(eq=False)
class _Column:
    """One pending vertical channel. x is assigned after routing finishes.

    A column can be reused once: a straight-up outgoing edge of the vertex
    that consumed it stacks a fresh episode on the same x. Columns compare
    by identity, so list.index finds one without comparing fields.
    """

    x: int = -1
    episodes: list["_Episode"] = field(default_factory=list)

    @property
    def live(self) -> "_Episode | None":
        if self.episodes and not self.episodes[-1].consumed:
            return self.episodes[-1]
        return None


@dataclass(eq=False)
class _Episode:
    """A routed edge: opened at u toward target, closed when target is placed."""

    u: int
    target: int
    k_u: int
    column: _Column
    dip: bool = False
    consumed: bool = False
    k_v: int = -1


@dataclass
class _Route:
    """Routing result: columns in final left-to-right order plus per-vertex data."""

    order: tuple[int, ...]
    columns: list[_Column]
    episodes: list[_Episode]
    anchor: dict[int, _Column]  # vertex -> column giving its x position
    fan: dict[int, tuple[int, int]]  # vertex -> (lo, hi) directed in-slope range


def _route(e: Embedding, st_ord, slopes: SlopeSet) -> _Route:
    """Assign every edge a column and directed slopes at both endpoints.

    Raises AssertionError if the pending order ever disagrees with the
    rotation system; for a biconnected embedding with both poles on the
    outer face that cannot happen.
    """
    g = e.graph
    s = slopes.s
    m = 2 * s
    order = st_ord.order
    pos = st_ord.position()
    v1, v2 = order[0], order[1]

    master: list[_Column] = []
    by_target: dict[int, list[_Episode]] = {v: [] for v in range(g.n)}
    episodes: list[_Episode] = []
    anchor: dict[int, _Column] = {}
    fan: dict[int, tuple[int, int]] = {}

    def open_edge(u: int, target: int, k: int, column: _Column, dip: bool = False):
        ep = _Episode(u, target, k % m, column, dip)
        column.episodes.append(ep)
        by_target[target].append(ep)
        episodes.append(ep)
        return ep

    # v1: no incoming edges. The edge to v2 leaves straight down (the dip) and
    # the rest take clockwise-consecutive directed slopes after it. Sorting by
    # (k - s - 1) mod 2s puts the columns in left-to-right order:
    # left outs ascending, the anchor (k=0), right outs ascending, dip last.
    out_ks: list[tuple[int, int]] = [(s, v2)]
    k = s
    for w in e.rotation_arc(v1, v2):
        k += 1
        out_ks.append((k % m, w))
    assert len(out_ks) == g.degree(v1) <= m
    a_col = _Column()
    anchor[v1] = a_col
    placed_anchor = False
    for kk, w in sorted(out_ks, key=lambda t: (t[0] - s - 1) % m):
        if kk == 0:
            open_edge(v1, w, 0, a_col)
            master.append(a_col)
            placed_anchor = True
            continue
        if not placed_anchor and ((kk - s - 1) % m) > s - 1:
            master.append(a_col)
            placed_anchor = True
        col = _Column()
        open_edge(v1, w, kk, col, dip=(w == v2 and kk == s))
        master.append(col)
    if not placed_anchor:
        master.append(a_col)

    # remaining vertices consume their pending columns bottom-up; live is the
    # pending order, the columns of master that hold a live episode, and each
    # vertex splices its own in-columns out of it and its new columns in
    live = [c for c in master if c.live is not None]
    for v in order[1:]:
        ins = by_target[v]
        assert ins, f"vertex {v} has no earlier neighbor"
        for ep in ins:
            assert ep.column.live is ep, "incoming edge buried under a later episode"
        at = {ep: live.index(ep.column) for ep in ins}
        ins.sort(key=at.__getitem__)
        idxs = [at[ep] for ep in ins]
        assert idxs == list(range(idxs[0], idxs[0] + len(idxs))), (
            f"incoming columns of {v} are not consecutive in the pending order"
        )

        r = len(ins)
        assert r <= m - 1, f"in-fan of {v} exceeds capacity {m - 1}"
        med = (r - 1) // 2
        median_col = ins[med].column
        anchor[v] = median_col
        lo, hi = s - (r - 1 - med), s + med
        fan[v] = (lo, hi)
        for j, ep in enumerate(ins):
            ep.k_v = s + med - j
            ep.consumed = True
        assert 1 <= lo <= s <= hi <= m - 1

        # rotation check: clockwise, the in-arc runs right-to-left, so the
        # out-walk starts just after the leftmost incoming column's owner
        leftmost = ins[0].u
        arc = e.rotation_arc(v, leftmost)
        tail = [ep.u for ep in reversed(ins)][:-1]
        assert arc[len(arc) - len(tail):] == tail, (
            f"rotation at {v} disagrees with the pending order"
        )
        outs = arc[: len(arc) - len(tail)]
        assert all(pos[w] > pos[v] for w in outs), f"out-neighbor of {v} already placed"

        if v == order[-1]:
            assert not outs, "last vertex must consume every pending column"
            continue
        assert outs, f"inner vertex {v} has no later neighbor"

        lefts: list[tuple[int, _Column, int]] = []
        rights: list[tuple[int, _Column, int]] = []
        kk = hi
        for w in outs:
            kk = (kk + 1) % m
            assert kk != lo, f"degree of {v} exceeds {m}"
            if kk == 0:
                open_edge(v, w, 0, median_col)
            elif 0 < kk < s:
                rights.append((kk, _Column(), w))
            else:
                assert s < kk < m
                lefts.append((kk, _Column(), w))
        for kk, col, w in lefts + rights:
            open_edge(v, w, kk, col)
        left_cols = [c for _, c, _ in sorted(lefts)]
        right_cols = [c for _, c, _ in sorted(rights)]
        mi = master.index(median_col)
        master[mi : mi + 1] = left_cols + [median_col] + right_cols
        # in the pending order the in-columns give way to the new columns,
        # with the median between them when a straight-up edge reopened it
        reopened = [median_col] if median_col.live is not None else []
        live[idxs[0] : idxs[0] + r] = left_cols + reopened + right_cols

    assert all(c.live is None for c in master), "pending columns left unconsumed"
    for i, c in enumerate(master):
        c.x = i
    return _Route(order, master, episodes, anchor, fan)


# --- geometry pass ---------------------------------------------------------------


def _cot(angle: float) -> float:
    return math.cos(angle) / math.sin(angle)


def _arcs_from_route(
    route: _Route, slopes: SlopeSet, pts: dict[int, tuple[float, float]]
) -> list[EdgeArc]:
    s = slopes.s
    arcs = []
    for ep in route.episodes:
        u, v = ep.u, ep.target
        ux, uy = pts[u]
        vx, vy = pts[v]
        cx = float(ep.column.x)
        if ep.dip:
            # the dip: straight down, one piece of slope index s-1, straight up
            drop = uy - abs(vy - uy) - 1.0
            assert cx > ux
            mid_y = drop - (cx - ux) * _cot(math.pi / s)
            poly = [(ux, uy), (ux, drop), (cx, mid_y), (vx, vy)]
            ks = [0, (s - 1) % s, 0]
            arcs.append(EdgeArc(u, v, tuple(poly), tuple(ks)))
            continue
        poly: list[tuple[float, float]] = [(ux, uy)]
        ks: list[int] = []
        if ep.k_u != 0:
            ang = slopes.angle(ep.k_u)
            assert (cx - ux > 0) == (math.sin(ang) > 0) and cx != ux
            poly.append((cx, uy + (cx - ux) * _cot(ang)))
            ks.append(ep.k_u % s)
        else:
            assert cx == ux
        if ep.k_v != s:
            ang = slopes.angle(ep.k_v)
            assert (cx - vx > 0) == (math.sin(ang) > 0) and cx != vx
            bend = (cx, vy + (cx - vx) * _cot(ang))
            assert bend[1] > poly[-1][1], f"middle piece of ({u},{v}) collapsed"
            poly.append(bend)
            ks.append(0)
            poly.append((vx, vy))
            ks.append(ep.k_v % s)
        else:
            assert cx == vx
            assert vy > poly[-1][1]
            poly.append((vx, vy))
            ks.append(0)
        arcs.append(EdgeArc(u, v, tuple(poly), tuple(ks)))
    return arcs


def _wedge_of(route: _Route, slopes: SlopeSet, apex) -> Wedge:
    t = route.order[-1]
    lo, hi = route.fan[t]
    start = (lo - 0.5) * math.pi / slopes.s
    span = (hi - lo + 1) * math.pi / slopes.s
    return Wedge(apex, start % _TWO_PI, span)


def _ray_hits_segment(apex, angle: float, p, q, tol: float) -> bool:
    """True if the open ray from apex at the given clockwise-from-up angle
    properly crosses the segment pq away from the apex."""
    dx, dy = math.sin(angle), math.cos(angle)
    rx, ry = p[0] - apex[0], p[1] - apex[1]
    sx, sy = q[0] - p[0], q[1] - p[1]
    den = dx * sy - dy * sx
    if abs(den) < 1e-15:
        return False
    t_ray = (rx * sy - ry * sx) / den
    t_seg = (rx * dy - ry * dx) / -den
    return t_ray > tol and tol < t_seg < 1.0 - tol


def _contained(arcs: list[EdgeArc], wedge: Wedge, apex_pt, slopes: SlopeSet) -> bool:
    margin = -math.pi / (32 * slopes.s)  # require points strictly inside
    for arc in arcs:
        for p in arc.poly:
            if p == apex_pt:
                continue
            if not wedge.contains(p, tol=margin):
                return False
        for p, q in arc.segments:
            for ang in (wedge.start, wedge.start + wedge.span):
                if _ray_hits_segment(wedge.apex, ang, p, q, 1e-12):
                    return False
    return True


def _build_positions(route: _Route, slopes: SlopeSet, extra: float):
    # every hat leaving row i stays below y(i) + H[i] and above y(i) - H[i],
    # so gaps of H[i] + H[i+1] + 1 keep each row band disjoint from the next
    s = slopes.s
    pos = {v: i for i, v in enumerate(route.order)}
    hat = [0.0] * len(route.order)
    for ep in route.episodes:
        if ep.dip:
            continue
        cx = float(ep.column.x)
        if ep.k_u != 0:
            rise = abs((cx - route.anchor[ep.u].x) * _cot(slopes.angle(ep.k_u)))
            hat[pos[ep.u]] = max(hat[pos[ep.u]], rise)
        if ep.k_v != s:
            rise = abs((cx - route.anchor[ep.target].x) * _cot(slopes.angle(ep.k_v)))
            hat[pos[ep.target]] = max(hat[pos[ep.target]], rise)
    ys = [0.0]
    for i in range(1, len(route.order)):
        ys.append(ys[-1] + hat[i - 1] + hat[i] + 1.0)
    pts = {}
    for i, v in enumerate(route.order):
        pts[v] = (float(route.anchor[v].x), ys[i])
    t = route.order[-1]
    pts[t] = (pts[t][0], pts[t][1] + extra)
    spacing = max(1.0, ys[-1] - ys[0])
    return pts, spacing


def _draw_routed(e: Embedding, t: int, slopes: SlopeSet) -> Drawing:
    outer = e.outer_face
    j = outer.index(t)
    st_ord = None
    err = None
    for off in range(1, len(outer)):
        v1 = outer[(j + off) % len(outer)]
        if v1 == t:
            continue
        try:
            st_ord = st_order(e, v1, t)
            break
        except (StOrderInfeasible, VerticesNotOnOuterFace) as exc:
            err = exc  # try the next outer vertex as v1
    if st_ord is None:
        raise err  # pragma: no cover - biconnected inputs always admit one
    route = _route(e, st_ord, slopes)

    extra = 0.0
    for _ in range(200):
        pts, spacing = _build_positions(route, slopes, extra)
        arcs = _arcs_from_route(route, slopes, pts)
        wedge = _wedge_of(route, slopes, pts[t])
        if _contained(arcs, wedge, pts[t], slopes):
            break
        extra = spacing if extra == 0.0 else 2.0 * extra
        if extra > 1e30:
            raise GluingFailed(f"drawing cannot be confined to the wedge at {t}")
    else:  # pragma: no cover
        raise GluingFailed(f"wedge confinement at {t} did not converge")

    g = e.graph
    lo, hi = route.fan[t]
    meta = {
        "d": g.max_degree,
        "s": slopes.s,
        "t": t,
        "v1": route.order[0],
        "v2": route.order[1],
        "wedge": {
            "apex": [pts[t][0], pts[t][1]],
            "start": wedge.start,
            "span": wedge.span,
        },
        "wedge_contained": True,
        "fan_slots": [lo, hi],
        "nonvertical_middle_edges": [sorted((route.order[0], route.order[1]))],
    }
    return Drawing("twobend", {v: pts[v] for v in range(g.n)}, arcs, "float", meta)


def _draw_k2(t_first: bool, slopes: SlopeSet) -> Drawing:
    """A bridge block: one vertical segment hanging below vertex 0 or 1."""
    top = 0 if t_first else 1
    bot = 1 - top
    pts = {top: (0.0, 0.0), bot: (0.0, -1.0)}
    arc = EdgeArc(bot, top, ((0.0, -1.0), (0.0, 0.0)), (0,))
    s = slopes.s
    meta = {
        "d": 1,
        "s": s,
        "t": top,
        "wedge": {
            "apex": [0.0, 0.0],
            "start": (s - 0.5) * math.pi / s,
            "span": math.pi / s,
        },
        "wedge_contained": True,
        "fan_slots": [s, s],
        "nonvertical_middle_edges": [],
    }
    return Drawing("twobend", pts, [arc], "float", meta)


def draw_biconnected_twobend(e: Embedding, t: int, slopes: SlopeSet) -> Drawing:
    """Good two-bend drawing of a biconnected embedding, hung below t.

    Every segment direction belongs to the slope set, the directed slopes at
    each vertex form one contiguous arc, middle pieces are vertical except on
    the bottom edge, and the whole drawing lies in the reported wedge at t.
    """
    g = e.graph
    cap = 2 * slopes.s
    if g.n == 2 and len(g.edges) == 1:
        return _draw_k2(t_first=(t == 0), slopes=slopes)
    for v in range(g.n):
        if g.degree(v) > cap:
            raise DegreeTooHigh(
                f"vertex {v} has degree {g.degree(v)} > {cap} directed slopes"
            )
    if g.degree(t) >= cap:
        raise DegreeTooHigh(
            f"top vertex {t} has degree {g.degree(t)}; it needs a free slope "
            f"and only {cap} directed slopes exist"
        )
    if t not in e.outer_face:
        raise VerticesNotOnOuterFace(f"top vertex {t} must lie on the outer face")
    return _draw_routed(e, t, slopes)


# --- block gluing ----------------------------------------------------------------


def _place(dr: Drawing, verts, f=None, turn: int = 0) -> Drawing:
    """dr with vertex i (and meta's t, v1, v2) renamed to verts[i], every
    point mapped through f and every slope index advanced by turn mod s: the
    clockwise rotation f applies, in slots of pi/s. meta's wedge stays put."""
    s = dr.meta["s"]
    f = f or (lambda p: p)
    pts = {verts[v]: f(p) for v, p in dr.points.items()}
    arcs = [
        EdgeArc(
            verts[a.u],
            verts[a.v],
            tuple(f(p) for p in a.poly),
            tuple((k + turn) % s for k in a.slope_indices),
        )
        for a in dr.edges
    ]
    meta = dict(dr.meta)
    for key in ("t", "v1", "v2"):
        if key in meta:
            meta[key] = verts[meta[key]]
    return Drawing(dr.method, pts, arcs, dr.coord_kind, meta)


class _Composite:
    """The drawing glued so far, grown in place by each glue.

    Besides the points and arcs in graph ids it keeps, for each vertex, the
    indices of the arcs that end there, and every segment as a float64 row
    (x0, y0, x1, y1) with the (arc index, segment index) it came from. Each
    vertex point is a row too, a segment of length zero from (-1, vertex).
    """

    def __init__(self, dr: Drawing):
        self.pts: dict[int, tuple[float, float]] = {}
        self.arcs: list[EdgeArc] = []
        self.at: dict[int, list[int]] = defaultdict(list)
        self.first_row: list[int] = []  # arc index -> row of its first segment
        self.point_row: dict[int, int] = {}
        self.src: list[tuple[int, int]] = []
        self.buf = np.empty((256, 4))
        self.add(dr.points, dr.edges)

    @property
    def rows(self) -> np.ndarray:
        return self.buf[: len(self.src)]

    def arcs_at(self, v: int) -> list[EdgeArc]:
        return [self.arcs[i] for i in self.at[v]]

    def add(self, pts, arcs) -> None:
        """Update the points with pts and append arcs, with their rows."""
        rows = []
        for v, p in pts.items():
            if v not in self.pts:
                self.point_row[v] = len(self.src)
                rows.append((*p, *p))
                self.src.append((-1, v))
        self.pts.update(pts)
        for a in arcs:
            i = len(self.arcs)
            self.arcs.append(a)
            self.at[a.u].append(i)
            self.at[a.v].append(i)
            self.first_row.append(len(self.src))
            for j, (p, q) in enumerate(a.segments):
                rows.append((*p, *q))
                self.src.append((i, j))
        if not rows:
            return
        end, start = len(self.src), len(self.src) - len(rows)
        if end > len(self.buf):
            grown = np.empty((max(end, 2 * len(self.buf)), 4))
            grown[:start] = self.buf[:start]
            self.buf = grown
        self.buf[start:end] = rows


def _used_slots_at(pts, arcs, v: int, slopes: SlopeSet) -> set[int]:
    """Directed slots taken at v, read from the stored slope indices: an end
    segment of undirected index k takes slot k, or k + s when it points
    against direction k. Arcs that do not end at v are skipped."""
    used = set()
    p = pts[v]
    for a in arcs:
        if a.u == v:
            q, k = a.poly[1], a.slope_indices[0]
        elif a.v == v:
            q, k = a.poly[-2], a.slope_indices[-1]
        else:
            continue
        ang = slopes.angle(k)
        along = (q[0] - p[0]) * math.sin(ang) + (q[1] - p[1]) * math.cos(ang)
        used.add(k if along > 0 else k + slopes.s)
    return used


def _clearance(comp: _Composite, v: int, wedge: Wedge | None) -> float:
    """Half the distance from v to the nearest foreign feature.

    The first segment of an edge leaving v is radial at v and occupies its
    own angular slot, so only its far end constrains the clearance; every
    other segment, and every vertex point but v's, constrains by true
    point-segment distance.

    Only the features near v are measured. numpy gives every row of comp
    the gap between v and the row's bounding box, a lower bound on the
    row's distance. The scalar code measures v's own rows, the row of least
    gap, and then every row whose gap is within a rounding margin of the
    best distance so far; the rest are farther than that distance, so the
    result is the float a scan of every feature gives.
    """
    p = comp.pts[v]
    best = math.inf
    if wedge is not None and (p[0], p[1]) != tuple(wedge.apex):
        for ang in (wedge.start, wedge.start + wedge.span):
            best = min(best, _dist_point_ray(p, wedge.apex, ang))
    own = [comp.point_row[v]]
    for i in comp.at[v]:
        a = comp.arcs[i]
        r = comp.first_row[i] + (0 if a.u == v else len(a.poly) - 2)
        own.append(r)
        best = min(best, _row_distance(comp, p, v, r))
    rows = comp.rows
    x0, y0, x1, y1 = rows.T
    gx = np.maximum(np.maximum(np.minimum(x0, x1) - p[0], p[0] - np.maximum(x0, x1)), 0.0)
    gy = np.maximum(np.maximum(np.minimum(y0, y1) - p[1], p[1] - np.maximum(y0, y1)), 0.0)
    gap = np.hypot(gx, gy)
    gap[own] = math.inf
    nearest = int(np.argmin(gap))
    if gap[nearest] == math.inf:
        return best / 2.0
    best = min(best, _row_distance(comp, p, v, nearest))
    # Every coordinate, p's included, is at most big in magnitude, so each
    # difference of two of them is off by at most 2u*big (u = 2^-53) and
    # each is at most 2*big. The gap takes two such differences and a hypot,
    # so it exceeds the bounding-box distance by at most about 9u*big. The
    # scalar distance is off by at most a few such differences: its
    # projection lands on a point of the segment, and its residual and
    # hypot add about 17u*big. A margin of 2^12 ulps of big, at least
    # 2^-41*big, covers the sum 2^7 times over, and floors at the smallest
    # subnormal when coordinates underflow; so a row whose gap exceeds
    # best + margin measures more than best in floats too.
    big = float(np.abs(rows).max())
    margin = 4096.0 * math.ulp(big)
    for r in np.flatnonzero(gap <= best + margin).tolist():
        best = min(best, _row_distance(comp, p, v, r))
    return best / 2.0


def _row_distance(comp: _Composite, p, v: int, r: int) -> float:
    """The distance from p, the point of v, to the feature of row r, in the
    scalar arithmetic of a scan of every feature."""
    i, j = comp.src[r]
    if i < 0:
        q = comp.pts[j]
        return math.hypot(q[0] - p[0], q[1] - p[1])
    a = comp.arcs[i]
    q0, q1 = a.poly[j], a.poly[j + 1]
    if a.u == v and j == 0:
        far = q1
    elif a.v == v and j == len(a.poly) - 2:
        far = q0
    else:
        return _dist_point_segment(p, q0, q1)
    return math.hypot(far[0] - p[0], far[1] - p[1])


def _dist_point_segment(p, a, b) -> float:
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - ax - t * dx, p[1] - ay - t * dy)


def _dist_point_ray(p, apex, angle: float) -> float:
    dx, dy = math.sin(angle), math.cos(angle)
    rx, ry = p[0] - apex[0], p[1] - apex[1]
    t = max(0.0, rx * dx + ry * dy)
    return math.hypot(rx - t * dx, ry - t * dy)


def _component_blocks(bct: BlockCutTree, comp: set[int]):
    """The blocks inside the component comp, each as its graph on local ids,
    its sorted graph ids and the map from graph id to local id."""
    out = []
    for i, block in enumerate(bct.blocks):
        if block[0][0] not in comp:
            continue
        verts = bct.block_vertices(i)
        to_local = {v: j for j, v in enumerate(verts)}
        edges = tuple((to_local[u], to_local[v]) for u, v in block)
        out.append((PlanarGraph(len(verts), edges), verts, to_local))
    return out


def _embed_with_outer(bg: PlanarGraph, want: int) -> Embedding:
    e0 = planar_embed(bg)
    if want in e0.outer_face:
        return e0
    for f in sorted(e0.faces, key=lambda f: (-len(f), f)):
        if want in f:
            return Embedding(bg, e0.rotation, f)
    raise AssertionError("vertex missing from every face")  # pragma: no cover


def _draw_component(vs: tuple[int, ...], bct: BlockCutTree, slopes: SlopeSet) -> Drawing:
    """Drawing, in graph ids, of the component on vertices vs."""
    if len(vs) == 1:
        return Drawing("twobend", {vs[0]: (0.0, 0.0)}, [], "float", {"s": slopes.s})
    cap = 2 * slopes.s
    comp = set(vs)
    blocks = _component_blocks(bct, comp)
    cuts = comp.intersection(bct.cut_vertices)

    # root at a non-cut top of any block if one draws: blocks glued at a cut
    # top would leave the top's wedge, which then is dropped from meta
    tops = sorted(
        (verts[t] in cuts, bi, bg.degree(t), t)
        for bi, (bg, verts, _) in enumerate(blocks)
        for t in range(bg.n)
        if bg.degree(t) < cap
    )
    root = None
    last_err = None
    for cut_top, root_bi, _, t in tops:
        bg, verts, _ = blocks[root_bi]
        try:
            rdr = draw_biconnected_twobend(_embed_with_outer(bg, t), t, slopes)
        except (VerticesNotOnOuterFace, NotBiconnected, StOrderInfeasible) as exc:
            last_err = exc
            continue
        root = _place(rdr, verts)
        break
    if root is None:
        raise last_err or DegreeTooHigh("no block vertex admits a free slope on top")
    if len(blocks) == 1:
        return root

    comp = _Composite(root)
    meta = root.meta
    rw = meta.pop("wedge") if cut_top else meta["wedge"]
    root_wedge = Wedge(tuple(rw["apex"]), rw["start"], rw["span"])
    drawn_blocks = {root_bi}
    drawn_vertices = set(root.points)
    cursor: dict[int, int] = {}

    progressed = True
    while len(drawn_blocks) < len(blocks):
        assert progressed, "block-cut tree traversal stalled"
        progressed = False
        for bi, (bg, bverts, to_local) in enumerate(blocks):
            if bi in drawn_blocks:
                continue
            attach = [v for v in bverts if v in drawn_vertices]
            if not attach:
                continue
            assert len(attach) == 1 and attach[0] in cuts
            c = attach[0]
            child = draw_biconnected_twobend(
                _embed_with_outer(bg, to_local[c]), to_local[c], slopes
            )
            _glue(comp, c, child, bverts, slopes, cursor, root_wedge)
            drawn_blocks.add(bi)
            drawn_vertices.update(bverts)
            progressed = True

    meta["blocks"] = len(blocks)
    meta["cut_vertices"] = sorted(cuts)
    meta["nonvertical_middle_edges"] = _nonvertical_middle_edges(comp.arcs)
    dr = Drawing("twobend", comp.pts, comp.arcs, "float", meta)
    dr.meta["wedge_contained"] = check_wedge(dr) is True
    return dr


def _nonvertical_middle_edges(arcs) -> list[tuple[int, int]]:
    return sorted(
        {tuple(sorted((a.u, a.v))) for a in arcs
         if len(a.poly) == 4 and abs(a.poly[2][0] - a.poly[1][0]) > 1e-12}
    )


def _glue(comp: _Composite, c: int, child: Drawing, verts, slopes: SlopeSet, cursor, wedge):
    """Rotate, shrink and attach a child block drawing, whose local vertex i
    is verts[i], at cut vertex c of comp.

    The slots taken at c are read from the arcs at c and the shrink from
    the clearance at c, which measures only the features near c; comp then
    gains the child's points, arcs and rows in place.
    """
    s = slopes.s
    m = 2 * s
    used = _used_slots_at(comp.pts, comp.arcs_at(c), c, slopes)
    lo, hi = child.meta["fan_slots"]
    need = hi - lo + 1
    if len(used) + need > m:
        raise GluingFailed(
            f"cut vertex {c}: {need} slots needed, {m - len(used)} free"
        )
    start = cursor.get(c)
    if start is None:
        start = max(used) + 1 if used else 0
    q = None
    for off in range(m):
        cand = [(start + off + i) % m for i in range(need)]
        if not any(k in used for k in cand):
            q = cand[0]
            break
    if q is None:
        raise GluingFailed(f"no contiguous free slot run of size {need} at {c}")
    cursor[c] = (q + need) % m

    w = child.meta["wedge"]
    apex = tuple(w["apex"])
    rot_slots = (q - lo) % m
    phi = rot_slots * math.pi / s
    cs, sn = math.cos(phi), math.sin(phi)

    rho = _clearance(comp, c, wedge)
    if not math.isfinite(rho) or rho <= 0:
        rho = 1.0
    radius = max(
        (math.hypot(p[0] - apex[0], p[1] - apex[1]) for a in child.edges for p in a.poly),
        default=1.0,
    )
    # the least k >= 0 with radius * 2^-k <= rho, read off the binary exponents
    (mr, er), (mp, ep) = math.frexp(radius), math.frexp(rho)
    halvings = max(0, er - ep + (mr > mp))
    scale = math.ldexp(1.0, -halvings)
    dest = comp.pts[c]

    def move(p):
        x, y = p[0] - apex[0], p[1] - apex[1]
        return (dest[0] + scale * (x * cs + y * sn), dest[1] + scale * (-x * sn + y * cs))

    try:
        placed = _place(child, verts, move, rot_slots)
    except ValueError as exc:  # a shrunk piece rounds to a point at dest
        raise GluingFailed(
            f"child block at {c}, halved {halvings} times, is below float "
            f"resolution at {dest}"
        ) from exc
    comp.add({**placed.points, c: dest}, placed.edges)  # exact apex at c


# --- entry points ----------------------------------------------------------------


def draw_twobend(g: PlanarGraph, slopes: SlopeSet | None = None) -> Drawing:
    """Two-bend drawing of a planar graph on regular slopes.

    Connected components are drawn independently and laid out side by side;
    within a component, biconnected blocks are glued at cut vertices. The
    first block hangs below a vertex that is not a cut vertex when one
    admits a drawing; when only a cut vertex does, meta declares no wedge,
    since the blocks glued at that top leave it.
    """
    d = g.max_degree
    if d <= 2:
        raise DegreeTooSmall(
            f"maximum degree {d}: paths and cycles are outside this construction "
            "(see draw_low_degree)"
        )
    if slopes is not None:
        slopes = regular_slopes(d, slopes.s)
    else:
        # a 2s-regular component leaves no top vertex with a spare slot at the
        # minimum slope count; one extra slope always clears it
        slopes = regular_slopes(d)
        if any(all(g.degree(v) >= 2 * slopes.s for v in vs) for vs in g.components):
            slopes = SlopeSet(slopes.s + 1)

    bct = block_cut_tree(g)
    drawings = [_draw_component(vs, bct, slopes) for vs in g.components]

    if len(drawings) == 1:
        final = drawings[0]
        final.meta.setdefault("components", 1)
        final.meta["d"] = d
        return final

    pts: dict[int, tuple[float, float]] = {}
    arcs: list[EdgeArc] = []
    x_off = 0.0
    for dr in drawings:
        xs = [p[0] for p in dr.points.values()] + [
            p[0] for a in dr.edges for p in a.poly
        ]
        lo_x, hi_x = min(xs), max(xs)
        shift = x_off - lo_x
        placed = _place(dr, range(g.n), lambda p: (p[0] + shift, p[1]))
        pts.update(placed.points)
        arcs += placed.edges
        x_off += (hi_x - lo_x) + max(1.0, 0.05 * (hi_x - lo_x))
    meta = {
        "d": d,
        "s": slopes.s,
        "components": len(drawings),
        "wedge_contained": False,
        "nonvertical_middle_edges": _nonvertical_middle_edges(arcs),
    }
    return Drawing("twobend", pts, arcs, "float", meta)


def draw_low_degree(g: PlanarGraph) -> Drawing:
    """Straight-line fallback for maximum degree <= 2 (paths and cycles).

    Paths use one slope. Even cycles close with two slopes; odd cycles
    cannot (a closed odd walk on two directions has no solution), so they
    use three. Not covered by the two-bend guarantee; meta says so.
    """
    if g.max_degree > 2:
        raise ValueError("draw_low_degree only accepts maximum degree <= 2")
    pts: dict[int, tuple[float, float]] = {}
    arcs: list[EdgeArc] = []
    slopes_used = 0
    x_off = 0.0
    u_dir = (math.sqrt(0.5), math.sqrt(0.5))
    for vs in g.components:
        sub = [e for e in g.edges if e[0] in vs]
        deg = {v: 0 for v in vs}
        for a, b in sub:
            deg[a] += 1
            deg[b] += 1
        if not sub:
            pts[vs[0]] = (x_off, 0.0)
            x_off += 2.0
            continue
        is_cycle = all(dv == 2 for dv in deg.values())
        seq = _walk_order(vs, sub, is_cycle)
        if not is_cycle:
            for i, v in enumerate(seq):
                pts[v] = (x_off, -float(i))
            slopes_used = max(slopes_used, 1)
        else:
            m = len(seq)
            if m % 2 == 0:
                # parallelogram: one up-right edge, then down-right steps,
                # then the mirrored return
                half = m // 2
                cur = (x_off, 0.0)
                for i, v in enumerate(seq):
                    pts[v] = cur
                    if i < 1:
                        step = u_dir
                    elif i < half:
                        step = (u_dir[0], -u_dir[1])
                    elif i < half + 1:
                        step = (-u_dir[0], -u_dir[1])
                    else:
                        step = (-u_dir[0], u_dir[1])
                    cur = (cur[0] + step[0], cur[1] + step[1])
                slopes_used = max(slopes_used, 2)
            else:
                # odd cycle: isoceles roof closed by a horizontal base edge
                a = (m - 1) // 2
                b = m - 1 - a
                cur = (x_off, 0.0)
                for i, v in enumerate(seq):
                    pts[v] = cur
                    if i < a:
                        step = (u_dir[0] / a, u_dir[1] / a)
                    elif i < m - 1:
                        step = (u_dir[0] / b, -u_dir[1] / b)
                    else:
                        step = (0.0, 0.0)
                    cur = (cur[0] + step[0], cur[1] + step[1])
                slopes_used = max(slopes_used, 3)
        for aa, bb in sub:
            arcs.append(EdgeArc(aa, bb, (pts[aa], pts[bb])))
        x_off = max(pts[v][0] for v in vs) + 2.0
    return Drawing(
        "lowdegree",
        pts,
        arcs,
        "float",
        {"d": g.max_degree, "slopes_used": slopes_used, "on_slope_grid": False},
    )


def _walk_order(vs, edges, is_cycle: bool) -> list[int]:
    adj: dict[int, list[int]] = {v: [] for v in vs}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    if is_cycle:
        start = min(vs)
    else:
        ends = [v for v in vs if len(adj[v]) <= 1]
        start = min(ends)
    seq = [start]
    prev = None
    while len(seq) < len(vs):
        nxt = [w for w in adj[seq[-1]] if w != prev]
        prev = seq[-1]
        seq.append(nxt[0])
    return seq
