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
shrinking it until it fits into the free sector just clockwise of the slots
taken at the attachment point of the partly assembled drawing, which form
one arc because every block drawing is good.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .drawing import Drawing, EdgeArc, SlopeSet, Wedge
from .errors import (
    DegreeTooHigh,
    DegreeTooSmall,
    GluingFailed,
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
    """One vertical channel. x is assigned after routing finishes.

    pending is the episode the column holds open, or None. A column can be
    reused once: a straight-up outgoing edge of the vertex that consumed it
    opens a fresh episode on the same x. prev and next link the master
    order, pending_prev and pending_next the pending order. Columns compare
    and hash by identity.
    """

    x: int = -1
    pending: "_Episode | None" = None
    prev: "_Column | None" = None
    next: "_Column | None" = None
    pending_prev: "_Column | None" = None
    pending_next: "_Column | None" = None


def _walk(col: _Column | None, link: str):
    """col and the columns after it along the link named link."""
    while col is not None:
        yield col
        col = getattr(col, link)


def _chain(cols: list[_Column], prev: str, next_: str) -> None:
    """Link cols in list order along the links named prev and next_. The
    first and last may be ends already in a list, or None."""
    for a, b in zip(cols, cols[1:]):
        if a is not None:
            setattr(a, next_, b)
        if b is not None:
            setattr(b, prev, a)


def _pending_run(members: set[_Column]) -> list[_Column]:
    """The longest run of members, in pending order, that holds a given one
    of them: it holds every member iff they are consecutive there."""
    for first in _walk(next(iter(members)), "pending_prev"):
        if first.pending_prev not in members:
            break
    run = []
    for col in _walk(first, "pending_next"):
        if col not in members or len(run) == len(members):
            break
        run.append(col)
    return run


@dataclass(eq=False)
class _Episode:
    """A routed edge: opened at u toward target, closed when target is placed."""

    u: int
    target: int
    k_u: int
    column: _Column
    dip: bool = False
    k_v: int = -1


@dataclass
class _Route:
    """Routing result: the episodes, with their columns' final x, and the
    column of each vertex."""

    order: tuple[int, ...]
    episodes: list[_Episode]
    anchor: dict[int, _Column]  # vertex -> column giving its x position
    top_fan: tuple[int, int]  # (lo, hi) directed in-slope range of order[-1]


def _route(e: Embedding, order: tuple[int, ...], slopes: SlopeSet) -> _Route:
    """Assign every edge a column and directed slopes at both endpoints.

    Raises AssertionError if the pending order ever disagrees with the
    rotation system; for a biconnected embedding with both poles on the
    outer face that cannot happen.
    """
    g = e.graph
    s = slopes.s
    m = 2 * s
    pos = {v: i for i, v in enumerate(order)}
    v1, v2 = order[0], order[1]

    head = _Column()  # the master order starts at head.next
    master: list[_Column] = [head]  # head, then v1's columns left to right
    by_target: dict[int, list[_Episode]] = {v: [] for v in range(g.n)}
    episodes: list[_Episode] = []
    anchor: dict[int, _Column] = {}

    def open_edge(u: int, target: int, k: int, column: _Column, dip: bool = False):
        ep = _Episode(u, target, k % m, column, dip)
        column.pending = ep
        by_target[target].append(ep)
        episodes.append(ep)

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

    # remaining vertices consume their pending columns bottom-up; the pending
    # order links the columns of the master order that hold an open episode,
    # and each vertex splices its own in-columns out of it and its new
    # columns in
    _chain(master, "prev", "next")
    live = [c for c in master if c.pending is not None]
    _chain([_Column(), *live], "pending_prev", "pending_next")
    for v in order[1:]:
        ins = by_target[v]
        assert ins, f"vertex {v} has no earlier neighbor"
        for ep in ins:
            assert ep.column.pending is ep, "incoming edge buried under a later episode"
        run = _pending_run({ep.column for ep in ins})
        assert len(run) == len(ins), (
            f"incoming columns of {v} are not consecutive in the pending order"
        )
        ins = [c.pending for c in run]

        r = len(ins)
        assert r <= m - 1, f"in-fan of {v} exceeds capacity {m - 1}"
        med = (r - 1) // 2
        median_col = ins[med].column
        anchor[v] = median_col
        lo, hi = s - (r - 1 - med), s + med
        for j, ep in enumerate(ins):
            ep.k_v = s + med - j
            ep.column.pending = None
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
            top_fan = (lo, hi)
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
        _chain(
            [median_col.prev, *left_cols, median_col, *right_cols, median_col.next], "prev", "next"
        )
        # in the pending order the in-columns give way to the new columns,
        # with the median between them when a straight-up edge reopened it
        reopened = [median_col] if median_col.pending is not None else []
        _chain(
            [run[0].pending_prev, *left_cols, *reopened, *right_cols, run[-1].pending_next],
            "pending_prev",
            "pending_next",
        )

    for i, c in enumerate(_walk(head.next, "next")):
        assert c.pending is None, "pending columns left unconsumed"
        c.x = i
    return _Route(order, episodes, anchor, top_fan)


# --- geometry pass ---------------------------------------------------------------


def _cot(angle: float) -> float:
    return math.cos(angle) / math.sin(angle)


def _polylines(route: _Route, slopes: SlopeSet, pts: dict[int, tuple[float, float]]):
    """(u, v, poly, slope indices) of every routed edge, for the points pts."""
    s = slopes.s
    lines = []
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
            poly = ((ux, uy), (ux, drop), (cx, mid_y), (vx, vy))
            lines.append((u, v, poly, (0, (s - 1) % s, 0)))
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
        lines.append((u, v, tuple(poly), tuple(ks)))
    return lines


def _wedge_of(route: _Route, slopes: SlopeSet, apex) -> Wedge:
    lo, hi = route.top_fan
    start = (lo - 0.5) * math.pi / slopes.s
    span = (hi - lo + 1) * math.pi / slopes.s
    return Wedge(apex, start % _TWO_PI, span)


def _ray_hits(apex, angle: float, p: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
    """For each segment from a row of p to the same row of q (float64
    arrays of shape (k, 2)), whether the open ray from apex at the given
    clockwise-from-up angle properly crosses it away from the apex."""
    dx, dy = math.sin(angle), math.cos(angle)
    with np.errstate(all="ignore"):  # as in Python floats; den == 0 is masked
        rx, ry = p[:, 0] - apex[0], p[:, 1] - apex[1]
        sx, sy = q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]
        den = dx * sy - dy * sx
        t_ray = (rx * sy - ry * sx) / den
        t_seg = (rx * dy - ry * dx) / -den
    return (np.abs(den) >= 1e-15) & (t_ray > tol) & (tol < t_seg) & (t_seg < 1.0 - tol)


def _contained(polys, wedge: Wedge, apex_pt, slopes: SlopeSet) -> bool:
    """Whether every point of polys but apex_pt lies strictly inside wedge,
    at least pi/(32s) radians from either boundary ray, and no segment
    crosses a boundary ray."""
    margin = math.pi / (32 * slopes.s)
    for poly in polys:
        for p in poly:
            if p == apex_pt:
                continue
            qx = float(p[0]) - wedge.apex[0]
            qy = float(p[1]) - wedge.apex[1]
            if math.hypot(qx, qy) == 0.0:
                return False
            delta = (math.atan2(qx, qy) % _TWO_PI - wedge.start) % _TWO_PI
            if not margin <= delta <= wedge.span - margin:
                return False
    p = np.array([a for poly in polys for a in poly[:-1]], dtype=float).reshape(-1, 2)
    q = np.array([b for poly in polys for b in poly[1:]], dtype=float).reshape(-1, 2)
    return not any(
        _ray_hits(wedge.apex, ang, p, q, 1e-12).any()
        for ang in (wedge.start, wedge.start + wedge.span)
    )


def _build_positions(route: _Route, slopes: SlopeSet):
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
    pts = {v: (float(route.anchor[v].x), ys[i]) for i, v in enumerate(route.order)}
    spacing = max(1.0, ys[-1] - ys[0])
    return pts, spacing


def _draw_routed(e: Embedding, t: int, slopes: SlopeSet) -> Drawing:
    outer = e.outer_face
    j = outer.index(t)
    for off in range(1, len(outer)):
        try:
            order = st_order(e, outer[(j + off) % len(outer)], t)
            break
        except StOrderInfeasible as exc:
            err = exc  # try the next outer vertex as v1
    else:
        raise err  # biconnected blocks reach this: st_order finds no v2 from any v1
    route = _route(e, order, slopes)

    # only t moves: up by spacing, then by doubling steps, until the
    # drawing fits into the wedge at t
    pts, spacing = _build_positions(route, slopes)
    tx, ty = pts[t]
    extra = 0.0
    while True:
        lines = _polylines(route, slopes, pts)
        wedge = _wedge_of(route, slopes, pts[t])
        if _contained([poly for _, _, poly, _ in lines], wedge, pts[t], slopes):
            break
        extra = spacing if extra == 0.0 else 2.0 * extra
        if extra > 1e30:
            raise GluingFailed(f"drawing cannot be confined to the wedge at {t}")
        pts[t] = (tx, ty + extra)

    lo, hi = route.top_fan
    meta = {
        "s": slopes.s,
        "t": t,
        "v1": route.order[0],
        "v2": route.order[1],
        "wedge": {
            "apex": [pts[t][0], pts[t][1]],
            "start": wedge.start,
            "span": wedge.span,
        },
        "fan_slots": [lo, hi],
    }
    arcs = [EdgeArc(*line) for line in lines]
    return Drawing("twobend", {v: pts[v] for v in range(e.graph.n)}, arcs, "float", meta)


def _draw_k2(t_first: bool, slopes: SlopeSet) -> Drawing:
    """A bridge block: one vertical segment hanging below vertex 0 or 1."""
    top = 0 if t_first else 1
    bot = 1 - top
    pts = {top: (0.0, 0.0), bot: (0.0, -1.0)}
    arc = EdgeArc(bot, top, ((0.0, -1.0), (0.0, 0.0)), (0,))
    s = slopes.s
    meta = {
        "s": s,
        "t": top,
        "wedge": {
            "apex": [0.0, 0.0],
            "start": (s - 0.5) * math.pi / s,
            "span": math.pi / s,
        },
        "fan_slots": [s, s],
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


class _Composite:
    """A drawing assembled in graph ids, grown in place block by block.

    Besides the points and edges, named as a Drawing's so that one composite
    can be added to another, it keeps for each vertex the indices of the
    edges that end there, and every segment as a float64 row
    (x0, y0, x1, y1) with the (edge index, segment index) it came from. Each
    vertex point is a row too, a segment of length zero from (-1, vertex).
    """

    def __init__(self, s: int):
        self.s = s
        self.points: dict[int, tuple[float, float]] = {}
        self.edges: list[EdgeArc] = []
        self.at: dict[int, list[int]] = defaultdict(list)
        self.first_row: list[int] = []  # edge index -> row of its first segment
        self.point_row: dict[int, int] = {}
        self.src: list[tuple[int, int]] = []
        self.buf = np.empty((256, 4))

    @property
    def rows(self) -> np.ndarray:
        return self.buf[: len(self.src)]

    def arcs_at(self, v: int) -> list[EdgeArc]:
        return [self.edges[i] for i in self.at[v]]

    def add(self, dr, verts, f=None, turn: int = 0) -> None:
        """Add the points and edges of dr, with vertex i renamed to verts[i],
        every point mapped through f and every slope index advanced by turn
        mod s: the clockwise rotation f applies, in slots of pi/s. A vertex
        already drawn keeps its point. EdgeArc raises ValueError, before
        anything is added, when f maps the two ends of a piece to one point."""
        f = f or (lambda p: p)
        arcs = [
            EdgeArc(
                verts[a.u],
                verts[a.v],
                tuple(f(p) for p in a.poly),
                tuple((k + turn) % self.s for k in a.slope_indices),
            )
            for a in dr.edges
        ]
        rows = []
        for v, p in dr.points.items():
            v = verts[v]
            if v not in self.points:
                p = self.points[v] = f(p)
                self.point_row[v] = len(self.src)
                rows.append((*p, *p))
                self.src.append((-1, v))
        for a in arcs:
            i = len(self.edges)
            self.edges.append(a)
            self.at[a.u].append(i)
            self.at[a.v].append(i)
            self.first_row.append(len(self.src))
            for j, (p, q) in enumerate(a.segments):
                rows.append((*p, *q))
                self.src.append((i, j))
        end, start = len(self.src), len(self.src) - len(rows)
        if end > len(self.buf):
            grown = np.empty((max(end, 2 * len(self.buf)), 4))
            grown[:start] = self.buf[:start]
            self.buf = grown
        self.buf[start:end] = rows


# an isolated vertex, added as a block of one point
_ISOLATED = SimpleNamespace(points={0: (0.0, 0.0)}, edges=())


def _used_slots_at(pts, arcs, v: int, slopes: SlopeSet) -> set[int]:
    """Directed slots taken at v, read from the stored slope indices: an end
    segment of undirected index k takes slot k, or k + s when it points
    against direction k. Every arc in arcs ends at v."""
    used = set()
    p = pts[v]
    for a in arcs:
        if a.u == v:
            q, k = a.poly[1], a.slope_indices[0]
        else:
            q, k = a.poly[-2], a.slope_indices[-1]
        ang = slopes.angle(k)
        along = (q[0] - p[0]) * math.sin(ang) + (q[1] - p[1]) * math.cos(ang)
        used.add(k if along > 0 else k + slopes.s)
    return used


def _clearance(comp: _Composite, v: int, wedge: Wedge) -> float:
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
    p = comp.points[v]
    best = math.inf
    if (p[0], p[1]) != tuple(wedge.apex):
        for ang in (wedge.start, wedge.start + wedge.span):
            best = min(best, _dist_point_ray(p, wedge.apex, ang))
    own = [comp.point_row[v]]
    for i in comp.at[v]:
        a = comp.edges[i]
        r = comp.first_row[i] + (0 if a.u == v else len(a.poly) - 2)
        own.append(r)
        best = min(best, _row_distance(comp, p, v, r))
    rows = comp.rows
    x0, y0, x1, y1 = rows.T
    gx = np.maximum(np.maximum(np.minimum(x0, x1) - p[0], p[0] - np.maximum(x0, x1)), 0.0)
    gy = np.maximum(np.maximum(np.minimum(y0, y1) - p[1], p[1] - np.maximum(y0, y1)), 0.0)
    gap = np.hypot(gx, gy)
    gap[own] = math.inf  # comp holds a vertex point besides v's, so one gap is finite
    nearest = int(np.argmin(gap))
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
        q = comp.points[j]
        return math.hypot(q[0] - p[0], q[1] - p[1])
    a = comp.edges[i]
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


def _component_blocks(g: PlanarGraph, bct: BlockCutTree):
    """For each component of g, in order, the blocks inside it, each as its
    graph on local ids, its sorted graph ids and the map from graph id to
    local id; one pass over the blocks."""
    comp_of = {v: i for i, vs in enumerate(g.components) for v in vs}
    out = [[] for _ in g.components]
    for block, verts in zip(bct.blocks, bct.vertices):
        to_local = {v: j for j, v in enumerate(verts)}
        edges = tuple((to_local[u], to_local[v]) for u, v in block)
        out[comp_of[verts[0]]].append((PlanarGraph(len(verts), edges), verts, to_local))
    return out


def _embed_with_outer(bg: PlanarGraph, want: int) -> Embedding:
    """planar_embed's embedding of bg, or, when want is not on its outer
    face, the same rotation with the largest face at want outside."""
    e0 = planar_embed(bg)
    if want in e0.outer_face:
        return e0
    for f in sorted(e0.faces, key=lambda f: (-len(f), f)):
        if want in f:
            e = Embedding(bg, e0.rotation, f)
            e.__dict__["faces"] = e0.faces  # the cached property: same rotation, same faces
            return e
    raise AssertionError("vertex missing from every face")  # pragma: no cover


def _draw_component(
    vs: tuple[int, ...], blocks, cut_vertices: set[int], slopes: SlopeSet
) -> tuple[_Composite, dict]:
    """The component on vertices vs with the given blocks, assembled in
    graph ids, and its meta: the root block's, in graph ids, with blocks and
    cut_vertices when the component has more than one block."""
    comp = _Composite(slopes.s)
    if len(vs) == 1:
        comp.add(_ISOLATED, vs)
        return comp, {}
    cap = 2 * slopes.s
    cuts = cut_vertices.intersection(vs)

    # root at a non-cut top of any block if one draws: blocks glued at a cut
    # top would leave the top's wedge, which then is dropped from meta
    tops = sorted(
        (verts[t] in cuts, bi, bg.degree(t), t)
        for bi, (bg, verts, _) in enumerate(blocks)
        for t in range(bg.n)
        if bg.degree(t) < cap
    )
    last_err = None
    for cut_top, root_bi, _, t in tops:
        bg, verts, _ = blocks[root_bi]
        try:
            rdr = draw_biconnected_twobend(_embed_with_outer(bg, t), t, slopes)
        except StOrderInfeasible as exc:
            last_err = exc
            continue
        break
    else:
        raise last_err or DegreeTooHigh("no block vertex admits a free slope on top")
    comp.add(rdr, verts)
    meta = {k: verts[x] if k in ("t", "v1", "v2") else x for k, x in rdr.meta.items()}
    rw = meta.pop("wedge") if cut_top else meta["wedge"]
    root_wedge = Wedge(tuple(rw["apex"]), rw["start"], rw["span"])
    drawn_blocks = {root_bi}
    drawn_vertices = set(verts)

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
            _glue(comp, c, child, bverts, slopes, root_wedge)
            drawn_blocks.add(bi)
            drawn_vertices.update(bverts)
            progressed = True

    if len(blocks) > 1:
        meta["blocks"] = len(blocks)
        meta["cut_vertices"] = sorted(cuts)
    return comp, meta


def _nonvertical_middle_edges(arcs) -> list[tuple[int, int]]:
    return sorted(
        {tuple(sorted((a.u, a.v))) for a in arcs
         if len(a.poly) == 4 and abs(a.poly[2][0] - a.poly[1][0]) > 1e-12}
    )


def _glue(comp: _Composite, c: int, child: Drawing, verts, slopes: SlopeSet, wedge: Wedge):
    """Rotate, shrink and attach a child block drawing, whose local vertex i
    is verts[i], at cut vertex c of comp.

    The slots taken at c, read from the arcs at c, form one arc (each block
    gives c contiguous slots and each child extends the arc), and the child
    takes the free slots after its clockwise end. The shrink comes from the
    clearance at c, which measures only the features near c; comp then
    gains the child's points, arcs and rows in place, c keeping its point.
    """
    s = slopes.s
    m = 2 * s
    used = _used_slots_at(comp.points, comp.arcs_at(c), c, slopes)
    ends = [k for k in used if (k + 1) % m not in used]
    if len(ends) != 1:
        raise GluingFailed(f"slots taken at cut vertex {c} are not one arc: {sorted(used)}")
    q = (ends[0] + 1) % m
    lo = child.meta["fan_slots"][0]

    w = child.meta["wedge"]
    apex = tuple(w["apex"])
    rot_slots = (q - lo) % m
    phi = rot_slots * math.pi / s
    cs, sn = math.cos(phi), math.sin(phi)

    rho = _clearance(comp, c, wedge)
    radius = max(
        math.hypot(p[0] - apex[0], p[1] - apex[1]) for a in child.edges for p in a.poly
    )
    # the least k >= 0 with radius * 2^-k <= rho, read off the binary exponents
    (mr, er), (mp, ep) = math.frexp(radius), math.frexp(rho)
    halvings = max(0, er - ep + (mr > mp))
    scale = math.ldexp(1.0, -halvings)
    dest = comp.points[c]

    def move(p):
        x, y = p[0] - apex[0], p[1] - apex[1]
        return (dest[0] + scale * (x * cs + y * sn), dest[1] + scale * (-x * sn + y * cs))

    try:
        comp.add(child, verts, move, rot_slots)
    except ValueError as exc:  # a shrunk piece rounds to a point at dest
        raise GluingFailed(
            f"child block at {c}, halved {halvings} times, is below float "
            f"resolution at {dest}"
        ) from exc


# --- entry points ----------------------------------------------------------------


def draw_twobend(g: PlanarGraph, slopes: SlopeSet | None = None) -> Drawing:
    """Two-bend drawing of a planar graph on regular slopes.

    Connected components are drawn independently and laid out side by side;
    within a component, biconnected blocks are glued at cut vertices. The
    first block hangs below a vertex that is not a cut vertex when one
    admits a drawing; when only a cut vertex does, meta declares no wedge,
    since the blocks glued at that top leave it. Without slopes it draws on
    ceil(d/2) slopes, and on one more when a component is biconnected and
    2s-regular; given slopes are never raised.
    """
    d = g.max_degree
    if d <= 2:
        raise DegreeTooSmall(
            f"maximum degree {d}: paths and cycles are outside this construction "
            "(see draw_low_degree)"
        )
    given = slopes is not None
    slopes = regular_slopes(d, slopes.s if given else None)
    bct = block_cut_tree(g)
    blocks = _component_blocks(g, bct)
    # A top needs block degree below 2s. Only a biconnected 2s-regular
    # component has none (a cut vertex's block degree is below its degree),
    # and one extra slope always clears it.
    if not given and any(
        len(bs) == 1 and all(g.degree(v) == 2 * slopes.s for v in vs)
        for vs, bs in zip(g.components, blocks)
    ):
        slopes = SlopeSet(slopes.s + 1)

    cuts = set(bct.cut_vertices)
    parts = [
        _draw_component(vs, bs, cuts, slopes) for vs, bs in zip(g.components, blocks)
    ]
    if len(parts) == 1:
        comp, meta = parts[0]
    else:
        comp, meta = _Composite(slopes.s), {}
        x_off = 0.0
        for part, _ in parts:
            xs = [p[0] for p in part.points.values()] + [
                p[0] for a in part.edges for p in a.poly
            ]
            lo_x, hi_x = min(xs), max(xs)
            shift = x_off - lo_x
            comp.add(part, range(g.n), lambda p: (p[0] + shift, p[1]))
            x_off += (hi_x - lo_x) + max(1.0, 0.05 * (hi_x - lo_x))
    meta.update(
        d=d,
        s=slopes.s,
        components=len(parts),
        # a child glued within rho of its cut vertex, rho at most half that
        # vertex's distance to the root wedge's rays, stays inside the wedge
        wedge_contained="wedge" in meta,
        nonvertical_middle_edges=_nonvertical_middle_edges(comp.edges),
    )
    return Drawing("twobend", comp.points, comp.edges, "float", meta)


def draw_low_degree(g: PlanarGraph) -> Drawing:
    """Straight-line fallback for maximum degree <= 2 (paths and cycles), on
    the integer grid.

    A path runs down one vertical line: one slope. A cycle of k vertices
    runs right along y = 1 for its first ceil(k/2) vertices, then back along
    y = 0. An even cycle closes with a vertical edge, two slopes; an odd one
    cannot (a closed odd walk on two directions has no solution) and closes
    with a diagonal, three. Not covered by the two-bend guarantee; meta says
    so.
    """
    if g.max_degree > 2:
        raise ValueError("draw_low_degree only accepts maximum degree <= 2")
    pts: dict[int, tuple[int, int]] = {}
    arcs: list[EdgeArc] = []
    slopes_used = 0
    x0 = 0
    for vs in g.components:
        ends = [v for v in vs if g.degree(v) < 2]
        seq = [ends[0] if ends else vs[0]]
        prev = None
        while len(seq) < len(vs):
            nxt = next(w for w in g.neighbors(seq[-1]) if w != prev)
            prev = seq[-1]
            seq.append(nxt)
        k = len(seq)
        if ends:
            for i, v in enumerate(seq):
                pts[v] = (x0, -i)
            links = seq[1:]
            slopes_used = max(slopes_used, min(k - 1, 1))
        else:
            h = (k + 1) // 2
            for i, v in enumerate(seq):
                pts[v] = (x0 + i, 1) if i < h else (x0 + 2 * h - 1 - i, 0)
            links = seq[1:] + seq[:1]
            slopes_used = max(slopes_used, 2 + k % 2)
        for a, b in zip(seq, links):
            u, v = min(a, b), max(a, b)
            arcs.append(EdgeArc(u, v, (pts[u], pts[v])))
        x0 = max(pts[v][0] for v in vs) + 2
    return Drawing(
        "lowdegree",
        pts,
        arcs,
        "int",
        {"d": g.max_degree, "slopes_used": slopes_used, "on_slope_grid": False},
    )
