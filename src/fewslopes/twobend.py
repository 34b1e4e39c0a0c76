"""Two-bend drawings on s = ceil(d/2) slopes, in integers.

Vertices are processed in an st-order and placed on increasing horizontal
levels. Every edge is routed through a "pending column": a vertical channel
opened when the lower endpoint is placed and closed by a sloped fan segment
when the upper endpoint consumes it. Columns live in a master list whose
left-to-right order mirrors the pending order induced by the embedding, so
the x coordinate of a column is its index in the list, times a column step.

Each edge therefore consists of at most three pieces: a short sloped piece
leaving the lower endpoint, the vertical middle piece, and a sloped fan
piece entering the upper endpoint. The bottom edge v1v2 is the one
exception: it dips below the first level and its middle piece is not
vertical. A block needs only the clockwise order of the slopes' integer
direction vectors, so every block is drawn in integers.

Cut vertices are handled by drawing each biconnected block with its
attachment vertex on top, in a frame of directions that an integer matrix
carries onto the slopes turned by whole slots, then mapping, shrinking by
a power of two and translating it into the free sector just clockwise of
the slots taken at the attachment point, which form one arc because every
block drawing is good. Every map is fixed before any point is written.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .drawing import Drawing, EdgeArc, SlopeSet
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


def _fan_slots(r: int, s: int) -> tuple[int, int]:
    """(lo, hi): the directed slots at which r edges enter a vertex from
    below, around straight down, the extra one on the left when r is even."""
    med = (r - 1) // 2
    return s - (r - 1 - med), s + med


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
        lo, hi = _fan_slots(r, s)
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


class _Frame(NamedTuple):
    """The directions a block is drawn on: s integer vectors F_0, ..., F_{s-1}
    in clockwise order, F_0 pointing up and the rest to the right; directed
    slot k + s is -F_k. A SlopeSet is the frame of its own vectors D."""

    s: int
    vectors: tuple[tuple[int, int], ...]
    vector = SlopeSet.vector


def _step(frame) -> int:
    """The column step: then every sloped piece ends on an integer point."""
    return math.lcm(*(x for x, _ in frame.vectors[1:]))


def _cw(a, b) -> int:
    """Positive iff b is clockwise of a by less than pi, zero iff parallel."""
    return a[1] * b[0] - a[0] * b[1]


def _rays(frame, fan) -> tuple[tuple[int, int], tuple[int, int]]:
    """The rays of the wedge of a fan of slots (lo, hi): the half-slot rays
    F_{lo-1} + F_lo and F_hi + F_{hi+1}."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = map(frame.vector, (fan[0] - 1, *fan, fan[1] + 1))
    return (ax + bx, ay + by), (cx + dx, cy + dy)


def _inside(v, rays) -> bool:
    """Whether v points strictly inside the cone turning clockwise from the
    first ray to the second."""
    a, b = rays
    if _cw(a, b) > 0:
        return _cw(a, v) > 0 and _cw(v, b) > 0
    return _cw(a, v) > 0 or _cw(v, b) > 0


def _meets_ray(p, q, w) -> bool:
    """Whether the segment pq, each end off the ray or at its apex, meets the
    ray from the origin along w other than at an end: its ends lie on both
    sides of the line, crossed at x with dot(x, w) >= 0, and dot(x, w)
    (cp - cq) = cp dot(q, w) - cq dot(p, w)."""
    cp, cq = _cw(w, p), _cw(w, q)
    return cp * cq < 0 and (
        cp * (q[0] * w[0] + q[1] * w[1]) - cq * (p[0] * w[0] + p[1] * w[1])
    ) * (cp - cq) >= 0


def _in_wedge(polys, apex, rays) -> bool:
    """Whether every point of polys but apex lies strictly inside the wedge
    at apex, and, where the wedge is not convex, no segment meets a ray."""
    ax, ay = apex
    rel = [[(x - ax, y - ay) for x, y in poly] for poly in polys]
    if not all(_inside(p, rays) for poly in rel for p in poly if p != (0, 0)):
        return False
    return _cw(*rays) > 0 or not any(
        _meets_ray(p, q, w) for poly in rel for p, q in zip(poly, poly[1:]) for w in rays
    )


def _rise(frame, k: int, dx: int) -> int:
    """The rise of directed slot k over dx, a multiple of the column step."""
    x, y = frame.vectors[k % frame.s]
    return dx * y // x


def _polylines(route: _Route, frame, pts: dict[int, tuple[int, int]]):
    """(u, v, poly) of every routed edge, for the points pts."""
    s, step = frame.s, _step(frame)
    lines = []
    for ep in route.episodes:
        u, v = ep.u, ep.target
        ux, uy = pts[u]
        vx, vy = pts[v]
        cx = step * ep.column.x
        if ep.dip:
            # the dip: straight down, one piece along F_{s-1}, straight up
            drop = uy - abs(vy - uy) - step
            assert cx > ux
            poly = ((ux, uy), (ux, drop), (cx, drop + _rise(frame, s - 1, cx - ux)), (vx, vy))
            lines.append((u, v, poly))
            continue
        poly = [(ux, uy)]
        if ep.k_u != 0:
            assert (cx > ux) == (ep.k_u < s) and cx != ux
            poly.append((cx, uy + _rise(frame, ep.k_u, cx - ux)))
        # the vertical middle piece, up to the bend below v or to v itself
        top = (cx, vy + _rise(frame, ep.k_v, cx - vx)) if ep.k_v != s else (vx, vy)
        assert poly[-1][0] == top[0] == cx and poly[-1][1] < top[1], (
            f"middle piece of ({u},{v}) collapsed"
        )
        poly.append(top)
        if ep.k_v != s:
            assert (cx > vx) == (ep.k_v < s) and cx != vx
            poly.append((vx, vy))
        lines.append((u, v, tuple(poly)))
    return lines


def _build_positions(route: _Route, frame):
    # every hat leaving row i stays below y(i) + H[i] and above y(i) - H[i],
    # so gaps of H[i] + H[i+1] + step keep each row band a column step from
    # the next
    s, step = frame.s, _step(frame)
    pos = {v: i for i, v in enumerate(route.order)}
    hat = [0] * len(route.order)
    for ep in route.episodes:
        if ep.dip:
            continue
        cx = step * ep.column.x
        for w, k in ((ep.u, ep.k_u), (ep.target, ep.k_v)):
            if k % s:
                rise = abs(_rise(frame, k, cx - step * route.anchor[w].x))
                hat[pos[w]] = max(hat[pos[w]], rise)
    ys = list(accumulate((hat[i - 1] + hat[i] + step for i in range(1, len(hat))), initial=0))
    pts = {v: (step * route.anchor[v].x, ys[i]) for i, v in enumerate(route.order)}
    return pts, max(step, ys[-1] - ys[0])


def _wedge_meta(apex, rays) -> dict:
    """The wedge at apex as meta declares it: the open cone turning
    clockwise from the first integer half-slot ray to the second."""
    return {"apex": list(apex), "rays": [list(w) for w in rays]}


def _draw_routed(e: Embedding, t: int, frame) -> Drawing:
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
    route = _route(e, order, frame)

    # only t moves: up by spacing, then by doubling steps, until the
    # drawing fits into the wedge at t, which holds straight down, so a
    # point or piece inside stays inside as t rises
    pts, spacing = _build_positions(route, frame)
    tx, ty = pts[t]
    rays = _rays(frame, route.top_fan)
    extra = 0
    while True:
        lines = _polylines(route, frame, pts)
        if _in_wedge([line[2] for line in lines], pts[t], rays):
            break
        extra = spacing if extra == 0 else 2 * extra
        pts[t] = (tx, ty + extra)

    meta = {
        "s": frame.s,
        "t": t,
        "v1": route.order[0],
        "v2": route.order[1],
        "wedge": _wedge_meta(pts[t], rays),
        "fan_slots": list(route.top_fan),
    }
    arcs = [EdgeArc(*line) for line in lines]
    return Drawing("twobend", {v: pts[v] for v in range(e.graph.n)}, arcs, "int", meta)


def _draw_k2(t_first: bool, frame) -> Drawing:
    """A bridge block: one vertical segment, a column step long, hanging
    below vertex 0 or 1."""
    top, bot = (0, 1) if t_first else (1, 0)
    s, low = frame.s, (0, -_step(frame))
    pts = {top: (0, 0), bot: low}
    arc = EdgeArc(bot, top, (low, (0, 0)))
    wedge = _wedge_meta((0, 0), _rays(frame, (s, s)))
    meta = {"s": s, "t": top, "wedge": wedge, "fan_slots": [s, s]}
    return Drawing("twobend", pts, [arc], "int", meta)


def draw_biconnected_twobend(e: Embedding, t: int, slopes: SlopeSet) -> Drawing:
    """Good two-bend drawing of a biconnected embedding, hung below t.

    Every segment direction belongs to the slope set, the directed slopes at
    each vertex form one contiguous arc, middle pieces are vertical except on
    the bottom edge, and the whole drawing lies strictly inside the wedge
    meta declares at t: the cone turning clockwise from the first of two
    integer half-slot rays to the second, around the slots its edges enter
    t at. slopes may also be the frame a glued child block is drawn on.
    """
    g = e.graph
    cap = 2 * slopes.s
    if g.n == 2 and len(g.edges) == 1:
        return _draw_k2(t_first=(t == 0), frame=slopes)
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
    """A drawing assembled in graph ids, grown in place block by block; its
    points and edges are named as a Drawing's, so that one composite can be
    added to another."""

    def __init__(self):
        self.points: dict[int, tuple[int, int]] = {}
        self.edges: list[EdgeArc] = []

    def add(self, dr, verts, f) -> None:
        """Add the points and edges of dr, with vertex i renamed to verts[i]
        and every point mapped through f. A vertex already drawn keeps its
        point."""
        for v, p in dr.points.items():
            if verts[v] not in self.points:
                self.points[verts[v]] = f(p)
        self.edges.extend(
            EdgeArc(verts[a.u], verts[a.v], tuple(f(p) for p in a.poly)) for a in dr.edges
        )


# the one-slot clockwise turn of the slope sets that have one: it maps each
# D_k to a positive multiple of D_{k+1}
_TURN = {2: ((0, 1), (-1, 0)), 4: ((1, 1), (-1, 1))}


def _apply(L, p) -> tuple[int, int]:
    (a, b), (c, d) = L
    return (a * p[0] + b * p[1], c * p[0] + d * p[1])


def _gluing_map(slopes: SlopeSet, r: int):
    """An integer matrix L with det L > 0 and L (0, 1) a positive multiple
    of D_r: a power of the one-slot turn where the slope set has one, else
    the unimodular map with second column D_r."""
    turn = _TURN.get(slopes.s)
    if turn is not None:
        L = ((1, 0), (0, 1))
        for _ in range(r):  # turn each column of L
            L = tuple(zip(*(_apply(turn, col) for col in zip(*L))))
        return L
    x, y = slopes.vector(r)
    return ((y, 0), (0, y)) if x == 0 else ((0, x), (-x, y))


def _column2(L, step: int) -> Fraction:
    """A lower bound on |L x|^2 for every x one column step long: step^2
    times 2 det^2 / (S + sqrt(S^2 - 4 det^2)), S the sum of L's squared
    entries, the least squared singular value of L with the root rounded
    up, so exact for a similarity."""
    (a, b), (c, d) = L
    det, sq = a * d - b * c, a * a + b * b + c * c + d * d
    disc = sq * sq - 4 * det * det
    root = math.isqrt(disc - 1) + 1 if disc else 0
    return Fraction(2 * det * det * step * step, sq + root)


def _ray_dist2(v, w) -> Fraction:
    """The squared distance from the point v to the ray from the origin along w."""
    if v[0] * w[0] + v[1] * w[1] <= 0:
        return Fraction(v[0] * v[0] + v[1] * v[1])
    return Fraction(_cw(w, v) ** 2, w[0] * w[0] + w[1] * w[1])


@dataclass
class _Block:
    """A block drawing and its place: its point p goes to P(cut) +
    2^-depth L (p - apex), P the component's points at the root's scale
    (the root's top at the origin). L carries frame slot k to component
    slot k + turn, and rays are its wedge's in component directions;
    delta2 is the squared δ of its glue at its owner's scale."""

    dr: Drawing
    verts: tuple[int, ...]
    to_local: dict[int, int]
    frame: _Frame | SlopeSet
    cut: int | None = None
    turn: int = 0
    L: tuple = ((1, 0), (0, 1))
    depth: int = 0
    delta2: Fraction = Fraction(0)

    @property
    def apex(self) -> tuple[int, int]:
        return self.dr.points[self.dr.meta["t"]]

    @property
    def rays(self):
        return tuple(_apply(self.L, w) for w in _rays(self.frame, self.dr.meta["fan_slots"]))


def _used_slots_at(pts, arcs, v: int, frame) -> set[int]:
    """Directed slots taken at v, read from the exact integer direction d of
    each end segment: slot k if d is parallel to F_k (a glued frame may hold
    a non-primitive F_k such as (0, 2)) and points along it, else k + s, as
    one dot product decides. Every arc in arcs ends at v."""
    used = set()
    px, py = pts[v]
    for a in arcs:
        qx, qy = a.poly[1] if a.u == v else a.poly[-2]
        d = (qx - px, qy - py)
        k, (x, y) = next((k, f) for k, f in enumerate(frame.vectors) if _cw(f, d) == 0)
        used.add(k if d[0] * x + d[1] * y > 0 else k + frame.s)
    return used


def _glue(owner: _Block, c: int, taken: set[int], block, slopes: SlopeSet) -> _Block:
    """Draw the child block (bg, verts, to_local) hung at cut vertex c and
    fix its place; taken, the slots used at c, gains the child's.

    The taken slots form one arc; the child takes the w = hi - lo + 1 free
    slots after its clockwise end q - 1, (lo, hi) the slots its edges enter
    its top at. With r = q - lo, L = _gluing_map(r) maps the child's frame
    F_k = adj(L) D_{k+r} onto positive multiples of D_{k+r}, so its slots
    advance by r and its wedge rays go onto the half-slot rays
    D_{q-1} + D_q and D_{q+w-1} + D_{q+w} at c. It is shrunk by 2^-h, h >= 0
    least with its radius ρ (largest distance from c) at most δ/4. δ is the
    least of u, one column of the owner O (the first drawn block holding
    c) under O's map (_column2), and c's distance to O's wedge rays, unless
    c is O's top.

    Invariant: each glued subtree (the child and all blocks glued below
    it) lies within δ/3 of c and strictly inside its own wedge at c. By
    induction on its height: the child lies within ρ <= δ/4 of c, strictly
    inside its wedge, where its top was lifted to. A grandchild glued at a
    vertex x of the child has δ_x <= u_x, one column of the child, which is
    at most ρ, as another vertex of the child lies a column from c (the
    column lemma below). Its subtree lies within δ_x/3 <= ρ/3 of x, so
    within δ/4 + δ/12 = δ/3 of c; and inside the child's wedge, as δ_x/3 is
    below x's distance to its rays.

    The column lemma: in a block drawing every feature not radial at a
    vertex lies a column step or more from it, as row bands are a step
    apart and vertical pieces sit on distinct columns; mapped, u or more.
    So the subtree, within u/3 of c, misses the features of O not radial
    at c and the subtrees at O's other vertices, within u/3 of those; O's
    pieces radial at c and the earlier subtrees at c lie in other slots,
    outside its open wedge; and, nearer c than O's wedge rays, it stays in
    O's wedge.
    """
    bg, verts, to_local = block
    s, m = slopes.s, 2 * slopes.s
    ends = [k for k in taken if (k + 1) % m not in taken]
    if len(ends) != 1:
        raise GluingFailed(f"slots taken at cut vertex {c} are not one arc: {sorted(taken)}")
    q = (ends[0] + 1) % m
    t = to_local[c]
    lo, hi = _fan_slots(bg.degree(t), s)
    r = (q - lo) % m
    L = _gluing_map(slopes, r)
    adj = ((L[1][1], -L[0][1]), (-L[1][0], L[0][0]))
    frame = _Frame(s, tuple(_apply(adj, slopes.vector(k + r)) for k in range(s)))
    child = draw_biconnected_twobend(_embed_with_outer(bg, t), t, frame)
    taken.update((q + i) % m for i in range(hi - lo + 1))

    (px, py), (ax, ay) = owner.dr.points[owner.to_local[c]], owner.apex
    v = _apply(owner.L, (px - ax, py - ay))
    delta2 = _column2(owner.L, _step(owner.frame))
    if v != (0, 0):
        delta2 = min(delta2, *(_ray_dist2(v, w) for w in owner.rays))
    assert delta2 > 0, f"cut vertex {c} lies on its owner's wedge"
    ax, ay = child.points[t]
    rho2 = max(
        x * x + y * y
        for arc in child.edges
        for x, y in (_apply(L, (p[0] - ax, p[1] - ay)) for p in arc.poly)
    )
    # the least h >= 0 with 16 rho2 <= 4^h delta2
    need, num = 16 * rho2 * delta2.denominator, delta2.numerator
    h = max(0, (need.bit_length() - num.bit_length()) // 2 - 1)
    while num << (2 * h) < need:
        h += 1
    return _Block(child, verts, to_local, frame, c, r, L, owner.depth + h, delta2)


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


def _own(block: _Block, cuts: set[int], owner: dict, taken: dict, m: int) -> None:
    """Make block the owner of its cut vertices that no earlier block holds,
    each with the component slots its edges take there."""
    new = {block.to_local[v]: v for v in block.verts if v in cuts and v not in owner}
    at = defaultdict(list)
    for a in block.dr.edges:
        for end in (a.u, a.v):
            if end in new:
                at[end].append(a)
    for lv, v in new.items():
        owner[v] = block
        used = _used_slots_at(block.dr.points, at[lv], lv, block.frame)
        taken[v] = {(k + block.turn) % m for k in used}


def _assemble(placed: list[_Block]) -> _Composite:
    """The component of the placed blocks, root first and every block after
    its owner, written once in integers: at the scale of the deepest block,
    with the root's top at the origin."""
    top = max(b.depth for b in placed)
    comp = _Composite()
    for b in placed:
        k = 1 << (top - b.depth)
        ox, oy = comp.points[b.cut] if b.cut is not None else (0, 0)
        ax, ay = b.apex
        (l00, l01), (l10, l11) = b.L

        def f(p):
            x, y = p[0] - ax, p[1] - ay
            return (ox + k * (l00 * x + l01 * y), oy + k * (l10 * x + l11 * y))

        comp.add(b.dr, b.verts, f)
    return comp


def _draw_component(
    vs: tuple[int, ...], blocks, cut_vertices: set[int], slopes: SlopeSet
) -> tuple[_Composite, dict]:
    """The component on vertices vs with the given blocks, assembled in
    graph ids, and its meta: the root block's, in graph ids, with blocks and
    cut_vertices when the component has more than one block."""
    comp = _Composite()
    if len(vs) == 1:  # an isolated vertex
        comp.points[vs[0]] = (0, 0)
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
        bg, verts, to_local = blocks[root_bi]
        try:
            rdr = draw_biconnected_twobend(_embed_with_outer(bg, t), t, slopes)
        except StOrderInfeasible as exc:
            last_err = exc
            continue
        break
    else:
        raise last_err or DegreeTooHigh("no block vertex admits a free slope on top")
    placed = [_Block(rdr, verts, to_local, slopes)]
    owner: dict[int, _Block] = {}
    taken: dict[int, set[int]] = {}
    _own(placed[0], cuts, owner, taken, cap)

    # Blocks are glued in the order of repeated passes over them by index,
    # each pass gluing every block that has a drawn vertex by then. A block
    # first reached at cut vertex c, drawn by the block glued at (pass p,
    # index i), is glued at (p, j) if its index j > i, else at (p + 1, j).
    at_cut = defaultdict(list)
    for bi, (_, bverts, _) in enumerate(blocks):
        for v in bverts:
            if v in cuts:
                at_cut[v].append(bi)
    heap: list[tuple[int, int, int]] = []
    reached = {root_bi}

    def reach(bverts, p, i):
        for c in bverts:
            for j in at_cut.get(c, ()):
                if j not in reached:
                    reached.add(j)
                    heapq.heappush(heap, (p if j > i else p + 1, j, c))

    reach(verts, 1, -1)
    while heap:
        p, bi, c = heapq.heappop(heap)
        placed.append(_glue(owner[c], c, taken[c], blocks[bi], slopes))
        _own(placed[-1], cuts, owner, taken, cap)
        reach(blocks[bi][1], p, bi)
    assert len(reached) == len(blocks), "block-cut tree traversal stalled"

    comp = _assemble(placed)
    meta = {k: verts[x] if k in ("t", "v1", "v2") else x for k, x in rdr.meta.items()}
    if cut_top:
        del meta["wedge"]
    else:
        meta["wedge"] = {**meta["wedge"], "apex": list(comp.points[meta["t"]])}
    if len(blocks) > 1:
        meta["blocks"] = len(blocks)
        meta["cut_vertices"] = sorted(cuts)
    return comp, meta


def _nonvertical_middle_edges(arcs) -> list[tuple[int, int]]:
    return sorted(
        {tuple(sorted((a.u, a.v)))
         for a in arcs if len(a.poly) == 4 and a.poly[2][0] != a.poly[1][0]}
    )


# --- entry points ----------------------------------------------------------------


def draw_twobend(g: PlanarGraph, slopes: SlopeSet | None = None) -> Drawing:
    """Two-bend drawing of a planar graph on the slopes of a SlopeSet, in
    integers.

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
        comp, meta = _Composite(), {}
        x_off = 0
        for part, _ in parts:
            xs = [p[0] for p in part.points.values()] + [p[0] for a in part.edges for p in a.poly]
            lo_x, hi_x = min(xs), max(xs)
            shift = x_off - lo_x
            comp.add(part, range(g.n), lambda p: (p[0] + shift, p[1]))
            x_off += (hi_x - lo_x) + max(1, (hi_x - lo_x) // 20)
    meta.update(
        d=d,
        s=slopes.s,
        components=len(parts),
        # every glued subtree stays inside its owner's wedge (see _glue), so
        # inside the root's
        wedge_contained="wedge" in meta,
        nonvertical_middle_edges=_nonvertical_middle_edges(comp.edges),
    )
    return Drawing("twobend", comp.points, comp.edges, "int", meta)


def draw_low_degree(g: PlanarGraph) -> Drawing:
    """Straight-line fallback for maximum degree <= 2 (paths and cycles), on
    the integer grid.

    A path runs down one vertical line: one slope. A cycle of k vertices
    runs right along y = 1 for its first ceil(k/2) vertices, then back along
    y = 0. An even cycle closes with a vertical edge, two slopes; an odd one
    cannot (a closed odd walk on two directions has no solution) and closes
    with a diagonal, three. Not covered by the two-bend guarantee; meta says
    so. Raises DegreeTooHigh for maximum degree above 2.
    """
    if g.max_degree > 2:
        raise DegreeTooHigh(f"maximum degree {g.max_degree}: draw_low_degree accepts at most 2")
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
