"""T-shape contact representations and one-bend drawings.

Every vertex becomes a T: a horizontal hat through its center plus a vertical
leg hanging below. Following a canonical order top-down, each new vertex slots
its hat between the legs of its two extreme earlier neighbors and catches the
legs of the middle ones, so T-shapes touch exactly when vertices are adjacent.

Drawn edges replace the right-angle contact path by two segments meeting
where an almost-horizontal line (slope -1/(2iN)) through the hat-side vertex
crosses an almost-vertical line (slope 2jN) through the leg-side vertex; the
indices i, j come from the per-vertex contact numbering, giving at most 2d
distinct slopes, and the bend stays within distance 1/2 of the contact path.

Everything is computed in Python integers: columns on a dyadic grid, the
T-shapes in doubled units, and each bend as an integer numerator over the one
denominator 1 + 4ijN^2 of its edge, made a rational only at the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .drawing import Drawing, EdgeArc
from .errors import RetractionFailed, TooFewVertices
from .graphs import Embedding, PlanarGraph, canonical_order, planar_embed, triangulate

__all__ = [
    "TShape",
    "Contact",
    "TShapeRep",
    "ContactNumbering",
    "tshape_representation",
    "contact_numbering",
    "draw_onebend",
]


@dataclass(frozen=True)
class TShape:
    """Hat (horizontal through the center) plus leg (vertical below it)."""

    center: tuple[int, int]
    hat_left: tuple[int, int]
    hat_right: tuple[int, int]
    leg_bottom: tuple[int, int]

    def __post_init__(self):
        cx, cy = self.center
        if self.hat_left == self.hat_right == self.leg_bottom == self.center:
            return  # degenerate singleton
        if self.hat_left[1] != cy or self.hat_right[1] != cy:
            raise ValueError("hat must be horizontal through the center")
        if not self.hat_left[0] < cx < self.hat_right[0]:
            raise ValueError("center must be strictly interior to the hat")
        if self.leg_bottom[0] != cx or self.leg_bottom[1] >= cy:
            raise ValueError("leg must hang strictly below the center")


@dataclass(frozen=True)
class Contact:
    """Single tangency point of edge (u, v), u < v; it lies on hat_vertex's
    hat and on the other endpoint's leg."""

    u: int
    v: int
    point: tuple[int, int]
    hat_vertex: int

    @property
    def leg_vertex(self) -> int:
        return self.v if self.hat_vertex == self.u else self.u


@dataclass(frozen=True)
class TShapeRep:
    shapes: tuple[TShape, ...]
    contacts: tuple[Contact, ...]
    grid: tuple[int, int]
    d_t: int

    @property
    def n(self) -> int:
        return len(self.shapes)

    @cached_property
    def _incident(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, c in enumerate(self.contacts):
            out[c.u].append(i)
            out[c.v].append(i)
        return tuple(map(tuple, out))

    def contacts_at(self, v: int) -> tuple[int, ...]:
        """Indices of the contacts at v, ascending."""
        return self._incident[v]


@dataclass(frozen=True)
class ContactNumbering:
    """Per-vertex contact order along the ccw boundary walk of the T."""

    orders: tuple[tuple[int, ...], ...]  # orders[v] = indices into rep.contacts

    @cached_property
    def _rank(self) -> dict[tuple[int, int], int]:
        out = {}
        for v, row in enumerate(self.orders):
            for rank, ci in enumerate(row, start=1):
                out[(v, ci)] = rank
        return out

    def index_at(self, v: int, contact_idx: int) -> int:
        """1-based index of the contact in v's traversal."""
        return self._rank[(v, contact_idx)]


# --- construction ---------------------------------------------------------


def _build_k1() -> TShapeRep:
    t = TShape((0, 0), (0, 0), (0, 0), (0, 0))
    return TShapeRep((t,), (), (1, 1), 0)


def _build_k2() -> TShapeRep:
    # vertex 0 on top, its leg resting on vertex 1's hat
    s0 = TShape(center=(4, 4), hat_left=(3, 4), hat_right=(5, 4), leg_bottom=(4, 2))
    s1 = TShape(center=(2, 2), hat_left=(1, 2), hat_right=(5, 2), leg_bottom=(2, 1))
    c = Contact(0, 1, (4, 2), hat_vertex=1)
    return TShapeRep((s0, s1), (c,), (5, 4), 1)


def tshape_representation(e: Embedding) -> TShapeRep:
    """Contact representation by T-shapes: tangent iff adjacent.

    Built on a triangulation of e via canonical order; every hat end and leg
    bottom is then retracted past its outermost contact belonging to a real
    edge (half-unit stub when none), which erases the contacts created by
    auxiliary triangulation edges. The iff condition is re-verified exactly
    on the final integer coordinates; on failure the grid is refined x4 and
    retraction retried.
    """
    g = e.graph
    if g.n == 1:
        return _build_k1()
    if g.n == 2:
        return _build_k2()
    et = e if e.is_triangulated() else triangulate(e)
    co = canonical_order(et)
    n_rep = et.graph.n

    order = co.order
    rows = {v: n_rep - i for i, v in enumerate(order)}  # first vertex on top row
    v1, v2 = order[0], order[1]
    # Columns live on the grid of multiples of 2**-n_rep, scaled to ints: a
    # new column halves a gap between earlier ones, so the vertex at
    # canonical position i is at most i halvings deep and (a + b) >> 1 is exact.
    legx = {v1: 0, v2: 1 << n_rep}

    # tips: hat end sits exactly on a support leg; rests: a middle leg lands
    # on the hat's top. Contact point is always (leg column, hat row).
    hat_tip: dict[int, dict[str, tuple[int, bool] | None]] = {
        v: {"left": None, "right": None} for v in range(n_rep)
    }
    hat_rests: dict[int, list[tuple[int, bool]]] = {v: [] for v in range(n_rep)}
    leg_marks: dict[int, list[tuple[int, bool]]] = {v: [] for v in range(n_rep)}
    recs: list[tuple[int, int, bool]] = []  # (hat_v, leg_v, required)

    def required(a: int, b: int) -> bool:
        return max(a, b) < g.n and g.has_edge(min(a, b), max(a, b))

    def add_tip(hat_v: int, leg_v: int, side: str):
        req = required(hat_v, leg_v)
        assert hat_tip[hat_v][side] is None
        hat_tip[hat_v][side] = (leg_v, req)
        leg_marks[leg_v].append((rows[hat_v], req))
        recs.append((hat_v, leg_v, req))

    def add_rest(hat_v: int, leg_v: int):
        req = required(hat_v, leg_v)
        hat_rests[hat_v].append((leg_v, req))
        leg_marks[leg_v].append((rows[hat_v], req))
        recs.append((hat_v, leg_v, req))

    # the v1-v2 edge: v2's hat reaches left to v1's leg
    add_tip(hat_v=v2, leg_v=v1, side="left")

    contour = [v1, v2]
    for i in range(2, n_rep):
        v = order[i]
        sup = list(co.support[i])
        if legx[sup[0]] > legx[sup[-1]]:
            sup.reverse()
        xs = [legx[w] for w in sup]
        assert all(a < b for a, b in zip(xs, xs[1:])), "support columns not monotone"
        lo = contour.index(sup[0])
        assert contour[lo : lo + len(sup)] == sup, "support not contiguous on contour"

        w_p, mids, w_q = sup[0], sup[1:-1], sup[-1]
        add_tip(hat_v=v, leg_v=w_p, side="left")
        add_tip(hat_v=v, leg_v=w_q, side="right")
        for w in mids:
            add_rest(hat_v=v, leg_v=w)
        # own column: midpoint of the widest free gap inside the hat
        seq = xs[:1] + [legx[w] for w in mids] + xs[-1:]
        j = max(range(len(seq) - 1), key=lambda t: (seq[t + 1] - seq[t], -t))
        legx[v] = (seq[j] + seq[j + 1]) >> 1
        contour[lo : lo + len(sup)] = [w_p, v, w_q]

    cols = sorted(set(legx.values()))
    rank = {x: i + 1 for i, x in enumerate(cols)}

    for attempt in range(4):
        mult = 2 * 4**attempt  # doubled units: a half-unit nudge is 1
        shapes = []
        for v in range(g.n):
            cx = rank[legx[v]] * mult
            cy = rows[v] * mult

            def end(side: str, outermost, nudge):
                tip = hat_tip[v][side]
                if tip is not None and tip[1]:
                    return rank[legx[tip[0]]] * mult
                rest_cols = [rank[legx[w]] * mult for w, req in hat_rests[v] if req]
                rest_cols = [c for c in rest_cols if (c < cx if side == "left" else c > cx)]
                if rest_cols:
                    return outermost(rest_cols) + nudge
                return cx + nudge

            req_rows = [r * mult for r, req in leg_marks[v] if req]
            shapes.append(
                TShape(
                    center=(cx, cy),
                    hat_left=(end("left", min, -1), cy),
                    hat_right=(end("right", max, 1), cy),
                    leg_bottom=(cx, min(req_rows) if req_rows else cy - 1),
                )
            )

        contacts = sorted(
            (
                Contact(
                    min(h, l),
                    max(h, l),
                    (rank[legx[l]] * mult, rows[h] * mult),
                    hat_vertex=h,
                )
                for h, l, req in recs
                if req
            ),
            key=lambda c: (c.u, c.v),
        )
        problems = _verify_contacts(shapes, set(g.edges), contacts)
        if not problems:
            xs_all = [x for s in shapes for x in (s.hat_left[0], s.hat_right[0], s.center[0])]
            ys_all = [y for s in shapes for y in (s.center[1], s.leg_bottom[1])]
            grid = (max(xs_all) - min(xs_all) + 1, max(ys_all) - min(ys_all) + 1)
            return TShapeRep(tuple(shapes), tuple(contacts), grid, et.graph.max_degree)
    raise RetractionFailed(f"contact verification kept failing: {problems[:3]}")


def _verify_contacts(shapes, edges, contacts) -> list[str]:
    """Exact check: touch points exist iff edges do, once, where recorded.

    Hats are horizontal and legs vertical, so every test is a sort, never a
    pair loop. With legs sorted by column, the legs a hat may touch are one
    searchsorted range of columns, then filtered by row. With hats sorted by
    (row, left end) and legs by (column, bottom), the hats or legs that
    overlap one of them form a contiguous run after it. The edge test walks
    only the touching pairs and the edges.

    The problem list has a fixed order, which the retraction retry and its
    error message rely on: "hat crosses leg" by (hat, leg); then overlapping
    hats and intersecting legs by pair, hats first; then, only when those are
    absent, the edge problems by pair.
    """
    cx = np.array([s.center[0] for s in shapes])
    cy = np.array([s.center[1] for s in shapes])
    hx1 = np.array([s.hat_left[0] for s in shapes])
    hx2 = np.array([s.hat_right[0] for s in shapes])
    ly = np.array([s.leg_bottom[1] for s in shapes])

    # hat of i vs leg of j (coordinates are small ints: comparisons exact)
    by_col = np.argsort(cx, kind="stable")
    col = cx[by_col]
    hi, at = _expand(np.searchsorted(col, hx1, "left"), np.searchsorted(col, hx2, "right"))
    hj = by_col[at]
    keep = (ly[hj] <= cy[hi]) & (cy[hi] <= cy[hj]) & (hi != hj)
    hi, hj = hi[keep], hj[keep]
    cross = (hx1[hi] < cx[hj]) & (cx[hj] < hx2[hi]) & (ly[hj] < cy[hi]) & (cy[hi] < cy[hj])
    problems = [
        f"hat of {i} crosses leg of {j}"
        for i, j in sorted(zip(hi[cross].tolist(), hj[cross].tolist()))
    ]
    # same-row hats / same-column legs must stay strictly apart
    clash = [
        (i, j, what)
        for what, pairs in (
            ("hats of {},{} overlap", _run_pairs(cy, hx1, hx2)),
            ("legs of {},{} intersect", _run_pairs(cx, ly, cy)),
        )
        for i, j in pairs
    ]
    problems += [what.format(i, j) for i, j, what in sorted(clash)]  # "hats" < "legs"
    if problems:
        return problems

    cx, cy = cx.tolist(), cy.tolist()
    hits = set(zip(hi.tolist(), hj.tolist()))
    recorded = {(c.u, c.v): c for c in contacts}
    for key in sorted({(min(i, j), max(i, j)) for i, j in hits} | edges):
        i, j = key
        pts = set()
        if (i, j) in hits:
            pts.add((cx[j], cy[i]))
        if (j, i) in hits:
            pts.add((cx[i], cy[j]))
        if key in edges:
            if len(pts) != 1:
                problems.append(f"edge {key}: {len(pts)} touch points")
            elif key not in recorded or recorded[key].point != next(iter(pts)):
                problems.append(f"edge {key}: touch point mismatch")
        elif pts:
            problems.append(f"non-edge {key} touches at {sorted(pts)}")
    if not problems and len(recorded) != len(edges):
        problems.append("contact count differs from edge count")
    return problems


def _expand(lo, hi):
    """(owner, k): one entry per k in [lo[owner], hi[owner]), by owner."""
    size = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(len(lo)), size)
    k = np.arange(int(size.sum())) + np.repeat(lo - (np.cumsum(size) - size), size)
    return owner, k


def _run_pairs(line, lo, hi):
    """Pairs (i, j), i < j, of intervals [lo, hi] (lo <= hi) on the same
    line that meet.

    Sorted by (line, lo), the intervals meeting one interval and starting at
    or after it are the run up to the first one that starts beyond its hi.
    """
    order = np.lexsort((lo, line))
    ends = np.unique(np.concatenate((lo, hi)))
    span = len(ends)
    # one sortable int64 per (line, end) pair
    line_rank = np.unique(line, return_inverse=True)[1].ravel()
    key = (line_rank * span + np.searchsorted(ends, lo))[order]
    stop = np.searchsorted(key, (line_rank * span + np.searchsorted(ends, hi))[order], "right")
    a, b = _expand(np.arange(1, len(order) + 1), stop)
    a, b = order[a], order[b]
    return zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())


# --- numbering and drawing -------------------------------------------------


def _traversal_key(rep: TShapeRep, v: int, c: Contact):
    """Sort key along the ccw walk: upper-left hat, left tip, leg left side,
    bottom tip, leg right side, right tip, upper-right hat."""
    t = rep.shapes[v]
    p = c.point
    cx, cy = t.center
    if p[1] == cy:
        if p == t.hat_left:
            return (2, 0)
        if p == t.hat_right:
            return (6, 0)
        return (1, -p[0]) if p[0] < cx else (7, -p[0])
    assert p[0] == cx and p[1] < cy, "contact off the T"
    if p == t.leg_bottom:
        return (4, 0)
    other = rep.shapes[c.hat_vertex]
    if other.hat_right[0] == cx:
        return (3, -p[1])  # foreign hat arrives from the left
    assert other.hat_left[0] == cx, "hat tip not at the leg column"
    return (5, p[1])


def contact_numbering(rep: TShapeRep) -> ContactNumbering:
    orders = []
    for v in range(rep.n):
        incident = sorted(
            rep.contacts_at(v), key=lambda ci: _traversal_key(rep, v, rep.contacts[ci])
        )
        orders.append(tuple(incident))
    return ContactNumbering(tuple(orders))


def draw_onebend(g: PlanarGraph) -> Drawing:
    """One-bend drawing with at most 2*d_T slopes, exact rational bends.

    The bend of an edge with contact indices i (hat side) and j (leg side)
    is where the line of slope -1/p, p = 2iN, through the hat vertex meets
    the line of slope q = 2jN through the leg vertex. Both coordinates are
    integers over the one denominator 1 + pq = 1 + 4ijN^2 of that edge.
    """
    if g.n < 2:
        raise TooFewVertices(f"need n >= 2, got {g.n}")
    e = planar_embed(g)
    rep = tshape_representation(e)
    num = contact_numbering(rep)
    big_n = max(rep.n, rep.grid[0], rep.grid[1])
    points = {v: rep.shapes[v].center for v in range(g.n)}
    arcs = []
    for ci, c in enumerate(rep.contacts):
        h, l = c.hat_vertex, c.leg_vertex
        p = 2 * num.index_at(h, ci) * big_n
        q = 2 * num.index_at(l, ci) * big_n
        den = 1 + p * q
        hx, hy = points[h]
        lx, ly = points[l]
        dx, dy = lx - hx, ly - hy
        x = lx * den - dx - p * dy
        y = hy * den + dy - q * dx
        px, py = c.point
        assert 2 * abs(x - px * den) < den and 2 * abs(y - py * den) < den, "bend strayed"
        bend = (Fraction(x, den), Fraction(y, den))
        arcs.append(EdgeArc(c.u, c.v, (points[c.u], bend, points[c.v])))
    return Drawing(
        method="onebend",
        points=points,
        edges=tuple(arcs),
        coord_kind="rational",
        meta={"d": g.max_degree, "d_T": rep.d_t, "grid": rep.grid, "N": big_n},
    )
