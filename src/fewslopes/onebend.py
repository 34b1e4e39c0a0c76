"""T-shape contact representations and one-bend drawings.

Every vertex becomes a T: a horizontal hat through its center plus a vertical
leg hanging below. Following a canonical order top-down, each new vertex slots
its hat between the legs of its two extreme earlier neighbors and catches the
legs of the middle ones, so the T-shapes of a triangulation touch exactly when
vertices are adjacent. Retracting hats and legs drops the contacts of edges
the triangulation added and keeps every other contact where it was.

Drawn edges replace the right-angle contact path by two segments meeting
where an almost-horizontal line (slope -1/(2iN)) through the hat-side vertex
crosses an almost-vertical line (slope 2jN) through the leg-side vertex; the
indices i, j come from the per-vertex contact numbering, giving at most 2d
distinct slopes, and the bend stays within distance 1/2 of the contact path.

Everything is computed in Python integers: columns on a dyadic grid refined
only as far as the halvings go (_columns), the T-shapes in doubled units, and
each bend as an integer numerator over the one denominator 1 + 4ijN^2 of its
edge, made a rational only at the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .drawing import Drawing, EdgeArc
from .errors import TooFewVertices
from .graphs import (
    CanonicalOrder,
    Embedding,
    PlanarGraph,
    canonical_order,
    planar_embed,
    triangulate,
)

__all__ = [
    "TShape",
    "Contact",
    "TShapeRep",
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


# --- construction ---------------------------------------------------------


def _build_k2() -> TShapeRep:
    # vertex 0 on top, its leg resting on vertex 1's hat
    s0 = TShape(center=(4, 4), hat_left=(3, 4), hat_right=(5, 4), leg_bottom=(4, 2))
    s1 = TShape(center=(2, 2), hat_left=(1, 2), hat_right=(5, 2), leg_bottom=(2, 1))
    c = Contact(0, 1, (4, 2), hat_vertex=1)
    return TShapeRep((s0, s1), (c,), (5, 4), 1)


def _columns(co: CanonicalOrder) -> tuple[dict[int, int], list[list[int]]]:
    """(legx, supports): the leg column of every vertex of the canonical
    order co, and the support of each vertex from the third on, ordered left
    to right.

    Columns are dyadic: v1 at 0, v2 at 1, and each later vertex at the
    midpoint of the widest gap between the columns of its support. They are
    held as ints over one denominator 2**scale, from scale 64. A halving
    whose ends have an odd sum needs a finer grid: every column is then
    shifted left by scale and scale doubles, so it stays at most twice the
    deepest halving, or 64. Every comparison, and so every rank, is
    invariant under a common scale.
    """
    order = co.order
    scale = 64
    legx = {order[0]: 0, order[1]: 1 << scale}
    supports = []
    contour = [order[0], order[1]]
    for i in range(2, len(order)):
        sup = list(co.support[i])
        if legx[sup[0]] > legx[sup[-1]]:
            sup.reverse()
        xs = [legx[w] for w in sup]
        assert all(a < b for a, b in zip(xs, xs[1:])), "support columns not monotone"
        lo = contour.index(sup[0])
        assert contour[lo : lo + len(sup)] == sup, "support not contiguous on contour"
        # own column: midpoint of the widest free gap inside the hat
        j = max(range(len(xs) - 1), key=lambda t: (xs[t + 1] - xs[t], -t))
        a, b = xs[j], xs[j + 1]
        if (a + b) & 1:
            for w in legx:
                legx[w] <<= scale
            a, b = a << scale, b << scale
            scale *= 2
        legx[order[i]] = (a + b) >> 1
        contour[lo : lo + len(sup)] = [sup[0], order[i], sup[-1]]
        supports.append(sup)
    return legx, supports


def tshape_representation(e: Embedding) -> TShapeRep:
    """Contact representation by T-shapes: tangent iff adjacent.

    Built on a triangulation of e via canonical order; every hat end and leg
    bottom is then retracted past its outermost contact belonging to a real
    edge (half-unit stub when none), which erases the contacts created by
    auxiliary triangulation edges. Retraction keeps the iff: it only
    shortens hats and legs, so it makes no new contact or crossing; an end
    stops exactly at a real edge's contact point, so that contact stays
    where it was recorded; and an end cut back past a contact lands on an
    odd coordinate, while every row and column is even, so it touches
    nothing. Raises TooFewVertices for n < 2.
    """
    g = e.graph
    if g.n < 2:
        raise TooFewVertices(f"need n >= 2, got {g.n}")
    if g.n == 2:
        return _build_k2()
    et = e if e.is_triangulated() else triangulate(e)
    co = canonical_order(et)
    n_rep = et.graph.n

    order = co.order
    # doubled units, so that every row and column is even and a stub is 1
    rows = {v: 2 * (n_rep - i) for i, v in enumerate(order)}  # first on top
    legx, supports = _columns(co)

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
    add_tip(hat_v=order[1], leg_v=order[0], side="left")
    for v, sup in zip(order[2:], supports):
        add_tip(hat_v=v, leg_v=sup[0], side="left")
        add_tip(hat_v=v, leg_v=sup[-1], side="right")
        for w in sup[1:-1]:
            add_rest(hat_v=v, leg_v=w)

    rank = {x: 2 * i + 2 for i, x in enumerate(sorted(set(legx.values())))}
    col = {v: rank[x] for v, x in legx.items()}

    shapes = []
    for v in range(g.n):
        cx, cy = col[v], rows[v]

        def end(side: str, outermost, nudge):
            tip = hat_tip[v][side]
            if tip is not None and tip[1]:
                return col[tip[0]]
            rest_cols = [col[w] for w, req in hat_rests[v] if req]
            rest_cols = [c for c in rest_cols if (c < cx if side == "left" else c > cx)]
            if rest_cols:
                return outermost(rest_cols) + nudge
            return cx + nudge

        req_rows = [r for r, req in leg_marks[v] if req]
        shapes.append(
            TShape(
                center=(cx, cy),
                hat_left=(end("left", min, -1), cy),
                hat_right=(end("right", max, 1), cy),
                leg_bottom=(cx, min(req_rows) if req_rows else cy - 1),
            )
        )

    contacts = sorted(
        (Contact(min(h, l), max(h, l), (col[l], rows[h]), h) for h, l, req in recs if req),
        key=lambda c: (c.u, c.v),
    )
    xs_all = [x for s in shapes for x in (s.hat_left[0], s.hat_right[0], s.center[0])]
    ys_all = [y for s in shapes for y in (s.center[1], s.leg_bottom[1])]
    grid = (max(xs_all) - min(xs_all) + 1, max(ys_all) - min(ys_all) + 1)
    return TShapeRep(tuple(shapes), tuple(contacts), grid, et.graph.max_degree)


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


def contact_numbering(rep: TShapeRep) -> tuple[tuple[int, int], ...]:
    """The ranks (i, j) of each contact in rep.contacts: its 1-based places
    in the ccw walks of the T of its hat vertex (i) and of its leg vertex (j)."""
    at: list[list[int]] = [[] for _ in rep.shapes]
    for ci, c in enumerate(rep.contacts):
        at[c.u].append(ci)
        at[c.v].append(ci)
    ranks = [[0, 0] for _ in rep.contacts]
    for v, row in enumerate(at):
        row.sort(key=lambda ci: _traversal_key(rep, v, rep.contacts[ci]))
        for rank, ci in enumerate(row, start=1):
            ranks[ci][v != rep.contacts[ci].hat_vertex] = rank
    return tuple(map(tuple, ranks))


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
    ranks = contact_numbering(rep)
    big_n = max(len(rep.shapes), *rep.grid)
    points = {v: rep.shapes[v].center for v in range(g.n)}
    arcs = []
    for ci, c in enumerate(rep.contacts):
        h, l = c.hat_vertex, c.leg_vertex
        i, j = ranks[ci]
        p = 2 * i * big_n
        q = 2 * j * big_n
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
