"""Independent certification of drawings.

Every check here recomputes its answer from the polylines alone; nothing is
shared with the drawing pipelines beyond the primitive types. Crossings are
decided exactly for every coord_kind: float coordinates are binary rationals,
so each drawing is scaled to integers by one common denominator, segment by
segment. A sort-and-sweep over bounding boxes proposes the segment pairs to
test, in ascending order; two segments that end at a vertex their edges
share, matched by vertex id, need one orientation test. One slope
classification (slope_classes) gives every segment its slope class; the
census, the bend count and the hub multiplicities of G_d all count those
classes. It is exact for "int" and "rational" drawings; for "float" ones it,
like contiguity and wedge containment of every drawing, uses an
angular/positional tolerance, because regular slopes k*pi/s are irrational.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .drawing import Drawing, SlopeSet, Wedge
from .errors import AmbiguousBucket, SlopeOffGrid

__all__ = [
    "CrossingWitness",
    "VerifyReport",
    "check_noncrossing",
    "slope_classes",
    "slope_census",
    "max_bends",
    "check_contiguous",
    "check_rotation",
    "check_wedge",
    "check_gd_claims",
    "hausdorff_within",
    "verify_drawing",
]


@dataclass(frozen=True)
class CrossingWitness:
    edge_a: tuple[int, int]
    seg_a: int
    edge_b: tuple[int, int]
    seg_b: int
    where: tuple[float, float]


@dataclass(frozen=True)
class VerifyReport:
    crossing_free: bool
    crossing_witness: CrossingWitness | None
    slope_census: tuple[tuple[float, int], ...]
    distinct_slopes: int
    max_bends: int
    contiguity_ok: dict[int, bool] | None
    wedge_ok: bool | None
    exact: bool
    tolerance: float

    def __post_init__(self):
        if self.crossing_free == (self.crossing_witness is not None):
            raise ValueError("witness must be present exactly when crossing")

    @property
    def ok(self) -> bool:
        cont = self.contiguity_ok is None or all(self.contiguity_ok.values())
        return self.crossing_free and cont and self.wedge_ok is not False


# --- crossing test ----------------------------------------------------------------


def _orient(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _exact_pair(p1, p2, p3, p4):
    """Intersection of closed segments with exact arithmetic.

    Returns None (disjoint), or (kind, x, y) with kind "point"/"overlap" and
    an exact representative common point.
    """
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and \
       ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0:
        t = Fraction(d1) / Fraction(d1 - d2)  # p1 + t*(p2-p1) hits the other line
        x = p1[0] + t * (p2[0] - p1[0])
        y = p1[1] + t * (p2[1] - p1[1])
        return ("point", x, y)
    if d1 == 0 and d2 == 0:
        # collinear: compare 1D spans along the dominant axis
        axis = 0 if abs(p2[0] - p1[0]) >= abs(p2[1] - p1[1]) else 1
        a1, a2 = sorted((p1[axis], p2[axis]))
        b1, b2 = sorted((p3[axis], p4[axis]))
        lo, hi = max(a1, b1), min(a2, b2)
        if lo > hi:
            return None
        pt = next(p for p in (p1, p2, p3, p4) if p[axis] == lo and _between(p1, p2, p) and _between(p3, p4, p))
        return ("point" if lo == hi else "overlap", pt[0], pt[1])
    for p, (q1, q2), d in ((p1, (p3, p4), d1), (p2, (p3, p4), d2),
                           (p3, (p1, p2), d3), (p4, (p1, p2), d4)):
        if d == 0 and _between(q1, q2, p):
            return ("point", p[0], p[1])
    return None


def _between(a, b, p) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


_PAIR_BUDGET = 1 << 18  # x-overlap pairs _candidate_pairs expands at once


def _candidate_pairs(boxes):
    """Index pairs (i, j), i < j, ascending, whose closed bounding boxes
    overlap; boxes is an (m, 4) float array of segment ends (px, py, qx, qy).

    Sort and sweep: sorted by left edge, the boxes that start at or after a
    box and meet its x-range form one run, whose end searchsorted finds. The
    runs are expanded about _PAIR_BUDGET pairs at a time and filtered by
    y. Boxes are taken on float(coordinate); rounding to float is monotone,
    so boxes that meet exactly still meet after it.
    """
    m = len(boxes)
    if m < 2:
        return []
    lox = np.minimum(boxes[:, 0], boxes[:, 2])
    hix = np.maximum(boxes[:, 0], boxes[:, 2])
    loy = np.minimum(boxes[:, 1], boxes[:, 3])
    hiy = np.maximum(boxes[:, 1], boxes[:, 3])
    order = np.argsort(lox, kind="stable")
    lox, hix, loy, hiy = lox[order], hix[order], loy[order], hiy[order]
    size = np.searchsorted(lox, hix, "right") - np.arange(1, m + 1)
    last = np.cumsum(size)  # last[p]: pairs in the runs of positions <= p
    out_i, out_j = [], []
    p0 = 0
    while p0 < m:
        done = int(last[p0 - 1]) if p0 else 0
        p1 = max(p0 + 1, int(np.searchsorted(last, done + _PAIR_BUDGET, "right")))
        run = size[p0:p1]
        a = np.repeat(np.arange(p0, p1), run)
        # the run of position p starts at p + 1 and at pair number last[p] - size[p]
        shift = np.arange(p0 + 1, p1 + 1) - (last[p0:p1] - run)
        b = np.arange(done, int(last[p1 - 1])) + np.repeat(shift, run)
        keep = (loy[a] <= hiy[b]) & (hiy[a] >= loy[b])
        a, b = order[a[keep]], order[b[keep]]
        out_i.append(np.minimum(a, b))
        out_j.append(np.maximum(a, b))
        p0 = p1
    ii, jj = np.concatenate(out_i), np.concatenate(out_j)
    asc = np.argsort(ii * m + jj)
    return list(zip(ii[asc].tolist(), jj[asc].tolist()))


def _lift(dr: Drawing):
    """(den, segs, vertex_pt, boxes): den is the least common denominator of
    every coordinate (floats are binary rationals), and lifting maps a point
    p to the integer point den * p. segs lists, per segment, its edge index,
    its index in the edge, its lifted ends and the vertex ids at those ends
    (None at a bend); vertex_pt maps each vertex id to its lifted point;
    boxes holds the float ends (px, py, qx, qy), one row per segment."""
    ratios = [[(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in a.poly] for a in dr.edges]
    dens = {d for row in ratios for rx, ry in row for _, d in (rx, ry)}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    segs, vertex_pt = [], {}
    for ei, (a, row) in enumerate(zip(dr.edges, ratios)):
        pts = [(nx * scale[dx], ny * scale[dy]) for (nx, dx), (ny, dy) in row]
        vertex_pt[a.u], vertex_pt[a.v] = pts[0], pts[-1]
        last = len(pts) - 2
        for si in range(last + 1):
            segs.append((
                ei, si, pts[si], pts[si + 1],
                a.u if si == 0 else None, a.v if si == last else None,
            ))
    boxes = np.array(
        [[float(p[0]), float(p[1]), float(q[0]), float(q[1])]
         for a in dr.edges for p, q in zip(a.poly, a.poly[1:])]
    )
    return den, segs, vertex_pt, boxes


def check_noncrossing(dr: Drawing):
    """(crossing_free, witness). Arcs of different edges may meet only at a
    shared endpoint; collinear overlap is a violation. Decided exactly for
    every coord_kind, on the drawing lifted to integers.

    Candidate pairs come from a sort-and-sweep over bounding boxes, in
    ascending segment order, so the first violation (the witness) does not
    depend on the broad phase. Two segments that both end at the point of a
    vertex their edges share (by vertex id, not by point) meet only there
    when they turn at it: one exact orientation decides. Every other pair,
    and a shared end with collinear segments, goes through the full exact
    intersection test.
    """
    den, segs, vertex_pt, boxes = _lift(dr)
    for i, j in _candidate_pairs(boxes):
        ei, si, p1, p2, hi, ti = segs[i]
        ej, sj, p3, p4, hj, tj = segs[j]
        if ei == ej:
            continue
        # h*, t*: vertex at the segment's first / second end, None at a bend
        if hi is not None and hi == hj:
            turn = _orient(p1, p2, p4)
        elif hi is not None and hi == tj:
            turn = _orient(p1, p2, p3)
        elif ti is not None and ti == hj:
            turn = _orient(p2, p1, p4)
        elif ti is not None and ti == tj:
            turn = _orient(p2, p1, p3)
        else:
            turn = 0
        if turn:
            continue
        hit = _exact_pair(p1, p2, p3, p4)
        if hit is None:
            continue
        kind, wx, wy = hit
        ea, eb = dr.edges[ei], dr.edges[ej]
        shared = {ea.u, ea.v} & {eb.u, eb.v}
        if kind == "point" and any(vertex_pt[v] == (wx, wy) for v in shared):
            continue
        where = (float(Fraction(wx, den)), float(Fraction(wy, den)))
        return False, CrossingWitness((ea.u, ea.v), si, (eb.u, eb.v), sj, where)
    return True, None


# --- slopes -----------------------------------------------------------------------


def _exact_dir_key(dx, dy):
    """Canonical primitive integer direction mod pi."""
    nx, qx = dx.as_integer_ratio()
    ny, qy = dy.as_integer_ratio()
    ix, iy = nx * qy, ny * qx
    g = math.gcd(ix, iy)
    ix //= g
    iy //= g
    if ix < 0 or (ix == 0 and iy < 0):
        ix, iy = -ix, -iy
    return (ix, iy)


def slope_classes(dr: Drawing, tol: float = 1e-9):
    """(angles, classes): the slope classes of every segment direction mod pi.

    angles holds one angle per class, ascending in [0, pi) and measured
    clockwise from the upward vertical; classes holds, per edge of dr.edges,
    the class id (an index into angles) of each of its segments. Int and
    rational drawings class directions exactly. Float drawings chain sorted
    angles whose gaps are at most tol into one class, represented by the
    middle of its span, and raise AmbiguousBucket when two classes are
    separated by more than tol but less than 2*tol.
    """
    segs = [(p, q) for a in dr.edges for p, q in zip(a.poly, a.poly[1:])]
    if dr.coord_kind in ("int", "rational"):
        labels = [_exact_dir_key(q[0] - p[0], q[1] - p[1]) for p, q in segs]
        reps = {k: math.atan2(k[0], k[1]) % math.pi for k in labels}
    else:
        thetas = [
            math.atan2(float(q[0]) - float(p[0]), float(q[1]) - float(p[1])) % math.pi
            for p, q in segs
        ]
        labels, reps = _cluster(thetas, tol)
    counts = Counter(labels)
    order = sorted(reps, key=lambda c: (reps[c], counts[c]))
    rank = {c: i for i, c in enumerate(order)}
    flat = iter(labels)
    classes = [tuple(rank[next(flat)] for _ in a.poly[1:]) for a in dr.edges]
    return tuple(reps[c] for c in order), classes


def _cluster(thetas, tol):
    """(labels, reps): labels[i] is the cluster of angle thetas[i] and
    reps[c] the middle of cluster c's span."""
    if not thetas:
        return [], {}
    m = len(thetas)
    idx = sorted(range(m), key=thetas.__getitem__)
    gaps = [(thetas[idx[(i + 1) % m]] - thetas[idx[i]]) % math.pi for i in range(m)]
    if max(gaps) <= tol:  # the chain closes around the circle
        return [0] * m, {0: thetas[idx[0]]}
    cut = max(range(m), key=gaps.__getitem__)
    labels, ends = [0] * m, []  # ends[c] = [first, last] angle of cluster c
    for i in idx[cut + 1 :] + idx[: cut + 1]:
        t = thetas[i]
        if not ends or (t - ends[-1][1]) % math.pi > tol:
            ends.append([t, t])
        ends[-1][1] = t
        labels[i] = len(ends) - 1
    reps = {c: (lo + ((hi - lo) % math.pi) / 2) % math.pi for c, (lo, hi) in enumerate(ends)}
    for c in range(len(ends)):
        c2 = (c + 1) % len(ends)
        gap = (ends[c2][0] - ends[c][1]) % math.pi
        if gap < 2 * tol:
            raise AmbiguousBucket(
                f"slope clusters at {reps[c]:.12f} and {reps[c2]:.12f} separated "
                f"by {gap:.3e} < 2*tol"
            )
    return labels, reps


def _census(angles, classes):
    counts = Counter(c for row in classes for c in row)
    return tuple((angle, counts[c]) for c, angle in enumerate(angles)), len(angles)


def _bends(classes) -> int:
    return max((sum(a != b for a, b in zip(row, row[1:])) for row in classes), default=0)


def slope_census(dr: Drawing, tol: float = 1e-9):
    """Count the segments of each slope class of slope_classes.

    Returns (census, distinct) where census is a tuple of (angle, count),
    one per class, with angles ascending in [0, pi) clockwise from the
    upward vertical. Raises AmbiguousBucket as slope_classes does.
    """
    return _census(*slope_classes(dr, tol))


def max_bends(dr: Drawing, tol: float = 1e-9) -> int:
    """Largest bend count over edges: the number of slope-class changes
    along an edge, so consecutive pieces of one class merge. Raises
    AmbiguousBucket as slope_classes does."""
    return _bends(slope_classes(dr, tol)[1])


# --- per-vertex structure ---------------------------------------------------------


def _departures(dr: Drawing):
    """(vertex, other, dx, dy) for the first segment of each arc end."""
    out = []
    for a in dr.edges:
        p0, p1 = a.poly[0], a.poly[1]
        out.append((a.u, a.v, float(p1[0]) - float(p0[0]), float(p1[1]) - float(p0[1])))
        q0, q1 = a.poly[-1], a.poly[-2]
        out.append((a.v, a.u, float(q1[0]) - float(q0[0]), float(q1[1]) - float(q0[1])))
    return out


def check_contiguous(dr: Drawing, slopes: SlopeSet, tol: float = 1e-6):
    """Per-vertex: do the directed slots used by departing segments form one
    circular run? Raises SlopeOffGrid for a direction matching no slot."""
    slots: dict[int, set[int]] = {v: set() for v in dr.points}
    for v, other, dx, dy in _departures(dr):
        k = slopes.directed_index(dx, dy, tol)
        if k is None:
            ang = math.atan2(dx, dy) % (2 * math.pi)
            raise SlopeOffGrid(
                f"segment leaving {v} toward {other} at angle {ang:.12f} "
                f"matches no multiple of pi/{slopes.s}"
            )
        slots[v].add(k)
    return {v: slopes.is_contiguous(ks) for v, ks in slots.items()}


def check_rotation(dr: Drawing, rotation) -> list[int]:
    """Vertices whose drawn neighbor order (clockwise) disagrees with the
    given rotation system. Uses first-segment departure angles."""
    by_vertex: dict[int, list[tuple[float, int]]] = {v: [] for v in dr.points}
    for v, other, dx, dy in _departures(dr):
        by_vertex[v].append((math.atan2(dx, dy) % (2 * math.pi), other))
    bad = []
    for v, want in enumerate(rotation):
        got = [o for _, o in sorted(by_vertex.get(v, []))]
        if len(got) != len(want) or len(got) < 2:
            if tuple(got) != tuple(want):
                bad.append(v)
            continue
        w = list(want)
        if not any(w[i:] + w[:i] == got for i in range(len(w))):
            bad.append(v)
    return bad


def check_wedge(dr: Drawing, tol: float = 1e-9) -> bool | None:
    """Recompute wedge containment from drawing meta; None if no wedge."""
    w = dr.meta.get("wedge")
    if w is None:
        return None
    wedge = Wedge(tuple(w["apex"]), w["start"], w["span"])
    apex = (float(w["apex"][0]), float(w["apex"][1]))
    for a in dr.edges:
        for p in a.poly:
            fp = (float(p[0]), float(p[1]))
            if fp != apex and not wedge.contains(fp, tol):
                return False
    return True


# --- lower-bound family consistency ------------------------------------------------


@dataclass(frozen=True)
class GdReport:
    d: int
    distinct: int
    required: int
    lower_bound_ok: bool
    hub_multiplicity: dict[float, int] | None
    hub_multiplicity_ok: bool | None


def check_gd_claims(dr: Drawing, d: int, tol: float = 1e-9) -> GdReport:
    """Consistency checks for drawings of the degree-d lower-bound family.

    Straight-line drawings need at least 3d-6 distinct slopes; one-bend
    drawings at least ceil(3(d-1)/4). For one-bend drawings the end segments
    at the three degree-d hubs a, b, c (vertices 0, 1, 2) must not repeat any
    slope class more than 4 times; hub_multiplicity counts them per class
    angle. Slopes are the classes of slope_classes at tol.
    """
    angles, classes = slope_classes(dr, tol)
    bends = _bends(classes)
    required = 3 * d - 6 if bends == 0 else -(-3 * (d - 1) // 4)
    ok = len(angles) >= required

    hub_mult = None
    hub_ok = None
    if bends == 1:
        hub_mult = dict(Counter(
            angles[c]
            for a, row in zip(dr.edges, classes)
            for end, c in ((a.u, row[0]), (a.v, row[-1]))
            if end in (0, 1, 2)
        ))
        hub_ok = all(c <= 4 for c in hub_mult.values())
    return GdReport(d, len(angles), required, ok, hub_mult, hub_ok)


# --- polyline proximity ------------------------------------------------------------


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


# --- aggregate --------------------------------------------------------------------


def verify_drawing(
    dr: Drawing, slopes: SlopeSet | None = None, tol: float = 1e-9
) -> VerifyReport:
    crossing_free, witness = check_noncrossing(dr)
    angles, classes = slope_classes(dr, tol)
    census, distinct = _census(angles, classes)
    bends = _bends(classes)
    if slopes is None and dr.method == "twobend" and "s" in dr.meta:
        slopes = SlopeSet(dr.meta["s"])
    contiguity = None
    if slopes is not None:
        contiguity = check_contiguous(dr, slopes, max(tol, 1e-9))
    wedge_ok = check_wedge(dr, tol)
    return VerifyReport(
        crossing_free=crossing_free,
        crossing_witness=witness,
        slope_census=census,
        distinct_slopes=distinct,
        max_bends=bends,
        contiguity_ok=contiguity,
        wedge_ok=wedge_ok,
        exact=dr.coord_kind in ("int", "rational"),
        tolerance=tol,
    )
