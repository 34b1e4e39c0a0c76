"""Independent certification of drawings.

Every check here recomputes its answer from the polylines alone; nothing is
shared with the drawing pipelines beyond the primitive types. Crossings are
decided exactly for every coord_kind. A sort-and-sweep over bounding boxes,
exact for int coordinates and on the nearest floats otherwise, proposes the
segment pairs to test, in ascending order. A float filter with a proven
error bound, which follows the coordinate differences and covers both the
float arithmetic and the rounding of the coordinates to float, settles in
one numpy pass every pair it can prove harmless; the rest are decided
exactly on integers, each pair scaled by the least common denominator of
its own coordinates (float coordinates are binary rationals), with no
denominator common to the whole drawing. Two segments that end at a vertex
their edges share, matched by vertex id, need one orientation test. Each
segment's primitive integer direction is computed once per verify_drawing:
one slope classification (slope_classes) keys every segment's slope class
by it, the census, the bend count and the hub multiplicities of G_d all
count those classes, and contiguity and rotation read the same exact
directions where segments leave their vertices. No check has a tolerance: a
drawing is checked as the exact numbers it holds, whatever its coord_kind,
so a float file is checked as the binary rationals its floats are, and a
direction rounded in its last bit is a slope of its own.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .drawing import Drawing, SlopeSet, primitive_direction
from .errors import SlopeOffGrid

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


def _float(c) -> float:
    """The float nearest the exact coordinate c, saturating at +-inf beyond
    the float range. Rounding stays monotone, so boxes that meet exactly
    still meet after it."""
    try:
        return c.numerator / c.denominator if type(c) is Fraction else float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


# Chunk sizes bound the numpy temporaries of the crossing check to a few MB;
# from 2**11 to 2**18 neither moves verify time beyond run-to-run spread.
_PAIR_BUDGET = 1 << 15  # run pairs _candidate_pairs expands at once
_FILTER_CHUNK = 1 << 12  # candidate pairs _settled tests at once


def _sweep(boxes):
    """(order, size, lo, hi) of a sweep along x or y, whichever one's runs
    hold fewer pairs, x on a tie: order sorts the boxes by their low edge on
    that axis, the run of position p holds the size[p] later boxes that
    start within it there, and lo, hi are the sorted boxes' other extents."""
    m = len(boxes)
    lo = np.minimum(boxes[:, :2], boxes[:, 2:])
    hi = np.maximum(boxes[:, :2], boxes[:, 2:])
    sweeps = []
    for axis in (0, 1):
        order = np.argsort(lo[:, axis], kind="stable")
        size = np.searchsorted(lo[order, axis], hi[order, axis], "right") - np.arange(1, m + 1)
        sweeps.append((int(size.sum()), axis, order, size))
    _, axis, order, size = min(sweeps, key=lambda sw: sw[:2])
    return order, size, lo[order, 1 - axis], hi[order, 1 - axis]


def _candidate_pairs(boxes):
    """Index arrays (ii, jj), ii < jj, in ascending order of (i, j), of the
    segment pairs whose closed bounding boxes overlap; boxes is an (m, 4)
    array of segment ends (px, py, qx, qy), as keys that order like the
    coordinates (_segments: exact int keys, or floats, whose rounding is
    monotone, so boxes that meet exactly still meet on them).

    Sort and sweep (_sweep): sorted along one axis, the boxes that start at
    or after a box and meet its range on that axis form one run, whose end
    searchsorted finds. The runs are expanded about _PAIR_BUDGET pairs at a
    time and filtered on the other axis.
    """
    m = len(boxes)
    if m < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    order, size, lo, hi = _sweep(boxes)
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
        keep = (lo[a] <= hi[b]) & (hi[a] >= lo[b])
        a, b = order[a[keep]], order[b[keep]]
        out_i.append(np.minimum(a, b))
        out_j.append(np.maximum(a, b))
        p0 = p1
    ii, jj = np.concatenate(out_i), np.concatenate(out_j)
    asc = np.argsort(ii * m + jj)
    return ii[asc], jj[asc]


def _orient_filtered(o, a, b, m, dot=False):
    """(d, err): the float orientation of the points o, a, b, each a pair
    of float arrays (x, y), or with dot their dot product (a - o).(b - o),
    and a bound on its distance from the exact value at the exact points
    those floats were rounded from, given that every exact coordinate lies
    within m of its float.

    Let u = 2^-53 and eta = 2^-1075, half the least subnormal. The float
    differences X = a~x - o~x, Y = a~y - o~y, X' = b~x - o~x, Y' = b~y - o~y
    are each off from the exact differences by at most u|X| + 2m (float
    subtraction is exact where it underflows). So the exact product of two
    of them, say XY', is off from the exact one by at most
    (2u + u^2)|XY'| + 2m(1 + u)(|X| + |Y'|) + 4m^2, and its rounding adds
    u|XY'| + eta. With P = |XY'| + |YX'| (|XX'| + |YY'| for dot) and
    S = |X| + |Y| + |X'| + |Y'|, and the final subtraction or addition
    adding u(1 + u)P + 2u eta,
        |d~ - d| <= (4u + 2u^2) P + 2(1 + u) m S + 8m^2 + 2.01eta.
    err = 2^-50 P~ + 4m (S~ + 4m) + 2^-1072 covers this although P~, S~
    and err are computed in floats. 2^-50 = 8u and 4m(S + 4m) are about
    twice the P and m terms of the bound, which leaves far more than the
    relative rounding, under 10u, of the few float operations. Underflow in
    the products that make P~, in 2^-50 P~ and in 4m(...) loses at most
    4eta; while the sum is subnormal, float addition is exact and the last
    term, 8eta, covers that and the 2.01eta of the bound, and once it is
    normal the spare half of its P and m terms does. The bound follows the
    differences, not the coordinates: a short segment far from the origin
    keeps a small err. An input at +-inf, or m = inf, makes err inf or NaN,
    and every comparison with it false.
    """
    (ox, oy), (ax, ay), (bx, by) = o, a, b
    x, y, x2, y2 = ax - ox, ay - oy, bx - ox, by - oy
    if dot:
        t, t2 = x * x2, y * y2
        d = t + t2
    else:
        t, t2 = x * y2, y * x2
        d = t - t2
    s = np.abs(x) + np.abs(y) + np.abs(x2) + np.abs(y2)
    err = 2.0**-50 * (np.abs(t) + np.abs(t2)) + 4.0 * m * (s + 4.0 * m) + 2.0**-1072
    return d, err


def _settled(ends, rho, edge, head, tail, ii, jj):
    """(settled, turn) for the pairs (ii[k], jj[k]). settled masks the pairs
    that need no exact test: pairs of one edge, and pairs the float filter
    proves do not violate. rho[s] bounds how far each exact coordinate of
    segment s lies from its float in ends.

    A pair is proven apart when the filter proves d1 d2 > 0 or d3 d4 > 0
    (_exact_pair's orientations): one segment lies strictly on one side of
    the other's line. When the two segments end at one vertex of both
    edges, turn[k] names the orientation that says whether they turn there:
    4 (d4) if that vertex is j's first end, 3 (d3) if it is j's second end,
    i's first end matched before its second; turn[k] is 0 when they share
    no vertex end. Such a pair is settled when the filter proves that
    orientation nonzero, or, for the pairs left, proves that the two
    segments point apart from that vertex (their directions' dot product
    negative): either way they meet only there.
    """
    out = np.empty(len(ii), bool)
    turn = np.zeros(len(ii), np.int8)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for k0 in range(0, len(ii), _FILTER_CHUNK):
            i, j = ii[k0 : k0 + _FILTER_CHUNK], jj[k0 : k0 + _FILTER_CHUNK]
            a, b = ends[i].T, ends[j].T
            m = np.maximum(rho[i], rho[j])
            p1, p2, p3, p4 = (a[0], a[1]), (a[2], a[3]), (b[0], b[1]), (b[2], b[3])
            d1, e1 = _orient_filtered(p3, p4, p1, m)
            d2, e2 = _orient_filtered(p3, p4, p2, m)
            d3, e3 = _orient_filtered(p1, p2, p3, m)
            d4, e4 = _orient_filtered(p1, p2, p4, m)
            s1, s2 = np.abs(d1) > e1, np.abs(d2) > e2
            s3, s4 = np.abs(d3) > e3, np.abs(d4) > e4
            apart = (s1 & s2 & ((d1 > 0) == (d2 > 0))) | (s3 & s4 & ((d3 > 0) == (d4 > 0)))
            hi, ti, hj, tj = head[i], tail[i], head[j], tail[j]
            c0 = (hi >= 0) & (hi == hj)
            c1 = (hi >= 0) & (hi == tj)
            c2 = (ti >= 0) & (ti == hj)
            c3 = (ti >= 0) & (ti == tj)
            on_d4 = c0 | (~c1 & c2)
            on_d3 = ~c0 & (c1 | (~c2 & c3))
            turned = (on_d4 & s4) | (on_d3 & s3)
            done = (edge[i] == edge[j]) | apart | turned
            # the dot product from the shared vertex, only where still open
            k = np.flatnonzero(~done & (on_d4 | on_d3))
            if len(k):
                at_p1, far_p4 = (c0 | c1)[k], on_d4[k]
                ak, bk = a[:, k], b[:, k]
                o = (np.where(at_p1, ak[0], ak[2]), np.where(at_p1, ak[1], ak[3]))
                p = (np.where(at_p1, ak[2], ak[0]), np.where(at_p1, ak[3], ak[1]))
                q = (np.where(far_p4, bk[2], bk[0]), np.where(far_p4, bk[3], bk[1]))
                dot, err = _orient_filtered(o, p, q, m[k], dot=True)
                done[k] = dot < -err
            out[k0 : k0 + _FILTER_CHUNK] = done
            turn[k0 : k0 + _FILTER_CHUNK] = np.where(on_d4, 4, np.where(on_d3, 3, 0))
    return out, turn


def _int_boxes(rows):
    """(boxes, ends) for rows of int segment ends (px, py, qx, qy): boxes
    orders and equates like the ints, as int64 when all fit and else as
    their ranks among the distinct ints, and ends holds the nearest floats."""
    try:
        boxes = np.array(rows, dtype=np.int64).reshape(-1, 4)
        return boxes, boxes.astype(float)
    except OverflowError:
        _, rank = np.unique(np.array(rows, dtype=object), return_inverse=True)
        ends = np.array([_float(c) for r in rows for c in r]).reshape(-1, 4)
        return rank.reshape(-1, 4), ends


def _segments(dr: Drawing):
    """(ends, boxes, rho, edge, first, head, tail) for the segments of dr,
    edge by edge: ends holds each segment's ends as floats (px, py, qx, qy),
    boxes the same ends as sweep keys, rho a bound on how far each exact
    coordinate of the segment lies from its float, edge its edge index, and
    head and tail the numbers in dr.points of the vertices at its first and
    second end, -1 at a bend; first[e] is the number of edge e's first
    segment.

    When every coordinate is an int the keys are exact (_int_boxes);
    otherwise they are the floats themselves. rho is 0 for a segment of
    ints whose floats all lie below 2^53 in magnitude: only an int below
    2^53 rounds there, and floats hold those exactly (2^53 + 1 rounds to
    2^53, so a float of 2^53 does not say its int is exact). Otherwise rho
    is 2^-52|c~| + 2^-1074 for its largest float c~, above the u|c~| + eta
    by which rounding moves any of its coordinates (_orient_filtered)."""
    ints = all(type(c) is int for p in dr.points.values() for c in p) and all(
        type(c) is int for a in dr.edges for p in a.poly[1:-1] for c in p
    )
    conv = tuple if ints else (lambda p: (_float(p[0]), _float(p[1])))
    number = {v: k for k, v in enumerate(dr.points)}
    pt = {v: conv(p) for v, p in dr.points.items()}
    rows, nseg, hv, tv = [], [], [], []
    for a in dr.edges:
        pl = [pt[a.u], *map(conv, a.poly[1:-1]), pt[a.v]]
        rows += [p + q for p, q in zip(pl, pl[1:])]
        nseg.append(len(pl) - 1)
        hv.append(number[a.u])
        tv.append(number[a.v])
    if ints:
        boxes, ends = _int_boxes(rows)
    else:
        boxes = ends = np.array(rows, dtype=float).reshape(-1, 4)
    mag = np.abs(ends).max(axis=1, initial=0.0)
    rho = 2.0**-52 * mag + 2.0**-1074
    if ints:
        rho[mag < 2.0**53] = 0.0
    nseg = np.array(nseg, dtype=np.int64)
    last = np.cumsum(nseg)
    first = last - nseg
    edge = np.repeat(np.arange(len(nseg)), nseg)
    head = np.full(len(edge), -1)
    tail = np.full(len(edge), -1)
    head[first], tail[last - 1] = hv, tv
    return ends, boxes, rho, edge, first, head, tail


def _lift_pair(p1, p2, p3, p4):
    """(den, points): den is the least common denominator of the
    coordinates of p1..p4 (floats are binary rationals), and the points are
    scaled by it to integers."""
    ratios = [c.as_integer_ratio() for p in (p1, p2, p3, p4) for c in p]
    den = math.lcm(*(q for _, q in ratios))
    z = [n * (den // q) for n, q in ratios]
    return den, ((z[0], z[1]), (z[2], z[3]), (z[4], z[5]), (z[6], z[7]))


def _lifts_to(p, den, x, y) -> bool:
    """Whether the point p scaled by den is exactly (x, y)."""
    (nx, qx), (ny, qy) = p[0].as_integer_ratio(), p[1].as_integer_ratio()
    return x * qx == nx * den and y * qy == ny * den


def check_noncrossing(dr: Drawing):
    """(crossing_free, witness). Arcs of different edges may meet only at a
    shared endpoint; collinear overlap is a violation. Decided exactly for
    every coord_kind.

    Candidate pairs come from a sort-and-sweep over bounding boxes, in
    ascending segment order. The boxes are exact when every coordinate is
    an int (int64 keys, or ranks past int64), so deep blocks whose ints
    pass the float range or fall below float spacing stay apart; otherwise
    they are taken on the nearest floats. A float filter (_settled) then
    tests the pairs at once: from the floats nearest the coordinates it
    computes the four orientations of each pair with a bound on their error
    that follows the coordinate differences, covering both the float
    arithmetic and the rounding of the coordinates to float, and drops only
    pairs it proves harmless: segments of one edge, segments strictly
    apart, and two segments that both end at the point of a vertex their
    edges share (by vertex id, not by point) and turn there or point apart
    from it. The rest, in ascending order, are decided exactly on integers:
    each pair is scaled by the least common denominator of its own
    coordinates. Two segments ending at a shared vertex need one exact
    orientation, and every other pair, and a shared end with collinear
    segments, the full exact intersection test. The filter only removes
    non-violating pairs, and every violating pair's boxes meet, so the
    first violation, the witness, does not depend on the filter or on the
    broad phase. A witness point beyond the float range reads +-inf.
    """
    ends, boxes, rho, edge, first, head, tail = _segments(dr)
    ii, jj = _candidate_pairs(boxes)
    settled, turn = _settled(ends, rho, edge, head, tail, ii, jj)
    todo = ~settled

    def seg(k):
        ek = int(edge[k])
        sk = k - int(first[ek])
        a = dr.edges[ek]
        return ek, sk, a.poly[sk], a.poly[sk + 1]

    for i, j, t in zip(ii[todo].tolist(), jj[todo].tolist(), turn[todo].tolist()):
        ei, si, p1, p2 = seg(i)
        ej, sj, p3, p4 = seg(j)
        # int coordinates are their own lift; the types decide it, as a
        # drawing's coord_kind does not bind its coordinates
        if (
            int is type(p1[0]) is type(p1[1]) is type(p2[0]) is type(p2[1])
            is type(p3[0]) is type(p3[1]) is type(p4[0]) is type(p4[1])
        ):
            den = 1
        else:
            den, (p1, p2, p3, p4) = _lift_pair(p1, p2, p3, p4)
        # at a shared vertex only the sign's zeroness counts, and
        # _orient(p2, p1, x) = -_orient(p1, p2, x)
        if t and _orient(p1, p2, p4 if t == 4 else p3):
            continue
        hit = _exact_pair(p1, p2, p3, p4)
        if hit is None:
            continue
        kind, wx, wy = hit
        ea, eb = dr.edges[ei], dr.edges[ej]
        shared = {ea.u, ea.v} & {eb.u, eb.v}
        if kind == "point" and any(_lifts_to(dr.points[v], den, wx, wy) for v in shared):
            continue
        where = (_float(Fraction(wx, den)), _float(Fraction(wy, den)))
        return False, CrossingWitness((ea.u, ea.v), si, (eb.u, eb.v), sj, where)
    return True, None


# --- slopes -----------------------------------------------------------------------


def _directions(dr: Drawing):
    """The exact primitive integer direction (primitive_direction) of every
    segment of dr, edge by edge and in order along each edge; every check
    of slopes and departures reads these."""
    return [primitive_direction(p, q) for a in dr.edges for p, q in zip(a.poly, a.poly[1:])]


def _dir_angle(ix: int, iy: int) -> float:
    """The angle of the integer direction (ix, iy) mod pi, clockwise from
    the upward vertical; a direction beyond the float range is shifted down
    until it fits."""
    shift = max(abs(ix).bit_length(), abs(iy).bit_length()) - 1000
    if shift > 0:
        ix, iy = ix >> shift, iy >> shift
    return math.atan2(ix, iy) % math.pi


def slope_classes(dr: Drawing):
    """(angles, classes): the slope classes of every segment direction mod pi.

    angles holds one angle per class, ascending in [0, pi) and measured
    clockwise from the upward vertical; classes holds, per edge of dr.edges,
    the class id (an index into angles) of each of its segments. A segment's
    class key is its primitive integer direction mod pi, exact for int,
    Fraction and float coordinates, and each distinct key gets one angle, so
    two keys whose angles round alike stay two classes.
    """
    return _slope_classes(dr, _directions(dr))


def _slope_classes(dr: Drawing, dirs):
    """slope_classes of dr, whose segment directions are dirs."""
    # the direction mod pi: the one of d, -d with ix > 0, or ix == 0 and iy > 0
    labels = [(-d[0], -d[1]) if d[0] < 0 or (d[0] == 0 and d[1] < 0) else d for d in dirs]
    # one angle per key, keys in first-seen order (the sort's tie-break)
    reps = {k: _dir_angle(*k) for k in dict.fromkeys(labels)}
    counts = Counter(labels)
    order = sorted(reps, key=lambda c: (reps[c], counts[c]))
    rank = {c: i for i, c in enumerate(order)}
    flat = iter(labels)
    classes = [tuple(rank[next(flat)] for _ in a.poly[1:]) for a in dr.edges]
    return tuple(reps[c] for c in order), classes


def _census(angles, classes):
    counts = Counter(c for row in classes for c in row)
    return tuple((angle, counts[c]) for c, angle in enumerate(angles)), len(angles)


def _bends(classes) -> int:
    return max((sum(a != b for a, b in zip(row, row[1:])) for row in classes), default=0)


def slope_census(dr: Drawing):
    """Count the segments of each slope class of slope_classes.

    Returns (census, distinct) where census is a tuple of (angle, count),
    one per class, with angles ascending in [0, pi) clockwise from the
    upward vertical.
    """
    return _census(*slope_classes(dr))


def max_bends(dr: Drawing) -> int:
    """Largest bend count over edges: the number of slope-class changes
    along an edge, so consecutive pieces of one class merge."""
    return _bends(slope_classes(dr)[1])


# --- per-vertex structure ---------------------------------------------------------


def _departures(dr: Drawing, dirs):
    """(vertex, other, direction) for the first segment of each arc end, the
    direction the exact primitive integer vector it leaves vertex along;
    dirs is _directions(dr)."""
    first = 0
    for a in dr.edges:
        last = first + len(a.poly) - 2
        x, y = dirs[last]
        yield a.u, a.v, dirs[first]
        yield a.v, a.u, (-x, -y)
        first = last + 1


def check_contiguous(dr: Drawing, slopes: SlopeSet):
    """Per-vertex: do the directed slots used by departing segments form one
    circular run? Raises SlopeOffGrid for a direction that is none of the
    set's 2s vectors."""
    return _contiguous(dr, _directions(dr), slopes)


def _contiguous(dr: Drawing, dirs, slopes: SlopeSet):
    """check_contiguous of dr, whose segment directions are dirs."""
    slots: dict[int, set[int]] = {v: set() for v in dr.points}
    for v, other, d in _departures(dr, dirs):
        k = slopes._index.get(d)
        if k is None:
            vectors = [slopes.vector(j) for j in range(2 * slopes.s)]
            raise SlopeOffGrid(
                f"segment leaving {v} toward {other} along {d} is none of the "
                f"{2 * slopes.s} directions {vectors} of SlopeSet({slopes.s})"
            )
        slots[v].add(k)
    return {v: slopes.is_contiguous(ks) for v, ks in slots.items()}


def _turn(a, b):
    """Positive iff b is clockwise of a by less than pi, zero iff parallel."""
    return a[1] * b[0] - a[0] * b[1]


def _clockwise(a, b) -> int:
    """Compares two nonzero directions by their clockwise angle from up:
    first by half-plane, [0, pi) before [pi, 2pi), then by _turn."""
    ha = a[0] < 0 or (a[0] == 0 and a[1] < 0)
    hb = b[0] < 0 or (b[0] == 0 and b[1] < 0)
    return ha - hb or -_turn(a, b)


def check_rotation(dr: Drawing, rotation) -> list[int]:
    """Vertices whose drawn neighbor order (clockwise) disagrees with the
    given rotation system, read from the exact first-segment directions;
    neighbors leaving along one direction are ordered by id."""
    by_vertex: dict[int, list[tuple[tuple[int, int], int]]] = {v: [] for v in dr.points}
    for v, other, d in _departures(dr, _directions(dr)):
        by_vertex[v].append((d, other))
    order = functools.cmp_to_key(lambda a, b: _clockwise(a[0], b[0]) or a[1] - b[1])
    bad = []
    for v, want in enumerate(rotation):
        got = [o for _, o in sorted(by_vertex.get(v, []), key=order)]
        if len(got) != len(want) or len(got) < 2:
            if tuple(got) != tuple(want):
                bad.append(v)
            continue
        w = list(want)
        if not any(w[i:] + w[:i] == got for i in range(len(w))):
            bad.append(v)
    return bad


def _is_pair(x, ok) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 2 and all(map(ok, x))


def _exact(c):
    return c if type(c) is int else Fraction(c)


def _wedge_fields(w):
    """(apex, rays) of a meta wedge {"apex": [x, y], "rays": [[ax, ay],
    [bx, by]]}, the apex in exact numbers; raises ValueError naming the
    field that is missing or malformed."""
    apex = w.get("apex") if isinstance(w, dict) else None
    if not _is_pair(apex, lambda c: type(c) in (int, float, Fraction)):
        raise ValueError(f"meta wedge field 'apex' must be a pair of numbers, got {apex!r}")
    rays = w.get("rays")
    if not _is_pair(rays, lambda r: _is_pair(r, lambda c: type(c) is int) and any(r)):
        raise ValueError(
            f"meta wedge field 'rays' must be two nonzero integer pairs, got {rays!r}"
        )
    return tuple(map(_exact, apex)), tuple(map(tuple, rays))


def _strictly_inside(v, a, b) -> bool:
    """Whether v points strictly inside the cone turning clockwise from ray
    a to ray b."""
    if _turn(a, b) > 0:
        return _turn(a, v) > 0 and _turn(v, b) > 0
    return _turn(a, v) > 0 or _turn(v, b) > 0


def _meets_ray(p, q, w) -> bool:
    """Whether the segment pq, both ends off the line of w, crosses that
    line on the ray from the origin along w: at x with dot(x, w) >= 0, where
    dot(x, w) (cp - cq) = cp dot(q, w) - cq dot(p, w)."""
    cp, cq = _turn(w, p), _turn(w, q)
    return cp * cq < 0 and (
        cp * (q[0] * w[0] + q[1] * w[1]) - cq * (p[0] * w[0] + p[1] * w[1])
    ) * (cp - cq) >= 0


def check_wedge(dr: Drawing) -> bool | None:
    """Whether the drawing lies strictly inside the wedge of its meta, None
    if it declares none: every polyline point but the apex points strictly
    inside the cone turning clockwise from the first integer ray to the
    second, and, where that cone is wider than pi, no segment meets a ray.
    Decided exactly; raises ValueError for a malformed wedge."""
    w = dr.meta.get("wedge")
    if w is None:
        return None
    (ax, ay), (r1, r2) = _wedge_fields(w)
    # each distinct point once: a vertex's point ends every edge at it
    pts = dict.fromkeys(p for a in dr.edges for p in a.poly)
    rel = {p: (_exact(p[0]) - ax, _exact(p[1]) - ay) for p in pts}
    if not all(_strictly_inside(v, r1, r2) for v in rel.values() if any(v)):
        return False
    return _turn(r1, r2) > 0 or not any(
        _meets_ray(rel[p], rel[q], r) for a in dr.edges for p, q in zip(a.poly, a.poly[1:])
        if any(rel[p]) and any(rel[q]) for r in (r1, r2)
    )


# --- lower-bound family consistency ------------------------------------------------


@dataclass(frozen=True)
class GdReport:
    d: int
    distinct: int
    required: int
    lower_bound_ok: bool
    hub_multiplicity: dict[int, int] | None
    hub_multiplicity_ok: bool | None


def check_gd_claims(dr: Drawing, d: int) -> GdReport:
    """Consistency checks for drawings of the degree-d lower-bound family.

    Straight-line drawings need at least 3d-6 distinct slopes; one-bend
    drawings at least ceil(3(d-1)/4). For one-bend drawings the end segments
    at the three degree-d hubs a, b, c (vertices 0, 1, 2) must not repeat any
    slope class more than 4 times; hub_multiplicity counts them per class,
    keyed by its id in slope_classes, whose classes are the slopes.
    """
    angles, classes = slope_classes(dr)
    bends = _bends(classes)
    required = 3 * d - 6 if bends == 0 else -(-3 * (d - 1) // 4)
    ok = len(angles) >= required

    hub_mult = None
    hub_ok = None
    if bends == 1:
        hub_mult = dict(Counter(
            c for a, row in zip(dr.edges, classes)
            for end, c in ((a.u, row[0]), (a.v, row[-1]))
            if end in (0, 1, 2)
        ))
        hub_ok = all(c <= 4 for c in hub_mult.values())
    return GdReport(d, len(angles), required, ok, hub_mult, hub_ok)


# --- aggregate --------------------------------------------------------------------


def verify_drawing(dr: Drawing, slopes: SlopeSet | None = None) -> VerifyReport:
    crossing_free, witness = check_noncrossing(dr)
    dirs = _directions(dr)
    angles, classes = _slope_classes(dr, dirs)
    census, distinct = _census(angles, classes)
    bends = _bends(classes)
    if slopes is None and dr.method == "twobend" and "s" in dr.meta:
        slopes = SlopeSet(dr.meta["s"])
    contiguity = None
    if slopes is not None:
        contiguity = _contiguous(dr, dirs, slopes)
    wedge_ok = check_wedge(dr)
    return VerifyReport(
        crossing_free=crossing_free,
        crossing_witness=witness,
        slope_census=census,
        distinct_slopes=distinct,
        max_bends=bends,
        contiguity_ok=contiguity,
        wedge_ok=wedge_ok,
    )
