"""Independent certification of drawings.

Every check here recomputes its answer from the polylines alone; nothing is
shared with the drawing pipelines beyond the primitive types. Crossings are
decided exactly for every coord_kind. A sort-and-sweep over bounding boxes
proposes the segment pairs to test, in ascending order. A float filter with
a proven error bound, which covers both the float arithmetic and the
rounding of the coordinates to float, settles in one numpy pass every pair
it can prove harmless; the rest are decided exactly on integers, each pair
scaled by the least common denominator of its own coordinates (float
coordinates are binary rationals), with no denominator common to the whole
drawing. Two segments that end at a vertex their edges share, matched by
vertex id, need one orientation test. One slope classification
(slope_classes) gives every segment its slope class, keyed by its primitive
integer direction; the census, the bend count and the hub multiplicities of
G_d all count those classes. Contiguity, rotation and wedge containment
read the same exact directions and side tests. No check has a tolerance: a
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
    float array of segment ends (px, py, qx, qy).

    Sort and sweep (_sweep): sorted along one axis, the boxes that start at
    or after a box and meet its range on that axis form one run, whose end
    searchsorted finds. The runs are expanded about _PAIR_BUDGET pairs at a
    time and filtered on the other axis. Boxes are taken on the floats
    nearest the coordinates; rounding to float is monotone, so boxes that
    meet exactly still meet after it.
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


def _orient_filtered(o, a, b):
    """(d, err): the float orientation of the points o, a, b, each a pair
    of float arrays (x, y), and a bound on its distance from the exact
    orientation of the exact points those floats were rounded from.

    Let u = 2^-53 and eta = 2^-1075, half the least subnormal. A coordinate
    c rounds to the float c~ with |c~ - c| <= u|c~| + eta; floats, and ints
    up to 2^53, are exact. With A = |a~x| + |o~x| the float difference
    a~x - o~x is off from ax - ox by at most 2uA + 2eta, and both are at
    most A(1 + u) + 2eta in size. With B = |b~y| + |o~y| likewise, the
    rounded product of the two differences is off from the exact one by at
    most (2uA + 2eta)B(1 + u) + (A(1 + u) + 2eta)(2uB + 2eta) for the
    inputs, uAB(1 + u)^2 for its own rounding and eta for underflow: below
    5uAB(1 + 3u) + 2.01eta(A + B) + 1.01eta. The other product, with C and
    D, is the same, and the final subtraction adds u(AB + CD)(1 + u)^3. So
    with T = AB + CD and S = A + B + C + D,
        |d~ - d| <= 6.01u T + 2.01eta S + 2.02eta.
    err = 2^-49 T~ + 2^-1072 (S~ + 1) covers this even though T~, S~ and
    err are computed in floats. 2^-49 = 16u leaves a factor 2.6 over 6.01u
    for their relative rounding. Underflow in T~ and in 2^-49 T~ loses
    less than 2eta, and since S~ + 1 >= 1 the product 2^-1072 (S~ + 1) is
    at least 7/8 of its exact value 8eta(S~ + 1), so the second term is
    above 2.01eta S + 2.02eta + 2eta. An input at +-inf makes err inf or
    NaN, and every comparison with it false.
    """
    (ox, oy), (ax, ay), (bx, by) = o, a, b
    d = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    mo_x, mo_y = np.abs(ox), np.abs(oy)
    sa = np.abs(ax) + mo_x
    sb = np.abs(by) + mo_y
    sc = np.abs(ay) + mo_y
    sd = np.abs(bx) + mo_x
    err = 2.0**-49 * (sa * sb + sc * sd) + 2.0**-1072 * (sa + sb + sc + sd + 1.0)
    return d, err


def _settled(ends, edge, head, tail, ii, jj):
    """(settled, turn) for the pairs (ii[k], jj[k]). settled masks the pairs
    that need no exact test: pairs of one edge, and pairs the float filter
    proves do not violate.

    A pair is proven apart when the filter proves d1 d2 > 0 or d3 d4 > 0
    (_exact_pair's orientations): one segment lies strictly on one side of
    the other's line. When the two segments end at one vertex of both
    edges, turn[k] names the orientation that says whether they turn there:
    4 (d4) if that vertex is j's first end, 3 (d3) if it is j's second end,
    i's first end matched before its second; turn[k] is 0 when they share
    no vertex end. Such a pair is settled when the filter proves that
    orientation nonzero.
    """
    out = np.empty(len(ii), bool)
    turn = np.zeros(len(ii), np.int8)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for k0 in range(0, len(ii), _FILTER_CHUNK):
            i, j = ii[k0 : k0 + _FILTER_CHUNK], jj[k0 : k0 + _FILTER_CHUNK]
            a, b = ends[i].T, ends[j].T
            p1, p2, p3, p4 = (a[0], a[1]), (a[2], a[3]), (b[0], b[1]), (b[2], b[3])
            d1, e1 = _orient_filtered(p3, p4, p1)
            d2, e2 = _orient_filtered(p3, p4, p2)
            d3, e3 = _orient_filtered(p1, p2, p3)
            d4, e4 = _orient_filtered(p1, p2, p4)
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
            out[k0 : k0 + _FILTER_CHUNK] = (edge[i] == edge[j]) | apart | turned
            turn[k0 : k0 + _FILTER_CHUNK] = np.where(on_d4, 4, np.where(on_d3, 3, 0))
    return out, turn


def _segments(dr: Drawing):
    """(ends, edge, first, head, tail) for the segments of dr, edge by edge:
    ends holds each segment's ends as floats (px, py, qx, qy), edge its edge
    index, and head and tail the numbers in dr.points of the vertices at its
    first and second end, -1 at a bend; first[e] is the number of edge e's
    first segment."""
    number = {v: k for k, v in enumerate(dr.points)}
    fpt = {v: (_float(x), _float(y)) for v, (x, y) in dr.points.items()}
    rows, nseg, hv, tv = [], [], [], []
    for a in dr.edges:
        fl = [fpt[a.u], *[(_float(x), _float(y)) for x, y in a.poly[1:-1]], fpt[a.v]]
        rows += [p + q for p, q in zip(fl, fl[1:])]
        nseg.append(len(fl) - 1)
        hv.append(number[a.u])
        tv.append(number[a.v])
    ends = np.array(rows, dtype=float).reshape(-1, 4)
    nseg = np.array(nseg, dtype=np.int64)
    last = np.cumsum(nseg)
    first = last - nseg
    edge = np.repeat(np.arange(len(nseg)), nseg)
    head = np.full(len(edge), -1)
    tail = np.full(len(edge), -1)
    head[first], tail[last - 1] = hv, tv
    return ends, edge, first, head, tail


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
    ascending segment order. A float filter (_settled) then tests them all
    at once: from the floats nearest the coordinates it computes the four
    orientations of each pair with a bound on their error, which covers
    both the float arithmetic and the rounding of the coordinates to float,
    and drops only pairs it proves harmless: segments of one edge, segments
    strictly apart, and two segments that both end at the point of a vertex
    their edges share (by vertex id, not by point) and turn there. The rest,
    in ascending order, are decided exactly on integers: each pair is
    scaled by the least common denominator of its own coordinates. Two
    segments ending at a shared vertex need one exact orientation, and every
    other pair, and a shared end with collinear segments, the full exact
    intersection test. The filter only removes non-violating pairs, so the
    first violation, the witness, does not depend on it or on the broad
    phase. A witness point beyond the float range reads +-inf.
    """
    ends, edge, first, head, tail = _segments(dr)
    ii, jj = _candidate_pairs(ends)
    settled, turn = _settled(ends, edge, head, tail, ii, jj)
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


def _dir_key(p, q):
    """The direction of q - p mod pi as a primitive integer vector (ix, iy)
    with ix > 0, or ix == 0 and iy > 0."""
    ix, iy = primitive_direction(p, q)
    if ix < 0 or (ix == 0 and iy < 0):
        return (-ix, -iy)
    return (ix, iy)


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
    class key is its primitive integer direction (_dir_key), exact for int,
    Fraction and float coordinates, and each distinct key gets one angle, so
    two keys whose angles round alike stay two classes.
    """
    labels = [_dir_key(p, q) for a in dr.edges for p, q in zip(a.poly, a.poly[1:])]
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


def _departures(dr: Drawing):
    """(vertex, other, direction) for the first segment of each arc end, the
    direction the exact primitive integer vector it leaves vertex along."""
    out = []
    for a in dr.edges:
        out.append((a.u, a.v, primitive_direction(a.poly[0], a.poly[1])))
        out.append((a.v, a.u, primitive_direction(a.poly[-1], a.poly[-2])))
    return out


def check_contiguous(dr: Drawing, slopes: SlopeSet):
    """Per-vertex: do the directed slots used by departing segments form one
    circular run? Raises SlopeOffGrid for a direction that is none of the
    set's 2s vectors."""
    slots: dict[int, set[int]] = {v: set() for v in dr.points}
    for v, other, d in _departures(dr):
        k = slopes.directed_index(*d)
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
    for v, other, d in _departures(dr):
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
    rel = [[(_exact(x) - ax, _exact(y) - ay) for x, y in a.poly] for a in dr.edges]
    if not all(_strictly_inside(p, r1, r2) for poly in rel for p in poly if any(p)):
        return False
    return _turn(r1, r2) > 0 or not any(
        _meets_ray(p, q, r) for poly in rel for p, q in zip(poly, poly[1:])
        if any(p) and any(q) for r in (r1, r2)
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
    angles, classes = slope_classes(dr)
    census, distinct = _census(angles, classes)
    bends = _bends(classes)
    if slopes is None and dr.method == "twobend" and "s" in dr.meta:
        slopes = SlopeSet(dr.meta["s"])
    contiguity = None
    if slopes is not None:
        contiguity = check_contiguous(dr, slopes)
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
