"""Independent drawing verifier: crossings, census, contiguity, claims."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import bench_instances, capped_planar, hausdorff_within
from fewslopes import verify
from fewslopes.drawing import Drawing, EdgeArc, SlopeSet
from fewslopes.errors import SlopeOffGrid
from fewslopes.families import gen_gd, gen_octahedron, gen_random_triangulation
from fewslopes.onebend import draw_onebend
from fewslopes.straightline import draw_straight
from fewslopes.twobend import draw_twobend
from fewslopes.verify import (
    CrossingWitness,
    VerifyReport,
    _candidate_pairs,
    _exact_pair,
    check_contiguous,
    check_gd_claims,
    check_noncrossing,
    check_rotation,
    check_wedge,
    max_bends,
    slope_census,
    slope_classes,
    verify_drawing,
)


def mk(points, polys, kind="int"):
    pts = {i: tuple(p) for i, p in enumerate(points)}
    arcs = tuple(EdgeArc(u, v, tuple(map(tuple, poly))) for u, v, poly in polys)
    return Drawing("custom", pts, arcs, kind, {})


# ported float brute force: proper crossings and improper touches both count
def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _proper(p1, p2, p3, p4, eps=1e-9):
    la = max(math.hypot(p4[0] - p3[0], p4[1] - p3[1]), 1e-300)
    lb = max(math.hypot(p2[0] - p1[0], p2[1] - p1[1]), 1e-300)
    d1 = _cross(p3, p4, p1) / la
    d2 = _cross(p3, p4, p2) / la
    d3 = _cross(p1, p2, p3) / lb
    d4 = _cross(p1, p2, p4) / lb
    return ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
        (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
    )


def _on_seg(p, a, b, eps=1e-9):
    ln = math.hypot(b[0] - a[0], b[1] - a[1])
    scale = 1 + max(abs(c) for q in (a, b, p) for c in q)
    if abs(_cross(a, b, p)) > eps * scale * max(ln, 1e-300):
        return False
    return (
        min(a[0], b[0]) - eps <= p[0] <= max(a[0], b[0]) + eps
        and min(a[1], b[1]) - eps <= p[1] <= max(a[1], b[1]) + eps
    )


def brute_noncrossing(dr) -> bool:
    segs = []
    for ai, a in enumerate(dr.edges):
        for i in range(len(a.poly) - 1):
            p = tuple(map(float, a.poly[i]))
            q = tuple(map(float, a.poly[i + 1]))
            segs.append((p, q, a.u, a.v, ai))
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            p1, p2, u1, v1, a1 = segs[i]
            p3, p4, u2, v2, a2 = segs[j]
            if a1 == a2:
                continue
            if _proper(p1, p2, p3, p4):
                return False
            ok_pts = {
                tuple(map(float, dr.points[w])) for w in {u1, v1} & {u2, v2}
            }
            for p, a, b in ((p1, p3, p4), (p2, p3, p4), (p3, p1, p2), (p4, p1, p2)):
                if _on_seg(p, a, b) and p not in ok_pts:
                    return False
    return True


class TestNoncrossing:
    def test_plain_crossing_with_exact_witness(self):
        dr = mk(
            [(0, 0), (1, 1), (0, 1), (1, 0)],
            [(0, 1, [(0, 0), (1, 1)]), (2, 3, [(0, 1), (1, 0)])],
        )
        ok, w = check_noncrossing(dr)
        assert not ok
        assert w.where == (0.5, 0.5)

    def test_float_regime_same_answer(self):
        dr = mk(
            [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)],
            [(0, 1, [(0.0, 0.0), (1.0, 1.0)]), (2, 3, [(0.0, 1.0), (1.0, 0.0)])],
            kind="float",
        )
        ok, w = check_noncrossing(dr)
        assert not ok
        assert w.where == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_shared_vertex_is_not_a_crossing(self):
        dr = mk(
            [(0, 0), (1, 0), (2, 1)],
            [(0, 1, [(0, 0), (1, 0)]), (1, 2, [(1, 0), (2, 1)])],
        )
        ok, w = check_noncrossing(dr)
        assert ok and w is None

    def test_collinear_overlap_flagged(self):
        dr = mk(
            [(0, 0), (2, 0), (1, 0), (3, 0)],
            [(0, 1, [(0, 0), (2, 0)]), (2, 3, [(1, 0), (3, 0)])],
        )
        ok, w = check_noncrossing(dr)
        assert not ok

    def test_endpoint_touch_interior_flagged(self):
        dr = mk(
            [(0, 0), (2, 0), (1, 0), (1, 1)],
            [(0, 1, [(0, 0), (2, 0)]), (2, 3, [(1, 0), (1, 1)])],
        )
        ok, _ = check_noncrossing(dr)
        assert not ok

    # the gap sizes are the two tolerances the verifier once took: crossings
    # are exact, so parallel segments that far apart are clear either way
    @pytest.mark.parametrize("gap", [1e-9, 1e-3])
    def test_float_parallel_near_miss_clear_at_any_tol(self, gap):
        dr = mk(
            [(0.0, 0.0), (1.0, 0.0), (0.0, gap), (1.0, gap)],
            [(0, 1, [(0.0, 0.0), (1.0, 0.0)]), (2, 3, [(0.0, gap), (1.0, gap)])],
            kind="float",
        )
        assert check_noncrossing(dr) == (True, None)
        assert verify_drawing(dr).crossing_free

    def test_float_t_junction_flagged_exactly(self):
        # (0.5, 0.25) lies exactly on the first segment, away from its ends
        dr = mk(
            [(0.0, 0.0), (0.75, 0.375), (0.5, 0.25), (0.5, 1.0)],
            [(0, 1, [(0.0, 0.0), (0.75, 0.375)]), (2, 3, [(0.5, 0.25), (0.5, 1.0)])],
            kind="float",
        )
        ok, w = check_noncrossing(dr)
        assert not ok
        assert w.where == (0.5, 0.25)

    def test_glued_twobend_blocks_are_clear(self):
        # glued child blocks far smaller than tol * max|coord| used to be
        # reported as crossing by a scale-relative float epsilon
        dr = draw_twobend(capped_planar(250, 0, 8))
        assert check_noncrossing(dr) == (True, None)

    @pytest.mark.parametrize(
        "dr",
        [
            draw_straight(gen_random_triangulation(20, 0)),
            draw_onebend(gen_random_triangulation(20, 1)),
            draw_twobend(gen_random_triangulation(20, 2)),
            draw_twobend(gen_octahedron()),
        ],
        ids=["straight", "onebend", "twobend", "octa"],
    )
    def test_agrees_with_brute_force_on_clean_drawings(self, dr):
        ok, _ = check_noncrossing(dr)
        assert ok
        assert brute_noncrossing(dr)

    def test_agrees_with_brute_force_on_crossing(self):
        dr = mk(
            [(0, 0), (4, 4), (0, 4), (4, 0)],
            [(0, 1, [(0, 0), (4, 4)]), (2, 3, [(0, 4), (4, 0)])],
        )
        assert not check_noncrossing(dr)[0]
        assert not brute_noncrossing(dr)


def matrix_pairs(boxes):
    """Reference broad phase: the full m x m box-overlap matrix."""
    lox = np.minimum(boxes[:, 0], boxes[:, 2])
    hix = np.maximum(boxes[:, 0], boxes[:, 2])
    loy = np.minimum(boxes[:, 1], boxes[:, 3])
    hiy = np.maximum(boxes[:, 1], boxes[:, 3])
    ox = (lox[:, None] <= hix[None, :]) & (hix[:, None] >= lox[None, :])
    oy = (loy[:, None] <= hiy[None, :]) & (hiy[:, None] >= loy[None, :])
    ii, jj = np.nonzero(ox & oy)
    keep = ii < jj
    return list(zip(ii[keep].tolist(), jj[keep].tolist()))


def as_list(pairs):
    """The index arrays (ii, jj) of _candidate_pairs as a list of (i, j)."""
    ii, jj = pairs
    return list(zip(ii.tolist(), jj.tolist()))


def pairwise_noncrossing(dr):
    """Reference crossing check: every pair of segments, ascending, lifted
    through Fraction points."""
    segs = [
        (ei, si, p, q)
        for ei, a in enumerate(dr.edges)
        for si, (p, q) in enumerate(zip(a.poly, a.poly[1:]))
    ]
    den = math.lcm(*{Fraction(c).denominator for a in dr.edges for p in a.poly for c in p})

    def lift(p):
        return (int(Fraction(p[0]) * den), int(Fraction(p[1]) * den))

    for i, (ei, si, p1, p2) in enumerate(segs):
        for ej, sj, p3, p4 in segs[i + 1 :]:
            if ei == ej:
                continue
            hit = _exact_pair(lift(p1), lift(p2), lift(p3), lift(p4))
            if hit is None:
                continue
            kind, wx, wy = hit
            ea, eb = dr.edges[ei], dr.edges[ej]
            shared = {ea.u, ea.v} & {eb.u, eb.v}
            if kind == "point" and any(lift(dr.points[v]) == (wx, wy) for v in shared):
                continue
            where = (float(Fraction(wx, den)), float(Fraction(wy, den)))
            return False, CrossingWitness((ea.u, ea.v), si, (eb.u, eb.v), sj, where)
    return True, None


def seg_boxes(dr):
    return np.array(
        [[float(p[0]), float(p[1]), float(q[0]), float(q[1])]
         for a in dr.edges for p, q in zip(a.poly, a.poly[1:])]
    )


def random_drawing(rng, kind):
    """Polylines on a small grid between random vertices: many touching
    boxes, axis-parallel pieces, shared vertices, vertices drawn at one
    point, crossings and overlaps."""
    scale = {"int": 1, "rational": Fraction(1, 3), "float": 0.25}[kind]
    nv = rng.randint(3, 9)
    pts = {v: (rng.randint(0, 6) * scale, rng.randint(0, 6) * scale) for v in range(nv)}
    arcs, used = [], set()
    for _ in range(rng.randint(2, 12)):
        u, v = sorted(rng.sample(range(nv), 2))
        if (u, v) in used:
            continue
        bends = [(rng.randint(0, 6) * scale, rng.randint(0, 6) * scale)
                 for _ in range(rng.randint(0, 2))]
        poly = [pts[u], *bends, pts[v]]
        if all(p != q for p, q in zip(poly, poly[1:])):
            used.add((u, v))
            arcs.append(EdgeArc(u, v, tuple(poly)))
    return Drawing("custom", pts, tuple(arcs), kind, {})


class TestBroadPhase:
    @pytest.mark.parametrize("seed", range(20))
    def test_sweep_matches_matrix_on_random_segments(self, seed, monkeypatch):
        rng = random.Random(seed)
        m = rng.randint(2, 80)
        rows = []
        for _ in range(m):
            x, y = rng.randint(0, 9), rng.randint(0, 9)
            shape = rng.randrange(4)  # free, horizontal, vertical, point
            dx = rng.randint(-4, 4) if shape in (0, 1) else 0
            dy = rng.randint(-4, 4) if shape in (0, 2) else 0
            rows.append([x, y, x + dx, y + dy])
        boxes = np.array(rows, dtype=float)
        want = matrix_pairs(boxes)
        for budget in (1, 7, 1 << 18):  # one position, several, all at once
            monkeypatch.setattr(verify, "_PAIR_BUDGET", budget)
            assert as_list(_candidate_pairs(boxes)) == want

    def test_sweep_matches_matrix_on_a_onebend_drawing(self, monkeypatch):
        dr = draw_onebend(bench_instances().bounded_triangulation(300, 8, 1))
        boxes = seg_boxes(dr)
        want = matrix_pairs(boxes)
        assert len(want) > 5000
        monkeypatch.setattr(verify, "_PAIR_BUDGET", 1000)
        assert as_list(_candidate_pairs(boxes)) == want

    def test_vertical_path_sweeps_along_y(self):
        # 2000 segments on one vertical line share one x-range: the runs of
        # a sweep along x would hold about two million pairs
        boxes = np.array([[0.0, i, 0.0, i + 1.0] for i in range(2000)])
        _, size, _, _ = verify._sweep(boxes)
        assert size.sum() < 4000
        assert as_list(_candidate_pairs(boxes)) == [(i, i + 1) for i in range(1999)]

    def test_fewer_than_two_boxes(self):
        assert as_list(_candidate_pairs(np.zeros((1, 4)))) == []

    def test_crossing_check_temporaries_stay_small(self):
        # 27k candidate pairs from about 0.4M expanded run pairs; the peak
        # counts the numpy temporaries of the sweep and the filter, which
        # _PAIR_BUDGET and _FILTER_CHUNK bound. It read 9.2 MB at 2**18 and 2**15.
        dr = draw_onebend(bench_instances().bounded_triangulation(1000, 8, 1))
        tracemalloc.start()
        try:
            assert verify_drawing(dr).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestCrossingMatchesPairwise:
    """check_noncrossing gives the verdict and witness of checking every
    pair of segments in order."""

    @pytest.mark.parametrize("kind", ["int", "rational", "float"])
    def test_random_drawings(self, kind):
        rng = random.Random(kind)
        crossing = 0
        for _ in range(150):
            dr = random_drawing(rng, kind)
            want = pairwise_noncrossing(dr)
            assert check_noncrossing(dr) == want
            crossing += not want[0]
        assert 20 < crossing < 150

    def test_onebend_drawing_with_moved_bends(self):
        dr = draw_onebend(gen_random_triangulation(20, 1))
        rng = random.Random(0)
        crossing = 0
        for _ in range(12):
            arcs = list(dr.edges)
            for k in rng.sample(range(len(arcs)), 2):
                a = arcs[k]
                bx, by = a.poly[1]
                bend = (bx + Fraction(rng.randint(-9, 9), 8), by + Fraction(rng.randint(-9, 9), 8))
                arcs[k] = EdgeArc(a.u, a.v, (a.poly[0], bend, a.poly[2]))
            moved = Drawing(dr.method, dr.points, tuple(arcs), dr.coord_kind, dr.meta)
            want = pairwise_noncrossing(moved)
            assert check_noncrossing(moved) == want
            crossing += not want[0]
        assert 0 < crossing < 12


class TestSharedVertex:
    def test_two_vertices_at_one_point_cross(self):
        # edges (0,1) and (2,3) share no vertex, but both leave (0,0)
        dr = mk(
            [(0, 0), (2, 1), (0, 0), (1, 2)],
            [(0, 1, [(0, 0), (2, 1)]), (2, 3, [(0, 0), (1, 2)])],
        )
        ok, w = check_noncrossing(dr)
        assert not ok
        assert w.where == (0.0, 0.0)

    def test_collinear_overlap_from_a_shared_vertex(self):
        dr = mk(
            [(0, 0), (2, 0), (3, 0)],
            [(0, 1, [(0, 0), (2, 0)]), (0, 2, [(0, 0), (1, 0), (3, 0)])],
        )
        ok, w = check_noncrossing(dr)
        assert not ok
        assert (w.edge_a, w.edge_b) == ((0, 1), (0, 2))

    def test_turning_at_a_shared_vertex_is_clear(self):
        dr = mk(
            [(0, 0), (2, 0), (0, 2)],
            [(0, 1, [(0, 0), (1, 1), (2, 0)]), (0, 2, [(0, 0), (1, 2), (0, 2)])],
        )
        assert check_noncrossing(dr) == (True, None)

    @pytest.mark.parametrize("reverse", [False, True], ids=["first-end", "second-end"])
    def test_exact_turn_needs_no_intersection_test(self, reverse, monkeypatch):
        # the far ends round to one float point, so the filter cannot see the
        # turn at vertex 0; the one exact orientation of the far ends decides
        big = 2**60
        far = (big, big - 1)
        poly = [far, (0, 0)] if reverse else [(0, 0), far]
        dr = mk(
            [(0, 0), (big + 1, big), far],
            [(0, 1, [(0, 0), (big + 1, big)]), (2, 0, poly) if reverse else (0, 2, poly)],
        )

        def no_exact_pair(*pts):
            raise AssertionError("full intersection test at a shared vertex")

        monkeypatch.setattr(verify, "_exact_pair", no_exact_pair)
        assert check_noncrossing(dr) == (True, None)


def mapped(dr, f):
    """dr with every coordinate c replaced by f(c)."""
    def pt(p):
        return (f(p[0]), f(p[1]))

    pts = {v: pt(p) for v, p in dr.points.items()}
    arcs = tuple(EdgeArc(a.u, a.v, tuple(map(pt, a.poly))) for a in dr.edges)
    return Drawing(dr.method, pts, arcs, dr.coord_kind, {})


class TestFilter:
    """The float filter drops only pairs it proves harmless: on inputs where
    float orientations are wrong or undefined, check_noncrossing still
    gives the verdict and witness of checking every pair exactly."""

    def test_point_one_ulp_off_a_line(self):
        # (1150, 1050) lies on the line through (1000, 1000) and (1300, 1100);
        # a segment ends on it, or one or two ulps to either side
        verdicts = set()
        for k in range(-2, 3):
            for axis in (0, 1):
                for far in (0.0, 2000.0):
                    tip = [1150.0, 1050.0]
                    for _ in range(abs(k)):
                        tip[axis] = math.nextafter(tip[axis], math.copysign(math.inf, k))
                    dr = mk(
                        [(1000.0, 1000.0), (1300.0, 1100.0), tuple(tip), (1150.0, far)],
                        [(0, 1, [(1000.0, 1000.0), (1300.0, 1100.0)]),
                         (2, 3, [tuple(tip), (1150.0, far)])],
                        kind="float",
                    )
                    want = pairwise_noncrossing(dr)
                    assert check_noncrossing(dr) == want, (k, axis, far)
                    verdicts.add(want[0])
        assert verdicts == {True, False}

    def test_int_drawing_with_a_float_coordinate(self):
        # (0.5, 0.5) lies half a unit of area right of the line through (0, 0)
        # and (2^60, 2^60 + 1), on it in float arithmetic; coord_kind "int"
        # does not make the float an int, so the pair is still lifted
        x = 2**60
        dr = mk(
            [(0, 0), (x, x + 1), (0.5, 0.5), (1, 0)],
            [(0, 1, [(0, 0), (x, x + 1)]), (2, 3, [(0.5, 0.5), (1, 0)])],
        )
        assert check_noncrossing(dr) == pairwise_noncrossing(dr) == (True, None)

    @pytest.mark.parametrize("base, step", [(2**53, 1), (2**53 + 1, 3), (2**60, 100)])
    def test_ints_beyond_float_precision(self, base, step, monkeypatch):
        # grid points base + step * k collapse and shift when rounded to
        # float; the filter takes the pairs seven at a time
        monkeypatch.setattr(verify, "_FILTER_CHUNK", 7)
        rng = random.Random(base + step)
        crossing = 0
        for _ in range(60):
            dr = mapped(random_drawing(rng, "int"), lambda c: base + step * c)
            want = pairwise_noncrossing(dr)
            assert check_noncrossing(dr) == want
            crossing += not want[0]
        assert 0 < crossing < 60

    def test_onebend_bends_moved_by_one_over_den(self):
        dr = draw_onebend(gen_random_triangulation(20, 1))
        rng = random.Random(1)
        for _ in range(12):
            arcs = list(dr.edges)
            for k in rng.sample(range(len(arcs)), 6):
                a = arcs[k]
                bx, by = a.poly[1]
                bend = (bx + Fraction(rng.choice((-1, 1)), bx.denominator),
                        by + Fraction(rng.choice((-1, 1)), by.denominator))
                arcs[k] = EdgeArc(a.u, a.v, (a.poly[0], bend, a.poly[2]))
            moved = Drawing(dr.method, dr.points, tuple(arcs), dr.coord_kind, dr.meta)
            assert check_noncrossing(moved) == pairwise_noncrossing(moved)

    @pytest.mark.parametrize(
        "scale, base",
        [(2.0**-40, 1000.0), (2.0**-1030, 0.0), (3e-158, 0.0), (2.0**995, 0.0)],
        ids=["child-at-1e3", "subnormal", "subnormal-products", "overflowing-products"],
    )
    def test_float_scales(self, scale, base, monkeypatch):
        # a grid of quarter units becomes steps of two ulps at 1e3, multiples
        # of 2^-1032 near 1e-310, floats near 1e-158 whose products keep a
        # few dozen bits, or floats near 1e300 whose products overflow
        monkeypatch.setattr(verify, "_FILTER_CHUNK", 7)
        rng = random.Random(repr(scale))
        crossing = 0
        for _ in range(60):
            dr = mapped(random_drawing(rng, "float"), lambda c: base + scale * c)
            want = pairwise_noncrossing(dr)
            assert check_noncrossing(dr) == want
            crossing += not want[0]
        assert 0 < crossing < 60

    def test_exact_path_sees_few_onebend_pairs(self, monkeypatch):
        dr = draw_onebend(bench_instances().bounded_triangulation(1000, 8, 1))
        real_pairs, real_lift = verify._candidate_pairs, verify._lift_pair
        counts = {"candidates": 0, "exact": 0}

        def pairs(boxes):
            ii, jj = real_pairs(boxes)
            counts["candidates"] += len(ii)
            return ii, jj

        def lift(*pts):
            counts["exact"] += 1
            return real_lift(*pts)

        monkeypatch.setattr(verify, "_candidate_pairs", pairs)
        monkeypatch.setattr(verify, "_lift_pair", lift)
        assert check_noncrossing(dr) == (True, None)
        assert counts["candidates"] > 20_000
        assert counts["exact"] <= counts["candidates"] // 100


class TestBeyondFloatRange:
    """Coordinates past the float range get a report, not an OverflowError."""

    BIG = 2**1100

    def test_crossing_beyond_range(self):
        big = self.BIG
        dr = mk(
            [(0, 0), (big, 1), (0, 1), (big, 0)],
            [(0, 1, [(0, 0), (big, 1)]), (2, 3, [(0, 1), (big, 0)])],
        )
        ok, w = check_noncrossing(dr)
        assert not ok and w.where == (math.inf, 0.5)
        rep = verify_drawing(dr)
        assert not rep.crossing_free and rep.distinct_slopes == 2

    def test_crossing_in_range(self):
        big = self.BIG
        dr = mk(
            [(0, 0), (big, big), (0, 2), (2, 0)],
            [(0, 1, [(0, 0), (big, big)]), (2, 3, [(0, 2), (2, 0)])],
        )
        want = pairwise_noncrossing(dr)
        assert not want[0] and want[1].where == (1.0, 1.0)
        assert check_noncrossing(dr) == want
        assert verify_drawing(dr).crossing_witness == want[1]

    def test_clear(self):
        big = self.BIG
        dr = mk(
            [(0, 0), (big, 1), (0, 1), (big, 2), (-big, 0)],
            [(0, 1, [(0, 0), (big, 1)]), (2, 3, [(0, 1), (big, 2)]),
             (0, 4, [(0, 0), (-big, 0)])],
        )
        want = pairwise_noncrossing(dr)
        assert want == (True, None) and check_noncrossing(dr) == want
        # directions (2^1100, 1) and (1, 0): two exact classes whose angles
        # both round to pi/2
        assert slope_classes(dr)[0] == (math.pi / 2, math.pi / 2)


class TestSlopeCensus:
    def test_two_horizontals_one_bucket(self):
        dr = mk(
            [(0, 0), (1, 0), (0, 1), (1, 1)],
            [(0, 1, [(0, 0), (1, 0)]), (2, 3, [(0, 1), (1, 1)])],
        )
        census, distinct = slope_census(dr)
        assert distinct == 1
        assert census[0][1] == 2
        assert census[0][0] == pytest.approx(math.pi / 2)

    def test_no_edges(self):
        dr = mk([(0, 0)], [])
        assert slope_census(dr) == ((), 0)

    def test_classes_per_segment(self):
        dr = mk(
            [(0, 0), (1, 0), (0, 1), (1, 2)],
            [(0, 1, [(0, 0), (1, 0)]), (2, 3, [(0, 1), (0, 2), (1, 2)])],
        )
        assert slope_classes(dr) == ((0.0, math.pi / 2), [(1,), (0, 1)])

    def test_direction_sign_irrelevant(self):
        dr = mk(
            [(0, 0), (1, 1), (2, 2), (1, 3)],
            [(0, 1, [(0, 0), (1, 1)]), (2, 3, [(2, 2), (1, 3)])],
        )
        _, distinct = slope_census(dr)
        assert distinct == 2

    def test_float_directions_one_ulp_apart_are_two_slopes(self):
        # the float 1.1 minus 1 is 0.1 + 3 * 2^-55 exactly, as 1.1 is
        # rounded in a bit 0.1 keeps: the second edge's direction is off the
        # first's, and a float file is checked as its exact numbers
        dr = mk(
            [(0.0, 0.0), (1.0, 0.1), (0.0, 1.0), (1.0, 1.1)],
            [(0, 1, [(0.0, 0.0), (1.0, 0.1)]), (2, 3, [(0.0, 1.0), (1.0, 1.1)])],
            kind="float",
        )
        assert 1.1 - 1.0 != 0.1
        _, distinct = slope_census(dr)
        assert distinct == 2
        assert verify_drawing(dr).distinct_slopes == 2

    def test_float_directions_equal_in_binary_are_one_slope(self):
        # 0.2 is twice 0.1 exactly, so (2, 0.2) points along (1, 0.1)
        dr = mk(
            [(0.0, 0.0), (1.0, 0.1), (3.0, 0.0), (5.0, 0.2)],
            [(0, 1, [(0.0, 0.0), (1.0, 0.1)]), (2, 3, [(3.0, 0.0), (5.0, 0.2)])],
            kind="float",
        )
        _, distinct = slope_census(dr)
        assert distinct == 1

    def test_exact_rational_census_tolerance_free(self):
        third = Fraction(1, 3)
        dr = mk(
            [(0, 0), (3, 1), (0, third), (3, third + 1)],
            [(0, 1, [(0, 0), (3, 1)]), (2, 3, [(0, third), (3, third + 1)])],
            kind="rational",
        )
        _, distinct = slope_census(dr)
        assert distinct == 1


def fraction_dir_key(p, q):
    """Reference direction key: q - p in Fractions, scaled to a primitive
    integer vector with ix > 0, or ix == 0 and iy > 0."""
    dx, dy = Fraction(q[0]) - Fraction(p[0]), Fraction(q[1]) - Fraction(p[1])
    den = math.lcm(dx.denominator, dy.denominator)
    ix, iy = int(dx * den), int(dy * den)
    g = math.gcd(ix, iy)
    ix, iy = ix // g, iy // g
    return (-ix, -iy) if ix < 0 or (ix == 0 and iy < 0) else (ix, iy)


BIG = 2**1100


class TestDirectionKey:
    @staticmethod
    def coord(rng, kind):
        n = rng.randint(-40, 40) + rng.choice((0, 0, BIG, -2 * BIG + 3))
        if kind == "int" or rng.random() < 0.2:  # rational drawings may hold ints
            return n
        return Fraction(n, rng.choice((1, 2, 3, 12, 2**64 + 13, 3**700)))

    @pytest.mark.parametrize("kind", ["int", "rational"])
    def test_matches_fraction_subtraction(self, kind):
        rng = random.Random(14)
        seen = set()
        for _ in range(3000):
            p = (self.coord(rng, kind), self.coord(rng, kind))
            q = (self.coord(rng, kind), self.coord(rng, kind))
            pick = rng.random()
            if pick < 0.15:
                q = (p[0], q[1])  # dx = 0
            elif pick < 0.3:
                q = (q[0], p[1])  # dy = 0
            if p == q:
                continue
            want = fraction_dir_key(p, q)
            assert verify._dir_key(p, q) == want
            assert verify._dir_key(q, p) == want
            dx, dy = Fraction(q[0]) - Fraction(p[0]), Fraction(q[1]) - Fraction(p[1])
            seen.add((dx == 0, dy == 0, dx * dy < 0, max(abs(dx), abs(dy)) > BIG // 2))
        # vertical, horizontal, falling directions and coordinates past 2^1100
        assert {(True, False), (False, True)} <= {s[:2] for s in seen}
        assert any(s[2] for s in seen) and any(s[3] for s in seen)

    @pytest.mark.parametrize(
        "dr",
        [
            mk(
                [(0, 0), (1, 0), (0, 1), (1, 2)],
                [(0, 1, [(0, 0), (1, 0)]), (2, 3, [(0, 1), (0, 2), (1, 2)])],
            ),
            mk(
                [(0, 0), (3, 1), (0, Fraction(1, 3)), (3, Fraction(4, 3))],
                [(0, 1, [(0, 0), (3, 1)]),
                 (2, 3, [(0, Fraction(1, 3)), (3, Fraction(4, 3))])],
                kind="rational",
            ),
            mk(
                [(0, 0), (BIG, 1), (0, 1), (BIG, 2), (-BIG, 0)],
                [(0, 1, [(0, 0), (BIG, 1)]), (2, 3, [(0, 1), (BIG, 2)]),
                 (0, 4, [(0, 0), (-BIG, 0)])],
            ),
            draw_straight(gen_random_triangulation(20, 0)),
            draw_straight(gen_octahedron()),
            draw_onebend(gen_random_triangulation(20, 1)),
            draw_onebend(gen_gd(9)),
        ],
        ids=["corner", "rational-third", "beyond-range", "straight", "octa", "onebend", "gd9"],
    )
    def test_slope_classes_unchanged(self, dr, monkeypatch):
        got = slope_classes(dr)
        monkeypatch.setattr(verify, "_dir_key", fraction_dir_key)
        assert got == slope_classes(dr)


class TestBends:
    def test_collinear_pieces_merge(self):
        dr = mk(
            [(0, 0), (2, 0)],
            [(0, 1, [(0, 0), (1, 0), (2, 0)])],
        )
        assert max_bends(dr) == 0

    def test_genuine_corner_counts(self):
        dr = mk(
            [(0, 0), (1, 1)],
            [(0, 1, [(0, 0), (1, 0), (1, 1)])],
        )
        assert max_bends(dr) == 1


class TestContiguity:
    def test_interval_examples(self):
        sl = SlopeSet(3)
        assert sl.is_contiguous({0, 1, 2})
        assert not sl.is_contiguous({0, 2})
        assert sl.is_contiguous({5, 0, 1})
        assert sl.is_contiguous(set(range(6)))
        assert sl.is_contiguous({4})

    def test_off_grid_raises(self):
        dr = mk(
            [(0, 0), (5, 4)],
            [(0, 1, [(0, 0), (5, 4)])],
        )
        with pytest.raises(SlopeOffGrid):
            check_contiguous(dr, SlopeSet(3))

    def test_drawing_level_check(self):
        dr = draw_twobend(gen_octahedron(), SlopeSet(3))
        result = check_contiguous(dr, SlopeSet(3))
        assert set(result) == set(range(6))
        assert all(result.values())

    def test_departures_subtract_exactly(self):
        # at 2^60 both pieces read as straight up once each end is rounded
        # to float; taken exactly they leave vertex 0 in slots 1 and 7 of
        # SlopeSet(4), which are not one run
        b = 2**60
        dr = mk([(b, 0), (b + 1, 1), (b - 1, 1)], [(0, 1, [(b, 0), (b + 1, 1)]), (0, 2, [(b, 0), (b - 1, 1)])])
        assert check_contiguous(dr, SlopeSet(4)) == {0: False, 1: True, 2: True}

    def test_rotation_orders_directions_closer_than_float_angles(self):
        # (2^54, 1) and (2^54, 2) have one float angle; clockwise from up,
        # vertex 0 sees 2 before 1, and 3 straight down
        b = 2**54
        pts = [(0, 0), (b, 1), (b, 2), (0, -1)]
        dr = mk(pts, [(0, v, [pts[0], pts[v]]) for v in (1, 2, 3)])
        assert check_rotation(dr, [(2, 1, 3), (0,), (0,), (0,)]) == []
        assert check_rotation(dr, [(1, 2, 3), (0,), (0,), (0,)]) == [0]

    def test_rotation_read_from_exact_departures(self):
        # clockwise from up, vertex 0 sees 2, 1, 3; rounded, all three are up
        b = 2**60
        pts = [(b, 0), (b + 1, 1), (b, 1), (b - 1, 1)]
        dr = mk(pts, [(0, v, [pts[0], pts[v]]) for v in (1, 2, 3)])
        assert check_rotation(dr, [(2, 1, 3), (0,), (0,), (0,)]) == []
        assert check_rotation(dr, [(1, 2, 3), (0,), (0,), (0,)]) == [0]


class TestReport:
    def test_witness_presence_invariant(self):
        with pytest.raises(ValueError):
            VerifyReport(
                crossing_free=False,
                crossing_witness=None,
                slope_census=(),
                distinct_slopes=0,
                max_bends=0,
                contiguity_ok=None,
                wedge_ok=None,
            )

    def test_verify_drawing_integration(self):
        rep = verify_drawing(draw_twobend(gen_octahedron(), SlopeSet(3)))
        assert rep.ok
        assert rep.distinct_slopes <= 3 and rep.max_bends <= 2
        assert rep.wedge_ok and rep.contiguity_ok

    def test_exact_regime_recorded(self):
        # every kind is checked exactly, so the report names no regime
        rep = verify_drawing(draw_straight(gen_octahedron()))
        assert rep.ok
        assert not hasattr(rep, "exact") and not hasattr(rep, "tolerance")


def wedge_drawing(points, wedge):
    """Edges from the apex, vertex 0, to every other point, with wedge as
    meta."""
    pts = {i: p for i, p in enumerate(points)}
    arcs = tuple(EdgeArc(0, v, (points[0], points[v])) for v in range(1, len(points)))
    return Drawing("custom", pts, arcs, "int", {"wedge": wedge})


class TestWedge:
    # the cone turning clockwise from down-right (1, -1) to down-left (-1, -1)
    RAYS = [[1, -1], [-1, -1]]

    def test_strictly_inside(self):
        dr = wedge_drawing([(0, 0), (0, -5), (2, -3)], {"apex": [0, 0], "rays": self.RAYS})
        assert check_wedge(dr) is True

    def test_point_on_a_ray_is_outside(self):
        dr = wedge_drawing([(0, 0), (0, -5), (3, -3)], {"apex": [0, 0], "rays": self.RAYS})
        assert check_wedge(dr) is False
        assert verify_drawing(dr).wedge_ok is False

    def test_float_point_one_ulp_inside(self):
        x = 1.0 - 2**-53  # (x, -1) lies just inside the ray along (1, -1)
        pts = {0: (0.0, 0.0), 1: (x, -1.0)}
        dr = Drawing(
            "custom", pts, (EdgeArc(0, 1, (pts[0], pts[1])),), "float",
            {"wedge": {"apex": [0.0, 0.0], "rays": self.RAYS}},
        )
        assert check_wedge(dr) is True

    def test_reflex_wedge_checks_segments(self):
        # the cone clockwise from (1, 1) to (-1, 1) holds all but the upward
        # quarter; the segment from (3, 1) to (-3, 1) has both ends inside
        # it and passes through that quarter, the bent one passes below
        rays = [[1, 1], [-1, 1]]
        pts = {0: (0, 0), 1: (3, 1), 2: (-3, 1), 3: (0, -2)}
        arcs = (EdgeArc(0, 3, (pts[0], pts[3])), EdgeArc(1, 2, (pts[1], pts[2])))
        dr = Drawing("custom", pts, arcs, "int", {"wedge": {"apex": [0, 0], "rays": rays}})
        assert check_wedge(dr) is False
        arcs = (arcs[0], EdgeArc(1, 2, (pts[1], (0, -1), pts[2])))
        dr = Drawing("custom", pts, arcs, "int", {"wedge": {"apex": [0, 0], "rays": rays}})
        assert check_wedge(dr) is True

    @pytest.mark.parametrize(
        "wedge",
        [
            {"apex": [0, 0], "start": 2.5, "span": 1.5},
            {"apex": [0, 0], "rays": [[-1, -1]]},
            {"apex": [0, 0], "rays": [[-1, -1], [1.0, -1]]},
            {"apex": [0, 0], "rays": [[-1, -1], [1, -1, 0]]},
            {"apex": [0, 0], "rays": [[-1, -1], [0, 0]]},
            {"apex": [0, 0], "rays": [[-1, -1], [True, -1]]},
        ],
        ids=["start-span", "one-ray", "float-ray", "triple", "zero-ray", "bool-ray"],
    )
    def test_malformed_rays_raise(self, wedge):
        dr = wedge_drawing([(0, 0), (0, -5)], wedge)
        with pytest.raises(ValueError, match="'rays'"):
            check_wedge(dr)
        with pytest.raises(ValueError, match="'rays'"):
            verify_drawing(dr)

    @pytest.mark.parametrize("apex", [None, [0], ["0", "0"]])
    def test_malformed_apex_raises(self, apex):
        dr = wedge_drawing([(0, 0), (0, -5)], {"apex": apex, "rays": self.RAYS})
        with pytest.raises(ValueError, match="'apex'"):
            check_wedge(dr)

    def test_twobend_declares_integer_rays(self):
        dr = draw_twobend(gen_octahedron(), SlopeSet(3))
        w = dr.meta["wedge"]
        assert set(w) == {"apex", "rays"}
        assert all(type(c) is int for r in w["rays"] for c in r)
        assert check_wedge(dr) is True


class TestHausdorff:
    def test_identical_paths(self):
        p = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        assert hausdorff_within(p, list(p), 1e-9)

    def test_translated_segment_threshold(self):
        a = [(0.0, 0.0), (1.0, 0.0)]
        b = [(0.0, 0.25), (1.0, 0.25)]
        assert hausdorff_within(a, b, 0.2500001)
        assert not hausdorff_within(a, b, 0.2499999)

    def test_corner_versus_diagonal(self):
        corner = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        diag = [(0.0, 0.0), (1.0, 1.0)]
        lim = math.sqrt(2.0) / 2.0
        assert hausdorff_within(corner, diag, lim + 1e-6)
        assert not hausdorff_within(corner, diag, lim - 1e-6)


class TestGdClaims:
    def test_straight_line_bound(self):
        d = 5
        rep = check_gd_claims(draw_straight(gen_gd(d)), d)
        assert rep.required == 3 * d - 6
        assert rep.lower_bound_ok
        assert rep.hub_multiplicity is None

    def test_one_bend_bound_and_hub_multiplicity(self):
        d = 5
        rep = check_gd_claims(draw_onebend(gen_gd(d)), d)
        assert rep.required == -(-3 * (d - 1) // 4)
        assert rep.lower_bound_ok
        assert rep.hub_multiplicity_ok
        assert sum(rep.hub_multiplicity.values()) == 3 * d

    @staticmethod
    def hub_drawing(steps):
        """Hub end segments along steps, one per edge, up or down from hubs
        0, 0, 1, 1, 2, 2 in turn, each edge ending in a horizontal piece."""
        pts = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]  # hubs 0, 1, 2
        polys = []
        for i, (hub, (sx, sy)) in enumerate(zip((0, 0, 1, 1, 2, 2), steps)):
            sign = 1.0 if i % 2 == 0 else -1.0  # up or down: one slope
            hx, hy = pts[hub]
            bend = (hx + sign * sx, hy + sign * sy)
            end = (bend[0] + 1.0, bend[1])
            pts.append(end)
            polys.append((hub, 3 + i, [(hx, hy), bend, end]))
        return mk(pts, polys, kind="float")

    def test_float_hub_class_counted_once(self):
        # five hub end segments along one exact float direction, up or down
        # from hubs at different points, form one class; a sixth, off it by
        # about 1e-12 rad, is a class of its own
        dr = self.hub_drawing([(0.375, 0.125)] * 5 + [(0.375, 0.125 + 2**-40)])
        census, distinct = slope_census(dr)
        # clockwise from up: the sixth, then the five, then the horizontals
        assert distinct == 3 and [c for _, c in census] == [1, 5, 6]
        rep = check_gd_claims(dr, 5)
        assert rep.hub_multiplicity == {0: 1, 1: 5}
        assert rep.hub_multiplicity_ok is False

    def test_hub_classes_at_one_float_angle_counted_apart(self):
        # (0.375, 0.125) and (0.375, 0.125 + 2^-55) are two exact classes
        # whose angles round to one float: three hub ends along one and two
        # along the other are two counts within 4, not one count of 5
        dr = self.hub_drawing([(0.375, 0.125)] * 3 + [(0.375, 0.125 + 2**-55)] * 2)
        angles, classes = slope_classes(dr)
        a, b = classes[0][0], classes[3][0]
        assert a != b and angles[a] == angles[b] and len(angles) == 3
        rep = check_gd_claims(dr, 5)
        assert rep.hub_multiplicity == {a: 3, b: 2}
        assert rep.hub_multiplicity_ok is True

    def test_required_counts_match_examples(self):
        straight = check_gd_claims(draw_straight(gen_gd(6)), 6)
        assert straight.required == 12
        onebend = check_gd_claims(draw_onebend(gen_gd(9)), 9)
        assert onebend.required == 6
