"""Independent drawing verifier: crossings, census, contiguity, claims."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from conftest import capped_planar
from fewslopes.drawing import Drawing, EdgeArc, SlopeSet
from fewslopes.errors import AmbiguousBucket, SlopeOffGrid
from fewslopes.families import gen_gd, gen_octahedron, gen_random_triangulation
from fewslopes.onebend import draw_onebend
from fewslopes.straightline import draw_straight
from fewslopes.twobend import draw_twobend
from fewslopes.verify import (
    VerifyReport,
    check_contiguous,
    check_gd_claims,
    check_noncrossing,
    hausdorff_within,
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

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_float_parallel_near_miss_clear_at_any_tol(self, tol):
        dr = mk(
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1e-6), (1.0, 1e-6)],
            [(0, 1, [(0.0, 0.0), (1.0, 0.0)]), (2, 3, [(0.0, 1e-6), (1.0, 1e-6)])],
            kind="float",
        )
        assert check_noncrossing(dr) == (True, None)
        assert verify_drawing(dr, tol=tol).crossing_free

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

    def test_sub_tolerance_angles_merge(self):
        dr = mk(
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0 + 5e-10)],
            [(0, 1, [(0.0, 0.0), (1.0, 0.0)]),
             (2, 3, [(0.0, 1.0), (1.0, 1.0 + 5e-10)])],
            kind="float",
        )
        _, distinct = slope_census(dr, tol=1e-9)
        assert distinct == 1

    def test_ambiguous_gap_raises(self):
        dr = mk(
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0 + 1.5e-9)],
            [(0, 1, [(0.0, 0.0), (1.0, 0.0)]),
             (2, 3, [(0.0, 1.0), (1.0, 1.0 + 1.5e-9)])],
            kind="float",
        )
        with pytest.raises(AmbiguousBucket):
            slope_census(dr, tol=1e-9)

    def test_exact_rational_census_tolerance_free(self):
        third = Fraction(1, 3)
        dr = mk(
            [(0, 0), (3, 1), (0, third), (3, third + 1)],
            [(0, 1, [(0, 0), (3, 1)]), (2, 3, [(0, third), (3, third + 1)])],
            kind="rational",
        )
        _, distinct = slope_census(dr)
        assert distinct == 1


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
                exact=True,
                tolerance=1e-9,
            )

    def test_verify_drawing_integration(self):
        rep = verify_drawing(draw_twobend(gen_octahedron(), SlopeSet(3)))
        assert rep.ok and not rep.exact
        assert rep.distinct_slopes <= 3 and rep.max_bends <= 2
        assert rep.wedge_ok and rep.contiguity_ok
        assert rep.tolerance == 1e-9

    def test_exact_regime_recorded(self):
        rep = verify_drawing(draw_straight(gen_octahedron()))
        assert rep.exact and rep.ok


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

    def test_float_hub_class_counted_once(self):
        # five hub end segments 1e-10 rad apart form one class at tol 1e-9,
        # though angle / tol rounds two of them down and three up
        tol = 1e-9
        boundary = 0.5 + 0.5 * tol  # (k + 1/2) * tol for k = 5e8
        pts = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]  # hubs 0, 1, 2
        polys = []
        for i, (hub, off) in enumerate(zip((0, 0, 1, 1, 2), (-1.5, -0.5, 0.5, 1.5, 2.5))):
            ang = boundary + off * 0.1 * tol
            sign = 1.0 if i % 2 == 0 else -1.0  # up or down: one slope
            hx, hy = pts[hub]
            bend = (hx + sign * math.sin(ang), hy + sign * math.cos(ang))
            end = (bend[0] + 1.0, bend[1])
            pts.append(end)
            polys.append((hub, 3 + i, [(hx, hy), bend, end]))
        dr = mk(pts, polys, kind="float")
        census, distinct = slope_census(dr, tol)
        assert distinct == 2 and census[0][1] == 5
        rep = check_gd_claims(dr, 5, tol)
        assert rep.hub_multiplicity == {census[0][0]: 5}
        assert rep.hub_multiplicity_ok is False

    def test_required_counts_match_examples(self):
        straight = check_gd_claims(draw_straight(gen_gd(6)), 6)
        assert straight.required == 12
        onebend = check_gd_claims(draw_onebend(gen_gd(9)), 9)
        assert onebend.required == 6
