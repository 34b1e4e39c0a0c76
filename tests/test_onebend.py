"""T-shape contact representation and the one-bend pipeline."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import bench_instances
from fewslopes.families import gen_gd, gen_octahedron, gen_random_triangulation
from fewslopes.graphs import PlanarGraph, planar_embed
from fewslopes.jsonio import drawing_to_obj, dumps_canonical
from fewslopes.onebend import (
    Contact,
    TShape,
    _verify_contacts,
    contact_numbering,
    draw_onebend,
    slope_alpha,
    slope_beta,
    tshape_representation,
)
from fewslopes.verify import (
    check_noncrossing,
    hausdorff_within,
    max_bends,
    slope_census,
    verify_drawing,
)


class TestSlopeValues:
    def test_near_horizontal_family(self):
        # line through (0,0) and (2*i*n, -1)
        assert slope_alpha(2, 5) == Fraction(-1, 20)
        assert slope_alpha(1, 7) == Fraction(-1, 14)

    def test_near_vertical_family(self):
        # line through (0,0) and (1, 2*i*n)
        assert slope_beta(2, 5) == Fraction(20)
        assert slope_beta(3, 4) == Fraction(24)

    def test_families_never_collide(self):
        n = 9
        vals = [slope_alpha(i, n) for i in range(1, n + 1)]
        vals += [slope_beta(i, n) for i in range(1, n + 1)]
        assert len(set(vals)) == len(vals)


class TestTShapes:
    @pytest.mark.parametrize(
        "g", [gen_octahedron(), gen_random_triangulation(25, 3)]
    )
    def test_contacts_biject_with_edges(self, g):
        rep = tshape_representation(planar_embed(g))
        assert {(c.u, c.v) for c in rep.contacts} == set(g.edges)

    def test_contact_geometry(self):
        g = gen_random_triangulation(20, 5)
        rep = tshape_representation(planar_embed(g))
        for c in rep.contacts:
            hat = rep.shapes[c.hat_vertex]
            leg = rep.shapes[c.leg_vertex]
            px, py = c.point
            assert py == hat.center[1]
            assert hat.hat_left[0] <= px <= hat.hat_right[0]
            assert px == leg.center[0]
            assert leg.leg_bottom[1] <= py < leg.center[1]

    def test_numbering_ranks_unique_per_vertex(self):
        g = gen_octahedron()
        rep = tshape_representation(planar_embed(g))
        num = contact_numbering(rep)
        for v in range(rep.n):
            ranks = [num.index_at(v, ci) for ci in rep.contacts_at(v)]
            assert sorted(ranks) == list(range(1, len(ranks) + 1))


class TestDrawOnebend:
    def test_octahedron_drawing(self):
        g = gen_octahedron()
        dr = draw_onebend(g)
        assert dr.coord_kind == "rational"
        assert max_bends(dr) <= 1
        ok, witness = check_noncrossing(dr)
        assert ok and witness is None
        _, distinct = slope_census(dr)
        assert distinct <= 2 * dr.meta["d_T"]

    def test_bend_hugs_contact_point(self):
        g = gen_random_triangulation(30, 2)
        rep = tshape_representation(planar_embed(g))
        dr = draw_onebend(g)
        by_edge = {(c.u, c.v): c for c in rep.contacts}
        half = Fraction(1, 2)
        for arc in dr.edges:
            c = by_edge[(arc.u, arc.v)]
            bx, by = arc.poly[1]
            assert abs(bx - c.point[0]) < half
            assert abs(by - c.point[1]) < half

    def test_polyline_tracks_right_angle_path(self):
        g = gen_random_triangulation(30, 2)
        rep = tshape_representation(planar_embed(g))
        dr = draw_onebend(g)
        by_edge = {(c.u, c.v): c for c in rep.contacts}
        for arc in dr.edges:
            c = by_edge[(arc.u, arc.v)]
            drawn = [(float(x), float(y)) for x, y in arc.poly]
            ra = [drawn[0], (float(c.point[0]), float(c.point[1])), drawn[-1]]
            assert hausdorff_within(drawn, ra, 0.5)

    def test_nontriangulated_input_still_draws_its_own_edges(self):
        g = PlanarGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)))
        dr = draw_onebend(g)
        assert {(a.u, a.v) for a in dr.edges} == set(g.edges)
        ok, _ = check_noncrossing(dr)
        assert ok

    def test_single_edge(self):
        dr = draw_onebend(PlanarGraph(2, ((0, 1),)))
        assert len(dr.edges) == 1
        ok, _ = check_noncrossing(dr)
        assert ok

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            draw_onebend(PlanarGraph(1, ()))

    def test_deterministic_bytes(self):
        g = gen_gd(5)
        a = dumps_canonical(drawing_to_obj(draw_onebend(g)))
        b = dumps_canonical(drawing_to_obj(draw_onebend(g)))
        assert a == b


def loop_verify_contacts(shapes, edges, contacts) -> list[str]:
    """Reference for _verify_contacts: n x n matrices and pair loops."""
    n = len(shapes)
    cx = np.array([s.center[0] for s in shapes])
    cy = np.array([s.center[1] for s in shapes])
    hx1 = np.array([s.hat_left[0] for s in shapes])
    hx2 = np.array([s.hat_right[0] for s in shapes])
    ly = np.array([s.leg_bottom[1] for s in shapes])

    cover_x = (hx1[:, None] <= cx[None, :]) & (cx[None, :] <= hx2[:, None])
    cover_y = (ly[None, :] <= cy[:, None]) & (cy[:, None] <= cy[None, :])
    hit = cover_x & cover_y
    np.fill_diagonal(hit, False)
    strict_x = (hx1[:, None] < cx[None, :]) & (cx[None, :] < hx2[:, None])
    strict_y = (ly[None, :] < cy[:, None]) & (cy[:, None] < cy[None, :])
    crossing = strict_x & strict_y
    np.fill_diagonal(crossing, False)

    problems = []
    for i, j in zip(*np.nonzero(crossing)):
        problems.append(f"hat of {i} crosses leg of {j}")
    for i in range(n):
        for j in range(i + 1, n):
            if cy[i] == cy[j] and max(hx1[i], hx1[j]) <= min(hx2[i], hx2[j]):
                problems.append(f"hats of {i},{j} overlap")
            if cx[i] == cx[j] and max(ly[i], ly[j]) <= min(cy[i], cy[j]):
                problems.append(f"legs of {i},{j} intersect")
    if problems:
        return problems

    recorded = {(c.u, c.v): c for c in contacts}
    for i in range(n):
        for j in range(i + 1, n):
            pts = set()
            if hit[i, j]:
                pts.add((int(cx[j]), int(cy[i])))
            if hit[j, i]:
                pts.add((int(cx[i]), int(cy[j])))
            key = (i, j)
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


def _t(cx, cy, left, right, bottom):
    return TShape((cx, cy), (left, cy), (right, cy), (cx, bottom))


def _perturbed(shapes, rng, k):
    """shapes with k random T-shapes redrawn, some onto another's row or
    column, so that every kind of problem shows up."""
    shapes = list(shapes)
    for v in rng.sample(range(len(shapes)), k):
        cx, cy = shapes[v].center
        if rng.random() < 0.5:  # move one end: contacts appear or vanish
            t = shapes[v]
            ends = [t.hat_left[0], t.hat_right[0], t.leg_bottom[1]]
            ends[rng.randrange(3)] += rng.choice((-2, -1, 1, 2))
            left, right, bottom = ends
            if left < cx < right and bottom < cy:
                shapes[v] = _t(cx, cy, left, right, bottom)
            continue
        if rng.random() < 0.3:
            cx = rng.choice(shapes).center[0]
        if rng.random() < 0.3:
            cy = rng.choice(shapes).center[1]
        cx += rng.choice((0, 0, -1, 1))
        cy += rng.choice((0, 0, -1, 1))
        shapes[v] = _t(cx, cy, cx - rng.randint(1, 12), cx + rng.randint(1, 12), cy - rng.randint(1, 12))
    return shapes


class TestContactsMatchLoop:
    """_verify_contacts returns the problem list of the pair loop, in its
    order: the retraction retry and its error message depend on it."""

    @pytest.mark.parametrize("n,seed", [(300, 1), (300, 2), (1000, 1)])
    def test_bench_representations(self, n, seed):
        g = bench_instances().bounded_triangulation(n, 8, seed)
        rep = tshape_representation(planar_embed(g))
        edges = set(g.edges)
        assert _verify_contacts(rep.shapes, edges, rep.contacts) == []
        assert loop_verify_contacts(rep.shapes, edges, rep.contacts) == []
        for k in (1, 3):
            shapes = _perturbed(rep.shapes, random.Random(n + seed + k), k)
            want = loop_verify_contacts(shapes, edges, rep.contacts)
            assert want
            assert _verify_contacts(shapes, edges, rep.contacts) == want

    @pytest.mark.parametrize("seed", range(40))
    def test_perturbed_small_representations(self, seed):
        g = gen_random_triangulation(25, seed % 5)
        rep = tshape_representation(planar_embed(g))
        rng = random.Random(seed)
        shapes = _perturbed(rep.shapes, rng, rng.randint(0, 4))
        edges = set(rng.sample(g.edges, len(g.edges) - rng.randint(0, 2)))
        contacts = list(rep.contacts)
        for ci in rng.sample(range(len(contacts)), rng.randint(0, 2)):
            c = contacts[ci]
            contacts[ci] = Contact(c.u, c.v, (c.point[0], c.point[1] + 1), c.hat_vertex)
        want = loop_verify_contacts(shapes, edges, contacts)
        assert _verify_contacts(shapes, edges, contacts) == want

    # (shapes, edges, contacts, the only problem)
    KINDS = {
        "hat-crosses-leg": (
            [_t(4, 4, 0, 8, 0), _t(2, 6, 1, 3, 2)], set(), [], "hat of 0 crosses leg of 1"
        ),
        "hats-overlap": ([_t(2, 4, 0, 4, 0), _t(5, 4, 3, 7, 0)], set(), [], "hats of 0,1 overlap"),
        "legs-intersect": (
            [_t(2, 6, 1, 3, 4), _t(2, 4, 1, 3, 2)], set(), [], "legs of 0,1 intersect"
        ),
        "edge-without-touch": (
            [_t(2, 4, 1, 3, 0), _t(8, 4, 7, 9, 0)], {(0, 1)}, [], "edge (0, 1): 0 touch points"
        ),
        "touch-point-mismatch": (
            [_t(2, 4, 1, 5, 0), _t(5, 6, 4, 6, 3)],
            {(0, 1)},
            [Contact(0, 1, (5, 3), hat_vertex=0)],
            "edge (0, 1): touch point mismatch",
        ),
        "unrecorded-contact": (
            [_t(2, 4, 1, 5, 0), _t(5, 6, 4, 6, 3)], {(0, 1)}, [], "edge (0, 1): touch point mismatch"
        ),
        "touching-non-edge": (
            [_t(2, 4, 1, 5, 0), _t(5, 6, 4, 6, 3)], set(), [], "non-edge (0, 1) touches at [(5, 4)]"
        ),
        "extra-contact": (
            [_t(2, 4, 1, 5, 0), _t(5, 6, 4, 6, 3), _t(20, 4, 19, 21, 0)],
            {(0, 1)},
            [Contact(0, 1, (5, 4), hat_vertex=0), Contact(0, 2, (20, 4), hat_vertex=0)],
            "contact count differs from edge count",
        ),
    }

    def test_overlaps_come_by_pair_whatever_the_row_or_column(self):
        shapes = [
            _t(2, 6, 1, 3, 4),
            _t(10, 8, 8, 12, 7),
            _t(13, 8, 11, 15, 7),
            _t(2, 4, 1, 3, 2),
            _t(30, 2, 28, 32, 1),
            _t(33, 2, 31, 35, 1),
        ]
        want = ["legs of 0,3 intersect", "hats of 1,2 overlap", "hats of 4,5 overlap"]
        assert loop_verify_contacts(shapes, set(), []) == want
        assert _verify_contacts(shapes, set(), []) == want

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_each_problem_kind(self, kind):
        # Two touch points would need two same-row hats that reach each
        # other's column; those overlap, and overlap is reported first.
        shapes, edges, contacts, problem = self.KINDS[kind]
        assert loop_verify_contacts(shapes, edges, contacts) == [problem]
        assert _verify_contacts(shapes, edges, contacts) == [problem]


def test_onebend_at_3000_vertices_certifies():
    dr = draw_onebend(bench_instances().bounded_triangulation(3000, 8, 1))
    assert verify_drawing(dr).ok
