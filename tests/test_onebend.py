"""T-shape contact representation and the one-bend pipeline."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import bench_instances
from fewslopes.errors import TooFewVertices
from fewslopes.families import gen_gd, gen_octahedron, gen_random_triangulation
from fewslopes.graphs import PlanarGraph, planar_embed
from fewslopes.jsonio import drawing_to_obj, dumps_canonical
from fewslopes.onebend import (
    Contact,
    TShape,
    _verify_contacts,
    contact_numbering,
    draw_onebend,
    tshape_representation,
)
from fewslopes.verify import (
    check_noncrossing,
    hausdorff_within,
    max_bends,
    slope_census,
    verify_drawing,
)


class TestDrawnSlopeFamilies:
    @pytest.mark.parametrize(
        "g",
        [gen_octahedron(), gen_gd(6), gen_random_triangulation(30, 2)],
        ids=["octahedron", "gd_6", "random_triangulation_30_2"],
    )
    def test_segments_take_the_numbered_family_slopes(self, g):
        # hat side: slope -1/(2iN); leg side: slope 2jN, i and j the
        # contact's ranks in the hat and leg vertex's numbering
        rep = tshape_representation(planar_embed(g))
        num = contact_numbering(rep)
        dr = draw_onebend(g)
        big_n = dr.meta["N"]
        by_edge = {(c.u, c.v): ci for ci, c in enumerate(rep.contacts)}
        for arc in dr.edges:
            ci = by_edge[(arc.u, arc.v)]
            c = rep.contacts[ci]
            bx, by = arc.poly[1]
            hx, hy = dr.points[c.hat_vertex]
            lx, ly = dr.points[c.leg_vertex]
            i = num.index_at(c.hat_vertex, ci)
            j = num.index_at(c.leg_vertex, ci)
            assert (by - hy) / (bx - hx) == Fraction(-1, 2 * i * big_n)
            assert (ly - by) / (lx - bx) == Fraction(2 * j * big_n)
        d_t = dr.meta["d_T"]
        family = [Fraction(-1, 2 * i * big_n) for i in range(1, d_t + 1)]
        family += [Fraction(2 * j * big_n) for j in range(1, d_t + 1)]
        assert len(set(family)) == 2 * d_t  # the two families never collide


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

    @pytest.mark.parametrize("n", range(2))
    def test_too_few_vertices_is_typed(self, n):
        with pytest.raises(TooFewVertices, match=f"got {n}"):
            draw_onebend(PlanarGraph(n, ()))

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


# sha256 of the canonical JSON of each drawing, taken when the columns,
# T-shape ends and bends were computed in Fraction arithmetic: the integer
# construction must keep every coordinate
PINNED_BYTES = {
    "octahedron": (lambda: draw_onebend(gen_octahedron()),
        "fbb71b7de2d3f52653f3446c982bc038d363bd2f7efdca51e09f8e1189cd5805",
    ),
    "gd_5": (lambda: draw_onebend(gen_gd(5)),
        "adbb7d35aa0ca349e36a00ad1242a549ab4ae0ac5cae219f9badd6080706d907",
    ),
    "gd_6": (lambda: draw_onebend(gen_gd(6)),
        "4e1c57e66d259707df6d7d563c673a85136dcf146c6dd809ae03c8c3ff819d6d",
    ),
    "gd_7": (lambda: draw_onebend(gen_gd(7)),
        "0ec22dc339246a13632d8a7a85f3509188c997c0d1a424408bea6382c475996e",
    ),
    "random_triangulation_30_2": (lambda: draw_onebend(gen_random_triangulation(30, 2)),
        "df42d13fddb71aedd99a1395f8eaf7ba823ea8d2ad41f654b1b68cc3a5d0fc55",
    ),
    "single_edge": (lambda: draw_onebend(PlanarGraph(2, ((0, 1),))),
        "7eb10073c1c26db4aa32ae61ae496373e21c0f08ff7644173f95cc2a2a8d5a75",
    ),
    "five_cycle_with_chord": (
        lambda: draw_onebend(PlanarGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)))),
        "130d573364a307ecc7bb34f130f6b37280967c1d0caa3dd56f9f93c81a5464d8",
    ),
    "bounded_triangulation_300_8_1": (
        lambda: draw_onebend(bench_instances().bounded_triangulation(300, 8, 1)),
        "701c17ba6cf4ce14b209aed1c0c5d86cbf0e41a3f9727afda23732019b021378",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BYTES))
def test_onebend_bytes_are_pinned(name):
    build, digest = PINNED_BYTES[name]
    text = dumps_canonical(drawing_to_obj(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
