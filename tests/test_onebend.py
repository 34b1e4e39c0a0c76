"""T-shape contact representation and the one-bend pipeline."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import bench_instances, caterpillar, hausdorff_within
from fewslopes.errors import TooFewVertices
from fewslopes.families import gen_gd, gen_octahedron, gen_random_triangulation
from fewslopes.graphs import PlanarGraph, canonical_order, planar_embed, triangulate
from fewslopes.jsonio import drawing_to_obj, dumps_canonical
from fewslopes.onebend import (
    Contact,
    TShape,
    _columns,
    contact_numbering,
    draw_onebend,
    tshape_representation,
)
from fewslopes.verify import (
    check_noncrossing,
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
        ranks = contact_numbering(rep)
        dr = draw_onebend(g)
        big_n = dr.meta["N"]
        by_edge = {(c.u, c.v): ci for ci, c in enumerate(rep.contacts)}
        for arc in dr.edges:
            ci = by_edge[(arc.u, arc.v)]
            c = rep.contacts[ci]
            bx, by = arc.poly[1]
            hx, hy = dr.points[c.hat_vertex]
            lx, ly = dr.points[c.leg_vertex]
            i, j = ranks[ci]
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
        at = [[] for _ in rep.shapes]
        for c, (i, j) in zip(rep.contacts, contact_numbering(rep)):
            at[c.hat_vertex].append(i)
            at[c.leg_vertex].append(j)
        for ranks in at:
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
    """Contact oracle: the problems of a T-shape representation, found by
    n x n matrices and pair loops; [] when the shapes touch exactly along
    the edges, each once, at its recorded point."""
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


def random_degree3_tree(n: int, seed: int) -> PlanarGraph:
    """Each new vertex hangs from a random earlier vertex of degree < 3."""
    rng = random.Random(seed)
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return PlanarGraph(n, tuple(edges))


class TestContactsMatchLoop:
    """tshape_representation passes the pair-loop contact oracle, and the
    oracle itself finds each kind of problem."""

    @pytest.mark.parametrize("n,seed", [(300, 1), (300, 2), (1000, 1)])
    def test_bench_representations(self, n, seed):
        g = bench_instances().bounded_triangulation(n, 8, seed)
        rep = tshape_representation(planar_embed(g))
        edges = set(g.edges)
        assert loop_verify_contacts(rep.shapes, edges, rep.contacts) == []
        for k in (1, 3):
            shapes = _perturbed(rep.shapes, random.Random(n + seed + k), k)
            assert loop_verify_contacts(shapes, edges, rep.contacts)

    # connected graphs that are not triangulations, where retraction drops
    # the contacts of the edges triangulate added
    RETRACTED = {
        **{f"tree_100_{s}": (lambda s=s: random_degree3_tree(100, s)) for s in (1, 2, 3)},
        **{
            f"capped_planar_300_{d}_{s}": (
                lambda d=d, s=s: bench_instances().capped_planar(300, d, s)
            )
            for d in (5, 6, 8)
            for s in (1, 2, 3)
        },
    }

    @pytest.mark.parametrize("name", sorted(RETRACTED))
    def test_retraction_keeps_exactly_the_real_contacts(self, name):
        g = self.RETRACTED[name]()
        assert g.is_connected()
        e = planar_embed(g)
        assert not e.is_triangulated()
        rep = tshape_representation(e)
        assert loop_verify_contacts(rep.shapes, set(g.edges), rep.contacts) == []

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

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_each_problem_kind(self, kind):
        # Two touch points would need two same-row hats that reach each
        # other's column; those overlap, and overlap is reported first.
        shapes, edges, contacts, problem = self.KINDS[kind]
        assert loop_verify_contacts(shapes, edges, contacts) == [problem]


@pytest.mark.parametrize(
    "build",
    [
        lambda: bench_instances().bounded_triangulation(1000, 8, 1),
        lambda: bench_instances().bounded_triangulation(3000, 8, 1),
        lambda: caterpillar(200),
    ],
    ids=["bounded_triangulation_1000_8_1", "bounded_triangulation_3000_8_1", "caterpillar_200"],
)
def test_column_bits_follow_the_deepest_halving(build):
    # v1 sits at 0 and v2 at 2**scale; a column c != 0 is a halving
    # scale - v2(c) levels deep. The columns must not grow with n.
    e = planar_embed(build())
    co = canonical_order(e if e.is_triangulated() else triangulate(e))
    cols, _ = _columns(co)
    top = cols[co.order[1]]
    scale = top.bit_length() - 1
    assert cols[co.order[0]] == 0 and top == 1 << scale
    deepest = max(scale - (c & -c).bit_length() + 1 for c in cols.values() if c)
    assert max(c.bit_length() for c in cols.values()) <= 2 * deepest + 1


def test_onebend_at_3000_vertices_certifies():
    dr = draw_onebend(bench_instances().bounded_triangulation(3000, 8, 1))
    assert verify_drawing(dr).ok


# sha256 of the canonical JSON of each drawing, taken when the columns,
# T-shape ends and bends were computed in Fraction arithmetic: the integer
# construction must keep every coordinate. Re-taken for drawing format 2
# once each drawing's format 2 parse equalled its format 1 parse, every
# coordinate in value and type.
PINNED_BYTES = {
    "octahedron": (lambda: draw_onebend(gen_octahedron()),
        "e736bb5af223c4f0066f9a6ba1bf635d2bfaae2614f2590c88f5262cdf0b1973",
    ),
    "gd_5": (lambda: draw_onebend(gen_gd(5)),
        "786e4ed7b31a1465a161157d12460188d8366e8c2f1399e3b3e2718229bf3a61",
    ),
    "gd_6": (lambda: draw_onebend(gen_gd(6)),
        "c13ff2d469ef3355e10dcac21a9487ac8aa3c8c12aca51bd50a808c7e76f36df",
    ),
    "gd_7": (lambda: draw_onebend(gen_gd(7)),
        "636b8e10b155fbe5ede9a6b2823896a6e8b810ec9345fb16c29879b51218da99",
    ),
    "random_triangulation_30_2": (lambda: draw_onebend(gen_random_triangulation(30, 2)),
        "e0e0bfa3d6bd5c697d67c886d21bd4f8c557a226ae8e63d4caf8e487149fe5bc",
    ),
    "single_edge": (lambda: draw_onebend(PlanarGraph(2, ((0, 1),))),
        "c9e50cf44bde03e3155729c6458eafa294bc518c680fec23eaa571400c22c498",
    ),
    "five_cycle_with_chord": (
        lambda: draw_onebend(PlanarGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)))),
        "181fc9ea249a981c55c0efa8f9d790a7b02e6289e687c75f3b488da4d40e4222",
    ),
    "bounded_triangulation_300_8_1": (
        lambda: draw_onebend(bench_instances().bounded_triangulation(300, 8, 1)),
        "0758d9eab772c96e246fb3845ae0e62f01a01fe93cb90904e3564fed8aac3b59",
    ),
    # taken while every column was an n-bit int; these two halve deeper
    # than 64 (81 and 199 levels), so their columns go through grid
    # refinements (one and two)
    "bounded_triangulation_3000_8_1": (
        lambda: draw_onebend(bench_instances().bounded_triangulation(3000, 8, 1)),
        "10dc148d2bcf3a9bb39d52d4877052084c20fa2f123f54f42e9cabc06862e729",
    ),
    "caterpillar_200": (lambda: draw_onebend(caterpillar(200)),
        "d61c95134926ae2cd08d8d3a37ccba9fd0c59e97c58aed26e6b50d97520cfb4e",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BYTES))
def test_onebend_bytes_are_pinned(name):
    build, digest = PINNED_BYTES[name]
    text = dumps_canonical(drawing_to_obj(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
