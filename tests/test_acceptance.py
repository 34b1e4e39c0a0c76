"""End-to-end acceptance checks.

Each test asserts one headline guarantee of the package, on fixed seeded
instances, checked exactly by the verifier. One pass/fail line
per guarantee under pytest -v.
"""

import math
import time

import pytest

from conftest import bounded_stack, capped_planar, glued_blocks, hausdorff_within
from fewslopes.circlepack import ALPHA, layout_centers, pack_radii, ratio_check
from fewslopes.cli import run
from fewslopes.drawing import SlopeSet
from fewslopes.errors import DegreeTooHigh
from fewslopes.families import gen_gd, gen_octahedron, gen_random_triangulation
from fewslopes.graphs import PlanarGraph, planar_embed
from fewslopes.jsonio import (
    drawing_to_obj,
    dumps_canonical,
    graph_to_obj,
    packing_to_obj,
)
from fewslopes.onebend import draw_onebend, tshape_representation
from fewslopes.straightline import draw_straight, orientation_check, slope_bound, snap
from fewslopes.twobend import draw_twobend
from fewslopes.verify import (
    check_gd_claims,
    check_noncrossing,
    max_bends,
    slope_census,
    verify_drawing,
)

K4 = PlanarGraph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))


def components(g: PlanarGraph) -> list[list[int]]:
    adj = {v: [] for v in range(g.n)}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, out = set(), []
    for start in range(g.n):
        if start in seen:
            continue
        comp, queue = [], [start]
        seen.add(start)
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def induced(g: PlanarGraph, verts: list[int]) -> PlanarGraph:
    to_local = {v: i for i, v in enumerate(verts)}
    edges = tuple(
        (to_local[u], to_local[v]) for u, v in g.edges if u in to_local and v in to_local
    )
    return PlanarGraph(len(verts), edges)


def packing_instances():
    """20 seeded triangulations, 12 <= n <= 60."""
    out = []
    for seed in range(20):
        n = 12 + (seed * 7) % 49
        g = gen_random_triangulation(n, seed)
        e = planar_embed(g)
        out.append((g, e, layout_centers(pack_radii(e), e)))
    return out


def test_packing_matches_curvature_oracle_and_closes_up():
    t0 = time.perf_counter()

    # three mutually tangent unit disks enclose a disk of curvature 3 + 2*sqrt(3)
    oracle = 1.0 / (3.0 + 2.0 * math.sqrt(3.0))
    e4 = planar_embed(K4)
    r4 = pack_radii(e4)
    interior = next(v for v in range(4) if v not in e4.outer_face)
    assert abs(r4[interior] - oracle) < 1e-8

    for g, e, cp in packing_instances():
        assert g.n <= 60
        worst = 0.0
        for u, v in g.edges:
            gap = math.hypot(
                cp.centers[u][0] - cp.centers[v][0],
                cp.centers[u][1] - cp.centers[v][1],
            )
            worst = max(worst, abs(gap - cp.radii[u] - cp.radii[v]))
        assert worst < 1e-8
        for v in range(g.n):
            if v in cp.outer:
                continue
            rot = e.rotation[v]
            total = 0.0
            for i in range(len(rot)):
                ax = cp.centers[rot[i]][0] - cp.centers[v][0]
                ay = cp.centers[rot[i]][1] - cp.centers[v][1]
                bx = cp.centers[rot[(i + 1) % len(rot)]][0] - cp.centers[v][0]
                by = cp.centers[rot[(i + 1) % len(rot)]][1] - cp.centers[v][1]
                cosang = (ax * bx + ay * by) / (math.hypot(ax, ay) * math.hypot(bx, by))
                total += math.acos(max(-1.0, min(1.0, cosang)))
            assert abs(total - 2.0 * math.pi) < 1e-8

    assert time.perf_counter() - t0 < 5.0


def test_tangent_radius_ratio_lower_bound():
    for g, _, cp in packing_instances():
        d = g.max_degree
        rep = ratio_check(cp, d)
        assert rep.ok, f"n={g.n} witness={rep.witness_edge}"
        assert rep.min_ratio >= ALPHA ** (d - 2) * (1.0 - 1e-6)


def test_snapped_integer_drawings_meet_grid_invariants():
    cases = [K4, gen_octahedron()] + [bounded_stack(20 + 8 * i, 10 + i, 7) for i in range(5)]
    for g in cases:
        assert g.n <= 60 and g.max_degree <= 7
        dr = draw_straight(g)
        d = dr.meta["d_T"]
        assert d == g.max_degree  # all instances are triangulations

        assert dr.coord_kind == "int"
        ok, witness = check_noncrossing(dr)
        assert ok, witness

        e = planar_embed(g)
        cp = layout_centers(pack_radii(e, 1e-12), e)
        sl = snap(cp, d)
        root2 = math.sqrt(2.0)
        for v in range(g.n):
            assert dr.points[v] == sl.points[v]
            cx = (cp.centers[v][0] + sl.offset[0]) * sl.scale
            cy = (cp.centers[v][1] + sl.offset[1]) * sl.scale
            disp = math.hypot(sl.points[v][0] - cx, sl.points[v][1] - cy)
            assert disp < d ** sl.exponents[v] / root2

        orep = orientation_check(cp, sl)
        assert orep.ok and not orep.violations

        bound = slope_bound(d)
        for u, v in g.edges:
            shrink = d ** min(sl.exponents[u], sl.exponents[v])
            dx = dr.points[u][0] - dr.points[v][0]
            dy = dr.points[u][1] - dr.points[v][1]
            assert dx % shrink == 0 and dy % shrink == 0
            assert math.hypot(dx // shrink, dy // shrink) <= bound["R"]

        _, distinct = slope_census(dr)
        assert distinct <= bound["max_slopes"]


def test_onebend_drawings_track_contact_paths():
    t0 = time.perf_counter()
    degrees_seen = set()
    for i in range(20):
        g = bounded_stack(120 + 4 * i, i, 5 + i % 5)
        assert g.n <= 200
        assert 5 <= g.max_degree <= 9
        degrees_seen.add(g.max_degree)

        dr = draw_onebend(g)
        assert dr.coord_kind == "rational"
        ok, witness = check_noncrossing(dr)
        assert ok, witness
        assert max_bends(dr) <= 1
        _, distinct = slope_census(dr)
        assert distinct <= 2 * g.max_degree

        rep = tshape_representation(planar_embed(g))
        by_edge = {(c.u, c.v): c for c in rep.contacts}
        for arc in dr.edges:
            c = by_edge[(arc.u, arc.v)]
            drawn = [(float(x), float(y)) for x, y in arc.poly]
            right_angle = [drawn[0], (float(c.point[0]), float(c.point[1])), drawn[-1]]
            assert hausdorff_within(drawn, right_angle, 0.5)

    assert degrees_seen == {5, 6, 7, 8, 9}
    assert time.perf_counter() - t0 < 10.0


def test_twobend_drawings_respect_slope_budget():
    cases = [
        (6, capped_planar(120, 0, 6)),
        (6, capped_planar(120, 1, 6)),
        (6, capped_planar(140, 5, 6)),
        (8, capped_planar(160, 0, 8)),
        (8, capped_planar(160, 1, 8)),
        (10, capped_planar(160, 0, 10)),
        (10, capped_planar(160, 1, 10)),
        (6, bounded_stack(150, 2, 6)),
        (8, bounded_stack(180, 4, 8)),
        (10, bounded_stack(200, 6, 10)),
        (6, glued_blocks(6, 1)),
        (8, glued_blocks(8, 2)),
        (10, glued_blocks(10, 3)),
        # odd budgets ride the same ceil(d/2) slope count
        (5, capped_planar(120, 2, 5)),
        (7, capped_planar(140, 3, 7)),
        (7, glued_blocks(7, 5)),
    ]
    for d, g in cases:
        assert g.n <= 200 and g.max_degree <= d
        s = (d + 1) // 2
        dr = draw_twobend(g, SlopeSet(s))
        rep = verify_drawing(dr)
        assert rep.crossing_free, (d, g.n, rep.crossing_witness)
        assert rep.max_bends <= 2
        assert rep.distinct_slopes <= s, (d, g.n, rep.distinct_slopes)
        assert rep.contiguity_ok is not None and all(rep.contiguity_ok.values())
        assert rep.ok
        # the wedge guarantee is per connected piece; a side-by-side layout
        # of several components has no single wedge of its own
        for comp in components(g):
            if len(comp) == g.n:
                assert rep.wedge_ok
                break
            sub = induced(g, comp)
            srep = verify_drawing(draw_twobend(sub, SlopeSet(s)))
            assert srep.wedge_ok and srep.ok


def test_octahedron_needs_three_slopes(tmp_path):
    g = gen_octahedron()

    dr = draw_twobend(g, SlopeSet(3))
    rep = verify_drawing(dr)
    assert rep.ok and rep.distinct_slopes <= 3

    with pytest.raises(DegreeTooHigh):
        draw_twobend(g, SlopeSet(2))

    gp = tmp_path / "g.json"
    gp.write_text(dumps_canonical(graph_to_obj(g)) + "\n", encoding="utf-8")
    dp = tmp_path / "d.json"
    assert run(["draw", "--method", "twobend", "--slopes", "3",
                "--in", str(gp), "--out", str(dp)]) == 0
    assert run(["verify", "--in", str(dp), "--out", str(tmp_path / "r.json")]) == 0
    assert run(["draw", "--method", "twobend", "--slopes", "2", "--in", str(gp)]) == 1


def test_hub_family_slope_lower_bounds():
    for d in (5, 6, 7):
        g = gen_gd(d)

        rep = check_gd_claims(draw_straight(g), d)
        assert rep.required == 3 * d - 6
        assert rep.lower_bound_ok, (d, rep.distinct)
        assert rep.hub_multiplicity is None

        rep = check_gd_claims(draw_onebend(g), d)
        assert rep.required == -(-3 * (d - 1) // 4)
        assert rep.lower_bound_ok, (d, rep.distinct)
        assert rep.hub_multiplicity_ok
        assert all(count <= 4 for count in rep.hub_multiplicity.values())


def test_pipelines_emit_identical_bytes_on_rerun(tmp_path):
    def snapshot():
        out = []
        g = gen_random_triangulation(40, 11)
        out.append(dumps_canonical(graph_to_obj(g)))
        out.append(dumps_canonical(graph_to_obj(gen_gd(6))))
        e = planar_embed(g)
        out.append(dumps_canonical(packing_to_obj(layout_centers(pack_radii(e), e))))
        out.append(dumps_canonical(drawing_to_obj(draw_straight(g))))
        out.append(dumps_canonical(drawing_to_obj(draw_onebend(g))))
        out.append(dumps_canonical(drawing_to_obj(draw_twobend(bounded_stack(60, 3, 8)))))
        return out

    assert snapshot() == snapshot()

    def cli_bytes(tag):
        gp = tmp_path / f"g{tag}.json"
        dp = tmp_path / f"d{tag}.json"
        rp = tmp_path / f"r{tag}.json"
        assert run(["gen", "--family", "random", "--n", "24", "--seed", "9",
                    "--out", str(gp)]) == 0
        assert run(["draw", "--method", "twobend", "--in", str(gp), "--out", str(dp)]) == 0
        assert run(["verify", "--in", str(dp), "--out", str(rp)]) == 0
        return gp.read_bytes() + dp.read_bytes() + rp.read_bytes()

    assert cli_bytes("a") == cli_bytes("b")
