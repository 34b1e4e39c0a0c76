"""Snapped-packing straight-line pipeline."""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import BENCH_INSTANCES, bench_instances, bounded_stack

import fewslopes
from fewslopes import straightline
from fewslopes.circlepack import ALPHA, CirclePacking, layout_centers, pack_radii
from fewslopes.errors import FewslopesError, PrecisionExhausted, TooFewVertices
from fewslopes.families import gen_gd, gen_octahedron, gen_random_triangulation
from fewslopes.graphs import PlanarGraph, planar_embed
from fewslopes.jsonio import drawing_to_obj, dumps_canonical
from fewslopes.straightline import (
    SnappedLayout,
    draw_straight,
    orientation_check,
    rstar,
    slope_bound,
    snap,
)
from fewslopes.verify import check_noncrossing, slope_census, verify_drawing


# straight-pack seed 1, round 0: n = 100 and n = 150
ROUND0 = ((100, 3912054301459775401), (150, 9698512278221236422))

# draws ROUND0 in a fresh interpreter: one sha256 of the canonical JSON, or
# the exception's type, per instance
DRAW_ROUND0 = f"""
import hashlib, importlib.util, sys
from fewslopes.jsonio import drawing_to_obj, dumps_canonical
from fewslopes.straightline import draw_straight
spec = importlib.util.spec_from_file_location("bench_instances", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
for n, seed in {ROUND0!r}:
    try:
        dr = draw_straight(mod.bounded_triangulation(n, 8, seed))
    except Exception as exc:
        print(type(exc).__name__)
    else:
        print(hashlib.sha256(dumps_canonical(drawing_to_obj(dr)).encode()).hexdigest())
"""


def scaled_center(sl, cp, i):
    """Center i of cp, translated and scaled as snap does before rounding."""
    return (
        (cp.centers[i][0] + sl.offset[0]) * sl.scale,
        (cp.centers[i][1] + sl.offset[1]) * sl.scale,
    )


def packed(g):
    e = planar_embed(g)
    return layout_centers(pack_radii(e, 1e-12), e)


class TestScaleConstants:
    def test_rstar_cubic(self):
        assert rstar(3) == pytest.approx(math.sqrt(2.0) * (3.0 + 2.0 * math.sqrt(3.0)))

    def test_rstar_exceeds_one(self):
        for d in range(3, 12):
            assert rstar(d) > 1.0

    def test_edge_length_radius_cubic(self):
        a = ALPHA
        oracle = (3.0 / a) * (2.0 * math.sqrt(2.0) / a + math.sqrt(2.0))
        rep = slope_bound(3)
        assert rep["R"] == pytest.approx(oracle)
        assert rep["R"] == pytest.approx(381.979, abs=5e-3)

    def test_lattice_count_exact_small(self):
        rep = slope_bound(3)
        assert rep["exact"]
        r = rep["R"]
        lim = int(r) + 1
        xs, ys = np.mgrid[-lim : lim + 1, -lim : lim + 1]
        oracle = int(np.count_nonzero(xs * xs + ys * ys <= int(r * r)))
        assert rep["max_slopes"] == oracle

    def test_large_degree_bound_covers_disk(self):
        rep = slope_bound(7)
        assert not rep["exact"]
        assert rep["max_slopes"] >= math.pi * rep["R"] ** 2

    def test_rejects_degenerate_degree(self):
        with pytest.raises(ValueError):
            slope_bound(2)

    def test_draw_takes_the_radius_without_the_lattice_count(self, monkeypatch):
        def counted(d):
            raise AssertionError("draw_straight ran the lattice-point count")

        monkeypatch.setattr(straightline, "slope_bound", counted)
        dr = draw_straight(gen_random_triangulation(30, 1))
        monkeypatch.undo()
        assert dr.meta["R"] == slope_bound(dr.meta["d_T"])["R"]


class TestSnap:
    @pytest.mark.parametrize("g", [gen_octahedron(), gen_random_triangulation(30, 1)])
    def test_grid_exponents_and_displacement(self, g):
        cp = packed(g)
        d = g.max_degree
        sl = snap(cp, d)
        r = np.asarray(cp.radii)
        ratios = r / r.min()
        for i, s in enumerate(sl.exponents):
            assert d ** s <= ratios[i] * (1 + 1e-12)
            assert ratios[i] < d ** (s + 1) * (1 + 1e-12)
            ox, oy = scaled_center(sl, cp, i)
            vx, vy = sl.points[i]
            assert math.hypot(ox - vx, oy - vy) < d ** s / math.sqrt(2.0)

    def test_smallest_disk_lands_at_rstar(self):
        cp = packed(gen_random_triangulation(25, 4))
        sl = snap(cp, 7)
        assert sl.scale * min(cp.radii) == pytest.approx(rstar(7))

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            SnappedLayout(
                d=3, scale=1.0, offset=(0.0, 0.0), exponents=(1,), points=((4, 3),)
            )

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            snap(packed(gen_octahedron()), 2)


class TestOrientation:
    def test_clean_snap_has_no_violations(self):
        g = gen_random_triangulation(40, 6)
        cp = packed(g)
        sl = snap(cp, g.max_degree)
        rep = orientation_check(cp, sl)
        assert rep.ok
        assert rep.faces_checked == len(cp.embedding.faces)

    def test_tampering_flips_a_face(self):
        g = gen_octahedron()
        cp = packed(g)
        sl = snap(cp, 4)
        far = tuple(
            p if i != 0 else (p[0] + 4 ** 9, p[1]) for i, p in enumerate(sl.points)
        )
        bad = SnappedLayout(
            d=sl.d, scale=sl.scale, offset=sl.offset,
            exponents=sl.exponents, points=far,
        )
        assert orientation_check(cp, bad).violations

    def test_mirrored_layout_is_inverted_even_where_floats_agree(self):
        # float centers and snapped points agree on every face's sign, and
        # every face is turned against the embedding's orientation
        g = gen_random_triangulation(20, 3)
        cp = packed(g)
        mirror = CirclePacking(
            tuple((-x, y) for x, y in cp.centers), cp.radii, cp.outer,
            cp.epsilon, cp.embedding,
        )
        sl = snap(mirror, g.max_degree)

        def cross(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        for face in cp.embedding.faces:
            floats = cross(*(scaled_center(sl, mirror, v) for v in face))
            ints = cross(*(sl.points[v] for v in face))
            assert (floats > 0) == (ints > 0) and ints != 0
        rep = orientation_check(mirror, sl)
        assert set(rep.violations) == set(cp.embedding.faces)
        assert orientation_check(cp, snap(cp, g.max_degree)).ok


class TestDrawStraight:
    def test_octahedron_integer_noncrossing(self):
        dr = draw_straight(gen_octahedron())
        assert dr.coord_kind == "int"
        assert all(isinstance(c, int) for p in dr.points.values() for c in p)
        ok, witness = check_noncrossing(dr)
        assert ok and witness is None
        assert dr.meta["d_T"] == 4

    def test_slope_count_within_disk_bound(self):
        g = gen_random_triangulation(30, 2)
        dr = draw_straight(g)
        _, distinct = slope_census(dr)
        assert distinct <= math.ceil(math.pi * dr.meta["R"] ** 2)

    def test_shrunk_edge_vectors(self):
        g = gen_random_triangulation(25, 8)
        dr = draw_straight(g)
        e = planar_embed(g)
        et = e  # triangulation of a triangulation is itself
        d = et.graph.max_degree
        cp = packed(g)
        sl = snap(cp, d)
        big_r = slope_bound(d)["R"]
        for u, v in g.edges:
            g_min = d ** min(sl.exponents[u], sl.exponents[v])
            dx = dr.points[u][0] - dr.points[v][0]
            dy = dr.points[u][1] - dr.points[v][1]
            assert dx % g_min == 0 and dy % g_min == 0
            assert math.hypot(dx / g_min, dy / g_min) <= big_r

    def test_small_graphs_rejected(self):
        with pytest.raises(ValueError):
            draw_straight(PlanarGraph(3, ((0, 1), (1, 2), (0, 2))))

    @pytest.mark.parametrize("n", range(4))
    def test_too_few_vertices_is_typed(self, n):
        g = PlanarGraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))
        with pytest.raises(TooFewVertices, match=f"got {n}"):
            draw_straight(g)

    def test_unresolvable_packing_is_typed(self):
        # the smallest disk is ~5e-20 of the outer ones: the float layout breaks
        with pytest.raises(PrecisionExhausted):
            draw_straight(bounded_stack(150, 1, 8))

    @pytest.mark.parametrize(
        "n,seed", [(125, 12837352374815378887), (150, 9698512278221236422)]
    )
    def test_snap_beyond_float_spacing_never_crosses(self, n, seed):
        # straight-pack seed 1, round 0: snapped coordinates reach 3e20-9e21,
        # where floats no longer hold the centers, and drawings used to cross
        g = bench_instances().bounded_triangulation(n, 8, seed)
        try:
            dr = draw_straight(g)
        except FewslopesError:
            return
        assert verify_drawing(dr).ok

    def test_thousand_vertices_verify_or_fail_typed(self):
        g = bench_instances().bounded_triangulation(1000, 8, 1)
        assert g.n == 1000 and g.max_degree == 8
        try:
            dr = draw_straight(g)
        except FewslopesError:
            return
        assert verify_drawing(dr).ok

    def test_bytes_do_not_depend_on_blas_threads(self):
        src = str(Path(fewslopes.__file__).resolve().parents[1])
        procs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OMP_NUM_THREADS=threads,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            procs.append(subprocess.Popen(
                [sys.executable, "-c", DRAW_ROUND0, str(BENCH_INSTANCES)],
                env=env, stdout=subprocess.PIPE, text=True,
            ))
        outs = [p.communicate(timeout=300)[0] for p in procs]
        assert [p.returncode for p in procs] == [0, 0]
        assert len(outs[0].split()) == len(ROUND0)
        assert outs[0] == outs[1]

    def test_snap_overflow_is_typed(self):
        # degree 26 needs snapping grids beyond float range
        with pytest.raises(PrecisionExhausted, match="overflows floats"):
            draw_straight(gen_random_triangulation(60, 0))
        # degree 21 snaps inside floats, but every face of it inverted
        with pytest.raises(PrecisionExhausted):
            draw_straight(gen_random_triangulation(60, 3))

    def test_deterministic_bytes(self):
        g = gen_random_triangulation(20, 13)
        a = dumps_canonical(drawing_to_obj(draw_straight(g)))
        b = dumps_canonical(drawing_to_obj(draw_straight(g)))
        assert a == b


# sha256 of the canonical JSON of each drawing without its meta, i.e. of its
# integer points and edges, taken when layout_centers traced the face of
# every dart it took from the queue. meta is left out: its "scale" is a
# float from np.exp, whose rounding may differ between CPUs. Re-taken for
# drawing format 2 once each drawing's format 2 parse equalled its format 1
# parse, every coordinate in value and type.
PINNED_POINTS = {
    "octahedron": (gen_octahedron,
        "27e5ac643e0b5be0ff407d7f2279b8c3cc6fefeb2b802ba10666496b2e8f9768",
    ),
    "random_triangulation_30_2": (lambda: gen_random_triangulation(30, 2),
        "af43da3d0712d26427482dfb8647360e830ab8d7f6c450ad612795d4efaa07b6",
    ),
    "gd_5": (lambda: gen_gd(5),
        "017a8091d9e4febc9a075a3d8131ac28252dcd7b94522d7d2c53545f48d8edb3",
    ),
    "gd_6": (lambda: gen_gd(6),
        "260c37a2529aa1d7238ae9f65dcb5a71fc49581a619e1d9235788368efbaa76b",
    ),
    "five_cycle_with_chord": (
        lambda: PlanarGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2))),
        "68fce13303d48e8dd1074de8f8b55c5aa2e4a6e21c73c6cceb94224c56c0f349",
    ),
    "bounded_triangulation_100_8_1": (
        lambda: bench_instances().bounded_triangulation(100, 8, 1),
        "114c83741b5bb0d6f52bdb776b3cdf9f00aed07d98d17b0e7f13bca6c8f6cc92",
    ),
    "bounded_triangulation_75_8_2": (
        lambda: bench_instances().bounded_triangulation(75, 8, 2),
        "87190aa8426d740c3f1e110f1055b0028752f03042601835591b939a42f1d38a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_POINTS))
def test_straight_points_are_pinned(name):
    build, digest = PINNED_POINTS[name]
    obj = drawing_to_obj(draw_straight(build()))
    del obj["meta"]
    assert hashlib.sha256(dumps_canonical(obj).encode()).hexdigest() == digest
