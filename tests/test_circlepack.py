"""Tangency packing: radius iteration, center layout, ratio bound."""

from __future__ import annotations

import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from conftest import bench_instances

from fewslopes import circlepack
from fewslopes.circlepack import (
    ALPHA,
    CirclePacking,
    layout_centers,
    pack_radii,
    ratio_check,
)
from fewslopes.errors import NoConvergence, NotTriangulated, PrecisionExhausted
from fewslopes.families import gen_octahedron, gen_random_triangulation
from fewslopes.graphs import PlanarGraph, planar_embed


def packed(g, eps=1e-10):
    e = planar_embed(g)
    return layout_centers(pack_radii(e, eps), e)


def interior_angle_sums(cp: CirclePacking) -> dict[int, float]:
    """Geometric angle sum at each interior vertex, from the laid-out centers
    alone (independent of the radius iteration's own angle formula)."""
    e = cp.embedding
    c = np.asarray(cp.centers)
    sums = {}
    for v in range(e.graph.n):
        if v in cp.outer:
            continue
        rot = e.rotation[v]
        total = 0.0
        for i in range(len(rot)):
            a = c[rot[i]] - c[v]
            b = c[rot[(i + 1) % len(rot)]] - c[v]
            cosang = float(np.dot(a, b) / (np.hypot(*a) * np.hypot(*b)))
            total += math.acos(max(-1.0, min(1.0, cosang)))
        sums[v] = total
    return sums


def nested_triangles(k: int) -> PlanarGraph:
    """k triangles (3t, 3t + 1, 3t + 2), each joined to the next by an
    octahedral band: a triangulation of 3k vertices, each of degree at most 6."""
    edges = set()
    for t in range(k):
        a = [3 * t + i for i in range(3)]
        edges |= {tuple(sorted((a[i], a[(i + 1) % 3]))) for i in range(3)}
        if t + 1 < k:
            b = [3 * t + 3 + i for i in range(3)]
            edges |= {tuple(sorted((a[i], b[i]))) for i in range(3)}
            edges |= {tuple(sorted((a[i], b[(i + 1) % 3]))) for i in range(3)}
    return PlanarGraph(3 * k, tuple(sorted(edges)))


class TestRadii:
    def test_k4_interior_radius_matches_curvature_identity(self):
        # three mutually tangent unit disks enclose a disk of curvature
        # 1 + 1 + 1 + 2*sqrt(1*1 + 1*1 + 1*1)
        oracle = 1.0 / (3.0 + 2.0 * math.sqrt(3.0))
        g = PlanarGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
        e = planar_embed(g)
        r = pack_radii(e, 1e-12)
        interior = next(v for v in range(4) if v not in e.outer_face)
        assert abs(r[interior] - oracle) < 1e-10
        for v in e.outer_face:
            assert r[v] == 1.0

    def test_octahedron_interior_radii_symmetric(self):
        e = planar_embed(gen_octahedron())
        r = pack_radii(e, 1e-12)
        inner = [r[v] for v in range(6) if v not in e.outer_face]
        assert max(inner) - min(inner) < 1e-10

    def test_rejects_non_triangulation(self):
        cube = PlanarGraph(
            8,
            ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)),
        )
        with pytest.raises(NotTriangulated):
            pack_radii(planar_embed(cube))

    def test_no_convergence_reports_residual(self, monkeypatch):
        e = planar_embed(gen_random_triangulation(20, 0))
        monkeypatch.setattr(circlepack, "_MAX_STEPS", 1)
        with pytest.raises(NoConvergence) as err:
            pack_radii(e, 1e-15)
        assert err.value.residual > 1e-15

    def test_unreachable_epsilon_stops_at_float_resolution(self):
        e = planar_embed(gen_random_triangulation(30, 4))
        with pytest.raises(NoConvergence) as err:
            pack_radii(e, 0.0)
        assert 0.0 < err.value.residual < 1e-12
        assert err.value.max_iters < 20

    def test_underflowing_radius_raises_precision_exhausted(self):
        # the radii shrink by a fixed factor per band, so 400 bands take the
        # innermost ones below the least float
        e = planar_embed(nested_triangles(400))
        with pytest.raises(PrecisionExhausted, match=r"radius of vertex \d+ underflows"):
            pack_radii(e)

    def test_deterministic(self):
        e = planar_embed(gen_random_triangulation(30, 4))
        assert np.array_equal(pack_radii(e), pack_radii(e))

    def test_thousand_vertices_within_twenty_newton_steps(self, monkeypatch):
        e = planar_embed(bench_instances().bounded_triangulation(1000, 8, 1))
        monkeypatch.setattr(circlepack, "_MAX_STEPS", 20)
        r = pack_radii(e, 1e-12)
        # the angle of corner (v; a, b) from its half-angle sine, per rotation
        for v in range(e.graph.n):
            if v in e.outer_face:
                continue
            rot = e.rotation[v]
            total = 0.0
            for a, b in zip(rot, rot[1:] + rot[:1]):
                s2 = r[a] * r[b] / ((r[v] + r[a]) * (r[v] + r[b]))
                total += 2.0 * math.asin(math.sqrt(s2))
            assert abs(total - 2.0 * math.pi) < 1e-11


class TestLayout:
    @pytest.mark.parametrize("g", [gen_octahedron(), gen_random_triangulation(40, 8)])
    def test_tangency_residual_small(self, g):
        cp = packed(g)
        worst = max(
            abs(math.dist(cp.centers[u], cp.centers[v]) - (cp.radii[u] + cp.radii[v]))
            / (cp.radii[u] + cp.radii[v])
            for u, v in g.edges
        )
        assert worst < 1e-8
        assert cp.epsilon == pytest.approx(worst, rel=1e-6, abs=1e-15)

    def test_interior_angles_close_round(self):
        cp = packed(gen_random_triangulation(35, 2))
        for total in interior_angle_sums(cp).values():
            assert abs(total - 2.0 * math.pi) < 1e-8

    def test_outer_anchors(self):
        cp = packed(gen_octahedron())
        a, b = cp.outer[0], cp.outer[1]
        assert cp.centers[a] == (0.0, 0.0)
        assert abs(cp.centers[b][1]) < 1e-12
        assert cp.centers[b][0] > 0

    def test_rotations_realized_clockwise(self):
        cp = packed(gen_random_triangulation(25, 6))
        e = cp.embedding
        c = np.asarray(cp.centers)
        for v in range(e.graph.n):
            if v in cp.outer:
                continue
            rot = e.rotation[v]
            measured = sorted(
                rot, key=lambda u: math.atan2(*(c[u] - c[v])) % (2 * math.pi)
            )
            k = measured.index(rot[0])
            assert tuple(measured[(k + i) % len(rot)] for i in range(len(rot))) == rot

    def test_deterministic_centers(self):
        a = packed(gen_random_triangulation(30, 12))
        b = packed(gen_random_triangulation(30, 12))
        assert a.centers == b.centers and a.radii == b.radii

    def test_rejects_non_finite_center(self):
        good = packed(gen_octahedron())
        centers = list(good.centers)
        centers[good.outer[2]] = (math.nan, 0.0)
        with pytest.raises(ValueError, match="finite"):
            CirclePacking(tuple(centers), good.radii, good.outer, good.epsilon)

    def test_zero_radius_raises_precision_exhausted(self):
        # the interior disk of K4 at radius 0 lands on the tangency point of
        # two outer disks: its center is finite and apart from every other
        e = planar_embed(PlanarGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))))
        radii = [1.0] * 4
        radii[next(v for v in range(4) if v not in e.outer_face)] = 0.0
        with pytest.raises(PrecisionExhausted, match="radius"):
            layout_centers(radii, e)


class TestRatio:
    def test_k4_ratio_is_alpha(self):
        g = PlanarGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
        rep = ratio_check(packed(g), 3)
        assert rep.ok
        assert rep.bound == pytest.approx(ALPHA)
        assert rep.min_ratio == pytest.approx(1.0 / (3.0 + 2.0 * math.sqrt(3.0)), abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_tangent_pairs_respect_degree_bound(self, seed):
        g = gen_random_triangulation(45, seed)
        cp = packed(g)
        rep = ratio_check(cp, g.max_degree)
        assert rep.ok
        assert rep.min_ratio >= ALPHA ** (g.max_degree - 2) * (1.0 - 1e-6)
        assert rep.witness_edge is None

    def test_slack_does_not_grow_with_epsilon(self):
        # a stored epsilon of 0.2 leaves the bound as it is: the interior
        # disk of K4 shrunk by 10% is below alpha
        cp = packed(PlanarGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))))
        radii = tuple(r if v in cp.outer else 0.9 * r for v, r in enumerate(cp.radii))
        rep = ratio_check(dataclasses.replace(cp, radii=radii, epsilon=0.2), 3)
        assert not rep.ok
        assert rep.min_ratio == pytest.approx(0.9 * ALPHA)

    def test_understated_degree_fails_with_witness(self):
        g = gen_random_triangulation(45, 0)
        cp = packed(g)
        rep = ratio_check(cp, 3)
        assert not rep.ok
        u, v = rep.witness_edge
        assert g.has_edge(u, v)
        assert rep.min_ratio == pytest.approx(
            min(cp.radii[u], cp.radii[v]) / max(cp.radii[u], cp.radii[v])
        )


# --- reference kernels ------------------------------------------------------------
# The numpy-vector forms the lean kernels replaced; the kernels keep every
# float operation, so they must agree to the bit.


def oracle_laplacian_solve(ia, ib, w, m, rhs):
    def apply(x):
        xe = np.append(x, 0.0)
        flow = w * (xe[ia] - xe[ib])
        return (np.bincount(ia, flow, m + 1) - np.bincount(ib, flow, m + 1))[:m]

    inv_diag = 1.0 / (np.bincount(ia, w, m + 1) + np.bincount(ib, w, m + 1))[:m]
    x = np.zeros(m)
    res = rhs.copy()
    z = inv_diag * res
    step = z.copy()
    rz = np.sum(res * z)
    stop = 1e-12 * np.sum(rhs * rhs)
    for _ in range(10 * m):
        if np.sum(res * res) <= stop:
            break
        q = apply(step)
        alpha = rz / np.sum(step * q)
        x += alpha * step
        res -= alpha * q
        z = inv_diag * res
        rz, rz_old = np.sum(res * z), rz
        step = z + (rz / rz_old) * step
    return x


def oracle_layout(radii, e):
    """(centers, epsilon) of layout_centers, placed on 2-element arrays."""
    r = np.asarray(radii, dtype=float)
    a, b = e.outer_face[0], e.outer_face[1]
    pos = {a: np.array([0.0, 0.0]), b: np.array([r[a] + r[b], 0.0])}
    third = {}
    for i, j, k in circlepack._inner_faces(e).tolist():
        third[i, j], third[j, k], third[k, i] = k, i, j
    queue = deque([(b, a)])
    while queue:
        u, v = queue.popleft()
        w = third.get((u, v))
        if w is None:
            continue
        for dart in ((u, v), (v, w), (w, u)):
            del third[dart]
        ou, ov = pos[u], pos[v]
        du = r[u] + r[w]
        dv = r[v] + r[w]
        link = ov - ou
        ell = float(np.hypot(*link))
        x = (du * du - dv * dv + ell * ell) / (2.0 * ell)
        y = math.sqrt(max(0.0, du * du - x * x))
        uhat = link / ell
        nhat = np.array([uhat[1], -uhat[0]])
        ow = ou + x * uhat + y * nhat
        if w in pos:
            err = float(np.hypot(*(pos[w] - ow)))
            assert err <= 1e-7 * max(1.0, float(np.hypot(*ow)))
        else:
            pos[w] = ow
        queue.extend(dart for dart in ((v, u), (w, v), (u, w)) if dart in third)
    arr = np.array([pos[v] for v in range(e.graph.n)])
    centers = tuple((float(x), float(y)) for x, y in arr)
    return centers, circlepack._tangency_residual(arr, r, e.graph.edges)


BOUNDED = [(n, seed) for n in (50, 100, 150) for seed in (1, 2, 3)]


def bounded_embedding(n, seed):
    return planar_embed(bench_instances().bounded_triangulation(n, 8, seed))


class TestAgainstReferenceKernels:
    @pytest.mark.parametrize("n, seed", [*BOUNDED, (1000, 1)])
    def test_laplacian_solve_bit_equal(self, n, seed, monkeypatch):
        lean = circlepack._laplacian_solve
        solves = []

        def both(ia, ib, w, m, rhs):
            x = lean(ia, ib, w, m, rhs)
            assert x.tobytes() == oracle_laplacian_solve(ia, ib, w, m, rhs).tobytes()
            solves.append(m)
            return x

        monkeypatch.setattr(circlepack, "_laplacian_solve", both)
        pack_radii(bounded_embedding(n, seed), 1e-12)
        assert len(solves) >= 3

    @pytest.mark.parametrize("n, seed", BOUNDED)
    def test_layout_bit_equal(self, n, seed):
        e = bounded_embedding(n, seed)
        radii = pack_radii(e, 1e-12)
        cp = layout_centers(radii, e)
        assert (cp.centers, cp.epsilon) == oracle_layout(radii, e)
