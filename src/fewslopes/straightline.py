"""Straight-line drawings from snapped circle packings.

Pipeline: triangulate, pack, scale so the smallest disk has radius
rstar = sqrt(2)/alpha^(d-2), snap each center to the grid of step d^(s_i)
(s_i the per-vertex exponent), then keep only the original edges. Snapping
moves each center by less than d^(s_i)/sqrt(2), which preserves face
orientations and crossing-freeness; all segment directions then join grid
points within distance R(d) of each other, bounding the slope count. The
snap rounds the float centers exactly, in integers; an exact orientation
check of every snapped face is the one gate on the float packing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .circlepack import ALPHA, CirclePacking, layout_centers, pack_radii
from .drawing import Drawing, EdgeArc
from .errors import PrecisionExhausted, TooFewVertices
from .graphs import PlanarGraph, planar_embed, triangulate

__all__ = [
    "SnappedLayout",
    "OrientationReport",
    "snap",
    "draw_straight",
    "slope_bound",
    "orientation_check",
    "rstar",
]


def rstar(d: int) -> float:
    """Scaled minimum radius: sqrt(2)/alpha^(d-2)."""
    return math.sqrt(2.0) / ALPHA ** (d - 2)


@dataclass(frozen=True)
class SnappedLayout:
    """Integer layout of a scaled packing.

    points[i] is the snapped center, both coordinates divisible by
    d^(exponents[i]). offset is always (0.0, 0.0): ties round up exactly,
    with no translation. It stays because the benchmark's snap observer
    reads it.
    """

    d: int
    scale: float
    offset: tuple[float, float]
    exponents: tuple[int, ...]
    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.points):
            raise ValueError("exponents/points length mismatch")
        for s, (x, y) in zip(self.exponents, self.points):
            if s < 0:
                raise ValueError("grid exponent must be non-negative")
            g = self.d ** s
            if x % g or y % g:
                raise ValueError(f"point ({x},{y}) not divisible by {g}")


def snap(cp: CirclePacking, d: int) -> SnappedLayout:
    """Snap scaled centers to per-vertex power-of-d grids, exactly.

    Each scaled coordinate X = c * scale is a float, so a ratio n/q of
    integers, and goes to the multiple v = g * floor((2n + qg) / (2qg)) of
    its grid step g: -g/2 <= X - v < g/2, ties rounding up. That is the snap
    of the packing translated by (t, t/2) for every small enough t > 0, and
    it moves each center of that packing by strictly less than g/sqrt(2).
    Raises PrecisionExhausted when a radius ratio or a scaled center leaves
    the float range.
    """
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    min_r = min(cp.radii)
    scale = rstar(d) / min_r
    exps, pts = [], []
    for i, (r, c) in enumerate(zip(cp.radii, cp.centers)):
        rho, xy = r / min_r, (c[0] * scale, c[1] * scale)
        if not math.isfinite(rho) or not all(map(math.isfinite, xy)):
            raise PrecisionExhausted(
                f"vertex {i}: its radius ratio {rho} or scaled center {xy} "
                "leaves the float range"
            )
        s = max(0, int(math.floor(math.log(rho) / math.log(d))))
        # integer-exact adjustment against float log wobble
        while d ** (s + 1) <= rho:
            s += 1
        while s > 0 and d ** s > rho:
            s -= 1
        g = d ** s
        exps.append(s)
        pts.append(tuple(
            g * ((2 * n + q * g) // (2 * q * g))
            for n, q in (x.as_integer_ratio() for x in xy)
        ))
    return SnappedLayout(
        d=d, scale=scale, offset=(0.0, 0.0), exponents=tuple(exps), points=tuple(pts)
    )


@dataclass(frozen=True)
class OrientationReport:
    faces_checked: int
    violations: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def orientation_check(cp: CirclePacking, sl: SnappedLayout) -> OrientationReport:
    """Exact signed area of every triangular face at the snapped integer
    points against the orientation the embedding prescribes: inner faces
    clockwise, the outer face counterclockwise (see graphs). A face that is
    inverted or degenerate is a violation, whatever the float centers say."""
    if cp.embedding is None:
        raise ValueError("packing carries no embedding")
    e = cp.embedding
    outer = e.face_of[e.outer_face[0], e.outer_face[1]]
    bad = []
    for fi, face in enumerate(e.faces):
        i, j, k = face
        pi, pj, pk = sl.points[i], sl.points[j], sl.points[k]
        cross = (pj[0] - pi[0]) * (pk[1] - pi[1]) - (pj[1] - pi[1]) * (pk[0] - pi[0])
        sign = 1 if fi == outer else -1
        if sign * cross <= 0:
            bad.append(face)
    return OrientationReport(faces_checked=len(e.faces), violations=tuple(bad))


def _slope_radius(d: int) -> float:
    """R(d): the distance within which every drawn segment joins two grid
    points, slope_bound's radius."""
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    a = ALPHA ** (d - 2)
    return (d / a) * (2.0 * math.sqrt(2.0) / a + math.sqrt(2.0))


@lru_cache(maxsize=None)
def slope_bound(d: int) -> dict:
    """Radius R(d) and the lattice-point count bounding the slope number.

    For small R the count is exact (Gauss circle count); past ~3e6 an exact
    scan is too slow, so a rigorous rational upper bound pi*(R+1)^2 with
    pi < 355/113 is returned and flagged exact=False.
    """
    big_r = _slope_radius(d)
    if big_r <= 3e6:
        r2 = int(big_r * big_r)
        x_max = math.isqrt(r2)
        count = 2 * math.isqrt(r2) + 1
        for x in range(1, x_max + 1):
            count += 2 * (2 * math.isqrt(r2 - x * x) + 1)
        return {"R": big_r, "max_slopes": count, "exact": True}
    r_up = Fraction(big_r) + 1
    bound = Fraction(355, 113) * r_up * r_up
    count = -((-bound.numerator) // bound.denominator)
    return {"R": big_r, "max_slopes": int(count), "exact": False}


def draw_straight(g: PlanarGraph) -> Drawing:
    """Exact-integer straight-line drawing of a planar graph, n >= 4.

    Raises PrecisionExhausted when the float packing cannot resolve the
    graph's smallest disks: the layout or a scaled center leaves the float
    range, or a snapped face is inverted or degenerate. The snap itself is
    exact. Every edge lies on a face, so no two adjacent vertices snap to
    one point.
    """
    if g.n < 4:
        raise TooFewVertices(f"need n >= 4, got {g.n}")
    e = planar_embed(g)
    et = e if e.is_triangulated() else triangulate(e)
    d_t = et.graph.max_degree
    radii = pack_radii(et, 1e-12)
    cp = layout_centers(radii, et)
    sl = snap(cp, d_t)
    rep = orientation_check(cp, sl)
    if not rep.ok:
        raise PrecisionExhausted(
            f"{len(rep.violations)} of {rep.faces_checked} snapped faces are "
            f"inverted or degenerate, e.g. {list(rep.violations[:3])}"
        )
    pts = {v: sl.points[v] for v in range(g.n)}
    arcs = tuple(EdgeArc(u, v, (pts[u], pts[v])) for u, v in g.edges)
    return Drawing(
        method="straight",
        points=pts,
        edges=arcs,
        coord_kind="int",
        meta={"d_T": d_t, "scale": sl.scale, "R": _slope_radius(d_t)},
    )
