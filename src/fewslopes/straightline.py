"""Straight-line drawings from snapped circle packings.

Pipeline: triangulate, pack, scale so the smallest disk has radius
rstar = sqrt(2)/alpha^(d-2), snap each center to the grid of step d^(s_i)
(s_i the per-vertex exponent), then keep only the original edges. Snapping
moves each center by less than d^(s_i)/sqrt(2), which preserves face
orientations and crossing-freeness; all segment directions then join grid
points within distance R(d) of each other, bounding the slope count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .circlepack import ALPHA, CirclePacking, PackParams, layout_centers, pack_radii
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
    d^(exponents[i]); offset is the pre-scale translation used for
    tie-breaking (zero unless a snap tie forced a nudge).
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
    """Snap scaled centers to per-vertex power-of-d grids.

    Exact half-grid ties would make the displacement bound non-strict, so a
    detected (near-)tie retranslates the whole packing by a small asymmetric
    offset and retries. Raises PrecisionExhausted when a scaled center or
    its grid step leaves the float range.
    """
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    r = np.asarray(cp.radii, dtype=float)
    min_r = float(r.min())
    scale = rstar(d) / min_r

    exps = []
    for rho in r / min_r:
        s = max(0, int(math.floor(math.log(rho) / math.log(d))))
        # integer-exact adjustment against float log wobble
        while d ** (s + 1) <= rho:
            s += 1
        while s > 0 and d ** s > rho:
            s -= 1
        exps.append(s)

    n = len(cp.radii)
    # base nudge d^-n, escalated until it survives float addition to coords
    t = d ** (-float(n)) if d ** (-float(n)) > 0 else 5e-324
    for attempt in range(50):
        if attempt == 0:
            off = (0.0, 0.0)
        else:
            while t * scale < 1e-12 * max(1.0, abs(scale)):
                t *= 4096.0
            off = (0.25 * t, 0.125 * t)
            t *= 4096.0
        pts = []
        ok = True
        for i in range(n):
            g = d ** exps[i]
            x = (cp.centers[i][0] + off[0]) * scale
            y = (cp.centers[i][1] + off[1]) * scale
            try:
                vx = g * round(x / g)
                vy = g * round(y / g)
                disp2 = (x - vx) ** 2 + (y - vy) ** 2
            except OverflowError as exc:
                raise PrecisionExhausted(
                    f"snapping the center of {i} to grid step {d}^{exps[i]} "
                    f"overflows floats: {exc}"
                ) from exc
            if disp2 >= 0.5 * g * g * (1.0 - 1e-12):
                ok = False
                break
            pts.append((int(vx), int(vy)))
        if ok:
            return SnappedLayout(
                d=d, scale=scale, offset=off, exponents=tuple(exps), points=tuple(pts)
            )
    raise AssertionError("snap failed to break ties after 50 retranslations")


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
    outer = cp.embedding.outer_face
    outer_darts = {(outer[i - 1], outer[i]) for i in range(len(outer))}
    bad = []
    faces = cp.embedding.faces
    for face in faces:
        i, j, k = face
        pi, pj, pk = sl.points[i], sl.points[j], sl.points[k]
        cross = (pj[0] - pi[0]) * (pk[1] - pi[1]) - (pj[1] - pi[1]) * (pk[0] - pi[0])
        sign = 1 if (i, j) in outer_darts else -1
        if sign * cross <= 0:
            bad.append(face)
    return OrientationReport(faces_checked=len(faces), violations=tuple(bad))


@lru_cache(maxsize=None)
def slope_bound(d: int) -> dict:
    """Radius R(d) and the lattice-point count bounding the slope number.

    For small R the count is exact (Gauss circle count); past ~3e6 an exact
    scan is too slow, so a rigorous rational upper bound pi*(R+1)^2 with
    pi < 355/113 is returned and flagged exact=False.
    """
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    a = ALPHA ** (d - 2)
    big_r = (d / a) * (2.0 * math.sqrt(2.0) / a + math.sqrt(2.0))
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

    Raises PrecisionExhausted when float packing or snapping cannot resolve
    the graph's smallest disks: the layout leaves the float range, a snapped
    face is inverted or degenerate, or two adjacent vertices meet.
    """
    if g.n < 4:
        raise TooFewVertices(f"need n >= 4, got {g.n}")
    e = planar_embed(g)
    et = e if e.is_triangulated() else triangulate(e)
    d_t = et.graph.max_degree
    radii = pack_radii(et, PackParams(epsilon=1e-12))
    cp = layout_centers(radii, et)
    sl = snap(cp, d_t)
    rep = orientation_check(cp, sl)
    if not rep.ok:
        raise PrecisionExhausted(
            f"{len(rep.violations)} of {rep.faces_checked} snapped faces are "
            f"inverted or degenerate, e.g. {list(rep.violations[:3])}"
        )
    pts = {v: sl.points[v] for v in range(g.n)}
    for u, v in g.edges:
        if pts[u] == pts[v]:
            raise PrecisionExhausted(f"adjacent vertices {u} and {v} snap to one point")
    arcs = tuple(EdgeArc(u, v, (pts[u], pts[v])) for u, v in g.edges)
    return Drawing(
        method="straight",
        points=pts,
        edges=arcs,
        coord_kind="int",
        meta={"d_T": d_t, "scale": sl.scale, "R": slope_bound(d_t)["R"]},
    )
