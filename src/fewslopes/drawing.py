"""Shared geometric value types: drawings, slope sets, wedges.

These are the primitive types every pipeline emits and the verifier consumes.
Construction modules keep their own geometry helpers; nothing here performs
intersection tests or censuses (see verify).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

Coord = Union[int, float, Fraction]
Point = tuple[Coord, Coord]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EdgeArc:
    """One drawn edge: a polyline from the point of u to the point of v.

    poly has 2..4 points (1..3 segments). slope_indices, when present, give
    the undirected regular-slope index of each segment (two-bend pipeline).
    """

    u: int
    v: int
    poly: tuple[Point, ...]
    slope_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.poly) < 2:
            raise ValueError("edge polyline needs at least 2 points")
        for p, q in zip(self.poly, self.poly[1:]):
            if p == q:
                raise ValueError(f"degenerate polyline piece at {p} on edge ({self.u},{self.v})")
        if self.slope_indices is not None and len(self.slope_indices) != len(self.poly) - 1:
            raise ValueError("slope_indices length must match segment count")

    @property
    def segments(self) -> list[tuple[Point, Point]]:
        return list(zip(self.poly, self.poly[1:]))


@dataclass
class Drawing:
    """A drawing of a graph: one point per vertex, one polyline per edge.

    coord_kind tags the arithmetic regime: "int" drawings hold ints,
    "rational" ones Fractions and "float" ones finite floats. Each is an exact
    rational value, so crossings are decided exactly for every kind; only the
    slope checks of float drawings use a tolerance (see verify).
    """

    method: str
    points: dict[int, Point]
    edges: list[EdgeArc]
    coord_kind: str = "float"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.coord_kind not in ("int", "rational", "float"):
            raise ValueError(f"unknown coord_kind {self.coord_kind!r}")
        if self.coord_kind == "float":
            pts = (*self.points.values(), *(q for arc in self.edges for q in arc.poly))
            try:
                finite = all(map(math.isfinite, itertools.chain.from_iterable(pts)))
            except (OverflowError, TypeError, ValueError):  # a huge int or a non-number
                finite = False
            if not finite:  # only float coordinates must be finite: find the point
                for p in pts:
                    if not all(math.isfinite(c) for c in p if isinstance(c, float)):
                        raise ValueError(f"non-finite coordinate {p}")
        for arc in self.edges:
            for end, first in ((arc.u, True), (arc.v, False)):
                want = arc.poly[0] if first else arc.poly[-1]
                if end not in self.points:
                    raise ValueError(f"edge endpoint {end} has no vertex point")
                if tuple(self.points[end]) != tuple(want):
                    raise ValueError(
                        f"edge ({arc.u},{arc.v}) polyline does not end at vertex point of {end}"
                    )


@dataclass(frozen=True)
class SlopeSet:
    """s regular slopes: rotations of the vertical by multiples of pi/s.

    Directed slopes are the 2s directions indexed k in [0, 2s); index k means
    the unit vector (sin(k*pi/s), cos(k*pi/s)), i.e. clockwise rotation of
    "straight up" by k*pi/s.
    """

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("slope count must be positive")

    def angle(self, k: int) -> float:
        return (k % (2 * self.s)) * math.pi / self.s

    def directed_index(self, dx: float, dy: float, tol: float = 1e-9) -> int | None:
        """Directed-slope index of vector (dx, dy), or None if off-grid.

        tol is the angular tolerance in radians.
        """
        if dx == 0 and dy == 0:
            return None
        theta = math.atan2(dx, dy) % _TWO_PI  # clockwise angle from +y
        step = math.pi / self.s
        k = round(theta / step)
        if abs(theta - k * step) > tol and abs(theta - k * step - _TWO_PI) > tol:
            return None
        return k % (2 * self.s)

    def is_contiguous(self, indices) -> bool:
        """True iff the directed-slope index set forms one arc mod 2s."""
        ks = sorted(set(i % (2 * self.s) for i in indices))
        if len(ks) <= 1:
            return True
        m = 2 * self.s
        gaps = 0
        for a, b in zip(ks, ks[1:] + [ks[0] + m]):
            if b - a > 1:
                gaps += 1
        return gaps <= 1


@dataclass(frozen=True)
class Wedge:
    """Infinite closed cone at an apex, spanned clockwise from one directed
    slope to another.

    start/span are in radians, measured clockwise from the upward vertical.
    For a degree-1 apex the cone has half-angle pi/(2s) around the single
    segment, which callers encode directly via start/span.
    """

    apex: tuple[float, float]
    start: float
    span: float

    def __post_init__(self):
        if not (0.0 <= self.span <= _TWO_PI):
            raise ValueError("wedge span out of range")

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        """Membership with slack: tol radians plus the angle a tol-sized
        positional error subtends at the point's distance. Raises ValueError
        unless tol >= 0."""
        if not tol >= 0:
            raise ValueError(f"wedge tolerance must be >= 0, got {tol}")
        qx = float(p[0]) - self.apex[0]
        qy = float(p[1]) - self.apex[1]
        r = math.hypot(qx, qy)
        scale = max(1.0, abs(self.apex[0]), abs(self.apex[1]))
        if r <= tol * scale:
            return True
        theta = math.atan2(qx, qy) % _TWO_PI
        delta = (theta - self.start) % _TWO_PI
        slack = tol + tol * scale / r
        return delta <= self.span + slack or delta >= _TWO_PI - slack
