"""Shared geometric value types: drawings, slope sets, wedges.

These are the primitive types every pipeline emits and the verifier consumes.
Construction modules keep their own geometry helpers; nothing here performs
intersection tests or censuses (see verify).
"""

from __future__ import annotations

import bisect
import functools
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
    the undirected SlopeSet index of each segment (two-bend pipeline).
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

    coord_kind tags the arithmetic regime: "int" drawings hold ints (the
    straight-line and two-bend pipelines), "rational" ones Fractions
    (one-bend) and "float" ones finite floats (hand-made drawings). Each is
    an exact rational value, so crossings are decided exactly for every
    kind; only the slope checks of float drawings use a tolerance (see
    verify).
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
    """s slopes, given by primitive integer direction vectors in clockwise
    order from the vertical: D_0 = (0, 1), then D_k = (1, m_k) for
    0 < k < s with m_k = floor((s - 1)/2) - k + 1.

    For s = 2 and 4 these are the regular slopes k*pi/s; for other s the
    drawings need only their clockwise order. Directed slopes are the 2s
    directions indexed k in [0, 2s): D_k for k < s and -D_{k-s} for the
    rest, so index k + s points against index k. Angles are derived from
    the vectors, in radians clockwise from "straight up".
    """

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("slope count must be positive")

    @functools.cached_property
    def vectors(self) -> tuple[tuple[int, int], ...]:
        """D_0, ..., D_{s-1}."""
        top = (self.s - 1) // 2
        return ((0, 1), *((1, top - k + 1) for k in range(1, self.s)))

    def vector(self, k: int) -> tuple[int, int]:
        """The directed slope k (mod 2s) as an integer vector."""
        k %= 2 * self.s
        x, y = self.vectors[k % self.s]
        return (x, y) if k < self.s else (-x, -y)

    @functools.cached_property
    def _angles(self) -> tuple[float, ...]:
        return tuple(math.atan2(*self.vector(k)) % _TWO_PI for k in range(2 * self.s))

    def angle(self, k: int) -> float:
        return self._angles[k % (2 * self.s)]

    def directed_index(self, dx: float, dy: float, tol: float = 1e-9) -> int | None:
        """Index of the directed slope nearest the vector (dx, dy), or None
        if it is more than tol radians away or the vector is zero."""
        if dx == 0 and dy == 0:
            return None
        theta = math.atan2(dx, dy) % _TWO_PI  # clockwise angle from +y
        a = self._angles  # ascending from a[0] = 0
        i = bisect.bisect(a, theta)
        lo, hi = i - 1, i % len(a)
        k = lo if theta - a[lo] <= (a[hi] - theta) % _TWO_PI else hi
        off = abs(theta - a[k])
        return k if min(off, _TWO_PI - off) <= tol else None

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
    """Infinite closed cone at an apex, spanned clockwise from one ray to
    another.

    start/span are in radians, measured clockwise from the upward vertical.
    A two-bend block's wedge at its top is bounded by half-slot rays
    D_k + D_{k+1} of its SlopeSet (see twobend).
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
