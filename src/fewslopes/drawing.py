"""Shared geometric value types: drawings and slope sets.

These are the primitive types every pipeline emits and the verifier consumes.
Construction modules keep their own geometry helpers; nothing here performs
intersection tests or censuses (see verify).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

Coord = Union[int, float, Fraction]
Point = tuple[Coord, Coord]


def primitive_direction(p: Point, q: Point) -> tuple[int, int]:
    """The direction of q - p as a primitive integer vector, (0, 0) if
    p == q. Exact for int, Fraction and float coordinates: it
    cross-multiplies their integer ratios, with no Fraction arithmetic."""
    (px, bx), (py, by) = p[0].as_integer_ratio(), p[1].as_integer_ratio()
    (qx, cx), (qy, cy) = q[0].as_integer_ratio(), q[1].as_integer_ratio()
    # dx = (qx*bx - px*cx) / (bx*cx), dy = (qy*by - py*cy) / (by*cy)
    ix = (qx * bx - px * cx) * (by * cy)
    iy = (qy * by - py * cy) * (bx * cx)
    g = math.gcd(ix, iy) or 1
    return (ix // g, iy // g)


@dataclass(frozen=True)
class EdgeArc:
    """One drawn edge: a polyline from the point of u to the point of v.

    poly has 2..4 points (1..3 segments); each segment's slope is read from
    its exact direction (see verify.slope_classes).
    """

    u: int
    v: int
    poly: tuple[Point, ...]

    def __post_init__(self):
        if len(self.poly) < 2:
            raise ValueError("edge polyline needs at least 2 points")
        for p, q in zip(self.poly, self.poly[1:]):
            if p == q:
                raise ValueError(f"degenerate polyline piece at {p} on edge ({self.u},{self.v})")

    @property
    def segments(self) -> list[tuple[Point, Point]]:
        return list(zip(self.poly, self.poly[1:]))


@dataclass
class Drawing:
    """A drawing of a graph: one point per vertex, one polyline per edge.

    coord_kind tags the arithmetic regime: "int" drawings hold ints (the
    straight-line and two-bend pipelines), "rational" ones Fractions
    (one-bend) and "float" ones finite floats (hand-made drawings). Each is
    an exact rational value, and verify checks every drawing as the exact
    numbers it holds, whatever its kind.
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

    def angle(self, k: int) -> float:
        """The clockwise angle of directed slope k from straight up."""
        return math.atan2(*self.vector(k)) % (2 * math.pi)

    @functools.cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return {self.vector(k): k for k in range(2 * self.s)}

    def directed_index(self, dx, dy) -> int | None:
        """Index k of the directed slope whose vector(k) points exactly along
        (dx, dy), ints, Fractions or floats, or None if none does."""
        return self._index.get(primitive_direction((0, 0), (dx, dy)))

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

