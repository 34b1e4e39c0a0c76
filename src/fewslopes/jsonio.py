"""JSON serialization for graphs, packings and drawings.

All emitters produce canonical bytes: sorted keys, no whitespace, exact
rationals carried as "num/den" strings alongside a decimal rendering.
parse(emit(x)) round-trips every object.

A drawing's coordinates must match its coord_kind: JSON integers in an
"int" drawing, JSON numbers in a "float" one, and {"frac": "num/den", ...}
objects or plain integers (read as n/1) in a "rational" one; anything else
raises ValueError naming the coordinate. Each vertex point is converted
once in either direction: the emitter writes the converted vertex point as
both ends of its edges' polylines, and the parser reads a poly end that
equals its vertex point's JSON, value by value and type by type, as that
vertex point. Any other poly end is parsed on its own, so Drawing still
rejects one whose value differs from its vertex point.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .circlepack import CirclePacking
from .drawing import Drawing, EdgeArc
from .graphs import PlanarGraph

__all__ = [
    "dumps_canonical",
    "graph_to_obj",
    "graph_from_obj",
    "packing_to_obj",
    "packing_from_obj",
    "drawing_to_obj",
    "drawing_from_obj",
]


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _num_to_obj(x, kind: str):
    if kind == "int":
        return int(x)
    if kind == "rational":
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        num, den = x.numerator, x.denominator  # an int is num/1
        try:
            dec = format(num / den, ".17g")
        except OverflowError:  # beyond the float range; "frac" stays exact
            dec = "inf" if num > 0 else "-inf"
        return {"dec": dec, "frac": f"{num}/{den}"}
    return float(x)


# readers of one coordinate per coord_kind; they test type(o), not
# isinstance, because a JSON true or false is no coordinate


def _int_from_obj(o):
    if type(o) is int:
        return o
    raise ValueError(f"coordinate {o!r} is not a valid int coordinate")


def _rational_from_obj(o):
    if type(o) is dict:
        try:
            num, den = o["frac"].split("/")
            return Fraction(int(num), int(den))
        except (KeyError, AttributeError, ValueError, ZeroDivisionError):
            pass
    elif type(o) is int:
        return Fraction(o)
    raise ValueError(f"coordinate {o!r} is not a valid rational coordinate")


def _float_from_obj(o):
    if type(o) is float:
        return o
    if type(o) is int:
        try:
            return float(o)
        except OverflowError:  # beyond the float range
            pass
    raise ValueError(f"coordinate {o!r} is not a valid float coordinate")


_NUM_FROM_OBJ = {"int": _int_from_obj, "rational": _rational_from_obj, "float": _float_from_obj}


def _point_to_obj(p, kind):
    return [_num_to_obj(p[0], kind), _num_to_obj(p[1], kind)]


def _point_from_obj(o, num):
    x, y = o
    return (num(x), num(y))


# --- graphs -----------------------------------------------------------------------


def graph_to_obj(g: PlanarGraph) -> dict:
    obj = {"n": g.n, "edges": [[u, v] for u, v in g.edges]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return obj


def graph_from_obj(obj) -> PlanarGraph:
    labels = tuple(obj["labels"]) if "labels" in obj else None
    return PlanarGraph(obj["n"], tuple((u, v) for u, v in obj["edges"]), labels=labels)


# --- packings ----------------------------------------------------------------------


def packing_to_obj(cp) -> dict:
    return {
        "centers": [[float(x), float(y)] for x, y in cp.centers],
        "radii": [float(r) for r in cp.radii],
        "outer": list(cp.outer),
        "epsilon": float(cp.epsilon),
    }


def packing_from_obj(obj) -> CirclePacking:
    # the embedding is deliberately not serialized; parsed packings carry None
    return CirclePacking(
        centers=tuple((float(x), float(y)) for x, y in obj["centers"]),
        radii=tuple(float(r) for r in obj["radii"]),
        outer=tuple(obj["outer"]),
        epsilon=float(obj["epsilon"]),
    )


# --- drawings ----------------------------------------------------------------------


def drawing_to_obj(dr: Drawing) -> dict:
    kind = dr.coord_kind
    n = len(dr.points)
    if sorted(dr.points) != list(range(n)):
        raise ValueError("drawing points must cover vertex ids 0..n-1")
    # Drawing makes every poly end equal its vertex point, so each vertex
    # point is converted once and the object is shared by its poly ends
    points = [_point_to_obj(dr.points[v], kind) for v in range(n)]
    edges = []
    for a in dr.edges:
        inner = [_point_to_obj(p, kind) for p in a.poly[1:-1]]
        eo = {"u": a.u, "v": a.v, "poly": [points[a.u], *inner, points[a.v]]}
        if a.slope_indices is not None:
            eo["slope_indices"] = list(a.slope_indices)
        edges.append(eo)
    return {
        "method": dr.method,
        "coord_kind": kind,
        "points": points,
        "edges": edges,
        "meta": _meta_to_obj(dr.meta),
    }


def _infer_kind(obj) -> str:
    nums = [c for p in obj["points"] for c in p]
    nums += [c for eo in obj["edges"] for p in eo["poly"] for c in p]
    if any(isinstance(c, dict) for c in nums):
        return "rational"
    if all(isinstance(c, int) and not isinstance(c, bool) for c in nums):
        return "int"
    return "float"


def drawing_from_obj(obj) -> Drawing:
    # coord_kind and meta are our extensions; hand-written files may omit them
    kind = obj.get("coord_kind") or _infer_kind(obj)
    if kind not in _NUM_FROM_OBJ:
        raise ValueError(f"unknown coord_kind {kind!r}")
    num = _NUM_FROM_OBJ[kind]
    raw = obj["points"]
    points = {v: _point_from_obj(p, num) for v, p in enumerate(raw)}

    def end(w, o):
        # a poly end written like its vertex point is that point; == alone
        # equates 1, 1.0 and true, so the JSON types must match too. Any other
        # end is parsed, and Drawing rejects it if its value differs.
        r = raw[w] if w in points else None
        if o == r and type(o[0]) is type(r[0]) and type(o[1]) is type(r[1]):
            return points[w]
        return _point_from_obj(o, num)

    arcs = []
    for eo in obj["edges"]:
        u, v, poly = eo["u"], eo["v"], eo["poly"]
        pts = [_point_from_obj(p, num) for p in poly[1:-1]]
        if len(poly) >= 2:  # else EdgeArc rejects the polyline
            pts = [end(u, poly[0]), *pts, end(v, poly[-1])]
        arcs.append(
            EdgeArc(
                u,
                v,
                tuple(pts),
                tuple(eo["slope_indices"]) if "slope_indices" in eo else None,
            )
        )
    return Drawing(obj["method"], points, tuple(arcs), kind, dict(obj.get("meta", {})))


def _meta_to_obj(meta):
    def conv(x):
        if isinstance(x, dict):
            return {str(k): conv(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [conv(v) for v in x]
        if isinstance(x, Fraction):
            return _num_to_obj(x, "rational")
        if isinstance(x, bool) or x is None:
            return x
        if isinstance(x, (int, float, str)):
            return x
        raise TypeError(f"meta value {x!r} of type {type(x).__name__} has no JSON form")

    return conv(meta)
