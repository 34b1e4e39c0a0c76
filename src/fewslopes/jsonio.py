"""JSON serialization for graphs, packings and drawings.

All emitters produce canonical bytes: sorted keys, no whitespace.
parse(emit(x)) round-trips every object.

A drawing is written in format 2: {"format": 2, "method", "coord_kind",
"points", "edges", "meta"}, each edge {"u", "v", "bends"}. bends are the
interior points of its polyline, which the parser builds as (points[u],
*bends, points[v]); any other edge key, such as the "slope_indices" that
older two-bend files carry, is ignored. Coordinates must match coord_kind:
JSON integers in an "int" drawing, JSON numbers in a "float" one, and
"num/den" strings or plain integers in a "rational" one. A malformed
drawing, or one in format 1 (edges with "poly"), raises ValueError naming
the field or coordinate; so does writing a coordinate that coord_kind cannot
hold exactly. A graph is {"n", "edges"} plus optional "labels", an array of
strings; a malformed one raises ValueError naming the field.
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


def _rational_to_obj(x) -> str:
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"  # an int is n/1


def _int_to_obj(x) -> int:
    if type(x) is not int:
        raise ValueError(f"coordinate {x!r} is not an int, in an int drawing")
    return x


def _float_to_obj(x) -> float:
    try:
        f = float(x)
    except OverflowError:  # beyond the float range
        f = None
    if f != x:
        raise ValueError(f"coordinate {x!r} is not exactly a float, in a float drawing")
    return f


# writers and readers of one coordinate per coord_kind: a writer keeps its
# value, a reader tests type(o), not isinstance, as JSON true is no number
_NUM_TO_OBJ = {"int": _int_to_obj, "rational": _rational_to_obj, "float": _float_to_obj}


def _int_from_obj(o):
    if type(o) is int:
        return o
    raise ValueError(f"coordinate {o!r} is not a valid int coordinate")


def _rational_from_obj(o):
    if type(o) is str:
        try:
            num, den = o.split("/")
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
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


def _point_from_obj(o, num):
    if type(o) is not list or len(o) != 2:
        raise ValueError(f"point {o!r} is not a pair of coordinates")
    return (num(o[0]), num(o[1]))


_JSON_TYPE = {dict: "an object", list: "an array", int: "an integer", str: "a string"}


def _field(obj: dict, key: str, typ: type, where: str):
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} field")
    x = obj[key]
    if type(x) is not typ:  # so a JSON true is no integer
        raise ValueError(f"{where} field {key!r} is not {_JSON_TYPE[typ]}: {x!r}")
    return x


# --- graphs -----------------------------------------------------------------------


def graph_to_obj(g: PlanarGraph) -> dict:
    obj = {"n": g.n, "edges": [[u, v] for u, v in g.edges]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return obj


def graph_from_obj(obj) -> PlanarGraph:
    if type(obj) is not dict:
        raise ValueError(f"a graph is a JSON object, not {type(obj).__name__}")
    n = _field(obj, "n", int, "graph")
    edges = _field(obj, "edges", list, "graph")
    for i, e in enumerate(edges):
        if type(e) is not list or len(e) != 2 or any(type(x) is not int for x in e):
            raise ValueError(f"edge {i} is not a pair of integers: {e!r}")
    labels = None
    if "labels" in obj:
        labels = tuple(_field(obj, "labels", list, "graph"))
        for x in labels:
            if type(x) is not str:
                raise ValueError(f"graph field 'labels' holds {x!r}, not a string")
    return PlanarGraph(n, tuple((u, v) for u, v in edges), labels=labels)


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
    kind, num = dr.coord_kind, _NUM_TO_OBJ[dr.coord_kind]
    n = len(dr.points)
    if sorted(dr.points) != list(range(n)):
        raise ValueError("drawing points must cover vertex ids 0..n-1")
    edges = [
        {"u": a.u, "v": a.v, "bends": [[num(x), num(y)] for x, y in a.poly[1:-1]]}
        for a in dr.edges
    ]
    return {
        "format": 2,
        "method": dr.method,
        "coord_kind": kind,
        "points": [[num(dr.points[v][0]), num(dr.points[v][1])] for v in range(n)],
        "edges": edges,
        "meta": _meta_to_obj(dr.meta),
    }


def _infer_kind(points, bends) -> str:
    nums = [c for p in (*points, *bends) if type(p) is list for c in p]
    if any(type(c) is str for c in nums):
        return "rational"
    if all(type(c) is int for c in nums):
        return "int"
    return "float"


def drawing_from_obj(obj) -> Drawing:
    if type(obj) is not dict:
        raise ValueError(f"a drawing is a JSON object, not {type(obj).__name__}")
    fmt = obj.get("format", 2)  # hand-written files may omit it
    if type(fmt) is not int or fmt != 2:
        raise ValueError(f"drawing format {fmt!r} is not 2, the only format read")
    method = _field(obj, "method", str, "drawing")
    raw_points = _field(obj, "points", list, "drawing")
    edges = []
    for i, eo in enumerate(_field(obj, "edges", list, "drawing")):
        where = f"edge {i}"
        if type(eo) is not dict:
            raise ValueError(f"{where} is not an object: {eo!r}")
        if "poly" in eo:
            raise ValueError(f"{where} has a 'poly' field: a format 1 drawing, not read")
        u, v = _field(eo, "u", int, where), _field(eo, "v", int, where)
        edges.append((u, v, _field(eo, "bends", list, where)))
    # coord_kind and meta are our extensions; hand-written files may omit them
    kind = obj.get("coord_kind") or _infer_kind(raw_points, [p for e in edges for p in e[2]])
    if type(kind) is not str or kind not in _NUM_FROM_OBJ:
        raise ValueError(f"unknown coord_kind {kind!r}")
    num = _NUM_FROM_OBJ[kind]
    points = {v: _point_from_obj(p, num) for v, p in enumerate(raw_points)}
    arcs = []
    for u, v, bends in edges:
        try:
            poly = (points[u], *[_point_from_obj(p, num) for p in bends], points[v])
        except KeyError as exc:
            raise ValueError(f"edge endpoint {exc.args[0]} has no vertex point") from None
        arcs.append(EdgeArc(u, v, poly))
    meta = dict(_field(obj, "meta", dict, "drawing")) if "meta" in obj else {}
    return Drawing(method, points, tuple(arcs), kind, meta)


def _meta_to_obj(meta):
    def conv(x):
        if isinstance(x, dict):
            return {str(k): conv(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [conv(v) for v in x]
        if isinstance(x, Fraction):
            return _rational_to_obj(x)
        if isinstance(x, bool) or x is None:
            return x
        if isinstance(x, (int, float, str)):
            return x
        raise TypeError(f"meta value {x!r} of type {type(x).__name__} has no JSON form")

    return conv(meta)
