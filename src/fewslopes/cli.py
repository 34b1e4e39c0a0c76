"""Command-line driver, stream plumbing, and SVG rendering.

Subcommands: gen | draw | pack | verify | stats. Inputs come from --in or
stdin, outputs go to --out or stdout, so stages compose over pipes carrying
the canonical JSON formats. Usage errors exit 2; pipeline failures print the
exception to stderr and exit 1; a verify run that finds violations prints its
report and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

from .circlepack import layout_centers, pack_radii
from .drawing import Drawing, SlopeSet
from .errors import FewslopesError, SlopesTooFew
from .families import gen_gd, gen_octahedron, gen_random_triangulation
from .graphs import planar_embed, triangulate
from .jsonio import (
    drawing_from_obj,
    drawing_to_obj,
    dumps_canonical,
    graph_from_obj,
    graph_to_obj,
    packing_to_obj,
)
from .onebend import draw_onebend
from .straightline import draw_straight
from .twobend import draw_low_degree, draw_twobend
from .verify import VerifyReport, slope_census, slope_classes, verify_drawing

__all__ = ["RenderOptions", "render_svg", "run", "main"]


# --- rendering ---------------------------------------------------------------------


_MARGIN = 24.0
_STROKE_WIDTH = 1.5
_VERTEX_RADIUS = 3.0


@dataclass(frozen=True)
class RenderOptions:
    width: int = 800
    height: int = 600
    color_by_slope: bool = True

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("render dimensions must be positive")


def _fit(dr: Drawing, o: RenderOptions):
    """Map drawing coordinates onto the pixel viewport, y flipped to screen."""
    xs, ys = [], []
    for arc in dr.edges:
        for x, y in arc.poly:
            xs.append(float(x))
            ys.append(float(y))
    for x, y in dr.points.values():
        xs.append(float(x))
        ys.append(float(y))
    if not xs:
        return lambda p: (_MARGIN, _MARGIN)
    x0, y0 = min(xs), min(ys)
    span_x, span_y = max(xs) - x0, max(ys) - y0
    usable_w = max(o.width - 2 * _MARGIN, 1.0)
    usable_h = max(o.height - 2 * _MARGIN, 1.0)
    scale = 1.0
    if span_x > 0 or span_y > 0:
        scale = min(
            usable_w / span_x if span_x > 0 else math.inf,
            usable_h / span_y if span_y > 0 else math.inf,
        )
    off_x = _MARGIN + (usable_w - span_x * scale) / 2
    off_y = _MARGIN + (usable_h - span_y * scale) / 2

    def to_px(p):
        x, y = float(p[0]), float(p[1])
        return (off_x + (x - x0) * scale, o.height - off_y - (y - y0) * scale)

    return to_px


def _palette(k: int) -> list[str]:
    # fractional hue keeps every color string distinct for any realistic k
    return [f"hsl({360.0 * i / k:.2f},65%,42%)" for i in range(k)]


def render_svg(dr: Drawing, o: RenderOptions | None = None) -> str:
    """One path per edge polyline, one circle per vertex, margin-fitted viewport.

    With slope coloring on, each segment takes the color of its class in
    verify.slope_classes, and a polyline is split at the color changes (one
    path per same-color run); the stroke colors then match the slope census.
    """
    o = o or RenderOptions()
    to_px = _fit(dr, o)
    if o.color_by_slope and dr.edges:
        angles, classes = slope_classes(dr)
        colors = _palette(len(angles))
    else:
        classes = [[0] * (len(arc.poly) - 1) for arc in dr.edges]
        colors = ["#1a1a1a"]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{o.width}" '
        f'height="{o.height}" viewBox="0 0 {o.width} {o.height}">',
    ]
    for arc, row in zip(dr.edges, classes):
        pts = [to_px(p) for p in arc.poly]
        start = 0
        while start < len(row):
            end = start
            while end + 1 < len(row) and row[end + 1] == row[start]:
                end += 1
            d = f"M {pts[start][0]:.3f} {pts[start][1]:.3f}" + "".join(
                f" L {x:.3f} {y:.3f}" for x, y in pts[start + 1 : end + 2]
            )
            parts.append(
                f'<path d={quoteattr(d)} fill="none" stroke={quoteattr(colors[row[start]])} '
                f'stroke-width="{_STROKE_WIDTH}"/>'
            )
            start = end + 1
    for v in sorted(dr.points):
        x, y = to_px(dr.points[v])
        parts.append(
            f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{_VERTEX_RADIUS}" fill="#1a1a1a"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- stream helpers ----------------------------------------------------------------


def _read_obj(path: str | None):
    if path is None or path == "-":
        return json.loads(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(obj, path: str | None) -> None:
    _write_text(dumps_canonical(obj) + "\n", path)


def _report_obj(rep: VerifyReport) -> dict:
    w = rep.crossing_witness
    return {
        "crossing_free": rep.crossing_free,
        "crossing_witness": None
        if w is None
        else {
            "edge_a": list(w.edge_a),
            "seg_a": w.seg_a,
            "edge_b": list(w.edge_b),
            "seg_b": w.seg_b,
            # a crossing beyond the float range has no JSON number
            "where": [c if math.isfinite(c) else None for c in w.where],
        },
        "slope_census": [[angle, count] for angle, count in rep.slope_census],
        "distinct_slopes": rep.distinct_slopes,
        "max_bends": rep.max_bends,
        "contiguity_ok": None
        if rep.contiguity_ok is None
        else {str(v): ok for v, ok in sorted(rep.contiguity_ok.items())},
        "wedge_ok": rep.wedge_ok,
        "ok": rep.ok,
    }


# --- subcommands -------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.family == "octahedron":
        g = gen_octahedron()
    elif args.family == "gd":
        if args.d is None:
            raise FewslopesError("gen --family gd requires --d")
        g = gen_gd(args.d)
    else:
        if args.n is None:
            raise FewslopesError("gen --family random requires --n")
        g = gen_random_triangulation(args.n, args.seed)
    _emit(graph_to_obj(g), args.out)
    return 0


def _cmd_draw(args) -> int:
    g = graph_from_obj(_read_obj(getattr(args, "in")))
    if args.method == "straight":
        dr = draw_straight(g)
    elif args.method == "onebend":
        dr = draw_onebend(g)
    elif g.max_degree <= 2:
        dr = draw_low_degree(g)
        if args.slopes is not None and dr.meta["slopes_used"] > args.slopes:
            raise SlopesTooFew(
                f"{args.slopes} slopes cannot draw this graph of maximum degree "
                f"{g.max_degree}; its straight drawing needs {dr.meta['slopes_used']}"
            )
    else:
        slopes = SlopeSet(args.slopes) if args.slopes is not None else None
        dr = draw_twobend(g, slopes)
    if args.format == "svg":
        opts = RenderOptions(
            width=args.width, height=args.height, color_by_slope=not args.no_color
        )
        _write_text(render_svg(dr, opts), args.out)
    else:
        _emit(drawing_to_obj(dr), args.out)
    return 0


def _cmd_pack(args) -> int:
    g = graph_from_obj(_read_obj(getattr(args, "in")))
    emb = planar_embed(g)
    emb = emb if emb.is_triangulated() else triangulate(emb)
    cp = layout_centers(pack_radii(emb, args.eps), emb)
    _emit(packing_to_obj(cp), args.out)
    return 0


def _cmd_verify(args) -> int:
    dr = drawing_from_obj(_read_obj(getattr(args, "in")))
    slopes = SlopeSet(args.slopes) if args.slopes is not None else None
    rep = verify_drawing(dr, slopes)
    _emit(_report_obj(rep), args.out)
    return 0 if rep.ok else 1


def _cmd_stats(args) -> int:
    obj = _read_obj(getattr(args, "in"))
    fields = obj if type(obj) is dict else {}  # graph_from_obj names what else is wrong
    if "points" in fields:
        dr = drawing_from_obj(obj)
        census, distinct = slope_census(dr)
        nseg = sum(len(a.poly) - 1 for a in dr.edges)
        out = {
            "kind": "drawing",
            "method": dr.method,
            "coord_kind": dr.coord_kind,
            "vertices": len(dr.points),
            "edges": len(dr.edges),
            "segments": nseg,
            "distinct_slopes": distinct,
        }
    elif "radii" in fields:
        out = {
            "kind": "packing",
            "circles": len(obj["radii"]),
            "outer": obj["outer"],
            "epsilon": obj["epsilon"],
            "radius_min": min(obj["radii"]),
            "radius_max": max(obj["radii"]),
        }
    else:
        g = graph_from_obj(obj)
        out = {
            "kind": "graph",
            "vertices": g.n,
            "edges": len(g.edges),
            "degree_min": min(map(len, g.adjacency), default=0),
            "degree_max": g.max_degree,
        }
    _emit(out, args.out)
    return 0


# --- driver ------------------------------------------------------------------------


def _add_io(p: argparse.ArgumentParser, reads: bool = True) -> None:
    if reads:
        p.add_argument("--in", metavar="FILE", default=None, help="input (default stdin)")
    p.add_argument("--out", metavar="FILE", default=None, help="output (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewslopes", description="planar drawings with few slopes"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="emit a graph from a named family")
    p.add_argument("--family", required=True, choices=("octahedron", "gd", "random"))
    p.add_argument("--d", type=int, default=None, help="hub degree for the gd family")
    p.add_argument("--n", type=int, default=None, help="vertex count for random")
    p.add_argument("--seed", type=int, default=0)
    _add_io(p, reads=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("draw", help="draw a graph with one of the pipelines")
    p.add_argument("--method", required=True, choices=("straight", "onebend", "twobend"))
    p.add_argument("--slopes", type=int, default=None, help="slope count override (twobend)")
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=600)
    p.add_argument("--no-color", action="store_true", help="disable per-slope coloring")
    _add_io(p)
    p.set_defaults(func=_cmd_draw)

    p = sub.add_parser(
        "pack", help="circle-pack a graph, triangulated first as draw --method straight does"
    )
    p.add_argument("--eps", type=float, default=1e-10)
    _add_io(p)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("verify", help="check a drawing, print a report")
    p.add_argument("--slopes", type=int, default=None)
    _add_io(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="summarize a graph, packing, or drawing")
    _add_io(p)
    p.set_defaults(func=_cmd_stats)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "slopes", None) is not None and args.slopes < 1:
            parser.error("--slopes must be a positive integer")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    # a json.JSONDecodeError is a ValueError
    except (FewslopesError, ArithmeticError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
