#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the three drawing pipelines.

Usage, from the repository root:

    python3 bench/run.py --workload straight-pack --seed 1 --seconds 33 --trace 0

Each instance goes through the path ``fewslopes draw | fewslopes verify``
takes, in one process on one thread: ``draw_*``, canonical JSON, parse back
with ``drawing_from_obj``, ``verify_drawing`` at the default tolerance.
A run draws a fixed, seeded set of instances whose size follows from
``--seconds``; it runs each of them once and then repeats them until
``--seconds`` have passed, so the instances attempted and failed are the
same on every run with the same seed and length.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
instance once untraced and once traced and reports per-module metrics. The
last line of standard output is one JSON object; the full result
(environment, every instance, every metric) goes to ``bench/out/``. See
``bench/README.md`` for why each workload exists and how times are scaled.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 7
# time of reference_loop() on a nominal machine; every reported time is
# scaled by REF_NOMINAL_S / (median of the reference_loop() times taken next
# to it; see local_scales)
REF_NOMINAL_S = 0.010
WARMUP_N = 30
DMAX = 8
# a run with more failures than the baseline rates make this likely fails the
# correctness gate
FAIL_ALPHA = 1e-5


@dataclass(frozen=True)
class Workload:
    pipeline: str  # "straight", "onebend" or "twobend"
    generator: str  # "triangulation" or "capped"
    sizes: tuple[int, ...]
    # share of instances of each size that failed at the commit that added
    # the benchmark, as (failed + 1) / (instances + 2) over 76 to 264
    # instances per size; see failure_tail
    fail_p: tuple[float, ...]
    # instances in a run per second of --seconds: one pass over them takes
    # about 0.7 of --seconds at nominal speed; see corpus_size
    per_second: float = 1.0


WORKLOADS = {
    "straight-pack": Workload(
        "straight",
        "triangulation",
        (50, 75, 100, 125, 150),
        (0.008, 0.056, 0.221, 0.486, 0.734),
        0.88,
    ),
    "onebend-exact": Workload(
        "onebend",
        "triangulation",
        (300, 400, 550, 750, 1000),
        (0.01, 0.013, 0.01, 0.013, 0.011),
        0.3,
    ),
    "twobend-blocks": Workload(
        "twobend",
        "capped",
        (150, 225, 300, 375, 450, 525, 600),
        (0.088, 0.214, 0.408, 0.541, 0.771, 0.768, 0.877),
        0.75,
    ),
}

# name -> unit; the --trace 0 JSON line carries exactly END_TO_END.
# peak_rss_mb is read once the first round, one instance of each size, has
# run: the peak over the whole run is set by a rare instance (one 600-vertex
# two-bend instance in about 30 adds 25 MB) and is reported as peak_rss_mb.run.
# vertices_per_s is the geometric mean over instances of n / instance time: a
# rare slow instance moves it less than the batch rate (vertices_per_s.batch,
# all vertices over all instance time), whose spread between seeds was twice
# as large on twobend-blocks
END_TO_END = {
    "vertices_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed and written to the result file on every run, not in the JSON line:
# each moves with the seed (which instances fail, or which needs the most
# memory) by more than any bound a gate could use. A rise in failures fails
# the correctness gate instead (see failure_tail).
REPORTED = {
    "vertices_per_s.batch": "1/s",
    "certified_vps": "1/s",
    "fail_tail_p": "prob",
    "peak_rss_mb.run": "MB",
    "draw_s.p50": "s",
    "verify_s.p50": "s",
    "fail_ratio": "ratio",
    "untyped_fail_ratio": "ratio",
    "slopes.mean": "count",
    "numeric_range.max": "log10",
    "samples": "count",
    "timed_runs": "count",
    "reference_s.p50": "s",
}
# the --trace 1 JSON line carries exactly PER_LAYER. A function's self time
# is given as its share of all traced time, and trace.instance_s is that time
# per instance, so share x instance_s is seconds per instance. A share, unlike
# a time, may read 0 on every run: most modules never run on two workloads.
# Counts are per attempted instance.
PER_LAYER = {
    "trace.instance_s": "s",
    "circlepack.pack_radii.self_share": "ratio",
    "circlepack.pack_radii.calls": "count",
    "circlepack.pack_radii.sweeps": "count",
    "circlepack.layout_centers.self_share": "ratio",
    "circlepack.residual.max": "rad",
    "straightline.snap.self_share": "ratio",
    "straightline.snap.retranslated": "count",
    "straightline.orientation_check.self_share": "ratio",
    "straightline.coord_bits.max": "bits",
    "onebend.tshape_representation.self_share": "ratio",
    "onebend.contact_numbering.self_share": "ratio",
    "onebend.draw_onebend.self_share": "ratio",
    "onebend.coord_bits.max": "bits",
    "graphs.st_order.self_share": "ratio",
    "graphs.st_order.calls": "count",
    "graphs.st_order.errors": "count",
    "graphs.block_cut_tree.self_share": "ratio",
    "twobend.draw_biconnected_twobend.self_share": "ratio",
    "twobend.draw_biconnected_twobend.calls": "count",
    "twobend.draw_twobend.self_share": "ratio",
    "twobend.calls_per_block": "ratio",
    "graphs.planar_embed.self_share": "ratio",
    "graphs.canonical_order.self_share": "ratio",
    "verify.check_noncrossing.self_share": "ratio",
    "verify.slope_census.self_share": "ratio",
    "verify.max_bends.self_share": "ratio",
    "verify.check_contiguous.self_share": "ratio",
    "verify.check_wedge.self_share": "ratio",
    "verify.errors.AmbiguousBucket": "count",
    "verify.errors.SlopeOffGrid": "count",
    "jsonio.emit.self_share": "ratio",
    "jsonio.parse.self_share": "ratio",
    "graphs.self_share": "ratio",
    "circlepack.self_share": "ratio",
    "straightline.self_share": "ratio",
    "onebend.self_share": "ratio",
    "twobend.self_share": "ratio",
    "verify.self_share": "ratio",
    "jsonio.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "pipeline.scale_exp": "1",
}


# --- statistics -------------------------------------------------------------


def p50(samples) -> float:
    """Median; a failed instance enters as +inf and so can raise it."""
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def fit_exponent(ns, ts) -> float:
    """Least-squares slope of log t against log n, i.e. t ~ n^k."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(t) for t in ts]
    if len(set(xs)) < 2:
        raise ValueError("need at least two distinct sizes")
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _log10(x) -> float:
    if isinstance(x, Fraction):
        return math.log10(abs(x.numerator)) - math.log10(x.denominator)
    return math.log10(abs(x))


def numeric_range(dr) -> float:
    """log10(max |coordinate| / shortest segment), exact for int/rational."""
    pts = [p for a in dr.edges for p in a.poly] or list(dr.points.values())
    big = max(abs(c) for p in pts for c in p) or 1
    short = min(
        (q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2
        for a in dr.edges
        for p, q in zip(a.poly, a.poly[1:])
    )
    return _log10(big) - 0.5 * _log10(short)


def coord_bits(dr) -> int:
    """Largest bit length of a coordinate's integer, numerator or denominator."""
    best = 0
    for a in dr.edges:
        for p in a.poly:
            for c in p:
                f = Fraction(c)
                best = max(best, abs(f.numerator).bit_length(), f.denominator.bit_length())
    return best


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop that uses no package code.

    The machine's speed drifts (on a shared 2-core host the loop's time
    moved by 1.7x within 15 minutes). Scaling a run's times by the median of
    these readings, taken next to the timed work, cancels most of that drift.
    """
    t = time.perf_counter()
    d = {}
    acc = 0
    for i in range(60000):
        d[i & 1023] = acc
        acc += i * i % 7
    return time.perf_counter() - t


def local_scales(refs: list[float]) -> list[float]:
    """Scale factor to nominal speed for each of a sequence of timed steps,
    where refs[k] is the reference reading taken just before step k.

    Each factor uses the median of the five readings around its step: one
    reading alone is too noisy, and a whole run's median misses the drift of
    the machine's speed within the run.
    """
    return [
        REF_NOMINAL_S / statistics.median(refs[max(0, k - 2) : k + 3])
        for k in range(len(refs))
    ]


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fewslopes; "
    "print(time.perf_counter() - t)"
)


def import_seconds(src: Path) -> float:
    """Seconds to import the package in a fresh interpreter, as the CLI does."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout)


# --- instances ----------------------------------------------------------------


def instance_seed(workload: str, seed: int, rnd: int, idx: int) -> int:
    key = f"{workload}/{seed}/{rnd}/{idx}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def balanced_order(k: int) -> list[int]:
    """Middle index, then lowest and highest alternately, so that a run cut
    off inside a round still has a size mix close to the ladder's."""
    rest = list(range(k))
    out = [rest.pop(k // 2)]
    while rest:
        out.append(rest.pop(0))
        if rest:
            out.append(rest.pop())
    return out


def _generator(name: str):
    from instances import bounded_triangulation, capped_planar

    tri = WORKLOADS[name].generator == "triangulation"
    return bounded_triangulation if tri else capped_planar


def make_round(name: str, seed: int, rnd: int):
    """Round rnd of a run: one fresh instance per size of the ladder."""
    gen, sizes = _generator(name), WORKLOADS[name].sizes
    return [
        (f"r{rnd}i{i}", gen(sizes[i], DMAX, instance_seed(name, seed, rnd, i)))
        for i in balanced_order(len(sizes))
    ]


def corpus_size(wl: Workload, seconds: int) -> int:
    """Instances in a run. It depends on the workload and --seconds alone, so
    the number attempted and failed never depends on the machine's speed."""
    return max(len(wl.sizes), round(seconds * wl.per_second))


def make_corpus(name: str, seed: int, count: int, first):
    """The run's instances: first (round 0), then whole rounds, the last one
    cut to count in its balanced order."""
    rounds = [first]
    while sum(map(len, rounds)) < count:
        rounds.append(make_round(name, seed, len(rounds)))
    return list(itertools.chain(*rounds))[:count]


def warmup_graph(name: str):
    """The same small graph for every seed: it only loads the code paths, and
    a seed-dependent one moved set-up time by up to 25% between seeds."""
    return _generator(name)(WARMUP_N, DMAX, instance_seed(name, 0, -1, 0))


# --- one instance ---------------------------------------------------------------


class Runner:
    """Runs instances through draw | verify and enforces the output gate."""

    def __init__(self, pipeline: str):
        import fewslopes
        from fewslopes import jsonio, onebend, straightline, twobend, verify

        self.fs = fewslopes
        self.jsonio = jsonio
        self.verify = verify
        self.draw_site = {
            "straight": (straightline, "draw_straight"),
            "onebend": (onebend, "draw_onebend"),
            "twobend": (twobend, "draw_twobend"),
        }[pipeline]
        self.seen: dict[str, str] = {}  # instance id -> sha256 or exception
        self.gate: list[str] = []

    def run(self, iid: str, g, tracer=None) -> dict:
        """One instance; names are looked up at call time so a tracer's
        wrappers apply. Never raises for a pipeline failure."""
        mod, fn = self.draw_site
        rec = {"id": iid, "n": g.n, "m": len(g.edges), "d": g.max_degree}
        span = tracer.span if tracer is not None else lambda _name: nullcontext()
        stage = "draw"
        t0 = time.perf_counter()
        try:
            with span("bench.instance"):
                dr = getattr(mod, fn)(g)
                t1 = time.perf_counter()
                stage = "verify"
                with span("jsonio.emit"):
                    text = self.jsonio.dumps_canonical(self.jsonio.drawing_to_obj(dr))
                with span("jsonio.parse"):
                    parsed = self.jsonio.drawing_from_obj(json.loads(text))
                rep = self.verify.verify_drawing(parsed)
                t2 = time.perf_counter()
        except Exception as exc:  # a pipeline failure is a measured outcome
            rec.update(
                status=type(exc).__name__,
                typed=isinstance(exc, self.fs.FewslopesError),
                stage=stage,
                wall_s=time.perf_counter() - t0,
            )
            if stage == "verify":
                rec.update(draw_s=t1 - t0, numeric_range=numeric_range(dr))
            self._compare(iid, rec["status"])
            return rec
        rec.update(
            status="certified" if rep.ok else "not_certified",
            typed=None,
            stage="verify",
            draw_s=t1 - t0,
            verify_s=t2 - t1,
            wall_s=t2 - t0,
            sha256=hashlib.sha256(text.encode()).hexdigest(),
            slopes=rep.distinct_slopes,
            numeric_range=numeric_range(dr),
        )
        again = self.jsonio.dumps_canonical(self.jsonio.drawing_to_obj(parsed))
        if again != text:
            self.gate.append(f"{iid}: re-emitting the parsed drawing changed its bytes")
        self._compare(iid, rec["sha256"])
        return rec

    def _compare(self, iid: str, outcome: str):
        first = self.seen.setdefault(iid, outcome)
        if first != outcome:
            self.gate.append(f"{iid}: repetition gave {outcome}, first run gave {first}")


# --- metrics ----------------------------------------------------------------------


def failure_tail(recs, wl: Workload) -> float:
    """Chance of at least as many failures as recs hold, if each instance
    failed independently at the baseline rate of its size."""
    rate = dict(zip(wl.sizes, wl.fail_p))
    dist = [1.0]  # dist[k]: chance of exactly k failures among those seen
    for r in recs:
        p = rate[r["n"]]
        dist = [a * (1 - p) + b * p for a, b in zip(dist + [0.0], [0.0] + dist)]
    return sum(dist[sum(r["status"] != "certified" for r in recs) :])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_instance(runs) -> list[dict]:
    """One record per instance, from its runs in run order: the first run's
    record, with each time the median of its runs' times scaled to nominal
    machine speed, and the number of runs."""
    by_id: dict[str, list] = {}
    for r, sc in zip(runs, local_scales([r["ref_s"] for r in runs])):
        by_id.setdefault(r["id"], []).append((r, sc))
    recs = []
    for reps in by_id.values():
        rec = dict(reps[0][0], runs=len(reps))
        for key in ("wall_s", "draw_s", "verify_s"):
            if key in rec:
                rec[key] = statistics.median(r[key] * sc for r, sc in reps if key in r)
        recs.append(rec)
    return recs


def end_to_end(
    recs, runs, wl: Workload, setup_s: float, first_rss_mb: float
) -> dict[str, float]:
    """recs holds one record per instance (see per_instance), runs every
    timed run; each instance counts once, whatever its number of runs."""
    ok = [r for r in recs if r["status"] == "certified"]

    def times(key):  # a failed instance counts as +inf
        return [r[key] if r["status"] == "certified" else math.inf for r in recs]

    wall = sum(r["wall_s"] for r in recs)
    untyped = [r for r in recs if r["typed"] is False]
    ranges = [r["numeric_range"] for r in recs if "numeric_range" in r]
    return {
        "vertices_per_s": math.exp(
            statistics.fmean(math.log(r["n"] / r["wall_s"]) for r in recs)
        ),
        "vertices_per_s.batch": sum(r["n"] for r in recs) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": first_rss_mb,
        "peak_rss_mb.run": peak_rss_mb(),
        "certified_vps": sum(r["n"] for r in ok) / wall,
        "fail_tail_p": failure_tail(recs, wl),
        "draw_s.p50": p50(times("draw_s")),
        "verify_s.p50": p50(times("verify_s")),
        "fail_ratio": 1 - len(ok) / len(recs),
        "untyped_fail_ratio": len(untyped) / len(recs),
        "slopes.mean": statistics.fmean(r["slopes"] for r in ok) if ok else 0.0,
        "numeric_range.max": max(ranges, default=0.0),
        "samples": len(recs),
        "timed_runs": len(runs),
        "reference_s.p50": p50([r["ref_s"] for r in runs]),
    }


def per_layer(tracer, traced_recs, plain_recs, traced_wall: float) -> dict[str, float]:
    k = len(traced_recs)
    self_s = tracer.self_seconds()
    total = sum(self_s.values())
    scale = REF_NOMINAL_S / p50([r["ref_s"] for r in traced_recs])
    m: dict[str, float] = {"trace.instance_s": total * scale / k}
    for name in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if name.endswith(".self_share") and "." not in base:  # a whole module
            m[name] = sum(v for sp, v in self_s.items() if sp.split(".")[0] == base) / total
        elif name.endswith(".self_share"):
            m[name] = self_s.get(base, 0.0) / total
        elif name.endswith(".calls"):
            m[name] = tracer.calls[base] / k
    m["graphs.st_order.errors"] = (
        sum(c for (s, _e), c in tracer.errors.items() if s == "graphs.st_order") / k
    )
    blocks = tracer.counts["graphs.block_cut_tree.blocks"]
    m["twobend.calls_per_block"] = (
        tracer.calls["twobend.draw_biconnected_twobend"] / blocks if blocks else 0.0
    )
    m["straightline.snap.retranslated"] = tracer.counts["straightline.snap.retranslated"] / k
    m["straightline.coord_bits.max"] = tracer.maxima.get("straightline.coord_bits.max", 0)
    m["onebend.coord_bits.max"] = tracer.maxima.get("onebend.coord_bits.max", 0)
    sweeps = tracer.sweeps
    m["circlepack.pack_radii.sweeps"] = (
        statistics.fmean(s for s, _ in sweeps) if sweeps else 0.0
    )
    finite = [r for _, r in sweeps if math.isfinite(r)]
    m["circlepack.residual.max"] = max(finite, default=0.0)
    for exc in ("AmbiguousBucket", "SlopeOffGrid"):
        m[f"verify.errors.{exc}"] = (
            sum(1 for r in traced_recs if r["stage"] == "verify" and r["status"] == exc) / k
        )
    plain_wall = sum(r["wall_s"] for r in plain_recs)
    m["trace.overhead_ratio"] = traced_wall / plain_wall
    drawn = [(r["n"], r["draw_s"]) for r in plain_recs if "draw_s" in r]
    m["pipeline.scale_exp"] = (
        fit_exponent(*zip(*drawn)) if len({n for n, _ in drawn}) > 1 else 0.0
    )
    return {name: m[name] for name in PER_LAYER}


def observers():
    """Counts taken on return values inside the traced run."""

    def snap(sl, tr):
        if sl.offset != (0.0, 0.0):
            tr.counts["straightline.snap.retranslated"] += 1
        bits = max(abs(c).bit_length() for p in sl.points for c in p)
        tr.note_max("straightline.coord_bits.max", bits)

    def onebend(dr, tr):
        tr.note_max("onebend.coord_bits.max", coord_bits(dr))

    def blocks(bct, tr):
        tr.counts["graphs.block_cut_tree.blocks"] += len(bct.blocks)

    return {
        "straightline.snap": snap,
        "onebend.draw_onebend": onebend,
        "graphs.block_cut_tree": blocks,
    }


# --- environment ----------------------------------------------------------------


def environment() -> dict:
    import networkx
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# --- command line -----------------------------------------------------------------


def _failure_kind(rec) -> str:
    if rec["typed"] is None:
        return "verdict"  # the verifier refused the drawing; nothing raised
    return "typed" if rec["typed"] else "untyped"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "fewslopes" / "__init__.py").is_file():
        print(f"error: no package source at {src}/fewslopes", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))

    wl = WORKLOADS[args.workload]
    runner = Runner(wl.pipeline)

    # set-up is the median of SETUP_REPEATS times of importing the package in
    # a fresh interpreter, generating the first round of instances and warming
    # up on a small one
    imports, setups, refs, firsts = [], [], [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_loop())
        imports.append(import_seconds(src))
        t0 = time.perf_counter()
        first = make_round(args.workload, args.seed, 0)
        runner.run("warmup", warmup_graph(args.workload))
        setups.append(time.perf_counter() - t0)
        firsts.append([(iid, g.edges) for iid, g in first])
    if any(f != firsts[0] for f in firsts):
        runner.gate.append("instance generation is not deterministic")
    setup_s = statistics.median(
        (i + s) * sc for i, s, sc in zip(imports, setups, local_scales(refs))
    )

    from tracer import Tracer

    # the rounds after the first are generated here, outside every timer
    corpus = make_corpus(
        args.workload, args.seed, corpus_size(wl, args.seconds), first
    )
    tracer = Tracer(observers()) if args.trace else None
    plain, traced = [], []
    traced_wall = 0.0
    start = time.perf_counter()
    for k, (iid, g) in enumerate(itertools.cycle(corpus)):
        # every instance runs once, however long that takes; repeats of the
        # corpus fill the rest of --seconds while the next one's last run
        # would still fit
        if k >= len(corpus):
            left = args.seconds - (time.perf_counter() - start)
            if plain[k - len(corpus)]["wall_s"] > left:
                break
        gc.collect()  # no garbage of earlier instances adds to this one's memory
        ref_s = reference_loop()
        plain.append(runner.run(iid, g) | {"ref_s": ref_s})
        if k < len(first):
            first_rss_mb = peak_rss_mb()
        if tracer is not None and k < len(corpus):
            gc.collect()
            ref_s = reference_loop()
            tracer.instance = iid
            with tracer:
                traced.append(runner.run(iid, g, tracer) | {"ref_s": ref_s})
            traced_wall += traced[-1]["wall_s"]
    if len(plain) == len(corpus):  # repeat one for the byte-identity gate
        runner.run(*min(first, key=lambda inst: inst[1].n))

    recs = per_instance(plain)
    e2e = end_to_end(recs, plain, wl, setup_s, first_rss_mb)
    if e2e["fail_tail_p"] < FAIL_ALPHA:
        runner.gate.append(
            f"{sum(r['status'] != 'certified' for r in recs)} of {len(recs)} "
            f"instances failed, a chance of {e2e['fail_tail_p']:.2g} at the "
            "baseline failure rates of their sizes"
        )
    if tracer is not None:
        metrics = per_layer(tracer, traced, plain[: len(corpus)], traced_wall)
        names = PER_LAYER
    else:
        metrics = e2e
        names = END_TO_END
    failures = Counter(
        f"{r['status']} ({_failure_kind(r)}, {r['stage']})"
        for r in recs
        if r["status"] != "certified"
    )

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_nominal_s": REF_NOMINAL_S,
        "environment": environment(),
        "import_repeats_s": imports,
        "setup_repeats_s": setups,
        "setup_reference_s": refs,
        "metrics": metrics,
        "end_to_end": e2e,
        "failures": dict(failures),
        "gate": runner.gate,
        "instances": recs,
    }
    if tracer is not None:
        result["self_s_by_span"] = tracer.self_seconds()
        result["calls_by_span"] = dict(tracer.calls)
        tracer.dump(OUT / f"{tag}-spans.jsonl")
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    env = result["environment"]
    print(
        f"# {args.workload} seed={args.seed} instances={len(recs)} runs={len(plain)} "
        f"nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']}"
    )
    units = {**END_TO_END, **REPORTED}
    for name, value in result["end_to_end"].items():
        print(f"{name:24s} {value:.6g} {units[name]}")
    for key, count in sorted(failures.items()):
        print(f"failure {key}: {count}")
    if tracer is not None:
        total = sum(result["self_s_by_span"].values())
        print(f"{'span':44s} {'calls':>7s} {'self_s':>9s} share")
        for name, s in sorted(result["self_s_by_span"].items(), key=lambda kv: -kv[1]):
            print(f"{name:44s} {tracer.calls[name]:7d} {s:9.4f} {s / total:.3f}")
        for name, value in metrics.items():
            print(f"{name:44s} {value:.6g} {PER_LAYER[name]}")
    for msg in runner.gate:
        print(f"GATE FAILED: {msg}")
    print(
        json.dumps(
            {
                "correct": not runner.gate,
                "attempted": len(recs),
                "failed": sum(failures.values()),
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names.items()},
            }
        )
    )
    return 0 if not runner.gate else 1


if __name__ == "__main__":
    sys.exit(main())
