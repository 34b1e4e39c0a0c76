"""Self-tests of the benchmark: generators, metric names, statistics helpers,
the tracer's clean-up and the command's refusal to run without the package."""

from __future__ import annotations

import json
import logging
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
from instances import bounded_triangulation, capped_planar  # noqa: E402
from tracer import Tracer, sites  # noqa: E402

from fewslopes.graphs import planar_embed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n", [9, 60, 300])
def test_triangulation_hits_n_and_degree_cap(n, seed):
    g = bounded_triangulation(n, 8, seed)
    assert g.n == n
    assert g.max_degree == 8
    assert len(g.edges) == 3 * n - 6
    assert planar_embed(g).is_triangulated()


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n", [150, 600])
def test_capped_planar_hits_n_and_degree_cap(n, seed):
    g = capped_planar(n, 8, seed)
    assert g.n == n
    assert g.max_degree == 8
    assert len(g.edges) < 3 * n - 6
    assert nx.check_planarity(g.to_networkx())[0]


def test_generators_are_seeded():
    assert bounded_triangulation(80, 8, 3) == bounded_triangulation(80, 8, 3)
    assert bounded_triangulation(80, 8, 3) != bounded_triangulation(80, 8, 4)
    assert capped_planar(150, 8, 3) == capped_planar(150, 8, 3)


def test_generator_rejects_unreachable_cap():
    with pytest.raises(ValueError):
        bounded_triangulation(6, 8, 0)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_rounds_follow_the_size_ladder(name):
    rounds = [run.make_round(name, 3, r) for r in range(2)]
    for rnd in rounds:
        assert sorted(g.n for _, g in rnd) == sorted(run.WORKLOADS[name].sizes)
        assert all(g.max_degree == run.DMAX for _, g in rnd)
    assert rounds[0][0][1] != rounds[1][0][1]
    assert run.make_round(name, 3, 1)[0][1] == rounds[1][0][1]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_corpus_depends_on_seed_and_seconds_only(name):
    wl = run.WORKLOADS[name]
    k = len(wl.sizes)
    assert run.corpus_size(wl, 1) == k
    count = run.corpus_size(wl, 33)
    assert count == round(33 * wl.per_second) > k
    corpus = run.make_corpus(name, 3, k + 2, run.make_round(name, 3, 0))
    again = run.make_corpus(name, 3, k + 2, run.make_round(name, 3, 0))
    assert [(iid, g.edges) for iid, g in corpus] == [(iid, g.edges) for iid, g in again]
    assert len({iid for iid, _ in corpus}) == k + 2
    assert [g.n for _, g in corpus[k:]] == [g.n for _, g in corpus[:2]]


def test_per_instance_takes_median_scaled_time_per_instance():
    runs = [
        {"id": "a", "n": 5, "wall_s": 1.0, "ref_s": 0.01},
        {"id": "b", "n": 7, "wall_s": 2.0, "ref_s": 0.01},
        {"id": "a", "n": 5, "wall_s": 3.0, "ref_s": 0.01},
    ]
    recs = run.per_instance(runs)
    assert [(r["id"], r["runs"]) for r in recs] == [("a", 2), ("b", 1)]
    assert [r["wall_s"] for r in recs] == pytest.approx([2.0, 2.0])


@pytest.mark.parametrize("k", [1, 2, 5, 7])
def test_balanced_order_is_a_permutation_starting_mid_ladder(k):
    order = run.balanced_order(k)
    assert sorted(order) == list(range(k))
    assert order[0] == k // 2


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(run.END_TO_END) + list(run.REPORTED) + list(run.PER_LAYER)
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_median_counts_failures_as_infinite():
    assert run.p50([3.0, 1.0, 2.0]) == 2.0
    assert run.p50([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert run.p50([1.0, 2.0, math.inf]) == 2.0
    assert run.p50([1.0, math.inf, math.inf]) == math.inf
    with pytest.raises(ValueError):
        run.p50([])


def test_exponent_fit_recovers_power_law():
    ns = [10, 20, 40, 80]
    assert run.fit_exponent(ns, [3e-4 * n**2 for n in ns]) == pytest.approx(2.0)
    assert run.fit_exponent(ns, [5.0 * n**0.5 for n in ns]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        run.fit_exponent([10, 10], [1.0, 2.0])


def test_local_scales_use_the_five_nearest_readings():
    assert run.local_scales([0.01] * 3) == pytest.approx([1.0] * 3)
    refs = [0.02, 0.02, 0.02, 0.005, 0.005, 0.005, 0.005]
    assert run.local_scales(refs) == pytest.approx([0.5, 0.5, 0.5, 2.0, 2.0, 2.0, 2.0])
    assert run.local_scales([0.02, 0.5, 0.02, 0.02, 0.02])[1] == pytest.approx(0.5)


def test_failure_tail_is_the_binomial_tail():
    wl = run.Workload("onebend", "triangulation", (10, 20), (0.5, 0.1))
    recs = [{"n": 10, "status": "certified"}, {"n": 10, "status": "SlopeOffGrid"}]
    assert run.failure_tail(recs, wl) == pytest.approx(0.75)
    recs = [{"n": 20, "status": "ValueError"}] * 2 + [{"n": 10, "status": "certified"}]
    assert run.failure_tail(recs, wl) == pytest.approx(0.1)
    assert run.failure_tail(recs[2:], wl) == 1.0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_baseline_failure_rates_cover_the_ladder(name):
    wl = run.WORKLOADS[name]
    assert len(wl.fail_p) == len(wl.sizes)
    assert all(0 < p < 1 for p in wl.fail_p)


def _site_snapshot():
    return {
        (mod.__name__, attr): value for mod in sites() for attr, value in vars(mod).items()
    }


@pytest.mark.parametrize("pipeline", ["straight", "onebend", "twobend"])
def test_tracer_records_spans_and_restores_package(pipeline):
    import fewslopes.twobend

    runner = run.Runner(pipeline)
    g = bounded_triangulation(20, 8, 1) if pipeline != "twobend" else capped_planar(60, 8, 1)
    log = logging.getLogger("fewslopes.circlepack")
    before = _site_snapshot()
    level, handlers = log.level, list(log.handlers)
    tracer = Tracer(run.observers())
    with tracer:
        assert fewslopes.twobend.st_order is not before[("fewslopes.twobend", "st_order")]
        rec = runner.run("t", g, tracer)
    assert _site_snapshot() == before
    assert (log.level, log.handlers) == (level, handlers)
    assert rec["status"] == "certified"
    assert not runner.gate
    self_s = tracer.self_seconds()
    assert {"bench.instance", "graphs.planar_embed", "jsonio.emit", "jsonio.parse",
            "verify.check_noncrossing"} <= set(self_s)
    assert all(v >= 0 for v in self_s.values())
    top = [s for s in tracer.spans if s[5] == -1]
    assert sum(s[3] - s[2] for s in top) == pytest.approx(sum(self_s.values()))
    if pipeline == "straight":
        assert tracer.sweeps and tracer.calls["circlepack.pack_radii"] == 1
    else:
        assert not tracer.sweeps and "circlepack.pack_radii" not in tracer.calls


def test_tracer_restores_package_after_an_error():
    before = _site_snapshot()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _site_snapshot() == before


def test_gate_flags_changed_bytes_between_repetitions():
    runner = run.Runner("onebend")
    g = bounded_triangulation(12, 8, 2)
    runner.run("x", g)
    runner.run("x", g)
    assert not runner.gate
    runner.seen["x"] = "0" * 64
    runner.run("x", g)
    assert len(runner.gate) == 1


def test_command_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable] + cmd[1:]
        + ["--workload", "straight-pack", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
