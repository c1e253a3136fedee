"""The benchmark's own checks: its checker, its generator and its tracer."""
from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from amhastar.bench import run_from_manifest  # noqa: E402
from amhastar.grid import OccupancyGrid  # noqa: E402
from amhastar.oracle import uniform_cost_optimal  # noqa: E402

from perfbench import lattice, tracer, workloads  # noqa: E402
from perfbench.checker import check_query  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench.run import Runner  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tile_queries(tmp_path_factory):
    queries = workloads.make_inputs("tiles8-anytime", 0, tmp_path_factory.mktemp("work"))
    costs = workloads.expected_costs("tiles8-anytime", queries)
    return workloads.select("tiles8-anytime", queries, costs)[:6]


@pytest.fixture(scope="module")
def lattice_query(tmp_path_factory):
    map_path = tmp_path_factory.mktemp("maps") / "open32.map"
    map_path.write_text(OccupancyGrid.empty(32, 32, lattice.RESOLUTION).to_text())
    return workloads.Query("open32", workloads.TimedManifest(
        algo="amha", domain="grid", map=str(map_path), footprint=workloads.FOOTPRINT,
        start="6 16 0", goal="26 16", w1=3.0, w2=2.0, dw1=0.5, dw2=0.25,
        time_limit=0.2, clock="virtual", tick=1e-4))


def _corrupt(records, **changes):
    return records[:-1] + [dataclasses.replace(records[-1], **changes)]


@pytest.mark.parametrize("kind", ["tiles", "lattice"])
def test_checker_rejects_raised_cost_and_illegal_step(kind, tile_queries, lattice_query):
    query = tile_queries[0] if kind == "tiles" else lattice_query
    records, _, domain = run_from_manifest(query.manifest)
    assert check_query(query, records, domain) == []
    path = records[-1].path
    assert len(path) >= 3

    raised = check_query(query, _corrupt(records, cost=records[-1].cost + 1), domain)
    assert any("edges sum" in f for f in raised)

    skipped = path[:1] + path[2:]
    illegal = check_query(query, _corrupt(records, path=skipped), domain)
    assert any("step 0" in f for f in illegal)


def test_checker_rejects_a_cost_above_the_bound(tile_queries):
    query = tile_queries[0]
    records, _, domain = run_from_manifest(query.manifest)
    tight = dataclasses.replace(query, optimal=records[-1].cost - 1)
    assert any(f.startswith("suboptimality-bound") for f in check_query(tight, records, domain))


def test_generator_is_deterministic(tmp_path):
    first = workloads.make_inputs("lattice-rooms256", 11, tmp_path / "a")
    again = workloads.make_inputs("lattice-rooms256", 11, tmp_path / "b")
    other = workloads.make_inputs("lattice-rooms256", 12, tmp_path / "c")
    map_a, map_b, map_c = (Path(q[0].manifest.map).read_bytes() for q in (first, again, other))
    assert map_a == map_b != map_c
    pairs = [(q.manifest.start, q.manifest.goal) for q in first]
    assert pairs == [(q.manifest.start, q.manifest.goal) for q in again]
    assert pairs != [(q.manifest.start, q.manifest.goal) for q in other]
    assert len(pairs) == workloads.LATTICE_CANDIDATES
    tiles = workloads.make_inputs("tiles15-budget", 3, tmp_path)
    assert [q.manifest.board for q in tiles] == [
        q.manifest.board for q in workloads.make_inputs("tiles15-budget", 3, tmp_path)]


def test_sampled_queries_are_far_apart_on_open_floor():
    grid = lattice.rooms_map(5)
    for (sx, sy, st), (gx, gy) in lattice.sample_queries(grid, 5, 10):
        assert 0 <= st < lattice.HEADINGS
        assert lattice.open_floor(grid, sx, sy, lattice.OPEN_FLOOR)
        assert lattice.open_floor(grid, gx, gy, lattice.OPEN_FLOOR)
        assert (sx - gx) ** 2 + (sy - gy) ** 2 >= (lattice.SIZE / 2) ** 2


def test_oracle_pose_graph_matches_the_lattice_domain(tmp_path):
    query = workloads.make_inputs("lattice-rooms256", 2, tmp_path)[0]
    domain = query.manifest.build_domain()
    graph = lattice.PoseGraph(domain.grid, domain.primitives, domain.footprint,
                              domain.num_headings)
    rng = random.Random(0)
    for _ in range(3000):
        x, y = rng.randrange(lattice.SIZE), rng.randrange(lattice.SIZE)
        t = rng.randrange(lattice.HEADINGS)
        sid = (y * lattice.SIZE + x) * lattice.HEADINGS + t
        assert domain.pose_of(sid) == (x, y, t)
        expected = sorted((domain.pose_of(s2), cost) for s2, cost in domain.successors(sid))
        assert sorted(graph.successors(x, y, t)) == expected


def test_primitive_costs_are_never_below_their_chords(lattice_query):
    # The oracle's ellipse cut and its straight-line potential both rest on this.
    domain = lattice_query.manifest.build_domain()
    for p in domain.primitives:
        ex, ey, _ = p.end
        cost = math.ceil(p.cost_milli * domain.grid.resolution)
        assert cost >= lattice.CELL_COST * math.hypot(ex, ey)


def test_oracle_optimum_matches_a_converged_planner_run(lattice_query):
    manifest = dataclasses.replace(lattice_query.manifest, time_limit=5.0)
    records, _, domain = run_from_manifest(manifest)
    assert records[-1].bound == 1.0
    graph = lattice.PoseGraph(domain.grid, domain.primitives, domain.footprint,
                              domain.num_headings)
    start, goal = (6, 16, 0), (26, 16)
    query = lattice.QueryGraph(graph, start, goal, 3 * math.dist(start[:2], goal)
                               * lattice.CELL_COST)
    assert query.real_cost(uniform_cost_optimal(query)) == records[-1].cost


def _traced_metrics(queries):
    runner = Runner(queries)
    result = runner.traced_run(SimpleNamespace(workload="test", seed=0))
    assert result["correct"] and runner.attempted == 2 * len(queries)
    return {n: (m["value"], m["unit"]) for n, m in result["metrics"].items()}


def test_traced_counts_repeat_and_match_the_declared_metrics(tile_queries, lattice_query,
                                                            tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    for queries in (tile_queries, [lattice_query]):
        first = _traced_metrics(queries)
        again = _traced_metrics(queries)
        assert list(first) == [m["name"] for m in BENCHMARK["per_layer"]]
        counts = {n: v for n, (v, unit) in first.items() if unit == "count"}
        assert counts == {n: v for n, (v, unit) in again.items() if unit == "count"}
        assert first["planner.inadmissible_share"] == again["planner.inadmissible_share"]
        assert counts["planner.expansions"] > 0
        assert all(v > 0 for n, (v, unit) in first.items() if unit == "s")


def test_untraced_run_reports_the_declared_metrics(tile_queries):
    result = Runner(tile_queries).untraced_run(SimpleNamespace(seconds=0), setup_s=0.05)
    assert result["correct"] and result["attempted"] == len(tile_queries)
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_untraced_times_are_scaled_to_nominal_host_speed(tile_queries, monkeypatch):
    # A reference loop twice as slow as nominal halves every reported time.
    monkeypatch.setattr(run, "reference_loop", lambda: 2 * run.REFERENCE_S)
    timing = {"query_s": 0.2, "first_s": 0.1, "search_s": 0.15, "expansions": 300}
    monkeypatch.setattr(Runner, "run_query", lambda self, q: dict(timing))
    queries = tile_queries[:4]
    runner = Runner(queries)
    runner.attempted = len(queries)
    metrics = runner.untraced_run(SimpleNamespace(seconds=0), setup_s=0.05)["metrics"]
    assert metrics["total_s"]["value"] == pytest.approx(len(queries) * 0.1)
    assert metrics["query_s_p50"]["value"] == pytest.approx(0.1)
    assert metrics["first_solution_s_p50"]["value"] == pytest.approx(0.05)
    assert metrics["expansions_per_s"]["value"] == pytest.approx(300 / 0.075)
