"""Randomized differential stress: the guarantees must survive arbitrary
graphs and hostile inadmissible heuristics, and the planner must search
them exactly as its specification in `spec_amha.py` does.

Graphs are random digraphs (cycles, parallel-ish edges, multiple goals).
The anchor heuristic is a global contraction of the true remaining cost
(consistent by construction); the inadmissible heuristics are noise. The
optimal cost comes from an independent reverse Dijkstra written here. The
lockstep runs add corridor graphs whose heuristics tie, so that key ties,
stale queue entries, INCONS and budget cuts all occur.
"""
import ast
import heapq
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from amhastar import Outcome, Planner, PlannerConfig
from amhastar import planner as planner_module
from amhastar.domain import checked
from amhastar.heap import AddressableHeap
from amhastar.planner import MODES
from amhastar.verify import verify_run

from helpers import ExplicitGraphDomain, lockstep_difference

INF = math.inf


def random_graph(rng, n_nodes, n_goals=1):
    nodes = list(range(n_nodes))
    edges = {u: [] for u in nodes}
    # sparse random digraph plus a few heavy shortcut edges
    for u in nodes:
        for _ in range(rng.randrange(1, 4)):
            v = rng.randrange(n_nodes)
            edges[u].append((v, rng.randrange(1, 20)))
    for _ in range(n_nodes // 3):
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        edges[u].append((v, rng.randrange(1, 60)))
    goals = set(rng.sample(nodes, n_goals))
    return edges, 0, goals


def reverse_dijkstra(edges, goals):
    """True cost-to-goal for every node; the independent reference."""
    back = {u: [] for u in edges}
    for u, succs in edges.items():
        for v, c in succs:
            back[v].append((u, c))
    dist = {g: 0 for g in goals}
    heap = [(0, g) for g in goals]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, INF):
            continue
        for u, c in back[v]:
            if d + c < dist.get(u, INF):
                dist[u] = d + c
                heapq.heappush(heap, (d + c, u))
    return dist


def build_domain(rng, edges, start, goals, n_inadmissible):
    togo = reverse_dijkstra(edges, goals)
    beta = rng.random()  # one global contraction keeps the anchor consistent
    anchor = {u: beta * togo[u] for u in edges if u in togo}
    tables = [anchor]
    for _ in range(n_inadmissible):
        tables.append({
            u: 0.0 if u in goals else rng.random() * 3 * togo.get(u, 50) + rng.random()
            for u in edges
        })
    return ExplicitGraphDomain(edges, start, goals, heuristics=tables), togo


def corridor_graph(rng, n_nodes):
    """Nodes on a line, each with edges to some of its near neighbours and
    a few long edges, and a goal near the far end. Paths are long and have
    many near-equal alternatives, so an inflated search closes states
    before their cheapest path is known and INCONS fills."""
    edges = {u: [] for u in range(n_nodes)}
    for u in range(n_nodes):
        for d in (-2, -1, 1, 2, 3):
            if 0 <= u + d < n_nodes and rng.random() < 0.7:
                edges[u].append((u + d, rng.randrange(1, 10)))
    for _ in range(n_nodes // 10):
        edges[rng.randrange(n_nodes)].append((rng.randrange(n_nodes), rng.randrange(1, 60)))
    return edges, 0, {n_nodes - 1 - rng.randrange(3)}


def tied_domain(rng, edges, start, goals, n_inadmissible):
    """Heuristics that tie: the anchor is half the true remaining cost,
    rounded down (still consistent), and each inadmissible value is 0, +inf
    or a small whole number, 0 at the goals."""
    togo = reverse_dijkstra(edges, goals)
    tables = [{u: float(togo[u] // 2) for u in togo}]
    for _ in range(n_inadmissible):
        tables.append({
            u: 0.0 if u in goals else rng.choice((0.0, INF, float(rng.randrange(40))))
            for u in edges
        })
    return ExplicitGraphDomain(edges, start, goals, heuristics=tables)


CONFIGS = [
    PlannerConfig(w1=1.0, w2=1.0, record_expansions=True),
    PlannerConfig(w1=3.0, w2=2.0, record_expansions=True),
    PlannerConfig(w1=2.0, w2=4.0, dw1=0.5, dw2=1.5, record_expansions=True),
    PlannerConfig(w1=4.0, w2=3.0, record_expansions=True),
]


def lockstep_cases(trial):
    """The domain and config of `test_guarantees_on_random_graphs[trial]`,
    then a corridor graph with tied heuristics under the same weights and a
    virtual budget of 0 to 199 expansions (every third trial runs
    unbudgeted)."""
    rng = random.Random(987_000 + trial)
    edges, start, goals = random_graph(rng, rng.randrange(8, 60),
                                       n_goals=rng.randrange(1, 3))
    dom, _ = build_domain(rng, edges, start, goals, n_inadmissible=rng.randrange(1, 4))
    cfg = CONFIGS[trial % len(CONFIGS)]
    rng = random.Random(123_000 + trial)
    edges, start, goals = corridor_graph(rng, rng.randrange(10, 120))
    tied = tied_domain(rng, edges, start, goals, n_inadmissible=rng.randrange(1, 4))
    budget = INF if trial % 3 == 0 else float(rng.randrange(200))
    return [(dom, cfg), (tied, replace(cfg, tick=1.0, time_limit=budget))]


@pytest.mark.parametrize("trial", range(40))
def test_guarantees_on_random_graphs(trial):
    rng = random.Random(987_000 + trial)
    edges, start, goals = random_graph(rng, rng.randrange(8, 60),
                                       n_goals=rng.randrange(1, 3))
    dom, togo = build_domain(rng, edges, start, goals, n_inadmissible=rng.randrange(1, 4))
    optimal = togo.get(start, INF)
    cfg = CONFIGS[trial % len(CONFIGS)]
    planner = Planner(dom, cfg)
    records = planner.run()
    if optimal == INF:
        assert records == []
        assert planner.outcome is Outcome.EXHAUSTED
        return
    assert records, f"solvable graph produced no solution (optimal {optimal})"
    verdict = verify_run(records, optimal, planner.expansion_log)
    assert verdict.passed, verdict.failures
    assert records[-1].bound == 1.0
    assert records[-1].cost == optimal
    # every published path must be a real walk with edge sums equal to cost
    for rec in records:
        total = 0
        for a, b in zip(rec.path, rec.path[1:]):
            costs = [c for v, c in dom.successors(a) if v == b]
            assert costs
            total += min(costs)
        assert total == rec.cost


@pytest.mark.parametrize("trial", range(10))
def test_budget_abort_leaves_consistent_records(trial):
    rng = random.Random(55_000 + trial)
    edges, start, goals = random_graph(rng, 80)
    dom, togo = build_domain(rng, edges, start, goals, n_inadmissible=2)
    cfg = PlannerConfig(w1=5.0, w2=5.0, dw1=0.25, dw2=0.25,
                        clock="virtual", tick=1.0,
                        time_limit=float(rng.randrange(0, 30)),
                        record_expansions=True)
    assert lockstep_difference(dom, cfg) is None
    planner = Planner(dom, cfg)
    records = planner.run()
    optimal = togo.get(start, INF)
    if optimal == INF:
        assert records == []
        return
    verdict = verify_run(records, optimal, planner.expansion_log)
    assert verdict.passed, verdict.failures
    for rec in records:
        assert rec.cost <= rec.bound * optimal


# Each mode at the trial's weights, and `ara` at w1 = 1: optimal A*.
LOCKSTEP_RUNS = {**{algo: dict(algo=algo) for algo in MODES},
                 "ara-w1-1": dict(algo="ara", w1=1.0)}


@pytest.mark.parametrize("run", LOCKSTEP_RUNS)
@pytest.mark.parametrize("trial", range(40))
def test_planner_runs_in_lockstep_with_the_spec(trial, run):
    for dom, cfg in lockstep_cases(trial):
        assert lockstep_difference(checked(dom), replace(cfg, **LOCKSTEP_RUNS[run])) is None


class _SmallerGFirstHeap(AddressableHeap):
    """Breaks key ties toward the smaller g: entries `(key, g, sid)`."""

    def insert_or_update(self, sid, key, g):
        super().insert_or_update(sid, key, -g)

    def rebuild(self, entries):
        super().rebuild((sid, key, -g) for sid, key, g in entries)


def test_lockstep_catches_a_planner_that_breaks_ties_toward_the_smaller_g(monkeypatch):
    monkeypatch.setattr(planner_module, "AddressableHeap", _SmallerGFirstHeap)
    assert any(lockstep_difference(dom, replace(cfg, algo=algo))
               for trial in range(40) for algo in MODES for dom, cfg in lockstep_cases(trial))


def test_spec_imports_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "spec_amha.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] in ("amhastar", "")]
