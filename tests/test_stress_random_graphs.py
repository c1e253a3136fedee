"""Randomized differential stress: the guarantees must survive arbitrary
graphs and hostile inadmissible heuristics.

Graphs are random digraphs (cycles, parallel-ish edges, multiple goals).
The anchor heuristic is a global contraction of the true remaining cost
(consistent by construction); the inadmissible heuristics are noise. The
optimal cost comes from an independent reverse Dijkstra written here.
"""
import heapq
import math
import random

import pytest

from amhastar import Outcome, Planner, PlannerConfig
from amhastar.verify import verify_run

from helpers import ExplicitGraphDomain

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


CONFIGS = [
    PlannerConfig(w1=1.0, w2=1.0, check_invariants=True, record_expansions=True),
    PlannerConfig(w1=3.0, w2=2.0, check_invariants=True, record_expansions=True),
    PlannerConfig(w1=2.0, w2=4.0, dw1=0.5, dw2=1.5,
                  check_invariants=True, record_expansions=True),
    PlannerConfig(w1=4.0, w2=3.0, check_invariants=True, record_expansions=True),
]


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
