"""Unit tests for the planner phases: key, expand, improve_path, reconcile,
extract_path. Reference values come from hand traces and from independent
Dijkstra / breadth-first searches written here, not from the planner."""
import gc
import heapq
import math
import weakref
from collections import deque

import pytest

from amhastar import Outcome, Planner, PlannerConfig
from amhastar.tiles import TilePuzzleDomain, draw_weights, random_solvable_board

from helpers import ExplicitGraphDomain, grid_domain, grid_graph, queue_keys

INF = math.inf


def dijkstra_all(edges, start):
    """Independent reference shortest-path costs over an adjacency dict."""
    dist = {start: 0}
    heap = [(0, repr(start), start)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist.get(u, INF):
            continue
        for v, c in edges.get(u, ()):
            if d + c < dist.get(v, INF):
                dist[v] = d + c
                heapq.heappush(heap, (d + c, repr(v), v))
    return dist


def bfs_cost(edges, start, goal):
    dist = {start: 0}
    q = deque([start])
    while q:
        u = q.popleft()
        if u == goal:
            return dist[u]
        for v, _ in edges.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return INF


def chain_domain(h0=None, h1=None):
    edges = {"a": [("b", 1)], "b": [("c", 1)], "c": []}
    return ExplicitGraphDomain(edges, "a", "c", heuristics=[h0 or {}, h1 or {}])


# -- key ---------------------------------------------------------------------


def test_key_is_g_plus_weighted_heuristic():
    dom = ExplicitGraphDomain({"a": [("b", 5)]}, "a", "b",
                              heuristics=[{"a": 5.0, "b": 0.0}])
    planner = Planner(dom, PlannerConfig(w1=2.0))
    planner.initialize()
    assert planner.key(dom.id_of("a"), 0) == 10.0  # g=0, h=5, w1=2


def test_key_at_goal_equals_g():
    dom = chain_domain(h0={"a": 2.0, "b": 1.0})
    planner = Planner(dom, PlannerConfig(w1=7.0, w2=1.0))
    planner.initialize()
    planner.improve_path()
    goal = dom.id_of("c")
    assert planner.g(goal) == 2
    for i in (0, 1):
        assert planner.key(goal, i) == 2  # h(goal) = 0 regardless of w1


def test_key_of_unreached_state_is_infinite():
    dom = chain_domain(h0={"c": 3.0})
    planner = Planner(dom, PlannerConfig(w1=1.0))
    planner.initialize()
    assert planner.key(dom.id_of("c"), 0) == INF


# -- expand --------------------------------------------------------------------


def test_expand_discovers_successor():
    dom = ExplicitGraphDomain(
        {"a": [("b", 4)], "b": []}, "a", "b", heuristics=[{}, {"a": 1.0, "b": 1.0}]
    )
    planner = Planner(dom, PlannerConfig(w1=1.0, w2=2.0))
    planner.initialize()
    a, b = dom.id_of("a"), dom.id_of("b")
    planner.expand(a, 0)
    assert planner.g(b) == 4
    assert planner.parent(b) == a
    assert b in planner.open_queues[0].members()
    assert b in planner.open_queues[1].members()  # key(b,1)=5 <= w2*key(b,0)=8


def test_expand_improvement_of_anchor_closed_state_goes_to_incons():
    # d improves from 10 to 8 while anchor-closed: INCONS only, queues untouched.
    edges = {"a": [("d", 10), ("b", 3)], "b": [("d", 5)], "d": []}
    dom = ExplicitGraphDomain(edges, "a", "d", heuristics=[{}])
    planner = Planner(dom, PlannerConfig())
    planner.initialize()
    a, b, d = (dom.id_of(n) for n in "abd")
    planner.expand(a, 0)
    assert planner.g(d) == 10
    planner.closed_anchor.add(d)
    for q in planner.open_queues:
        q.discard(d)
    planner.expand(b, 0)
    assert planner.g(d) == 8
    assert d in planner.incons
    assert all(d not in q.members() for q in planner.open_queues)


def test_expand_ignores_non_improving_edge():
    edges = {"a": [("b", 3), ("c", 1)], "c": [("b", 4)], "b": []}
    dom = ExplicitGraphDomain(edges, "a", "b", heuristics=[{}])
    planner = Planner(dom, PlannerConfig())
    planner.initialize()
    a, b, c = (dom.id_of(n) for n in "abc")
    planner.expand(a, 0)
    assert planner.g(b) == 3
    parent_before = planner.parent(b)
    planner.expand(c, 0)  # candidate 1 + 4 = 5 > 3: nothing changes
    assert planner.g(b) == 3
    assert planner.parent(b) == parent_before


def test_expand_on_chain_matches_independent_dijkstra():
    edges = {"a": [("b", 1)], "b": [("c", 1)], "c": []}
    dom = ExplicitGraphDomain(edges, "a", "c", heuristics=[{}, {}])
    planner = Planner(dom, PlannerConfig(w1=1.0, w2=1.0))
    planner.initialize()
    a, b = dom.id_of("a"), dom.id_of("b")
    planner.expand(a, 0)
    ref = dijkstra_all(edges, "a")
    assert planner.g(b) == ref["b"] == 1
    # h == 0 everywhere, so key(b,1) == key(b,0): b sits in both queues.
    keys0, keys1 = (queue_keys(q) for q in planner.open_queues)
    assert b in keys0 and keys0[b] == keys1[b]


# -- improve_path -----------------------------------------------------------


def test_improve_path_start_equals_goal():
    dom = ExplicitGraphDomain({"a": []}, "a", "a", heuristics=[{}])
    planner = Planner(dom, PlannerConfig())
    planner.initialize()
    assert planner.improve_path() is Outcome.GOAL_BOUND_PROVEN
    assert planner.g(dom.id_of("a")) == 0
    assert planner.expansions_total == 0


def test_improve_path_disconnected_goal_exhausts():
    edges = {"a": [("b", 1)], "b": [], "z": []}
    dom = ExplicitGraphDomain(edges, "a", "z", heuristics=[{}])
    planner = Planner(dom, PlannerConfig())
    planner.initialize()
    assert planner.improve_path() is Outcome.EXHAUSTED
    assert planner.g(dom.id_of("z")) == INF


def test_improve_path_bound_on_5x5_grid():
    dom = grid_domain(5, 5, (0, 0), (4, 4))
    optimal = bfs_cost(grid_graph(5, 5), (0, 0), (4, 4))
    assert optimal == 8
    planner = Planner(dom, PlannerConfig(w1=2.0, w2=2.0))
    planner.initialize()
    assert planner.improve_path() is Outcome.GOAL_BOUND_PROVEN
    assert planner.g(dom.id_of((4, 4))) <= 4 * optimal


def test_improve_path_respects_time_budget():
    dom = grid_domain(30, 30, (0, 0), (29, 29))
    planner = Planner(
        dom, PlannerConfig(clock="virtual", tick=1.0, time_limit=5.0)
    )
    planner.initialize()
    assert planner.improve_path() is Outcome.TIMED_OUT
    assert planner.expansions_total <= 7


# -- reconcile_queues ----------------------------------------------------------


def test_reconcile_moves_incons_and_mirrors_anchor():
    edges = {"a": [("b", 1), ("c", 1)], "b": [], "c": []}
    dom = ExplicitGraphDomain(edges, "a", "b", heuristics=[{}, {}])
    planner = Planner(dom, PlannerConfig(w1=2.0, w2=2.0))
    planner.initialize()
    a, b, c = (dom.id_of(n) for n in "abc")
    planner.expand(a, 0)
    for q in planner.open_queues:
        q.discard(c)
    planner.incons.add(c)
    planner.reconcile_queues()
    for q in planner.open_queues:
        assert set(q.members()) == {b, c}
    assert not planner.incons


def test_reconcile_of_empty_queues_is_empty():
    dom = ExplicitGraphDomain({"a": []}, "a", "a", heuristics=[{}])
    planner = Planner(dom, PlannerConfig())
    planner.initialize()
    for q in planner.open_queues:
        q.discard(dom.id_of("a"))
    planner.reconcile_queues()
    assert all(len(q) == 0 for q in planner.open_queues)


def test_reconcile_rekeys_with_new_weight():
    dom = ExplicitGraphDomain(
        {"a": [("b", 1)], "b": []}, "a", "b", heuristics=[{"a": 4.0, "b": 2.0}]
    )
    planner = Planner(dom, PlannerConfig(w1=4.0))
    planner.initialize()
    a, b = dom.id_of("a"), dom.id_of("b")
    planner.expand(a, 0)
    assert queue_keys(planner.open_queues[0])[b] == 1 + 4.0 * 2.0
    planner._w1 = 2.0  # halve the inflation between iterations
    planner.reconcile_queues()
    assert queue_keys(planner.open_queues[0])[b] == 1 + 2.0 * 2.0


# -- extract_path ---------------------------------------------------------------


def test_extract_path_single_state():
    dom = ExplicitGraphDomain({"a": []}, "a", "a", heuristics=[{}])
    planner = Planner(dom, PlannerConfig())
    records = planner.run()
    assert records[-1].path == (dom.id_of("a"),)
    assert records[-1].cost == 0


def test_extract_path_three_node_chain():
    dom = chain_domain()
    planner = Planner(dom, PlannerConfig())
    records = planner.run()
    names = [dom.node_of(s) for s in records[-1].path]
    assert names == ["a", "b", "c"]


def test_extract_path_requires_reached_state():
    dom = chain_domain()
    planner = Planner(dom, PlannerConfig())
    planner.initialize()
    with pytest.raises(ValueError):
        planner.extract_path(dom.id_of("c"))


def test_published_path_edge_costs_sum_to_cost():
    dom = grid_domain(6, 6, (0, 0), (5, 3), walls=[(2, y) for y in range(5)])
    edges = grid_graph(6, 6, walls=[(2, y) for y in range(5)])
    planner = Planner(dom, PlannerConfig(w1=3.0, w2=2.0))
    for rec in planner.run():
        nodes = [dom.node_of(s) for s in rec.path]
        total = 0
        for u, v in zip(nodes, nodes[1:]):
            costs = [c for t, c in edges[u] if t == v]
            assert costs, f"{u}->{v} is not a domain edge"
            total += min(costs)
        assert total == rec.cost


@pytest.mark.parametrize("clock", ["wall", "virtual"])
def test_finished_planner_is_freed_without_the_cyclic_collector(clock):
    # A reference cycle through the planner (say, a bound method kept on it)
    # would hold every finished run's tables until the cyclic collector ran.
    gc.disable()
    try:
        domain = TilePuzzleDomain(random_solvable_board(3, 3, seed=5), draw_weights(2, 0))
        planner = Planner(domain, PlannerConfig(w1=3.0, w2=2.0, clock=clock,
                                                time_limit=60.0, record_expansions=True))
        assert planner.run()
        refs = [weakref.ref(planner), weakref.ref(domain)]
        del planner, domain
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
