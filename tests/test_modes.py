"""Whole-run behavior: anytime schedules, baselines, and the guarantees."""
import heapq
import math
import random
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

import amhastar
from amhastar import Outcome, Planner, PlannerConfig
from amhastar.grid import LatticeDomain, OccupancyGrid, RobotFootprint, load_scenarios
from amhastar.oracle import tile_goal_distances, uniform_cost_optimal
from amhastar.planner import _scheduled_weight
from amhastar.tiles import (TilePuzzleDomain, draw_weights, manhattan_distance,
                            random_solvable_board)
from amhastar.verify import verify_run

from helpers import (ExplicitGraphDomain, grid_domain, grid_graph, lockstep_difference,
                     tile_successors)

INF = math.inf
MAPS = Path(amhastar.__file__).parent / "data" / "maps"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def reference_optimal_cost(board):
    """Independent plain A* over boards with the Manhattan heuristic."""
    counter = 0
    heap = [(manhattan_distance(board), counter, board, 0)]
    best = {board.tiles: 0}
    while heap:
        f, _, b, g = heapq.heappop(heap)
        if g > best.get(b.tiles, INF):
            continue
        if b.is_goal():
            return g
        for nb, c in tile_successors(b):
            ng = g + c
            if ng < best.get(nb.tiles, INF):
                best[nb.tiles] = ng
                counter += 1
                heapq.heappush(heap, (ng + manhattan_distance(nb), counter, nb, ng))
    return INF


def dijkstra_cost(edges, start, goal):
    dist = {start: 0}
    heap = [(0, repr(start), start)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if u == goal:
            return d
        if d > dist.get(u, INF):
            continue
        for v, c in edges.get(u, ()):
            if d + c < dist.get(v, INF):
                dist[v] = d + c
                heapq.heappush(heap, (d + c, repr(v), v))
    return INF


# -- amha ----------------------------------------------------------------------


def test_unit_weights_give_single_optimal_iteration():
    dom = grid_domain(5, 5, (0, 0), (4, 2), walls=[(2, 0), (2, 1), (2, 2)])
    optimal = dijkstra_cost(grid_graph(5, 5, walls=[(2, 0), (2, 1), (2, 2)]),
                            (0, 0), (4, 2))
    records = Planner(dom, PlannerConfig(algo="amha", w1=1.0, w2=1.0)).run()
    assert len(records) == 1
    assert records[0].cost == optimal
    assert records[0].bound == 1.0


def test_bound_schedule_3_2_with_unit_decrements():
    dom = grid_domain(6, 6, (0, 0), (5, 5))
    cfg = PlannerConfig(algo="amha", w1=3.0, w2=2.0, dw1=1.0, dw2=1.0)
    records = Planner(dom, cfg).run()
    assert [r.bound for r in records] == [6.0, 2.0, 1.0]


def test_decimal_weight_steps_do_not_drift():
    # Repeated float subtraction gives 1.3 - 0.1 - 0.1 == 1.0999999999999999
    # and 2.0 minus ten 0.1 steps 1.0999999999999992; tenths x / 10 are the
    # floats nearest the written decimals.
    dom = grid_domain(6, 6, (0, 0), (5, 5))
    for w1, expected in ((1.3, [13, 12, 11, 10]), (2.0, list(range(20, 9, -1)))):
        records = Planner(dom, PlannerConfig(algo="ara", w1=w1, dw1=0.1)).run()
        assert [r.bound for r in records] == [x / 10 for x in expected]
    cfg = PlannerConfig(algo="amha", w1=1.3, w2=1.3, dw1=0.1, dw2=0.1)
    records = Planner(dom, cfg).run()
    assert [r.bound for r in records] == [w * w for w in (1.3, 1.2, 1.1, 1.0)]


def test_accepted_weight_schedules_strictly_decrease_to_one():
    # Seeded weights over 20 decades, steps from the weight itself down to
    # 2**-56 of it, around the least step accepted (two ulps, ~2**-51 of it).
    rng = random.Random(2024)
    accepted = 0
    for _ in range(400):
        w = 10 ** rng.uniform(0, 20)
        dw = w * 2 ** -rng.uniform(0, 56)
        try:
            PlannerConfig(w1=w, w2=w, dw1=dw, dw2=dw)
        except ValueError as err:
            assert str(err).startswith("dw1 = ") and dw < 2 * math.ulp(w)
            continue
        accepted += 1
        steps = math.ceil((Decimal(repr(w)) - 1) / Decimal(repr(dw)))
        for ks in (range(min(steps, 100) + 1), range(max(steps - 100, 0), steps + 1)):
            weights = [_scheduled_weight(w, dw, k) for k in ks]
            assert all(a > b for a, b in zip(weights, weights[1:])), (w, dw)
        assert _scheduled_weight(w, dw, steps) == 1.0
    assert 300 < accepted < 400


def test_eight_puzzle_final_record_is_optimal():
    board = random_solvable_board(3, 3, seed=11)
    dom = TilePuzzleDomain(board, draw_weights(2, 11))
    records = Planner(dom, PlannerConfig(algo="amha", w1=3.0, w2=2.0)).run()
    assert records[-1].bound == 1.0
    assert records[-1].cost == reference_optimal_cost(board)


def test_records_published_even_when_cost_is_unchanged():
    dom = grid_domain(4, 4, (0, 0), (3, 3))
    records = Planner(dom, PlannerConfig(algo="amha", w1=2.0, w2=1.0, dw1=0.5)).run()
    assert [r.bound for r in records] == [2.0, 1.5, 1.0]
    assert all(a.cost >= b.cost for a, b in zip(records, records[1:]))


def test_no_solution_returns_empty_records():
    dom = ExplicitGraphDomain({"a": [("b", 1)], "b": []}, "a", "z", heuristics=[{}])
    planner = Planner(dom, PlannerConfig(w1=4.0, w2=4.0))
    assert planner.run() == []
    assert planner.outcome is Outcome.EXHAUSTED


# A huge finite weight overflows a key, or w2 times the anchor's min key, to
# +inf; with no goal reached yet, that is no proof that none is reachable.


def test_a_huge_finite_w2_publishes_and_converges():
    board = random_solvable_board(3, 3, seed=1)
    dom = TilePuzzleDomain(board, draw_weights(2, 1))
    planner = Planner(dom, PlannerConfig(w1=1.0, w2=1e307, dw2=1e307,
                                         clock="virtual"))
    records = planner.run()
    assert planner.outcome is Outcome.GOAL_BOUND_PROVEN
    assert [r.bound for r in records] == [1e307, 1.0]
    assert records[-1].cost == reference_optimal_cost(board) == 25


def test_a_huge_finite_w1_publishes_and_converges():
    walls = [(2, 0), (2, 1), (2, 2)]
    dom = grid_domain(5, 5, (0, 0), (4, 2), walls=walls)
    planner = Planner(dom, PlannerConfig(w1=1e308, dw1=1e308))
    records = planner.run()
    assert planner.outcome is Outcome.GOAL_BOUND_PROVEN
    assert [r.bound for r in records] == [1e308, 1.0]
    assert records[-1].cost == dijkstra_cost(grid_graph(5, 5, walls), (0, 0), (4, 2))


def test_an_empty_queue_yields_its_turn_to_the_anchor_at_an_overflowed_bound():
    # Queue 1 expands s, a and b; b improves a, which re-enters the anchor
    # only, and queue 1 is empty while w2 * key(a) is +inf.
    edges = {"s": [("a", 10), ("b", 1)], "a": [], "b": [("a", 1)]}
    dom = ExplicitGraphDomain(edges, "s", "z", heuristics=[
        {"s": 5, "a": 0, "b": 100}, {"s": 5, "a": 0, "b": 100}])
    planner = Planner(dom, PlannerConfig(w2=1e308, dw2=1e308, record_expansions=True))
    assert planner.run() == []
    assert planner.outcome is Outcome.EXHAUSTED
    s, a, b = map(dom.id_of, "sab")
    assert planner.expansion_log == [[(s, 1), (a, 1), (b, 1), (a, 0)]]


def test_time_budget_keeps_published_records():
    board = random_solvable_board(3, 3, seed=5)
    dom = TilePuzzleDomain(board, draw_weights(2, 5))
    planner = Planner(
        dom,
        PlannerConfig(w1=5.0, w2=5.0, dw1=0.25, dw2=0.25,
                      clock="virtual", tick=1e-3, time_limit=0.05),
    )
    records = planner.run()
    assert planner.outcome is Outcome.TIMED_OUT
    assert records, "the first solution should appear before the budget"
    # The final expansion and the publish instant each advance one tick past
    # the last budget check, so allow that much slack.
    assert all(r.elapsed <= 0.05 + 2e-3 for r in records)
    assert records[-1].bound > 1.0  # aborted before converging


# -- baselines -------------------------------------------------------------------


def test_ara_with_unit_weight_is_optimal():
    dom = grid_domain(5, 5, (0, 0), (4, 4))
    records = Planner(dom, PlannerConfig(algo="ara", w1=1.0)).run()
    assert len(records) == 1
    assert records[0].cost == 8


def test_ara_first_solution_within_initial_bound():
    board = random_solvable_board(3, 3, seed=3)
    dom = TilePuzzleDomain(board, [])
    optimal = reference_optimal_cost(board)
    records = Planner(dom, PlannerConfig(algo="ara", w1=3.0, dw1=1.0)).run()
    assert records[0].cost <= 3.0 * optimal
    assert records[0].bound == 3.0
    assert records[-1].cost == optimal


def test_greedy_weight_expands_less_than_unit_weight_on_empty_grid():
    first_solution_expansions = {}
    for w1 in (10.0, 1.0):
        records = Planner(grid_domain(5, 5, (0, 0), (4, 4)),
                          PlannerConfig(algo="ara", w1=w1, dw1=9.0)).run()
        first_solution_expansions[w1] = records[0].expansions_total
    assert first_solution_expansions[10.0] < first_solution_expansions[1.0]


def test_eight_puzzle_path_replays_through_moves():
    board = random_solvable_board(3, 3, seed=14)
    dom = TilePuzzleDomain(board, draw_weights(2, 14))
    cfg = PlannerConfig(algo="amha", w1=5.0, w2=5.0, dw1=2.0, dw2=2.0)
    records = Planner(dom, cfg).run()
    for rec in records:
        assert len(rec.path) - 1 == rec.cost  # unit edge costs
        for a, b in zip(rec.path, rec.path[1:]):
            assert b in [s for s, _ in dom.successors(a)]


def test_oneshot_equals_first_anytime_record():
    board = random_solvable_board(3, 3, seed=21)
    cfg, weights = PlannerConfig(w1=3.0, w2=2.0), draw_weights(2, 21)
    first = Planner(TilePuzzleDomain(board, weights), replace(cfg, algo="amha")).run()[0]
    only = Planner(TilePuzzleDomain(board, weights), replace(cfg, algo="mha")).run()
    assert len(only) == 1
    assert (only[0].cost, only[0].path, only[0].expansions_total) == (
        first.cost, first.path, first.expansions_total
    )


def test_oneshot_with_unit_weights_is_optimal():
    board = random_solvable_board(3, 3, seed=8)
    dom = TilePuzzleDomain(board, draw_weights(2, 8))
    records = Planner(dom, PlannerConfig(algo="mha", w1=1.0, w2=1.0)).run()
    assert records[0].cost == reference_optimal_cost(board)


def test_oneshot_publishes_exactly_one_record_with_flat_bound():
    board = random_solvable_board(3, 3, seed=9)
    dom = TilePuzzleDomain(board, draw_weights(2, 9))
    records = Planner(dom, PlannerConfig(algo="mha", w1=5.0, w2=5.0)).run()
    assert len(records) == 1
    assert records[0].bound == 25.0


def test_ara_at_w1_1_publishes_one_optimal_record():
    dom = grid_domain(5, 5, (0, 0), (4, 4))
    records = Planner(dom, PlannerConfig(algo="ara", w1=1.0, w2=9.0)).run()
    assert len(records) == 1
    assert records[0].bound == 1.0
    assert records[0].cost == 8


def test_ara_at_w1_1_is_optimal_on_the_yard30_scenarios():
    grid = OccupancyGrid.load(MAPS / "yard30.map")
    for start, goal in load_scenarios(CONFIGS / "yard30.scen"):
        dom = LatticeDomain(grid, start, goal, footprint=RobotFootprint(0.6, 0.4))
        records = Planner(dom, PlannerConfig(algo="ara", w1=1.0)).run()
        assert [r.bound for r in records] == [1.0]
        assert records[0].cost == uniform_cost_optimal(dom)


def test_ara_at_w1_1_is_optimal_on_8_puzzles():
    # The exhaustive table is the 8-puzzle oracle of `amhastar verify`; the
    # Dijkstra oracle takes about 0.4 s per board.
    optimal = tile_goal_distances(3, 3)
    for seed in range(20):
        board = random_solvable_board(3, 3, seed=seed)
        dom = TilePuzzleDomain(board, draw_weights(2, seed))
        records = Planner(dom, PlannerConfig(algo="ara", w1=1.0)).run()
        assert [r.bound for r in records] == [1.0]
        assert records[0].cost == optimal[bytes(board.tiles)]


def test_wastar_degeneracy_matches_multi_heuristic_run():
    # All inadmissible heuristics equal to the anchor and w2 = 1: published
    # cost must match weighted A* at the same w1.
    for seed in range(6):
        board = random_solvable_board(3, 3, seed=100 + seed)
        anchor_copy = [(0.0, 1.0, 1.0)] * 2  # md + lc, same as heuristic 0
        dom_mh = TilePuzzleDomain(board, anchor_copy)
        dom_wa = TilePuzzleDomain(board, [])
        cfg = PlannerConfig(w1=2.5, w2=1.0)
        mh = Planner(dom_mh, replace(cfg, algo="mha")).run()
        wa = Planner(dom_wa, replace(cfg, algo="wastar")).run()
        assert mh[0].cost == wa[0].cost


# -- guarantees -----------------------------------------------------------------


def test_invariants_hold_during_search():
    dom = grid_domain(7, 7, (0, 0), (6, 6), walls=[(3, y) for y in range(6)],
                      n_inadmissible=2)
    cfg = PlannerConfig(w1=3.0, w2=2.0, record_expansions=True)
    planner = Planner(dom, cfg)
    records = planner.run()
    optimal = dijkstra_cost(grid_graph(7, 7, walls=[(3, y) for y in range(6)]),
                            (0, 0), (6, 6))
    verdict = verify_run(records, optimal, planner.expansion_log)
    assert verdict.passed, verdict.failures
    # The spec keeps the queue invariants by construction.
    assert lockstep_difference(dom, cfg) is None


@pytest.mark.parametrize("seed", [77, 21])
def test_expansion_log_double_expansions_are_inadmissible_then_anchor(seed):
    board = random_solvable_board(3, 3, seed=seed)
    dom = TilePuzzleDomain(board, draw_weights(3, seed))
    planner = Planner(dom, PlannerConfig(w1=4.0, w2=3.0,
                                         record_expansions=True))
    planner.run()
    doubles = 0
    for log in planner.expansion_log:
        seen = {}
        for sid, qi in log:
            seen.setdefault(sid, []).append(qi)
        for qis in seen.values():
            assert len(qis) <= 2
            if len(qis) == 2:
                doubles += 1
                assert qis[0] >= 1 and qis[1] == 0
    # Some state is expanded twice, so the order check above ran.
    assert doubles >= 1
