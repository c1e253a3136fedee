"""Reference-search behavior and the run verdict checks, including the
injected-fault cases."""
import math
from pathlib import Path

import pytest

from amhastar.grid import (BUILTIN_PRIMITIVES, LatticeDomain, OccupancyGrid, RobotFootprint,
                           load_primitives, load_scenarios)
from amhastar.oracle import lattice_optimal, tile_goal_distances, uniform_cost_optimal
from amhastar.planner import SolutionRecord
from amhastar.verify import verify_run

from helpers import ExplicitGraphDomain, breadth_first_distances, grid_domain, octile_distance


def record(cost, bound, t=0.0, expansions=0):
    return SolutionRecord(path=(), cost=cost, bound=bound, elapsed=t,
                          expansions_total=expansions)


def test_oracle_goal_equals_start():
    dom = ExplicitGraphDomain({"a": []}, "a", "a", heuristics=[{}])
    assert uniform_cost_optimal(dom) == 0


def test_oracle_one_move():
    dom = ExplicitGraphDomain({"a": [("b", 1)]}, "a", "b", heuristics=[{}])
    assert uniform_cost_optimal(dom) == 1


def test_oracle_empty_grid_corner_to_corner():
    assert uniform_cost_optimal(grid_domain(5, 5, (0, 0), (4, 4))) == 8


def test_oracle_unreachable_is_infinite():
    dom = ExplicitGraphDomain({"a": [("b", 1)]}, "a", "z", heuristics=[{}])
    assert uniform_cost_optimal(dom) == math.inf


def test_oracle_cap_marker():
    dom = grid_domain(20, 20, (0, 0), (19, 19))
    assert uniform_cost_optimal(dom, state_cap=10) is None


def _yard30():
    root = Path(__file__).resolve().parents[1]
    grid = OccupancyGrid.load(root / "src" / "amhastar" / "data" / "maps" / "yard30.map")
    return grid, load_primitives(BUILTIN_PRIMITIVES), load_scenarios(root / "configs" / "yard30.scen")


@pytest.mark.parametrize("goal_heading", (None, 0, 5))
def test_lattice_oracle_agrees_with_the_domain_oracle(goal_heading):
    # The pose-graph oracle and Dijkstra over the domain's own successors
    # find the same optimum on every yard scenario, with and without a goal
    # heading, though they share no successor or collision-map code; some
    # goal headings cannot be reached, and both say +inf there.
    grid, primitives, queries = _yard30()
    footprint = RobotFootprint(0.6, 0.4)
    optima = []
    for start, (gx, gy, _) in queries:
        goal = (gx, gy, goal_heading)
        dom = LatticeDomain(grid, start, goal, primitives=primitives, footprint=footprint)
        optima.append(lattice_optimal(grid, primitives, footprint, start, goal))
        assert optima[-1] == uniform_cost_optimal(dom) is not None
    assert any(optimal < math.inf for optimal in optima)


def test_lattice_oracle_unreachable_goal_start_goal_and_cap():
    grid, primitives, _ = _yard30()
    footprint = RobotFootprint(0.6, 0.4)
    assert lattice_optimal(grid, primitives, footprint, (3, 15, 0), (3, 15, None)) == 0
    walled = OccupancyGrid.parse("9 3 1\n....#....\n....#....\n....#....\n")
    tiny = RobotFootprint(0.1, 0.1)
    assert lattice_optimal(walled, primitives, tiny, (1, 1, 0), (7, 1, None)) == math.inf
    assert lattice_optimal(grid, primitives, footprint, (3, 15, 0), (26, 15, None),
                           state_cap=10) is None


def test_breadth_first_distances():
    def neighbors(n):
        return [n + 1, n + 2] if n < 10 else []

    dist = breadth_first_distances(neighbors, 0)
    assert dist[0] == 0 and dist[1] == 1 and dist[10] == 5


def test_octile_closed_form():
    assert octile_distance(3, 0, 1.0, math.sqrt(2)) == 3.0
    assert octile_distance(-2, 2, 1.0, math.sqrt(2)) == 2 * math.sqrt(2)
    assert octile_distance(5, 2, 10.0, 14.0) == 2 * 14.0 + 3 * 10.0


# -- verdicts -----------------------------------------------------------------


def test_exhaustive_tile_table_refuses_more_than_nine_cells():
    with pytest.raises(ValueError, match="^exhaustive enumeration is intended for <= 9 cells$"):
        tile_goal_distances(4, 4)


def test_verify_passes_clean_run():
    records = [record(12, 6.0), record(10, 2.0), record(8, 1.0)]
    log = [[(1, 1), (1, 0), (2, 0)], [(3, 2)], []]
    verdict = verify_run(records, oracle_cost=8, expansion_log=log)
    assert verdict.passed
    assert str(verdict) == "PASS"


def test_verify_flags_bound_violation():
    records = [record(8 * 6 + 1, 6.0)]  # cost = bound * optimal + 1
    verdict = verify_run(records, oracle_cost=8)
    assert not verdict.passed
    assert any(f.startswith("suboptimality-bound") for f in verdict.failures)


def test_verify_flags_a_cost_below_the_optimum():
    records = [record(9, 2.0), record(7, 1.0)]
    verdict = verify_run(records, oracle_cost=8)
    assert verdict.failures == ["suboptimality-bound: record 1 cost 7 is below optimal 8"]


def test_verify_flags_triple_expansion():
    records = [record(10, 2.0)]
    log = [[(5, 1), (5, 0), (5, 0)]]
    verdict = verify_run(records, oracle_cost=10, expansion_log=log)
    assert not verdict.passed
    assert any(f.startswith("expansion-limit") for f in verdict.failures)


def test_verify_flags_anchor_then_inadmissible_order():
    log = [[(5, 0), (5, 1)]]
    verdict = verify_run([record(10, 2.0)], oracle_cost=10, expansion_log=log)
    assert not verdict.passed
    assert any("out of order" in f for f in verdict.failures)


def test_verify_flags_cost_regression():
    records = [record(10, 6.0), record(11, 2.0)]
    verdict = verify_run(records, oracle_cost=10)
    assert not verdict.passed
    assert any(f.startswith("monotonicity") for f in verdict.failures)


def test_verify_flags_a_rising_bound_and_renders_fail():
    records = [record(10, 2.0), record(10, 3.0)]
    verdict = verify_run(records, oracle_cost=10)
    assert verdict.failures == ["monotonicity: bound increases at record 1"]
    assert str(verdict) == "FAIL\n  - monotonicity: bound increases at record 1"


def test_verify_skips_bound_check_without_oracle():
    records = [record(1000, 1.0)]
    assert verify_run(records, oracle_cost=None).passed


def test_reopening_modes_skip_only_the_expansion_limit():
    log = [[(5, 0), (5, 0)]]  # one state expanded twice from the anchor
    assert not verify_run([record(10, 2.0)], 10, log).passed
    for algo in ("amha", "mha", "ara"):
        assert not verify_run([record(10, 2.0)], 10, log, algo=algo).passed
    assert verify_run([record(10, 2.0)], 10, log, algo="wastar").passed
    over = verify_run([record(21, 2.0)], 10, log, algo="wastar")
    assert [f.split(":")[0] for f in over.failures] == ["suboptimality-bound"]
    rising = verify_run([record(10, 3.0), record(11, 2.0)], 10, log, algo="wastar")
    assert [f.split(":")[0] for f in rising.failures] == ["monotonicity"]


# -- published paths, replayed through the run's domain -------------------------


def path_domain():
    # a -> b twice (costs 2 and 1), b -> c (3), a -> c (9); the goal is c.
    edges = {"a": [("b", 2), ("b", 1), ("c", 9)], "b": [("c", 3)], "c": []}
    return ExplicitGraphDomain(edges, "a", "c", heuristics=[{}])


def path_record(dom, nodes, cost, bound=1.0):
    return SolutionRecord(path=tuple(dom.id_of(n) for n in nodes), cost=cost, bound=bound,
                          elapsed=0.0, expansions_total=0)


def test_verify_passes_paths_along_the_least_cost_edges():
    dom = path_domain()
    records = [path_record(dom, "ac", 9, bound=3.0), path_record(dom, "abc", 4)]
    assert verify_run(records, 4, domain=dom).passed


@pytest.mark.parametrize("nodes, cost, failure", [
    ("ab", 1, "path: record 0 does not end on a goal"),
    ("bc", 3, "path: record 0 does not start at the start state"),
    ("abc", 5, "path: record 0 cost 5 but its edges sum to 4"),
    ("abc", 3, "path: record 0 cost 3 but its edges sum to 4"),
    ("acb", 9, "path: record 0 step 1 is no edge from state 2 to 1"),
    ("", 0, "path: record 0 does not start at the start state"),
], ids=["short", "not-from-start", "cost-over", "cost-under", "no-edge", "empty"])
def test_verify_flags_a_path_that_the_domain_does_not_replay(nodes, cost, failure):
    dom = path_domain()
    records = [path_record(dom, nodes, cost)]
    verdict = verify_run(records, None, domain=dom)
    assert failure in verdict.failures, verdict.failures
    # Without the domain, no path is checked.
    assert verify_run(records, None).passed
