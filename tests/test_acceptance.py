"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
as they print). The random-instance corpora are built once per session and
shared across the criteria that inspect them; every expected value comes
from an exhaustive reference search, never from the planner itself.
"""
import math
import random
import time
from dataclasses import dataclass, replace

import pytest

from amhastar import Planner, PlannerConfig
from amhastar.bench import RunManifest, curve_csv, run_from_manifest, run_matrix
from amhastar.grid import LatticeDomain, OccupancyGrid, RobotFootprint
from amhastar.oracle import tile_goal_distances, uniform_cost_optimal
from amhastar.planner import SolutionRecord
from amhastar.tiles import (
    TilePuzzleDomain,
    draw_weights,
    format_instance_line,
    linear_conflict,
    manhattan_distance,
    random_solvable_board,
    TileBoard,
)
from amhastar.verify import verify_run

WEIGHT_PAIRS = ((1, 1), (2, 1), (1, 2), (3, 2), (5, 5))
TINY = RobotFootprint(0.02, 0.02)


def ok(name):
    print(f"[ACCEPTANCE] {name}: PASS")


@dataclass
class Run:
    label: str
    w1: float
    w2: float
    records: list
    expansion_log: list
    optimal: float


# -- shared corpora ---------------------------------------------------------------


@pytest.fixture(scope="session")
def tile_table():
    return tile_goal_distances(3, 3)


@pytest.fixture(scope="session")
def tile_runs(tile_table):
    """200 anytime runs on random 3x3 boards, weight pairs cycling."""
    t0 = time.perf_counter()
    runs = []
    for k in range(200):
        seed = 1000 + k
        w1, w2 = WEIGHT_PAIRS[k % len(WEIGHT_PAIRS)]
        board = random_solvable_board(3, 3, seed=seed)
        domain = TilePuzzleDomain(board, draw_weights(2, seed))
        planner = Planner(
            domain, PlannerConfig(w1=w1, w2=w2, record_expansions=True)
        )
        records = planner.run()
        runs.append(
            Run(f"tile-{seed}", w1, w2, records, planner.expansion_log,
                tile_table[bytes(board.tiles)])
        )
    return runs, time.perf_counter() - t0


def random_grid_instance(seed, density=0.08):
    """Random 20x20 map and a provably solvable start/goal pair."""
    rng = random.Random(seed)
    for _ in range(80):
        grid = OccupancyGrid.empty(20, 20, 1.0)
        for idx in range(400):
            if rng.random() < density:
                grid.cells[idx] = 1
        free = [(x, y) for y in range(20) for x in range(20)
                if not grid.is_obstacle(x, y)]
        sx, sy = free[rng.randrange(len(free))]
        gx, gy = free[rng.randrange(len(free))]
        if (sx, sy) == (gx, gy):
            continue
        headings = list(range(16))
        rng.shuffle(headings)
        for st in headings[:4]:
            try:
                domain = LatticeDomain(grid, (sx, sy, st), (gx, gy), footprint=TINY)
            except ValueError:
                continue
            optimal = uniform_cost_optimal(domain)
            if optimal is not None and optimal != math.inf:
                return grid, (sx, sy, st), (gx, gy), optimal
    raise RuntimeError(f"no solvable instance for seed {seed}")


@pytest.fixture(scope="session")
def grid_runs():
    """100 anytime runs on random 20x20 lattices, weight pairs cycling."""
    t0 = time.perf_counter()
    runs = []
    for k in range(100):
        seed = 4000 + k
        w1, w2 = WEIGHT_PAIRS[k % len(WEIGHT_PAIRS)]
        grid, start, goal, optimal = random_grid_instance(seed)
        domain = LatticeDomain(grid, start, goal, footprint=TINY)
        planner = Planner(
            domain, PlannerConfig(w1=w1, w2=w2, record_expansions=True)
        )
        records = planner.run()
        runs.append(
            Run(f"grid-{seed}", w1, w2, records, planner.expansion_log, optimal)
        )
    return runs, time.perf_counter() - t0


# -- criteria ----------------------------------------------------------------------


def test_bounded_suboptimality(tile_runs, grid_runs):
    """Every published cost is at most bound * optimal, exactly."""
    tiles, t_tiles = tile_runs
    grids, t_grids = grid_runs
    assert len(tiles) >= 200 and len(grids) >= 100
    for run in tiles + grids:
        assert run.records, f"{run.label}: no solution published"
        for rec in run.records:
            assert rec.cost <= rec.bound * run.optimal, (
                f"{run.label}: cost {rec.cost} > {rec.bound} * {run.optimal}"
            )
    assert t_tiles + t_grids < 120, "corpus exceeded the two-minute budget"
    ok(f"bounded-suboptimality ({t_tiles + t_grids:.0f}s for both corpora)")


def test_expansion_bound(tile_runs, grid_runs):
    """Per iteration: no third expansions, doubles are inadmissible->anchor."""
    violations = []
    for run in tile_runs[0] + grid_runs[0]:
        verdict = verify_run(run.records, None, run.expansion_log)
        violations.extend(f"{run.label}: {f}" for f in verdict.failures
                          if f.startswith("expansion-limit"))
    assert not violations, violations[:5]
    ok("expansion-bound")


def test_convergence_to_optimal(tile_runs, grid_runs):
    for run in tile_runs[0] + grid_runs[0]:
        final = run.records[-1]
        assert final.bound == 1.0, f"{run.label} never reached unit weights"
        assert final.cost == run.optimal, (
            f"{run.label}: final cost {final.cost} != optimal {run.optimal}"
        )
    ok("convergence-to-optimal")


def test_anytime_monotonicity_and_improvement(tile_runs, grid_runs):
    for run in tile_runs[0] + grid_runs[0]:
        costs = [r.cost for r in run.records]
        bounds = [r.bound for r in run.records]
        assert all(a >= b for a, b in zip(costs, costs[1:])), run.label
        assert all(a >= b for a, b in zip(bounds, bounds[1:])), run.label
    eligible = [run for run in tile_runs[0]
                if run.w1 * run.w2 >= 4 and len(run.records) > 1]
    improved = [run for run in eligible
                if min(r.cost for r in run.records[1:]) < run.records[0].cost]
    rate = len(improved) / len(eligible)
    assert rate >= 0.30, f"only {rate:.0%} of eligible runs improved strictly"
    ok(f"anytime-monotonicity-and-improvement ({rate:.0%} improved)")


def test_oneshot_equivalence():
    """First anytime record is identical to the one-shot record."""
    for k in range(50):
        seed = 2000 + k
        board = random_solvable_board(3, 3, seed=seed)
        cfg = PlannerConfig(w1=3.0, w2=2.0)
        first = Planner(
            TilePuzzleDomain(board, draw_weights(2, seed)), cfg
        ).run()[0]
        oneshot = Planner(
            TilePuzzleDomain(board, draw_weights(2, seed)),
            replace(cfg, algo="mha"),
        ).run()
        assert len(oneshot) == 1
        only = oneshot[0]
        assert (only.cost, only.path, only.expansions_total) == (
            first.cost, first.path, first.expansions_total
        ), f"seed {seed}"
    ok("oneshot-equivalence")


def test_wastar_degeneracy():
    """Anchor-copy heuristics at w2 = 1 reproduce weighted A* costs."""
    for k in range(50):
        seed = 100 + k
        board = random_solvable_board(3, 3, seed=seed)
        anchor_copy = [(0.0, 1.0, 1.0)] * 2
        cfg = PlannerConfig(w1=2.5, w2=1.0)
        multi = Planner(
            TilePuzzleDomain(board, anchor_copy),
            replace(cfg, algo="mha"),
        ).run()
        plain = Planner(
            TilePuzzleDomain(board, []),
            replace(cfg, algo="wastar"),
        ).run()
        assert multi[0].cost == plain[0].cost, f"seed {seed}"
    ok("wastar-degeneracy")


def test_anchor_admissibility_and_consistency(tile_table):
    """Exhaustive MD+LC admissibility near the goal; per-edge metric
    consistency on all three shipped maps."""
    checked = 0
    for tiles, depth in tile_table.items():
        if depth <= 14:
            board = TileBoard(3, 3, tuple(tiles))
            h = manhattan_distance(board) + linear_conflict(board)
            assert h <= depth, f"inadmissible anchor at {tiles}"
            checked += 1
    assert checked == 4767  # boards within 14 moves, from the enumeration

    from pathlib import Path
    import amhastar

    maps_dir = Path(amhastar.__file__).parent / "data" / "maps"
    scenarios = {
        "open20.map": ((2, 2, 0), (15, 12), TINY),
        "rooms40.map": ((5, 16, 0), (35, 16), RobotFootprint(1.2, 0.8)),
        "yard30.map": ((3, 15, 0), (26, 15), RobotFootprint(0.6, 0.4)),
    }
    for name, (start, goal, footprint) in scenarios.items():
        grid = OccupancyGrid.load(maps_dir / name)
        domain = LatticeDomain(grid, start, goal, footprint=footprint)
        edges = 0
        for y in range(grid.height):
            for x in range(grid.width):
                for t in range(16):
                    sid = domain._intern(x, y, t)
                    h = domain.heuristic(sid, 0)
                    for nid, cost in domain.successors(sid):
                        assert h <= cost + domain.heuristic(nid, 0) + 1e-9, (
                            f"{name}: inconsistent edge at {(x, y, t)}"
                        )
                        edges += 1
        assert edges > 0
    ok(f"anchor-admissibility-and-consistency ({checked} boards)")


def test_first_solution_time_direction():
    """Desk-scale stand-in for the reported first-solution-time ordering:
    20 random 15-puzzles, 10 virtual seconds, product of initial weights 25.
    Fails only if the multi-heuristic planner is worse than the repairing
    baseline by more than 2x."""
    t_initial = {"amha": [], "ara": []}
    t_final = {"amha": [], "ara": []}
    for k in range(20):
        seed = 3000 + k
        board = random_solvable_board(4, 4, seed=seed)
        for algo in ("amha", "ara"):
            domain = TilePuzzleDomain(board, draw_weights(3, seed))
            if algo == "amha":
                cfg = PlannerConfig(w1=12.5, w2=2.0, dw1=5.75, dw2=0.5,
                                    algo="amha", clock="virtual", tick=2e-3,
                                    time_limit=10.0)
            else:
                cfg = PlannerConfig(w1=25.0, dw1=12.0, algo="ara",
                                    clock="virtual", tick=2e-3, time_limit=10.0)
            records = Planner(domain, cfg).run()
            if records:
                t_initial[algo].append(records[0].elapsed)
                t_final[algo].append(records[-1].elapsed)
    assert len(t_initial["amha"]) == len(t_initial["ara"]) == 20
    mean_amha = sum(t_initial["amha"]) / len(t_initial["amha"])
    mean_ara = sum(t_initial["ara"]) / len(t_initial["ara"])
    print(f"mean T_initial: amha {mean_amha:.3f}s ara {mean_ara:.3f}s "
          f"(ratio {mean_amha / mean_ara:.2f})")
    assert mean_amha <= 2 * mean_ara, (
        f"first solutions degraded beyond the allowed margin: "
        f"{mean_amha:.3f} vs {mean_ara:.3f}"
    )
    ok(f"first-solution-time-direction (ratio {mean_amha / mean_ara:.2f})")


def test_fault_injection_flags_violations():
    def record(cost, bound):
        return SolutionRecord(path=(), cost=cost, bound=bound, elapsed=0.0,
                              expansions_total=0)

    bound_breaker = verify_run([record(6 * 8 + 1, 6.0)], oracle_cost=8)
    assert not bound_breaker.passed
    assert any(f.startswith("suboptimality-bound") for f in bound_breaker.failures)

    triple = verify_run([record(8, 1.0)], oracle_cost=8,
                        expansion_log=[[(3, 1), (3, 0), (3, 0)]])
    assert not triple.passed
    assert any(f.startswith("expansion-limit") for f in triple.failures)
    ok("fault-injection")


def test_replay_determinism(tmp_path):
    manifest_text = RunManifest(
        algo="amha",
        domain="tiles",
        board=format_instance_line(random_solvable_board(3, 3, seed=42)),
        w1=5.0, w2=5.0, dw1=2.0, dw2=2.0,
        clock="virtual", tick=1e-4, time_limit=60.0, seed=42,
    ).to_text()
    curves = []
    for _ in range(2):
        manifest = RunManifest.from_text(manifest_text)
        records, _, _ = run_from_manifest(manifest)
        curves.append(curve_csv(records).encode())
    assert curves[0] == curves[1]

    boards = [format_instance_line(random_solvable_board(3, 3, seed=s)) for s in (42, 43)]
    (tmp_path / "boards.txt").write_text("\n".join(boards) + "\n")
    (tmp_path / "bench.cfg").write_text(
        "domain = tiles\nalgos = amha,ara,mha\ninstances = boards.txt\n"
        "w1 = 4\nw2 = 2\ndw1 = 1\ndw2 = 1\ntime_limit = 60\n"
        "clock = virtual\nseed = 0\nn_heur = 2\noracle = off\n"
    )
    out1 = run_matrix(tmp_path / "bench.cfg", tmp_path / "one")
    out2 = run_matrix(tmp_path / "bench.cfg", tmp_path / "two")
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    for curve in sorted((out1 / "curves").iterdir()):
        assert curve.read_bytes() == (out2 / "curves" / curve.name).read_bytes()
    ok("replay-determinism")
