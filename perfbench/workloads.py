"""The benchmark's seeded workloads, each a list of `bench.RunManifest` queries.

The workload seed picks the inputs: the lattice map and its queries, the
8-puzzle boards (seed 0 gives the acceptance test's, from 1000), and the
order of the fixed 15-puzzle corpus (boards 3000-3099, the acceptance test's
20 among them).
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from amhastar.bench import RunManifest
from amhastar.domain import SearchDomain
from amhastar.oracle import tile_goal_distances, uniform_cost_optimal
from amhastar.tiles import format_instance_line, random_solvable_board

from perfbench import lattice

WHY = {
    "tiles15-budget": "100 random 15-puzzles, a fixed corpus in seeded order, at 5,000 "
                      "expansions each: cold per-state heuristic cache, tile heuristic "
                      "evaluation dominates",
    "tiles8-anytime": "200 random 8-puzzles run to proven optimal by amha and ara: many short "
                      "queries, warm heuristic cache, reconcile and heap rebuilds weigh more",
    "lattice-rooms256": "20 solvable far-apart queries on a generated 256x256 rooms map: no tiles "
                        "layer, domain build and collision-checked successors dominate",
}

# A fixed corpus, boards 3000-3099, whose order the seed shuffles. Drawn
# afresh per seed, even 80 boards put a 20% seed-to-seed spread on the median
# time to first solution, because first solutions are heavy-tailed (a median
# board needs about 530 expansions, one in 2,000 more than 5,000). In this
# corpus none needs more than 2,500, half the 5,000-expansion budget.
TILES15_BOARDS = 100
TILES8_BOARDS = 200
LATTICE_QUERIES = 20
LATTICE_CANDIDATES = 64
# Queries whose shortest route is a long detour can need more expansions than
# the budget allows before the first solution; keeping detours short makes
# every query publish, so the lattice timings are never of failed queries.
MAX_DETOUR = 1.6
FOOTPRINT = "rect:1.2x0.8"


class TimedManifest(RunManifest):
    """A RunManifest that notes when its domain build returns.

    run_from_manifest builds the domain and then searches; the note lets the
    benchmark split a query's wall time into build and search.
    """

    built_at = 0.0

    def build_domain(self) -> SearchDomain:
        domain = super().build_domain()
        self.built_at = time.perf_counter()
        return domain


@dataclass
class Query:
    qid: str
    manifest: TimedManifest
    optimal: Optional[float] = None


def make_inputs(name: str, seed: int, workdir: Path) -> list[Query]:
    """All candidate queries of a workload; for the lattice, also writes its map."""
    if name == "tiles15-budget":
        boards = list(range(3000, 3000 + TILES15_BOARDS))
        random.Random(f"tiles15-order-{seed}").shuffle(boards)
        queries = []
        for s in boards:
            queries.append(Query(f"b{s}", TimedManifest(
                algo="amha", domain="tiles", n_heur=3, seed=s,
                board=format_instance_line(random_solvable_board(4, 4, s)),
                w1=12.5, w2=2.0, dw1=5.75, dw2=0.5,
                time_limit=10.0, clock="virtual", tick=2e-3)))
        return queries
    if name == "tiles8-anytime":
        queries = []
        for k in range(TILES8_BOARDS):
            s = 1000 + TILES8_BOARDS * seed + k
            board = format_instance_line(random_solvable_board(3, 3, s))
            queries.append(Query(f"b{s}-amha", TimedManifest(
                algo="amha", domain="tiles", n_heur=2, seed=s, board=board,
                w1=5.0, w2=5.0, dw1=0.5, dw2=0.5, clock="virtual")))
            queries.append(Query(f"b{s}-ara", TimedManifest(
                algo="ara", domain="tiles", n_heur=2, seed=s, board=board,
                w1=25.0, dw1=2.5, clock="virtual")))
        return queries
    if name == "lattice-rooms256":
        grid = lattice.rooms_map(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        map_path = workdir / f"rooms256-{seed}.map"
        map_path.write_text(grid.to_text())
        pairs = lattice.sample_queries(grid, seed, LATTICE_CANDIDATES)
        return [
            Query(f"q{k}", TimedManifest(
                algo="amha", domain="grid", map=str(map_path), footprint=FOOTPRINT,
                start=" ".join(map(str, start)), goal=" ".join(map(str, goal)),
                w1=3.0, w2=2.0, dw1=0.5, dw2=0.25,
                time_limit=2.0, clock="virtual", tick=1e-4))
            for k, (start, goal) in enumerate(pairs)
        ]
    raise ValueError(f"unknown workload {name!r}")


def expected_costs(name: str, queries: list[Query]) -> dict[int, float]:
    """Optimal cost per query index, from the exhaustive oracles.

    Checker-only preparation. The lattice result doubles as the filter that
    keeps solvable queries: candidates are tried in order until
    LATTICE_QUERIES have an optimum within MAX_DETOUR of the straight-line
    distance, and only those are returned.
    """
    if name == "tiles15-budget":
        return {}
    if name == "tiles8-anytime":
        table = tile_goal_distances(3, 3)
        return {
            k: table[bytes(int(v) for v in q.manifest.board.split()[2:])]
            for k, q in enumerate(queries)
        }
    if name == "lattice-rooms256":
        domain = queries[0].manifest.build_domain()
        graph = lattice.PoseGraph(domain.grid, domain.primitives, domain.footprint,
                                  domain.num_headings)
        costs: dict[int, float] = {}
        for k, q in enumerate(queries):
            start = tuple(int(v) for v in q.manifest.start.split())
            goal = tuple(int(v) for v in q.manifest.goal.split())
            max_cost = MAX_DETOUR * math.dist(start[:2], goal) * lattice.CELL_COST
            query = lattice.QueryGraph(graph, start, goal, max_cost)
            optimal = uniform_cost_optimal(query)
            if optimal is None:
                raise RuntimeError(f"oracle state cap hit on lattice query {k}")
            optimal = query.real_cost(optimal)
            if optimal <= max_cost:
                costs[k] = optimal
                if len(costs) == LATTICE_QUERIES:
                    return costs
        raise RuntimeError(
            f"only {len(costs)} of {len(queries)} lattice candidates qualify")
    raise ValueError(f"unknown workload {name!r}")


def select(name: str, queries: list[Query], costs: dict[int, float]) -> list[Query]:
    """The queries the benchmark runs, with their optima attached."""
    if name == "lattice-rooms256":
        queries = [queries[k] for k in sorted(costs)]
        optima = [costs[k] for k in sorted(costs)]
    else:
        optima = [costs.get(k) for k in range(len(queries))]
    for q, optimal in zip(queries, optima):
        q.optimal = optimal
    return queries
