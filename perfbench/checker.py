"""Per-query output checks, run outside the timed region.

A query passes when every published record is a real start-to-goal path
made of legal moves, its cost is the sum of its edge costs, costs and bounds
never increase, each cost is within bound x optimal where the optimum is
known, and a converged query (bound 1) ends at the optimum.
"""
from __future__ import annotations

import functools
import math

from amhastar.grid import LatticeDomain, footprint_cell_mask
from amhastar.tiles import TilePuzzleDomain, parse_instance_line
from amhastar.verify import verify_run


def check_query(query, records, domain) -> list[str]:
    """Failure messages for one query's records; empty when it passes."""
    if not records:
        return ["no solution published"]
    domain = getattr(domain, "inner", domain)
    if isinstance(domain, TilePuzzleDomain):
        walk = _tile_walk
    elif isinstance(domain, LatticeDomain):
        walk = _lattice_walk
    else:
        raise TypeError(f"no checker for {type(domain).__name__}")
    failures = []
    for k, rec in enumerate(records):
        cost, problems = walk(query.manifest, domain, rec.path)
        failures += [f"record {k}: {p}" for p in problems]
        if not problems and rec.cost != cost:
            failures.append(f"record {k}: cost {rec.cost} but its edges sum to {cost}")
    failures += verify_run(records, query.optimal).failures
    last = records[-1]
    if query.optimal is not None and last.bound == 1.0 and last.cost != query.optimal:
        failures.append(f"converged at cost {last.cost}, optimum is {query.optimal}")
    return failures


def _tile_walk(manifest, domain: TilePuzzleDomain, path):
    """(edge cost sum, problems) for a tile path: unit-cost adjacent blank swaps."""
    boards = [domain.board_of(sid) for sid in path]
    problems = []
    if boards[0] != parse_instance_line(manifest.board):
        problems.append("path does not start at the start board")
    if not boards[-1].is_goal():
        problems.append("path does not end at the goal board")
    w = boards[0].width
    for k, (a, b) in enumerate(zip(boards, boards[1:])):
        moved = [i for i, (u, v) in enumerate(zip(a.tiles, b.tiles)) if u != v]
        if len(moved) != 2:
            problems.append(f"step {k} changes {len(moved)} cells")
            continue
        i, j = moved
        r_i, c_i = divmod(i, w)
        r_j, c_j = divmod(j, w)
        if (0 not in (a.tiles[i], a.tiles[j]) or a.tiles[i] != b.tiles[j]
                or abs(r_i - r_j) + abs(c_i - c_j) != 1):
            problems.append(f"step {k} is not an adjacent blank swap")
    return len(path) - 1, problems


def _lattice_walk(manifest, domain: LatticeDomain, path):
    """(edge cost sum, problems) for a lattice path: collision-free primitives."""
    problems = []
    start = tuple(int(v) for v in manifest.start.split())
    goal = tuple(int(v) for v in manifest.goal.split())
    if domain.pose_of(path[0]) != start:
        problems.append("path does not start at the start pose")
    if domain.pose_of(path[-1])[:len(goal)] != goal:
        problems.append("path does not end at the goal")
    masks = _footprint_masks(domain.footprint, domain.grid.resolution, domain.num_headings)
    cost = 0
    for k, (a, b) in enumerate(zip(path, path[1:])):
        prim = domain.primitive_between(a, b)
        if prim is None:
            problems.append(f"step {k} matches no motion primitive")
            continue
        x, y, _ = domain.pose_of(a)
        if any(domain.grid.is_obstacle(x + px + mx, y + py + my)
               for px, py, pt in prim.poses for mx, my in masks[pt]):
            problems.append(f"step {k} collides")
        cost += math.ceil(prim.cost_milli * domain.grid.resolution)
    return cost, problems


@functools.lru_cache(maxsize=8)
def _footprint_masks(footprint, resolution: float, num_headings: int):
    """Cells the footprint covers at each heading (as `grid.footprint_collides` checks)."""
    return [footprint_cell_mask(footprint, resolution, num_headings, t)
            for t in range(num_headings)]
