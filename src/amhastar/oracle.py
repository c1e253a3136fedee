"""Brute-force reference searches used to check planner output.

Everything here is deliberately independent of the planner: plain heapq
Dijkstra and breadth-first enumeration, no shared queue or expansion code.
The lattice oracle is independent of `LatticeDomain` as well.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Optional, Sequence

from .domain import SearchDomain
from .grid import MotionPrimitive, OccupancyGrid, RobotFootprint, footprint_cell_mask

INF = math.inf
# Settled states after which uniform_cost_optimal and lattice_optimal give up,
# in every oracle run of the bench and of `amhastar verify`.
ORACLE_CAP = 2_000_000


def uniform_cost_optimal(domain: SearchDomain, state_cap: int = ORACLE_CAP) -> Optional[float]:
    """Optimal start-to-goal cost by Dijkstra with no heuristic.

    Returns +inf when the goal is unreachable and None when the settled-state
    cap is exceeded before the goal is proven (oracle unavailable).
    """
    start = domain.start()
    if domain.is_goal(start):
        return 0
    dist = {start: 0}
    done = set()
    heap = [(0, start)]
    while heap:
        d, s = heapq.heappop(heap)
        if s in done:
            continue
        if domain.is_goal(s):
            return d
        done.add(s)
        if len(done) > state_cap:
            return None
        for s2, c in domain.successors(s):
            nd = d + c
            if nd < dist.get(s2, INF):
                dist[s2] = nd
                heapq.heappush(heap, (nd, s2))
    return INF


def lattice_optimal(grid: OccupancyGrid, primitives: tuple[Sequence[MotionPrimitive], int],
                    footprint: RobotFootprint, start: tuple[int, int, int],
                    goal: tuple[int, int, Optional[int]],
                    state_cap: int = ORACLE_CAP) -> Optional[float]:
    """Optimal lattice cost by Dijkstra over `(x, y, heading)` poses, with no
    `LatticeDomain` code: what it shares with the domain is the collision
    definition (`footprint_cell_mask`) and the primitives.

    An edge is a primitive from its start heading whose every swept pose
    places the footprint on free cells by `grid.is_obstacle` (off the map is
    an obstacle); it costs `ceil(cost_milli * resolution)`. `goal` is a cell
    and a heading or None for any. Returns +inf when the goal is unreachable
    and None past `state_cap` settled poses, as `uniform_cost_optimal` does.
    """
    prims, num_headings = primitives
    res = grid.resolution
    masks = [footprint_cell_mask(footprint, res, num_headings, t) for t in range(num_headings)]
    by_heading = [[(p.poses, p.end, math.ceil(p.cost_milli * res))
                   for p in prims if p.theta_start == t] for t in range(num_headings)]
    free: dict[tuple[int, int, int], bool] = {}

    def pose_free(x: int, y: int, t: int) -> bool:
        if (x, y, t) not in free:
            free[x, y, t] = not any(grid.is_obstacle(x + dx, y + dy) for dx, dy in masks[t])
        return free[x, y, t]

    gx, gy, gt = goal
    dist = {start: 0}
    done = set()
    heap = [(0, start)]
    while heap:
        d, pose = heapq.heappop(heap)
        if pose in done:
            continue
        x, y, t = pose
        if (x, y) == (gx, gy) and gt in (None, t):
            return d
        done.add(pose)
        if len(done) > state_cap:
            return None
        for poses, (ex, ey, et), cost in by_heading[t]:
            if all(pose_free(x + px, y + py, pt) for px, py, pt in poses):
                nxt, nd = (x + ex, y + ey, et), d + cost
                if nd < dist.get(nxt, INF):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
    return INF


def tile_goal_distances(width: int, height: int) -> dict[bytes, int]:
    """Exact solve lengths for every reachable board of one puzzle size.

    One breadth-first sweep outward from the goal arrangement (moves are
    reversible, so distance from the goal equals distance to it). Feasible
    up to 3x3 / 2x4; the table is the exhaustive optimal-cost oracle for
    whole-instance suites, keyed by the packed tile bytes.
    """
    if width * height > 9:
        raise ValueError("exhaustive enumeration is intended for <= 9 cells")
    moves = []
    for i in range(width * height):
        r, c = divmod(i, width)
        around = []
        if r > 0:
            around.append(i - width)
        if r < height - 1:
            around.append(i + width)
        if c > 0:
            around.append(i - 1)
        if c < width - 1:
            around.append(i + 1)
        moves.append(tuple(around))
    goal = bytes(range(width * height))
    dist = {goal: 0}
    frontier = deque([(goal, 0)])
    while frontier:
        tiles, blank = frontier.popleft()
        d = dist[tiles]
        for j in moves[blank]:
            swapped = bytearray(tiles)
            swapped[blank], swapped[j] = swapped[j], swapped[blank]
            key = bytes(swapped)
            if key not in dist:
                dist[key] = d + 1
                frontier.append((key, j))
    return dist
