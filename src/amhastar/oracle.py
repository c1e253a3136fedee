"""Brute-force reference searches used to check planner output.

Everything here is deliberately independent of the planner: plain heapq
Dijkstra and breadth-first enumeration, no shared queue or expansion code.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Optional

from .domain import SearchDomain

INF = math.inf
# Settled states after which uniform_cost_optimal gives up, in every oracle run
# of the bench and of `amhastar verify`.
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
