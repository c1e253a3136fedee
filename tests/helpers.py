"""Shared test code: an explicit graph domain, small grids as explicit
graphs, obstacles set on a map, the keys an open queue holds, the planner
run in lockstep with its specification, the reference field sweeps, closed
forms and breadth-first distances, tile moves on boards, and a
primitive-file writer."""
from __future__ import annotations

import heapq
import math
import warnings
from collections import deque
from dataclasses import astuple, replace
from typing import Hashable, Mapping, Optional, Sequence

from amhastar.domain import SearchDomain, StateInterner
from amhastar.grid import DIRS16, INF
from amhastar.planner import Planner, PlannerConfig
from amhastar.tiles import TileBoard, _blank_moves
from spec_amha import Spec

# The 8-connected grid steps, in the 16-heading fan's order.
DIRS8 = DIRS16[::2]


class ExplicitGraphDomain(SearchDomain):
    """A finite graph given as adjacency and per-state heuristic tables.

    `edges` maps node -> [(neighbor, cost), ...]; `heuristics` is one table
    per heuristic index (missing nodes default to 0). Goals may be a single
    node or a collection.
    """

    def __init__(
        self,
        edges: Mapping[Hashable, Sequence[tuple[Hashable, int]]],
        start: Hashable,
        goals,
        heuristics: Sequence[Mapping[Hashable, float]] = ({},),
    ) -> None:
        if not heuristics:
            raise ValueError("need at least the anchor heuristic table")
        self.num_inadmissible = len(heuristics) - 1
        self._interner = StateInterner()
        nodes = set(edges)
        for succs in edges.values():
            nodes.update(s for s, _ in succs)
        self._succ: dict[int, tuple[tuple[int, int], ...]] = {}
        goal_set = {goals} if isinstance(goals, (str, int, tuple)) else set(goals)
        nodes.add(start)
        nodes.update(goal_set)
        ordered = sorted(nodes, key=repr)
        ids = {node: self._interner.intern(node) for node in ordered}
        self._start = ids[start]
        self._goals = {ids[g] for g in goal_set}
        self._h = [
            {ids[node]: float(table.get(node, 0.0)) for node in ordered}
            for table in heuristics
        ]
        for node in ordered:
            self._succ[ids[node]] = tuple(
                (ids[s], int(c)) for s, c in edges.get(node, ())
            )

    def node_of(self, sid: int) -> Hashable:
        return self._interner.key_of(sid)

    def id_of(self, node: Hashable) -> int:
        return self._interner.intern(node)

    def start(self) -> int:
        return self._start

    def is_goal(self, sid: int) -> bool:
        return sid in self._goals

    def successors(self, sid: int):
        return self._succ.get(sid, ())

    def heuristic(self, sid: int, i: int) -> float:
        return self._h[i].get(sid, 0.0)


def grid_graph(width, height, walls=()):
    """4-connected unit-cost grid as an adjacency dict over (x, y) nodes."""
    blocked = set(walls)
    edges = {}
    for y in range(height):
        for x in range(width):
            if (x, y) in blocked:
                continue
            out = []
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height and (nx, ny) not in blocked:
                    out.append(((nx, ny), 1))
            edges[(x, y)] = out
    return edges


def grid_domain(width, height, start, goal, walls=(), n_inadmissible=1, inad_scale=3.0):
    """Euclidean-anchor grid domain; inadmissible heuristics scale manhattan."""
    edges = grid_graph(width, height, walls)
    gx, gy = goal
    anchor = {n: math.hypot(n[0] - gx, n[1] - gy) for n in edges}
    tables = [anchor]
    for i in range(n_inadmissible):
        scale = inad_scale + i
        tables.append({n: scale * (abs(n[0] - gx) + abs(n[1] - gy)) for n in edges})
    return ExplicitGraphDomain(edges, start, goal, heuristics=tables)


def set_obstacle(grid, x: int, y: int, value: bool = True) -> None:
    """Mark cell (x, y) of an `OccupancyGrid` blocked, or free with `value`
    False."""
    grid.cells[y * grid.width + x] = 1 if value else 0


def queue_keys(queue) -> dict[int, float]:
    """The key of each id an `AddressableHeap` holds, from its live entries."""
    return {sid: entry[0] for sid, entry in queue._live.items()}


def lockstep_difference(domain: SearchDomain, config: PlannerConfig) -> Optional[str]:
    """Run `config` over `domain` on the virtual clock with `Planner` and
    with the specification in `spec_amha`. None when both make the same
    expansions in every iteration, end with the same records and outcome,
    and leave the same keys in every queue (stale ones included), the same
    g, anchor-closed set and INCONS; otherwise the first of those that
    differs, with both values."""
    config = replace(config, clock="virtual", record_expansions=True)
    planner = Planner(domain, config)
    records = [astuple(rec) for rec in planner.run()]
    spec = Spec(domain, config.algo, config.w1, config.w2, config.dw1, config.dw2,
                config.time_limit, config.tick).run()
    for name, got, want in (
        ("expansion_log", planner.expansion_log, spec.expansion_log),
        ("records", records, spec.records),
        ("outcome", planner.outcome.value, spec.outcome),
        ("queues", [queue_keys(q) for q in planner.open_queues],
         [{sid: key for key, _, sid in q} for q in spec.open]),
        ("g", {sid: planner.g(sid) for sid in spec.g}, spec.g),
        ("closed_anchor", planner.closed_anchor, spec.closed_anchor),
        ("incons", planner.incons, spec.incons),
    ):
        if got != want:
            return f"{name}: planner {got!r}, spec {want!r}"
    return None


def reference_clearance_field(grid):
    """The bounds-tested multi-source clearance sweep over an unpadded grid,
    kept as the reference that `grid.clearance_field` must match float for
    float."""
    w, h, res = grid.width, grid.height, grid.resolution
    straight = res
    diagonal = res * math.sqrt(2)
    dist = [INF] * (w * h)
    heap = []
    for y in range(h):
        for x in range(w):
            idx = y * w + x
            if grid.cells[idx]:
                dist[idx] = 0.0
                heap.append((0.0, idx))
            elif x == 0 or y == 0 or x == w - 1 or y == h - 1:
                dist[idx] = straight
                heap.append((straight, idx))
    heapq.heapify(heap)
    while heap:
        d, idx = heapq.heappop(heap)
        if d > dist[idx]:
            continue
        x, y = idx % w, idx // w
        for dx, dy in DIRS8:
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h:
                nd = d + (diagonal if dx and dy else straight)
                nidx = ny * w + nx
                if nd < dist[nidx]:
                    dist[nidx] = nd
                    heapq.heappush(heap, (nd, nidx))
    return dist


def reference_dijkstra_field(grid, goal, block_radius, clearance):
    """The bounds-tested Dijkstra sweep over an unpadded grid, kept as the
    reference that `grid.dijkstra_field` must match float for float."""
    w, h, res = grid.width, grid.height, grid.resolution
    blocked = bytearray(w * h)
    for idx in range(w * h):
        if grid.cells[idx] or clearance[idx] <= block_radius:
            blocked[idx] = 1
    field = [INF] * (w * h)
    gx, gy = goal
    if not grid.in_bounds(gx, gy) or blocked[gy * w + gx]:
        warnings.warn(
            f"field goal {goal} blocked at radius {block_radius}; field is all-inf",
            stacklevel=2,
        )
        return field
    straight = 1000.0 * res
    diagonal = straight * math.sqrt(2)
    start_idx = gy * w + gx
    field[start_idx] = 0.0
    heap = [(0.0, start_idx)]
    while heap:
        d, idx = heapq.heappop(heap)
        if d > field[idx]:
            continue
        x, y = idx % w, idx // w
        for dx, dy in DIRS8:
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h:
                nidx = ny * w + nx
                if not blocked[nidx]:
                    nd = d + (diagonal if dx and dy else straight)
                    if nd < field[nidx]:
                        field[nidx] = nd
                        heapq.heappush(heap, (nd, nidx))
    return field


def reference_padded_sweep(blocked, sources, width, height, straight):
    """The binary-heap Dijkstra sweep over a padded mask (stride
    `width + 2`, one blocked cell around the map), kept as the reference
    that `grid._padded_sweep` must match float for float. `sources` are
    `(distance, padded index)` pairs; the list is not modified."""
    stride = width + 2
    diagonal = straight * math.sqrt(2)
    steps = [(dy * stride + dx, diagonal if dx and dy else straight) for dx, dy in DIRS8]
    field = [INF] * len(blocked)
    for d, idx in sources:
        field[idx] = d
    heap = list(sources)
    heapq.heapify(heap)
    while heap:
        d, idx = heapq.heappop(heap)
        if d > field[idx]:
            continue
        for off, step in steps:
            n = idx + off
            if not blocked[n]:
                nd = d + step
                if nd < field[n]:
                    field[n] = nd
                    heapq.heappush(heap, (nd, n))
    return [field[(y + 1) * stride + 1 + x] for y in range(height) for x in range(width)]


def octile_distance(dx, dy, straight, diagonal):
    """Closed-form shortest path length on an empty 8-connected grid."""
    dx, dy = abs(dx), abs(dy)
    lo, hi = min(dx, dy), max(dx, dy)
    return lo * diagonal + (hi - lo) * straight


def breadth_first_distances(neighbors, source, max_depth=None):
    """Unit-cost distances from a source over an implicit graph."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        s = queue.popleft()
        d = dist[s]
        if max_depth is not None and d >= max_depth:
            continue
        for s2 in neighbors(s):
            if s2 not in dist:
                dist[s2] = d + 1
                queue.append(s2)
    return dist


def tile_successors(board):
    """All one-move neighbors (blank swapped with an adjacent tile), cost 1."""
    tiles = board.tiles
    z = tiles.index(0)
    out = []
    for j in _blank_moves(board.width, board.height)[z]:
        lst = list(tiles)
        lst[z], lst[j] = lst[j], lst[z]
        out.append((TileBoard(board.width, board.height, tuple(lst)), 1))
    return out


def save_primitives(prims, num_headings, path):
    """Write primitives in the `.mprim` format that `grid.load_primitives` reads."""
    with open(path, "w") as fh:
        fh.write(f"headings {num_headings} cost_scale 1000\n")
        for p in prims:
            fields = [str(p.theta_start), str(p.theta_end), str(p.cost_milli), str(len(p.poses))]
            for x, y, t in p.poses:
                fields.extend((str(x), str(y), str(t)))
            fh.write(" ".join(fields) + "\n")
