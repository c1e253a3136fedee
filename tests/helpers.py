"""Shared test code: small grids as explicit graphs, the reference field
sweeps, closed forms and breadth-first distances, tile moves on boards, and
a primitive-file writer."""
from __future__ import annotations

import heapq
import math
import warnings
from collections import deque

from amhastar.explicit import ExplicitGraphDomain
from amhastar.grid import DIRS8, INF
from amhastar.tiles import TileBoard, _blank_moves


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
