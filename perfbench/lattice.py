"""Seeded rooms-and-clutter maps, lattice queries, and the oracle's pose graph."""
from __future__ import annotations

import math
import random

from amhastar.domain import SearchDomain
from amhastar.grid import OccupancyGrid, footprint_cell_mask

SIZE = 256
RESOLUTION = 0.25
WALL = 2             # wall thickness, cells
MIN_ROOM = 36        # no room side shorter than this, cells
DOOR = (16, 24)      # door width range, cells: 4-6 m, room for a forward-only 1.2 m robot to turn
CLUTTER = (4, 10)    # clutter block side range, cells (1-2.5 m)
CLUTTER_MARGIN = 10  # free band kept along walls so clutter never seals a door
OPEN_FLOOR = 6       # query ends have no obstacle within 1.5 m: turning room for a 1.2x0.8 m robot
HEADINGS = 16
CELL_COST = 1000 * RESOLUTION  # cost of a straight move one cell long, in the lattice's cost units


def rooms_map(seed: int) -> OccupancyGrid:
    """Recursive-split rooms joined by wide doors, plus coarse block clutter.

    Clutter comes in blocks of several cells because single-cell clutter at
    0.25 m would leave almost no passage a 1.2 x 0.8 m footprint can use.
    """
    rng = random.Random(seed)
    grid = OccupancyGrid.empty(SIZE, SIZE, RESOLUTION)
    rooms = []
    _split(grid, rng, 0, 0, SIZE, SIZE, rooms)
    for x0, y0, x1, y1 in rooms:
        area = (x1 - x0) * (y1 - y0)
        for _ in range(area // 450):
            bw, bh = rng.randint(*CLUTTER), rng.randint(*CLUTTER)
            lo_x, hi_x = x0 + CLUTTER_MARGIN, x1 - CLUTTER_MARGIN - bw
            lo_y, hi_y = y0 + CLUTTER_MARGIN, y1 - CLUTTER_MARGIN - bh
            if hi_x < lo_x or hi_y < lo_y:
                continue
            bx, by = rng.randint(lo_x, hi_x), rng.randint(lo_y, hi_y)
            _fill(grid, bx, by, bx + bw, by + bh)
    return grid


def _split(grid, rng, x0, y0, x1, y1, rooms) -> None:
    w, h = x1 - x0, y1 - y0
    can_v = w >= 2 * MIN_ROOM + WALL
    can_h = h >= 2 * MIN_ROOM + WALL
    if not (can_v or can_h) or (max(w, h) < 3 * MIN_ROOM and rng.random() < 0.3):
        rooms.append((x0, y0, x1, y1))
        return
    vertical = can_v and (not can_h or w > h or (w == h and rng.random() < 0.5))
    if vertical:
        cut = rng.randint(x0 + MIN_ROOM, x1 - MIN_ROOM - WALL)
        _fill(grid, cut, y0, cut + WALL, y1)
        _doors(grid, rng, y0, y1, lambda a, b: (cut, a, cut + WALL, b))
        _split(grid, rng, x0, y0, cut, y1, rooms)
        _split(grid, rng, cut + WALL, y0, x1, y1, rooms)
    else:
        cut = rng.randint(y0 + MIN_ROOM, y1 - MIN_ROOM - WALL)
        _fill(grid, x0, cut, x1, cut + WALL)
        _doors(grid, rng, x0, x1, lambda a, b: (a, cut, b, cut + WALL))
        _split(grid, rng, x0, y0, x1, cut, rooms)
        _split(grid, rng, x0, cut + WALL, x1, y1, rooms)


def _doors(grid, rng, lo, hi, rect) -> None:
    """One door per wall, two on long walls; doors open the full thickness."""
    for _ in range(1 if hi - lo < 96 else 2):
        width = min(rng.randint(*DOOR), hi - lo - 4)
        at = rng.randint(lo + 2, hi - width - 2)
        _fill(grid, *rect(at, at + width), value=0)


def _fill(grid, x0, y0, x1, y1, value=1) -> None:
    for y in range(y0, y1):
        grid.cells[y * grid.width + x0:y * grid.width + x1] = bytes([value]) * (x1 - x0)


def open_floor(grid: OccupancyGrid, x: int, y: int, radius: int) -> bool:
    """No obstacle (or map edge) within `radius` cells of cell (x, y)."""
    return all(
        not grid.is_obstacle(x + dx, y + dy)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if dx * dx + dy * dy <= radius * radius
    )


def sample_queries(grid: OccupancyGrid, seed: int, count: int):
    """`count` start poses and goal cells at least half the map apart.

    Both ends sit on open floor, where the forward-only robot has room to
    turn; whether the goal is reachable is left to the exhaustive oracle.
    """
    rng = random.Random(f"rooms-queries-{seed}")
    w, h = grid.width, grid.height
    free = [(x, y) for y in range(h) for x in range(w) if not grid.cells[y * w + x]]
    out = []
    while len(out) < count:
        sx, sy = rng.choice(free)
        st = rng.randrange(HEADINGS)
        gx, gy = rng.choice(free)
        if math.hypot(sx - gx, sy - gy) < w / 2:
            continue
        if open_floor(grid, sx, sy, OPEN_FLOOR) and open_floor(grid, gx, gy, OPEN_FLOOR):
            out.append(((sx, sy, st), (gx, gy)))
    return out


class PoseGraph:
    """Every pose's successors on one map, for the checker's oracle.

    Built from the lattice's public parts (its motion primitives, the
    footprint's cell masks, the map) with one whole-map shift-and-or per
    swept cell offset instead of per-pose collision checks, so it shares no
    collision code with LatticeDomain; a test checks that the two agree.
    """

    def __init__(self, grid: OccupancyGrid, primitives, footprint, num_headings: int) -> None:
        masks = [footprint_cell_mask(footprint, grid.resolution, num_headings, t)
                 for t in range(num_headings)]
        moves = []
        for p in primitives:
            swept = {(px + mx, py + my) for px, py, pt in p.poses for mx, my in masks[pt]}
            moves.append((p, math.ceil(p.cost_milli * grid.resolution), swept))
        pad = max(max(abs(ox), abs(oy)) for _, _, swept in moves for ox, oy in swept)
        w, h = grid.width, grid.height
        stride = w + 2 * pad
        blocked = bytearray(b"\x01") * (stride * (h + 2 * pad))
        for y in range(h):
            row = (y + pad) * stride + pad
            blocked[row:row + w] = grid.cells[y * w:(y + 1) * w]
        # One byte per cell: shifting by whole bytes moves the map by a cell
        # offset, and or-ing 0/1 bytes never carries into a neighbour.
        whole = int.from_bytes(blocked, "little")
        size = len(blocked)
        self.width, self.height, self.num_headings = w, h, num_headings
        self._pad, self._stride = pad, stride
        self._moves: list[list] = [[] for _ in range(num_headings)]
        for p, cost, swept in moves:
            hit = 0
            for ox, oy in swept:
                shift = 8 * (oy * stride + ox)
                hit |= whole >> shift if shift >= 0 else whole << -shift
            hit &= (1 << 8 * size) - 1
            ex, ey, et = p.end
            self._moves[p.theta_start].append((ex, ey, et, cost, hit.to_bytes(size, "little")))

    def successors(self, x: int, y: int, t: int) -> list:
        """((x, y, heading), cost) for every collision-free primitive from a pose."""
        i = (y + self._pad) * self._stride + x + self._pad
        w, h = self.width, self.height
        return [((x + ex, y + ey, et), cost) for ex, ey, et, cost, hit in self._moves[t]
                if not hit[i] and 0 <= x + ex < w and 0 <= y + ey < h]


class QueryGraph(SearchDomain):
    """One query on a PoseGraph, cut to the states a path within `max_cost` can visit.

    Edge costs are never below their chords (a test checks it), so a path
    through a state costs at least its straight-line distances to start and
    goal: states outside that ellipse are dropped, and the optimum found is
    exact whenever it is at most `max_cost`. Each edge (u, v) is reported at
    c - h(u) + h(v), h being the chord cost from a cell to the goal cell.
    For the same reason these costs are never negative, so a uniform-cost
    search over them is A* over the real costs and settles far fewer states;
    `real_cost` turns the distance it finds back into the path's cost.
    """

    def __init__(self, graph: PoseGraph, start: tuple, goal: tuple, max_cost: float) -> None:
        self._graph = graph
        w, h, n = graph.width, graph.height, graph.num_headings
        sx, sy, st = start
        gx, gy = goal
        reach = max_cost / CELL_COST
        self._inside = bytes(
            math.hypot(x - sx, y - sy) + math.hypot(x - gx, y - gy) <= reach
            for y in range(h) for x in range(w)
        )
        self._to_goal = [CELL_COST * math.hypot(x - gx, y - gy)
                         for y in range(h) for x in range(w)]
        self._start = (sy * w + sx) * n + st
        self._goal_cell = gy * w + gx

    def start(self) -> int:
        return self._start

    def is_goal(self, sid: int) -> bool:
        return sid // self._graph.num_headings == self._goal_cell

    def successors(self, sid: int):
        n, w = self._graph.num_headings, self._graph.width
        cell, t = divmod(sid, n)
        y, x = divmod(cell, w)
        inside, to_goal = self._inside, self._to_goal
        here = to_goal[cell]
        return [(c2 * n + nt, cost - here + to_goal[c2])
                for (nx, ny, nt), cost in self._graph.successors(x, y, t)
                if inside[c2 := ny * w + nx]]

    def heuristic(self, sid: int, i: int) -> float:
        return 0.0

    def real_cost(self, reduced: float) -> float:
        """A path's cost from its uniform-cost distance; inf stays inf."""
        if math.isinf(reduced):
            return reduced
        return round(reduced + self._to_goal[self._start // self._graph.num_headings])
