"""Lattice (x, y, heading) navigation over occupancy grids.

Successors come from a table of motion primitives (short swept pose
sequences respecting a minimum turning radius) read from a `.mprim` file;
the builtin set is the shipped `data/primitives/unicycle16.mprim`, loaded
once per process. Collision checking places a rectangular footprint at
every swept pose. Edge costs are the primitive arc lengths in integer
milli-meters. The anchor heuristic is straight-line distance; three
inadmissible heuristics are backward 8-connected Dijkstra fields over the
plain grid and over the grid with narrow passages blocked at the
footprint's inscribed and circumscribed radii.

`LatticeDomain` reads collisions from collision maps, computed once per map
for every cell, as lattice planners precompute each primitive's swept cells
(Likhachev & Ferguson, IJRR 2009): per start heading and chunk of up to 8
of its primitives, one byte per cell whose bit k is set where the chunk's
k-th primitive sweeps an obstacle or leaves the map. `successors` looks the
byte up in a table of the free primitives' successors. It needs no bounds
test: every footprint mask holds its own cell, so the end cell is swept.
The heuristic fields are `array('d')` indexed by `sid // num_headings`.

What depends only on the map is cached per map content (width, height,
resolution and cells, not the grid object): per blocking radius, the
blocked-cell mask, padded by one blocked cell on every side; and, per set
of swept cells, the collision maps. A mask is the obstacles dilated by a
disc with the collision maps' shift-or, so no build sweeps a clearance
field. Each goal's Dijkstra fields are swept on that padded mask, so a
neighbour needs no bounds test; `clearance_field` sweeps the map framed by
its out-of-bounds ring as obstacle cells, so every sweep source sits at
distance 0. The grid has two step lengths, straight and diagonal, so the
sweep (`_padded_sweep`) keeps one FIFO per step length instead of a binary
heap, and cells pop in nondecreasing order. Each entry carries the step
that reached its cell, and a popped cell relaxes only the neighbours that
this step leaves open: three, plus a forced one beside each blocked
straight neighbour of a diagonal arrival. A skipped neighbour already
holds at most what it would be offered, so the fields are the heap
sweep's, float for float.
"""
from __future__ import annotations

import functools
import math
import re
import warnings
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Optional, Sequence

from .domain import SearchDomain, _line_error

INF = math.inf
_BLOCKED_RUN = re.compile(rb"[^\x00]+")
_NONZERO = b"\x00" + b"\x01" * 255

# 16-heading direction fan: ascending angles, integer displacements. Every
# second entry is the 8-heading fan, every fourth the 4-heading one.
DIRS16 = (
    (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
    (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1),
)


def heading_vector(num_headings: int, theta: int) -> tuple[int, int]:
    if num_headings not in (4, 8, 16):
        raise ValueError(f"unsupported heading count {num_headings}")
    return DIRS16[theta * (16 // num_headings)]


def heading_angle(num_headings: int, theta: int) -> float:
    dx, dy = heading_vector(num_headings, theta)
    return math.atan2(dy, dx)


# A map row's bytes, '.' and '#', as cell bytes 0 and 1, and back: any
# nonzero cell byte is an obstacle.
_MAP_CELLS = bytes.maketrans(b".#", b"\x00\x01")
_CELL_CHARS = b"." + b"#" * 255


class OccupancyGrid:
    """Rectangular cell grid; '.' free, '#' obstacle, out of bounds obstacle."""

    def __init__(self, width: int, height: int, resolution: float, cells: bytearray) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("grid dimensions must be positive")
        if not 0 < resolution < INF:
            raise ValueError("resolution must be positive and finite")
        if len(cells) != width * height:
            raise ValueError("cell buffer size mismatch")
        self.width = width
        self.height = height
        self.resolution = resolution
        self.cells = cells

    @classmethod
    def empty(cls, width: int, height: int, resolution: float = 1.0) -> "OccupancyGrid":
        return cls(width, height, resolution, bytearray(width * height))

    @classmethod
    def parse(cls, text: str) -> "OccupancyGrid":
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        n, header = lines[0] if lines else (1, "")
        try:
            w_s, h_s, res_s = header.split()
            w, h, res = int(w_s), int(h_s), float(res_s)
            if w <= 0 or h <= 0:
                raise ValueError
        except ValueError:
            raise _line_error(
                n, f"bad map header {header!r}: expected `width height resolution`"
            ) from None
        if not 0 < res < INF:
            raise _line_error(n, f"bad map header {header!r}: resolution must be positive "
                                 "and finite")
        if len(lines) != h + 1:
            # the last row read, or the first row past the declared height
            n = lines[min(len(lines) - 1, h + 1)][0]
            raise _line_error(n, f"expected {h} map rows, found {len(lines) - 1}")
        cells = bytearray(w * h)
        for y, (n, row) in enumerate(lines[1:]):
            if len(row) != w:
                raise _line_error(n, f"map row {y} has width {len(row)}, expected {w}")
            if row.count(".") + row.count("#") != w:
                ch = next(ch for ch in row if ch not in ".#")
                raise _line_error(n, f"unexpected map character {ch!r}")
            cells[y * w:(y + 1) * w] = row.encode().translate(_MAP_CELLS)
        return cls(w, h, res, cells)

    @classmethod
    def load(cls, path) -> "OccupancyGrid":
        with open(path) as fh:
            return cls.parse(fh.read())

    def to_text(self) -> str:
        res = self.resolution
        res_s = str(int(res)) if res == int(res) else repr(res)
        rows = [f"{self.width} {self.height} {res_s}"]
        w = self.width
        for y in range(self.height):
            rows.append(self.cells[y * w:(y + 1) * w].translate(_CELL_CHARS).decode())
        return "\n".join(rows) + "\n"

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_obstacle(self, x: int, y: int) -> bool:
        # `in_bounds` inline: workload generators call this per cell
        w = self.width
        if 0 <= x < w and 0 <= y < self.height:
            return bool(self.cells[y * w + x])
        return True


@dataclass(frozen=True)
class MotionPrimitive:
    """One feasible motion segment in cell units, relative to its start pose."""

    theta_start: int
    theta_end: int
    cost_milli: int
    poses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.cost_milli <= 0:
            raise ValueError("primitive cost must be positive")
        if not self.poses or self.poses[0] != (0, 0, self.theta_start):
            raise ValueError("primitive must start at (0, 0, theta_start)")
        if self.poses[-1][2] != self.theta_end:
            raise ValueError("primitive must end at theta_end")
        for (x0, y0, _), (x1, y1, _) in zip(self.poses, self.poses[1:]):
            if abs(x1 - x0) > 1 or abs(y1 - y0) > 1:
                raise ValueError("swept poses must advance at most one cell per step")

    @property
    def end(self) -> tuple[int, int, int]:
        return self.poses[-1]


@dataclass(frozen=True)
class RobotFootprint:
    """Rectangle centred on the robot's origin (meters): `length` along its
    heading, `width` across it."""

    length: float
    width: float

    def __post_init__(self) -> None:
        if not (0 < self.length < INF and 0 < self.width < INF):
            raise ValueError(f"footprint {self.length!r} x {self.width!r}: expected two "
                             "finite positive lengths in metres")

    @property
    def inscribed_radius(self) -> float:
        return min(self.length, self.width) / 2

    @property
    def circumscribed_radius(self) -> float:
        return math.hypot(self.length / 2, self.width / 2)

    def rotated(self, angle: float) -> tuple[tuple[float, float], ...]:
        """The four corners, counterclockwise, turned by `angle` radians."""
        c, s = math.cos(angle), math.sin(angle)
        hl, hw = self.length / 2, self.width / 2
        corners = ((-hl, -hw), (hl, -hw), (hl, hw), (-hl, hw))
        return tuple((c * x - s * y, s * x + c * y) for x, y in corners)


# The footprint of a LatticeDomain, or of a manifest, that names none.
DEFAULT_FOOTPRINT = RobotFootprint(1.2, 0.8)


def _segment_distance(px: float, py: float, a: tuple[float, float],
                      b: tuple[float, float]) -> float:
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _point_polygon_distance(px: float, py: float,
                            verts: Sequence[tuple[float, float]]) -> float:
    """0 inside a convex CCW polygon, else distance to its boundary."""
    n = len(verts)
    inside = True
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0:
            inside = False
            break
    if inside:
        return 0.0
    return min(_segment_distance(px, py, verts[i], verts[(i + 1) % n]) for i in range(n))


@functools.lru_cache(maxsize=256)
def footprint_cell_mask(
    footprint: RobotFootprint, resolution: float, num_headings: int, theta: int
) -> tuple[tuple[int, int], ...]:
    """Cell offsets a posed footprint overlaps.

    A cell counts as overlapped when its center lies within the rotated
    polygon dilated by half a cell diagonal (conservative by construction).
    """
    verts = footprint.rotated(heading_angle(num_headings, theta))
    margin = resolution * math.sqrt(2) / 2
    reach = max(math.hypot(x, y) for x, y in verts) + margin
    span = int(math.ceil(reach / resolution))
    mask = []
    for dy in range(-span, span + 1):
        for dx in range(-span, span + 1):
            if _point_polygon_distance(dx * resolution, dy * resolution, verts) <= margin:
                mask.append((dx, dy))
    return tuple(mask)


def footprint_collides(
    grid: OccupancyGrid,
    pose: tuple[int, int, int],
    footprint: RobotFootprint,
    num_headings: int = 16,
) -> bool:
    """True when any grid cell overlapping the posed footprint is an obstacle."""
    x, y, theta = pose
    for dx, dy in footprint_cell_mask(footprint, grid.resolution, num_headings, theta):
        if grid.is_obstacle(x + dx, y + dy):
            return True
    return False


# -- motion primitive files ----------------------------------------------------

BUILTIN_PRIMITIVES = Path(__file__).parent / "data" / "primitives" / "unicycle16.mprim"


@functools.lru_cache(maxsize=1)
def _builtin_primitives() -> tuple[tuple[MotionPrimitive, ...], int]:
    """The shipped set and its 16 headings, read once per process: per heading,
    1-cell and ~8-cell straights and left and right turns of radius >= 3 cells."""
    prims, num_headings = load_primitives(BUILTIN_PRIMITIVES)
    return tuple(prims), num_headings


def load_primitives(path) -> tuple[list[MotionPrimitive], int]:
    """Read a `.mprim` file: a `headings N cost_scale 1000` line, then one
    `theta_start theta_end cost_milli k` line per primitive followed by its
    k swept poses as `x y theta` triples."""
    with open(path) as fh:
        header = fh.readline().split()
        if (len(header) != 4 or header[0] != "headings" or header[2] != "cost_scale"
                or not header[1].isdigit() or not header[3].isdigit()):
            raise _line_error(1, f"bad primitive file header {' '.join(header)!r}: "
                                 "expected `headings N cost_scale 1000`")
        num_headings = int(header[1])
        if num_headings not in (4, 8, 16):
            raise _line_error(1, f"headings {num_headings}: expected 4, 8 or 16")
        if int(header[3]) != 1000:
            raise _line_error(1, "only cost_scale 1000 is supported")
        prims = []
        for n, line in enumerate(fh, 2):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) < 4:
                raise _line_error(n, f"primitive line has {len(parts)} fields, "
                                     "expected `theta_start theta_end cost_milli k` and poses")
            try:
                ts, te, cost, k, *vals = map(int, parts)
            except ValueError:
                raise _line_error(n, f"non-integer field in {line.strip()!r}") from None
            if len(vals) != 3 * k:
                raise _line_error(n, f"primitive line expects {3 * k} pose fields, "
                                     f"found {len(vals)}")
            for t in (ts, te, *vals[2::3]):
                if not 0 <= t < num_headings:
                    raise _line_error(n, f"primitive heading {t}: "
                                         f"expected 0 to {num_headings - 1}")
            poses = tuple((vals[3 * i], vals[3 * i + 1], vals[3 * i + 2]) for i in range(k))
            try:
                prims.append(MotionPrimitive(ts, te, cost, poses))
            except ValueError as err:
                raise _line_error(n, str(err)) from None
    return prims, num_headings


# -- heuristic fields ---------------------------------------------------------


def _padded(cells, width: int, height: int, pad: int) -> bytes:
    """A `width * height` map of cell bytes framed by `pad` obstacle cells
    on every side, as flat bytes with stride `width + 2 * pad`."""
    stride = width + 2 * pad
    out = bytearray(b"\x01") * (stride * (height + 2 * pad))
    for y in range(height):
        row = (y + pad) * stride + pad
        out[row:row + width] = cells[y * width:(y + 1) * width]
    return bytes(out)


def clearance_field(grid: OccupancyGrid) -> array:
    """Octile distance (meters) from each cell center to the nearest obstacle
    cell center, with the out-of-bounds ring counting as obstacles.

    One sweep from every obstacle of the map framed by that ring. A path
    that enters the map diagonally from a ring cell is never shorter than
    the straight step from the ring cell beside it, so an edge cell holds
    one straight step.
    """
    w, h = grid.width, grid.height
    framed = _padded(grid.cells, w, h, 1)
    fw, fh = w + 2, h + 2
    stride = fw + 2
    sources: list[int] = []
    for y in range(fh):
        row = (y + 1) * stride + 1
        sources += compress(range(row, row + fw), framed[y * fw:(y + 1) * fw])
    tables = _sweep_tables(_padded(bytes(len(framed)), fw, fh, 1), stride)
    field = _padded_sweep(tables, sources, fw, fh, grid.resolution)
    out = array("d")
    for row in range(fw + 1, (h + 1) * fw, fw):
        out += field[row:row + w]
    return out


@functools.lru_cache(maxsize=12)
def _blocked_mask(width: int, height: int, resolution: float, cells: bytes,
                  radius: float) -> tuple[bytes, array, bytes]:
    """The `_sweep_tables` of the cells whose `clearance_field` value is
    <= radius (obstacles read 0.0), padded by one blocked cell on every side.

    They are the obstacles, out-of-bounds cells included, dilated by a disc:
    the offsets whose value in one sweep from the centre of an empty probe
    is <= radius. `_collision_maps`' shift-or dilates, called around its
    cache so that masks evict no domain's collision maps.

    The dilation is exact. The clearance sweep enters no blocked cell, so by
    monotone rounding a cell's clearance is its least single-source value
    from an obstacle, and that value depends only on the offset: clamping a
    path into the box its ends span never raises its sum. Nor does clamping
    its end toward its start, so an out-of-bounds cell blocks nothing that
    the ring cell between it and the map does not.

    The probe reaches radius / resolution straight steps, plus one for
    rounding, but at most `(min(width, height) + 1) // 2 + 1`: every map
    cell is at most `(min(width, height) + 1) // 2` straight steps from the
    out-of-bounds ring, so wider offsets block nothing new.
    """
    half = int(min((min(width, height) + 1) // 2 + 1, radius / resolution + 1))
    side = 2 * half + 1
    tables = _sweep_tables(_padded(bytes(side * side), side, side, 1), side + 2)
    values = _padded_sweep(tables, [(half + 1) * (side + 3)], side, side, resolution)
    kernel = tuple((i % side - half, i // side - half)
                   for i in compress(range(side * side), map(radius.__ge__, values)))
    blocked = _collision_maps.__wrapped__(width, height, cells, ((kernel,),))[0][0]
    return _sweep_tables(_padded(blocked, width, height, 1), width + 2)


def dijkstra_field(
    grid: OccupancyGrid,
    goal: tuple[int, int],
    block_radius: float = 0.0,
) -> array:
    """Backward 8-connected cost-to-goal field in milli-meters.

    Cells whose obstacle clearance is <= block_radius are treated as blocked
    before the sweep; unreachable cells hold +inf; a negative or NaN
    block_radius is rejected. A blocked goal yields an all-inf field with a
    warning (callers fall back to the metric heuristic).

    The sweep runs on the map's cached padded mask (`_blocked_mask`).
    """
    if not block_radius >= 0:
        raise ValueError(f"block_radius = {block_radius!r}: expected >= 0")
    w, h, res = grid.width, grid.height, grid.resolution
    tables = _blocked_mask(w, h, res, bytes(grid.cells), float(block_radius))
    gx, gy = goal
    goal_idx = (gy + 1) * (w + 2) + gx + 1
    if not grid.in_bounds(gx, gy) or tables[0][goal_idx]:
        warnings.warn(
            f"field goal {goal} blocked at radius {block_radius}; field is all-inf",
            stacklevel=2,
        )
        return array("d", [INF]) * (w * h)
    return _padded_sweep(tables, [goal_idx], w, h, 1000.0 * res)


def _sweep_tables(mask: bytes, stride: int) -> tuple[bytes, array, bytes]:
    """A padded mask with this stride and what `_padded_sweep` reads of it:
    its blocked cells as flat `start, end` pairs, one per maximal run of
    nonzero bytes, and a byte per cell, nonzero where a straight neighbour
    is blocked."""
    runs = array("l", [i for run in _BLOCKED_RUN.finditer(mask) for i in run.span()])
    cells = int.from_bytes(mask.translate(_NONZERO), "little")
    walled = cells << 8 | cells >> 8 | cells << 8 * stride | cells >> 8 * stride
    return mask, runs, walled.to_bytes(len(mask) + stride, "little")


def _padded_sweep(tables: tuple[bytes, array, bytes], sources: list[int], width: int,
                  height: int, straight: float) -> array:
    """8-connected multi-source Dijkstra on a flat mask with stride
    `width + 2`, padded by one blocked cell on every side, given as its
    `_sweep_tables`.

    `sources` are padded indices of unblocked cells, all at distance 0;
    steps cost `straight` and `straight * sqrt(2)`, and no blocked cell is
    entered. Returns the unpadded `width * height` array, +inf where blocked
    or unreached.

    With two step lengths a heap is not needed (Orlin, Madduri, Subramani &
    Williamson, J. Discrete Algorithms 2010): one FIFO per step length. The
    sources relax their neighbours first, so each FIFO starts with one
    value, and each pop takes the lesser head. Pops therefore come out in
    nondecreasing order, each FIFO receives `fl(d + step)` of nondecreasing
    `d` and stays sorted, and a cell is final when it is first popped at its
    value. A straight entry is never stale: pushed at `fl(d + straight)`, it
    can be undercut only by a later offer, which comes from a pop at `d' >=
    d` and so is at least `fl(d + straight)`; rounding is monotone, and
    `diagonal > straight`. A diagonal entry can be undercut by a later
    straight offer; popped above its cell's value, it is skipped.

    Each FIFO entry carries the step that reached its cell, and a popped
    cell relaxes only the neighbours that this step leaves open, the
    canonical ordering of Harabor & Grastien (AAAI 2011) without jumps:
    - a source opens all eight;
    - a cell `c` reached by a straight step `u` opens `c+u` and `c+u±p`,
      where `p` is the perpendicular step;
    - a cell reached by a diagonal step `a+b` (`a` = ±1, `b` = ±stride)
      opens `c+a`, `c+b` and `c+a+b`, and the forced neighbours `c-a+b`
      where `c-a` is blocked and `c+a-b` where `c-b` is blocked.

    The fields are the full sweep's, float for float. By induction over the
    pops, once a cell is popped every unblocked neighbour holds at most its
    value plus the step between them. A neighbour that a cell skips is a
    neighbour of its parent, or of an unblocked `c-a` or `c-b`, and both
    were popped earlier at lower values. So it already holds at most the
    skipped candidate: the margins `2 * straight - diagonal` and `diagonal -
    straight` are far wider than rounding while distances stay below about
    2**50 steps.

    Blocked cells start at -1.0, below every distance, so a neighbour costs
    one compare and needs no bounds test. They are written from the mask's
    runs, and `walled` says which cells need the forced checks; they are
    reset to +inf before the rows are copied out of the padding.
    """
    mask, runs, walled = tables
    stride = width + 2
    diagonal = straight * math.sqrt(2)
    field = [INF] * len(mask)
    ends = iter(runs)
    for a, b in zip(ends, ends):
        field[a:b] = [-1.0] * (b - a)
    for idx in sources:
        field[idx] = 0.0
    # The steps that an arrival step leaves open: (u, u+p, u-p) after a
    # straight u; (a, b, a+b, b-a, a-b) after a diagonal a+b, the last two
    # forced.
    opens = {}
    for u, p in ((1, stride), (-1, stride), (stride, 1), (-stride, 1)):
        opens[u] = (u, u + p, u - p)
    for a in (1, -1):
        for b in (stride, -stride):
            opens[a + b] = (a, b, a + b, b - a, a - b)
    straights: deque = deque()
    diagonals: deque = deque()
    pop_s, pop_d = straights.popleft, diagonals.popleft
    push_s, push_d = straights.append, diagonals.append
    for u, step, push in ([(u, straight, push_s) for u in (1, -1, stride, -stride)] + [
            (u, diagonal, push_d) for u in (stride + 1, stride - 1, 1 - stride, -1 - stride)]):
        for idx in sources:
            n = idx + u
            if step < field[n]:
                field[n] = step
                push((step, n, u))
    while diagonals or straights:
        if diagonals and (not straights or diagonals[0][0] < straights[0][0]):
            d, idx, u = pop_d()
            if d > field[idx]:
                continue
            a, b, u, ba, ab = opens[u]
            nd = d + straight
            n = idx + a
            if nd < field[n]:
                field[n] = nd
                push_s((nd, n, a))
            n = idx + b
            if nd < field[n]:
                field[n] = nd
                push_s((nd, n, b))
            nd = d + diagonal
            n = idx + u
            if nd < field[n]:
                field[n] = nd
                push_d((nd, n, u))
            if walled[idx]:
                if field[idx - a] < 0.0:
                    n = idx + ba
                    if nd < field[n]:
                        field[n] = nd
                        push_d((nd, n, ba))
                if field[idx - b] < 0.0:
                    n = idx + ab
                    if nd < field[n]:
                        field[n] = nd
                        push_d((nd, n, ab))
        else:
            d, idx, u = pop_s()
            u, left, right = opens[u]
            n = idx + u
            nd = d + straight
            if nd < field[n]:
                field[n] = nd
                push_s((nd, n, u))
            nd = d + diagonal
            n = idx + left
            if nd < field[n]:
                field[n] = nd
                push_d((nd, n, left))
            n = idx + right
            if nd < field[n]:
                field[n] = nd
                push_d((nd, n, right))
    ends = iter(runs)
    for a, b in zip(ends, ends):
        field[a:b] = [INF] * (b - a)
    out = array("d")
    for row in range(stride + 1, (height + 1) * stride, stride):
        out.fromlist(field[row:row + width])
    return out


# -- the domain ----------------------------------------------------------------


def load_scenarios(path) -> list[tuple[tuple[int, int, int], tuple[int, int, Optional[int]]]]:
    """One query per line, `x y theta gx gy [gtheta]`: a start pose and a
    goal cell, the goal heading optional; `#` starts a comment."""
    queries = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            if len(parts) not in (5, 6):
                raise _line_error(n, f"scenario line has {len(parts)} fields, "
                                     "expected `x y theta gx gy [gtheta]`")
            try:
                x, y, t, gx, gy, *gt = map(int, parts)
            except ValueError:
                raise _line_error(n, f"non-integer field in {line.strip()!r}") from None
            queries.append(((x, y, t), (gx, gy, gt[0] if gt else None)))
    return queries


def _row_runs(offsets, stride: int) -> tuple[tuple[int, int], ...]:
    """Cell offsets `(dx, dy)` as half-open `(start, end)` ranges of flat
    offsets `dy * stride + dx`: maximal runs of consecutive `dx` in a row."""
    runs: list[list[int]] = []
    for flat in sorted({dy * stride + dx for dx, dy in offsets}):
        if runs and runs[-1][1] == flat:
            runs[-1][1] = flat + 1
        else:
            runs.append([flat, flat + 1])
    return tuple((a, b) for a, b in runs)


@functools.lru_cache(maxsize=4)
def _collision_maps(width: int, height: int, cells: bytes,
                    sweeps: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
                    ) -> tuple[tuple[bytes, ...], ...]:
    """Per start heading, per chunk of up to 8 of its primitives in order,
    `width * height` bytes whose bit k is set at every cell from which the
    chunk's k-th primitive sweeps an obstacle or leaves the map.

    `sweeps[t]` holds the swept cell offsets of heading t's primitives. The
    map, padded by the widest sweep with obstacle bytes, is read as one int
    with a byte per cell: shifting it by whole bytes moves the map by a cell
    offset, and or-ing 0/1 bytes never carries into a neighbour. A
    primitive's hits are the or of the map shifted by its swept offsets, one
    shift per row run, each run's or read from a doubling memo of spans.
    """
    pad = max((abs(v) for heading in sweeps for swept in heading
               for cell in swept for v in cell), default=0)
    stride = width + 2 * pad
    padded = _padded(cells, width, height, pad)
    size, origin = len(padded), pad * stride + pad
    spans = {1: int.from_bytes(padded, "little")}

    def span(n: int) -> int:
        """The or of the padded map shifted down by 0..n-1 cells."""
        if n not in spans:
            half = n // 2
            spans[n] = span(half) | span(n - half) >> 8 * half
        return spans[n]

    maps = []
    for heading in sweeps:
        chunks = []
        for first in range(0, len(heading), 8):
            hits = 0
            for k, swept in enumerate(heading[first:first + 8]):
                for a, b in _row_runs(swept, stride):
                    hits |= span(b - a) >> 8 * (origin + a) << k
            whole = hits.to_bytes(size, "little")
            chunks.append(b"".join(whole[y * stride:y * stride + width] for y in range(height)))
        maps.append(tuple(chunks))
    return tuple(maps)


class LatticeDomain(SearchDomain):
    """Motion-primitive navigation domain with a four-heuristic ensemble.

    Heuristic 0: euclidean distance to the goal cell, scaled to edge-cost
    units. Heuristics 1..3: Dijkstra cost-to-goal fields over the grid with
    passages blocked at radius 0 (zero-size robot), the footprint's inscribed
    radius and its circumscribed radius; +inf field cells fall back to the
    euclidean value (fallbacks are counted in `fallback_lookups`).

    Collision checks read the map's collision maps, computed once per map
    content and set of swept cells at construction: later changes to
    `grid.cells` are not seen. `successors` looks up, per chunk of up to 8
    of the heading's primitives, the cell's byte in a table of the free
    primitives' successors, in primitive order. `primitives` is the pair
    `load_primitives` returns, None the shipped set.
    """

    num_inadmissible = 3

    def __init__(
        self,
        grid: OccupancyGrid,
        start_pose: tuple[int, int, int],
        goal: tuple[int, int, Optional[int]] | tuple[int, int],
        primitives: Optional[tuple[Sequence[MotionPrimitive], int]] = None,
        footprint: RobotFootprint = DEFAULT_FOOTPRINT,
    ) -> None:
        self.grid = grid
        prims, num_headings = _builtin_primitives() if primitives is None else primitives
        self.num_headings = num_headings
        self.primitives = list(prims)
        if not self.primitives:
            raise ValueError("no motion primitives loaded")
        self.footprint = footprint
        reach = self.footprint.circumscribed_radius
        diagonal = math.hypot(grid.width, grid.height) * grid.resolution
        # The mask cell under the farthest vertex is then off the map at every pose.
        if reach > diagonal:
            raise ValueError(f"footprint reaches {reach:g} m from the pose, beyond the "
                             f"map diagonal of {diagonal:g} m: every pose collides")
        masks = [
            footprint_cell_mask(self.footprint, grid.resolution, num_headings, t)
            for t in range(num_headings)
        ]
        w, h = grid.width, grid.height
        sweeps: list[list] = [[] for _ in range(num_headings)]
        moves: list[list] = [[] for _ in range(num_headings)]
        for p in self.primitives:
            if not all(0 <= pt < num_headings for _, _, pt in p.poses):
                raise ValueError("primitive heading outside the configured fan")
            sweeps[p.theta_start].append(tuple(sorted(
                {(px + mx, py + my) for px, py, pt in p.poses for mx, my in masks[pt]})))
            ex, ey, et = p.end
            # the child's sid minus the sid of the parent's cell at heading 0
            moves[p.theta_start].append(((ey * w + ex) * num_headings + et,
                                         math.ceil(p.cost_milli * grid.resolution)))
        gx, gy = goal[0], goal[1]
        self.goal_cell = (gx, gy)
        self._goal_xy = gy * w + gx
        self.goal_theta: Optional[int] = goal[2] if len(goal) == 3 else None
        if not grid.in_bounds(gx, gy) or grid.is_obstacle(gx, gy):
            raise ValueError(f"goal cell {self.goal_cell} is out of bounds or an obstacle")
        if self.goal_theta is not None and not 0 <= self.goal_theta < num_headings:
            raise ValueError("goal heading outside the configured fan")
        sx, sy, st = start_pose
        if not (0 <= st < num_headings):
            raise ValueError("start heading outside the configured fan")
        if footprint_collides(grid, start_pose, self.footprint, num_headings):
            raise ValueError(f"start pose {start_pose} is in collision")
        radii = (0.0, self.footprint.inscribed_radius, self.footprint.circumscribed_radius)
        self.fields = [dijkstra_field(grid, self.goal_cell, r) for r in radii]
        maps = _collision_maps(w, h, bytes(grid.cells), tuple(map(tuple, sweeps)))
        # Per start heading: (collision map, successor table) per chunk; a
        # table's entry for a byte lists the chunk's moves whose bit is clear.
        self._moves = []
        for chunk_maps, heading_moves in zip(maps, moves):
            chunks = [heading_moves[i:i + 8] for i in range(0, len(heading_moves), 8)]
            self._moves.append([
                (hits, [tuple(m for k, m in enumerate(chunk) if not byte >> k & 1)
                        for byte in range(1 << len(chunk))])
                for hits, chunk in zip(chunk_maps, chunks)])
        self.fallback_lookups = 0
        self._w = w
        self._start_sid = self._intern(sx, sy, st)

    def _intern(self, x: int, y: int, t: int) -> int:
        # Arithmetic state id: a bijection, so re-interning is trivially stable.
        return (y * self._w + x) * self.num_headings + t

    def pose_of(self, sid: int) -> tuple[int, int, int]:
        t = sid % self.num_headings
        xy = sid // self.num_headings
        return (xy % self._w, xy // self._w, t)

    def start(self) -> int:
        return self._start_sid

    def is_goal(self, sid: int) -> bool:
        xy, t = divmod(sid, self.num_headings)
        return xy == self._goal_xy and (self.goal_theta is None or t == self.goal_theta)

    def successors(self, sid: int) -> tuple[tuple[int, int], ...]:
        xy, t = divmod(sid, self.num_headings)
        sid0 = sid - t
        return tuple([(sid0 + delta, cost) for hits, table in self._moves[t]
                      for delta, cost in table[hits[xy]]])

    def euclidean_h(self, sid: int) -> float:
        y, x = divmod(sid // self.num_headings, self._w)
        gx, gy = self.goal_cell
        return math.hypot(x - gx, y - gy) * self.grid.resolution * 1000.0

    def heuristic(self, sid: int, i: int) -> float:
        if i == 0:
            return self.euclidean_h(sid)
        value = self.fields[i - 1][sid // self.num_headings]
        if value == INF:
            self.fallback_lookups += 1
            return self.euclidean_h(sid)
        return value

    def primitive_between(self, sid_a: int, sid_b: int) -> Optional[MotionPrimitive]:
        """A loaded primitive realizing the edge a->b, if any (for replay checks)."""
        xa, ya, ta = self.pose_of(sid_a)
        xb, yb, tb = self.pose_of(sid_b)
        for prim in self.primitives:
            ex, ey, et = prim.end
            if prim.theta_start == ta and (xa + ex, ya + ey, et) == (xb, yb, tb):
                return prim
        return None
