"""Sliding-tile puzzle domain.

Boards are width x height permutations of 0..n-1 with 0 as the blank. The
goal convention is the identity arrangement: blank at index 0 and tile v at
cell v, so tile v's goal cell is just v. The anchor heuristic is Manhattan
distance plus linear conflict; the inadmissible heuristics are seeded-random
nonnegative combinations of misplaced tiles, Manhattan distance and linear
conflict.

The search domain maintains the three counts incrementally: one move shifts
one tile by one cell, so misplaced tiles and Manhattan distance change only by
that tile's old and new cell, and linear conflict only on the one row or
column the tile leaves or enters (Korf 1985; Hansson, Mayer & Yung 1992). The
from-scratch functions below (`misplaced_tiles`, `manhattan_distance`,
`linear_conflict`) score the start and the goal, and are the reference the
incremental values are tested against.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .domain import SearchDomain, StateInterner, _line_error


@dataclass(frozen=True)
class TileBoard:
    width: int
    height: int
    tiles: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError("board must be at least 2x2")
        n = self.width * self.height
        if n > 256:
            raise ValueError(f"board {self.width}x{self.height} has {n} cells: "
                             "at most 256, one byte per tile")
        if len(self.tiles) != n or sorted(self.tiles) != list(range(n)):
            raise ValueError("tiles must be a permutation of 0..n-1")

    @property
    def blank_index(self) -> int:
        return self.tiles.index(0)

    def is_goal(self) -> bool:
        return self.tiles == goal_board(self.width, self.height).tiles


@functools.lru_cache(maxsize=None)
def goal_board(width: int, height: int) -> TileBoard:
    return TileBoard(width, height, tuple(range(width * height)))


@functools.lru_cache(maxsize=None)
def _blank_moves(width: int, height: int) -> tuple[tuple[int, ...], ...]:
    """For each blank cell, the cells a tile can slide in from."""
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
    return tuple(moves)


@functools.lru_cache(maxsize=None)
def _move_effects(width: int, height: int) -> tuple:
    """For each blank cell, (j, effects) per cell j a tile can slide in from.

    effects[v] describes tile v sliding from j into the blank:
    (change in misplaced, change in Manhattan, line). line is None when the
    move leaves linear conflict unchanged; otherwise it is (cut, keep, drop)
    for the tile's goal row or column, which the tile leaves or enters:
    `tiles[cut].translate(keep, drop)` lists, in order, the goal offsets of
    the tiles in that line whose goal is in that line.
    """
    n = width * height
    goal_col = bytes(v % width for v in range(n)).ljust(256, b"\0")
    goal_row = bytes(v // width for v in range(n)).ljust(256, b"\0")
    rows = [
        (slice(r * width, (r + 1) * width), goal_col,
         bytes(v for v in range(n) if v == 0 or v // width != r))
        for r in range(height)
    ]
    cols = [
        (slice(c, None, width), goal_row,
         bytes(v for v in range(n) if v == 0 or v % width != c))
        for c in range(width)
    ]

    def dist(cell: int, v: int) -> int:
        return abs(cell // width - v // width) + abs(cell % width - v % width)

    table = []
    for z, around in enumerate(_blank_moves(width, height)):
        steps = []
        for j in around:
            effects = [(0, 0, None)]  # the blank itself never slides
            for v in range(1, n):
                if abs(z - j) == 1:  # the tile changes column; every row keeps its order
                    c = v % width
                    line = cols[c] if c in (j % width, z % width) else None
                else:
                    r = v // width
                    line = rows[r] if r in (j // width, z // width) else None
                effects.append(((v != z) - (v != j), dist(z, v) - dist(j, v), line))
            steps.append((j, tuple(effects)))
        table.append(tuple(steps))
    return tuple(table)


@functools.lru_cache(maxsize=None)
def _swap_tables(n: int) -> tuple[bytes, ...]:
    """For each tile v < n, the `bytes.translate` table that swaps the values 0 and v.

    A board is a permutation, so sliding tile v into the blank is exactly
    that swap.
    """
    tables = []
    for v in range(n):
        table = bytearray(range(256))
        table[0], table[v] = v, 0
        tables.append(bytes(table))
    return tuple(tables)


def manhattan_distance(board: TileBoard) -> int:
    w = board.width
    total = 0
    for idx, v in enumerate(board.tiles):
        if v:
            total += abs(idx // w - v // w) + abs(idx % w - v % w)
    return total


def misplaced_tiles(board: TileBoard) -> int:
    return sum(1 for idx, v in enumerate(board.tiles) if v and v != idx)


@functools.lru_cache(maxsize=None)
def _line_removals(goal_offsets: bytes) -> int:
    """Minimum tiles to drop from a line so the rest sit in goal order.

    Equals line length minus the longest strictly increasing subsequence of
    the goal offsets; keeping an increasing subsequence is exactly keeping a
    conflict-free set. The offsets are distinct and below the line length,
    so the cache holds at most 65 entries for a line of 4 and 109,601 for a
    line of 8; a longer line holds the offset sequences its boards meet.
    """
    best: list[int] = []
    for x in goal_offsets:
        lengths = [l for v, l in zip(goal_offsets, best) if v < x]
        best.append(max(lengths, default=0) + 1)
    return len(goal_offsets) - max(best, default=0)


def linear_conflict(board: TileBoard) -> int:
    """Twice the minimum number of tiles that must leave their goal line."""
    w, h = board.width, board.height
    tiles = board.tiles
    removals = 0
    for r in range(h):
        row = bytes(v % w for v in tiles[r * w:(r + 1) * w] if v and v // w == r)
        removals += _line_removals(row)
    for c in range(w):
        col = bytes(v // w for v in tiles[c::w] if v and v % w == c)
        removals += _line_removals(col)
    return 2 * removals


def is_solvable(board: TileBoard) -> bool:
    """Reachability of the goal arrangement.

    Each move transposes the blank with a tile, flipping both the permutation
    parity and the parity of the blank's taxicab distance to its goal corner;
    a board is reachable exactly when the two parities agree.
    """
    tiles = list(board.tiles)
    inversions = 0
    n = len(tiles)
    for i in range(n):
        for j in range(i + 1, n):
            if tiles[i] > tiles[j]:
                inversions += 1
    z = board.blank_index
    blank_taxicab = z // board.width + z % board.width
    return inversions % 2 == blank_taxicab % 2


def random_solvable_board(width: int, height: int, seed: int) -> TileBoard:
    """Uniform random permutation, parity-fixed by one non-blank transposition."""
    rng = random.Random(seed)
    tiles = list(range(width * height))
    rng.shuffle(tiles)
    board = TileBoard(width, height, tuple(tiles))
    if not is_solvable(board):
        i, j = [k for k in range(len(tiles)) if tiles[k] != 0][:2]
        tiles[i], tiles[j] = tiles[j], tiles[i]
        board = TileBoard(width, height, tuple(tiles))
    return board


def parse_instance_line(line: str) -> TileBoard:
    """`width height t0 t1 ...` with tiles in row-major order."""
    parts = line.split()
    if len(parts) < 6:
        raise ValueError(f"malformed tile instance line: {line!r}")
    try:
        w, h, *tiles = map(int, parts)
    except ValueError:
        raise ValueError(f"non-integer field in tile instance line {line!r}") from None
    if len(tiles) != w * h:
        raise ValueError(f"expected {w * h} tiles, got {len(tiles)}")
    return TileBoard(w, h, tuple(tiles))


def format_instance_line(board: TileBoard) -> str:
    return f"{board.width} {board.height} " + " ".join(str(v) for v in board.tiles)


def load_instances(path) -> list[TileBoard]:
    """One instance line per board; blank lines and `#` lines are skipped."""
    boards = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    boards.append(parse_instance_line(line))
                except ValueError as err:
                    raise _line_error(n, str(err)) from None
    return boards


def draw_weights(n: int, seed: int) -> tuple[tuple[float, float, float], ...]:
    """One (misplaced, manhattan, conflict) weight triple per inadmissible
    heuristic, each weight uniform in [0, 5)."""
    rng = random.Random(seed)
    return tuple((rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0))
                 for _ in range(n))


def weight_triples(weights) -> tuple[tuple[float, float, float], ...]:
    """The weight triples as floats. Each must be three finite numbers >= 0,
    so that every inadmissible heuristic is >= 0, and 0 at the goal."""
    triples = tuple(tuple(float(x) for x in t) for t in weights)
    for t in triples:
        if len(t) != 3 or not all(0 <= x < math.inf for x in t):
            raise ValueError(f"weight triple {t}: expected three finite numbers >= 0")
    return triples


class TilePuzzleDomain(SearchDomain):
    """Interned tile-puzzle search domain.

    Heuristic 0 is Manhattan + linear conflict. Heuristics 1..N are weighted
    sums of (misplaced, manhattan, conflict), one given weight triple of
    finite numbers >= 0 per heuristic (`draw_weights` draws them).

    Every state is scored once, when it is first interned: the start and the
    goal from scratch with the three reference functions, every other state
    by successors() from its parent's counts. Its heuristics are one tuple,
    the N+1 heuristic values followed by its (misplaced, manhattan, conflict)
    triple, held in a list indexed by state id. The tuple depends only on the
    triple, so states with equal triples share one tuple object.
    """

    def __init__(self, board: TileBoard, weights: Sequence[Sequence[float]]) -> None:
        if not is_solvable(board):
            raise ValueError("board is not solvable for the fixed goal arrangement")
        self.weights = weight_triples(weights)
        self.num_inadmissible = len(self.weights)
        self._interner = StateInterner()
        self._width = board.width
        self._height = board.height
        self._steps = _move_effects(board.width, board.height)
        self._swap = _swap_tables(board.width * board.height)
        self._entries: dict[tuple[int, int, int], tuple] = {}
        goal = goal_board(board.width, board.height)
        self._start = self._interner.intern(bytes(board.tiles))
        self._goal = self._interner.intern(bytes(goal.tiles))
        # The start is sid 0 and the goal sid 1, unless the start is the goal.
        self._h = [
            self._entry(misplaced_tiles(b), manhattan_distance(b), linear_conflict(b))
            for b in (board, goal)[:self._goal + 1]
        ]

    def board_of(self, sid: int) -> TileBoard:
        return TileBoard(self._width, self._height, tuple(self._interner.key_of(sid)))

    def start(self) -> int:
        return self._start

    def is_goal(self, sid: int) -> bool:
        return sid == self._goal

    def successors(self, sid: int) -> tuple[tuple[int, int], ...]:
        tiles = self._interner.key_of(sid)
        h = self._h
        mt, md, lc = h[sid][-3:]
        intern = self._interner.intern
        swap = self._swap
        out = []
        for j, effects in self._steps[tiles.index(0)]:
            v = tiles[j]
            child = tiles.translate(swap[v])
            csid = intern(child)
            if csid == len(h):
                dmt, dmd, line = effects[v]
                clc = lc
                if line is not None:
                    cut, keep, drop = line
                    clc += 2 * (_line_removals(child[cut].translate(keep, drop))
                                - _line_removals(tiles[cut].translate(keep, drop)))
                h.append(self._entry(mt + dmt, md + dmd, clc))
            out.append((csid, 1))
        return tuple(out)

    def heuristic(self, sid: int, i: int) -> float:
        return self._h[sid][i]

    def _entry(self, mt: int, md: int, lc: int) -> tuple:
        """The shared heuristic tuple of one (misplaced, manhattan, conflict) triple."""
        entry = self._entries.get((mt, md, lc))
        if entry is None:
            entry = (md + lc, *[a * mt + b * md + c * lc for a, b, c in self.weights],
                     mt, md, lc)
            self._entries[mt, md, lc] = entry
        return entry
