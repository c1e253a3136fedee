"""Tile domain mechanics against brute-force recounts and exhaustive BFS."""
import itertools
import math
import random
import tracemalloc
from collections import deque

import pytest

from amhastar import Planner, PlannerConfig
from amhastar.tiles import (
    TileBoard,
    TilePuzzleDomain,
    _blank_moves,
    draw_weights,
    format_instance_line,
    goal_board,
    is_solvable,
    linear_conflict,
    load_instances,
    manhattan_distance,
    misplaced_tiles,
    parse_instance_line,
    random_solvable_board,
)

from helpers import tile_successors


def bfs_depths(start: TileBoard, max_depth=None):
    """Unit-cost distances from a board over the move graph (independent BFS)."""
    dist = {start.tiles: 0}
    frontier = deque([start])
    while frontier:
        b = frontier.popleft()
        d = dist[b.tiles]
        if max_depth is not None and d >= max_depth:
            continue
        for nb, _ in tile_successors(b):
            if nb.tiles not in dist:
                dist[nb.tiles] = d + 1
                frontier.append(nb)
    return dist


def naive_manhattan(board: TileBoard) -> int:
    """Per-tile recount written independently of the library version."""
    total = 0
    for tile in range(1, board.width * board.height):
        pos = board.tiles.index(tile)
        pr, pc = divmod(pos, board.width)
        gr, gc = divmod(tile, board.width)
        total += abs(pr - gr) + abs(pc - gc)
    return total


# -- board mechanics ------------------------------------------------------------


def test_board_validation():
    with pytest.raises(ValueError):
        TileBoard(3, 3, (0, 1, 2, 3, 4, 5, 6, 7, 7))
    with pytest.raises(ValueError):
        TileBoard(1, 4, (0, 1, 2, 3))


def test_corner_blank_has_two_successors():
    b = goal_board(3, 3)  # blank in the corner at index 0
    assert len(tile_successors(b)) == 2


def test_center_blank_has_four_successors():
    tiles = [1, 2, 3, 4, 0, 5, 6, 7, 8]
    b = TileBoard(3, 3, tuple(tiles))
    assert len(tile_successors(b)) == 4


def test_moves_are_involutions():
    b = random_solvable_board(3, 3, seed=2)
    for nb, _ in tile_successors(b):
        back = [x for x, _ in tile_successors(nb)]
        assert b in back


def test_successor_symmetry():
    rng = random.Random(4)
    for _ in range(20):
        b = random_solvable_board(3, 3, seed=rng.randrange(10**6))
        for nb, _ in tile_successors(b):
            assert b in [x for x, _ in tile_successors(nb)]


# -- heuristics -------------------------------------------------------------------


def test_manhattan_zero_on_goal():
    assert manhattan_distance(goal_board(3, 3)) == 0
    assert manhattan_distance(goal_board(4, 4)) == 0


def test_manhattan_one_after_single_swap():
    b, _ = tile_successors(goal_board(3, 3))[0]
    assert manhattan_distance(b) == 1


def test_manhattan_matches_naive_recount():
    rng = random.Random(77)
    for _ in range(50):
        b = random_solvable_board(3, 3, seed=rng.randrange(10**6))
        assert manhattan_distance(b) == naive_manhattan(b)


def test_linear_conflict_zero_on_goal():
    assert linear_conflict(goal_board(3, 3)) == 0


def test_linear_conflict_reversed_pair_counts_two():
    # Top row (2, 1, 3): tiles 1 and 2 both belong to row 0 and are reversed.
    b = TileBoard(3, 3, (2, 1, 3, 0, 4, 5, 6, 7, 8))
    assert linear_conflict(b) == 2


def test_anchor_admissible_within_six_moves_exhaustively():
    depths = bfs_depths(goal_board(3, 3), max_depth=6)
    for tiles, depth in depths.items():
        b = TileBoard(3, 3, tiles)
        assert manhattan_distance(b) + linear_conflict(b) <= depth, (
            f"inadmissible at {tiles}"
        )


def test_anchor_consistency_on_sampled_edges():
    rng = random.Random(99)
    for _ in range(30):
        b = random_solvable_board(3, 3, seed=rng.randrange(10**6))
        h = manhattan_distance(b) + linear_conflict(b)
        for nb, cost in tile_successors(b):
            nh = manhattan_distance(nb) + linear_conflict(nb)
            assert abs(h - nh) <= cost


def test_misplaced_tiles_cases():
    assert misplaced_tiles(goal_board(3, 3)) == 0
    one_swap, _ = tile_successors(goal_board(3, 3))[0]
    assert misplaced_tiles(one_swap) == 1
    rolled = TileBoard(2, 2, (1, 2, 3, 0))  # every tile off its goal cell
    assert misplaced_tiles(rolled) == 3


def test_weighted_heuristic_degenerate_cases():
    b = random_solvable_board(3, 3, seed=31)
    dom = TilePuzzleDomain(b, [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
    sid = dom.start()
    assert dom.heuristic(sid, 1) == dom.heuristic(sid, 0)
    goal_sid = dom._goal
    for i in range(3):
        assert dom.heuristic(goal_sid, i) == 0
    one_swap, _ = tile_successors(goal_board(3, 3))[0]
    dom2 = TilePuzzleDomain(one_swap, [(1.0, 1.0, 1.0)])
    assert dom2.heuristic(dom2.start(), 1) == 2  # mt=1, md=1, lc=0


def scratch_triple(board):
    return misplaced_tiles(board), manhattan_distance(board), linear_conflict(board)


def scratch_heuristics(dom, board):
    """All N+1 heuristic values recomputed from the board alone."""
    mt, md, lc = scratch_triple(board)
    return [md + lc] + [a * mt + b * md + c * lc for a, b, c in dom.weights]


@pytest.mark.parametrize("width,height", [(2, 2), (3, 3), (3, 4), (5, 2), (4, 4)])
def test_incremental_heuristics_match_scratch_along_random_walks(width, height):
    for seed in range(3):
        board = random_solvable_board(width, height, seed=seed)
        dom = TilePuzzleDomain(board, draw_weights(3, seed))
        # Start and goal are scored from scratch when asked about first.
        for sid, b in ((dom.start(), board), (dom._goal, goal_board(width, height))):
            for i, h in enumerate(scratch_heuristics(dom, b)):
                assert dom.heuristic(sid, i) == h
        rng = random.Random(seed)
        sid = dom.start()
        for _ in range(300):
            children = dom.successors(sid)
            for child, _ in children:
                b = dom.board_of(child)
                # Derived inside successors(), not on demand by heuristic().
                assert dom._h[child][-3:] == scratch_triple(b)
                for i, h in enumerate(scratch_heuristics(dom, b)):
                    assert dom.heuristic(child, i) == h
            sid = rng.choice(children)[0]


def bytearray_swap_children(tiles, width, height):
    """Each move's child: copy the board, store the tile and the blank, freeze."""
    z = tiles.index(0)
    out = []
    for j in _blank_moves(width, height)[z]:
        lst = bytearray(tiles)
        lst[z], lst[j] = tiles[j], 0
        out.append(bytes(lst))
    return out


@pytest.mark.parametrize("width,height", [(2, 2), (2, 3), (3, 3), (4, 4), (3, 5)])
def test_successor_boards_match_bytearray_swap(width, height):
    for seed in range(3):
        dom = TilePuzzleDomain(random_solvable_board(width, height, seed=seed), draw_weights(2, 0))
        rng = random.Random(seed)
        sid = dom.start()
        for _ in range(100):
            tiles = dom._interner.key_of(sid)
            children = dom.successors(sid)
            assert [dom._interner.key_of(c) for c, _ in children] == \
                bytearray_swap_children(tiles, width, height)
            sid = rng.choice(children)[0]


def test_start_that_is_the_goal_is_scored_once():
    dom = TilePuzzleDomain(goal_board(3, 3), draw_weights(1, 0))
    assert dom.start() == dom._goal == 0 and len(dom._h) == 1
    for child, _ in dom.successors(dom.start()):
        assert dom._h[child][-3:] == scratch_triple(dom.board_of(child))


def test_states_with_equal_triples_share_one_tuple():
    dom = TilePuzzleDomain(random_solvable_board(4, 4, seed=3001), draw_weights(3, 0))
    Planner(dom, PlannerConfig(algo="amha", w1=5.0, w2=2.0, clock="virtual",
                               tick=1.0, time_limit=2000)).run()
    by_triple = {}
    for sid in range(len(dom._h)):
        by_triple.setdefault(dom._h[sid][-3:], []).append(sid)
    assert len(by_triple) < len(dom._h) // 10
    for a, *rest in by_triple.values():
        for b in rest:
            assert dom._h[a] is dom._h[b]


def test_bytes_per_state_bounded():
    # Board 3001 generates 38,813 states in this run (19,986 expansions). With
    # one heuristic tuple per state, domain and planner held 530 bytes per
    # state; with shared tuples, 341.
    board = random_solvable_board(4, 4, seed=3001)
    tracemalloc.start()
    try:
        dom = TilePuzzleDomain(board, draw_weights(3, 3001))
        planner = Planner(dom, PlannerConfig(algo="amha", w1=5.0, w2=2.0, dw1=0.25,
                                             dw2=0.1, clock="virtual", tick=1.0,
                                             time_limit=20000))
        planner.run()
        held, _ = tracemalloc.get_traced_memory()  # the planner's tables included
    finally:
        tracemalloc.stop()
    assert len(dom._h) > 30000
    assert held / len(dom._h) <= 450


# -- solvability and generation ---------------------------------------------------


def test_same_seed_same_board():
    assert random_solvable_board(4, 4, seed=5) == random_solvable_board(4, 4, seed=5)


def test_parity_matches_exhaustive_reachability():
    # Every permutation of the 2x2 and 2x3 boards, checked against a full BFS
    # from the goal.
    for w, h in ((2, 2), (3, 2)):
        reachable = set(bfs_depths(goal_board(w, h)))
        for perm in itertools.permutations(range(w * h)):
            board = TileBoard(w, h, perm)
            assert is_solvable(board) == (perm in reachable), perm


def test_generated_boards_solve_to_goal():
    for seed in range(4):
        board = random_solvable_board(3, 3, seed=seed)
        dom = TilePuzzleDomain(board, draw_weights(1, seed))
        records = Planner(dom, PlannerConfig(algo="amha", w1=1.0, w2=1.0)).run()
        assert records and records[-1].bound == 1.0
        depths = bfs_depths(board)
        assert records[-1].cost == depths[goal_board(3, 3).tiles]


def test_unsolvable_board_rejected_by_domain():
    # Two non-blank tiles swapped relative to goal: parity criterion fails.
    bad = TileBoard(3, 3, (0, 2, 1, 3, 4, 5, 6, 7, 8))
    assert not is_solvable(bad)
    with pytest.raises(ValueError):
        TilePuzzleDomain(bad, ())


# -- weights and files ------------------------------------------------------------


@pytest.mark.parametrize("triple", [
    (1, 2), (1, 2, 3, 4), ("a", "b", "c"), (math.nan, 1, 1), (-1, 2, 3), (math.inf, 0, 0),
], ids=["two", "four", "letters", "nan", "negative", "inf"])
def test_domain_rejects_a_weight_triple_that_is_not_three_finite_numbers_at_least_0(triple):
    # Heuristics 1..N must be >= 0 for the bound, and inf * 0 is NaN at the goal.
    board = random_solvable_board(3, 3, seed=1)
    with pytest.raises(ValueError):
        TilePuzzleDomain(board, [triple])
    assert TilePuzzleDomain(board, [(0, 0, 0)]).weights == (
        (0.0, 0.0, 0.0),)


def test_draw_weights_deterministic_and_in_range():
    a = draw_weights(3, seed=9)
    b = draw_weights(3, seed=9)
    assert a == b
    assert all(0.0 <= x < 5.0 for triple in a for x in triple)


def test_instance_file_round_trip(tmp_path):
    boards = [random_solvable_board(3, 3, seed=s) for s in range(5)]
    path = tmp_path / "boards.txt"
    path.write_text("\n".join(format_instance_line(b) for b in boards) + "\n")
    assert load_instances(path) == boards


def test_a_board_holds_at_most_256_cells(tmp_path):
    # A state is one byte per cell.
    line = "17 16 " + " ".join(map(str, range(272)))
    message = "^board 17x16 has 272 cells: at most 256, one byte per tile$"
    with pytest.raises(ValueError, match=message):
        parse_instance_line(line)
    path = tmp_path / "boards.txt"
    path.write_text(format_instance_line(random_solvable_board(3, 3, seed=1)) + "\n" + line + "\n")
    with pytest.raises(ValueError, match=message.replace("^", "^line 2: ")):
        load_instances(path)
    largest = random_solvable_board(16, 16, seed=1)
    dom = TilePuzzleDomain(largest, draw_weights(2, 1))
    records = Planner(dom, PlannerConfig(algo="amha", w1=5.0, w2=2.0, clock="virtual", tick=1.0,
                                         time_limit=50)).run()
    assert dom.board_of(dom.start()) == largest and not records


def test_parse_instance_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_instance_line("3 3 0 1 2")
    with pytest.raises(ValueError):
        parse_instance_line("nonsense")
