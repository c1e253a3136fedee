"""Grid domain: maps, primitives, footprints, fields, and the full lattice."""
import functools
import math
import random
import re
import sys
import time
import warnings
from array import array
from collections import deque

import pytest

from amhastar import Planner, PlannerConfig
from amhastar import grid as grid_mod
from amhastar.grid import (
    DEFAULT_FOOTPRINT,
    DIRS16,
    LatticeDomain,
    MotionPrimitive,
    OccupancyGrid,
    RobotFootprint,
    clearance_field,
    dijkstra_field,
    footprint_cell_mask,
    footprint_collides,
    heading_angle,
    heading_vector,
    load_primitives,
    load_scenarios,
)
from amhastar.oracle import lattice_optimal, uniform_cost_optimal
from helpers import (octile_distance, reference_anchor_scale, reference_clearance_field,
                     reference_dijkstra_field, reference_padded_sweep, save_primitives,
                     set_obstacle)

INF = math.inf
SMALL = RobotFootprint(0.6, 0.4)


def shipped(name):
    from pathlib import Path
    import amhastar
    return Path(amhastar.__file__).parent / "data" / name


# -- occupancy grids -------------------------------------------------------------


def test_map_text_round_trip():
    g = OccupancyGrid.empty(5, 4, 0.5)
    set_obstacle(g, 2, 1)
    set_obstacle(g, 4, 3)
    again = OccupancyGrid.parse(g.to_text())
    assert (again.width, again.height, again.resolution) == (5, 4, 0.5)
    assert again.cells == g.cells
    rng = random.Random(5)
    g = OccupancyGrid.empty(37, 23, 0.25)
    for _ in range(300):
        set_obstacle(g, rng.randrange(37), rng.randrange(23))
    text = g.to_text()
    assert OccupancyGrid.parse(text).cells == g.cells
    assert text.splitlines()[1:] == [
        "".join(".#"[g.is_obstacle(x, y)] for x in range(37)) for y in range(23)]


@pytest.mark.parametrize("name", ["open20", "rooms40", "yard30"])
def test_shipped_map_text_round_trips_byte_for_byte(name):
    text = shipped(f"maps/{name}.map").read_text()
    assert OccupancyGrid.parse(text).to_text() == text


def test_map_parse_rejects_bad_rows():
    with pytest.raises(ValueError):
        OccupancyGrid.parse("3 2 1.0\n...\n..\n")
    with pytest.raises(ValueError):
        OccupancyGrid.parse("3 1 1.0\n.x.\n")


@pytest.mark.parametrize("text", ["", "4 4\n....\n", "4 four 1.0\n....\n"])
def test_map_parse_rejects_bad_header(text):
    header = text.splitlines()[0] if text else ""
    with pytest.raises(ValueError, match=re.escape(f"bad map header {header!r}")):
        OccupancyGrid.parse(text)


@pytest.mark.parametrize("res", ["0", "-1", "nan", "inf"])
def test_map_parse_rejects_bad_resolution(res):
    with pytest.raises(ValueError, match="resolution"):
        OccupancyGrid.parse(f"3 1 {res}\n...\n")


@pytest.mark.parametrize("args, match", [
    ((0, 3, 1.0, bytearray(0)), "grid dimensions must be positive"),
    ((3, -1, 1.0, bytearray(0)), "grid dimensions must be positive"),
    *[((3, 3, res, bytearray(9)), "resolution must be finite and at least 2.2250738585072014e-308")
      for res in (0.0, INF, math.nan)],
    ((3, 3, 1.0, bytearray(8)), "cell buffer size mismatch"),
    ((3, 3, 1e-320, bytearray(9)), "resolution must be finite and at least 2.2250738585072014e-308"),
])
def test_grid_constructor_rejects_bad_dimensions_resolution_and_buffer(args, match):
    with pytest.raises(ValueError, match=match):
        OccupancyGrid(*args)


def test_out_of_bounds_is_obstacle():
    g = OccupancyGrid.empty(3, 3)
    assert g.is_obstacle(-1, 0)
    assert g.is_obstacle(0, 3)
    assert not g.is_obstacle(1, 1)


@pytest.mark.parametrize("name", ["rooms40", "yard30"])
def test_is_obstacle_is_off_the_map_or_a_set_cell(name):
    g = OccupancyGrid.load(shipped(f"maps/{name}.map"))
    assert any(g.cells)
    for y in range(-1, g.height + 1):   # every cell and a one-cell ring around the map
        for x in range(-1, g.width + 1):
            expected = not g.in_bounds(x, y) or bool(g.cells[y * g.width + x])
            assert g.is_obstacle(x, y) is expected, (x, y)


# -- motion primitives ------------------------------------------------------------


def shipped_primitives():
    prims, headings = load_primitives(shipped("primitives/unicycle16.mprim"))
    assert headings == 16
    return prims


def test_default_set_has_four_primitives_per_heading():
    prims = shipped_primitives()
    assert len(prims) == 64
    for theta in range(16):
        assert sum(1 for p in prims if p.theta_start == theta) == 4


def test_primitive_sweeps_are_continuous():
    for p in shipped_primitives():
        for (x0, y0, _), (x1, y1, _) in zip(p.poses, p.poses[1:]):
            assert abs(x1 - x0) <= 1 and abs(y1 - y0) <= 1


def test_primitive_cost_covers_euclidean_chord():
    # Needed for the metric anchor heuristic to stay admissible.
    for p in shipped_primitives():
        ex, ey, _ = p.end
        assert p.cost_milli >= 1000 * math.hypot(ex, ey) - 1e-6


def test_turns_respect_minimum_radius():
    for p in shipped_primitives():
        if p.theta_start == p.theta_end:
            continue
        ex, ey, _ = p.end
        dphi = abs(
            math.remainder(
                heading_angle(16, p.theta_end) - heading_angle(16, p.theta_start),
                math.tau,
            )
        )
        radius = math.hypot(ex, ey) / (2 * math.sin(dphi / 2))
        assert radius >= 3.0


@pytest.mark.parametrize("num_headings", [4, 8])
def test_coarse_heading_fans_are_the_axes_and_diagonals_evenly_spaced(num_headings):
    for t in range(num_headings):
        assert max(map(abs, heading_vector(num_headings, t))) == 1
        assert heading_angle(num_headings, t) == pytest.approx(
            math.remainder(math.tau * t / num_headings, math.tau))
    with pytest.raises(ValueError, match="unsupported heading count 6"):
        heading_vector(6, 0)


def test_primitive_file_round_trip(tmp_path):
    prims = shipped_primitives()
    path = tmp_path / "set.mprim"
    save_primitives(prims, 16, path)
    again, headings = load_primitives(path)
    assert headings == 16
    assert again == prims


def test_default_lattice_uses_the_shipped_primitives():
    g = OccupancyGrid.empty(9, 9)
    dom = LatticeDomain(g, (4, 4, 0), (8, 4), footprint=SMALL)
    assert dom.primitives == shipped_primitives() and dom.num_headings == 16


@pytest.mark.parametrize("body, match", [
    ("headings 16\n", "line 1: bad primitive file header"),
    ("headings x cost_scale 1000\n", "line 1: bad primitive file header"),
    ("headings 16 cost_scale 500\n", "line 1: only cost_scale 1000"),
    ("headings 16 cost_scale 1000\n0 1\n", "line 2: primitive line has 2 fields"),
    ("headings 16 cost_scale 1000\n# ok\n\n0 0 1000 x\n", "line 4: non-integer field"),
    ("headings 16 cost_scale 1000\n0 0 1000 2 0 0 0\n", "line 2: .* expects 6 pose fields, found 3"),
    ("headings 16 cost_scale 1000\n0 0 1000 1 1 0 0\n", "line 2: primitive must start"),
], ids=["short-header", "non-numeric-header", "cost-scale", "short-line", "non-number",
        "pose-count", "bad-primitive"])
def test_primitive_file_errors_name_the_line(tmp_path, body, match):
    path = tmp_path / "bad.mprim"
    path.write_text(body)
    with pytest.raises(ValueError, match=match):
        load_primitives(path)


@pytest.mark.parametrize("text, match", [
    ("\n3 1 1.0\n..\n", "line 3: map row 0 has width 2"),
    ("3 2 1.0\n...\n.x.\n", "line 3: unexpected map character 'x'"),
    ("\n\n4 4\n....\n", "line 3: bad map header"),
    *[(f"4 3 {res}\n", rf"^line 1: bad map header '4 3 {res}': resolution must be finite "
                       r"and at least 2\.2250738585072014e-308$")
      for res in ("0", "-0.5", "nan", "inf", "1e-320")],
], ids=["row-width", "bad-character", "header-after-blank-lines", "resolution-0",
        "resolution-negative", "resolution-nan", "resolution-inf", "resolution-subnormal"])
def test_map_parse_errors_name_the_line(text, match):
    with pytest.raises(ValueError, match=match):
        OccupancyGrid.parse(text)


def test_primitive_validation():
    with pytest.raises(ValueError):
        MotionPrimitive(0, 0, 0, ((0, 0, 0),))
    with pytest.raises(ValueError):
        MotionPrimitive(0, 0, 1000, ((0, 0, 0), (2, 0, 0)))  # gap in sweep
    with pytest.raises(ValueError):
        MotionPrimitive(0, 1, 1000, ((0, 0, 0), (1, 0, 0)))  # wrong end heading


# -- footprints -------------------------------------------------------------------


def test_rectangle_radii():
    fp = RobotFootprint(1.2, 0.8)
    assert fp.inscribed_radius == pytest.approx(0.4)
    assert fp.circumscribed_radius == pytest.approx(math.hypot(0.6, 0.4))


def test_footprint_size_must_be_finite_and_positive():
    for length, width in ((0.0, 1.0), (1.0, -0.5), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="expected two finite positive lengths in metres$"):
            RobotFootprint(length, width)


def test_mask_includes_pose_cell():
    for theta in range(16):
        assert (0, 0) in footprint_cell_mask(SMALL, 1.0, 16, theta)


def test_collision_trivial_cases():
    g = OccupancyGrid.empty(9, 9)
    tiny = RobotFootprint(0.02, 0.02)
    assert not footprint_collides(g, (4, 4, 0), tiny)
    set_obstacle(g, 4, 4)
    assert footprint_collides(g, (4, 4, 0), RobotFootprint(1.0, 1.0))


def test_square_rotated_quarter_turn_has_same_mask():
    square = RobotFootprint(0.9, 0.9)
    up = 4  # DIRS16[4] == (0, 1): a quarter turn
    assert DIRS16[up] == (0, 1)
    assert set(footprint_cell_mask(square, 1.0, 16, 0)) == set(
        footprint_cell_mask(square, 1.0, 16, up)
    )


def test_mask_agrees_with_dense_rasterization():
    # Oracle: distance from cell center to the polygon approximated by
    # sampling the footprint area at a 10x finer resolution.
    square = RobotFootprint(0.9, 0.9)
    res = 1.0
    margin = res * math.sqrt(2) / 2
    samples = []
    step = res / 10
    k = int(0.45 / step) + 1
    for i in range(-k, k + 1):
        for j in range(-k, k + 1):
            x, y = i * step, j * step
            if abs(x) <= 0.45 and abs(y) <= 0.45:
                samples.append((x, y))
    mask = set(footprint_cell_mask(square, res, 16, 0))
    for dx in range(-2, 3):
        for dy in range(-2, 3):
            dist = min(math.hypot(dx * res - x, dy * res - y) for x, y in samples)
            assert ((dx, dy) in mask) == (dist <= margin + 1e-9), (dx, dy, dist)


# -- heuristic fields --------------------------------------------------------------


def test_field_zero_at_goal():
    g = OccupancyGrid.empty(8, 8)
    field = dijkstra_field(g, (3, 4))
    assert field[4 * 8 + 3] == 0.0


def test_field_matches_octile_closed_form_on_empty_grid():
    g = OccupancyGrid.empty(12, 10, 0.5)
    goal = (7, 4)
    field = dijkstra_field(g, goal, 0.0)
    straight = 1000.0 * 0.5
    diagonal = straight * math.sqrt(2)
    for y in range(10):
        for x in range(12):
            expect = octile_distance(x - goal[0], y - goal[1], straight, diagonal)
            assert field[y * 12 + x] == pytest.approx(expect, rel=1e-9)


def test_blocked_corridor_cuts_off_far_side():
    # Column wall with a single 1-cell gap; blocking radius above one cell
    # seals it.
    g = OccupancyGrid.empty(11, 7)
    for y in range(7):
        if y != 3:
            set_obstacle(g, 5, y)
    field = dijkstra_field(g, (1, 3), block_radius=1.5)
    assert all(field[y * 11 + x] == INF for y in range(7) for x in range(7, 11)
               if not g.is_obstacle(x, y))
    open_field = dijkstra_field(g, (1, 3), block_radius=0.0)
    assert open_field[3 * 11 + 9] < INF


def test_blocked_goal_warns_and_returns_all_inf():
    g = OccupancyGrid.empty(6, 6)
    set_obstacle(g, 3, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        field = dijkstra_field(g, (3, 3), block_radius=1.5)
    assert any("blocked" in str(w.message) for w in caught)
    assert all(v == INF for v in field)


@pytest.mark.parametrize("radius", [INF, 1e300])
def test_field_blocked_at_an_unbounded_radius_warns_and_is_all_inf(radius):
    g = OccupancyGrid.load(shipped("maps/yard30.map"))
    with pytest.warns(UserWarning, match="blocked at radius"):
        field = dijkstra_field(g, (26, 15), radius)
    assert all(v == INF for v in field)


@pytest.mark.parametrize("radius", [-1.0, -1, -0.01, math.nan])
def test_field_rejects_a_negative_or_nan_block_radius(radius):
    # Such a radius would leave obstacle cells (clearance 0.0) unblocked.
    g = OccupancyGrid.load(shipped("maps/yard30.map"))
    with pytest.raises(ValueError, match=rf"^block_radius = {radius!r}: expected >= 0$"):
        dijkstra_field(g, (26, 15), radius)


def test_field_takes_an_int_block_radius_as_its_float():
    g = OccupancyGrid.load(shipped("maps/yard30.map"))
    grid_mod._blocked_mask.cache_clear()  # the int radius builds its mask first
    for r in (0, 1):
        field = dijkstra_field(g, (26, 15), r)
        assert field == dijkstra_field(g, (26, 15), float(r))
        assert all(field[idx] == INF for idx, cell in enumerate(g.cells) if cell)


def test_monotone_blocking():
    g = OccupancyGrid.load(shipped("maps/yard30.map"))
    clearance = clearance_field(g)
    fields = [dijkstra_field(g, (3, 15), r) for r in (0.0, 0.4, 0.8)]
    for lo, hi in zip(fields, fields[1:]):
        for a, b in zip(lo, hi):
            if a != INF and b != INF:
                assert a <= b + 1e-9


def test_field_satisfies_relaxation_on_its_own_grid():
    g = OccupancyGrid.load(shipped("maps/yard30.map"))
    clearance = clearance_field(g)
    block = 0.5
    field = dijkstra_field(g, (26, 15), block)
    straight = 1000.0 * g.resolution
    diagonal = straight * math.sqrt(2)
    for y in range(g.height):
        for x in range(g.width):
            u = field[y * g.width + x]
            if u == INF:
                continue
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if not (dx or dy) or not g.in_bounds(x + dx, y + dy):
                        continue
                    v = field[(y + dy) * g.width + (x + dx)]
                    if v == INF:
                        continue
                    cost = diagonal if dx and dy else straight
                    assert u <= v + cost + 1e-9


def _random_field_grid(rng, width, height, resolution):
    """Obstacles dense on the border ring, sparse inside."""
    g = OccupancyGrid.empty(width, height, resolution)
    for y in range(height):
        for x in range(width):
            border = x in (0, width - 1) or y in (0, height - 1)
            if rng.random() < (0.5 if border else 0.15):
                set_obstacle(g, x, y)
    return g


def _field_grids():
    rng = random.Random(7)
    for name in ("maps/rooms40.map", "maps/yard30.map"):
        shipped_grid = OccupancyGrid.load(shipped(name))
        for res in (0.25, 0.5, 1.0):
            yield OccupancyGrid(shipped_grid.width, shipped_grid.height, res,
                                bytearray(shipped_grid.cells))
    for width, height in ((9, 7), (16, 11), (1, 6), (5, 1), (2, 2)):
        for res in (0.25, 0.5, 1.0):
            yield _random_field_grid(rng, width, height, res)


def _field_goals(g, rng):
    w, h = g.width, g.height
    goals = [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1), (-1, 0), (w, h - 1)]
    for _ in range(2):
        goals += [(rng.randrange(w), 0), (rng.randrange(w), h - 1),
                  (0, rng.randrange(h)), (w - 1, rng.randrange(h)),
                  (rng.randrange(w), rng.randrange(h))]
    free = [(x, y) for y in range(h) for x in range(w) if not g.is_obstacle(x, y)]
    goals += rng.sample(free, min(2, len(free)))
    return goals


def test_field_equals_reference_sweep_exactly():
    rng = random.Random(11)
    robot = RobotFootprint(1.2, 0.8)
    radii = (0.0, robot.inscribed_radius, robot.circumscribed_radius, 1.5)
    swept = blocked = 0
    for g in _field_grids():
        clearance = clearance_field(g)
        for goal in _field_goals(g, rng):
            for r in radii:
                with warnings.catch_warnings(record=True) as got:
                    warnings.simplefilter("always")
                    field = dijkstra_field(g, goal, r)
                with warnings.catch_warnings(record=True) as want:
                    warnings.simplefilter("always")
                    expected = reference_dijkstra_field(g, goal, r, clearance)
                assert list(field) == expected, (g.width, g.height, g.resolution, goal, r)
                assert [str(w.message) for w in got] == [str(w.message) for w in want]
                if want:
                    blocked += 1
                    assert all(v == INF for v in field)
                else:
                    swept += 1
    assert swept > 100 and blocked > 100


def test_clearance_equals_reference_sweep_exactly():
    # The blocked masks are the reference clearance thresholded at each radius
    # (octile steps, the footprint's radii, and radii past every map cell).
    radii = (0.0, 0.25, math.sqrt(2) / 4, 0.5, DEFAULT_FOOTPRINT.inscribed_radius,
             DEFAULT_FOOTPRINT.circumscribed_radius, 1.0, 1.7, 1e300, INF)
    rng = random.Random(3)
    maps = [OccupancyGrid.load(p) for p in sorted(shipped("maps").glob("*.map"))]
    assert len(maps) == 3
    for res in (0.25, 0.5, 1.0):
        grids = [OccupancyGrid(m.width, m.height, res, bytearray(m.cells)) for m in maps]
        for width, height in ((1, 1), (1, 8), (7, 1), (2, 5), (9, 7), (16, 11), (23, 19)):
            for density in (0.0, 0.1, 0.4):
                g = OccupancyGrid.empty(width, height, res)
                for y in range(height):
                    for x in range(width):
                        if rng.random() < density:
                            set_obstacle(g, x, y)
                grids.append(g)
        for g in grids:
            w, h = g.width, g.height
            clearance = reference_clearance_field(g)
            assert list(clearance_field(g)) == clearance, (w, h, res)
            for r in radii:
                want = bytearray(b"\x01") * ((w + 2) * (h + 2))
                for i, c in enumerate(clearance):
                    want[(i // w + 1) * (w + 2) + i % w + 1] = c <= r
                mask = grid_mod._blocked_mask(w, h, res, bytes(g.cells), r)[0]
                assert bytes(map(bool, mask)) == want, (w, h, res, r)


def test_masks_of_a_large_map_take_under_half_a_clearance_sweep():
    # A dilation is a few whole-map shift-ors; the clearance sweep visits
    # every cell in Python. Relative, so it holds on any host.
    size = 1024
    obstacle = b"\x01" * 13 + bytes(243)  # about 5% of random bytes
    g = OccupancyGrid(size, size, 0.25,
                      bytearray(random.Random(5).randbytes(size * size).translate(obstacle)))
    cells = bytes(g.cells)
    radii = (0.0, DEFAULT_FOOTPRINT.inscribed_radius, DEFAULT_FOOTPRINT.circumscribed_radius)
    grid_mod._blocked_mask.cache_clear()
    start = time.perf_counter()
    for r in radii:
        grid_mod._blocked_mask(size, size, 0.25, cells, r)
    masks_s = time.perf_counter() - start
    grid_mod._blocked_mask.cache_clear()
    start = time.perf_counter()
    clearance_field(g)
    sweep_s = time.perf_counter() - start
    assert masks_s < sweep_s / 2, (masks_s, sweep_s)


def _sweep_masks(rng):
    """Padded masks (stride `width + 2`, a blocked ring around the map) of
    random clutter, 1-cell corridors, splitting walls and closed pockets."""
    def padded(width, height, is_blocked):
        stride = width + 2
        mask = bytearray(b"\x01") * (stride * (height + 2))
        for y in range(height):
            for x in range(width):
                mask[(y + 1) * stride + x + 1] = is_blocked(x, y)
        return bytes(mask)

    for width, height in ((1, 1), (1, 9), (9, 1), (2, 7), (7, 3), (12, 12), (17, 9)):
        for density in (0.0, 0.2, 0.45):
            cells = [rng.random() < density for _ in range(width * height)]
            yield "clutter", width, height, padded(width, height,
                                                   lambda x, y: cells[y * width + x])
    # a serpentine corridor one cell wide, turning at alternate ends
    yield "corridor", 11, 9, padded(11, 9, lambda x, y: y % 2 == 1 and x != (
        10 if y % 4 == 1 else 0))
    # a full-height wall: the far side is unreachable from a near source
    yield "split", 10, 6, padded(10, 6, lambda x, y: x == 4)
    # a closed ring of walls around a 3x3 pocket
    yield "pocket", 12, 10, padded(12, 10, lambda x, y: max(abs(x - 5), abs(y - 4)) == 2)
    # Masks where a diagonal arrival's forced neighbours matter. Diagonal
    # walls, both slopes, with one-cell gaps: a path bends around each wall
    # end and through each gap.
    yield "diagonal walls", 15, 13, padded(15, 13, lambda x, y: (
        (x + y if x < 7 else x - y) % 5 == 0 and (3 * x + y) % 7 != 2))
    # a checkerboard: free cells touch only at corners
    yield "checkerboard", 9, 8, padded(9, 8, lambda x, y: (x + y) % 2 == 1)
    yield "checkerboard", 8, 9, padded(8, 9, lambda x, y: (x + y) % 2 == 0)
    # L-shaped corners in all four orientations, arms two and three cells long
    corners = {(cx + sx * i, cy) for cx, cy, sx, sy in ((2, 2, 1, 1), (11, 3, -1, 1),
                                                          (3, 10, 1, -1), (10, 9, -1, -1))
               for i in range(3)} | {(cx, cy + sy * i) for cx, cy, sx, sy in (
                   (2, 2, 1, 1), (11, 3, -1, 1), (3, 10, 1, -1), (10, 9, -1, -1)) for i in range(2)}
    yield "corners", 14, 13, padded(14, 13, lambda x, y: (x, y) in corners)


def test_padded_sweep_equals_heap_reference_exactly():
    rng = random.Random(29)
    several_sources = unreached_free = 0
    for name, width, height, mask in _sweep_masks(rng):
        free = [i for i, b in enumerate(mask) if not b]
        stride = width + 2
        tables = grid_mod._sweep_tables(mask, stride)
        inner = [(y + 1) * stride + 1 + x for y in range(height) for x in range(width)]
        for straight in (1.0, 250.0, 1000.0 * 0.3, 0.7):
            for _ in range(6):
                sources = rng.sample(free, min(len(free), rng.randint(1, 5)))
                field = grid_mod._padded_sweep(tables, sources, width, height, straight)
                expected = reference_padded_sweep(mask, [(0.0, idx) for idx in sources],
                                                  width, height, straight)
                assert list(field) == expected, (name, width, height, straight, sources)
                several_sources += len(sources) > 1
                unreached_free += sum(v == INF and not mask[idx]
                                      for v, idx in zip(expected, inner))
    assert several_sources > 100 and unreached_free > 100


def test_padded_sweep_pops_in_order_and_relaxes_from_final_values(monkeypatch):
    # The fields would stay exact if cells were popped out of order: a cell
    # popped early is queued again when its value drops. But it would then
    # relax its neighbours from a value that is not final, doing the work
    # twice. A straight entry is never stale, so the sweep pops it without
    # a check: it must pop at its cell's final value.
    popped: list[tuple[float, int, int]] = []
    pushed: list[tuple[float, int, int]] = []

    class RecordingDeque(deque):
        def popleft(self):
            entry = super().popleft()
            popped.append(entry)
            return entry

        def append(self, entry):
            pushed.append(entry)
            super().append(entry)

    monkeypatch.setattr(grid_mod, "deque", RecordingDeque)
    rng = random.Random(31)
    for name, width, height, mask in _sweep_masks(rng):
        stride = width + 2
        tables = grid_mod._sweep_tables(mask, stride)
        free = [i for i, b in enumerate(mask) if not b]
        for straight in (1.0, 0.7):
            diagonal = straight * math.sqrt(2)
            for _ in range(3):
                sources = rng.sample(free, min(len(free), rng.randint(2, 5)))
                popped.clear()
                pushed.clear()
                field = grid_mod._padded_sweep(tables, sources, width, height, straight)
                case = (name, width, height, straight, sources)
                for d, n, u in popped:
                    if u in (1, -1, stride, -stride):
                        y, x = divmod(n, stride)
                        assert d == field[(y - 1) * width + x - 1], case
                assert [d for d, _, _ in popped] == sorted(d for d, _, _ in popped), case
                for d, n, u in pushed:
                    y, x = divmod(n - u, stride)
                    step = straight if u in (1, -1, stride, -stride) else diagonal
                    assert d == field[(y - 1) * width + x - 1] + step, case


def _count_clearance_calls(monkeypatch):
    grid_mod._blocked_mask.cache_clear()
    grid_mod._collision_maps.cache_clear()
    calls = []
    real = grid_mod.clearance_field

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(grid_mod, "clearance_field", counted)
    return calls


def _collision_bytes(dom):
    """The collision map of each heading, for the four builtin primitives
    per heading: one chunk each."""
    maps = []
    for chunks in dom._moves:
        (hits, _), = chunks
        maps.append(hits)
    return maps


def test_map_cache_is_keyed_on_content(monkeypatch):
    calls = _count_clearance_calls(monkeypatch)
    path = shipped("maps/open20.map")
    dom1 = LatticeDomain(OccupancyGrid.load(path), (2, 2, 0), (15, 12), footprint=SMALL)
    # The masks go around the collision maps' cache, so they evict none.
    assert grid_mod._collision_maps.cache_info().currsize == 1
    dom2 = LatticeDomain(OccupancyGrid.load(path), (2, 2, 0), (15, 12), footprint=SMALL)
    masks = grid_mod._blocked_mask.cache_info()
    assert (masks.misses, masks.hits) == (2, 2)  # dom2 reuses dom1's masks
    assert all(m2 is m1 for m2, m1 in zip(_collision_bytes(dom2), _collision_bytes(dom1)))
    assert dom2.fields == dom1.fields
    changed = OccupancyGrid.load(path)
    set_obstacle(changed, 10, 17)
    dom3 = LatticeDomain(changed, (2, 2, 0), (15, 12), footprint=SMALL)
    assert grid_mod._blocked_mask.cache_info().misses == 4
    assert calls == []  # no build sweeps a clearance field
    cell = 17 * changed.width + 10
    assert all(m[cell] == 0b1111 for m in _collision_bytes(dom3))
    assert any(m[cell] != 0b1111 for m in _collision_bytes(dom1))
    assert grid_mod._blocked_mask.cache_info().maxsize is not None
    assert grid_mod._collision_maps.cache_info().maxsize is not None


def test_fields_see_obstacles_set_after_a_build(monkeypatch):
    calls = _count_clearance_calls(monkeypatch)
    g = OccupancyGrid.load(shipped("maps/open20.map"))
    before = LatticeDomain(g, (2, 2, 0), (15, 12), footprint=SMALL)
    cell = 8 * g.width + 9
    assert all(f[cell] < INF for f in before.fields)
    set_obstacle(g, 9, 8)
    after = LatticeDomain(g, (2, 2, 0), (15, 12), footprint=SMALL)
    assert grid_mod._blocked_mask.cache_info().misses == 4
    assert calls == []
    assert all(f[cell] == INF for f in after.fields)
    clearance = reference_clearance_field(g)
    # Every primitive sweeps its start cell, so all four bits are set there.
    for m_after, m_before in zip(_collision_bytes(after), _collision_bytes(before)):
        assert m_after[cell] == 0b1111 != m_before[cell]
    radii = (SMALL.inscribed_radius, SMALL.inscribed_radius, SMALL.circumscribed_radius)
    for r, field in zip(radii, after.fields):
        assert list(field) == reference_dijkstra_field(g, (15, 12), r, clearance)


# -- the lattice domain -------------------------------------------------------------


def test_successor_count_on_open_ground_matches_primitives():
    g = OccupancyGrid.empty(30, 30)
    dom = LatticeDomain(g, (15, 15, 0), (28, 28), footprint=SMALL)
    for theta in range(16):
        sid = dom._intern(15, 15, theta)
        per_heading = [p for p in dom.primitives if p.theta_start == theta]
        assert len(dom.successors(sid)) == len(per_heading)


def test_straight_primitive_moves_one_cell_forward():
    g = OccupancyGrid.empty(9, 9)
    prim = MotionPrimitive(0, 0, 1000, ((0, 0, 0), (1, 0, 0)))
    dom = LatticeDomain(g, (4, 4, 0), (8, 4), primitives=([prim], 16), footprint=SMALL)
    succ = dom.successors(dom.start())
    assert len(succ) == 1
    sid, cost = succ[0]
    assert dom.pose_of(sid) == (5, 4, 0)
    assert cost == 1000


def test_primitive_sweeping_obstacle_is_omitted():
    # Tiny footprint: only the swept cells themselves matter, and the middle
    # of the sweep is blocked.
    g = OccupancyGrid.empty(9, 9)
    set_obstacle(g, 5, 4)
    tiny = RobotFootprint(0.02, 0.02)
    prim = MotionPrimitive(0, 0, 2000, ((0, 0, 0), (1, 0, 0), (2, 0, 0)))
    dom = LatticeDomain(g, (4, 4, 0), (8, 4), primitives=([prim], 16), footprint=tiny)
    assert dom.successors(dom.start()) == ()
    g2 = OccupancyGrid.empty(9, 9)
    dom2 = LatticeDomain(g2, (4, 4, 0), (8, 4), primitives=([prim], 16), footprint=tiny)
    assert [dom2.pose_of(t) for t, _ in dom2.successors(dom2.start())] == [(6, 4, 0)]


def test_euclidean_heuristic_values():
    # The euclidean value is what a heuristic falls back to where its field
    # is +inf: the anchor of a cell walled off from the goal on the grid
    # blocked at the inscribed radius, here just the obstacles.
    g = OccupancyGrid.empty(12, 12, 0.5)
    for x, y in ((9, 9), (10, 9), (11, 9), (9, 10), (9, 11)):
        set_obstacle(g, x, y)
    dom = LatticeDomain(g, (1, 1, 0), (4, 5), footprint=SMALL)
    assert dom.euclidean_h(dom._intern(4, 5, 7)) == 0.0
    # 3-4-5 offset from the goal, scaled by resolution and milli-units
    assert dom.euclidean_h(dom._intern(1, 1, 0)) == pytest.approx(5 * 0.5 * 1000)
    # Where F_ins is finite the anchor is F_ins / k, here the octile
    # distance: (3 * sqrt(2) + 1) straight steps of 500 mm.
    k = reference_anchor_scale(dom.primitives, 0.5)
    assert dom.heuristic(dom._intern(1, 1, 0), 0) == pytest.approx(
        (3 * math.sqrt(2) + 1) * 500 / (k * (1 + 1e-9)), rel=1e-12)
    assert dom.fallback_lookups == 0
    walled = dom._intern(11, 11, 3)
    assert dom.fields[0][11 * 12 + 11] == INF
    assert dom.heuristic(walled, 0) == dom.euclidean_h(walled) == pytest.approx(
        math.hypot(7, 6) * 500)
    assert dom.fallback_lookups == 1


@pytest.mark.parametrize("resolution, k", ((0.25, 1.0792), (0.5, 1.0795), (1.0, 1.0796)))
def test_anchor_scale_of_the_shipped_primitives_matches_the_reference(resolution, k):
    dom = LatticeDomain(OccupancyGrid.empty(30, 30, resolution), (15, 15, 0), (25, 25))
    reference = reference_anchor_scale(dom.primitives, resolution)
    assert round(reference, 4) == k
    assert dom.anchor_scale == reference * (1 + 1e-9)


def test_all_heuristics_zero_at_goal():
    g = OccupancyGrid.load(shipped("maps/open20.map"))
    dom = LatticeDomain(g, (2, 2, 0), (15, 12), footprint=SMALL)
    assert dom.num_inadmissible == 2
    for i in range(3):
        assert dom.heuristic(dom._intern(15, 12, 5), i) == 0.0


def test_octile_field_dominates_euclidean_on_empty_map():
    g = OccupancyGrid.load(shipped("maps/open20.map"))
    dom = LatticeDomain(g, (2, 2, 0), (15, 12), footprint=SMALL)
    for x in range(0, 20, 3):
        for y in range(0, 20, 3):
            sid = dom._intern(x, y, 0)
            assert dom.fields[0][y * 20 + x] >= dom.euclidean_h(sid) - 1e-9


def test_narrow_passage_field_exceeds_open_field_behind_door():
    g = OccupancyGrid.load(shipped("maps/rooms40.map"))
    dom = LatticeDomain(
        g, (5, 16, 0), (35, 16), footprint=RobotFootprint(1.2, 0.8)
    )
    behind = dom._intern(10, 10, 0)
    assert dom.heuristic(behind, 2) > dom.fields[0][10 * 40 + 10] > dom.heuristic(behind, 0)


def test_euclidean_admissible_against_lattice_dijkstra():
    g = OccupancyGrid.load(shipped("maps/open20.map"))
    for start in ((1, 1, 0), (10, 3, 5), (18, 18, 11)):
        dom = LatticeDomain(g, start, (10, 10), footprint=SMALL)
        optimal = uniform_cost_optimal(dom)
        assert optimal not in (None, INF)
        assert dom.euclidean_h(dom.start()) <= optimal
        assert dom.heuristic(dom.start(), 0) <= optimal


def _assert_anchor_consistent(dom):
    """h(a) <= c + h(b) for the anchor on every edge of the domain, exactly."""
    w, h = dom.grid.width, dom.grid.height
    for sid in range(w * h * dom.num_headings):
        ha = dom.heuristic(sid, 0)
        for nid, cost in dom.successors(sid):
            assert ha <= cost + dom.heuristic(nid, 0), (dom.pose_of(sid), dom.pose_of(nid))


def test_euclidean_consistency_over_all_edges_small_map():
    g = OccupancyGrid.empty(10, 10, 0.5)
    dom = LatticeDomain(g, (5, 5, 0), (8, 8), footprint=SMALL)
    _assert_anchor_consistent(dom)
    for sid in range(10 * 10 * 16):
        for nid, cost in dom.successors(sid):
            assert dom.euclidean_h(sid) <= cost + dom.euclidean_h(nid)


@pytest.mark.parametrize("resolution", (0.25, 0.5, 1.0))
@pytest.mark.parametrize("name", ("open20", "rooms40", "yard30"))
def test_anchor_consistent_on_every_edge_of_the_shipped_maps(name, resolution):
    # Each shipped map at each resolution, with the default footprint, for
    # three goals drawn from the free cells; no tolerance.
    text = shipped(f"maps/{name}.map").read_text()
    header, rows = text.split("\n", 1)
    width, height, _ = header.split()
    g = OccupancyGrid.parse(f"{width} {height} {resolution}\n{rows}")
    rng = random.Random(f"{name}-{resolution}")
    free = [(x, y) for y in range(g.height) for x in range(g.width) if not g.is_obstacle(x, y)]
    start = next((x, y, 0) for x, y in free
                 if not footprint_collides(g, (x, y, 0), DEFAULT_FOOTPRINT))
    for goal in rng.sample(free, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a goal cell too narrow for a blocked field
            dom = LatticeDomain(g, start, goal)
        _assert_anchor_consistent(dom)


def test_anchor_admissible_against_the_pose_graph_oracle():
    # h(start) <= the optimum on the acceptance suite's 100 grid instances,
    # whose optima come from `oracle.lattice_optimal`.
    from test_acceptance import TINY, random_grid_instance
    for seed in range(4000, 4100):
        grid, start, goal, optimal = random_grid_instance(seed)
        dom = LatticeDomain(grid, start, goal, footprint=TINY)
        assert dom.heuristic(dom.start(), 0) <= optimal, seed


@pytest.mark.parametrize("resolution", (0.25, 0.5, 1.0))
@pytest.mark.parametrize("name, blocked_at_quarter", (("open20", 76), ("rooms40", 216),
                                                      ("yard30", 202)))
def test_no_collision_free_pose_sits_on_a_cell_the_inscribed_mask_blocks(
        name, blocked_at_quarter, resolution):
    # The anchor's lemma: an obstacle centre inside the inscribed disc lies
    # inside the footprint, so only colliding poses sit on blocked cells.
    header, rows = shipped(f"maps/{name}.map").read_text().split("\n", 1)
    w, h = map(int, header.split()[:2])
    g = OccupancyGrid.parse(f"{w} {h} {resolution}\n{rows}")
    mask = grid_mod._blocked_mask(w, h, resolution, bytes(g.cells),
                                  DEFAULT_FOOTPRINT.inscribed_radius)[0]
    blocked = [(x, y) for y in range(h) for x in range(w)
               if mask[(y + 1) * (w + 2) + x + 1] and not g.is_obstacle(x, y)]
    # The inscribed radius is 0.4 m: at 0.5 m per cell and above the mask
    # blocks only the obstacles.
    assert len(blocked) == (blocked_at_quarter if resolution == 0.25 else 0)
    for x, y in blocked:
        for t in range(16):
            assert footprint_collides(g, (x, y, t), DEFAULT_FOOTPRINT), (x, y, t)


@pytest.mark.parametrize("start, goal, beside_the_wall_end", (
    ((4, 4, 0), (34, 34), False),
    ((5, 16, 0), (35, 16), False),
    ((19, 32, 10), (14, 26), True),
    ((23, 30, 6), (13, 37), True),
    ((21, 32, 14), (32, 15), True),
))
def test_anchor_admissible_with_the_default_footprint_on_rooms40(start, goal,
                                                                 beside_the_wall_end):
    # rooms40 is at 0.25 m, where the inscribed mask is wider than the
    # obstacles (TINY's, in the test above, is just the obstacles).
    g = OccupancyGrid.load(shipped("maps/rooms40.map"))
    dom = LatticeDomain(g, start, goal)
    optimal = lattice_optimal(g, (dom.primitives, dom.num_headings), DEFAULT_FOOTPRINT,
                              start, (*goal, None))
    assert optimal not in (None, INF)
    assert dom.heuristic(dom.start(), 0) <= optimal
    # There the circumscribed field over k overestimates: the robot hugs
    # the wall's end closer than that field lets it.
    assert (dom.heuristic(dom.start(), 2) / dom.anchor_scale > optimal) is beside_the_wall_end


def test_a_build_sweeps_two_goal_fields(monkeypatch):
    radii = []
    real = grid_mod.dijkstra_field

    def counted(g, goal, block_radius=0.0):
        radii.append(block_radius)
        return real(g, goal, block_radius)

    monkeypatch.setattr(grid_mod, "dijkstra_field", counted)
    dom = LatticeDomain(OccupancyGrid.load(shipped("maps/open20.map")), (2, 2, 0), (15, 12))
    assert radii == [DEFAULT_FOOTPRINT.inscribed_radius, DEFAULT_FOOTPRINT.circumscribed_radius]
    assert dom.fields[0] is dom.fields[1] is not dom.fields[2]


def test_anchor_consistent_at_the_least_normal_resolution():
    # Every sweep step is a normal float at sys.float_info.min, the least
    # resolution a map may have; every edge there costs 1.
    res = sys.float_info.min
    rows = shipped("maps/yard30.map").read_text().split("\n", 1)[1]
    g = OccupancyGrid.parse(f"30 30 {res!r}\n{rows}")
    dom = LatticeDomain(g, (3, 15, 0), (26, 15), footprint=RobotFootprint(1.2 * res, 0.8 * res))
    assert {cost for sid in range(30 * 30 * 16) for _, cost in dom.successors(sid)} == {1}
    _assert_anchor_consistent(dom)


def test_solution_path_replays_through_primitives():
    g = OccupancyGrid.load(shipped("maps/yard30.map"))
    dom = LatticeDomain(g, (3, 15, 0), (26, 15), footprint=SMALL)
    planner = Planner(dom, PlannerConfig(w1=2.0, w2=2.0))
    records = planner.run()
    assert records
    path = records[-1].path
    total = 0
    for a, b in zip(path, path[1:]):
        prim = dom.primitive_between(a, b)
        assert prim is not None, "path edge not reproducible by a primitive"
        ax, ay, _ = dom.pose_of(a)
        for px, py, pt in prim.poses:
            assert not footprint_collides(g, (ax + px, ay + py, pt), SMALL)
        total += math.ceil(prim.cost_milli * g.resolution)
    assert total == records[-1].cost


def test_lattice_rejects_no_primitives_and_a_start_heading_outside_its_fan():
    g = OccupancyGrid.empty(15, 15)
    with pytest.raises(ValueError, match="^no motion primitives loaded$"):
        LatticeDomain(g, (3, 7, 0), (11, 7), primitives=([], 16))
    for heading in (16, -1):
        with pytest.raises(ValueError, match="^start heading outside the configured fan$"):
            LatticeDomain(g, (3, 7, heading), (11, 7))


def test_primitive_between_states_with_no_edge_is_none():
    dom = LatticeDomain(OccupancyGrid.empty(15, 15), (3, 7, 0), (11, 7), footprint=SMALL)
    start = dom.start()
    children = {sid for sid, _ in dom.successors(start)}
    assert all(dom.primitive_between(start, sid) is not None for sid in children)
    for x, y, t in ((3, 7, 0), (3, 7, 1), (4, 7, 1), (9, 9, 0)):
        sid = dom._intern(x, y, t)
        assert sid not in children
        assert dom.primitive_between(start, sid) is None


def test_planner_state_tables_hold_only_reached_states():
    # 300x300 cells x 16 headings is 1.44M sids; the start sits near the far
    # corner, so tables sized by the largest sid would hold ~1.4M entries.
    g = OccupancyGrid.empty(300, 300)
    dom = LatticeDomain(g, (288, 292, 0), (283, 289))
    planner = Planner(dom, PlannerConfig(w1=3.0, w2=2.0, record_expansions=True))
    records = planner.run()
    assert records[-1].bound == 1.0
    expanded = {sid for log in planner.expansion_log for sid, _ in log}
    bound = 1 + sum(len(dom.successors(sid)) for sid in expanded)
    assert len(planner._g) == len(planner._parent) <= bound < 10_000


def test_start_in_collision_is_rejected():
    g = OccupancyGrid.empty(9, 9)
    set_obstacle(g, 4, 4)
    with pytest.raises(ValueError):
        LatticeDomain(g, (4, 4, 0), (8, 8), footprint=SMALL)


def test_obstructed_goal_cell_is_rejected():
    g = OccupancyGrid.empty(9, 9)
    set_obstacle(g, 8, 8)
    with pytest.raises(ValueError):
        LatticeDomain(g, (1, 1, 0), (8, 8), footprint=SMALL)


@pytest.mark.parametrize("width, height, diagonal", [
    (2, 2, "0.0848528"),
    (1, 1, "0.0424264"),
    (20, 1, "0.60075"),
])
def test_footprint_beyond_the_map_diagonal_prints_the_diagonal(width, height, diagonal):
    g = OccupancyGrid.empty(width, height, 0.03)
    with pytest.raises(ValueError, match=rf"^footprint reaches 0\.707107 m from the pose, "
                                         rf"beyond the map diagonal of {diagonal} m: "):
        LatticeDomain(g, (0, 0, 0), (0, 0), footprint=RobotFootprint(1.0, 1.0))


def test_goal_heading_constraint():
    g = OccupancyGrid.empty(9, 9)
    dom = LatticeDomain(g, (1, 1, 0), (5, 5, 3), footprint=SMALL)
    assert dom.is_goal(dom._intern(5, 5, 3))
    assert not dom.is_goal(dom._intern(5, 5, 2))
    assert not dom.is_goal(dom._intern(5, 4, 3))
    free = LatticeDomain(g, (1, 1, 0), (5, 5), footprint=SMALL)
    assert free.is_goal(free._intern(5, 5, 9))


def _shuttle_primitives(num_headings, reach):
    """Per heading: out `reach` cells along the heading's unit step and back to
    the start cell, turning left at the end. The end cell is the start cell,
    so from a pose on the map's edge it ends on the map while its sweep reads
    the padding out to its full width."""
    prims = []
    for t in range(num_headings):
        vx, vy = heading_vector(num_headings, t)
        sx, sy = (vx > 0) - (vx < 0), (vy > 0) - (vy < 0)
        out = [(k * sx, k * sy, t) for k in range(reach + 1)]
        back = [(k * sx, k * sy, t) for k in range(reach - 1, 0, -1)]
        end = (0, 0, (t + 1) % num_headings)
        prims.append(MotionPrimitive(t, end[2], 1000 * 2 * reach, tuple(out + back) + (end,)))
    return prims


def _random_border_grid(rng, width, height, resolution):
    """Random obstacles, denser on and next to the border."""
    g = OccupancyGrid.empty(width, height, resolution)
    for y in range(height):
        for x in range(width):
            edge = min(x, y, width - 1 - x, height - 1 - y)
            if rng.random() < (0.3 if edge <= 1 else 0.1):
                set_obstacle(g, x, y)
    return g


def _reference_successors(grid, footprint, num_headings, primitives, pose, collides=None):
    """Successor tuples from `footprint_collides` on every swept pose, or
    from `collides(pose)` in its place."""
    if collides is None:
        def collides(p):
            return footprint_collides(grid, p, footprint, num_headings)
    x, y, t = pose
    w = grid.width
    out = []
    for prim in primitives:
        if prim.theta_start != t:
            continue
        ex, ey, et = prim.end
        if not grid.in_bounds(x + ex, y + ey):
            continue
        if any(collides((x + px, y + py, pt)) for px, py, pt in prim.poses):
            continue
        sid = ((y + ey) * w + (x + ex)) * num_headings + et
        out.append((sid, math.ceil(prim.cost_milli * grid.resolution)))
    return tuple(out)


def _unit_primitives(num_headings):
    """Per heading: a straight one heading vector long and a one-cell shuttle."""
    prims = []
    for t in range(num_headings):
        vx, vy = heading_vector(num_headings, t)
        poses = ((0, 0, t),) + tuple((round(k * vx / 4), round(k * vy / 4), t) for k in (2, 4))
        prims.append(MotionPrimitive(t, t, 1000, tuple(dict.fromkeys(poses))))
    return prims + _shuttle_primitives(num_headings, 1)


def _fan_line(a, b):
    """The cells after `a` on an 8-connected line from `a` to `b`."""
    (ax, ay), (bx, by) = a, b
    n = max(abs(bx - ax), abs(by - ay))
    return [(ax + round(k * (bx - ax) / n), ay + round(k * (by - ay) / n)) for k in range(1, n + 1)]


def _fan_primitives(num_headings):
    """Per heading: a straight two heading vectors long, and left and right
    turns along the heading's vector and then the next heading's."""
    prims = []
    for t in range(num_headings):
        vx, vy = heading_vector(num_headings, t)
        line = [(0, 0)] + _fan_line((0, 0), (2 * vx, 2 * vy))
        prims.append(MotionPrimitive(t, t, math.ceil(2000 * math.hypot(vx, vy)),
                                     tuple((x, y, t) for x, y in line)))
        for turn in (1, -1):
            u = (t + turn) % num_headings
            ux, uy = heading_vector(num_headings, u)
            first = [(0, 0)] + _fan_line((0, 0), (vx, vy))
            second = _fan_line((vx, vy), (vx + ux, vy + uy))
            cost = math.ceil(1000 * (math.hypot(vx, vy) + math.hypot(ux, uy)))
            prims.append(MotionPrimitive(t, u, cost, tuple(
                [(x, y, t) for x, y in first] + [(x, y, u) for x, y in second])))
    return prims


@pytest.mark.parametrize("num_headings", (4, 8, 16))
@pytest.mark.parametrize("resolution", (0.25, 0.5, 1.0))
@pytest.mark.parametrize("footprint", (RobotFootprint(1.2, 0.8),
                                       RobotFootprint(0.1, 0.1)),
                         ids=("rect", "dot"))
@pytest.mark.parametrize("kind", ("long", "unit", "many"))
def test_successors_and_heuristics_match_reference(num_headings, resolution, footprint, kind):
    # The dot covers only its own cell, so with the unit primitives nothing
    # sweeps more than a cell or two off the map: there a one-cell-too-narrow
    # padding lets a sweep read past the map or into the next row's cells.
    # The many set has 10 primitives per heading, two chunks of collision map.
    rng = random.Random(f"{num_headings}-{resolution}-{footprint}-{kind}")
    width, height = 23, 19
    grid = _random_border_grid(rng, width, height, resolution)
    if kind == "long":
        prims = _fan_primitives(num_headings) + _shuttle_primitives(num_headings, 6)
    elif kind == "many":
        prims = _fan_primitives(num_headings) + [
            p for reach in range(1, 8) for p in _shuttle_primitives(num_headings, reach)]
    else:
        prims = _unit_primitives(num_headings)
    start = (width // 2, height // 2, 0)
    for dx, dy in footprint_cell_mask(footprint, resolution, num_headings, 0):
        set_obstacle(grid, start[0] + dx, start[1] + dy, False)
    goal = next((x, y) for y in range(height) for x in range(width) if not grid.is_obstacle(x, y))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a goal cell too narrow for a field
        dom = LatticeDomain(grid, start, goal, primitives=(prims, num_headings),
                            footprint=footprint)
    # Poses at every distance from every edge out to the widest sweep, the
    # four corners, and some more anywhere on the map.
    reach = max(max(abs(px) + abs(mx), abs(py) + abs(my))
                for p in prims for px, py, pt in p.poses
                for mx, my in footprint_cell_mask(footprint, resolution, num_headings, pt))
    cells = [(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1)]
    for d in range(min(reach + 1, height)):
        cells += [(d, rng.randrange(height)), (width - 1 - d, rng.randrange(height)),
                  (rng.randrange(width), d), (rng.randrange(width), height - 1 - d)]
    cells += [(rng.randrange(width), rng.randrange(height)) for _ in range(30)]
    poses = [(x, y, rng.randrange(num_headings)) for x, y in cells]
    poses += [(x, y, t) for x, y in cells[:4] for t in range(num_headings)]

    clearance = clearance_field(grid)
    radii = (footprint.inscribed_radius, footprint.inscribed_radius,
             footprint.circumscribed_radius)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fields = [dijkstra_field(grid, goal, r) for r in radii]
    assert all(type(f) is array for f in [clearance] + fields + dom.fields)
    scale = reference_anchor_scale(prims, resolution) * (1 + 1e-9)
    assert dom.anchor_scale == scale
    gx, gy = goal
    for x, y, t in poses:
        sid = (y * width + x) * num_headings + t
        assert dom.successors(sid) == _reference_successors(
            grid, footprint, num_headings, prims, (x, y, t)), (x, y, t)
        euclid = math.hypot(x - gx, y - gy) * resolution * 1000.0
        for i, field in enumerate(fields):
            value = field[y * width + x]
            expected = value / scale if i == 0 else value
            assert dom.heuristic(sid, i) == (euclid if value == INF else expected)


def _sparse_grid(seed):
    """A 40x36 map at 0.25 m with about 1% of its cells obstacles."""
    rng = random.Random(seed)
    g = OccupancyGrid.empty(40, 36, 0.25)
    for y in range(g.height):
        for x in range(g.width):
            if rng.random() < 0.01:
                set_obstacle(g, x, y)
    return g


@pytest.mark.parametrize("source", ("sparse-1", "sparse-2", "open20"))
def test_collision_maps_agree_with_reference(source):
    # Every pose of the map, edges and corners included: each primitive's bit
    # in its chunk's collision map is set exactly where the reference finds a
    # swept pose in collision or the end cell off the map, and the
    # successors are the reference's.
    if source == "open20":
        grid = OccupancyGrid.load(shipped("maps/open20.map"))
    else:
        grid = _sparse_grid(source)
    footprint = RobotFootprint(1.2, 0.8)
    start = (grid.width // 2, grid.height // 2, 0)
    for dx, dy in footprint_cell_mask(footprint, grid.resolution, 16, 0):
        set_obstacle(grid, start[0] + dx, start[1] + dy, False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a goal cell too narrow for a field
        dom = LatticeDomain(grid, start, (start[0], start[1]), footprint=footprint)
    prims = shipped_primitives()
    # The map does not change, so each swept pose is checked once.
    collides = functools.lru_cache(maxsize=None)(
        lambda pose: footprint_collides(grid, pose, footprint, 16))
    maps = _collision_bytes(dom)
    hits = free = 0
    for y in range(grid.height):
        for x in range(grid.width):
            xy = y * grid.width + x
            for t in range(16):
                heading = [p for p in prims if p.theta_start == t]
                for k, p in enumerate(heading):
                    ex, ey, _ = p.end
                    blocked = not grid.in_bounds(x + ex, y + ey) or any(
                        collides((x + px, y + py, pt)) for px, py, pt in p.poses)
                    assert (maps[t][xy] >> k & 1) == blocked, (x, y, t, k)
                    hits += blocked
                    free += not blocked
                assert dom.successors(xy * 16 + t) == _reference_successors(
                    grid, footprint, 16, prims, (x, y, t), collides), (x, y, t)
    assert hits and free, (hits, free)


def test_scenario_file_parsing(tmp_path):
    path = tmp_path / "s.scen"
    path.write_text("# x y theta gx gy [gtheta]\n2 3 4 7 8\n\n2 3 4 7 8 1  # headed\n")
    assert load_scenarios(path) == [((2, 3, 4), (7, 8, None)), ((2, 3, 4), (7, 8, 1))]
    path.write_text("2 3 4 7 8\n0 0 x 5 5\n")
    with pytest.raises(ValueError, match=r"^line 2: non-integer field in '0 0 x 5 5'$"):
        load_scenarios(path)
    path.write_text("2 3 4\n7 8\n")  # start and goal on separate lines
    with pytest.raises(ValueError, match=r"^line 1: scenario line has 3 fields"):
        load_scenarios(path)


def test_map_missing_rows_names_the_line():
    with pytest.raises(ValueError, match=r"^line 3: expected 3 map rows, found 2$"):
        OccupancyGrid.parse("3 3 1\n...\n...\n")
    with pytest.raises(ValueError, match=r"^line 3: expected 1 map rows, found 2$"):
        OccupancyGrid.parse("3 1 1\n...\n...\n")
    with pytest.raises(ValueError, match=r"^line 1: bad map header"):
        OccupancyGrid.parse("3 -1 1\n")
