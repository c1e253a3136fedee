"""Harness behavior: manifests, matrix runs, CSV schemas, replay determinism."""
import dataclasses
from pathlib import Path

import pytest

import amhastar
from amhastar.bench import (
    AGGREGATE_INSTANCE,
    CURVE_COLUMNS,
    SUMMARY_COLUMNS,
    RunManifest,
    parse_kv,
    run_from_manifest,
    run_matrix,
    verify_manifest,
)
from amhastar.tiles import format_instance_line, random_solvable_board


def tile_manifest(seed=0, **kw):
    board = random_solvable_board(3, 3, seed=seed)
    defaults = dict(
        algo="amha",
        domain="tiles",
        board=format_instance_line(board),
        w1=3.0,
        w2=2.0,
        clock="virtual",
        tick=1e-4,
        time_limit=60.0,
        seed=seed,
    )
    defaults.update(kw)
    return RunManifest(**defaults)


def write_config(tmp_path, boards, **overrides):
    inst = tmp_path / "boards.txt"
    inst.write_text("\n".join(boards) + "\n")
    values = dict(
        domain="tiles",
        algos="amha",
        instances="boards.txt",
        w1="3",
        w2="2",
        dw1="1",
        dw2="1",
        time_limit="60",
        clock="virtual",
        seed="0",
        n_heur="2",
        oracle="on",
    )
    values.update(overrides)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return cfg


def test_manifest_text_round_trip():
    m = tile_manifest(seed=3, algo="ara", w1=5.0, dw1=2.0)
    again = RunManifest.from_text(m.to_text())
    assert again == m


# Written by `amhastar bench --config configs/tiles3-demo.cfg` (amha--i003)
# while manifests still recorded the heap's tie order, the planner's exit
# test and the range of the tile weight draws, each with its one value.
LEGACY_MANIFEST = """\
manifest_version = 1
algo = amha
domain = tiles
w1 = 5.0
w2 = 5.0
dw1 = 2.0
dw2 = 2.0
time_limit = 30.0
clock = virtual
tick = 0.0001
termination = per_expansion
tie_break = high-g-low-id
seed = 0
board = 3 3 1 5 6 0 8 4 7 2 3
n_heur = 2
weight_lo = 0.0
weight_hi = 5.0
weights = 4.222109257625241:3.789772014701512:2.102857904154225,\
1.2945837514648169:2.5563736068430427:2.0246706872520717
map =
start =
goal =
footprint = rect:1.2x0.8
primitives = builtin16
"""


def test_legacy_manifest_is_rejected_and_replays_without_its_retired_keys():
    with pytest.raises(ValueError, match=r"^unknown manifest keys: \['termination', "
                       r"'tie_break', 'weight_hi', 'weight_lo'\]$"):
        RunManifest.from_text(LEGACY_MANIFEST)
    fields = {f.name for f in dataclasses.fields(RunManifest)} | {"manifest_version"}
    kept = [ln for ln in LEGACY_MANIFEST.splitlines() if ln.split(" =")[0] in fields]
    m = RunManifest.from_text("\n".join(kept))
    records, _, _ = run_from_manifest(m)
    # The curve the bench wrote for this manifest: t_s, cost, bound.
    assert [(f"{r.elapsed:.6f}", r.cost, r.bound) for r in records] == [
        ("0.011900", 39, 25.0), ("0.012000", 39, 9.0), ("0.023200", 23, 1.0)
    ]
    # to_text writes `map = ` with a trailing blank; the copy above has none.
    assert [ln.rstrip() for ln in m.to_text().splitlines()] == kept


def test_manifest_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunManifest.from_text("manifest_version = 1\nbogus = 1\n")


def test_parse_kv_comments_and_errors():
    assert parse_kv("a = 1 # note\n\n# full comment\nb = x y\n") == {"a": "1", "b": "x y"}
    with pytest.raises(ValueError, match=r"^line 2: expected key = value"):
        parse_kv("a = 1\nnot a pair\n")
    with pytest.raises(ValueError, match=r"^line 3: key 'w1' given twice$"):
        parse_kv("w1 = 2\n# note\nw1 = 3\n")


def test_run_from_manifest_records_weights():
    m = tile_manifest(seed=4, n_heur=3)
    records, planner, domain = run_from_manifest(m)
    assert records
    assert len(m.weights.split(",")) == 3
    assert m.weights == ",".join(
        ":".join(repr(x) for x in t) for t in domain.weights
    )


def test_recorded_weights_override_seed_on_replay():
    m = tile_manifest(seed=4, n_heur=2)
    run_from_manifest(m)  # fills m.weights from the seed draw
    replay = RunManifest.from_text(m.to_text())
    replay.seed = 999  # a different seed must not matter now
    _, _, domain = run_from_manifest(replay)
    expected = [tuple(float(x) for x in t.split(":")) for t in m.weights.split(",")]
    assert list(domain.weights) == expected


def test_matrix_single_instance_single_algo(tmp_path):
    board = format_instance_line(random_solvable_board(3, 3, seed=1))
    cfg = write_config(tmp_path, [board])
    out = run_matrix(cfg, tmp_path / "out")
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == SUMMARY_COLUMNS
    assert len(lines) == 3  # header + 1 data row + 1 aggregate row
    assert lines[1].startswith("i000,amha,1,")
    assert lines[2].startswith(f"{AGGREGATE_INSTANCE},amha,100.00,")
    curve = (out / "curves" / "amha--i000.csv").read_text().splitlines()
    assert curve[0] == CURVE_COLUMNS
    manifest = RunManifest.from_text((out / "manifests" / "amha--i000.txt").read_text())
    assert manifest.board == board
    verdicts = (out / "verdicts.txt").read_text()
    assert "PASS" in verdicts and "FAIL" not in verdicts


def test_oneshot_rows_have_flat_bounds(tmp_path):
    board = format_instance_line(random_solvable_board(3, 3, seed=2))
    cfg = write_config(tmp_path, [board], algos="mha", w1="5", w2="5")
    out = run_matrix(cfg, tmp_path / "out")
    data = (out / "summary.csv").read_text().splitlines()[1]
    fields = data.split(",")
    assert fields[5] == fields[6] == "25"  # eps_initial == eps_final == w1*w2


def test_matrix_isolates_bad_instances(tmp_path):
    good = format_instance_line(random_solvable_board(3, 3, seed=5))
    bad = "3 3 0 1 2 3 4 5 6 8 7"  # unsolvable permutation
    cfg = write_config(tmp_path, [good, bad])
    out = run_matrix(cfg, tmp_path / "out")
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[1].startswith("i000,amha,1,")
    assert lines[2] == "i001,amha,0,,,,,,,0"
    agg = lines[3].split(",")
    assert agg[2] == "50.00"
    assert "ERROR" in (out / "verdicts.txt").read_text()


def test_budget_cut_run_keeps_its_expansions_out_of_the_mean(tmp_path):
    # A 10-tick budget: board i000 expands but publishes nothing, board i001
    # (one move from the goal) publishes. summary.csv is a frozen format, so
    # the rows are pinned byte for byte.
    far = format_instance_line(random_solvable_board(3, 3, seed=1))
    cfg = write_config(tmp_path, [far, "3 3 1 0 2 3 4 5 6 7 8"], time_limit="0.001",
                       oracle="off")
    out = run_matrix(cfg, tmp_path / "out")
    assert (out / "summary.csv").read_text().splitlines()[1:] == [
        "i000,amha,0,,,,,,,11",
        "i001,amha,1,0.000200,0.000400,6,1,1,1,1",
        f"{AGGREGATE_INSTANCE},amha,50.00,0.000200,0.000400,6,1,1.00,1.00,1.0",
    ]
    assert (out / "curves" / "amha--i000.csv").read_text() == CURVE_COLUMNS + "\n"


def test_algo_whose_every_run_fails_has_an_empty_mean(tmp_path):
    far = format_instance_line(random_solvable_board(3, 3, seed=1))
    cfg = write_config(tmp_path, [far], time_limit="0.001", oracle="off")
    out = run_matrix(cfg, tmp_path / "out")
    assert (out / "summary.csv").read_text().splitlines()[1:] == [
        "i000,amha,0,,,,,,,11",
        f"{AGGREGATE_INSTANCE},amha,0.00,,,,,,,",
    ]


def test_replay_is_byte_identical_under_virtual_clock(tmp_path):
    boards = [format_instance_line(random_solvable_board(3, 3, seed=s)) for s in (7, 8)]
    cfg = write_config(tmp_path, boards, algos="amha,ara,mha,wastar", w1="4", w2="2",
                       oracle="off")
    out1 = run_matrix(cfg, tmp_path / "one")
    out2 = run_matrix(cfg, tmp_path / "two")
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    for curve in sorted((out1 / "curves").iterdir()):
        twin = out2 / "curves" / curve.name
        assert curve.read_bytes() == twin.read_bytes()


def test_curve_rows_strictly_increasing_time(tmp_path):
    m = tile_manifest(seed=9, w1=5.0, w2=5.0, dw1=2.0, dw2=2.0)
    records, _, _ = run_from_manifest(m)
    times = [r.elapsed for r in records]
    assert all(a < b for a, b in zip(times, times[1:]))
    costs = [r.cost for r in records]
    bounds = [r.bound for r in records]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def test_grid_matrix_runs(tmp_path):
    import amhastar

    map_src = Path(amhastar.__file__).parent / "data" / "maps" / "yard30.map"
    (tmp_path / "yard.map").write_text(map_src.read_text())
    (tmp_path / "runs.scen").write_text("3 15 0 26 15\n")
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "domain = grid\n"
        "algos = amha,ara\n"
        "map = yard.map\n"
        "scenarios = runs.scen\n"
        "footprint = rect:0.6x0.4\n"
        "w1 = 3\nw2 = 2\ndw1 = 1\ndw2 = 1\n"
        "time_limit = 60\nclock = virtual\noracle = on\n"
    )
    out = run_matrix(cfg, tmp_path / "out")
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 + 2
    assert all("FAIL" not in ln for ln in (out / "verdicts.txt").read_text().splitlines())


def test_verify_manifest_passes_for_honest_run():
    verdict, records, planner, optimal = verify_manifest(tile_manifest(seed=11))
    assert records and optimal == records[-1].cost
    assert verdict.passed, verdict.failures


def test_verify_manifest_builds_each_tile_table_once(monkeypatch):
    from amhastar import bench

    sizes = []
    build = bench.tile_goal_distances

    def counted_build(*size):
        sizes.append(size)
        return build(*size)

    monkeypatch.setattr(bench, "tile_goal_distances", counted_build)
    bench._tile_table.cache_clear()
    _, records, _, optimal = verify_manifest(tile_manifest(seed=11))
    assert optimal == records[-1].cost
    verify_manifest(tile_manifest(seed=12))
    assert sizes == [(3, 3)]


def test_verify_manifest_runs_the_oracle_on_the_runs_own_domain(monkeypatch):
    yard = Path(amhastar.__file__).parent / "data" / "maps" / "yard30.map"
    manifest = RunManifest(algo="amha", domain="grid", map=str(yard), start="3 15 0",
                           goal="26 15", footprint="rect:0.6x0.4", w1=3.0, w2=2.0,
                           clock="virtual")
    built = []
    real = RunManifest.build_domain
    monkeypatch.setattr(RunManifest, "build_domain", lambda m: built.append(m) or real(m))
    verdict, records, _, optimal = verify_manifest(manifest)
    assert len(built) == 1
    assert verdict.passed and records and optimal <= records[-1].cost


def test_grid_manifest_with_primitive_file(tmp_path):
    from amhastar.grid import BUILTIN_PRIMITIVES, OccupancyGrid, load_primitives
    from helpers import save_primitives

    map_path = tmp_path / "m.map"
    map_path.write_text(OccupancyGrid.empty(15, 15, 1.0).to_text())
    prim_path = tmp_path / "p.mprim"
    save_primitives(load_primitives(BUILTIN_PRIMITIVES)[0], 16, prim_path)
    manifest = RunManifest(
        algo="wastar", domain="grid", map=str(map_path),
        start="3 7 0", goal="11 7", footprint="rect:0.4x0.3",
        primitives=str(prim_path), w1=2.0, clock="virtual",
    )
    records, planner, domain = run_from_manifest(manifest)
    assert records and records[0].cost > 0
    assert len(domain.primitives) == 64


def test_grid_manifest_with_a_four_heading_primitive_file(tmp_path):
    from amhastar.grid import MotionPrimitive, OccupancyGrid, heading_vector
    from helpers import save_primitives

    map_path = tmp_path / "m.map"
    map_path.write_text(OccupancyGrid.empty(15, 15, 1.0).to_text())
    prim_path = tmp_path / "p.mprim"
    prims = []
    for t in range(4):
        vx, vy = heading_vector(4, t)
        prims.append(MotionPrimitive(t, t, 1000, ((0, 0, t), (vx, vy, t))))
        prims.append(MotionPrimitive(t, (t + 1) % 4, 500, ((0, 0, t), (0, 0, (t + 1) % 4))))
    save_primitives(prims, 4, prim_path)
    manifest = RunManifest(algo="wastar", domain="grid", map=str(map_path), start="3 7 0",
                           goal="11 7 2", footprint="rect:0.4x0.3", primitives=str(prim_path),
                           w1=2.0, clock="virtual")
    records, _, domain = run_from_manifest(manifest)
    assert domain.num_headings == 4 and domain.primitives == prims
    assert domain.pose_of(records[-1].path[-1]) == (11, 7, 2)


@pytest.mark.parametrize("domain", ["tiles", "grid"])
def test_build_domain_leaves_the_manifest_text_unchanged(domain):
    # A tiles manifest holds its drawn weights from the start, so a manifest
    # written before its run replays it.
    yard = Path(amhastar.__file__).parent / "data" / "maps" / "yard30.map"
    manifest = tile_manifest(seed=5, n_heur=3) if domain == "tiles" else RunManifest(
        domain="grid", map=str(yard), start="3 15 0", goal="26 15")
    text = manifest.to_text()
    manifest.build_domain()
    assert manifest.to_text() == text
    assert RunManifest.from_text(text) == manifest


def test_tiles_manifest_weights_are_drawn_from_its_seed_or_kept():
    from amhastar.tiles import draw_weights

    drawn = tile_manifest(seed=5, n_heur=3)
    assert drawn.build_domain().weights == draw_weights(3, 5)
    given = tile_manifest(seed=5, n_heur=1, weights="1:2:3.5")
    assert given.weights == "1.0:2.0:3.5"
    assert given.build_domain().weights == ((1.0, 2.0, 3.5),)
    assert tile_manifest(n_heur=0).weights == ""


def test_from_values_coerces_by_field_type():
    m = RunManifest.from_values({"w1": "2.5", "seed": "7", "clock": "virtual"})
    assert (m.w1, m.seed, m.clock, m.w2) == (2.5, 7, "virtual", 1.0)
    with pytest.raises(ValueError, match=r"^seed = '1.5': expected int$"):
        RunManifest.from_values({"seed": "1.5"})


@pytest.mark.parametrize("change, message", [
    (dict(w_1="9"), r"unknown manifest keys: \['w_1'\]"),
    (dict(w1="x"), r"w1 = 'x': expected float"),
    (dict(n_heur="two"), r"n_heur = 'two': expected int"),
    (dict(algo="ara"), r"\['algo'\] are set per run"),
    (dict(oracle="yes"), r"oracle = 'yes': expected on or off"),
    (dict(weights="1:2:3"),
     r"^weights = '1:2:3': expected one triple per heuristic \(n_heur = 2\), got 1$"),
    (dict(instances="missing.txt"), r"instances = missing.txt: .*No such file"),
    (dict(algos="amha, amah"), r"^algos = 'amha, amah': unknown modes \['amah'\]"),
    (dict(clock="wal"), r"^clock = 'wal': expected wall or virtual$"),
    (dict(w1="0.5"), r"^w1 = 0.5: expected >= 1$"),
    (dict(time_limit="nan"), r"^time_limit = nan: expected >= 0$"),
    (dict(time_limit="-1"), r"^time_limit = -1.0: expected >= 0$"),
    (dict(tick="inf"), r"^tick = inf: expected finite$"),
    (dict(w2="0.5"), r"^w2 = 0.5: expected >= 1$"),
    (dict(out="elsewhere"), r"^unknown manifest keys: \['out'\]$"),
    (dict(n_heur="-1"), r"^n_heur = -1: expected >= 0$"),
    (dict(domain="grid"), r"^bench config needs map = <file> for domain grid$"),
    (dict(algos="astar"),
     r"^algos = 'astar': unknown modes \['astar'\], expected some of amha, mha, ara, wastar$"),
])
def test_bad_config_is_rejected_before_any_run(tmp_path, change, message):
    board = format_instance_line(random_solvable_board(3, 3, seed=1))
    cfg = write_config(tmp_path, [board], **change)
    with pytest.raises(ValueError, match=message):
        run_matrix(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("board", "3 3 1 2 x 4 5 6 7 8 0", "non-integer field"),
    ("start", "3 x 0", "expected 3 integers"),
    ("goal", "26", "expected 2 or 3 integers"),
    # Each weight triple must be three finite numbers >= 0, one per heuristic.
    ("weights", "1:2", r"weight triple \(1.0, 2.0\): expected three finite numbers >= 0$"),
    ("weights", "1:2:3:4", r"weight triple \(1.0, 2.0, 3.0, 4.0\): expected three finite"),
    ("weights", "a:b:c", "could not convert string to float: 'a'$"),
    ("weights", "nan:1:1", r"weight triple \(nan, 1.0, 1.0\): expected three finite"),
    ("weights", "-1:2:3", r"weight triple \(-1.0, 2.0, 3.0\): expected three finite"),
    ("weights", "inf:0:0", r"weight triple \(inf, 0.0, 0.0\): expected three finite"),
    ("weights", "1:2:3,4:5:6", r"expected one triple per heuristic \(n_heur = 1\), got 2$"),
])
def test_build_domain_names_a_bad_text_field(key, value, message):
    yard = Path(amhastar.__file__).parent / "data" / "maps" / "yard30.map"
    fields = dict(board=dict(domain="tiles"),
                  start=dict(domain="grid", map=str(yard), goal="26 15"),
                  goal=dict(domain="grid", map=str(yard), start="3 15 0"),
                  weights=dict(domain="tiles", board="3 3 1 2 0 3 4 5 6 7 8", n_heur=1))[key]
    # A bad weights value is rejected when the manifest is made, the rest
    # when its domain is built.
    with pytest.raises(ValueError, match=rf"^{key} = '{value}': {message}"):
        RunManifest(**fields, **{key: value}).build_domain()


@pytest.mark.parametrize("key, value", [("map", ""), ("map", "nope.map"),
                                        ("primitives", "nope.mprim")])
def test_build_domain_names_a_missing_file(key, value):
    yard = Path(amhastar.__file__).parent / "data" / "maps" / "yard30.map"
    manifest = RunManifest(**{**dict(domain="grid", map=str(yard), start="3 15 0", goal="26 15"),
                              key: value})
    with pytest.raises(ValueError, match=rf"^{key} = '{value}': .*No such file"):
        manifest.build_domain()


def test_malformed_board_line_names_the_line(tmp_path):
    good = format_instance_line(random_solvable_board(3, 3, seed=1))
    cfg = write_config(tmp_path, ["# boards", good, "3 3 1 2 x 4 5 6 7 8 0"])
    with pytest.raises(ValueError, match=r"^instances = boards.txt: line 3: non-integer field"):
        run_matrix(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_the_manifest_default_footprint_is_the_lattice_domains():
    from amhastar.bench import parse_footprint
    from amhastar.grid import LatticeDomain, OccupancyGrid

    domain = LatticeDomain(OccupancyGrid.empty(15, 15, 1.0), (3, 7, 0), (11, 7))
    assert RunManifest.footprint == "rect:1.2x0.8"
    assert parse_footprint(RunManifest.footprint) == domain.footprint


def grid_config(tmp_path, scenario, **extra):
    from amhastar.grid import OccupancyGrid

    (tmp_path / "m.map").write_text(OccupancyGrid.empty(15, 15, 1.0).to_text())
    (tmp_path / "q.scen").write_text(scenario)
    values = dict(domain="grid", algos="wastar", map="m.map", scenarios="q.scen",
                  footprint="rect:0.4x0.3", w1="2", clock="virtual")
    values.update(extra)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return cfg


@pytest.mark.parametrize("key, value", [("map", "nope.map"), ("primitives", "nope.mprim")])
def test_grid_config_with_a_missing_file_is_rejected_before_any_run(tmp_path, key, value):
    cfg = grid_config(tmp_path, "3 7 0 11 7\n", algos="wastar,amha", **{key: value})
    with pytest.raises(ValueError, match=rf"^{key} = {value}: no such file .*{value}$"):
        run_matrix(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_grid_config_with_a_bad_footprint_is_rejected_before_any_run(tmp_path):
    cfg = grid_config(tmp_path, "3 7 0 11 7\n", footprint="rect:nanx1")
    with pytest.raises(ValueError, match=r"^footprint = 'rect:nanx1': expected rect:LxW"):
        run_matrix(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_non_integer_scenario_field_names_the_line(tmp_path):
    cfg = grid_config(tmp_path, "3 7 0 11 7\n3 7 0 1l 7\n")
    with pytest.raises(ValueError, match=r"^scenarios = q.scen: line 2: non-integer field"):
        run_matrix(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_grid_config_primitives_relative_to_the_config(tmp_path, monkeypatch):
    from amhastar.grid import BUILTIN_PRIMITIVES, load_primitives
    from helpers import save_primitives

    config_dir = tmp_path / "cfg"
    config_dir.mkdir()
    save_primitives(load_primitives(BUILTIN_PRIMITIVES)[0], 16, config_dir / "p.mprim")
    cfg = grid_config(config_dir, "3 7 0 11 7\n", primitives="p.mprim")
    monkeypatch.chdir(tmp_path)  # the paths must not depend on the working directory
    out = run_matrix(cfg, tmp_path / "out")
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("i000,wastar,1,")
    manifest = RunManifest.from_text((out / "manifests" / "wastar--i000.txt").read_text())
    assert manifest.primitives == str((config_dir / "p.mprim").resolve())
    assert (manifest.start, manifest.goal) == ("3 7 0", "11 7")
