"""CLI surface: each subcommand end to end via main()."""
import re
import shlex
from pathlib import Path

import pytest

import amhastar
from amhastar.bench import RunManifest
from amhastar.cli import main
from amhastar.tiles import format_instance_line, goal_board, random_solvable_board

MAPS = Path(amhastar.__file__).parent / "data" / "maps"
YARD = ["solve-grid", "--map", str(MAPS / "yard30.map")]


def test_solve_tiles_board(capsys, tmp_path):
    board = format_instance_line(random_solvable_board(3, 3, seed=6))
    code = main([
        "solve-tiles", "--board", board, "--algo", "amha",
        "--w1", "3", "--w2", "2", "--clock", "virtual",
        "--out", str(tmp_path / "run"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "cost=" in out and "bound=1" in out
    assert (tmp_path / "run" / "curve.csv").exists()
    assert (tmp_path / "run" / "manifest.txt").exists()


def test_solve_tiles_random_seeded(capsys):
    code = main(["solve-tiles", "--seed", "9", "--algo", "wastar", "--w1", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("instance: 3 3 ")


def test_solve_grid_with_flags(capsys):
    code = main([
        "solve-grid", "--map", str(MAPS / "yard30.map"),
        "--start", "3 15 0", "--goal", "26 15",
        "--footprint", "rect:0.6x0.4", "--algo", "amha",
        "--w1", "2", "--w2", "2", "--print-path",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "cost=" in out
    assert "3 15 0" in out  # path starts at the start pose


def test_solve_grid_requires_start_or_scenario(capsys):
    code = main(["solve-grid", "--map", str(MAPS / "yard30.map")])
    assert code == 2
    assert capsys.readouterr().err == "start = '': expected 3 integers\n"


def test_solve_grid_bad_start_names_the_flag(capsys):
    code = main(["solve-grid", "--map", str(MAPS / "yard30.map"),
                 "--start", "3 x 0", "--goal", "26 15"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "start = '3 x 0': expected 3 integers\n"


@pytest.mark.parametrize("argv, fields, message", [
    (["solve-grid", "--map", "nope.map", "--start", "3 15 0", "--goal", "26 15"], None,
     "No such file or directory: 'nope.map'"),
    (["verify"], None, "No such file or directory"),
    (["verify"], dict(map=""), "map = '': [Errno 2] No such file or directory: ''"),
    (["verify"], dict(start="3 x 0"), "start = '3 x 0': expected 3 integers"),
    (["verify"], dict(algo="amah"),
     "algo = 'amah': expected one of amha, mha, ara, wastar"),
    (["verify"], dict(domain="foo"), "domain = 'foo': expected tiles or grid"),
    *[(YARD + ["--start", "3 15 0", "--goal", "26 15", "--footprint", f], None,
       f"footprint = '{f}': expected rect:LxW, two finite positive lengths")
      for f in ("rect:infx1", "rect:1e400x1", "rect:nanx1", "rect:1x2x3")],
    (YARD + ["--start", "3 15 0", "--goal", "26 15 16"], None,
     "goal heading outside the configured fan"),
    (YARD + ["--start", "3 15 0", "--goal", "26 15", "--footprint", "rect:50x1"], None,
     "footprint reaches 25.005 m from the pose, beyond the map diagonal of 21.2132 m"),
    *[(["solve-tiles", "--board", "3 3 1 2 3 4 5 6 7 0 8", flag, "inf"], None,
       f"{key} = inf: expected finite") for flag, key in (("--w1", "w1"), ("--w2", "w2"))],
    *[(["solve-tiles", "--board", "3 3 1 2 3 4 5 6 7 0 8", *flags], None, message)
      for flags, message in ((["--time-limit", "nan"], "time_limit = nan: expected >= 0"),
                             (["--time-limit", "-1"], "time_limit = -1.0: expected >= 0"),
                             (["--tick", "inf"], "tick = inf: expected finite"),
                             (["--n-heur", "-1"], "n_heur = -1: expected >= 0"))],
    (["solve-tiles", "--seed", "1", "--w1", "1e20", "--w2", "1", "--clock", "virtual",
      "--time-limit", "1"], None, "dw1 = 1.0: expected >= 32768, so each step lowers the weight"),
    (["solve-tiles", "--width", "17", "--height", "16"], None,
     "board 17x16 has 272 cells: at most 256, one byte per tile"),
    (["solve-tiles", "--board", "17 16 " + " ".join(map(str, range(272)))], None,
     "board = '17 16 0 1 2"),
], ids=["solve-grid-missing-map", "verify-missing-manifest", "verify-empty-map",
        "verify-bad-start", "verify-bad-algo", "verify-unknown-domain", "footprint-inf", "footprint-1e400", "footprint-nan",
        "footprint-three-sides", "goal-heading-16", "footprint-beyond-map", "w1-inf", "w2-inf",
        "time-limit-nan", "time-limit-negative", "tick-inf", "n-heur-negative",
        "w1-step-below-two-ulps", "board-over-256-cells", "board-line-over-256-cells"])
def test_bad_input_prints_its_message_and_exits_2(capsys, tmp_path, argv, fields, message):
    if argv == ["verify"]:
        path = tmp_path / "run.txt"
        argv = argv + ["--manifest", str(path)]
        if fields is not None:
            grid = dict(domain="grid", map=str(MAPS / "yard30.map"), start="3 15 0",
                        goal="26 15", clock="virtual")
            path.write_text(RunManifest(**{**grid, **fields}).to_text())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and message in err, err


def test_print_path_prints_the_boards_from_start_to_goal(capsys):
    board = format_instance_line(random_solvable_board(3, 3, seed=6))
    assert main(["solve-tiles", "--board", board, "--clock", "virtual", "--print-path"]) == 0
    lines = capsys.readouterr().out.splitlines()
    first = lines.index(board)
    final, boards = lines[first - 1], lines[first:]
    assert boards[-1] == format_instance_line(goal_board(3, 3))
    assert len(boards) == int(final.split("cost=")[1].split()[0]) + 1
    for a, b in zip(boards, boards[1:]):
        a, b = a.split()[2:], b.split()[2:]
        moved = [i for i in range(9) if a[i] != b[i]]
        assert len(moved) == 2 and "0" in (a[moved[0]], a[moved[1]])  # one blank move


def test_verify_past_the_oracle_cap_skips_the_bound_checks(capsys, monkeypatch, tmp_path):
    from amhastar import bench

    oracle = bench.uniform_cost_optimal
    monkeypatch.setattr(bench, "uniform_cost_optimal", lambda domain: oracle(domain, 1))
    path = tmp_path / "run.txt"
    path.write_text(RunManifest(domain="grid", map=str(MAPS / "yard30.map"), start="3 15 0",
                                goal="26 15", clock="virtual").to_text())
    assert main(["verify", "--manifest", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "oracle unavailable (state cap exceeded); bound checks skipped"
    assert out[-1] == "PASS"


def test_unset_solve_flags_take_the_manifest_defaults(tmp_path):
    # Only --w1 3 and --w2 2 are the CLI's own defaults.
    board = format_instance_line(random_solvable_board(3, 3, seed=6))
    assert main(["solve-tiles", "--board", board, "--out", str(tmp_path)]) == 0
    expected = RunManifest(domain="tiles", board=board, w1=3.0, w2=2.0)
    assert (tmp_path / "manifest.txt").read_text() == expected.to_text()


def test_no_solution_exit_code(capsys, tmp_path):
    # A virtual budget of zero publishes nothing. `--out` gets the manifest
    # before the run, so the run can still be replayed.
    out = tmp_path / "nosol"
    code = main(["solve-tiles", "--seed", "3", "--clock", "virtual", "--time-limit", "0",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out.splitlines()[-1] == "no solution published"
    assert (out / "curve.csv").read_text() == "t_s,cost,bound\n"
    assert main(["verify", "--manifest", str(out / "manifest.txt")]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["records: 0  expansions: 1", "PASS"]


def test_algo_choices_are_the_four_modes(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["solve-tiles", "--seed", "1", "--algo", "astar"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'astar'" in err
    assert re.findall(r"\w+", err.split("choose from", 1)[1]) == ["amha", "mha", "ara", "wastar"]


def test_bench_and_verify_round_trip(capsys, tmp_path):
    boards = [format_instance_line(random_solvable_board(3, 3, seed=s)) for s in (1, 2)]
    (tmp_path / "boards.txt").write_text("\n".join(boards) + "\n")
    (tmp_path / "bench.cfg").write_text(
        "domain = tiles\nalgos = amha,mha\ninstances = boards.txt\n"
        "w1 = 3\nw2 = 2\ndw1 = 1\ndw2 = 1\ntime_limit = 30\n"
        "clock = virtual\nseed = 0\nn_heur = 2\noracle = off\n"
    )
    code = main(["bench", "--config", str(tmp_path / "bench.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 4 + 2

    code = main(["verify", "--manifest", str(tmp_path / "out" / "manifests" / "amha--i000.txt")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_bench_and_verify_default_to_the_one_oracle_cap(monkeypatch, tmp_path):
    from amhastar import bench
    from amhastar.grid import OccupancyGrid

    caps = []
    oracle = bench.uniform_cost_optimal

    def recording_oracle(domain, *cap):
        caps.append(cap)
        return oracle(domain, *cap)

    monkeypatch.setattr(bench, "uniform_cost_optimal", recording_oracle)
    (tmp_path / "m.map").write_text(OccupancyGrid.empty(15, 15, 1.0).to_text())
    (tmp_path / "q.scen").write_text("3 7 0 11 7\n")
    (tmp_path / "grid.cfg").write_text(
        "domain = grid\nalgos = wastar\nmap = m.map\nscenarios = q.scen\n"
        "footprint = rect:0.4x0.3\nw1 = 2\nclock = virtual\noracle = on\n"
    )
    assert main(["bench", "--config", str(tmp_path / "grid.cfg"),
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "verdicts.txt").read_text() == "wastar--i000 PASS\n"
    assert main(["verify", "--manifest",
                 str(tmp_path / "out" / "manifests" / "wastar--i000.txt")]) == 0
    assert caps == [(), ()]  # both runs take the oracle's one cap, ORACLE_CAP


def test_demo_wastar_reopenings_pass_bench_and_verify(capsys, tmp_path):
    # Boards i002 and i006 of the 8-puzzle demo, where weighted A* reopens
    # closed states: no verdict may count that as an expansion-limit failure.
    from amhastar.bench import RunManifest, parse_kv, verify_manifest

    configs = Path(__file__).resolve().parents[1] / "configs"
    values = parse_kv((configs / "tiles3-demo.cfg").read_text())
    boards = [ln.strip() for ln in (configs / values["instances"]).read_text().splitlines()
              if ln.strip() and not ln.startswith("#")]
    (tmp_path / "boards.txt").write_text(f"{boards[2]}\n{boards[6]}\n")
    values.update(algos="wastar", instances="boards.txt")
    (tmp_path / "bench.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["bench", "--config", str(tmp_path / "bench.cfg"),
                 "--out", str(tmp_path / "out")]) == 0
    verdicts = (tmp_path / "out" / "verdicts.txt").read_text()
    assert verdicts == "wastar--i000 PASS\nwastar--i001 PASS\n"

    manifests = tmp_path / "out" / "manifests"
    assert main(["verify", "--manifest", str(manifests / "wastar--i000.txt")]) == 0
    assert "PASS" in capsys.readouterr().out
    verdict, *_ = verify_manifest(
        RunManifest.from_text((manifests / "wastar--i001.txt").read_text()))
    assert verdict.passed


def readme_commands():
    """Every `amhastar ...` command of README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(c)[1:] for c in commands if c.startswith("amhastar ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # Relative paths in the README are from the repository root; outputs land
    # in tmp_path, where `configs` and `src` are linked in.
    root = Path(__file__).resolve().parents[1]
    for name in ("configs", "src"):
        (tmp_path / name).symlink_to(root / name)
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"solve-tiles", "solve-grid", "bench", "verify"}
    for argv in commands:
        assert main(argv) == 0, argv
    assert (tmp_path / "run1" / "manifest.txt").exists()
    assert (tmp_path / "bench-out" / "summary.csv").exists()
    assert capsys.readouterr().out.rstrip().endswith("PASS")
