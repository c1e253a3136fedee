"""Command-line front end: solve single instances, run matrices, verify runs."""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import bench
from .bench import RunManifest, curve_csv
from .planner import MODES, Outcome
from .tiles import format_instance_line, random_solvable_board

MANIFEST_FIELDS = {f.name for f in dataclasses.fields(RunManifest)}


def _add_planner_flags(p: argparse.ArgumentParser) -> None:
    """Flags given no default here keep RunManifest's when not set."""
    p.add_argument("--algo", choices=MODES)
    p.add_argument("--w1", type=float, default=3.0)
    p.add_argument("--w2", type=float, default=2.0)
    p.add_argument("--dw1", type=float)
    p.add_argument("--dw2", type=float)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--clock", choices=("wall", "virtual"))
    p.add_argument("--tick", type=float)
    p.add_argument("--out", default=None, help="directory for curve + manifest output")
    p.add_argument("--print-path", action="store_true", default=False)


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    """A RunManifest of the manifest fields among the parsed flags."""
    return RunManifest(**{k: v for k, v in vars(args).items() if k in MANIFEST_FIELDS})


def _report(args, manifest: RunManifest, describe_path) -> int:
    """Run a manifest and print its records. `--out` gets the manifest before
    the run, as in a bench, so a run that publishes nothing can be replayed,
    and the curve after it."""
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.txt").write_text(manifest.to_text())
    records, planner, domain = bench.run_from_manifest(manifest)
    if out is not None:
        (out / "curve.csv").write_text(curve_csv(records))
    for rec in records:
        print(
            f"t={rec.elapsed:.6f}s cost={rec.cost} bound={rec.bound:g} "
            f"expansions={rec.expansions_total}"
        )
    if planner.outcome is Outcome.TIMED_OUT:
        print("time limit reached")
    if not records:
        print("no solution" if planner.outcome is Outcome.EXHAUSTED else "no solution published")
        return 2
    if args.print_path:
        for line in describe_path(domain, records[-1].path):
            print(line)
    return 0


def _cmd_solve_tiles(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args(args)
    if not manifest.board:
        board = random_solvable_board(args.width, args.height, manifest.seed)
        manifest.board = format_instance_line(board)
        print(f"instance: {manifest.board}")

    def describe(domain, path):
        for sid in path:
            yield format_instance_line(domain.board_of(sid))

    return _report(args, manifest, describe)


def _cmd_solve_grid(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args(args)

    def describe(domain, path):
        for sid in path:
            x, y, t = domain.pose_of(sid)
            yield f"{x} {y} {t}"

    return _report(args, manifest, describe)


def _cmd_bench(args: argparse.Namespace) -> int:
    out = bench.run_matrix(args.config, args.out)
    print(f"wrote {out / 'summary.csv'}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    manifest = RunManifest.from_text(Path(args.manifest).read_text())
    verdict, records, planner, optimal = bench.verify_manifest(manifest)
    if optimal is None:
        print("oracle unavailable (state cap exceeded); bound checks skipped")
    print(f"records: {len(records)}  expansions: {planner.expansions_total}")
    print(verdict)
    return 0 if verdict.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="amhastar",
        description="Anytime multi-heuristic search benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-tiles", help="solve one sliding-tile instance",
                       argument_default=argparse.SUPPRESS)
    _add_planner_flags(p)
    p.add_argument("--board", help="instance line: `w h t0 t1 ...`; default a random board")
    p.add_argument("--width", type=int, default=3)
    p.add_argument("--height", type=int, default=3)
    p.add_argument("--n-heur", type=int)
    p.set_defaults(func=_cmd_solve_tiles, domain="tiles")

    p = sub.add_parser("solve-grid", help="solve one lattice navigation instance",
                       argument_default=argparse.SUPPRESS)
    _add_planner_flags(p)
    p.add_argument("--map", required=True)
    p.add_argument("--start", help="`x y theta`")
    p.add_argument("--goal", help="`x y [theta]`")
    p.add_argument("--footprint")
    p.add_argument("--primitives")
    p.set_defaults(func=_cmd_solve_grid, domain="grid")

    p = sub.add_parser("bench", help="run an algorithms x instances matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="bench-out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="replay a manifest and check its guarantees")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:  # bad input: a file, a field or a flag
        print(err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
