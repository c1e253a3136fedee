"""Benchmark harness: manifests, run matrices, and metric CSVs.

A RunManifest pins everything needed to replay one run: domain instance,
algorithm, weight schedule, seed, clock and budget. run_matrix executes an
algorithms x instances grid from a key=value config file and writes

  summary.csv   one row per run plus one aggregate row per algorithm,
                columns: instance,algo,success,t_initial_s,t_final_s,
                eps_initial,eps_final,cost_initial,cost_final,expansions
  curves/<run-id>.csv   the anytime curve, columns: t_s,cost,bound
  manifests/<run-id>.txt   the replayable manifest, written before the run
  verdicts.txt  per-run guarantee checks, when an oracle is configured: each
                published path replayed through the run's domain, and the
                bounds against the optimum, which for a board of at most 9
                cells comes from one exhaustive table per board size and
                for a lattice from the pose-graph oracle

Replays are byte-identical when the manifest uses the virtual clock; wall
clock timings vary by nature.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .domain import SearchDomain, _line_error
from .grid import (DEFAULT_FOOTPRINT, LatticeDomain, OccupancyGrid, RobotFootprint, load_primitives,
                   load_scenarios)
from .oracle import lattice_optimal, tile_goal_distances, uniform_cost_optimal
from .planner import MODES, Planner, PlannerConfig, SolutionRecord
from .tiles import (MAX_HEURISTICS, TilePuzzleDomain, draw_weights, format_instance_line,
                    load_instances, parse_instance_line, weight_triples)
from .verify import Verdict, verify_run

SUMMARY_COLUMNS = (
    "instance,algo,success,t_initial_s,t_final_s,eps_initial,eps_final,"
    "cost_initial,cost_final,expansions"
)
CURVE_COLUMNS = "t_s,cost,bound"
AGGREGATE_INSTANCE = "__mean__"
# Bench config keys that configure the harness, not a run.
HARNESS_KEYS = frozenset(("algos", "instances", "scenarios", "oracle"))
# RunManifest fields that each run of a bench takes from the harness keys.
PER_RUN_KEYS = frozenset(("algo", "board", "start", "goal"))


@dataclass
class RunManifest:
    """Replayable description of one run."""

    algo: str = PlannerConfig.algo
    domain: str = "tiles"
    w1: float = PlannerConfig.w1
    w2: float = PlannerConfig.w2
    dw1: float = PlannerConfig.dw1
    dw2: float = PlannerConfig.dw2
    time_limit: float = PlannerConfig.time_limit
    clock: str = PlannerConfig.clock
    tick: float = PlannerConfig.tick
    seed: int = 0
    # tiles
    board: str = ""
    n_heur: int = 2
    weights: str = ""
    # grid
    map: str = ""
    start: str = ""
    goal: str = ""
    footprint: str = f"rect:{DEFAULT_FOOTPRINT.length}x{DEFAULT_FOOTPRINT.width}"
    primitives: str = "builtin16"

    def __post_init__(self) -> None:
        if self.n_heur < 0:
            raise ValueError(f"n_heur = {self.n_heur}: expected >= 0")
        if self.n_heur > MAX_HEURISTICS:
            raise ValueError(f"n_heur = {self.n_heur}: expected at most "
                             f"MAX_HEURISTICS = {MAX_HEURISTICS}")
        if self.domain == "tiles":
            # An empty `weights` is filled with `draw_weights(n_heur, seed)`, so
            # a saved manifest replays the exact run even if the drawing scheme
            # ever changes; a given one is checked.
            triples = (_parse_field("weights", self.weights, _weight_triples) if self.weights
                       else draw_weights(self.n_heur, self.seed))
            if len(triples) != self.n_heur:
                raise ValueError(f"weights = {self.weights!r}: expected one triple per "
                                 f"heuristic (n_heur = {self.n_heur}), got {len(triples)}")
            self.weights = ",".join(":".join(map(repr, triple)) for triple in triples)

    def to_text(self) -> str:
        lines = ["manifest_version = 1"]
        for f in dataclasses.fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunManifest":
        values = parse_kv(text)
        version = values.pop("manifest_version", "1")
        if version != "1":
            raise ValueError(f"manifest_version = {version!r}: expected 1")
        return cls.from_values(values)

    @classmethod
    def from_values(cls, values: dict[str, str]) -> "RunManifest":
        """A manifest from `key = value` strings, each coerced to the type of
        its field's default; a key that is no field is rejected."""
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        unknown = sorted(set(values) - set(defaults))
        if unknown:
            raise ValueError(f"unknown manifest keys: {unknown}")
        kwargs = {}
        for key, raw in values.items():
            kind = type(defaults[key])
            try:
                kwargs[key] = kind(raw)
            except ValueError:
                raise ValueError(f"{key} = {raw!r}: expected {kind.__name__}") from None
        return cls(**kwargs)

    def build_domain(self) -> SearchDomain:
        if self.domain == "tiles":
            board = _parse_field("board", self.board, parse_instance_line)
            return TilePuzzleDomain(board, _weight_triples(self.weights))
        if self.domain == "grid":
            grid = _parse_field("map", self.map, OccupancyGrid.load)
            start, goal = self.query()
            primitives = (None if self.primitives == "builtin16" else
                          _parse_field("primitives", self.primitives, load_primitives))
            return LatticeDomain(
                grid,
                start,
                goal,
                primitives=primitives,
                footprint=_parse_field("footprint", self.footprint, parse_footprint),
            )
        raise ValueError(f"domain = {self.domain!r}: expected tiles or grid")

    def query(self) -> tuple[tuple[int, int, int], tuple[int, int, Optional[int]]]:
        """A grid manifest's start pose, and its goal cell and heading (None
        for any)."""
        start = tuple(_ints("start", self.start, (3,)))
        gx, gy, *gt = _ints("goal", self.goal, (2, 3))
        return start, (gx, gy, gt[0] if gt else None)  # type: ignore[return-value]

    def build_config(self, record_expansions: bool = False) -> PlannerConfig:
        """The run's PlannerConfig, whose fields share the manifest's keys; a
        field out of range raises ValueError naming it."""
        keys = {f.name for f in dataclasses.fields(PlannerConfig)} & vars(self).keys()
        return PlannerConfig(record_expansions=record_expansions,
                             **{key: getattr(self, key) for key in keys})


def parse_kv(text: str) -> dict[str, str]:
    """Line-oriented `key = value` with '#' comments; a key may appear once."""
    values: dict[str, str] = {}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _line_error(n, f"expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise _line_error(n, f"key {key!r} given twice")
        values[key] = value
    return values


def _weight_triples(text: str) -> tuple[tuple[float, float, float], ...]:
    """The `a:b:c,...` weight triples of a manifest's `weights` field."""
    return weight_triples(triple.split(":") for triple in text.split(",")) if text else ()


def _ints(key: str, text: str, counts: tuple[int, ...]) -> list[int]:
    """The integers of a manifest field, which must hold one of `counts`."""
    try:
        values = [int(v) for v in text.split()]
    except ValueError:
        values = []
    if len(values) not in counts:
        expected = " or ".join(map(str, counts))
        raise ValueError(f"{key} = {text!r}: expected {expected} integers")
    return values


def _parse_field(key: str, value: str, parse):
    """`parse(value)` for a manifest field, such as a file to load; its
    errors name the key."""
    try:
        return parse(value)
    except (OSError, ValueError) as err:
        raise ValueError(f"{key} = {value!r}: {err}") from None


def parse_footprint(text: str) -> RobotFootprint:
    """`rect:LxW`, the footprint `RobotFootprint(L, W)`."""
    dims = text[5:].split("x") if text.startswith("rect:") else []
    try:
        length, width = map(float, dims)
        return RobotFootprint(length, width)
    except ValueError:
        raise ValueError("expected rect:LxW, two finite positive lengths in metres") from None


def run_from_manifest(
    manifest: RunManifest,
    record_expansions: bool = False,
    observer=None,
) -> tuple[list[SolutionRecord], Planner, SearchDomain]:
    domain = manifest.build_domain()
    planner = Planner(domain, manifest.build_config(record_expansions), observer)
    records = planner.run()
    return records, planner, domain


def summary_row(instance: str, algo: str, records: list[SolutionRecord], expansions: int) -> str:
    """A run's summary.csv row: its first and last published solutions; a run
    that published none has success 0 and only its expansion count."""
    if not records:
        return f"{instance},{algo},0,,,,,,,{expansions}"
    first, last = records[0], records[-1]
    return ",".join((
        instance, algo, "1",
        _fmt_t(first.elapsed), _fmt_t(last.elapsed),
        _fmt_eps(first.bound), _fmt_eps(last.bound),
        str(first.cost), str(last.cost), str(expansions),
    ))


def _fmt_t(x: float) -> str:
    return f"{x:.6f}"


def _fmt_eps(x: float) -> str:
    return f"{x:.6g}"


def aggregate_row(algo: str, runs: list[tuple[list[SolutionRecord], int]]) -> str:
    """Mean metrics over the runs that published; success rate in % over all
    runs. Each run is its (records, expansions)."""
    done = [run for run in runs if run[0]]
    rate = 100.0 * len(done) / len(runs) if runs else 0.0
    if not done:
        return f"{AGGREGATE_INSTANCE},{algo},{rate:.2f},,,,,,,"
    firsts = [records[0] for records, _ in done]
    lasts = [records[-1] for records, _ in done]
    mean = lambda vals: sum(vals) / len(done)
    return ",".join((
        AGGREGATE_INSTANCE, algo, f"{rate:.2f}",
        _fmt_t(mean([r.elapsed for r in firsts])), _fmt_t(mean([r.elapsed for r in lasts])),
        _fmt_eps(mean([r.bound for r in firsts])), _fmt_eps(mean([r.bound for r in lasts])),
        f"{mean([r.cost for r in firsts]):.2f}", f"{mean([r.cost for r in lasts]):.2f}",
        f"{mean([expansions for _, expansions in done]):.1f}",
    ))


def curve_csv(records: list[SolutionRecord]) -> str:
    lines = [CURVE_COLUMNS]
    lines.extend(f"{_fmt_t(r.elapsed)},{r.cost},{_fmt_eps(r.bound)}" for r in records)
    return "\n".join(lines) + "\n"


def _build_manifests(values: dict[str, str], config_dir: Path) -> list[tuple[str, RunManifest]]:
    """One manifest per algorithm x instance of a bench config's values.

    Every key but the harness keys is a RunManifest field; `algo` and the
    instance fields come from `algos` and the instance or scenario file.
    """
    algos = [a.strip() for a in values.get("algos", RunManifest.algo).split(",") if a.strip()]
    unknown = [a for a in algos if a not in MODES]
    if unknown:
        raise ValueError(f"algos = {values['algos']!r}: unknown modes {unknown}, "
                         f"expected some of {', '.join(MODES)}")
    fields = {k: v for k, v in values.items() if k not in HARNESS_KEYS}
    per_run = sorted(PER_RUN_KEYS & fields.keys())
    if per_run:
        raise ValueError(f"bench config keys {per_run} are set per run; use algos, "
                         "instances or scenarios")
    if fields.get("map"):
        fields["map"] = _config_file(fields, "map", config_dir)
    if fields.get("primitives", "builtin16") != "builtin16":
        fields["primitives"] = _config_file(fields, "primitives", config_dir)
    base = RunManifest.from_values(fields)
    base.build_config()  # a bad planner parameter raises here, not in every run
    if base.domain == "tiles":
        runs = [dict(board=format_instance_line(board))
                for board in _read_instances(values, "instances", config_dir, load_instances)]
    elif base.domain == "grid":
        if not base.map:
            raise ValueError("bench config needs map = <file> for domain grid")
        _parse_field("footprint", base.footprint, parse_footprint)  # raises here, not per run
        runs = [dict(start=" ".join(map(str, start)),
                     goal=" ".join(str(v) for v in goal if v is not None))
                for start, goal in _read_instances(values, "scenarios", config_dir, load_scenarios)]
    else:
        raise ValueError(f"domain = {base.domain!r}: expected tiles or grid")
    return [
        (f"{algo}--i{k:03d}", dataclasses.replace(base, algo=algo, **run))
        for algo in algos
        for k, run in enumerate(runs)
    ]


def _config_file(fields: dict[str, str], key: str, config_dir: Path) -> str:
    """The absolute path of the file a config names under `key`, relative to
    the config; a missing file is rejected before any run."""
    path = (config_dir / fields[key]).resolve()
    if not path.is_file():
        raise ValueError(f"{key} = {fields[key]}: no such file {path}")
    return str(path)


def _read_instances(values: dict[str, str], key: str, config_dir: Path, load) -> list:
    """Read the instance file a config names under `key`, relative to the config."""
    if key not in values:
        raise ValueError(f"bench config needs {key} = <file>")
    try:
        return load(config_dir / values[key])
    except (OSError, ValueError) as err:
        raise ValueError(f"{key} = {values[key]}: {err}") from None


def run_matrix(config_path, out_dir) -> Path:
    """Execute the full algorithms x instances grid described by a config file.

    Returns the output directory. A crash in one run degrades to a failed
    row; it never aborts the rest of the matrix.
    """
    config_path = Path(config_path)
    values = parse_kv(config_path.read_text())
    oracle = values.get("oracle", "off")
    if oracle not in ("on", "off"):
        raise ValueError(f"oracle = {oracle!r}: expected on or off")
    use_oracle = oracle == "on"
    manifests = _build_manifests(values, config_path.parent)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "curves").mkdir(exist_ok=True)
    (out / "manifests").mkdir(exist_ok=True)
    lines = [SUMMARY_COLUMNS]
    runs: dict[str, list[tuple[list[SolutionRecord], int]]] = {}  # per algo, in first appearance
    verdict_lines: list[str] = []
    for run_id, manifest in manifests:
        (out / "manifests" / f"{run_id}.txt").write_text(manifest.to_text())
        verdict = None
        try:
            if use_oracle:
                verdict, records, planner, _ = verify_manifest(manifest)
            else:
                records, planner, _ = run_from_manifest(manifest)
        except Exception as exc:  # noqa: BLE001 - isolate per-run crashes
            records, planner = [], None
            verdict_lines.append(f"{run_id} ERROR {exc}")
        expansions = planner.expansions_total if planner is not None else 0
        lines.append(summary_row(run_id.split("--", 1)[1], manifest.algo, records, expansions))
        runs.setdefault(manifest.algo, []).append((records, expansions))
        if planner is None:
            continue
        (out / "curves" / f"{run_id}.csv").write_text(curve_csv(records))
        if verdict is not None:
            verdict_lines.append(f"{run_id} {'PASS' if verdict.passed else 'FAIL'}")
            verdict_lines.extend("  " + f for f in verdict.failures)
    lines.extend(aggregate_row(algo, algo_runs) for algo, algo_runs in runs.items())
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    if verdict_lines:
        (out / "verdicts.txt").write_text("\n".join(verdict_lines) + "\n")
    return out


@functools.lru_cache(maxsize=None)
def _tile_table(width: int, height: int) -> dict[bytes, int]:
    """The exhaustive optimum table of one board size of at most 9 cells,
    built once per process."""
    return tile_goal_distances(width, height)


def verify_manifest(
    manifest: RunManifest,
) -> tuple[Verdict, list[SolutionRecord], Planner, Optional[float]]:
    """Replay a manifest with logging and check it against the oracle.

    The optimum of a board of at most 9 cells is looked up in the exhaustive
    table of its size, and a larger board's comes from the Dijkstra oracle
    on the run's domain. A lattice's comes from the pose-graph oracle, which
    shares no code with `LatticeDomain`: it reads the map, primitives and
    footprint the domain was given, and the manifest's start and goal.
    Every record's path is replayed through the run's domain as well.
    Returns the verdict, the replay's records and planner, and the optimum
    (None when the oracle gave up at `ORACLE_CAP` settled states).
    """
    records, planner, domain = run_from_manifest(manifest, record_expansions=True)
    if manifest.domain == "grid":
        optimal = lattice_optimal(domain.grid, (domain.primitives, domain.num_headings),
                                  domain.footprint, *manifest.query())
    else:
        board = parse_instance_line(manifest.board)
        if board.width * board.height <= 9:
            optimal = _tile_table(board.width, board.height).get(bytes(board.tiles), math.inf)
        else:
            optimal = uniform_cost_optimal(domain)
    verdict = verify_run(records, optimal, planner.expansion_log, manifest.algo, domain)
    return verdict, records, planner, optimal
