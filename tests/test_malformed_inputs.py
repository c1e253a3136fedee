"""Seeded mutants of every shipped input file are rejected cleanly.

Each shipped map, primitive file, bench config, board file and scenario
file, and a tile and a lattice manifest written by `amhastar bench`, is
mutated three ways: truncated at a random byte, one whitespace-separated
field dropped from a random line, or one number swapped for a non-number.

A mutant may still be a valid file (a truncation at a line end often is).
When its reader rejects it, that must be a `ValueError` whose message
starts by naming the line or the key. It must never be an `IndexError`, a
`KeyError`, an `OSError` or a bare `int()`/`float()` message. A swapped-in
non-number must always be rejected.

Manifests are read with `RunManifest.from_text`, which types the numeric
fields; the text fields (`board`, `start`, `goal`, ...) are parsed when the
run's domain is built, so a number is swapped only where a whole value is
one.
"""
import random
import re
import shutil
from pathlib import Path

import pytest

import amhastar
from amhastar import bench
from amhastar.bench import RunManifest, parse_kv, run_matrix
from amhastar.grid import (LatticeDomain, MotionPrimitive, OccupancyGrid, load_primitives,
                           load_scenarios)
from amhastar.tiles import load_instances

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
DATA = Path(amhastar.__file__).parent / "data"
MUTANTS = 12  # per file and mutation
NAMES_LINE_OR_KEY = re.compile(
    r"^(line \d+: |\w* = |unknown manifest keys: |bench config (keys|needs) )"
)

SHIPPED = (
    sorted((DATA / "maps").glob("*.map"))
    + [DATA / "primitives" / "unicycle16.mprim"]
    + sorted(CONFIGS.glob("*.cfg"))
    + sorted(CONFIGS.glob("*-boards.txt"))
    + [CONFIGS / "yard30.scen"]
)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _content_lines(lines):
    return [i for i, ln in enumerate(lines) if ln.split() and not ln.lstrip().startswith("#")]


def truncate(text, rng):
    return text[:rng.randrange(len(text))]


def drop_field(text, rng):
    lines = text.splitlines()
    i = rng.choice(_content_lines(lines))
    fields = lines[i].split()
    del fields[rng.randrange(len(fields))]
    lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def swap_non_number(text, rng):
    """Replace one number with `x`: a whole `key = value` value, or one
    field of a line of positional fields."""
    lines = text.splitlines()
    spots = []
    for i in _content_lines(lines):
        body = lines[i].split("#", 1)[0]
        if "=" in body:
            key, value = body.split("=", 1)
            if _is_number(value.strip()):
                spots.append((i, f"{key.strip()} = x"))
        else:
            fields = body.split()
            for j, field in enumerate(fields):
                if _is_number(field):
                    spots.append((i, " ".join(fields[:j] + ["x"] + fields[j + 1:])))
    i, line = rng.choice(spots)
    lines[i] = line
    return "\n".join(lines) + "\n"


MUTATIONS = {"truncate": truncate, "drop-field": drop_field, "non-number": swap_non_number}


def reader_for(name):
    if name.endswith(".map"):
        return OccupancyGrid.load
    if name.endswith(".mprim"):
        return load_primitives
    if name.endswith(".cfg"):
        return lambda path: bench._build_manifests(parse_kv(path.read_text()), path.parent)
    if name.endswith(".scen"):
        return load_scenarios
    if name.endswith("-boards.txt"):
        return load_instances
    return lambda path: RunManifest.from_text(path.read_text())


@pytest.fixture(scope="module")
def bench_manifests(tmp_path_factory):
    """One manifest per domain, as `amhastar bench` writes them."""
    work = tmp_path_factory.mktemp("bench")
    board = (CONFIGS / "tiles3-boards.txt").read_text().splitlines()[0]
    query = (CONFIGS / "yard30.scen").read_text().splitlines()[1]
    (work / "boards.txt").write_text(board + "\n")
    (work / "q.scen").write_text(query + "\n")
    paths = []
    for name, algo, key, instances in (("tiles3", "amha", "instances", "boards.txt"),
                                       ("grid", "wastar", "scenarios", "q.scen")):
        config = CONFIGS / f"{name}-demo.cfg"
        values = parse_kv(config.read_text())
        values.update(algos=algo, oracle="off", **{key: instances})
        if "map" in values:
            values["map"] = str((config.parent / values["map"]).resolve())
        cfg = work / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out = run_matrix(cfg, work / name)
        paths.append(out / "manifests" / f"{algo}--i000.txt")
    return paths


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("source", [p.name for p in SHIPPED] + ["tiles-manifest", "grid-manifest"])
def test_mutants_are_rejected_cleanly(source, mutation, tmp_path, bench_manifests):
    if source.endswith("-manifest"):
        original = bench_manifests[source.startswith("grid")]
    else:
        original = next(p for p in SHIPPED if p.name == source)
    # Bench configs keep their sibling board and scenario files beside them,
    # and the shipped maps where their relative `map` paths point.
    shutil.copytree(CONFIGS, tmp_path / "configs")
    shutil.copytree(DATA / "maps", tmp_path / "src" / "amhastar" / "data" / "maps")
    target = tmp_path / "configs" / original.name
    read = reader_for(original.name)
    text = original.read_text()
    target.write_text(text)
    read(target)  # the file as shipped or written is valid
    for k in range(MUTANTS):
        mutant = MUTATIONS[mutation](text, random.Random(f"{source}-{mutation}-{k}"))
        target.write_text(mutant)
        try:
            read(target)
        except ValueError as err:
            message = str(err)
            assert NAMES_LINE_OR_KEY.match(message), (mutant, message)
            assert "invalid literal" not in message and "could not convert" not in message
        else:
            assert mutation != "non-number", f"accepted a non-number:\n{mutant}"


@pytest.mark.parametrize("headings", [0, 2, 12, 32])
def test_unsupported_heading_count_is_a_header_error(tmp_path, headings):
    # A file the header lets through would fail only inside the domain
    # build, naming neither the file's key nor its line.
    path = tmp_path / f"h{headings}.mprim"
    path.write_text(f"headings {headings} cost_scale 1000\n0 0 1000 2 0 0 0 1 0 0\n")
    message = rf"line 1: headings {headings}: expected 4, 8 or 16$"
    with pytest.raises(ValueError, match="^" + message):
        load_primitives(path)
    manifest = RunManifest(domain="grid", map=str(DATA / "maps" / "yard30.map"),
                           start="3 15 0", goal="26 15", primitives=str(path))
    with pytest.raises(ValueError, match=rf"^primitives = '{re.escape(str(path))}': {message}"):
        manifest.build_domain()


@pytest.mark.parametrize("line, heading", [
    ("0 5 1000 2 0 0 0 1 0 5", 5),
    ("4 0 1000 2 0 0 4 1 0 0", 4),
    ("0 0 1000 3 0 0 0 1 0 -1 2 0 0", -1),
], ids=["theta-end", "theta-start", "pose"])
def test_primitive_heading_outside_the_header_fan_is_a_line_error(tmp_path, line, heading):
    path = tmp_path / "fan.mprim"
    path.write_text(f"headings 4 cost_scale 1000\n{line}\n")
    message = rf"line 2: primitive heading {heading}: expected 0 to 3$"
    with pytest.raises(ValueError, match="^" + message):
        load_primitives(path)
    manifest = RunManifest(domain="grid", map=str(DATA / "maps" / "yard30.map"),
                           start="3 15 0", goal="26 15", primitives=str(path))
    with pytest.raises(ValueError, match=rf"^primitives = '{re.escape(str(path))}': {message}"):
        manifest.build_domain()


@pytest.mark.parametrize("poses", [
    ((0, 0, 0), (1, 0, 5)),
    ((0, 0, 0), (1, 0, -1), (2, 0, 0)),
    ((0, 0, 0), (1, 0, 7), (2, 0, 0)),
], ids=["theta-end", "pose-negative", "pose-high"])
def test_lattice_domain_rejects_primitive_objects_outside_its_fan(poses):
    grid = OccupancyGrid.load(DATA / "maps" / "yard30.map")
    prims = [MotionPrimitive(0, poses[-1][2], 1000, poses)]
    with pytest.raises(ValueError, match="^primitive heading outside the configured fan$"):
        LatticeDomain(grid, (3, 15, 0), (26, 15), primitives=(prims, 4))
