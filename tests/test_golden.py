"""Search effort on the shipped demo configs stays byte-identical.

`summary.csv` and every `curves/*.csv` that `amhastar bench` writes for the
demo configs are compared with the copies under `tests/golden/`. The runs
use the virtual clock, so these files count expansions, not speed: they
change only when the search does. Manifests (they hold an absolute map
path) and verdicts (they judge the run, not its effort) are not compared.
The oracle is switched off: it only judges the runs afterwards, and on the
8-puzzle demo it would take most of a minute.

After a change that is meant to alter the search, regenerate the goldens
with `amhastar bench --config configs/<name>-demo.cfg --out tests/golden/<name>`
and delete the other files it writes there.
"""
from pathlib import Path

import pytest

from amhastar.bench import parse_kv
from amhastar.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("name", ("tiles3", "tiles4", "grid"))
def test_demo_bench_outputs_match_goldens(name, tmp_path):
    config = ROOT / "configs" / f"{name}-demo.cfg"
    values = parse_kv(config.read_text())
    values["oracle"] = "off"
    for key in ("instances", "scenarios", "map"):
        if key in values:
            values[key] = str((config.parent / values[key]).resolve())
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0

    expected = GOLDEN / name
    assert (out / "summary.csv").read_bytes() == (expected / "summary.csv").read_bytes()
    curves = sorted(p.name for p in (expected / "curves").iterdir())
    assert sorted(p.name for p in (out / "curves").iterdir()) == curves
    for curve in curves:
        got = (out / "curves" / curve).read_bytes()
        assert got == (expected / "curves" / curve).read_bytes(), curve
