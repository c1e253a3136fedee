"""Search effort and verdicts on the shipped demo configs stay byte-identical.

`summary.csv` and every `curves/*.csv` that `amhastar bench` writes for the
demo configs are compared with the copies under `tests/golden/`. The runs
use the virtual clock, so these files count expansions, not speed: they
change only when the search does. Manifests (they hold an absolute map
path) are not compared.

The 8-puzzle demo runs with its own `oracle = on`, and its `verdicts.txt`
is compared too: its optima come from the exhaustive 3x3 table, so the
whole config takes about a second. The 15-puzzle config has the oracle off
itself (optimal 4x4 search is out of its reach), and the lattice demo is
run with it off, so for those two only the search effort is pinned.

After a change that is meant to alter the search, regenerate the goldens
with `amhastar bench --config configs/<name>-demo.cfg --out tests/golden/<name>`
and delete the other files it writes there (keep `verdicts.txt` for tiles3).
"""
from pathlib import Path

import pytest

from amhastar.bench import parse_kv
from amhastar.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


ORACLE_ON = ("tiles3",)


@pytest.mark.parametrize("name", ("tiles3", "tiles4", "grid"))
def test_demo_bench_outputs_match_goldens(name, tmp_path):
    config = ROOT / "configs" / f"{name}-demo.cfg"
    values = parse_kv(config.read_text())
    if name in ORACLE_ON:
        assert values["oracle"] == "on"
    else:
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
    if name in ORACLE_ON:
        verdicts = (out / "verdicts.txt").read_bytes()
        assert verdicts == (expected / "verdicts.txt").read_bytes()
