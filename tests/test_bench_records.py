"""The committed perf records (`BENCH_*.json`) against the declared benchmark."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_fits_the_declared_benchmark(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    if claim is not None:
        assert claim["workload"] in WORKLOADS and claim["metric"] in END_TO_END, claim
    for key in ("host", "protocol", "src_lines"):
        assert key in record, key
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        missing = [m for m in END_TO_END if m not in workload["metrics"]]
        assert not missing, f"{name} lacks {missing}"
