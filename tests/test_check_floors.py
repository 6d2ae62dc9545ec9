"""``benchmarks/check_floors.py --against``: two performance records
compared under ``BENCHMARK.json``'s end-to-end bounds."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import check_floors  # noqa: E402

BOUNDS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {
    "setup_s": 0.4, "peak_rss_mb": 80.0, "op_p50_ms": 10.0,
    "op_tail_ms": 20.0, "alt_p50_ms": 15.0, "ops_per_s": 100.0,
}


def _record(path: Path, scale: dict[str, float]) -> Path:
    """A two-workload record whose medians are BASE times *scale*."""
    metrics = {
        name: {"median": value * scale.get(name, 1.0), "unit": "u",
               "q1": 0.0, "q3": 0.0, "runs": []}
        for name, value in BASE.items()
    }
    path.write_text(json.dumps({"workloads": {
        workload: {"trace0": {"metrics": metrics}, "trace1": {"metrics": {}}}
        for workload in ("predict_fresh", "run_sweep")
    }}))
    return path


def test_bounds_cover_the_synthetic_metrics():
    assert {spec["name"] for spec in BOUNDS} == set(BASE)


def test_within_bound_passes(tmp_path, capsys):
    prev = _record(tmp_path / "prev.json", {})
    # Each metric moves, but by less than its bound in the worse direction
    # (peak RSS has the tightest bound, 15%), and any gain is fine.
    this = _record(tmp_path / "this.json", {
        "setup_s": 1.2, "peak_rss_mb": 1.1, "op_p50_ms": 0.5,
        "ops_per_s": 0.8, "alt_p50_ms": 1.24,
    })
    assert check_floors.main(["--against", str(prev), str(this)]) == 0
    out = capsys.readouterr()
    rows = [line for line in out.out.splitlines() if "ratio" in line]
    assert len(rows) == 2 * len(BOUNDS)  # one per workload x metric
    assert all(line.endswith("ok") for line in rows)
    alt = next(r for r in rows if r.startswith("run_sweep") and "alt_p50_ms" in r)
    assert "ratio   1.240" in alt and "base 15 u" in alt
    assert out.err == ""


def test_beyond_bound_fails(tmp_path, capsys):
    prev = _record(tmp_path / "prev.json", {})
    this = _record(tmp_path / "this.json", {
        "op_p50_ms": 1.3, "ops_per_s": 0.7, "peak_rss_mb": 1.16,
    })
    assert check_floors.main(["--against", str(prev), str(this)]) == 1
    out = capsys.readouterr()
    worse = [line for line in out.out.splitlines() if line.endswith("WORSE")]
    assert len(worse) == 2 * 3
    for metric in ("op_p50_ms", "ops_per_s", "peak_rss_mb"):
        assert f"predict_fresh {metric}" in out.err
        assert f"run_sweep {metric}" in out.err


@pytest.mark.parametrize("missing_from", ["prev", "this"])
def test_missing_metric_fails(tmp_path, capsys, missing_from):
    paths = {
        name: _record(tmp_path / f"{name}.json", {}) for name in ("prev", "this")
    }
    doc = json.loads(paths[missing_from].read_text())
    del doc["workloads"]["run_sweep"]["trace0"]["metrics"]["setup_s"]
    paths[missing_from].write_text(json.dumps(doc))
    assert check_floors.main(
        ["--against", str(paths["prev"]), str(paths["this"])]
    ) == 1
    assert "run_sweep setup_s: missing" in capsys.readouterr().err
