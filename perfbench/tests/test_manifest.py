"""BENCHMARK.json matches the metrics and workloads the benchmark emits."""

from __future__ import annotations

import json
import re
from pathlib import Path

from perfbench import run
from perfbench.layers import LAYER_UNITS
from perfbench.workloads import WORKLOADS

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_workloads_and_whys_match_the_code():
    listed = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
    assert listed == run.WHY
    assert set(listed) == set(WORKLOADS)
    assert all(len(why) <= 200 and "\n" not in why for why in listed.values())


def test_metric_names_units_and_bounds():
    e2e = {m["name"]: m for m in MANIFEST["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.E2E_UNITS
    assert e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    layer = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert layer == LAYER_UNITS
    names = list(e2e) + list(layer) + list(run.WHY)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(m["better"] in ("lower", "higher")
               for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"])


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 0.5) == 50
    assert run.percentile(samples, 0.9) == 90
    assert run.percentile(samples, 0.99) == 99
    assert run.percentile([3.0], 0.99) == 3.0
