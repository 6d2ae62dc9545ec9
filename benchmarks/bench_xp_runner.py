"""Orchestrator throughput: one ``repro xp run --serial`` process per
experiment vs one orchestrated ``repro xp run --all``.

The smoke grid of every registered experiment runs three ways:

* **serial per experiment** — one ``repro xp run <name> --serial``
  subprocess per experiment, one after another: a process start, cold
  caches and serial cells for each experiment;
* **orchestrated** — a single ``repro xp run --all`` process: one warm
  :class:`~repro.api.session.Session`, one planner cache, every cell of
  every experiment in one fork-pool batch;
* **resume** — a second ``repro xp run --all --resume``: every cell
  answered from the content-hashed artifact store, **zero re-executed**.

``speedup_vs_serial_per_experiment`` is the first time over the second.
The headline numbers (plus the per-run records the runner itself
appends) land in ``benchmarks/out/xp_runner.json`` under ``comparison``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

try:  # standalone runs without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.xp import default_store_root, experiment_names

OUT_DIR = Path(__file__).parent / "out"
OUT_PATH = OUT_DIR / "xp_runner.json"


def _run_cli(args: list[str], *, env: dict) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(Path(__file__).parent.parent),
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, (args, proc.stdout[-2000:], proc.stderr[-2000:])
    return elapsed


def measure() -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    names = experiment_names()
    store = default_store_root()

    with tempfile.TemporaryDirectory() as scratch:
        # Baseline: one serial process per experiment, with a scratch
        # store/journal so the baseline leaves no cache behind.
        t0 = time.perf_counter()
        for name in names:
            _run_cli(
                ["xp", "run", name, "--smoke", "--force", "--serial",
                 "--no-report", "--store", f"{scratch}/store",
                 "--out", scratch],
                env=env,
            )
        serial_s = time.perf_counter() - t0

    orchestrated_s = _run_cli(
        ["xp", "run", "--all", "--smoke", "--force"], env=env
    )
    resume_s = _run_cli(
        ["xp", "run", "--all", "--smoke", "--resume"], env=env
    )

    doc = json.loads(OUT_PATH.read_text())
    last = doc["runs"][-1]
    assert last["resume"] and last["cells"] > 100, last
    result = {
        "experiments": len(names),
        "grid": "smoke",
        "cells": last["cells"],
        "serial_per_experiment_s": serial_s,
        "orchestrated_s": orchestrated_s,
        "resume_s": resume_s,
        "speedup_vs_serial_per_experiment": serial_s / orchestrated_s,
        "resume_executed_cells": last["executed_cells"],
        "resume_cached_cells": last["cached_cells"],
    }
    doc["comparison"] = result
    OUT_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    assert store.exists()  # the orchestrated pass populated the real store
    return result


def bench_xp_runner(once, benchmark):
    out = once(measure)
    print()
    print(f"{'pass':>17} | {'total':>9}")
    for label, key in (
        ("serial/experiment", "serial_per_experiment_s"),
        ("orchestrated", "orchestrated_s"),
        ("resume (cache)", "resume_s"),
    ):
        print(f"{label:>17} | {out[key]:>8.2f}s")
    print(
        f"orchestrated vs one serial process per experiment: "
        f"{out['speedup_vs_serial_per_experiment']:.2f}x over "
        f"{out['experiments']} "
        f"experiments / {out['cells']} cells; resume re-executed "
        f"{out['resume_executed_cells']} cells"
    )
    print(f"wrote {OUT_PATH}")
    # The regression gate is check_floors.py's conservative 1.5 floor on
    # the recorded JSON; asserting the measured ~7-11x here would just
    # make that floor dead code and flake on contended runners.
    assert out["speedup_vs_serial_per_experiment"] >= 1.5
    assert out["resume_executed_cells"] == 0
    benchmark.extra_info["speedup_vs_serial_per_experiment"] = round(
        out["speedup_vs_serial_per_experiment"], 2
    )
    benchmark.extra_info["cells"] = out["cells"]
