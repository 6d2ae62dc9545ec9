"""Write one performance record of this tree: ``BENCH_<n>.json``.

Runs every perfbench workload ``--runs`` times, round-robin so that a
slow stretch of the host spreads over all of them: each round runs each
workload untraced (``--trace 0``) at seed 9001, then traced
(``--trace 1``) at seed 1, every run in its own process.  The record
keeps, per workload, mode and metric, the median and inter-quartile
range over the runs (and the runs themselves), next to the decision and
calibration-table digests of ``tools/decision_digest.py --seed 9001``
and the host: CPU count, python, numpy, the perfbench host probe and
whether the tree had bytecode caches.  Children run under
``PYTHONDONTWRITEBYTECODE=1``, as the verify notes advise for pairing
two trees.

Run from the repository root::

    python3 tools/bench_record.py --out BENCH_26.json [--runs 3] [--seconds 20]

A record is compared with the previous one (``BENCH_<n-1>.json``) metric
by metric; a speedup is claimed from alternating pairs of the same
harness on one host, not from two records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("predict_fresh", "run_sweep", "serve_zipf", "batch_grid")
#: (mode, --trace, --seed) of each run of a workload in a round.
MODES = (("trace0", 0, 9001), ("trace1", 1, 1))
PROBE = re.compile(r"^host probe: median ([0-9.]+) ms", re.MULTILINE)


def run_workload(workload: str, trace: int, seed: int, seconds: float) -> dict:
    """One perfbench run in a fresh process: its JSON line, plus the host
    probe median it printed (untraced runs only)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    probe = PROBE.search(proc.stdout)
    result["probe_ms"] = float(probe.group(1)) if probe else None
    return result


def summarize(values: list[float]) -> dict:
    """Median and inter-quartile range of one metric over the runs."""
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4,
                                               method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def digests() -> dict:
    proc = subprocess.run(
        [sys.executable, "tools/decision_digest.py", "--seed", "9001"],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True,
    )
    decisions, table = (line.split()[0] for line in
                        proc.stdout.strip().splitlines())
    return {"decisions_seed_9001": decisions, "smoke_calibration_table": table}


def host(probes: list[float]) -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "probe_ms_median": statistics.median(probes) if probes else None,
        "pycache_in_tree": any(ROOT.glob("src/**/__pycache__")),
        "children_write_bytecode": False,
    }


def record(runs: int, seconds: float) -> dict:
    raw: dict[tuple[str, str], list[dict]] = {}
    for index in range(runs):
        for workload in WORKLOADS:
            for mode, trace, seed in MODES:
                print(f"round {index + 1}/{runs}: {workload} {mode}",
                      file=sys.stderr, flush=True)
                raw.setdefault((workload, mode), []).append(
                    run_workload(workload, trace, seed, seconds)
                )
    workloads: dict[str, dict] = {}
    probes: list[float] = []
    for (workload, mode), results in raw.items():
        probes += [r["probe_ms"] for r in results if r["probe_ms"]]
        names = results[0]["metrics"]
        workloads.setdefault(workload, {})[mode] = {
            "seed": dict((m, s) for m, _t, s in MODES)[mode],
            "correct": all(r["correct"] for r in results),
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "metrics": {
                name: {
                    "unit": names[name]["unit"],
                    **summarize([r["metrics"][name]["value"]
                                 for r in results]),
                }
                for name in names
            },
        }
    return {
        "runs": runs,
        "seconds": seconds,
        "host": host(probes),
        "digests": digests(),
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    out = record(args.runs, args.seconds)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
