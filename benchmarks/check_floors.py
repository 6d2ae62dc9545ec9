"""Bench-smoke regression floors: fail CI when headline speedups regress.

Each bench writes its headline numbers to ``benchmarks/out/*.json``; this
script re-reads them and enforces conservative floors — far below the
currently measured values, so only a genuine regression (or a broken
bench) trips them, not machine noise.

Run after the benches::

    PYTHONPATH=src python benchmarks/check_floors.py

Exit status is non-zero if any floor is violated or a bench JSON is
missing, listing every failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"

#: file -> {json key: bound}.  A bare number is a minimum (floor); a
#: ``{"max": v}`` dict is a ceiling (e.g. a latency bound).  Measured
#: values at the time the floors were set: serve warm-vs-naive ~130x;
#: simulate_many vectorized-vs-reference ~130x.
FLOORS: dict[str, dict[str, float]] = {
    # The exact-statistics planner against the class-routed test oracle,
    # both cold on fresh-band workloads: measured 4.2-4.7x on predict and
    # 7.8-8.9x on the conversion-pricing layer (2-vCPU VM).
    "path_planning.json": {
        "speedup_vs_class_routed": 2.0,
        "estimate_layer_speedup_vs_class_routed": 3.0,
    },
    "serve.json": {
        "speedup_warm_vs_naive": 5.0,
        # The banded tier must actually fire on the near-traffic pass
        # (it silently recorded 0 before dims were banded in band_key).
        "cache.near_hits": 1,
    },
    # Wire loadgen (bench_serve_wire.py): one server, binary frames vs
    # JSON lines over the same Zipf replay.  Both wires ride one hit
    # path (the event loop answers exact hits from the decision cache's
    # reply memos), so JSON lines keep >= 0.7x the binary request rate.
    # The p99 bound is a ceiling ("max").
    "serve_wire.json": {
        "json_vs_binary_rps": 0.7,
        "warm_p99_ms": {"max": 50.0},
    },
    "simulate_many.json": {
        "speedup_vectorized_vs_reference": 5.0,
        "speedup_batch_vs_reference": 5.0,
    },
    # The obs plane must stay within ~5% of REPRO_OBS=off on the predict
    # hot path (median of paired per-round ratios, measured ~0.98-1.05).
    "obs_overhead.json": {
        "off_vs_on_ratio": 0.95,
        # The sample trace artifact must actually contain spans.
        "trace_sample_events": 4,
    },
    # Orchestrated xp run vs one-process-per-figure seed scripts, measured
    # ~2.5x on a single core (process startup + warm-cache amortization)
    # and higher with a real fork pool.  Dotted keys index into nested
    # objects ("comparison" is written by bench_xp_runner.py).
    "xp_runner.json": {
        "comparison.speedup_vs_serial_scripts": 1.5,
    },
    # Tune sweeps resume from the artifact store: a cached re-run must be
    # far faster than the cold sweep (measured ~40x on a single core) and
    # the smoke space must keep a non-trivial front.
    "tune.json": {
        "speedup_resume_vs_cold": 3.0,
        "front_size": 2,
    },
    # Calibrated fidelity (bench_calibrated.py): the tier must keep its
    # two-sided promise on the smoke suite — analytical-speed answers
    # (measured ~1.15x analytical p50, ceiling 2x) at near-cycle ranking
    # quality (measured 0.95 top-1 agreement with the cycle tier against
    # ~0.5 uncalibrated; floor 0.9).
    "calibrated.json": {
        "top1_agreement": 0.9,
        "latency_ratio_calibrated_vs_analytical": {"max": 2.0},
        "speedup_calibrated_vs_cycle": 2.0,
    },
}

#: file -> the bench script that produces it, named in failure messages
#: so a missing artifact points straight at the command to re-run.
BENCH_SOURCES: dict[str, str] = {
    "path_planning.json": "bench_path_planning.py",
    "serve.json": "bench_serve.py",
    "serve_wire.json": "bench_serve_wire.py",
    "simulate_many.json": "bench_simulate_many.py",
    "obs_overhead.json": "bench_obs_overhead.py",
    "xp_runner.json": "bench_xp_runner.py",
    "tune.json": "bench_tune.py",
    "calibrated.json": "bench_calibrated.py",
}


def _source_hint(filename: str) -> str:
    bench = BENCH_SOURCES.get(filename)
    if bench is None:
        return f"re-run the bench that writes {filename}"
    return (
        f"run: PYTHONPATH=src python -m pytest benchmarks/{bench} "
        f"-o python_files='bench_*.py' -o python_functions='bench_*' -q -s"
    )


def _lookup(data: dict, key: str):
    """Resolve a dotted key path; returns (value, error-or-None).

    A miss names the exact segment that was absent and where, so a floor
    on ``comparison.speedup`` failing because ``comparison`` never made
    it into the JSON reads as that — not as a bare KeyError or an
    indistinguishable "absent or non-numeric".
    """
    value = data
    parts = key.split(".")
    for depth, part in enumerate(parts):
        where = "top level" if depth == 0 else f"under {'.'.join(parts[:depth])!r}"
        if not isinstance(value, dict):
            return None, (
                f"cannot descend into {part!r}: {where} is "
                f"{type(value).__name__}, not an object"
            )
        if part not in value:
            return None, f"key {part!r} absent at {where}"
        value = value[part]
    return value, None


def check(out_dir: Path = OUT_DIR) -> list[str]:
    """Return a list of floor violations (empty = all good)."""
    failures: list[str] = []
    for filename, floors in sorted(FLOORS.items()):
        path = out_dir / filename
        if not path.is_file():
            failures.append(
                f"{filename}: missing from {out_dir} — {_source_hint(filename)}"
            )
            continue
        data = json.loads(path.read_text())
        for key, bound in sorted(floors.items()):
            value, miss = _lookup(data, key)
            if isinstance(bound, dict):
                ceiling, kind, ok = bound["max"], "ceiling", (
                    isinstance(value, (int, float)) and value <= bound["max"]
                )
                limit = ceiling
            else:
                kind, ok = "floor", (
                    isinstance(value, (int, float)) and value >= bound
                )
                limit = bound
            if miss is not None:
                failures.append(
                    f"{filename}: {key} — {miss} "
                    f"(stale or truncated artifact? {_source_hint(filename)})"
                )
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                failures.append(
                    f"{filename}: {key} is {type(value).__name__} "
                    f"({value!r}), expected a number"
                )
            elif not ok:
                failures.append(
                    f"{filename}: {key} = {value:.2f} "
                    f"{'below floor' if kind == 'floor' else 'above ceiling'}"
                    f" {limit:g}"
                )
            else:
                print(
                    f"ok: {filename} {key} = {value:.2f} ({kind} {limit:g})"
                )
    return failures


def main() -> int:
    failures = check()
    for failure in failures:
        print(f"FLOOR VIOLATION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
