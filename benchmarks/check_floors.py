"""Bench-smoke regression floors: fail CI when headline speedups regress.

Each bench writes its headline numbers to ``benchmarks/out/*.json``; this
script re-reads them and enforces conservative floors — far below the
currently measured values, so only a genuine regression (or a broken
bench) trips them, not machine noise.

Run after the benches::

    PYTHONPATH=src python benchmarks/check_floors.py

Exit status is non-zero if any floor is violated or a bench JSON is
missing, listing every failure.

With ``--against``, it compares two performance records written by
``tools/bench_record.py`` instead::

    python benchmarks/check_floors.py --against BENCH_27.json BENCH_28.json

Each ``end_to_end`` metric of ``BENCHMARK.json``, per workload, is read
from both records' untraced (``trace0``) medians; one row per workload
and metric prints the ratio of the second to the first and its base (the
first median).  Exit status is non-zero if a metric is worse than the
first record by more than its bound, or missing from either.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"
BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

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
    # The batch (one preparation per stationary operand, one beat count
    # per batch, no output product) against one run_gemm per job: read
    # 2.6-4.6x in twelve standalone runs (2-vCPU VM); the spread follows
    # how long the float matmuls take, which varied ~8x between runs.
    "simulate_many.json": {
        "speedup_vectorized_vs_reference": 5.0,
        "speedup_batch_vs_reference": 5.0,
        "speedup_batch_vs_vectorized": 1.3,
    },
    # The obs plane must stay within ~5% of REPRO_OBS=off on the predict
    # hot path (median of paired per-round ratios, measured ~0.98-1.05).
    "obs_overhead.json": {
        "off_vs_on_ratio": 0.95,
        # The sample trace artifact must actually contain spans.
        "trace_sample_events": 4,
    },
    # One orchestrated `repro xp run --all` vs one `repro xp run <name>
    # --serial` subprocess per experiment over the same smoke grid: the
    # process starts and cold caches it saves plus the fork pool (measured
    # 7-11x on a 2-vCPU VM).  Dotted keys index into nested objects
    # ("comparison" is written by bench_xp_runner.py).
    "xp_runner.json": {
        "comparison.speedup_vs_serial_per_experiment": 1.5,
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


def _median(record: dict, workload: str, metric: str):
    try:
        entry = record["workloads"][workload]["trace0"]["metrics"][metric]
    except KeyError:
        return None
    return entry["median"], entry.get("unit", "")


def compare_records(
    prev: dict, this: dict, bounds: list[dict]
) -> tuple[list[str], list[str]]:
    """Rows and failures of *this* record's medians against *prev*'s.

    *bounds* are ``BENCHMARK.json`` ``end_to_end`` entries: a metric
    fails when it is worse than *prev* by more than ``bound`` (a
    fraction of *prev*), in its ``better`` direction.
    """
    rows: list[str] = []
    failures: list[str] = []
    workloads = sorted(set(prev["workloads"]) | set(this["workloads"]))
    for workload in workloads:
        for spec in bounds:
            metric, bound = spec["name"], spec["bound"]
            lower = spec["better"] == "lower"
            base, now = _median(prev, workload, metric), _median(this, workload, metric)
            if base is None or now is None:
                failures.append(
                    f"{workload} {metric}: missing from the "
                    f"{'first' if base is None else 'second'} record"
                )
                continue
            (base, unit), (now, _unit) = base, now
            ratio = now / base if base else (1.0 if now == base else float("inf"))
            worse = ratio - 1.0 if lower else 1.0 - ratio
            verdict = "WORSE" if worse > bound else "ok"
            rows.append(
                f"{workload:14s} {metric:12s} {now:12.4g} {unit:4s} "
                f"ratio {ratio:7.3f} (base {base:.4g} {unit}, "
                f"{spec['better']} is better, bound {bound:.0%})  {verdict}"
            )
            if verdict != "ok":
                failures.append(
                    f"{workload} {metric}: {base:.4g} -> {now:.4g} {unit} "
                    f"(ratio {ratio:.3f}) is worse than its {bound:.0%} bound"
                )
    return rows, failures


def check_against(prev_path: Path, this_path: Path) -> list[str]:
    """Print the record comparison; return its failures."""
    bounds = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    rows, failures = compare_records(
        json.loads(Path(prev_path).read_text()),
        json.loads(Path(this_path).read_text()),
        bounds,
    )
    print(f"{this_path} against {prev_path} (trace0 medians)")
    for row in rows:
        print(row)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against", nargs=2, type=Path, metavar=("PREV", "THIS"),
        help="compare two BENCH_<n>.json records under BENCHMARK.json's "
        "end-to-end bounds instead of checking the bench floors",
    )
    args = parser.parse_args(argv)
    if args.against:
        failures = check_against(*args.against)
        label = "RECORD REGRESSION"
    else:
        failures = check()
        label = "FLOOR VIOLATION"
    for failure in failures:
        print(f"{label}: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
