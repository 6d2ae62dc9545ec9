"""Per-layer metrics of a traced pass.

A traced pass hands in three views of the same operations:

* the span tree of its trace events (:mod:`perfbench.spans`);
* the delta of the ``repro.obs`` metric registry over those operations
  (pool workers' registries are merged into it by ``fork_map``; for
  serve it is the delta of the server's merged registry);
* a few workload-specific values (cache counters, serve stats, overhead).

Units: ``*_ms`` are milliseconds per benchmark operation, summed over
the span's self time where the trace holds the span and its total time
from the registry otherwise (the serve child's spans).  Counts are
totals over the traced pass, which is a fixed operation list, so they
repeat exactly for one seed.
"""

from __future__ import annotations

from repro.obs.metrics import labeled_series

from perfbench.spans import Node, self_times, unattributed_share

#: Every per-layer metric and its unit.  ``perfbench/README.md`` maps
#: each to the end-to-end metric and workload it should move.
LAYER_UNITS: dict[str, str] = {
    "sage.enumerate_ms": "ms",
    "sage.rerank_ms": "ms",
    "sage.calibrate_ms": "ms",
    "sage.candidates": "count",
    "sage.feasible_share": "ratio",
    "api.run_self_ms": "ms",
    "api.cache_hit_ratio": "ratio",
    "mint.convert_ms": "ms",
    "mint.hops": "count",
    "accel.gemm_ms": "ms",
    "accel.prepare_ms": "ms",
    "accel.gemms": "count",
    "accel.sim_cycles": "cycles",
    "pool.fork_map_ms": "ms",
    "pool.maps_pool": "count",
    "pool.maps_seq": "count",
    "pool.task_s": "s",
    "pool.efficiency": "ratio",
    "shm.leaked_segments": "count",
    "shm.tracker_errors": "count",
    "serve.queue_p50_ms": "ms",
    "serve.compute_p50_ms": "ms",
    "serve.front_hit_ratio": "ratio",
    "serve.fast_path_share": "ratio",
    "serve.coalesced": "count",
    "serve.errors": "count",
    "xp.cell_ms": "ms",
    "xp.cells": "count",
    "calibrate.cells": "count",
    "obs.trace_overhead": "ratio",
    "obs.unattributed_share": "ratio",
}


# --------------------------------------------------------- registry snapshots
def registry_delta(before: dict, after: dict) -> dict:
    """``after - before`` for counters and histograms, per label key.

    The result is itself a registry snapshot (gauges dropped), so
    :func:`repro.obs.metrics.merge_snapshots` accumulates deltas and
    :func:`repro.obs.metrics.snapshot_quantile` reads them.  A delta's
    histogram ``min``/``max`` are unknown and left ``None``.
    """
    out: dict = {}
    for name, entry in after.items():
        kind = entry["type"]
        if kind not in ("counter", "histogram"):
            continue
        prev = before.get(name, {}).get("values", {})
        values = {}
        for key, value in entry["values"].items():
            old = prev.get(key)
            if kind == "counter":
                delta = value - (old or 0)
                if delta:
                    values[key] = delta
                continue
            count = value["count"] - (old["count"] if old else 0)
            if count:
                values[key] = {
                    "count": count,
                    "sum": value["sum"] - (old["sum"] if old else 0.0),
                    "buckets": [
                        b - (o if old else 0) for b, o in zip(
                            value["buckets"],
                            old["buckets"] if old else value["buckets"],
                        )
                    ],
                    "min": None,
                    "max": None,
                }
        out[name] = {**entry, "values": values}
    return out


def _series(snapshot: dict, name: str, labels: dict) -> list:
    """Values of *name*'s series whose labels include *labels*."""
    return [
        value for series_labels, value in labeled_series(snapshot, name)
        if labels.items() <= series_labels.items()
    ]


def counter(snapshot: dict, name: str, **labels) -> float:
    """Sum of a counter's series whose labels include *labels*."""
    return sum(_series(snapshot, name, labels))


def histogram(snapshot: dict, name: str, **labels) -> tuple[int, float]:
    """``(count, sum)`` of a histogram's series matching *labels*."""
    series = _series(snapshot, name, labels)
    return (sum(s["count"] for s in series),
            sum(s["sum"] for s in series))


# -------------------------------------------------------------- the metrics
def layer_metrics(
    *,
    ops: int,
    nodes: list[Node],
    windows: list[tuple],
    reg: dict,
    extra: dict,
) -> dict[str, float]:
    """Every per-layer metric; layers the workload does not reach read 0.

    *ops* is the number of traced benchmark operations, *windows* their
    ``(pid, tid, start_us, end_us)`` intervals, *reg* the registry delta
    over them and *extra* the workload-specific values (any metric name
    of :data:`LAYER_UNITS`).
    """
    per_op = 1.0 / max(1, ops)
    spans = self_times(nodes)

    def span_ms(name: str, field: str = "self_us") -> float:
        if name in spans:
            return spans[name][field] / 1e3
        return histogram(reg, "repro_span_seconds", span=name)[1] * 1e3

    def span_count(name: str) -> int:
        if name in spans:
            return int(spans[name]["count"])
        return histogram(reg, "repro_span_seconds", span=name)[0]

    candidates = counter(reg, "repro_sage_candidates_total")
    predictions = counter(reg, "repro_sage_predictions_total")
    pool_spans = [
        n for n in nodes
        if n.name == "pool.fork_map" and n.args.get("path") == "pool"
    ]
    pool_capacity_s = sum(
        n.dur / 1e6 * int(n.args.get("processes", 1)) for n in pool_spans
    )
    task_s = histogram(reg, "repro_pool_task_seconds")[1]
    xp_count = span_count("xp.cell")
    xp_total_ms = (
        spans["xp.cell"]["total_us"] / 1e3 if "xp.cell" in spans else 0.0
    )
    metrics = {
        "sage.enumerate_ms": span_ms("sage.enumerate") * per_op,
        "sage.rerank_ms": span_ms("sage.rerank") * per_op,
        "sage.calibrate_ms": span_ms("sage.calibrate") * per_op,
        "sage.candidates": candidates / predictions if predictions else 0.0,
        "sage.feasible_share": (
            counter(reg, "repro_sage_candidates_total", feasible="yes")
            / candidates if candidates else 0.0
        ),
        "api.run_self_ms": span_ms("api.run") * per_op
        if "api.run" in spans else 0.0,
        "api.cache_hit_ratio": 0.0,
        # Total, not self: the mint.hop children are the conversion work.
        "mint.convert_ms": span_ms("mint.convert", "total_us") * per_op,
        "mint.hops": span_count("mint.hop"),
        "accel.gemm_ms": span_ms("accel.gemm") * per_op,
        "accel.prepare_ms": span_ms("accel.prepare") * per_op,
        "accel.gemms": counter(reg, "repro_accel_gemms_total"),
        "accel.sim_cycles": counter(reg, "repro_accel_phase_cycles_total"),
        "pool.fork_map_ms": span_ms("pool.fork_map") * per_op,
        "pool.maps_pool": counter(reg, "repro_pool_maps_total", path="pool"),
        "pool.maps_seq": counter(
            reg, "repro_pool_maps_total", path="sequential"),
        "pool.task_s": task_s,
        "pool.efficiency": (
            task_s / pool_capacity_s if pool_capacity_s else 0.0
        ),
        "shm.leaked_segments": 0,
        "shm.tracker_errors": 0,
        "serve.queue_p50_ms": 0.0,
        "serve.compute_p50_ms": 0.0,
        "serve.front_hit_ratio": 0.0,
        "serve.fast_path_share": 0.0,
        "serve.coalesced": 0,
        "serve.errors": 0,
        "xp.cell_ms": xp_total_ms / xp_count if xp_count else 0.0,
        "xp.cells": xp_count,
        "calibrate.cells": 0,
        "obs.trace_overhead": 0.0,
        "obs.unattributed_share": unattributed_share(nodes, windows),
    }
    unknown = set(extra) - set(metrics)
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    metrics.update(extra)
    return metrics
