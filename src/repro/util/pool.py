"""Shared fork-pool fan-out with graceful sequential degradation.

Its one caller is the xp cell executor
(:func:`repro.xp.runner.run_cells`), through which the xp grid runner,
the tuner and the calibration builder fan out their cells.  It fans a
list of picklable jobs across a fork-context process pool, preserves
input order, and degrades to in-process execution on any platform that
cannot run a pool at all instead of failing.

Each job crosses into a worker as one pickle: ``(fn, item)`` is
serialized once in the parent, and the worker unpickles and calls it.
That serialization is also the pre-flight — an unpicklable item anywhere
in the batch is caught before any worker starts, so exceptions escaping
the pool are genuine worker bugs and propagate.  Results are identical to
the sequential path (pinned by ``tests/util/test_pool.py``).

Degradation triggers (all run the jobs sequentially in this process):

* a single job or ``processes <= 1`` — no pool worth spawning;
* unpicklable inputs (lambda providers, open handles);
* a daemonic caller — daemons may not have children;
* platforms that cannot spawn (or keep) a pool: ``OSError`` /
  ``PermissionError`` / ``BrokenProcessPool``.

Observability
-------------
When the obs plane is on, pool workers are telemetry-transparent: each
task's result travels back inside an envelope that also carries the
worker's current metric-registry snapshot (cumulative, sequence-numbered)
and its span-event delta.  The parent keeps the *latest* snapshot per
worker pid and merges them once the map completes, so aggregated worker
metrics are exactly equal to what a sequential run would have recorded
(pinned by a parity test).  Worker registries are reset in the pool
initializer — a forked child inherits the parent's counts, which would
otherwise double on merge.  Trace IDs and the enabled flag propagate the
same way, so ``repro run --trace`` sees inside workers.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["fork_map"]

T = TypeVar("T")
R = TypeVar("R")

_MAPS = obs_metrics.registry().counter(
    "repro_pool_maps_total", "fork_map invocations by execution path"
)
_TASK_SECONDS = obs_metrics.registry().histogram(
    "repro_pool_task_seconds", "Per-task wall-seconds inside pool workers"
)

#: Per-worker monotonically increasing task sequence number.  Snapshots
#: are cumulative, so the parent only needs the highest-sequence one per
#: pid to reconstruct that worker's full contribution.
_TASK_SEQ = 0


def _obs_worker_init(
    enabled: bool,
    trace_id: str | None,
    tracing: bool,
) -> None:
    """Pool initializer: obs worker setup.

    Resets the fork-inherited registry (its counts already live in the
    parent — merging them back would double-count), propagates the
    runtime enabled flag and trace ID, and installs a local recorder
    whose events ride result envelopes back when the parent is tracing.
    """
    obs_metrics.set_enabled(enabled)
    obs_metrics.reset_registry()
    obs_trace.set_trace_id(trace_id)
    obs_trace.resume_trace(obs_trace.TraceRecorder() if tracing else None)
    global _TASK_SEQ
    _TASK_SEQ = 0


def _run_job(payload: bytes):
    """Pool task: unpickle one ``(fn, item)`` job, time the call and
    envelope the result with this worker's telemetry."""
    global _TASK_SEQ
    fn, item = pickle.loads(payload)
    t0 = time.perf_counter()
    result = fn(item)
    _TASK_SECONDS.observe(time.perf_counter() - t0)
    _TASK_SEQ += 1
    return (
        result,
        os.getpid(),
        _TASK_SEQ,
        obs_metrics.registry().snapshot(),
        obs_trace.drain_events(),
    )


def fork_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    *,
    processes: int | None = None,
    consume: Callable[[R], None] | None = None,
) -> list[R]:
    """``[fn(item) for item in items]``, fanned across a fork pool.

    Results are returned in input order.  ``fn`` must be a module-level
    callable (the pool pickles it).

    ``consume(result)`` runs in the *calling* process as each result
    arrives (in input order, on every execution path) — callers that
    persist results incrementally survive interruption mid-batch instead
    of losing the whole barrier (the xp runner's artifact store relies on
    this).
    """
    items = list(items)

    def sequential() -> list[R]:
        _MAPS.inc(path="sequential")
        results = []
        with obs_trace.span("pool.fork_map", items=len(items), path="seq"):
            for item in items:
                result = fn(item)
                if consume is not None:
                    consume(result)
                results.append(result)
        return results

    if processes is None:
        processes = min(len(items), multiprocessing.cpu_count())
    if len(items) <= 1 or processes <= 1:
        return sequential()
    if multiprocessing.current_process().daemon:
        # Daemonic processes may not have children.
        return sequential()

    # One pickle per job, made here: the payload the worker unpickles
    # and the pre-flight at once.  An unpicklable item anywhere in the
    # batch degrades before any worker starts, so whatever escapes the
    # pool afterwards is a genuine worker bug and propagates.
    try:
        payloads = [pickle.dumps((fn, item)) for item in items]
    except (pickle.PicklingError, AttributeError, TypeError):
        return sequential()
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()
    tracing = obs_trace.recording()
    try:
        with ProcessPoolExecutor(
            max_workers=processes,
            mp_context=ctx,
            initializer=_obs_worker_init,
            initargs=(
                obs_metrics.enabled(),
                obs_trace.current_trace_id(),
                tracing,
            ),
        ) as pool:
            # Chunked submission: one pipe round-trip per chunk, not per
            # item.  ~4 chunks per worker amortizes per-task latency while
            # keeping the pool load-balanced.  Order is preserved.
            chunksize = max(1, len(payloads) // (processes * 4))
            results = []
            # Worker snapshots are cumulative: keep only the
            # highest-sequence one per worker pid, merge at the end.
            latest: dict[int, tuple[int, dict]] = {}
            span_events: list[dict] = []
            with obs_trace.span(
                "pool.fork_map",
                items=len(payloads),
                processes=processes,
                path="pool",
            ):
                for envelope in pool.map(
                    _run_job, payloads, chunksize=chunksize
                ):
                    result, pid, seq, snapshot, events = envelope
                    prev = latest.get(pid)
                    if prev is None or seq > prev[0]:
                        latest[pid] = (seq, snapshot)
                    span_events.extend(events)
                    if consume is not None:
                        consume(result)
                    results.append(result)
            reg = obs_metrics.registry()
            for _, snapshot in latest.values():
                reg.merge_snapshot(snapshot)
            recorder = obs_trace._RECORDER
            if recorder is not None:
                recorder.extend(span_events)
            _MAPS.inc(path="pool")
            return results
    except (OSError, PermissionError, BrokenProcessPool):
        # Platforms that cannot spawn (or keep) a pool at all.
        return sequential()
