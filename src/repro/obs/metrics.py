"""Process-local metric registry whose snapshots merge exactly.

Every layer of the stack (``Session``, SAGE, MINT, the simulator, the
fork pool) records onto one
process-global :class:`MetricRegistry` of labeled :class:`Counter`,
:class:`Gauge` and fixed-log-bucket :class:`Histogram` metrics; each
serve ``SageServer`` keeps its request ledger on a registry of its own,
which its ``stats`` RPC reads and merges in.  The
design constraint — in the spirit of the paper's own per-phase cycle
accounting — is that telemetry must survive the repo's fan-out shapes:
fork-pool workers and remote servers all hold
*their own* registry, and the aggregate is produced by **merging
snapshots**, so merge must be exact:

* counters and histogram buckets **sum** (associative and commutative);
* gauges merge by **max** (the only order-free reduction that makes
  sense for point-in-time values);
* histograms use **fixed log-spaced bucket bounds** shared by every
  process, so bucket-wise sums align without re-binning and quantile
  estimates are bounded by the width of the containing bucket.

Snapshots are JSON-safe dicts (they travel on fork-pool result chunks
and on the serve ``stats`` RPC) and :func:`merge_snapshots` is a pure
function over them, property-tested for associativity/commutativity in
``tests/obs/test_metrics.py``.

The whole plane is switchable: ``REPRO_OBS=off`` (or
:func:`set_enabled`\\ ``(False)``) turns every ``inc``/``observe`` into
an early return, and ``benchmarks/bench_obs_overhead.py`` pins the
instrumented-vs-off overhead of the predict hot path below 5%.

Label values are sanitized (``,`` ``=`` and newlines become ``_``) so a
snapshot's canonical ``"k=v,k2=v2"`` label keys parse back losslessly.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from typing import Callable, Iterable

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "enabled",
    "merge_snapshots",
    "registry",
    "reset_registry",
    "set_enabled",
]

#: Default histogram bounds: log2-spaced seconds from ~1 microsecond to
#: 128 s, plus an implicit overflow bucket.  Fixed (not adaptive) so
#: every process bins identically and snapshot merges are bucket-exact.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(2.0 ** e for e in range(-20, 8))

_ENABLED = os.environ.get("REPRO_OBS", "on").strip().lower() not in (
    "off", "0", "false", "no",
)


def enabled() -> bool:
    """Whether the metrics plane records anything (``REPRO_OBS`` gate)."""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Flip the metrics plane on/off at runtime (benchmarks, tests)."""
    global _ENABLED
    _ENABLED = bool(flag)


def _sanitize(value: object) -> str:
    text = str(value)
    for ch in (",", "=", "\n"):
        if ch in text:
            text = text.replace(ch, "_")
    return text


def _label_key(labels: dict) -> str:
    """Canonical snapshot key: ``""`` or ``"k=v,k2=v2"`` (sorted)."""
    if not labels:
        return ""
    if len(labels) == 1:  # the hot-path shape (span=..., op=..., ...)
        ((k, v),) = labels.items()
        return f"{k}={_sanitize(v)}"
    return ",".join(
        f"{k}={_sanitize(v)}" for k, v in sorted(labels.items())
    )


def _parse_label_key(key: str) -> dict[str, str]:
    """Inverse of :func:`_label_key` (labels are sanitized, so exact)."""
    if not key:
        return {}
    return dict(part.split("=", 1) for part in key.split(","))


class _Metric:
    """Shared bookkeeping: name, help text, a lock, labeled value slots."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: dict[str, object] = {}


class Counter(_Metric):
    """Monotonic sum; snapshots merge by addition."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add *amount* (default 1) to the labeled series."""
        if not _ENABLED:
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        """Current value of the labeled series (0 when never touched)."""
        with self._lock:
            return float(self._values.get(_label_key(labels), 0))

    def _snapshot_values(self) -> dict:
        with self._lock:
            return dict(self._values)

    def _merge_values(self, values: dict) -> None:
        with self._lock:
            for key, value in values.items():
                self._values[key] = self._values.get(key, 0) + value


class Gauge(_Metric):
    """Point-in-time value; snapshots merge by max (order-free)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set the labeled series to *value*."""
        if not _ENABLED:
            return
        with self._lock:
            self._values[_label_key(labels)] = value

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._values.get(_label_key(labels), 0))

    def _snapshot_values(self) -> dict:
        with self._lock:
            return dict(self._values)

    def _merge_values(self, values: dict) -> None:
        with self._lock:
            for key, value in values.items():
                mine = self._values.get(key)
                self._values[key] = (
                    value if mine is None else max(mine, value)
                )


class Histogram(_Metric):
    """Fixed-bucket distribution; bucket counts merge by addition.

    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]`` (``bounds[-1]`` is
    the last finite edge; larger samples land in the overflow bucket).
    Alongside the counts the histogram keeps exact ``count``/``sum`` and
    ``min``/``max``, all of which merge exactly, so
    :meth:`quantile` estimates from a merged snapshot are identical to
    estimates from a single-process run over the same samples.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(
                f"histogram {name!r} bounds must be strictly increasing"
            )

    def _state(self, key: str) -> dict:
        state = self._values.get(key)
        if state is None:
            state = self._values[key] = {
                "buckets": [0] * (len(self.bounds) + 1),
                "count": 0,
                "sum": 0.0,
                "min": None,
                "max": None,
            }
        return state

    def observe(self, value: float, **labels) -> None:
        """Record one sample into the labeled series."""
        if not _ENABLED:
            return
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            state = self._state(_label_key(labels))
            state["buckets"][index] += 1
            state["count"] += 1
            state["sum"] += value
            state["min"] = (
                value if state["min"] is None else min(state["min"], value)
            )
            state["max"] = (
                value if state["max"] is None else max(state["max"], value)
            )

    def count(self, **labels) -> int:
        """Number of samples in the labeled series."""
        with self._lock:
            state = self._values.get(_label_key(labels))
            return 0 if state is None else int(state["count"])

    def sum(self, **labels) -> float:
        """Sum of samples in the labeled series."""
        with self._lock:
            state = self._values.get(_label_key(labels))
            return 0.0 if state is None else float(state["sum"])

    def quantile(self, q: float, **labels) -> float | None:
        """Nearest-rank quantile estimate, bounded by bucket width.

        Returns the upper edge of the bucket holding the ``ceil(q*n)``-th
        sample (clamped to the observed max), so the estimate is within
        one bucket width of the true nearest-rank sample.  ``None`` when
        the series is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            state = self._values.get(_label_key(labels))
            if state is None or not state["count"]:
                return None
            return _bucket_quantile(dict(state), self.bounds, q)

    def _snapshot_values(self) -> dict:
        with self._lock:
            return {
                key: {
                    "buckets": list(state["buckets"]),
                    "count": state["count"],
                    "sum": state["sum"],
                    "min": state["min"],
                    "max": state["max"],
                }
                for key, state in self._values.items()
            }

    def _merge_values(self, values: dict) -> None:
        with self._lock:
            for key, other in values.items():
                state = self._state(key)
                _merge_histogram_state(state, other)


def _merge_histogram_state(state: dict, other: dict) -> None:
    if len(other["buckets"]) != len(state["buckets"]):
        raise ValueError(
            "cannot merge histogram snapshots with different bucketing"
        )
    state["buckets"] = [
        a + b for a, b in zip(state["buckets"], other["buckets"])
    ]
    state["count"] += other["count"]
    state["sum"] += other["sum"]
    for field, pick in (("min", min), ("max", max)):
        theirs = other[field]
        if theirs is not None:
            mine = state[field]
            state[field] = theirs if mine is None else pick(mine, theirs)


def _bucket_quantile(
    state: dict, bounds: tuple[float, ...], q: float
) -> float:
    rank = max(1, math.ceil(q * state["count"]))
    cumulative = 0
    for index, bucket_count in enumerate(state["buckets"]):
        cumulative += bucket_count
        if cumulative >= rank:
            if index >= len(bounds):  # overflow bucket
                return float(state["max"])
            upper = bounds[index]
            return float(
                upper if state["max"] is None else min(upper, state["max"])
            )
    return float(state["max"])  # pragma: no cover - count guards this


class MetricRegistry:
    """A named collection of metrics with exact-merge snapshots.

    One process-global instance (:func:`registry`) backs the whole
    stack; separate instances hold each serve ``SageServer``'s ledger
    (and the counts of a ``DecisionCache`` given none), and back tests
    and the serve ``stats`` merge path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(
        self, cls, name: str, help: str, factory: Callable[[], _Metric]
    ) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}"
                )
            if help and not metric.help:
                metric.help = help
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get-or-create the named :class:`Counter`."""
        return self._get_or_create(
            Counter, name, help, lambda: Counter(name, help)
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get-or-create the named :class:`Gauge`."""
        return self._get_or_create(
            Gauge, name, help, lambda: Gauge(name, help)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get-or-create the named :class:`Histogram` (bounds must agree)."""
        metric = self._get_or_create(
            Histogram, name, help, lambda: Histogram(name, help, bounds)
        )
        if tuple(metric.bounds) != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with different "
                f"bucket bounds"
            )
        return metric

    def metrics(self) -> list[_Metric]:
        """The registered metrics, sorted by name."""
        with self._lock:
            return [self._metrics[n] for n in sorted(self._metrics)]

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> dict:
        """JSON-safe state of every metric (see :func:`merge_snapshots`)."""
        out: dict = {}
        for metric in self.metrics():
            entry: dict = {
                "type": metric.kind,
                "help": metric.help,
                "values": metric._snapshot_values(),
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
            out[metric.name] = entry
        return out

    to_dict = snapshot

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another process's snapshot into this registry."""
        for name, entry in snapshot.items():
            kind = entry.get("type")
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""))
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""))
            elif kind == "histogram":
                metric = self.histogram(
                    name,
                    entry.get("help", ""),
                    tuple(entry.get("bounds", DEFAULT_BUCKETS)),
                )
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")
            metric._merge_values(entry["values"])

    def reset(self) -> None:
        """Zero every metric's values (definitions survive).

        Metric *objects* stay valid — module-level handles held by the
        instrumented layers keep working — which is what lets a forked
        worker reset the registry it inherited without invalidating the
        parent's handles it shares pre-fork state with.
        """
        for metric in self.metrics():
            with metric._lock:
                metric._values.clear()

    # ------------------------------------------------------------ rendering
    def render_prometheus(self) -> str:
        """Prometheus text exposition of the current state."""
        return render_prometheus(self.snapshot())


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text form of a snapshot (``# HELP`` / ``# TYPE`` / series)."""
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        values = entry["values"]
        if entry["type"] in ("counter", "gauge"):
            for key in sorted(values):
                lines.append(
                    f"{name}{_prom_labels(key)} {_prom_num(values[key])}"
                )
            continue
        bounds = entry.get("bounds", [])
        for key in sorted(values):
            state = values[key]
            cumulative = 0
            for index, bucket_count in enumerate(state["buckets"]):
                cumulative += bucket_count
                le = (
                    _prom_num(bounds[index])
                    if index < len(bounds)
                    else "+Inf"
                )
                lines.append(
                    f"{name}_bucket{_prom_labels(key, le=le)} {cumulative}"
                )
            lines.append(
                f"{name}_sum{_prom_labels(key)} {_prom_num(state['sum'])}"
            )
            lines.append(f"{name}_count{_prom_labels(key)} {state['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_labels(key: str, **extra: str) -> str:
    labels = _parse_label_key(key)
    labels.update(extra)
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
    return "{" + inner + "}"


def _prom_num(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def merge_snapshots(*snapshots: dict) -> dict:
    """Pure merge of any number of snapshots (associative, commutative).

    Counters and histogram buckets sum; gauges take the max; histogram
    bucket bounds must agree.  The result is itself a snapshot, so
    merging is closed and can be chained across any fan-out topology
    (pool workers -> parent -> serve stats -> CLI).
    """
    merged = MetricRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


def snapshot_quantile(entry: dict, key: str, q: float) -> float | None:
    """Quantile estimate straight from one histogram snapshot entry.

    ``entry`` is one metric's snapshot dict (``type == "histogram"``);
    ``key`` is the canonical label key (``""`` for unlabeled).  Used by
    the ``repro stats`` CLI to summarize remote histograms without
    rebuilding metric objects.
    """
    state = entry["values"].get(key)
    if state is None or not state["count"]:
        return None
    return _bucket_quantile(state, tuple(entry["bounds"]), q)


#: The process-global registry the whole stack records onto.
_REGISTRY = MetricRegistry()


def registry() -> MetricRegistry:
    """The process-global :class:`MetricRegistry`."""
    return _REGISTRY


def reset_registry() -> None:
    """Zero the process-global registry (fork-pool worker init, tests)."""
    _REGISTRY.reset()


def labeled_series(snapshot: dict, name: str) -> Iterable[tuple[dict, object]]:
    """Iterate ``(labels, value)`` pairs of one snapshot metric."""
    entry = snapshot.get(name)
    if entry is None:
        return
    for key, value in sorted(entry["values"].items()):
        yield _parse_label_key(key), value
