"""Property tests for the exact-merge metric registry.

The merge laws are the load-bearing guarantee of ``repro.obs.metrics``:
fork-pool workers, serve ledgers and remote servers each hold their own
registry, and the aggregate is produced purely by merging snapshots.
Integer-valued samples are used wherever exact equality is asserted —
integer float addition is exact well past any count these tests reach,
so snapshot equality is bitwise, not approximate.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricRegistry,
    _label_key,
    _parse_label_key,
    merge_snapshots,
    render_prometheus,
    snapshot_quantile,
)

# One operation on a registry: (metric kind, label value, amount).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["counter", "gauge", "hist"]),
        st.sampled_from(["a", "b", ""]),
        st.integers(min_value=1, max_value=1_000),
    ),
    max_size=30,
)


def _apply(ops) -> dict:
    """Replay *ops* onto a fresh registry, return its snapshot."""
    reg = MetricRegistry()
    for kind, label, amount in ops:
        labels = {"l": label} if label else {}
        if kind == "counter":
            reg.counter("c_total", "ops").inc(amount, **labels)
        elif kind == "gauge":
            reg.gauge("g", "level").set(amount, **labels)
        else:
            reg.histogram("h_seconds", "dur").observe(amount, **labels)
    return reg.snapshot()


class TestMergeLaws:
    @given(_OPS, _OPS)
    def test_commutative(self, ops_a, ops_b):
        a, b = _apply(ops_a), _apply(ops_b)
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    @given(_OPS, _OPS, _OPS)
    @settings(max_examples=50)
    def test_associative(self, ops_a, ops_b, ops_c):
        a, b, c = _apply(ops_a), _apply(ops_b), _apply(ops_c)
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right

    @given(_OPS)
    def test_identity(self, ops):
        snap = _apply(ops)
        assert merge_snapshots(snap, {}) == snap
        assert merge_snapshots() == {}

    @given(_OPS, _OPS)
    def test_split_run_equals_sequential_run(self, ops_a, ops_b):
        """Worker parity at the snapshot level: replaying a stream split
        across two registries and merging equals replaying it on one.

        Holds for counters and histograms (pure sums).  Gauges are
        point-in-time by design — merge takes the max while a sequential
        replay keeps the last set value — so they are excluded.
        """
        merged = merge_snapshots(_apply(ops_a), _apply(ops_b))
        sequential = _apply(list(ops_a) + list(ops_b))
        for snap in (merged, sequential):
            snap.pop("g", None)
        assert merged == sequential


class TestHistogramQuantile:
    @given(
        st.lists(
            st.floats(min_value=1e-5, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=60,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_estimate_bounded_by_bucket_width(self, values, q):
        hist = Histogram("h", bounds=DEFAULT_BUCKETS)
        for value in values:
            hist.observe(value)
        estimate = hist.quantile(q)
        rank = max(1, math.ceil(q * len(values)))
        true = sorted(values)[rank - 1]
        # Log2 buckets: the estimate is the containing bucket's upper
        # edge clamped to the observed max, so it can never undershoot
        # the true nearest-rank sample nor overshoot it by more than the
        # bucket factor (2x).
        assert true <= estimate <= 2.0 * true

    def test_empty_series_is_none(self):
        hist = Histogram("h")
        assert hist.quantile(0.5) is None
        assert hist.quantile(0.5, op="x") is None

    def test_overflow_bucket_returns_observed_max(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(1000.0)
        assert hist.quantile(0.99) == 1000.0

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    @given(
        st.lists(st.integers(min_value=1, max_value=128),
                 min_size=1, max_size=40),
        st.integers(min_value=0, max_value=40),
    )
    def test_merged_quantile_equals_single_process(self, values, split):
        """Estimates off a merged snapshot match a single-registry run."""
        split = min(split, len(values))
        one = MetricRegistry()
        left, right = MetricRegistry(), MetricRegistry()
        for reg, chunk in ((left, values[:split]), (right, values[split:])):
            for v in chunk:
                reg.histogram("h").observe(v)
        for v in values:
            one.histogram("h").observe(v)
        merged = merge_snapshots(left.snapshot(), right.snapshot())
        assert merged == one.snapshot()
        for q in (0.0, 0.5, 0.9, 1.0):
            assert snapshot_quantile(merged["h"], "", q) == one.histogram(
                "h"
            ).quantile(q)


def _edge_samples(count: int) -> list[float]:
    """*count* ascending millisecond-scale samples on log2 bucket edges.

    A sample equal to a bucket's upper edge is estimated as that edge,
    so these quantile estimates are exact and pin the nearest rank.
    """
    return [2.0 ** e for e in range(-12, -12 + count)]


class TestNearestRank:
    """``Histogram.quantile`` picks the ``ceil(q*n)``-th sample.

    ``round(q * n)`` banker's-rounds half cases down and under-selects —
    p90 of a 5-sample series would pick the 4th sample, the 80th
    percentile.  These are the serve stats percentiles' rank cases.
    """

    @staticmethod
    def _hist(samples: list[float]) -> Histogram:
        hist = Histogram("h")
        for value in samples:
            hist.observe(value)
        return hist

    def test_odd_series(self):
        samples = _edge_samples(5)
        hist = self._hist(samples)
        assert hist.count() == 5
        assert hist.quantile(0.50) == samples[2]
        assert hist.quantile(0.90) == samples[4]  # not samples[3]
        assert hist.quantile(0.99) == samples[4]

    def test_even_series(self):
        samples = _edge_samples(4)
        hist = self._hist(samples)
        assert hist.quantile(0.50) == samples[1]
        assert hist.quantile(0.90) == samples[3]
        assert hist.quantile(0.99) == samples[3]

    def test_ten_samples(self):
        samples = _edge_samples(10)
        hist = self._hist(samples)
        assert hist.quantile(0.50) == samples[4]
        assert hist.quantile(0.90) == samples[8]
        assert hist.quantile(0.99) == samples[9]

    def test_single_sample(self):
        hist = self._hist([2.0 ** -7])
        for q in (0.50, 0.90, 0.99):
            assert hist.quantile(q) == 2.0 ** -7

    def test_empty_series(self):
        hist = self._hist([])
        assert hist.count() == 0
        for q in (0.50, 0.90, 0.99):
            assert hist.quantile(q) is None


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_conflict_rejected(self):
        reg = MetricRegistry()
        reg.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("m")

    def test_histogram_bounds_conflict_rejected(self):
        reg = MetricRegistry()
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="different"):
            reg.histogram("h", bounds=(1.0, 4.0))

    def test_merge_rejects_mismatched_bucketing(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(1)
        b.histogram("h", bounds=(1.0, 2.0, 4.0)).observe(1)
        with pytest.raises(ValueError, match="bucket"):
            merge_snapshots(a.snapshot(), b.snapshot())

    def test_reset_keeps_handles_alive(self):
        reg = MetricRegistry()
        counter = reg.counter("c")
        counter.inc(5)
        reg.reset()
        assert counter.value() == 0
        counter.inc(2)  # the pre-reset handle still records
        assert reg.counter("c").value() == 2

    def test_gauge_merges_by_max(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.gauge("g").set(3)
        b.gauge("g").set(7)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["g"]["values"][""] == 7


class TestLabels:
    @given(
        st.dictionaries(
            st.sampled_from(["op", "kind", "path"]),
            st.text(min_size=1, max_size=8),
            max_size=3,
        )
    )
    def test_label_key_roundtrip(self, labels):
        key = _label_key(labels)
        parsed = _parse_label_key(key)
        assert set(parsed) == set(labels)
        for k, v in labels.items():
            # Sanitization replaces separators; everything else survives.
            expected = v
            for ch in (",", "=", "\n"):
                expected = expected.replace(ch, "_")
            assert parsed[k] == expected


class TestPrometheusRender:
    def test_render_counter_gauge_histogram(self):
        reg = MetricRegistry()
        reg.counter("c_total", "help text").inc(3, op="x")
        reg.gauge("g").set(2.5)
        reg.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        text = render_prometheus(reg.snapshot())
        assert "# HELP c_total help text" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{op="x"} 3' in text
        assert "g 2.5" in text
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="2"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_count 1" in text

    def test_registry_render_matches_snapshot_render(self):
        reg = MetricRegistry()
        reg.counter("c").inc()
        assert reg.render_prometheus() == render_prometheus(reg.snapshot())
