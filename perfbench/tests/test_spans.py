"""Self time and unattributed share on synthetic nested trace events."""

from __future__ import annotations

import pytest

from repro.obs.metrics import merge_snapshots, snapshot_quantile

from perfbench.layers import (
    LAYER_UNITS,
    counter,
    histogram,
    layer_metrics,
    registry_delta,
)
from perfbench.spans import (
    build_tree,
    covered_us,
    self_times,
    unattributed_share,
)


def ev(name, ts, dur, pid=1, tid=1, **args):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid,
            "tid": tid, "args": args}


#: One run on thread (1, 1):
#:   api.run [0, 100)
#:     api.predict [5, 25)
#:       sage.enumerate [6, 24)
#:     mint.convert [30, 40)
#:     accel.gemm [50, 90)
#:       accel.prepare [50, 60)   <- starts with its parent
#: a pool worker (pid 2) span inside the same interval, and a second
#: thread (1, 7) with its own root.
EVENTS = [
    ev("accel.prepare", 50, 10),
    ev("api.run", 0, 100),
    ev("sage.enumerate", 6, 18),
    ev("api.predict", 5, 20),
    ev("accel.gemm", 50, 40),
    ev("mint.convert", 30, 10),
    ev("pool.task", 10, 50, pid=2),
    ev("serve.rpc", 20, 30, tid=7),
    {"name": "counter", "ph": "C", "ts": 0, "pid": 1, "tid": 1},
]


def test_self_time_subtracts_direct_children_only():
    spans = self_times(build_tree(EVENTS))
    assert spans["api.run"]["self_us"] == pytest.approx(100 - 20 - 10 - 40)
    assert spans["api.predict"]["self_us"] == pytest.approx(2)
    assert spans["sage.enumerate"]["self_us"] == pytest.approx(18)
    assert spans["accel.gemm"]["self_us"] == pytest.approx(30)
    assert spans["accel.prepare"]["self_us"] == pytest.approx(10)
    assert spans["api.run"]["total_us"] == pytest.approx(100)


def test_other_threads_and_processes_are_not_children():
    nodes = {n.name: n for n in build_tree(EVENTS)}
    assert nodes["pool.task"].parent is None
    assert nodes["serve.rpc"].parent is None
    assert nodes["accel.prepare"].parent is nodes["accel.gemm"]
    assert nodes["sage.enumerate"].parent is nodes["api.predict"]
    assert "counter" not in nodes  # only complete ("X") events nest


def test_float_rounding_at_the_parent_edge_still_nests():
    nodes = build_tree([ev("outer", 1e11, 10.0),
                        ev("inner", 1e11 + 4.0, 6.0 + 1e-5)])
    inner = next(n for n in nodes if n.name == "inner")
    assert inner.parent is not None


def test_siblings_back_to_back_do_not_nest():
    nodes = build_tree([ev("a", 0, 10), ev("b", 10, 5)])
    assert all(n.parent is None for n in nodes)


def test_coverage_counts_roots_on_the_timed_thread():
    nodes = build_tree(EVENTS)
    assert covered_us(nodes, 1, 1, -10, 110) == pytest.approx(100)
    assert covered_us(nodes, 1, 1, 90, 120) == pytest.approx(10)
    assert covered_us(nodes, 1, 7, 0, 100) == pytest.approx(30)
    assert covered_us(nodes, 3, 1, 0, 100) == 0


def test_unattributed_share_over_windows():
    nodes = build_tree(EVENTS + [ev("api.run", 200, 50)])
    windows = [(1, 1, -10, 110), (1, 1, 190, 260)]
    # Timed 120 + 70 = 190 us; roots cover 100 + 50.
    assert unattributed_share(nodes, windows) == pytest.approx(40 / 190)
    assert unattributed_share(nodes, []) == 0.0


def _snap(counter_values, hist_values, bounds=(1.0, 2.0, 4.0)):
    return {
        "c": {"type": "counter", "help": "", "values": counter_values},
        "h": {"type": "histogram", "help": "", "bounds": list(bounds),
              "values": hist_values},
        "g": {"type": "gauge", "help": "", "values": {"": 3}},
    }


def _hist(count, total, buckets):
    return {"count": count, "sum": total, "buckets": buckets,
            "min": None, "max": None}


def test_registry_delta_is_a_snapshot_that_merges_and_reads():
    before = _snap({"path=pool": 2}, {"stage=queue": _hist(1, 0.5,
                                                         [1, 0, 0, 0])})
    after = _snap({"path=pool": 5, "path=sequential": 1},
                  {"stage=queue": _hist(4, 6.5, [1, 2, 1, 0])})
    delta = registry_delta(before, after)
    assert "g" not in delta
    assert delta["c"]["values"] == {"path=pool": 3, "path=sequential": 1}
    assert delta["h"]["values"]["stage=queue"] == _hist(3, 6.0, [0, 2, 1, 0])
    total = merge_snapshots(merge_snapshots({}, delta), delta)
    assert counter(total, "c", path="pool") == 6
    assert counter(total, "c") == 8
    assert histogram(total, "h", stage="queue") == (6, 12.0)
    assert histogram(total, "h", stage="compute") == (0, 0)
    # Two samples in (1, 2], one in (2, 4]: the median reads as the bucket's
    # upper bound, as `repro stats` reports it.
    assert snapshot_quantile(delta["h"], "stage=queue", 0.5) == 2.0
    assert snapshot_quantile(delta["h"], "stage=compute", 0.5) is None


def test_layer_metrics_reports_every_layer_even_when_untouched():
    metrics = layer_metrics(ops=0, nodes=[], windows=[], reg={}, extra={})
    assert set(metrics) == set(LAYER_UNITS)
    assert not any(metrics.values())
    with pytest.raises(KeyError):
        layer_metrics(ops=1, nodes=[], windows=[], reg={},
                      extra={"nope.metric": 1})
