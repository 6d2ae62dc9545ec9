"""fork_map: parity, one pickle per job, degradation, worker bugs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.pool import fork_map

_BIG = np.arange(200_000, dtype=np.float64)


def _checksum(item):
    tag, arr = item
    return tag, float(arr.sum()), arr.dtype.str


def _double(x):
    return x * 2


def _boom(x):
    if x == 3:
        raise AttributeError("worker-side bug")
    return x


class _CountedItem:
    """Counts how many times any instance crosses a pickler."""

    pickled = 0  # class-wide, reset per test

    def __init__(self, value: int) -> None:
        self.value = value

    def __getstate__(self):
        type(self).pickled += 1
        return {"value": self.value}

    def __setstate__(self, state):
        self.value = state["value"]


def _value_of(item: _CountedItem) -> int:
    return item.value


def _first(item):
    return item[0]


class TestParity:
    def test_matches_sequential(self):
        items = [(i, _BIG * (i + 1)) for i in range(6)]
        expected = [_checksum(item) for item in items]
        assert fork_map(_checksum, items, processes=3) == expected

    def test_consume_sees_results_in_order(self):
        seen = []
        out = fork_map(_double, list(range(8)), processes=2,
                       consume=seen.append)
        assert seen == out == [2 * i for i in range(8)]


class TestPreflight:
    def test_each_item_pickled_exactly_once(self):
        # The parent's pickle is both the pre-flight and the payload the
        # worker unpickles: no separate probe, no second serialization.
        _CountedItem.pickled = 0
        items = [_CountedItem(i) for i in range(10)]
        out = fork_map(_value_of, items, processes=2)
        assert out == list(range(10))
        assert _CountedItem.pickled == len(items)

    def test_unpicklable_first_item_degrades_sequentially(self):
        items = [(0, lambda: None), (1, None)]
        assert fork_map(_first, items, processes=2) == [0, 1]

    def test_unpicklable_later_item_degrades(self):
        # Every item is pickled before any worker starts, so a poison
        # pill anywhere in the batch degrades the whole batch.
        items = [(0, _BIG), (1, lambda: None), (2, _BIG)]
        assert fork_map(_first, items, processes=2) == [0, 1, 2]

    def test_worker_bug_propagates(self):
        # Exceptions escaping the pool after the pre-flight passes are
        # genuine worker bugs: never misread as "degrade sequentially".
        with pytest.raises(AttributeError, match="worker-side bug"):
            fork_map(_boom, list(range(6)), processes=2)


class TestDegradation:
    def test_single_item_runs_in_process(self):
        marker = []
        out = fork_map(lambda x: marker.append(x) or x, [41], processes=8)
        assert out == [41] and marker == [41]

    def test_processes_one_runs_in_process(self):
        marker = []
        fork_map(lambda x: marker.append(x) or x, [1, 2], processes=1)
        assert marker == [1, 2]
