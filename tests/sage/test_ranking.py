"""The ``Ranking`` contract: a lazy sequence over a priced menu's columns.

A fresh analytical decision holds its ranking as a
:class:`~repro.sage.cost_model.Ranking`.  It must behave like the tuple of
``CostBreakdown`` rows it replaced (indexing, slicing, equality, hashing,
pickling), while building a row only when that row is read.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import threading

import pytest

from repro.api.backends import _relabel
from repro.sage import Sage
from repro.sage import cost_model
from repro.sage.cost_model import CostBreakdown, Ranking
from repro.sage.predictor import truncate_ranking
from repro.workloads import MATRIX_SUITE, TENSOR_SUITE, Kernel

SAGE = Sage()


def _fresh(entry=MATRIX_SUITE[2], kernel=Kernel.SPGEMM):
    return SAGE.predict_matrix(entry.matrix_workload(kernel))


def _built(ranking: Ranking) -> int:
    """How many rows the ranking's menu has built so far."""
    return len(ranking._menu._rows)


@pytest.fixture
def count_builds(monkeypatch):
    """Count the breakdowns a menu builds from here on."""
    built = []

    def counting(*fields):
        built.append(fields)
        return CostBreakdown(*fields)

    monkeypatch.setattr(cost_model, "CostBreakdown", counting)
    return built


class TestIndexing:
    def test_best_is_the_first_row_and_only_it_is_built(self):
        decision = _fresh()
        assert isinstance(decision.ranking, Ranking)
        assert len(decision.ranking) == 288
        assert _built(decision.ranking) == 1
        assert decision.best is decision.ranking[0]
        assert decision.ranking[0] is decision.ranking[0]

    def test_rows_match_the_tuple(self):
        ranking = _fresh().ranking
        rows = tuple(ranking)
        assert len(rows) == len(ranking)
        for i in (0, 1, 17, 287, -1, -2, -288):
            assert ranking[i] is rows[i]
        for bad in (288, -289):
            with pytest.raises(IndexError):
                ranking[bad]

    @pytest.mark.parametrize(
        "outer, inner",
        [
            (slice(None, 8), slice(None)),
            (slice(3, 40), slice(2, -5)),
            (slice(None, None, -1), slice(10, 20)),
            (slice(-50, None, 3), slice(None, None, -2)),
            (slice(5, 5), slice(None)),
            (slice(0, 288), slice(-3, None)),
        ],
    )
    def test_slices_and_slices_of_slices(self, outer, inner):
        ranking = _fresh().ranking
        rows = tuple(ranking)
        view = ranking[outer]
        assert isinstance(view, Ranking)
        assert tuple(view) == rows[outer]
        nested = view[inner]
        assert isinstance(nested, Ranking)
        assert tuple(nested) == rows[outer][inner]
        # Views share the menu, so a row is the same object through any.
        for i, row in enumerate(nested):
            assert row is rows[outer][inner][i]

    def test_slices_stay_lazy(self):
        ranking = _fresh().ranking
        view = ranking[10:200][5:50:2]
        assert _built(ranking) == 1
        assert view[0] is ranking[15]
        assert _built(ranking) == 2

    def test_edp_order_and_sequence_mixins(self):
        ranking = _fresh().ranking
        edps = [cost.edp for cost in ranking]
        assert edps == sorted(edps)
        third = ranking[2]
        assert third in ranking
        assert ranking.index(third) == 2
        assert ranking.count(third) == 1
        assert list(reversed(ranking)) == list(ranking)[::-1]

    def test_menu_edp_column_is_each_rows_edp_bit_for_bit(self):
        for entry, kernel in [
            (MATRIX_SUITE[0], Kernel.SPMM),
            (MATRIX_SUITE[7], Kernel.SPGEMM),
        ]:
            menu = _fresh(entry, kernel).ranking._menu
            assert menu.edp().tolist() == [
                menu.row(i).edp for i in range(len(menu))
            ]
        for kernel in (Kernel.SPTTM, Kernel.MTTKRP):
            menu = SAGE.predict_tensor(
                TENSOR_SUITE[1].tensor_workload(kernel)
            ).ranking._menu
            assert menu.edp().tolist() == [
                menu.row(i).edp for i in range(len(menu))
            ]


class TestEquality:
    def test_equals_the_tuple_both_ways(self):
        ranking = _fresh().ranking
        rows = tuple(ranking)
        assert ranking == rows
        assert rows == ranking
        assert list(rows) == ranking
        assert ranking == list(rows)
        assert not ranking != rows
        assert ranking[:5] == rows[:5]
        assert rows[:5] == ranking[:5]

    def test_unequal_rows_or_lengths(self):
        ranking = _fresh().ranking
        rows = tuple(ranking)
        assert ranking != rows[:-1]
        assert rows[:-1] != ranking
        assert ranking != rows[::-1]
        assert ranking != _fresh(MATRIX_SUITE[3]).ranking
        assert ranking != "not a ranking"
        assert ranking != 288

    def test_hash_is_the_tuples(self):
        ranking = _fresh().ranking
        assert hash(ranking) == hash(tuple(ranking))
        assert hash(ranking[3:9]) == hash(tuple(ranking)[3:9])

    def test_decisions_compare_and_hash_through_it(self):
        a, b = _fresh(), _fresh()
        assert a == b
        assert hash(a) == hash(b)
        as_tuple = dataclasses.replace(b, ranking=tuple(b.ranking))
        assert a == as_tuple
        assert hash(a) == hash(as_tuple)


class TestPickle:
    def test_round_trip_keeps_rows_and_shared_pairs(self):
        decision = _fresh()
        shipped = pickle.loads(pickle.dumps(decision))
        assert isinstance(shipped.ranking, Ranking)
        assert shipped == decision
        assert shipped.best is shipped.ranking[0]
        assert [c.to_wire() for c in shipped.ranking] == [
            c.to_wire() for c in decision.ranking
        ]
        # One tuple per distinct format pair, across rows and decisions.
        other = pickle.loads(pickle.dumps(_fresh(MATRIX_SUITE[5])))
        pairs = {}
        for cost in list(shipped.ranking) + list(other.ranking):
            assert pairs.setdefault(cost.mcf, cost.mcf) is cost.mcf
            assert pairs.setdefault(cost.acf, cost.acf) is cost.acf

    def test_unpickled_ranking_is_lazy(self):
        shipped = pickle.loads(pickle.dumps(_fresh()))
        assert _built(shipped.ranking) == 1
        shipped.ranking[100]
        assert _built(shipped.ranking) == 2

    def test_pickles_smaller_than_the_tuple(self):
        decision = _fresh()
        ranking = decision.ranking
        columns = len(pickle.dumps(ranking))
        rows = len(pickle.dumps(tuple(ranking)))
        assert len(ranking) == 288
        assert columns < rows / 2

    def test_a_view_pickles_only_its_rows(self):
        ranking = _fresh().ranking
        view = ranking[::-1][3:11]
        shipped = pickle.loads(pickle.dumps(view))
        assert len(shipped._menu) == 8
        assert shipped == view
        assert len(pickle.dumps(view)) < len(pickle.dumps(ranking))


class TestStaysLazy:
    def test_truncate_relabel_and_replace(self):
        decision = _fresh()
        truncated = truncate_ranking(decision, 8)
        relabelled = _relabel(truncated, "other-name")
        replaced = dataclasses.replace(relabelled, sim_scale=0.5)
        for d in (truncated, relabelled, replaced):
            assert isinstance(d.ranking, Ranking)
            assert len(d.ranking) == 8
            assert d.best is decision.best
            assert d.ranking[0] is decision.best
        assert _built(decision.ranking) == 1
        assert truncate_ranking(decision, None) is decision
        assert truncate_ranking(decision, 288) is decision

    def test_repeated_wire_of_a_cached_decision_builds_each_row_once(
        self, count_builds
    ):
        # The serve hit path answers a cached decision with to_wire(top=8).
        decision = _fresh()
        before = len(count_builds)
        wires = [decision.to_wire(top=8) for _ in range(5)]
        assert len(count_builds) - before == 7  # rows 1..7; best was built
        assert all(wire == wires[0] for wire in wires)
        assert len(wires[0]["ranking"]) == 8
        relabelled = dataclasses.replace(decision, workload_name="x")
        relabelled.to_wire(top=8)
        truncate_ranking(decision, 8).to_wire()
        assert len(count_builds) - before == 7


def test_threads_reading_one_ranking_share_each_row():
    """A served decision is read by many handler threads at once."""
    ranking = _fresh().ranking
    threads_n, seen = 8, []
    barrier = threading.Barrier(threads_n)

    def read():
        barrier.wait(timeout=10)
        seen.append([ranking[i] for i in range(len(ranking))])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == threads_n
    for rows in seen:
        assert all(row is first for row, first in zip(rows, seen[0]))
    assert _built(ranking) == len(ranking)
