"""Batch SAGE search: ``Sage.predict_many`` over a workload suite."""

from __future__ import annotations

import os

import pytest

from repro.sage import Sage
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload


class _WorkerBugSage(Sage):
    """Picklable predictor whose bug only manifests inside pool workers."""

    def __init__(self) -> None:
        super().__init__()
        self._parent_pid = os.getpid()

    def predict(self, workload, **kwargs):
        if os.getpid() != self._parent_pid:
            raise AttributeError("worker-side bug")
        return super().predict(workload, **kwargs)


def _suite() -> list[MatrixWorkload | TensorWorkload]:
    return [
        MatrixWorkload("mm-a", Kernel.SPMM, m=256, k=256, n=128,
                       nnz_a=2_000, nnz_b=256 * 128),
        MatrixWorkload("mm-b", Kernel.SPGEMM, m=300, k=200, n=100,
                       nnz_a=1_500, nnz_b=900),
        TensorWorkload("tt-a", Kernel.SPTTM, shape=(32, 32, 32),
                       nnz=1_000, rank=16),
        MatrixWorkload("mm-c", Kernel.SPMM, m=128, k=512, n=64,
                       nnz_a=4_000, nnz_b=512 * 64),
    ]


class TestPredictMany:
    def test_sequential_matches_per_workload_calls(self):
        sage = Sage()
        suite = _suite()
        batch = sage.predict_many(suite, processes=1)
        singles = [sage.predict(wl) for wl in suite]
        assert [d.workload_name for d in batch] == [wl.name for wl in suite]
        for got, want in zip(batch, singles):
            assert got.best.mcf == want.best.mcf
            assert got.best.acf == want.best.acf
            assert got.best.edp == pytest.approx(want.best.edp)

    def test_process_pool_matches_sequential(self):
        sage = Sage()
        suite = _suite()
        seq = sage.predict_many(suite, processes=1)
        par = sage.predict_many(suite, processes=2)
        for got, want in zip(par, seq):
            assert got.workload_name == want.workload_name
            assert got.best.mcf == want.best.mcf
            assert got.best.acf == want.best.acf
            assert got.best.edp == pytest.approx(want.best.edp)
            assert len(got.ranking) == len(want.ranking)

    def test_single_workload_stays_in_process(self):
        sage = Sage()
        [decision] = sage.predict_many(_suite()[:1], processes=8)
        assert decision.workload_name == "mm-a"

    def test_empty_suite(self):
        assert Sage().predict_many([]) == []

    def test_unpicklable_provider_falls_back_to_sequential(self):
        from repro.sage.cost_model import mint_provider

        sage = Sage(provider=lambda *a: mint_provider(*a))
        suite = _suite()[:2]
        decisions = sage.predict_many(suite, processes=2)
        reference = Sage().predict_many(suite, processes=1)
        assert [d.best.mcf for d in decisions] == [
            d.best.mcf for d in reference
        ]

    def test_unpicklable_workload_falls_back_to_sequential(self):
        suite = _suite()[:2]
        # Smuggle an unpicklable attribute onto the frozen dataclass.
        object.__setattr__(suite[0], "_hook", lambda: None)
        decisions = Sage().predict_many(suite, processes=2)
        assert [d.workload_name for d in decisions] == [w.name for w in suite]

    def test_worker_bug_propagates_instead_of_degrading(self):
        # Before the pre-flight pickle check, any AttributeError/TypeError
        # escaping a worker was misread as "non-picklable predictor" and
        # silently retried sequentially.  _WorkerBugSage pickles fine, so
        # its worker-side failure must now surface.
        sage = _WorkerBugSage()
        with pytest.raises(AttributeError, match="worker-side bug"):
            sage.predict_many(_suite()[:2], processes=2)

    def test_predict_dispatches_on_arity(self):
        sage = Sage()
        suite = _suite()
        assert sage.predict(suite[0]).best is not None  # matrix
        assert sage.predict(suite[2]).best is not None  # tensor
