"""Batch predicts: ``Session.predict(list)`` over a workload suite.

A local batch is a loop over the single-workload path, in this process:
the same cache, bypass, relabel and truncation as one predict, and no
process pool.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import LocalBackend, PredictOptions, Session
from repro.obs import registry
from repro.sage import Sage
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload


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


class _FailingSage(Sage):
    """Predictor whose single-workload path raises."""

    def predict(self, workload, **kwargs):
        raise AttributeError("predictor bug")


def _pool_maps() -> dict:
    entry = registry().snapshot().get("repro_pool_maps_total", {})
    return dict(entry.get("values", {}))


class TestSessionBatch:
    def test_batch_matches_per_workload_calls(self):
        suite = _suite()
        with Session() as session:
            batch = session.predict(suite)
            singles = [session.predict(wl) for wl in suite]
        assert [d.workload_name for d in batch] == [wl.name for wl in suite]
        assert batch == singles

    def test_batch_is_wire_identical_to_a_fresh_predictor(self):
        suite = _suite()
        with Session() as session:
            batch = session.predict(suite)
        sage = Sage()
        assert [d.to_wire() for d in batch] == [
            sage.predict(wl).to_wire() for wl in suite
        ]

    def test_empty_suite(self):
        with Session() as session:
            assert session.predict([]) == []

    def test_batch_dispatches_on_arity(self):
        suite = _suite()
        with Session() as session:
            batch = session.predict(suite)
        sage = Sage()
        assert batch[0] == sage.predict_matrix(suite[0])  # matrix
        assert batch[2] == sage.predict_tensor(suite[2])  # tensor

    def test_local_batch_forks_no_pool(self):
        before = _pool_maps()
        with Session() as session:
            decisions = session.predict(_suite())
        assert len(decisions) == len(_suite())
        assert _pool_maps() == before

    def test_single_workload_batch(self):
        with Session() as session:
            [decision] = session.predict(_suite()[:1])
        assert decision.workload_name == "mm-a"

    def test_unpicklable_provider_batches_in_process(self):
        from repro.sage.cost_model import mint_provider

        sage = Sage(provider=lambda *a: mint_provider(*a))
        suite = _suite()[:2]
        with Session(LocalBackend(sage)) as session:
            decisions = session.predict(suite)
        with Session() as session:
            reference = session.predict(suite)
        assert decisions == reference

    def test_unpicklable_workload_batches_in_process(self):
        suite = _suite()[:2]
        # Smuggle an unpicklable attribute onto the frozen dataclass.
        object.__setattr__(suite[0], "_hook", lambda: None)
        with Session() as session:
            decisions = session.predict(suite)
        assert [d.workload_name for d in decisions] == [w.name for w in suite]

    def test_predictor_error_propagates(self):
        with Session(LocalBackend(_FailingSage())) as session:
            with pytest.raises(AttributeError, match="predictor bug"):
                session.predict(_suite()[:2])

    def test_repeated_workload_is_computed_once(self):
        first = _suite()[0]
        again = dataclasses.replace(first, name="mm-a-again")
        backend = LocalBackend()
        with Session(backend) as session:
            decisions = session.predict([first, again])
        stats = backend.cache_stats()["analytical"]
        assert (stats["misses"], stats["hits"]) == (1, 1)
        assert [d.workload_name for d in decisions] == ["mm-a", "mm-a-again"]
        assert decisions[1] == dataclasses.replace(
            decisions[0], workload_name="mm-a-again"
        )

    def test_restricted_batch_bypasses_the_cache(self):
        options = PredictOptions(fixed_mcf=("CSR", "Dense"))
        backend = LocalBackend()
        with Session(backend) as session:
            decisions = session.predict(_suite()[:2], options=options)
        assert [d.best.mcf for d in decisions] == [
            Sage().predict(wl, options=options).best.mcf for wl in _suite()[:2]
        ]
        assert all(
            stats["currsize"] == 0 and stats["misses"] == 0
            for stats in backend.cache_stats().values()
        )
