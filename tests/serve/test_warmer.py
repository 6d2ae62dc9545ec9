"""Speculative band warming: candidate synthesis and queue behavior."""

from __future__ import annotations

import threading

import pytest

from repro.serve import BandWarmer, DecisionCache, warm_candidates
from repro.serve.fingerprint import fingerprint_of
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload


def _wl(nnz_a: int = 1_500) -> MatrixWorkload:
    return MatrixWorkload("warm-src", Kernel.SPMM, m=256, k=128, n=64,
                          nnz_a=nnz_a, nnz_b=128 * 64)


class TestWarmCandidates:
    def test_matrix_candidates_are_valid_workloads(self):
        # Synthesis must respect every spec invariant (nnz bounds, the
        # dense-B shape) — the constructors raise otherwise.
        for bands in (1, 2, 3):
            out = warm_candidates(fingerprint_of(_wl()), bands=bands)
            assert len(out) == 2 * bands + 1  # ±bands plus next-size

    def test_adjacent_bands_move_exactly_one_band(self):
        from repro.serve.fingerprint import density_band

        fp = fingerprint_of(_wl(nnz_a=1_500))
        src = density_band(1_500)
        scaled = [
            wl for wl in warm_candidates(fp, bands=1)
            if "next-size" not in wl.name
        ]
        assert sorted(density_band(wl.nnz_a) for wl in scaled) == [
            src - 1, src + 1
        ]

    def test_next_size_preserves_the_dense_b_invariant(self):
        fp = fingerprint_of(_wl())
        (next_size,) = [
            wl for wl in warm_candidates(fp, bands=1)
            if "next-size" in wl.name
        ]
        assert next_size.m == 512 and next_size.k == 256
        assert next_size.nnz_b == next_size.k * next_size.n

    def test_tensor_candidates_are_valid(self):
        wl = TensorWorkload("t", Kernel.SPTTM, (32, 32, 32), 800, rank=8)
        out = warm_candidates(fingerprint_of(wl), bands=2)
        assert len(out) == 5
        for cand in out:
            assert isinstance(cand, TensorWorkload)
            assert 1 <= cand.nnz <= cand.shape[0] * cand.shape[1] * cand.shape[2]

    def test_nnz_clamped_inside_valid_range(self):
        # A nearly-dense operand cannot scale up past m*k.
        dense = _wl(nnz_a=256 * 128 - 1)
        for cand in warm_candidates(fingerprint_of(dense), bands=3):
            assert cand.nnz_a <= cand.m * cand.k


class TestBandWarmer:
    def test_misses_warm_adjacent_bands_into_the_cache(self):
        cache = DecisionCache(near_hit=True)
        calls: list[str] = []
        sentinel = object()

        def predict(wl):
            calls.append(wl.name)
            return sentinel

        warmer = BandWarmer(predict, cache, bands=1)
        try:
            fp = fingerprint_of(_wl())
            accepted = warmer.enqueue(fp)
            assert accepted >= 1
            assert warmer.drain(timeout_s=10.0)
            stats = warmer.stats()
            assert stats["warmed"] == accepted
            assert stats["depth"] == 0
            # The warmed neighbours now answer as near-hits.
            for cand in warm_candidates(fp, bands=1):
                target = fingerprint_of(cand)
                assert cache.has_band(target.band_key())
        finally:
            warmer.close()

    def test_enqueue_deduplicates_pending_bands(self):
        cache = DecisionCache(near_hit=True)
        release = threading.Event()

        def predict(wl):
            release.wait(timeout=10.0)
            return object()

        warmer = BandWarmer(predict, cache, bands=1)
        try:
            fp = fingerprint_of(_wl())
            first = warmer.enqueue(fp)
            second = warmer.enqueue(fp)  # same bands still pending
            assert first >= 1
            assert second == 0
            release.set()
            assert warmer.drain(timeout_s=10.0)
        finally:
            release.set()
            warmer.close()

    def test_covered_bands_are_skipped(self):
        cache = DecisionCache(near_hit=True)
        warmer = BandWarmer(lambda wl: object(), cache, bands=1)
        try:
            fp = fingerprint_of(_wl())
            warmer.enqueue(fp)
            assert warmer.drain(timeout_s=10.0)
            warmed = warmer.stats()["warmed"]
            # Everything is covered now: a re-enqueue only skips.
            assert warmer.enqueue(fp) == 0
            assert warmer.stats()["warmed"] == warmed
            assert warmer.stats()["skipped"] >= 1
        finally:
            warmer.close()

    def test_overload_drops_new_speculation(self):
        cache = DecisionCache(near_hit=True)
        release = threading.Event()

        def predict(wl):
            release.wait(timeout=10.0)
            return object()

        warmer = BandWarmer(predict, cache, bands=1, maxsize=1)
        try:
            warmer.enqueue(fingerprint_of(_wl(nnz_a=1_500)))
            # Distinct source bands so dedup does not mask the bound.
            warmer.enqueue(fingerprint_of(_wl(nnz_a=12_000)))
            warmer.enqueue(fingerprint_of(_wl(nnz_a=24_000)))
            assert warmer.stats()["dropped"] >= 1
            release.set()
            assert warmer.drain(timeout_s=10.0)
        finally:
            release.set()
            warmer.close()

    def test_predict_failures_are_counted_not_raised(self):
        cache = DecisionCache(near_hit=True)

        def predict(wl):
            raise RuntimeError("synthetic failure")

        warmer = BandWarmer(predict, cache, bands=1)
        try:
            warmer.enqueue(fingerprint_of(_wl()))
            assert warmer.drain(timeout_s=10.0)
            stats = warmer.stats()
            assert stats["failed"] >= 1
            assert stats["warmed"] == 0
        finally:
            warmer.close()

    def test_close_stops_the_worker(self):
        warmer = BandWarmer(
            lambda wl: object(), DecisionCache(near_hit=True), bands=1
        )
        warmer.close()
        assert not warmer._thread.is_alive()
        # Enqueue after close is a quiet no-op.
        assert warmer.enqueue(fingerprint_of(_wl())) == 0


class TestServerIntegration:
    def test_server_with_warming_turns_band_traffic_into_near_hits(self):
        from repro.serve import SageServer, ServeClient, ServeConfig

        config = ServeConfig(port=0, warm_bands=1)
        with SageServer(serve=config) as srv:
            with ServeClient(*srv.address) as client:
                client.predict(_wl(nnz_a=1_500))  # miss; warming kicks off
                assert srv._warmer is not None
                assert srv._warmer.drain(timeout_s=30.0)
                # Traffic in the adjacent band is now answered warm.
                neighbour = _wl(nnz_a=3_100)  # one band up
                client.predict(neighbour)
                stats = client.stats()
        assert stats["warming"]["warmed"] >= 1
        assert stats["cache"]["near_hits"] >= 1

    def test_warming_disabled_by_default(self):
        from repro.serve import SageServer, ServeConfig

        with SageServer(serve=ServeConfig(port=0)) as srv:
            assert srv._warmer is None
            assert srv.stats()["warming"] is None


@pytest.mark.parametrize("bands", [0, -3])
def test_bands_floor_at_one(bands):
    warmer = BandWarmer(
        lambda wl: object(), DecisionCache(near_hit=True), bands=bands
    )
    try:
        assert warmer.bands == 1
    finally:
        warmer.close()
