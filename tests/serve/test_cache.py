"""DecisionCache: LRU order, counters, and the near-hit tier."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import MetricRegistry
from repro.serve.cache import DecisionCache
from repro.serve.fingerprint import fingerprint_of
from repro.workloads.spec import Kernel, MatrixWorkload


def _fp(nnz_a: int = 10_000, m: int = 512):
    return fingerprint_of(
        MatrixWorkload("c", Kernel.SPMM, m=m, k=512, n=256,
                       nnz_a=nnz_a, nnz_b=512 * 256)
    )


class TestLru:
    def test_get_put_round_trip(self):
        cache = DecisionCache(maxsize=4)
        fp = _fp()
        assert cache.get(fp) is None
        cache.put(fp, "decision")
        assert cache.get(fp) == "decision"

    def test_capacity_evicts_least_recently_used(self):
        cache = DecisionCache(maxsize=2)
        a, b, c = _fp(m=100), _fp(m=200), _fp(m=300)
        cache.put(a, "A")
        cache.put(b, "B")
        assert cache.get(a) == "A"  # refresh A; B is now LRU
        cache.put(c, "C")
        assert cache.get(b) is None
        assert cache.get(a) == "A"
        assert cache.get(c) == "C"
        assert cache.stats().evictions == 1

    def test_len_counts_entries(self):
        cache = DecisionCache(maxsize=8)
        cache.put(_fp(m=100), "A")
        cache.put(_fp(m=200), "B")
        assert len(cache) == 2
        assert cache.stats().lookups == 0

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            DecisionCache(maxsize=0)


class TestCounters:
    def test_hits_misses_counted(self):
        cache = DecisionCache(maxsize=4)
        fp = _fp()
        cache.get(fp)
        cache.put(fp, "D")
        cache.get(fp)
        cache.get(fp)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.near_hits) == (2, 1, 0)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_stats_read_the_registry_counters(self):
        metrics = MetricRegistry()
        cache = DecisionCache(maxsize=1, near_hit=True, metrics=metrics)
        cache.get(_fp(nnz_a=10_000))
        cache.put(_fp(nnz_a=10_000), "A")
        cache.get(_fp(nnz_a=10_000))
        cache.get(_fp(nnz_a=11_000))
        cache.put(_fp(m=2000), "B")  # evicts A
        events = metrics.counter("repro_serve_cache_events_total")
        stats = cache.stats()
        assert (stats.hits, stats.near_hits, stats.misses, stats.evictions) == (
            events.value(event="hit"),
            events.value(event="near_hit"),
            events.value(event="miss"),
            events.value(event="eviction"),
        ) == (1, 1, 1, 1)

    def test_caches_without_a_registry_count_separately(self):
        first, second = DecisionCache(maxsize=4), DecisionCache(maxsize=4)
        first.get(_fp())
        assert first.stats().misses == 1
        assert second.stats().misses == 0

    def test_stats_to_dict_is_json_safe(self):
        import json

        stats = DecisionCache(maxsize=4).stats()
        assert json.loads(json.dumps(stats.to_dict()))["maxsize"] == 4


class TestNearHit:
    def test_same_band_served_when_enabled(self):
        cache = DecisionCache(maxsize=4, near_hit=True)
        cache.put(_fp(nnz_a=10_000), "D")
        got = cache.get(_fp(nnz_a=11_000))  # same power-of-two band
        assert got == "D"
        stats = cache.stats()
        assert (stats.hits, stats.near_hits) == (0, 1)

    def test_exact_mode_never_serves_neighbours(self):
        cache = DecisionCache(maxsize=4, near_hit=False)
        cache.put(_fp(nnz_a=10_000), "D")
        assert cache.get(_fp(nnz_a=11_000)) is None

    def test_different_band_misses(self):
        cache = DecisionCache(maxsize=4, near_hit=True)
        cache.put(_fp(nnz_a=10_000), "D")
        assert cache.get(_fp(nnz_a=40_000)) is None

    def test_same_band_different_dims_served(self):
        # The Table III regression: no two real workloads share exact
        # dims, so a band key carrying exact dims never collided and
        # near_hits stayed 0.  Dims within 2x now band together.
        cache = DecisionCache(maxsize=4, near_hit=True)
        cache.put(_fp(m=512, nnz_a=10_000), "D")
        got = cache.get(_fp(m=700, nnz_a=11_000))  # same dim + nnz bands
        assert got == "D"
        assert cache.stats().near_hits == 1

    def test_band_pointer_cleared_on_eviction(self):
        cache = DecisionCache(maxsize=1, near_hit=True)
        cache.put(_fp(nnz_a=10_000), "OLD")
        cache.put(_fp(m=2000), "NEW")  # different dim band; evicts OLD
        assert cache.get(_fp(nnz_a=11_000)) is None

    def test_band_pointer_tracks_latest_representative(self):
        cache = DecisionCache(maxsize=8, near_hit=True)
        cache.put(_fp(nnz_a=10_000), "FIRST")
        cache.put(_fp(nnz_a=11_000), "SECOND")
        assert cache.get(_fp(nnz_a=12_000)) == "SECOND"


class TestThreadSafety:
    def test_concurrent_put_get_consistent(self):
        cache = DecisionCache(maxsize=64, near_hit=True)
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            try:
                for i in range(200):
                    fp = _fp(m=100 + (seed * 7 + i) % 32)
                    if cache.get(fp) is None:
                        cache.put(fp, f"d{seed}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.lookups == 8 * 200
        assert len(cache) <= 64
