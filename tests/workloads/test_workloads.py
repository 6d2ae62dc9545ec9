"""Workload generators, the Table III suite and the Fig. 14a layers."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.workloads import (
    CONV_LAYERS,
    MATRIX_SUITE,
    TENSOR_SUITE,
    Kernel,
    MatrixWorkload,
    PruningStrategy,
    TensorWorkload,
    layer_gemm,
    random_sparse_coords,
    random_sparse_matrix,
    suite_by_name,
)
from repro.workloads.dnn import BATCH_SIZE
from repro.workloads.synthetic import _sample_distinct
from tests.workloads._synthetic_tensor import random_sparse_tensor


class TestSynthetic:
    @pytest.mark.parametrize("nnz", [0, 1, 17, 50, 63])
    def test_exact_nnz(self, nnz, rng):
        mat = random_sparse_matrix(8, 8, nnz, rng)
        assert np.count_nonzero(mat) == nnz

    def test_deterministic_with_seed(self):
        a = random_sparse_matrix(20, 20, 50, 7)
        b = random_sparse_matrix(20, 20, 50, 7)
        assert np.array_equal(a, b)

    def test_tensor_exact_nnz(self, rng):
        t = random_sparse_tensor((5, 6, 7), 40, rng)
        assert np.count_nonzero(t) == 40

    def test_values_never_zero_when_selected(self, rng):
        mat = random_sparse_matrix(10, 10, 100, rng)  # fully dense
        assert np.count_nonzero(mat) == 100

    @pytest.mark.parametrize("count", [0, 1, 499, 500, 999, 1000])
    def test_sample_distinct_boundaries(self, count, rng):
        idx = _sample_distinct(1000, count, rng)
        assert len(idx) == count
        assert len(np.unique(idx)) == count

    def test_sample_distinct_rejects_overdraw(self, rng):
        with pytest.raises(ValueError):
            _sample_distinct(10, 11, rng)

    @pytest.mark.parametrize(
        "m, k, nnz",
        [(0, 5, 0), (1, 9, 4), (9, 1, 9), (64, 48, 0), (64, 48, 300),
         (64, 48, 1537), (64, 48, 3072), (512, 512, 24)],
    )
    @pytest.mark.parametrize("seed", [0, 9001])
    def test_coords_scatter_to_the_matrix(self, m, k, nnz, seed):
        """The coordinates scattered are ``random_sparse_matrix``'s bytes."""
        flat, values = random_sparse_coords(m, k, nnz, seed)
        assert flat.dtype == np.int64 and values.dtype == np.float64
        assert np.all(np.diff(flat) > 0) and np.all(values > 0.0)
        dense = np.zeros(m * k)
        dense[flat] = values
        assert dense.reshape(m, k).tobytes() == (
            random_sparse_matrix(m, k, nnz, seed).tobytes()
        )


def _sample_distinct_unique(total, count, rng):
    """The ``np.unique`` deduplication the bitmap replaced (the oracle)."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count == total:
        return np.arange(total, dtype=np.int64)
    if count > total // 2:
        holes = _sample_distinct_unique(total, total - count, rng)
        mask = np.ones(total, dtype=bool)
        mask[holes] = False
        return np.flatnonzero(mask).astype(np.int64)
    chosen = np.unique(rng.integers(0, total, size=int(count * 1.2) + 16))
    while len(chosen) < count:
        extra = rng.integers(0, total, size=int(count * 0.2) + 16)
        chosen = np.unique(np.concatenate([chosen, extra]))
    rng.shuffle(chosen)
    return np.sort(chosen[:count]).astype(np.int64)


class TestSampleDistinctOracle:
    """The bitmap sampler draws the same indices as ``np.unique`` did."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 9001])
    @pytest.mark.parametrize("total", [1, 2, 37, 1000, 4096])
    def test_matches_unique_version(self, seed, total):
        for count in sorted({0, 1, total // 2, total // 2 + 1, total - 1, total}):
            rng_new = np.random.default_rng(seed)
            rng_old = np.random.default_rng(seed)
            got = _sample_distinct(total, count, rng_new)
            want = _sample_distinct_unique(total, count, rng_old)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            # Both consumed the same draws: the next value agrees too.
            assert rng_new.random() == rng_old.random()

    def test_random_sparse_digest_pinned(self):
        h = hashlib.sha256()
        shapes = [(64, 48, 0), (64, 48, 1), (64, 48, 300), (64, 48, 1536),
                  (64, 48, 1537), (64, 48, 3071), (64, 48, 3072),
                  (512, 512, 2621)]
        for seed, (m, k, nnz) in enumerate(shapes):
            h.update(random_sparse_matrix(m, k, nnz, seed).tobytes())
        h.update(random_sparse_tensor((12, 10, 8), 77, 3).tobytes())
        assert h.hexdigest() == (
            "8aa8b49747a0f6fef420d40b5c3d0552602905f87c2641316eebecc7639fb208"
        )


class TestSuite:
    def test_counts(self):
        assert len(MATRIX_SUITE) == 10
        assert len(TENSOR_SUITE) == 3

    def test_published_stats_verbatim(self):
        e = suite_by_name("speech2")
        assert e.dims == (7_700, 2_600) and e.nnz == 1_000_000
        e = suite_by_name("m3plates")
        assert e.dims == (11_000, 11_000) and e.nnz == 6_600
        e = suite_by_name("Uber")
        assert e.dims == (4_400, 1_100, 1_700) and e.nnz == 3_300_000

    def test_density_column_consistent(self):
        for e in MATRIX_SUITE + TENSOR_SUITE:
            computed = 100.0 * e.nnz / np.prod(e.dims)
            assert computed == pytest.approx(e.density_pct, rel=0.35)

    def test_spmm_workload_has_dense_b(self):
        wl = suite_by_name("nd3k").matrix_workload(Kernel.SPMM)
        assert wl.b_is_dense
        assert wl.n == wl.m // 2  # Sec. VII-A: factor is K x (M/2)

    def test_spgemm_workload_density_matched(self):
        e = suite_by_name("nd3k")
        wl = e.matrix_workload(Kernel.SPGEMM)
        assert wl.density_b == pytest.approx(wl.density_a, rel=0.05)

    def test_tensor_workload_rank(self):
        wl = suite_by_name("Crime").tensor_workload(Kernel.MTTKRP)
        assert wl.rank == 3_100  # first mode / 2

    def test_wrong_kind_raises(self):
        with pytest.raises(ValueError):
            suite_by_name("BrainQ").matrix_workload(Kernel.SPMM)
        with pytest.raises(ValueError):
            suite_by_name("nd3k").tensor_workload(Kernel.SPTTM)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            suite_by_name("nope")


class TestSpecValidation:
    def test_rejects_nnz_overflow(self):
        with pytest.raises(ValueError):
            MatrixWorkload("x", Kernel.SPMM, 2, 2, 2, nnz_a=5, nnz_b=4)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            TensorWorkload("x", Kernel.SPTTM, (2, 2, 2), 4, rank=0)

    def test_density_properties(self):
        wl = MatrixWorkload("x", Kernel.SPMM, 10, 10, 10, nnz_a=20, nnz_b=100)
        assert wl.density_a == pytest.approx(0.2)
        assert wl.b_is_dense


class TestDnn:
    def test_eight_layers(self):
        assert len(CONV_LAYERS) == 8

    def test_fig14a_verbatim_row7(self):
        layer = CONV_LAYERS[6]
        assert layer.in_channels == 512 and layer.out_channels == 2048
        act, w = layer.sparsities(PruningStrategy.GLOBAL_70)
        assert act == pytest.approx(0.410)
        assert w == pytest.approx(0.882)

    def test_normal_strategy_has_dense_weights(self):
        for layer in CONV_LAYERS:
            _act, w = layer.sparsities(PruningStrategy.NORMAL)
            assert w == 0.0

    def test_layer_prune_is_uniform_50(self):
        for layer in CONV_LAYERS:
            _act, w = layer.sparsities(PruningStrategy.LAYER_50)
            assert w == pytest.approx(0.5)

    def test_gemm_lowering_dims(self):
        wl = layer_gemm(CONV_LAYERS[1], PruningStrategy.NORMAL)  # conv2
        assert wl.m == 32 * 32 * BATCH_SIZE  # im2col activations rows
        assert wl.k == 64 * 1 * 1
        assert wl.n == 256  # output channels = weight columns

    def test_gemm_lowering_sparsities(self):
        wl = layer_gemm(CONV_LAYERS[1], PruningStrategy.LAYER_50)
        assert wl.density_a == pytest.approx(1 - 0.555, rel=0.01)
        assert wl.density_b == pytest.approx(0.5, rel=0.01)

    def test_global_prune_hits_late_layers_hardest(self):
        """Fig. 14a: layers 7-8 are far sparser under global pruning."""
        w7 = CONV_LAYERS[6].sparsities(PruningStrategy.GLOBAL_70)[1]
        w1 = CONV_LAYERS[0].sparsities(PruningStrategy.GLOBAL_70)[1]
        assert w7 > w1 + 0.3
