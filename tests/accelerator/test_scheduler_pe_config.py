"""Scheduler tiling, PE matching semantics and configuration validation."""

from __future__ import annotations

import numpy as np
import pytest

from _reference_engine import PE
from _stream_oracle import (
    build_schedule,
    compute_k_tiles,
    stationary_entries_loaded,
)
from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.scheduler import CSC_ENTRY_COST, compute_rounds
from repro.errors import ConfigError, SchedulingError, SimulationError
from repro.formats import CscMatrix, DenseMatrix
from repro.formats.registry import Format
from tests.conftest import make_sparse


class TestConfig:
    def test_paper_default_totals(self):
        cfg = AcceleratorConfig.paper_default()
        assert cfg.total_macs == 16384  # Sec. VII-A
        assert cfg.bus_slots == 16  # 512-bit bus / 32-bit elements
        assert cfg.pe_buffer_entries == 128  # 512 B / 32-bit

    def test_walkthrough_matches_fig6(self):
        cfg = AcceleratorConfig.walkthrough()
        assert cfg.num_pes == 4
        assert cfg.bus_slots == 5
        assert cfg.pe_buffer_entries == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_pes": 0},
            {"dtype_bits": 12},
            {"bus_bits": 16, "dtype_bits": 32},
            {"clock_hz": 0.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            AcceleratorConfig(**kwargs)


class TestScheduler:
    def test_dense_tiles_cover_k(self, rng):
        b = DenseMatrix.from_dense(make_sparse(rng, (37, 4), 0.5))
        tiles = compute_k_tiles(b, Format.DENSE, 8)
        assert tiles[0][0] == 0 and tiles[-1][1] == 37
        assert all(hi - lo <= 8 for lo, hi in tiles)
        # Contiguous, non-overlapping.
        for (l0, h0), (l1, _h1) in zip(tiles, tiles[1:]):
            assert h0 == l1

    def test_csc_tiles_respect_footprint(self, rng):
        dense = make_sparse(rng, (30, 6), 0.6)
        b = CscMatrix.from_dense(dense)
        cap = 10
        tiles = compute_k_tiles(b, Format.CSC, cap)
        for lo, hi in tiles:
            for j in range(6):
                rows, _ = b.col_slice(j)
                footprint = CSC_ENTRY_COST * int(((rows >= lo) & (rows < hi)).sum())
                assert footprint <= cap

    def test_csc_infeasible_capacity_raises(self, rng):
        dense = np.ones((4, 2))
        b = CscMatrix.from_dense(dense)
        with pytest.raises(SchedulingError):
            compute_k_tiles(b, Format.CSC, 1)  # one entry can't hold a pair

    def test_rounds_cover_all_columns(self):
        rounds = compute_rounds(10, 4)
        assert rounds == ((0, 4), (4, 8), (8, 10))

    def test_entries_loaded_dense_vs_csc(self, rng):
        dense = make_sparse(rng, (12, 5), 0.3)
        d = DenseMatrix.from_dense(dense)
        c = CscMatrix.from_dense(dense)
        assert stationary_entries_loaded(d, Format.DENSE) == 60
        assert stationary_entries_loaded(c, Format.CSC) == (
            CSC_ENTRY_COST * np.count_nonzero(dense)
        )

    def test_build_schedule_shape(self, rng):
        b = DenseMatrix.from_dense(make_sparse(rng, (20, 7), 0.4))
        sched = build_schedule(b, Format.DENSE, 8, 3)
        assert sched.num_tiles == 3  # ceil(20/8)
        assert sched.num_rounds == 3  # ceil(7/3)

    def test_rejects_unsupported_stationary(self, rng):
        b = DenseMatrix.from_dense(make_sparse(rng, (5, 5), 0.5))
        with pytest.raises(SimulationError):
            compute_k_tiles(b, Format.COO, 8)


class TestPE:
    def test_dense_always_issues(self):
        pe = PE(0)
        pe.load_dense(np.array([0.0, 2.0, 0.0]), k_lo=0)
        pe.process(0, 0, 5.0)  # stationary zero -> issued, not matched
        pe.process(0, 1, 5.0)  # both nonzero -> matched
        assert pe.issued_macs == 2
        assert pe.matched_macs == 1

    def test_csc_issues_only_on_hit(self):
        pe = PE(0)
        pe.load_csc(np.array([1, 3]), np.array([2.0, 4.0]))
        pe.process(0, 0, 5.0)  # miss
        pe.process(0, 1, 5.0)  # hit
        assert pe.issued_macs == 1
        assert pe.compares == 2 * 2  # two lookups x two stored metadata

    def test_spill_on_row_change_and_flush(self):
        pe = PE(0)
        pe.load_dense(np.array([1.0, 1.0]), k_lo=0)
        pe.process(0, 0, 1.0)
        pe.process(0, 1, 2.0)  # same row accumulates
        pe.process(1, 0, 3.0)  # row change -> spill
        assert pe.spills == 1
        pe.flush()  # open row spills on flush
        assert pe.spills == 2
        assert dict(pe.contributions) == {0: 3.0, 1: 3.0}

    def test_footprint_accounting(self):
        pe = PE(0)
        pe.load_dense(np.zeros(7), k_lo=0)
        assert pe.footprint_entries == 7
        pe.load_csc(np.array([0, 2, 5]), np.array([1.0, 2.0, 3.0]))
        assert pe.footprint_entries == 6  # value + row id per nonzero

    def test_unloaded_pe_rejects_work(self):
        with pytest.raises(SimulationError):
            PE(0).process(0, 0, 1.0)
