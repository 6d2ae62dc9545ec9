"""Analytical models: the exact oracle equals the simulator; stats-mode sanity."""

from __future__ import annotations

import numpy as np
import pytest

from _analytical_oracle import analytical_gemm
from repro.accelerator import (
    AcceleratorConfig,
    WeightStationarySimulator,
    analytical_gemm_stats,
    analytical_mttkrp,
    analytical_spttm,
)
from repro.accelerator.perf_model import expected_output_nnz
from repro.formats import CooMatrix, CscMatrix, CsrMatrix, DenseMatrix
from repro.formats.registry import Format
from tests.conftest import make_sparse

ENCODERS = {
    Format.DENSE: DenseMatrix,
    Format.CSR: CsrMatrix,
    Format.COO: CooMatrix,
    Format.CSC: CscMatrix,
}


class TestExactModeEqualsSimulator:
    """The load-bearing cross-check: two independent implementations of the
    cycle model must agree to the cycle on randomized workloads."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("acf_a", list(ENCODERS))
    @pytest.mark.parametrize("acf_b", [Format.DENSE, Format.CSC])
    def test_randomized_agreement(self, seed, acf_a, acf_b):
        rng = np.random.default_rng(1000 + seed)
        m, k, n = (int(x) for x in rng.integers(1, 13, 3))
        density = float(rng.choice([0.05, 0.25, 0.6, 1.0]))
        a_dense = make_sparse(rng, (m, k), density)
        b_dense = make_sparse(rng, (k, n), density)
        cfg = AcceleratorConfig(
            num_pes=3, vector_lanes=2, pe_buffer_bytes=4 * 4, bus_bits=6 * 32
        )
        a = ENCODERS[acf_a].from_dense(a_dense)
        b = (
            CscMatrix.from_dense(b_dense)
            if acf_b is Format.CSC
            else DenseMatrix.from_dense(b_dense)
        )
        _, sim_rep = WeightStationarySimulator(cfg).run_gemm(a, acf_a, b, acf_b)
        ana_rep = analytical_gemm(a, acf_a, b, acf_b, cfg)
        assert ana_rep.cycles == sim_rep.cycles
        assert ana_rep.energy.total_j == pytest.approx(sim_rep.energy.total_j)

    def test_agreement_on_walkthrough_config(self):
        from tests.accelerator.fig6 import fig6_stationary, fig6_streamed

        cfg = AcceleratorConfig.walkthrough()
        a_dense, b_dense = fig6_streamed(), fig6_stationary()
        for acf_a in ENCODERS:
            for acf_b in (Format.DENSE, Format.CSC):
                a = ENCODERS[acf_a].from_dense(a_dense)
                b = (
                    CscMatrix.from_dense(b_dense)
                    if acf_b is Format.CSC
                    else DenseMatrix.from_dense(b_dense)
                )
                _, sim_rep = WeightStationarySimulator(cfg).run_gemm(
                    a, acf_a, b, acf_b
                )
                assert analytical_gemm(a, acf_a, b, acf_b, cfg).cycles == (
                    sim_rep.cycles
                )


class TestStatsMode:
    CFG = AcceleratorConfig.paper_default()

    def test_more_nonzeros_cost_more(self):
        lo = analytical_gemm_stats(
            1000, 1000, 500, 10_000, 500 * 1000, Format.CSR, Format.DENSE, self.CFG
        )
        hi = analytical_gemm_stats(
            1000, 1000, 500, 100_000, 500 * 1000, Format.CSR, Format.DENSE, self.CFG
        )
        assert hi.cycles.total_cycles > lo.cycles.total_cycles
        assert hi.energy.total_j > lo.energy.total_j

    def test_flexible_noc_skips_zero_compute(self):
        """With zero-skipping, a dense ACF issues only nonzero MACs."""
        skip = analytical_gemm_stats(
            500, 500, 500, 25_000, 500 * 500, Format.DENSE, Format.DENSE,
            self.CFG, flexible_noc=True,
        )
        literal = analytical_gemm_stats(
            500, 500, 500, 25_000, 500 * 500, Format.DENSE, Format.DENSE,
            self.CFG, flexible_noc=False,
        )
        assert skip.cycles.issued_macs < literal.cycles.issued_macs
        assert literal.cycles.issued_macs == 500 * 500 * 500

    def test_dense_csr_acf_crossover_near_3pct(self):
        """The Table III story: Dense ACF wins at >=4%, CSR below ~1%."""

        def best(density: float) -> Format:
            m = k = 2000
            nnz = int(density * m * k)
            costs = {}
            for acf in (Format.DENSE, Format.CSR):
                rep = analytical_gemm_stats(
                    m, k, 1000, nnz, k * 1000, acf, Format.DENSE, self.CFG
                )
                costs[acf] = rep.cycles.total_cycles
            return min(costs, key=costs.get)

        assert best(0.10) is Format.DENSE
        assert best(0.05) is Format.DENSE
        assert best(0.005) is Format.CSR

    def test_csc_stationary_beats_dense_for_sparse_weights(self):
        """Sec. VII-D: sparse stationary operands prefer CSC buffers."""
        m, k, n = 4096, 4608, 512
        nnz_b = int(0.02 * k * n)  # 98% pruned weights
        dense_b = analytical_gemm_stats(
            m, k, n, int(0.5 * m * k), nnz_b, Format.DENSE, Format.DENSE, self.CFG
        )
        csc_b = analytical_gemm_stats(
            m, k, n, int(0.5 * m * k), nnz_b, Format.DENSE, Format.CSC, self.CFG
        )
        assert csc_b.cycles.total_cycles < dense_b.cycles.total_cycles

    def test_k_tiling_tracks_buffer(self):
        small_buf = AcceleratorConfig(pe_buffer_bytes=128)
        big_buf = AcceleratorConfig(pe_buffer_bytes=4096)
        rep_small = analytical_gemm_stats(
            100, 5000, 100, 50_000, 5000 * 100, Format.CSR, Format.DENSE, small_buf
        )
        rep_big = analytical_gemm_stats(
            100, 5000, 100, 50_000, 5000 * 100, Format.CSR, Format.DENSE, big_buf
        )
        assert rep_small.cycles.k_tiles > rep_big.cycles.k_tiles


class TestExpectedOutputNnz:
    def test_dense_times_dense_is_full(self):
        assert expected_output_nnz(10, 10, 10, 100, 100) == pytest.approx(100.0)

    def test_zero_operand(self):
        assert expected_output_nnz(10, 10, 10, 0, 50) == pytest.approx(0.0)

    def test_monotone_in_nnz(self):
        lo = expected_output_nnz(50, 50, 50, 100, 100)
        hi = expected_output_nnz(50, 50, 50, 500, 500)
        assert hi > lo

    def test_bounded_by_mn(self):
        assert expected_output_nnz(7, 9, 100, 400, 500) <= 7 * 9


class TestTensorKernels:
    def test_spttm_scales_with_rank(self):
        lo = analytical_spttm((100, 100, 50), 20_000, 8, Format.CSF)
        hi = analytical_spttm((100, 100, 50), 20_000, 64, Format.CSF)
        assert hi.cycles.issued_macs == 8 * lo.cycles.issued_macs

    def test_mttkrp_issues_two_macs_per_nnz(self):
        spttm = analytical_spttm((50, 60, 40), 10_000, 16, Format.COO)
        mttkrp = analytical_mttkrp((50, 60, 40), 10_000, 16, Format.COO)
        assert mttkrp.cycles.issued_macs == 2 * spttm.cycles.issued_macs

    def test_csf_beats_coo_streaming_when_fibers_cluster(self):
        # Long fibers: CSF's shared headers amortize, COO re-sends coords.
        shape, nnz = (200, 200, 500), 2_000_000  # ~10% density, ~50/leaf fiber
        csf = analytical_spttm(shape, nnz, 16, Format.CSF)
        coo = analytical_spttm(shape, nnz, 16, Format.COO)
        assert csf.cycles.stream_cycles < coo.cycles.stream_cycles

    def test_dense_acf_sideband_hurts_extreme_sparsity(self):
        shape, nnz = (400, 400, 400), 2_000  # ~3e-5 density
        dense = analytical_spttm(shape, nnz, 16, Format.DENSE)
        coo = analytical_spttm(shape, nnz, 16, Format.COO)
        assert coo.cycles.stream_cycles < dense.cycles.stream_cycles

    def test_rejects_bad_acf(self):
        import pytest as _pytest

        from repro.errors import SimulationError

        with _pytest.raises(SimulationError):
            analytical_spttm((10, 10, 10), 50, 4, Format.CSR)
