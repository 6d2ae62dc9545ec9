"""Cycle-level simulator: functional correctness and report invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import AcceleratorConfig, WeightStationarySimulator
from repro.errors import SimulationError
from repro.formats import CooMatrix, CscMatrix, CsrMatrix, DenseMatrix
from repro.formats.registry import Format
from tests.accelerator.fig6 import fig6_stationary, fig6_streamed
from tests.conftest import make_sparse

ENCODERS = {
    Format.DENSE: DenseMatrix,
    Format.CSR: CsrMatrix,
    Format.COO: CooMatrix,
    Format.CSC: CscMatrix,
}


def run(sim, a_dense, b_dense, acf_a, acf_b):
    a = ENCODERS[acf_a].from_dense(a_dense)
    b = (
        CscMatrix.from_dense(b_dense)
        if acf_b is Format.CSC
        else DenseMatrix.from_dense(b_dense)
    )
    return sim.run_gemm(a, acf_a, b, acf_b)


class TestWalkthrough:
    @pytest.fixture
    def sim(self):
        return WeightStationarySimulator(AcceleratorConfig.walkthrough())

    @pytest.mark.parametrize("acf_a", list(ENCODERS))
    @pytest.mark.parametrize("acf_b", [Format.DENSE, Format.CSC])
    def test_output_is_matmul(self, sim, acf_a, acf_b):
        a, b = fig6_streamed(), fig6_stationary()
        out, _ = run(sim, a, b, acf_a, acf_b)
        assert np.allclose(out, a @ b)

    def test_stream_cycles_fig6(self, sim):
        a = fig6_streamed()
        assert sim.stream_cycles_only(DenseMatrix.from_dense(a), Format.DENSE) == 8
        assert sim.stream_cycles_only(CsrMatrix.from_dense(a), Format.CSR) == 3
        assert sim.stream_cycles_only(CooMatrix.from_dense(a), Format.COO) == 4

    def test_sparse_acf_streams_fewer_cycles(self, sim):
        a, b = fig6_streamed(), fig6_stationary()
        _, dense_rep = run(sim, a, b, Format.DENSE, Format.DENSE)
        _, csr_rep = run(sim, a, b, Format.CSR, Format.DENSE)
        assert csr_rep.cycles.stream_cycles < dense_rep.cycles.stream_cycles

    def test_csc_stationary_uses_less_buffer_load(self, sim):
        """CSC(B) loads 2*nnz entries; Dense(B) loads all K*N slots."""
        a, b = fig6_streamed(), fig6_stationary()
        _, dense_rep = run(sim, a, b, Format.CSR, Format.DENSE)
        _, csc_rep = run(sim, a, b, Format.CSR, Format.CSC)
        assert csc_rep.energy.load_j < dense_rep.energy.load_j


class TestRandomizedCorrectness:
    @pytest.mark.parametrize("acf_a", list(ENCODERS))
    @pytest.mark.parametrize("acf_b", [Format.DENSE, Format.CSC])
    @pytest.mark.parametrize("density", [0.0, 0.15, 0.6, 1.0])
    def test_output_matches_numpy(self, acf_a, acf_b, density, rng):
        a = make_sparse(rng, (8, 11), density)
        b = make_sparse(rng, (11, 5), density if density else 0.5)
        cfg = AcceleratorConfig(
            num_pes=3, vector_lanes=2, pe_buffer_bytes=6 * 4, bus_bits=7 * 32
        )
        out, rep = run(WeightStationarySimulator(cfg), a, b, acf_a, acf_b)
        assert np.allclose(out, a @ b)
        assert rep.cycles.matched_macs <= max(rep.cycles.issued_macs, 1)

    def test_tiling_engaged_for_tall_stationary(self, rng):
        a = make_sparse(rng, (4, 40), 0.3)
        b = make_sparse(rng, (40, 3), 0.3)
        cfg = AcceleratorConfig(
            num_pes=2, vector_lanes=2, pe_buffer_bytes=8 * 4, bus_bits=8 * 32
        )
        out, rep = run(WeightStationarySimulator(cfg), a, b, Format.CSR, Format.DENSE)
        assert rep.cycles.k_tiles >= 5  # 40 rows / 8-entry buffer
        assert np.allclose(out, a @ b)

    def test_rounds_engaged_for_wide_output(self, rng):
        a = make_sparse(rng, (5, 6), 0.4)
        b = make_sparse(rng, (6, 9), 0.4)
        cfg = AcceleratorConfig(
            num_pes=2, vector_lanes=2, pe_buffer_bytes=8 * 4, bus_bits=8 * 32
        )
        out, rep = run(WeightStationarySimulator(cfg), a, b, Format.COO, Format.DENSE)
        assert rep.cycles.rounds == 5  # ceil(9 / 2)
        assert np.allclose(out, a @ b)


#: Edge shapes (M, K, N) with the streamed operand's density: a 1x1x1
#: product, an all-zero operand, K above M and N, a product that tiles.
SHAPE_CASES = [
    ((1, 1, 1), 1.0),
    ((5, 8, 3), 0.3),
    ((12, 4, 9), 0.1),
    ((7, 7, 7), 0.0),
    ((3, 20, 6), 0.6),
    ((16, 16, 16), 0.05),
]


@pytest.mark.parametrize("dims,density", SHAPE_CASES)
class TestShapeSweep:
    """SpMM (dense-ish B), SpGEMM (both sparse) and SpMV (N = 1) as GEMMs
    on a small fabric, so K tiles and output rounds engage at 16^3."""

    @pytest.fixture
    def sim(self):
        return WeightStationarySimulator(
            AcceleratorConfig(
                num_pes=3, vector_lanes=2, pe_buffer_bytes=6 * 4, bus_bits=7 * 32
            )
        )

    @pytest.mark.parametrize("acf_a", list(ENCODERS))
    @pytest.mark.parametrize("acf_b", [Format.DENSE, Format.CSC])
    def test_spmm_matches_numpy(self, sim, dims, density, acf_a, acf_b, rng):
        m, k, n = dims
        a = make_sparse(rng, (m, k), density)
        b = make_sparse(rng, (k, n), 0.8)
        out, _ = run(sim, a, b, acf_a, acf_b)
        assert np.allclose(out, a @ b)

    @pytest.mark.parametrize("acf_a", list(ENCODERS))
    def test_spgemm_matches_numpy(self, sim, dims, density, acf_a, rng):
        m, k, n = dims
        a = make_sparse(rng, (m, k), density)
        b = make_sparse(rng, (k, n), density)
        out, _ = run(sim, a, b, acf_a, Format.CSC)
        assert np.allclose(out, a @ b)

    @pytest.mark.parametrize("acf_a", list(ENCODERS))
    def test_spmv_matches_numpy(self, sim, dims, density, acf_a, rng):
        m, k, _ = dims
        a = make_sparse(rng, (m, k), density)
        x = rng.random((k, 1))
        out, _ = run(sim, a, x, acf_a, Format.DENSE)
        assert np.allclose(out, a @ x)

    def test_matched_macs_equal_bruteforce(self, sim, dims, density, rng):
        """CSR x CSC issues one MAC per (a[i,k], b[k,j]) nonzero pair."""
        m, k, n = dims
        a = make_sparse(rng, (m, k), density)
        b = make_sparse(rng, (k, n), density)
        brute = sum(
            int(np.count_nonzero(a[:, kk])) * int(np.count_nonzero(b[kk, :]))
            for kk in range(k)
        )
        _, rep = run(sim, a, b, Format.CSR, Format.CSC)
        assert rep.cycles.matched_macs == brute


class TestReportInvariants:
    def test_dense_dense_issues_mkn_macs(self, rng):
        a = make_sparse(rng, (4, 6), 0.3)
        b = make_sparse(rng, (6, 5), 0.3)
        sim = WeightStationarySimulator(
            AcceleratorConfig(num_pes=8, pe_buffer_bytes=64, bus_bits=512)
        )
        _, rep = run(sim, a, b, Format.DENSE, Format.DENSE)
        assert rep.cycles.issued_macs == 4 * 6 * 5

    def test_sparse_acfs_issue_only_matches(self, rng):
        a = make_sparse(rng, (6, 7), 0.2)
        b = make_sparse(rng, (7, 4), 0.2)
        sim = WeightStationarySimulator(
            AcceleratorConfig(num_pes=8, pe_buffer_bytes=64, bus_bits=512)
        )
        _, rep = run(sim, a, b, Format.CSR, Format.CSC)
        assert rep.cycles.issued_macs == rep.cycles.matched_macs

    def test_energy_components_nonnegative(self, rng):
        a = make_sparse(rng, (5, 5), 0.4)
        b = make_sparse(rng, (5, 5), 0.4)
        sim = WeightStationarySimulator(AcceleratorConfig.walkthrough())
        _, rep = run(sim, a, b, Format.COO, Format.CSC)
        e = rep.energy
        for v in (e.noc_j, e.load_j, e.buffer_j, e.compare_j, e.mac_j, e.output_j):
            assert v >= 0.0
        assert rep.edp >= 0.0

    def test_total_cycles_covers_io_and_compute(self, rng):
        a = make_sparse(rng, (5, 5), 0.5)
        b = make_sparse(rng, (5, 5), 0.5)
        sim = WeightStationarySimulator(AcceleratorConfig.walkthrough())
        _, rep = run(sim, a, b, Format.DENSE, Format.DENSE)
        c = rep.cycles
        assert c.total_cycles >= c.io_cycles
        assert c.total_cycles >= c.compute_cycles

    def test_empty_operand(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        sim = WeightStationarySimulator(AcceleratorConfig.walkthrough())
        out, rep = run(sim, a, b, Format.CSR, Format.CSC)
        assert np.array_equal(out, np.zeros((4, 4)))
        assert rep.cycles.stream_cycles == 0


class TestValidation:
    def test_rejects_unsupported_acfs(self, small_matrix):
        sim = WeightStationarySimulator(AcceleratorConfig.walkthrough())
        enc = CsrMatrix.from_dense(small_matrix)
        b = DenseMatrix.from_dense(np.ones((small_matrix.shape[1], 2)))
        with pytest.raises(SimulationError):
            sim.run_gemm(enc, Format.BSR, b, Format.DENSE)
        with pytest.raises(SimulationError):
            sim.run_gemm(enc, Format.CSR, b, Format.CSR)

    def test_rejects_mismatched_encoding(self, small_matrix):
        sim = WeightStationarySimulator(AcceleratorConfig.walkthrough())
        enc = CsrMatrix.from_dense(small_matrix)
        b = DenseMatrix.from_dense(np.ones((small_matrix.shape[1], 2)))
        with pytest.raises(SimulationError):
            sim.run_gemm(enc, Format.COO, b, Format.DENSE)

    def test_rejects_inner_dim_mismatch(self, rng):
        sim = WeightStationarySimulator(AcceleratorConfig.walkthrough())
        a = CsrMatrix.from_dense(make_sparse(rng, (3, 4), 0.5))
        b = DenseMatrix.from_dense(np.ones((5, 2)))
        with pytest.raises(SimulationError):
            sim.run_gemm(a, Format.CSR, b, Format.DENSE)
