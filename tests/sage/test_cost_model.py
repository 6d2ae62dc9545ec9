"""SAGE cost model: breakdown invariants and overlap semantics."""

from __future__ import annotations

import pytest

from repro.formats.registry import Format
from repro.mint.cost import ConversionCost
from repro.sage.cost_model import (
    mint_provider,
    price_matrix_menu,
    price_tensor_menu,
)
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload


def evaluate_matrix_combo(workload, mcf, acf, **kw):
    """One candidate priced as a one-cell menu; ``None`` if infeasible."""
    menu = price_matrix_menu(workload, (mcf,), (acf,), **kw)
    return menu.row(0) if menu else None


def evaluate_tensor_combo(workload, mcf, acf, **kw):
    """One tensor-kernel candidate priced as a one-cell menu."""
    menu = price_tensor_menu(workload, (mcf,), (acf,), **kw)
    return menu.row(0) if menu else None


WL = MatrixWorkload(
    name="unit",
    kernel=Kernel.SPMM,
    m=1000,
    k=800,
    n=500,
    nnz_a=40_000,
    nnz_b=800 * 500,
)


class TestBreakdown:
    def test_totals_are_sums(self):
        cost = evaluate_matrix_combo(WL, (Format.CSR, Format.DENSE), (Format.CSR, Format.DENSE))
        assert cost is not None
        assert cost.total_energy_j == pytest.approx(
            cost.dram_energy_j + cost.conv_energy_j + cost.compute_energy_j
        )
        assert cost.total_cycles == (
            cost.ingest_cycles + cost.compute_cycles + cost.writeback_cycles
        )
        assert cost.edp == pytest.approx(cost.total_energy_j * cost.seconds)

    def test_no_conversion_when_mcf_equals_acf(self):
        cost = evaluate_matrix_combo(
            WL, (Format.CSR, Format.DENSE), (Format.CSR, Format.DENSE)
        )
        assert cost.conv_in_cycles == 0
        assert cost.conv_energy_j == 0.0

    def test_conversion_charged_when_formats_differ(self):
        cost = evaluate_matrix_combo(
            WL, (Format.RLC, Format.DENSE), (Format.CSR, Format.DENSE)
        )
        assert cost.conv_in_cycles > 0
        assert cost.conv_energy_j > 0.0

    def test_overlap_hides_fast_conversion(self):
        """Ingest = max(dram, conversion), not the sum (Sec. V-B pipelining)."""
        cost = evaluate_matrix_combo(
            WL, (Format.RLC, Format.DENSE), (Format.DENSE, Format.DENSE)
        )
        assert cost.ingest_cycles == max(cost.dram_in_cycles, cost.conv_in_cycles)
        assert cost.ingest_cycles < cost.dram_in_cycles + max(cost.conv_in_cycles, 1)

    def test_none_provider_blocks_conversion_combos(self):
        cost = evaluate_matrix_combo(
            WL,
            (Format.RLC, Format.DENSE),
            (Format.CSR, Format.DENSE),
            provider=None,
        )
        assert cost is None

    def test_none_provider_allows_identity(self):
        cost = evaluate_matrix_combo(
            WL,
            (Format.CSR, Format.DENSE),
            (Format.CSR, Format.DENSE),
            provider=None,
        )
        assert cost is not None

    def test_output_mcf_compact_for_sparse_output(self):
        sparse_out = MatrixWorkload(
            name="s",
            kernel=Kernel.SPGEMM,
            m=5000,
            k=5000,
            n=2500,
            nnz_a=2000,
            nnz_b=1000,
        )
        cost = evaluate_matrix_combo(
            sparse_out, (Format.COO, Format.COO), (Format.COO, Format.CSC)
        )
        assert cost.mcf_out is not Format.DENSE

    def test_output_mcf_dense_for_dense_output(self):
        cost = evaluate_matrix_combo(
            WL, (Format.DENSE, Format.DENSE), (Format.DENSE, Format.DENSE)
        )
        # SpMM with a dense B yields an (almost) fully dense output.
        assert cost.mcf_out in (Format.DENSE, Format.ZVC, Format.RLC)

    def test_custom_provider_used(self):
        calls = []

        def probe(src, dst, size, nnz, major, bits, tensor):
            calls.append((src, dst))
            return ConversionCost(123, 1e-6, 123e-9)

        cost = evaluate_matrix_combo(
            WL, (Format.RLC, Format.DENSE), (Format.DENSE, Format.DENSE),
            provider=probe,
        )
        assert (Format.RLC, Format.DENSE) in calls
        assert cost.conv_in_cycles == 123


class TestTensorCombo:
    TWL = TensorWorkload(
        name="t", kernel=Kernel.SPTTM, shape=(100, 80, 60), nnz=24_000, rank=50
    )

    def test_breakdown_positive(self):
        cost = evaluate_tensor_combo(
            self.TWL, (Format.CSF, Format.DENSE), (Format.CSF, Format.DENSE)
        )
        assert cost is not None
        assert cost.total_cycles > 0 and cost.total_energy_j > 0

    def test_mttkrp_costs_more_compute_than_spttm(self):
        mtt = TensorWorkload(
            name="m", kernel=Kernel.MTTKRP, shape=(100, 80, 60), nnz=24_000, rank=50
        )
        c_spttm = evaluate_tensor_combo(
            self.TWL, (Format.COO, Format.DENSE), (Format.COO, Format.DENSE)
        )
        c_mttkrp = evaluate_tensor_combo(
            mtt, (Format.COO, Format.DENSE), (Format.COO, Format.DENSE)
        )
        assert c_mttkrp.compute_energy_j > c_spttm.compute_energy_j

    def test_conversion_needed_for_mcf_acf_mismatch(self):
        cost = evaluate_tensor_combo(
            self.TWL, (Format.RLC, Format.DENSE), (Format.CSF, Format.DENSE)
        )
        assert cost.conv_in_cycles > 0

    def test_mint_provider_signature(self):
        c = mint_provider(Format.CSR, Format.CSC, 10_000, 500, 100, 32, False)
        assert c.cycles > 0
