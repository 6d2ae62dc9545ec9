"""MINT engine dispatch, design-point aggregates and SAGE cost estimates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConversionError
from repro.formats import MATRIX_FORMATS, TENSOR_FORMATS, matrix_class
from repro.formats.registry import Format
from repro.mint import (
    MintDesign,
    MintEngine,
    estimate_conversion_cost,
    mint_area,
    mint_power,
)
from repro.mint.designs import (
    CONVERTER_BLOCKS,
    MERGED_BLOCKS,
    accelerator_overhead,
    divmod_fraction,
)
from repro.mint.engine import find_path
from tests.conftest import make_sparse, tensor_class


class TestEngine:
    @pytest.mark.parametrize("src", MATRIX_FORMATS)
    @pytest.mark.parametrize("dst", MATRIX_FORMATS)
    def test_matrix_all_pairs(self, src, dst, rng):
        dense = make_sparse(rng, (9, 11), 0.3)
        out, report = MintEngine().convert(matrix_class(src).from_dense(dense), dst)
        assert out.format is dst
        assert np.array_equal(out.to_dense(), dense)
        assert report.source is src and report.target is dst
        assert report.seconds == pytest.approx(report.cycles / 1e9)

    @pytest.mark.parametrize("src", TENSOR_FORMATS)
    @pytest.mark.parametrize("dst", TENSOR_FORMATS)
    def test_tensor_all_pairs(self, src, dst, rng):
        dense = make_sparse(rng, (4, 5, 6), 0.25)
        out, report = MintEngine().convert(tensor_class(src).from_dense(dense), dst)
        assert out.format is dst
        assert np.array_equal(out.to_dense(), dense)

    @pytest.mark.parametrize(
        "tensor, src, dst",
        [(False, s, d) for s in MATRIX_FORMATS for d in MATRIX_FORMATS]
        + [(True, s, d) for s in TENSOR_FORMATS for d in TENSOR_FORMATS],
    )
    def test_dtype_bits_preserved(self, tensor, src, dst, rng):
        if tensor:
            source = tensor_class(src).from_dense(
                make_sparse(rng, (4, 5, 6), 0.25), dtype_bits=16
            )
        else:
            source = matrix_class(src).from_dense(
                make_sparse(rng, (6, 6), 0.3), dtype_bits=16
            )
        out, _ = MintEngine().convert(source, dst)
        assert out.dtype_bits == 16

    def test_identity_is_free(self, rng):
        dense = make_sparse(rng, (6, 6), 0.4)
        src = matrix_class(Format.CSR).from_dense(dense)
        out, report = MintEngine().convert(src, Format.CSR)
        assert report.cycles == 0 and report.energy_j == 0.0
        assert out is src

    def test_direct_path_single_hop(self):
        assert len(find_path(Format.CSR, Format.CSC, tensor=False)) == 1

    def test_hub_path_two_hops(self):
        # ZVC -> CSR has no dedicated datapath: goes through Dense or COO.
        path = find_path(Format.ZVC, Format.CSR, tensor=False)
        assert len(path) == 2

    def test_kwargs_reach_final_hop(self, rng):
        dense = make_sparse(rng, (8, 8), 0.3)
        src = matrix_class(Format.CSR).from_dense(dense)
        out, _ = MintEngine().convert(src, Format.BSR, block_shape=(4, 4))
        assert out.block_shape == (4, 4)

    def test_kwargs_reach_final_hop_from_dense(self, rng):
        dense = make_sparse(rng, (8, 8), 0.3)
        src = matrix_class(Format.DENSE).from_dense(dense)
        out, _ = MintEngine().convert(src, Format.BSR, block_shape=(4, 4))
        assert out.block_shape == (4, 4)
        assert np.array_equal(out.to_dense(), dense)

    def test_matrix_rejects_tensor_format(self, small_matrix):
        src = matrix_class(Format.CSR).from_dense(small_matrix)
        with pytest.raises(ConversionError):
            MintEngine().convert(src, Format.CSF)

    def test_tensor_rejects_matrix_format(self, small_tensor):
        src = tensor_class(Format.COO).from_dense(small_tensor)
        with pytest.raises(ConversionError):
            MintEngine().convert(src, Format.CSR)

    def test_supported_pairs_complete(self):
        eng = MintEngine()
        assert len(eng.supported_pairs(tensor=False)) == len(MATRIX_FORMATS) ** 2
        assert len(eng.supported_pairs(tensor=True)) == len(TENSOR_FORMATS) ** 2


class TestDesignAggregates:
    """Pins to the Sec. VII-B published numbers."""

    def test_areas_match_paper(self):
        assert mint_area(MintDesign.BASELINE) == pytest.approx(0.95, rel=0.05)
        assert mint_area(MintDesign.MERGED) == pytest.approx(0.41, rel=0.05)
        assert mint_area(MintDesign.MERGED_REUSE) == pytest.approx(0.23, rel=0.05)

    def test_merge_reduction_57pct(self):
        red = 1 - mint_area(MintDesign.MERGED) / mint_area(MintDesign.BASELINE)
        assert red == pytest.approx(0.57, abs=0.03)

    def test_reuse_reduction_45pct(self):
        red = 1 - mint_area(MintDesign.MERGED_REUSE) / mint_area(MintDesign.MERGED)
        assert red == pytest.approx(0.45, abs=0.03)

    def test_divmod_dominates_merged(self):
        area_frac, power_frac = divmod_fraction()
        assert area_frac == pytest.approx(0.74, abs=0.02)
        assert power_frac == pytest.approx(0.65, abs=0.02)

    def test_accelerator_overhead(self):
        area_frac, power_frac = accelerator_overhead()
        assert area_frac == pytest.approx(0.005, abs=0.001)
        assert power_frac == pytest.approx(0.004, abs=0.001)

    def test_power_ordering(self):
        assert (
            mint_power(MintDesign.MERGED_REUSE)
            < mint_power(MintDesign.MERGED)
            < mint_power(MintDesign.BASELINE)
        )

    def test_merged_is_union_of_converters(self):
        for inventory in CONVERTER_BLOCKS.values():
            for block, count in inventory.items():
                assert MERGED_BLOCKS.get(block, 0) >= min(count, MERGED_BLOCKS.get(block, count))
                assert block in MERGED_BLOCKS


class TestCostEstimates:
    def test_identity_zero(self):
        c = estimate_conversion_cost(
            Format.CSR, Format.CSR, size=10_000, nnz=500, major_dim=100
        )
        assert c.cycles == 0 and c.energy_j == 0.0

    def test_positive_and_monotone(self):
        lo = estimate_conversion_cost(
            Format.CSR, Format.CSC, size=1_000_000, nnz=10_000, major_dim=1000
        )
        hi = estimate_conversion_cost(
            Format.CSR, Format.CSC, size=1_000_000, nnz=100_000, major_dim=1000
        )
        assert 0 < lo.cycles < hi.cycles
        assert 0 < lo.energy_j < hi.energy_j

    def test_hub_path_costs_more_than_direct(self):
        direct = estimate_conversion_cost(
            Format.RLC, Format.COO, size=1_000_000, nnz=50_000, major_dim=1000
        )
        hub = estimate_conversion_cost(
            Format.RLC, Format.CSC, size=1_000_000, nnz=50_000, major_dim=1000
        )
        assert hub.cycles > direct.cycles

    def test_streaming_decompression_hides_behind_dram(self):
        """RLC->Dense keeps pace with the DRAM stream (Sec. V-B overlap)."""
        from repro.analysis.compactness import storage_bits
        from repro.hardware.dram import DramChannel

        size, nnz, major = 11_000 * 11_000, 12_100_000, 11_000
        conv = estimate_conversion_cost(
            Format.RLC, Format.DENSE, size=size, nnz=nnz, major_dim=major
        )
        dram = DramChannel().transfer_cycles(
            int(storage_bits(Format.RLC, (11_000, 11_000), nnz))
        )
        assert conv.cycles <= dram * 1.1

    def test_divmod_bound_conversion_visible(self):
        """Coordinate-producing conversions are limited by the 8-unit bank."""
        c = estimate_conversion_cost(
            Format.RLC, Format.COO, size=10**8, nnz=10**7, major_dim=10**4
        )
        assert c.cycles >= 10**7 / 8 * 0.9

    def test_estimate_within_factor_of_engine(self, rng):
        """Closed-form estimate tracks the functional engine's cycle count."""
        dense = make_sparse(rng, (64, 64), 0.2)
        src = matrix_class(Format.CSR).from_dense(dense)
        _, report = MintEngine().convert(src, Format.CSC)
        est = estimate_conversion_cost(
            Format.CSR,
            Format.CSC,
            size=64 * 64,
            nnz=int(np.count_nonzero(dense)),
            major_dim=64,
        )
        # The engine is element-granular, the estimate bit-granular; they
        # must agree within an order of magnitude on small operands.
        assert est.cycles <= report.cycles * 10
        assert report.cycles <= max(est.cycles, 1) * 50
