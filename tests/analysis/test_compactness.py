"""Closed-form storage model vs concrete encodings, and Fig. 4 shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.compactness import (
    crossover_density,
    storage_bits,
    transfer_energy_sweep,
)
from repro.errors import FormatError
from repro.formats import matrix_class
from repro.formats.registry import Format
from repro.workloads import random_sparse_matrix
from tests.conftest import tensor_class
from tests.workloads._synthetic_tensor import random_sparse_tensor

EXACT_MATRIX = [Format.DENSE, Format.COO, Format.CSR, Format.CSC, Format.ZVC]
STRUCTURED_MATRIX = [Format.RLC, Format.BSR, Format.DIA]


class TestClosedFormVsConcrete:
    @pytest.mark.parametrize("fmt", EXACT_MATRIX)
    @pytest.mark.parametrize("nnz", [0, 13, 140, 400])
    def test_exact_formats_match_bit_for_bit(self, fmt, nnz, rng):
        dense = random_sparse_matrix(20, 20, nnz, rng)
        enc = matrix_class(fmt).from_dense(dense)
        assert storage_bits(fmt, (20, 20), nnz) == enc.total_bits

    @pytest.mark.parametrize("fmt", STRUCTURED_MATRIX)
    def test_structured_formats_within_expectation_tolerance(self, fmt, rng):
        nnz = 400
        dense = random_sparse_matrix(50, 50, nnz, rng)
        enc = matrix_class(fmt).from_dense(dense)
        est = storage_bits(fmt, (50, 50), nnz)
        assert est == pytest.approx(enc.total_bits, rel=0.35)

    @pytest.mark.parametrize("fmt", [Format.DENSE, Format.COO, Format.ZVC])
    def test_tensor_exact_formats(self, fmt, rng):
        dense = random_sparse_tensor((8, 9, 10), 120, rng)
        enc = tensor_class(fmt).from_dense(dense)
        assert storage_bits(fmt, (8, 9, 10), 120) == enc.total_bits

    @pytest.mark.parametrize("fmt", [Format.CSF, Format.HICOO, Format.RLC])
    def test_tensor_structured_within_tolerance(self, fmt, rng):
        dense = random_sparse_tensor((12, 12, 12), 250, rng)
        enc = tensor_class(fmt).from_dense(dense)
        est = storage_bits(fmt, (12, 12, 12), 250)
        assert est == pytest.approx(enc.total_bits, rel=0.35)

    def test_rejects_bad_nnz(self):
        with pytest.raises(FormatError):
            storage_bits(Format.CSR, (4, 4), 17)


class TestFig4Ladder:
    DIMS = (11_000, 11_000)
    FMTS = [Format.DENSE, Format.COO, Format.CSR, Format.CSC, Format.RLC, Format.ZVC]

    def _best(self, density: float) -> Format:
        sweep = transfer_energy_sweep(self.DIMS, [density], self.FMTS, 32)
        return min(self.FMTS, key=lambda f: sweep[f][0])

    def test_four_stars(self):
        """Fig. 4a: COO / RLC / ZVC / Dense at 1e-8 / 10% / 50% / 100%."""
        assert self._best(1e-8) is Format.COO
        assert self._best(0.10) is Format.RLC
        assert self._best(0.50) is Format.ZVC
        assert self._best(1.00) is Format.DENSE

    def test_normalization_to_csr(self):
        sweep = transfer_energy_sweep(self.DIMS, [0.01], self.FMTS, 32)
        assert sweep[Format.CSR][0] == pytest.approx(1.0)

    def test_csr_zvc_crossover_in_single_digit_percent(self):
        """The first red line of Fig. 4a: CSR overtakes ZVC at a few %."""
        x = crossover_density(Format.CSR, Format.ZVC, self.DIMS)
        assert 0.01 <= x <= 0.12

    def test_coo_csr_crossover_extreme(self):
        x = crossover_density(Format.COO, Format.CSR, self.DIMS)
        assert x < 1e-3

    def test_quantization_raises_metadata_share(self):
        """Fig. 4a-ii: with 8-bit data the metadata share grows, pushing the
        compressed formats' relative cost up."""
        s32 = transfer_energy_sweep(self.DIMS, [0.10], self.FMTS, 32, normalize_to=None)
        s8 = transfer_energy_sweep(self.DIMS, [0.10], self.FMTS, 8, normalize_to=None)
        ratio32 = s32[Format.CSR][0] / s32[Format.DENSE][0]
        ratio8 = s8[Format.CSR][0] / s8[Format.DENSE][0]
        assert ratio8 > ratio32

    def test_fig4b_k_dimension_effect(self):
        """Fig. 4b-i: growing K changes which format is most compact at
        extreme sparsity (CSR's pointer array amortizes; COO's indices
        widen)."""
        density = 1e-5
        small_k = {
            f: storage_bits(f, (1000, 1000), int(density * 1e6))
            for f in (Format.COO, Format.CSR)
        }
        big_k = {
            f: storage_bits(f, (1000, 1_000_000), int(density * 1e9))
            for f in (Format.COO, Format.CSR)
        }
        # The CSR/COO ratio must move with K.
        assert (
            small_k[Format.CSR] / small_k[Format.COO]
            != pytest.approx(big_k[Format.CSR] / big_k[Format.COO], rel=0.05)
        )

    def test_no_crossover_raises(self):
        # COO is strictly more compact than Dense across this whole bracket.
        with pytest.raises(ValueError):
            crossover_density(
                Format.COO, Format.DENSE, self.DIMS, lo=1e-8, hi=1e-6
            )
