"""SAGE predictor: the Fig. 4/5 format ladder must emerge from the search."""

from __future__ import annotations

import pytest

from repro.errors import PredictionError
from repro.formats.registry import Format
from repro.sage import Sage
from repro.sage.spaces import (
    MATRIX_ACF_STATIONARY,
    MATRIX_ACF_STREAMED,
    MATRIX_MCF,
    matrix_grid,
    tensor_grid,
)
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload


def _spmm(name: str, m: int, k: int, density: float, n: int | None = None):
    n = n or max(1, m // 2)
    return MatrixWorkload(
        name=name,
        kernel=Kernel.SPMM,
        m=m,
        k=k,
        n=n,
        nnz_a=max(1, int(density * m * k)),
        nnz_b=k * n,
    )


class TestFormatLadder:
    """MCF choices across the density spectrum (Fig. 4a's four stars)."""

    SAGE = Sage()

    def test_dense_at_full_density(self):
        d = self.SAGE.predict_matrix(_spmm("full", 2000, 2000, 1.0))
        assert d.mcf[0] is Format.DENSE

    def test_zvc_near_half_density(self):
        d = self.SAGE.predict_matrix(_spmm("half", 2000, 2000, 0.6))
        assert d.mcf[0] is Format.ZVC

    def test_rlc_around_ten_percent(self):
        d = self.SAGE.predict_matrix(_spmm("tenth", 2000, 2000, 0.10))
        assert d.mcf[0] is Format.RLC

    def test_csr_below_one_percent(self):
        d = self.SAGE.predict_matrix(_spmm("sparse", 2000, 2000, 0.005))
        assert d.mcf[0] is Format.CSR

    def test_coo_at_extreme_sparsity(self):
        d = self.SAGE.predict_matrix(_spmm("extreme", 11000, 11000, 5e-5))
        assert d.mcf[0] is Format.COO

    def test_acf_dense_at_high_density(self):
        d = self.SAGE.predict_matrix(_spmm("high", 2000, 2000, 0.3))
        assert d.acf[0] is Format.DENSE

    def test_acf_sparse_at_low_density(self):
        d = self.SAGE.predict_matrix(_spmm("low", 2000, 2000, 0.002))
        assert d.acf[0] in (Format.CSR, Format.COO)


class TestDecisionStructure:
    SAGE = Sage()

    def test_best_is_min_edp_of_ranking(self):
        d = self.SAGE.predict_matrix(_spmm("x", 500, 500, 0.1))
        edps = [c.edp for c in d.ranking]
        assert d.best.edp == min(edps)
        assert edps == sorted(edps)

    def test_ranking_covers_full_space(self):
        d = self.SAGE.predict_matrix(_spmm("x", 300, 300, 0.2))
        expected = (
            len(MATRIX_MCF) ** 2
            * len(MATRIX_ACF_STREAMED)
            * len(MATRIX_ACF_STATIONARY)
        )
        assert len(d.ranking) == expected

    def test_fixed_mcf_restricts_search(self):
        wl = _spmm("x", 500, 500, 0.05)
        d = self.SAGE.predict_matrix(wl, fixed_mcf=(Format.CSR, Format.DENSE))
        assert d.mcf == (Format.CSR, Format.DENSE)
        assert all(c.mcf == (Format.CSR, Format.DENSE) for c in d.ranking)

    def test_fixed_mcf_never_beats_free_search(self):
        wl = _spmm("x", 1000, 1000, 0.08)
        free = self.SAGE.predict_matrix(wl)
        pinned = self.SAGE.predict_matrix(
            wl, fixed_mcf=(Format.DENSE, Format.DENSE)
        )
        assert free.best.edp <= pinned.best.edp

    def test_summary_renders(self):
        d = self.SAGE.predict_matrix(_spmm("pretty", 200, 200, 0.1))
        text = d.summary(top=3)
        assert "SAGE decision" in text and "EDP" in text

    def test_no_converter_restricts_candidates(self):
        sage = Sage(provider=None)
        d = sage.predict_matrix(_spmm("x", 400, 400, 0.1))
        # Without a converter only MCF == ACF combos (and compatible pairs)
        # survive; the streamed MCF must be a streamable ACF.
        assert d.mcf[0] in (Format.DENSE, Format.COO, Format.CSR, Format.CSC)
        for c in d.ranking:
            assert c.mcf == c.acf


class TestTensorPredictions:
    SAGE = Sage()

    def _wl(self, shape, density, kernel=Kernel.MTTKRP):
        size = shape[0] * shape[1] * shape[2]
        return TensorWorkload(
            name="t",
            kernel=kernel,
            shape=shape,
            nnz=max(1, int(density * size)),
            rank=max(1, shape[0] // 2),
        )

    def test_zvc_for_dense_tensor(self):
        d = self.SAGE.predict_tensor(self._wl((60, 700, 9), 0.3))
        assert d.mcf[0] is Format.ZVC

    def test_csf_for_mid_density(self):
        d = self.SAGE.predict_tensor(self._wl((600, 24, 250), 0.015))
        assert d.mcf[0] in (Format.CSF, Format.COO)

    def test_spttm_and_mttkrp_both_searchable(self):
        for kernel in (Kernel.SPTTM, Kernel.MTTKRP):
            d = self.SAGE.predict_tensor(self._wl((50, 40, 30), 0.05, kernel))
            assert d.best.edp > 0

    def test_tensor_space_size(self):
        d = self.SAGE.predict_tensor(self._wl((30, 30, 30), 0.1))
        mcfs, acfs = tensor_grid()
        expected = len(mcfs) * len(acfs)
        assert len(d.ranking) == expected


class TestCombos:
    def test_matrix_combo_count(self):
        mcfs, acfs = matrix_grid()
        assert len(mcfs) * len(acfs) == 6 * 6 * 4 * 2

    def test_fixed_mcf_combo_count(self):
        mcfs, acfs = matrix_grid(fixed_mcf=(Format.CSR, Format.CSC))
        assert mcfs == ((Format.CSR, Format.CSC),)
        assert len(acfs) == 4 * 2
