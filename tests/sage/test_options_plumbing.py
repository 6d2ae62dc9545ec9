"""Satellite fix: every Sage entry point honors the full option set.

Before the Session redesign, ``predict`` and batch predicts silently dropped
the search-restriction kwargs that ``predict_matrix`` accepted, and
``predict_tensor`` ignored unsupported ones.  These tests pin the
consolidated contract.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.api.options import PredictOptions
from repro.errors import PredictionError
from repro.formats.registry import Format
from repro.sage import Sage
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload


def _spmm(name: str = "opt", m: int = 180, density: float = 0.04):
    n = m // 2
    return MatrixWorkload(
        name, Kernel.SPMM, m=m, k=m, n=n,
        nnz_a=max(1, int(density * m * m)), nnz_b=m * n,
    )


SAGE = Sage()


class TestGenericEntryPoints:
    def test_predict_accepts_fixed_mcf(self):
        d = SAGE.predict(_spmm(), fixed_mcf=(Format.CSC, Format.ZVC))
        assert d.best.mcf == (Format.CSC, Format.ZVC)
        assert all(c.mcf == (Format.CSC, Format.ZVC) for c in d.ranking)

    def test_predict_accepts_operand_spaces(self):
        d = SAGE.predict(
            _spmm(), mcf_a_space=(Format.COO,), mcf_b_space=(Format.DENSE,)
        )
        assert all(
            c.mcf == (Format.COO, Format.DENSE) for c in d.ranking
        )

    def test_predict_matches_predict_matrix(self):
        wl = _spmm("match")
        opts = PredictOptions(mcf_a_space=(Format.CSR, Format.RLC), top_k=3)
        assert SAGE.predict(wl, options=opts) == SAGE.predict_matrix(
            wl, options=opts
        )

    def test_batch_accepts_options(self):
        wls = [_spmm(f"many{i}", m=160 + 20 * i) for i in range(3)]
        opts = PredictOptions(fixed_mcf=(Format.CSR, Format.DENSE), top_k=2)
        decisions = Session().predict(wls, opts)
        assert all(d.best.mcf == (Format.CSR, Format.DENSE) for d in decisions)
        assert all(len(d.ranking) == 2 for d in decisions)

    def test_batch_matches_singles(self):
        wls = [_spmm(f"s{i}", m=150 + 30 * i) for i in range(2)]
        opts = PredictOptions(mcf_b_space=(Format.ZVC, Format.DENSE))
        batch = Session().predict(wls, opts)
        singles = [SAGE.predict(wl, options=opts) for wl in wls]
        assert batch == singles

    def test_keyword_overrides_beat_options(self):
        wl = _spmm("override")
        opts = PredictOptions(fixed_mcf=(Format.COO, Format.COO))
        d = SAGE.predict(wl, options=opts, fixed_mcf=(Format.ZVC, Format.DENSE))
        assert d.best.mcf == (Format.ZVC, Format.DENSE)

    def test_top_k_truncates_but_keeps_best(self):
        wl = _spmm("trunc")
        full = SAGE.predict(wl)
        short = SAGE.predict(wl, options=PredictOptions(top_k=2))
        assert len(short.ranking) == 2
        assert short.best == full.best
        assert short.ranking == full.ranking[:2]


class TestTensorRejectsUnsupported:
    WL = TensorWorkload("t", Kernel.SPTTM, (24, 24, 24), 600, rank=8)

    def test_mcf_a_space_rejected(self):
        with pytest.raises(PredictionError, match="mcf_a_space"):
            SAGE.predict(self.WL, mcf_a_space=(Format.COO,))

    def test_mcf_b_space_rejected(self):
        with pytest.raises(PredictionError, match="mcf_b_space"):
            SAGE.predict_tensor(
                self.WL, options=PredictOptions(mcf_b_space=(Format.DENSE,))
            )

    def test_error_names_both_offenders(self):
        with pytest.raises(PredictionError, match="mcf_a_space, mcf_b_space"):
            SAGE.predict(
                self.WL,
                options=PredictOptions(
                    mcf_a_space=(Format.COO,), mcf_b_space=(Format.DENSE,)
                ),
            )

    def test_fixed_mcf_still_supported(self):
        d = SAGE.predict(self.WL, fixed_mcf=(Format.CSF, Format.DENSE))
        assert d.best.mcf == (Format.CSF, Format.DENSE)

    def test_cycle_fidelity_still_rejected(self):
        with pytest.raises(PredictionError, match="cycle fidelity"):
            SAGE.predict(self.WL, fidelity="cycle")

    def test_top_k_supported_for_tensors(self):
        d = SAGE.predict(self.WL, options=PredictOptions(top_k=1))
        assert len(d.ranking) == 1
