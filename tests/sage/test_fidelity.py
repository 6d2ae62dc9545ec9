"""SAGE fidelity tiers: the cycle-simulator validation of analytical picks."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.errors import PredictionError
from repro.formats.registry import Format
from repro.sage.predictor import Sage, SageDecision, _proxy_workload
from repro.sage.spaces import MATRIX_ACF_STREAMED
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload


def _wl(m: int = 96, k: int = 96, n: int = 64,
        density: float = 0.1) -> MatrixWorkload:
    return MatrixWorkload("fid", Kernel.SPMM, m=m, k=k, n=n,
                          nnz_a=max(1, int(density * m * k)), nnz_b=k * n)


class TestCycleTier:
    @pytest.fixture(scope="class")
    def decision(self):
        return Sage().predict_matrix(_wl(), fidelity="cycle")

    def test_decision_is_cycle_fidelity(self, decision):
        assert decision.fidelity == "cycle"
        assert decision.best is decision.ranking[0]
        assert all(
            decision.ranking[i].edp <= decision.ranking[i + 1].edp
            for i in range(len(decision.ranking) - 1)
        )

    def test_extra_streamable_acf_joins_the_candidates(self, decision):
        # ELL is registered in the streaming-protocol registry but absent
        # from the analytical search space: the cycle tier is its entry
        # point into SAGE decisions.
        assert Format.ELL not in MATRIX_ACF_STREAMED
        assert Format.ELL in {cand.acf[0] for cand in decision.ranking}

    def test_cycle_costs_come_from_the_simulator(self, decision):
        analytical = Sage().predict_matrix(_wl())
        by_combo = {(c.mcf, c.acf): c for c in analytical.ranking}
        shared = [
            (cand, by_combo[(cand.mcf, cand.acf)])
            for cand in decision.ranking
            if (cand.mcf, cand.acf) in by_combo
        ]
        assert shared  # the tiers rank overlapping candidates
        assert any(
            cyc.compute_cycles != ana.compute_cycles for cyc, ana in shared
        )

    def test_wire_roundtrip_preserves_fidelity(self, decision):
        rebuilt = SageDecision.from_wire(decision.to_wire())
        assert rebuilt.fidelity == "cycle"
        assert rebuilt.sim_scale == decision.sim_scale

    def test_small_workload_simulated_at_exact_scale(self, decision):
        assert decision.sim_scale == 1.0
        assert "proxy" not in decision.summary()

    def test_summary_labels_the_tier(self, decision):
        assert "[cycle]" in decision.summary()


class TestProxyWorkload:
    def test_small_workload_passes_through(self):
        wl = _wl()
        assert _proxy_workload(wl, 1 << 18) is wl

    def test_large_workload_scaled_density_preserved(self):
        wl = MatrixWorkload("big", Kernel.SPMM, m=8192, k=8192, n=4096,
                            nnz_a=1_000_000, nnz_b=8192 * 4096)
        proxy = _proxy_workload(wl, 1 << 14)
        assert max(proxy.m * proxy.k, proxy.k * proxy.n) <= 1 << 14
        assert proxy.density_a == pytest.approx(wl.density_a, rel=0.25)
        assert proxy.b_is_dense == wl.b_is_dense

    def test_cycle_tier_declares_proxy_scale(self):
        wl = MatrixWorkload("big", Kernel.SPMM, m=4096, k=4096, n=2048,
                            nnz_a=400_000, nnz_b=4096 * 2048)
        decision = Sage().predict_matrix(wl, fidelity="cycle")
        assert decision.fidelity == "cycle"
        # The proxy scaling is declared, on the object and on the wire,
        # so proxy-scale cycles are never mistaken for full-scale ones.
        assert 0.0 < decision.sim_scale < 1.0
        assert decision.to_wire()["sim_scale"] == decision.sim_scale
        assert "proxy" in decision.summary()


class TestValidation:
    def test_unknown_fidelity_rejected(self):
        with pytest.raises(PredictionError, match="unknown fidelity"):
            Sage().predict_matrix(_wl(), fidelity="oracular")

    def test_tensor_cycle_fidelity_rejected(self):
        wl = TensorWorkload("t", Kernel.SPTTM, (32, 32, 32), 800, rank=8)
        with pytest.raises(PredictionError, match="analytical-only"):
            Sage().predict_tensor(wl, fidelity="cycle")

    def test_batch_checks_fidelity_upfront(self):
        with pytest.raises(PredictionError, match="unknown fidelity"):
            Session().predict([_wl()], fidelity="oracular")


class TestBatchCycleTier:
    def test_batch_at_cycle_fidelity(self):
        workloads = [_wl(), _wl(m=80, density=0.3)]
        with Session() as session:
            decisions = session.predict(workloads, fidelity="cycle")
        assert [d.fidelity for d in decisions] == ["cycle", "cycle"]
        assert [d.workload_name for d in decisions] == ["fid", "fid"]
