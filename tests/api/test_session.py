"""The Session facade: local backend, batch routing, the run() pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    LocalBackend,
    PredictOptions,
    RunOptions,
    RunResult,
    Session,
)
from repro.errors import ConfigError, PredictionError, SimulationError
from repro.formats.registry import Format, matrix_class
from repro.sage import Sage
from repro.sage.predictor import SIM_CAP_ELEMENTS
from repro.workloads import random_sparse_matrix
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload
from tests.accelerator._reference_engine import reference_gemm


def _wl(name: str = "sess", m: int = 192, nnz_a: int = 1_500) -> MatrixWorkload:
    return MatrixWorkload(name, Kernel.SPMM, m=m, k=192, n=96,
                          nnz_a=nnz_a, nnz_b=192 * 96)


class TestBackendSelection:
    def test_default_is_local(self):
        assert Session().backend.describe() == "local"

    def test_unknown_backend_string_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            Session("carrier-pigeon")

    @pytest.mark.parametrize("url", ["tcp://", "tcp://host", "tcp://host:abc"])
    def test_malformed_tcp_url_rejected(self, url):
        with pytest.raises(ConfigError, match="malformed backend URL"):
            Session(url)

    def test_backend_object_slots_in(self):
        backend = LocalBackend(Sage())
        session = Session(backend)
        assert session.backend is backend


class TestPredictRouting:
    SESSION = Session()

    def test_single_matches_sage(self):
        wl = _wl()
        assert self.SESSION.predict(wl) == Sage().predict(wl)

    def test_wire_dict_accepted(self):
        wl = _wl("dicted")
        assert self.SESSION.predict(wl.to_dict()) == self.SESSION.predict(wl)

    def test_batch_returns_list_in_order(self):
        suite = [_wl(f"b{i}", m=160 + 16 * i) for i in range(3)]
        decisions = self.SESSION.predict(suite)
        assert isinstance(decisions, list)
        assert [d.workload_name for d in decisions] == [wl.name for wl in suite]
        singles = [self.SESSION.predict(wl) for wl in suite]
        assert [d.best for d in decisions] == [d.best for d in singles]

    def test_tensor_routes_through_same_call(self):
        wl = TensorWorkload("t", Kernel.SPTTM, (24, 24, 24), 500, rank=8)
        assert self.SESSION.predict(wl) == Sage().predict(wl)

    def test_options_reach_the_search(self):
        wl = _wl("pinned")
        d = self.SESSION.predict(
            wl, PredictOptions(fixed_mcf=(Format.CSR, Format.DENSE))
        )
        assert d.best.mcf == (Format.CSR, Format.DENSE)
        assert all(c.mcf == (Format.CSR, Format.DENSE) for c in d.ranking)

    def test_override_kwargs_apply(self):
        wl = _wl("topk")
        d = self.SESSION.predict(wl, top_k=2)
        assert len(d.ranking) == 2

    def test_repeat_hits_local_cache(self):
        session = Session()
        wl = _wl("cached", m=224)
        session.predict(wl)
        session.predict(wl)
        stats = session.backend.cache_stats()["analytical"]
        assert stats["hits"] >= 1

    def test_cache_hit_is_relabeled(self):
        session = Session()
        alice = _wl("alice", m=256)
        bob = _wl("bob", m=256)
        session.predict(alice)
        assert session.predict(bob).workload_name == "bob"

    def test_restricted_options_bypass_cache(self):
        session = Session()
        wl = _wl("bypass", m=288)
        free = session.predict(wl)
        pinned = session.predict(
            wl, PredictOptions(mcf_a_space=(Format.DENSE,))
        )
        assert all(c.mcf[0] is Format.DENSE for c in pinned.ranking)
        assert free.best.edp <= pinned.best.edp

    def test_non_workload_rejected(self):
        with pytest.raises(TypeError, match="expected a workload"):
            self.SESSION.predict(42)


class TestRunPipeline:
    SESSION = Session()

    def test_run_result_is_coherent(self):
        wl = _wl("run", m=96, nnz_a=700)
        result = self.SESSION.run(wl)
        assert isinstance(result, RunResult)
        # The pipeline's decision is exactly what predict() returns.
        assert result.decision == self.SESSION.predict(wl)
        # Conversion reports follow the decision's formats.
        assert result.conversion_a.source is result.decision.mcf[0]
        assert result.conversion_a.target is result.decision.acf[0]
        assert result.conversion_b.source is result.decision.mcf[1]
        assert result.conversion_b.target is result.decision.acf[1]
        # Report-accounting invariants.
        c = result.report.cycles
        assert c.total_cycles > 0
        assert 0 <= c.matched_macs <= c.issued_macs
        assert result.report.energy.total_j > 0
        assert result.edp == pytest.approx(result.report.edp)
        assert result.verified is True
        assert result.sim_scale == 1.0
        assert result.output.shape == (wl.m, wl.n)

    def test_run_is_deterministic_in_seed(self):
        wl = _wl("seeded", m=80, nnz_a=400)
        r1 = self.SESSION.run(wl, RunOptions(seed=3))
        r2 = self.SESSION.run(wl, RunOptions(seed=3))
        assert np.array_equal(r1.output, r2.output)
        assert r1.report.cycles == r2.report.cycles

    def test_run_with_concrete_operands(self):
        wl = MatrixWorkload("concrete", Kernel.SPMM, m=12, k=16, n=8,
                            nnz_a=20, nnz_b=16 * 8)
        rng = np.random.default_rng(0)
        a = np.zeros((12, 16))
        a[rng.integers(0, 12, 20), rng.integers(0, 16, 20)] = 1.0
        b = rng.random((16, 8))
        result = self.SESSION.run(wl, a=a, b=b)
        assert np.allclose(result.output, a @ b)

    @pytest.mark.parametrize("kernel", [Kernel.SPMM, Kernel.SPGEMM])
    @pytest.mark.parametrize("density", [0.75, 0.375, 0.1, 0.02, 0.003])
    def test_supplied_operands_match_generated(self, kernel, density):
        """Operands drawn as coordinates run exactly as the same operands
        supplied as dense arrays (every MCF the ladder picks: ZVC, RLC,
        CSR, COO, CSC, Dense)."""
        m, k, n = 128, 128, 64
        wl = MatrixWorkload(
            f"supplied-{kernel.value}-{density}", kernel, m=m, k=k, n=n,
            nnz_a=round(density * m * k),
            nnz_b=k * n if kernel is Kernel.SPMM else round(density * k * n),
        )
        opts = RunOptions(seed=5)
        generated = self.SESSION.run(wl, opts)
        a = random_sparse_matrix(m, k, wl.nnz_a, 5)
        b = random_sparse_matrix(k, n, wl.nnz_b, 6)
        supplied = self.SESSION.run(wl, opts, a=a, b=b)
        assert supplied.decision == generated.decision
        assert supplied.conversion_a == generated.conversion_a
        assert supplied.conversion_b == generated.conversion_b
        assert supplied.report == generated.report
        assert supplied.output.tobytes() == generated.output.tobytes()
        assert supplied.verified is generated.verified is True
        assert supplied.sim_scale == generated.sim_scale == 1.0

    def test_run_requires_both_operands(self):
        with pytest.raises(SimulationError, match="both operands"):
            self.SESSION.run(_wl("half"), a=np.zeros((192, 192)))

    def test_run_rejects_mismatched_operands(self):
        wl = _wl("shape")
        with pytest.raises(SimulationError, match="disagree"):
            self.SESSION.run(wl, a=np.zeros((2, 2)), b=np.zeros((2, 2)))

    def test_oversized_workload_runs_via_proxy(self):
        wl = MatrixWorkload("big", Kernel.SPMM, m=4096, k=4096, n=2048,
                            nnz_a=400_000, nnz_b=4096 * 2048)
        result = self.SESSION.run(wl, RunOptions(verify=True))
        assert result.verified
        assert result.sim_scale < 1.0
        assert result.sim_workload.m < wl.m
        sim = result.sim_workload
        assert max(sim.m * sim.k, sim.k * sim.n) <= SIM_CAP_ELEMENTS
        # Density is preserved by the proxy (within rounding).
        assert result.sim_workload.density_a == pytest.approx(
            wl.density_a, rel=0.35
        )

    def test_run_rejects_tensor_workloads(self):
        wl = TensorWorkload("t", Kernel.MTTKRP, (16, 16, 16), 100, rank=4)
        with pytest.raises(PredictionError, match="matrix workloads only"):
            self.SESSION.run(wl)

    def test_reference_engine_matches_vectorized(self):
        wl = _wl("engines", m=64, nnz_a=300)
        a = random_sparse_matrix(wl.m, wl.k, wl.nnz_a, 0)
        b = random_sparse_matrix(wl.k, wl.n, wl.nnz_b, 1)
        run = self.SESSION.run(wl, a=a, b=b)
        acf_a, acf_b = run.decision.acf
        out, report = reference_gemm(
            self.SESSION.config,
            matrix_class(acf_a).from_dense(a), acf_a,
            matrix_class(acf_b).from_dense(b), acf_b,
        )
        assert run.report == report
        assert np.allclose(run.output, out)


class TestLocalRemoteParity:
    """The acceptance bar: one Session API, wire-identical decisions."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.serve import SageServer, ServeConfig

        # near_hit off: the parity bar asserts bit-identical wire
        # decisions, which is exactly the --exact serving mode.  The
        # near-hit tier deliberately answers from a same-band neighbour
        # (accuracy-for-latency) and is covered by tests/serve/.
        with SageServer(
            serve=ServeConfig(port=0, shards=1, near_hit=False)
        ) as srv:
            yield srv

    def test_predict_wire_identical_across_backends(self, server):
        host, port = server.address
        wl = _wl("parity", m=208, nnz_a=1_800)
        with Session(f"tcp://{host}:{port}") as remote:
            local = Session()
            assert (
                local.predict(wl).to_wire() == remote.predict(wl).to_wire()
            )

    def test_options_wire_identical_across_backends(self, server):
        host, port = server.address
        wl = _wl("parity-opts", m=216, nnz_a=1_900)
        opts = PredictOptions(
            fixed_mcf=(Format.CSR, Format.DENSE), top_k=3
        )
        with Session(f"tcp://{host}:{port}") as remote:
            local = Session()
            lw = local.predict(wl, opts).to_wire()
            rw = remote.predict(wl, opts).to_wire()
            assert lw == rw
            assert len(lw["ranking"]) == 3

    def test_batch_wire_identical_across_backends(self, server):
        host, port = server.address
        suite = [_wl(f"parity-b{i}", m=176 + 8 * i) for i in range(3)]
        with Session(f"tcp://{host}:{port}") as remote:
            local = Session()
            lws = [d.to_wire() for d in local.predict(suite)]
            rws = [d.to_wire() for d in remote.predict(suite)]
            assert lws == rws

    def test_run_through_remote_decision(self, server):
        host, port = server.address
        wl = _wl("parity-run", m=96, nnz_a=600)
        with Session(f"tcp://{host}:{port}") as remote:
            result = remote.run(wl)
            assert result.decision.to_wire() == Session().predict(wl).to_wire()
            assert result.verified is True


class TestCalibratedParity:
    """Calibrated decisions: wire-identical across backends, cache-key split."""

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        from repro.sage.calibrate import GRIDS, build_table
        from repro.xp.artifacts import ArtifactStore

        store = ArtifactStore(tmp_path_factory.mktemp("parity-calibration"))
        return build_table(GRIDS["tiny"], store=store).table

    @pytest.fixture(scope="class")
    def server(self, table):
        from repro.serve import SageServer, ServeConfig

        with SageServer(
            sage=Sage(calibration=table),
            serve=ServeConfig(port=0, shards=1, near_hit=False),
        ) as srv:
            yield srv

    def test_wire_identical_across_backends(self, server, table):
        host, port = server.address
        wl = _wl("parity-cal", m=224, nnz_a=2_000)
        opts = PredictOptions(fidelity="calibrated")
        local = Session(LocalBackend(Sage(calibration=table)))
        with Session(f"tcp://{host}:{port}") as remote:
            lw = local.predict(wl, opts).to_wire()
            rw = remote.predict(wl, opts).to_wire()
        assert lw == rw
        assert lw["fidelity"] == "calibrated"
        assert "error_bound" in lw

    def test_never_served_from_analytical_cache(self, table):
        # Regression guard on the cache-key split: an analytical entry
        # for the same fingerprint must not answer a calibrated request.
        backend = LocalBackend(Sage(calibration=table))
        wl = _wl("parity-cal-cache", m=232, nnz_a=2_100)
        ana = backend.predict_one(wl, PredictOptions(fidelity="analytical"))
        cal = backend.predict_one(wl, PredictOptions(fidelity="calibrated"))
        assert ana.fidelity == "analytical" and cal.fidelity == "calibrated"
        assert cal != ana
        stats = backend.cache_stats()
        assert set(stats) == {"analytical", "calibrated", "cycle"}
        assert stats["calibrated"]["misses"] == 1
        # Repeats come from the calibrated cache, not a recompute.
        again = backend.predict_one(wl, PredictOptions(fidelity="calibrated"))
        assert again == cal
        assert backend.cache_stats()["calibrated"]["hits"] == 1
