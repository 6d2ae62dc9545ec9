"""Serve-tier observability: percentile fix, metrics RPC, stats CLI."""

from __future__ import annotations

import json

import pytest

from repro.serve import SageServer, ServeClient, ServeConfig
from repro.serve.server import _percentiles_ms
from repro.workloads.spec import Kernel, MatrixWorkload


class TestPercentiles:
    """Regression for the banker's-rounding nearest-rank bug.

    ``round(q * n) - 1`` under-selects on half cases — p90 of a 5-sample
    window picked ``round(4.5) - 1 = 3``, the 80th percentile.  Ceil-based
    nearest rank picks the smallest sample with at least ``q*n`` samples
    at or below it.
    """

    def test_odd_window(self):
        out = _percentiles_ms([0.001, 0.002, 0.003, 0.004, 0.005])
        assert out["count"] == 5
        assert out["p50"] == pytest.approx(3.0)
        assert out["p90"] == pytest.approx(5.0)  # was 4.0 pre-fix
        assert out["p99"] == pytest.approx(5.0)

    def test_even_window(self):
        out = _percentiles_ms([0.001, 0.002, 0.003, 0.004])
        assert out["p50"] == pytest.approx(2.0)
        assert out["p90"] == pytest.approx(4.0)
        assert out["p99"] == pytest.approx(4.0)

    def test_ten_samples(self):
        sample = [i / 1000 for i in range(1, 11)]
        out = _percentiles_ms(sample)
        assert out["p50"] == pytest.approx(5.0)
        assert out["p90"] == pytest.approx(9.0)
        assert out["p99"] == pytest.approx(10.0)

    def test_single_sample(self):
        out = _percentiles_ms([0.007])
        assert out["p50"] == out["p90"] == out["p99"] == pytest.approx(7.0)

    def test_empty_window(self):
        out = _percentiles_ms([])
        assert out == {"count": 0, "p50": None, "p90": None, "p99": None}


def _wl(m: int) -> MatrixWorkload:
    return MatrixWorkload("obs", Kernel.SPMM, m=m, k=128, n=64,
                          nnz_a=max(1, m), nnz_b=128 * 64)


@pytest.fixture(scope="module")
def server():
    with SageServer(
        serve=ServeConfig(port=0, shards=1)
    ) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient(*server.address) as c:
        yield c


class TestMetricsRpc:
    def test_stats_exposes_merged_registry(self, client):
        client.predict(_wl(96))   # miss -> shard compute
        client.predict(_wl(96))   # front-cache hit
        stats = client.stats()
        metrics = stats["metrics"]
        assert metrics["shards_polled"] == 1
        assert metrics["shards_reporting"] == 1
        snapshot = metrics["registry"]
        requests = snapshot["repro_serve_requests_total"]["values"]
        assert requests["event=submitted"] >= 2
        assert requests["event=served"] >= 2

    def test_worker_side_counters_are_merged_in(self, client):
        client.predict(_wl(160))  # unseen workload: must reach the shard
        snapshot = client.stats()["metrics"]["registry"]
        spans = snapshot["repro_span_seconds"]["values"]
        # The serve.shard_predict span is only ever entered inside the
        # shard process; its presence proves the cross-process merge.
        shard_series = [k for k in spans if "span=serve.shard_predict" in k]
        assert shard_series
        assert snapshot["repro_sage_predictions_total"]["values"]

    def test_stage_latency_histograms_recorded(self, client):
        client.predict(_wl(224))
        entry = client.stats()["metrics"]["registry"][
            "repro_serve_stage_seconds"
        ]
        stages = {k for k in entry["values"]}
        assert "stage=total" in stages

    def test_trace_id_propagates_over_the_wire(self, server):
        from repro.obs import set_trace_id

        set_trace_id("cafecafe12345678")
        try:
            with ServeClient(*server.address) as c:
                c.predict(_wl(288))
        finally:
            set_trace_id(None)
        # The handler adopted the client's ID for its spans; nothing to
        # read back without a server-side recorder, but the RPC must not
        # have been disturbed by the extra top-level key.
        with ServeClient(*server.address) as c:
            assert c.ping()


class TestStatsCli:
    def test_pretty_and_json_output(self, server, capsys):
        from repro.cli import main

        client = ServeClient(*server.address)
        client.predict(_wl(352))
        client.close()
        host, port = server.address
        assert main(["stats", f"tcp://{host}:{port}"]) == 0
        out = capsys.readouterr().out
        assert "requests:" in out
        assert "repro_serve_requests_total" in out

        assert main(["stats", f"tcp://{host}:{port}", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "registry" in doc["metrics"]

    def test_invalid_spec_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="invalid server spec"):
            main(["stats", "nonsense"])
