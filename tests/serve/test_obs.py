"""Serve-tier observability: the stats ledger, metrics RPC, stats CLI."""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import Session
from repro.api.options import PredictOptions
from repro.errors import ServeError
from repro.formats.registry import Format
from repro.obs import set_enabled
from repro.sage import Sage
from repro.serve import SageServer, ServeClient, ServeConfig
from repro.serve.server import OUTCOMES
from repro.workloads.spec import Kernel, MatrixWorkload


def _wl(m: int) -> MatrixWorkload:
    return MatrixWorkload("obs", Kernel.SPMM, m=m, k=128, n=64,
                          nnz_a=max(1, m), nnz_b=128 * 64)


@pytest.fixture(scope="module")
def server():
    with SageServer(serve=ServeConfig(port=0)) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient(*server.address) as c:
        yield c


class TestMetricsRpc:
    def test_stats_exposes_merged_registry(self, client):
        client.predict(_wl(96))   # miss -> in-process search
        client.predict(_wl(96))   # front-cache hit
        metrics = client.stats()["metrics"]
        assert set(metrics) == {"registry"}
        snapshot = metrics["registry"]
        requests = snapshot["repro_serve_requests_total"]["values"]
        assert requests["event=submitted"] >= 2
        assert requests["event=served"] >= 2

    def test_in_process_miss_lands_in_the_registry(self, client):
        def read() -> tuple[int, float]:
            snapshot = client.stats()["metrics"]["registry"]
            spans = snapshot["repro_span_seconds"]["values"]
            searches = sum(
                state["count"] for key, state in spans.items()
                if "span=serve.inline_predict" in key
            )
            candidates = snapshot.get("repro_sage_candidates_total", {})
            return searches, sum(candidates.get("values", {}).values())

        searches, candidates = read()
        client.predict(_wl(160))  # unseen workload: searched in-process
        after_searches, after_candidates = read()
        assert after_searches == searches + 1
        assert after_candidates > candidates

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


#: ``stats()["requests"]`` key -> ``repro_serve_requests_total`` event.
_EVENTS = {
    "submitted": "submitted",
    "served": "served",
    "errors": "error",
    "bypassed": "bypassed",
    "fast_path": "fast_path",
}


def _mixed_traffic(client: ServeClient) -> None:
    """Miss, hit, loop hit, other-top hit, near hit, bypass, failed bypass."""
    client.predict(_wl(416))  # miss
    client.predict(_wl(416))  # exact hit on the pool: fills the reply memo
    client.predict(_wl(416))  # the loop answers from the memo: fast path
    client.predict(_wl(416), top=3)  # another top: a hit on the pool
    client.predict(_wl(480))  # same density band: a near hit
    client.predict(
        _wl(416), options=PredictOptions(fixed_mcf=(Format.COO, Format.DENSE))
    )
    with pytest.raises(ServeError, match="not a matrix format"):
        client.predict(
            _wl(416), options=PredictOptions(fixed_mcf=(Format.CSF, Format.CSF))
        )


class _HeldSage(Sage):
    """A predictor whose searches wait for :attr:`gate`."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def predict(self, *args, **kwargs):
        self.entered.set()
        self.gate.wait(timeout=30)
        return super().predict(*args, **kwargs)


class TestStatsLedger:
    """``stats()`` is a read of the server's own metric registry."""

    def test_stats_equal_the_registry_series(self):
        with SageServer(serve=ServeConfig(port=0)) as srv:
            with ServeClient(*srv.address) as client:
                _mixed_traffic(client)
            stats = srv.stats()
        snapshot = stats["metrics"]["registry"]
        requests = snapshot["repro_serve_requests_total"]["values"]
        for key, event in _EVENTS.items():
            assert stats["requests"][key] == requests.get(f"event={event}", 0)
        assert stats["batches"]["coalesced"] == requests.get(
            "event=coalesced", 0
        )
        assert stats["requests"] == {
            "submitted": 7, "served": 6, "errors": 1, "bypassed": 2,
            "fast_path": 1,
        }
        total = snapshot["repro_serve_stage_seconds"]["values"]["stage=total"]
        assert stats["latency_ms"]["count"] == total["count"] == 7
        by_outcome = stats["latency_by_outcome_ms"]
        assert set(by_outcome) == set(OUTCOMES)
        assert sum(pct["count"] for pct in by_outcome.values()) == 7
        assert by_outcome["hit"]["count"] == 3
        # A loop hit counts as a cache hit like a hit on the pool.
        cache_events = snapshot["repro_serve_cache_events_total"]["values"]
        for key, event, count in (("hits", "hit", 3),
                                  ("near_hits", "near_hit", 1),
                                  ("misses", "miss", 1)):
            assert stats["cache"][key] == cache_events[f"event={event}"]
            assert stats["cache"][key] == count

    def test_rejected_messages_count_one_error_each(self):
        good, bad = _wl(672).to_dict(), {"kind": "graph"}
        pinned = PredictOptions(fixed_mcf=("CSR", "Dense")).to_wire()
        messages = [
            {"op": "predict", "workload": bad},
            {"op": "frobnicate"},
            {"op": "predict", "workload": good, "schema_version": 99},
            # One error per failed workload, not one per message.
            {"op": "predict_many", "workloads": [good, bad, bad]},
            # The same count when the batch bypasses the cache.
            {"op": "predict_many", "workloads": [good, bad, bad],
             "schema_version": 2, "options": pinned},
        ]
        bodies = [json.dumps(m).encode() for m in messages] + [b"not json"]
        with SageServer(serve=ServeConfig(port=0)) as srv:
            replies = []
            for body in bodies:
                # The front end's two halves: the loop, then the pool.
                reply, decoded = srv._loop_reply(body, False, 0.0)
                if reply is None:
                    reply = srv._handle_decoded(decoded, False)[0]
                replies.append(json.loads(reply))
            stats = srv.stats()
        requests = stats["requests"]
        assert [r["ok"] for r in replies] == [False] * 6
        assert "unknown workload kind 'graph'" in replies[0]["error"]
        assert "unknown op" in replies[1]["error"]
        assert "schema_version" in replies[2]["error"]
        assert "unknown workload kind 'graph'" in replies[3]["error"]
        assert "unknown workload kind 'graph'" in replies[4]["error"]
        assert replies[5]["error"].startswith("WireError: ")
        assert requests["errors"] == 8
        assert requests["served"] == 2
        assert requests["submitted"] == requests["served"] + requests["errors"]
        # One bypassed latency sample per bypassed workload.
        assert requests["bypassed"] == 1
        bypassed = stats["latency_by_outcome_ms"]["bypassed"]
        assert bypassed["count"] == requests["bypassed"]

    def test_timed_out_miss_counts_an_error_and_its_latency(self):
        sage = _HeldSage()
        message = {"op": "predict", "workload": _wl(736).to_dict()}
        replies: dict = {}
        with SageServer(
            sage=sage,
            serve=ServeConfig(port=0, request_timeout_s=0.05),
        ) as srv:
            # The owner computes inline, held by the gate; an identical
            # request attaches to it and waits past the request timeout.
            owner = threading.Thread(
                target=lambda: replies.update(owner=srv.handle_message(message))
            )
            owner.start()
            try:
                assert sage.entered.wait(timeout=30)
                replies["waiter"] = srv.handle_message(message)
            finally:
                sage.gate.set()
                owner.join(timeout=30)
            stats = srv.stats()
        assert not owner.is_alive()
        assert replies["waiter"] == {"ok": False, "error": "request timed out"}
        assert replies["owner"]["ok"] is True
        requests = stats["requests"]
        assert requests["errors"] == 1 and requests["served"] == 1
        assert requests["submitted"] == requests["served"] + requests["errors"]
        assert stats["latency_ms"]["count"] == 2

    def test_embedded_servers_keep_separate_ledgers(self, client):
        client.predict(_wl(544))
        with SageServer(serve=ServeConfig(port=0)) as fresh:
            stats = fresh.stats()
        assert stats["requests"]["submitted"] == 0
        assert stats["cache"]["misses"] == 0
        assert stats["latency_ms"] == {
            "count": 0, "p50": None, "p90": None, "p99": None,
        }

    def test_obs_off_replies_stay_correct_and_counters_read_zero(self):
        wl = _wl(608)
        with Session() as session:
            expected = session.predict(wl).to_wire()
        set_enabled(False)
        try:
            with SageServer(serve=ServeConfig(port=0)) as srv:
                with ServeClient(*srv.address) as client:
                    _mixed_traffic(client)
                    served = client.predict(wl, top=0).to_wire()
                    repeat = client.predict(wl, top=0).to_wire()
                stats = srv.stats()
        finally:
            set_enabled(True)
        assert served == repeat == expected
        assert all(value == 0 for value in stats["requests"].values())
        assert stats["batches"]["coalesced"] == 0
        assert stats["cache"]["hits"] == stats["cache"]["misses"] == 0
        assert stats["latency_ms"] == {
            "count": 0, "p50": None, "p90": None, "p99": None,
        }


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
        # Stats percentiles are bucket estimates, printed as such.
        assert "latency: p50~" in out
        assert "reply cache" not in out  # one cache: the decision cache

        assert main(["stats", f"tcp://{host}:{port}", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "registry" in doc["metrics"]

    def test_invalid_spec_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="invalid server spec"):
            main(["stats", "nonsense"])
