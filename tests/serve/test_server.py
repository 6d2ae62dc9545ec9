"""End-to-end serve tests: client <-> server on an ephemeral port."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import socket
import struct
import threading
import time

import pytest

from repro.api import Session
from repro.errors import PredictionError, ServeError
from repro.sage import Sage
from repro.serve import SageServer, ServeClient, ServeConfig, wire
from repro.serve.fingerprint import fingerprint_of
from repro.workloads import MATRIX_SUITE, TENSOR_SUITE
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload


def _wl(m: int = 256, nnz_a: int = 2_000) -> MatrixWorkload:
    return MatrixWorkload("e2e", Kernel.SPMM, m=m, k=256, n=128,
                          nnz_a=nnz_a, nnz_b=256 * 128)


@pytest.fixture(scope="module")
def server():
    with SageServer(serve=ServeConfig(port=0)) as srv:
        yield srv


#: Table III as served: every matrix entry under SpGEMM and SpMM, every
#: tensor entry under SpTTM and MTTKRP (the serve_zipf population).
_TABLE3 = [
    e.matrix_workload(kernel)
    for e in MATRIX_SUITE for kernel in (Kernel.SPGEMM, Kernel.SPMM)
] + [
    e.tensor_workload(kernel)
    for e in TENSOR_SUITE for kernel in (Kernel.SPTTM, Kernel.MTTKRP)
]


@pytest.fixture(scope="module")
def exact_server():
    # No near hits: every answer is this workload's own decision, so it
    # must equal the local Session's whatever the other tests asked.
    with SageServer(serve=ServeConfig(port=0, near_hit=False)) as srv:
        yield srv


class _GatedSage(Sage):
    """A predictor whose searches wait for :attr:`gate` and are counted."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.calls = 0
        self._calls_lock = threading.Lock()

    def predict(self, *args, **kwargs):
        with self._calls_lock:
            self.calls += 1
        self.gate.wait(timeout=30)
        return super().predict(*args, **kwargs)


class _WhereSage(Sage):
    """A predictor that records the process and thread of each search."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[tuple[int, str]] = []

    def predict(self, *args, **kwargs):
        self.seen.append((os.getpid(), threading.current_thread().name))
        return super().predict(*args, **kwargs)


class _FailOnceSage(Sage):
    """A predictor whose first search raises; later ones succeed."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def predict(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("search exploded")
        return super().predict(*args, **kwargs)


def _wait_until(condition, timeout_s: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.fixture()
def client(server):
    with ServeClient(*server.address) as c:
        yield c


class TestRoundTrip:
    def test_ping(self, client):
        assert client.ping()

    def test_predict_matches_local_sage(self, client):
        wl = _wl()
        served = client.predict(wl)
        local = Sage().predict(wl)
        assert served.workload_name == local.workload_name
        assert served.best.mcf == local.best.mcf
        assert served.best.acf == local.best.acf
        assert served.best.edp == pytest.approx(local.best.edp)

    def test_predict_tensor_over_the_wire(self, client):
        wl = TensorWorkload("t-e2e", Kernel.SPTTM, (32, 32, 32), 800, rank=8)
        served = client.predict(wl)
        local = Sage().predict(wl)
        assert served.best.mcf == local.best.mcf

    def test_cache_hit_is_relabeled_for_the_requester(self, client):
        alice = MatrixWorkload("alice", Kernel.SPMM, m=224, k=224, n=96,
                               nnz_a=1_700, nnz_b=224 * 96)
        bob = MatrixWorkload("bob", Kernel.SPMM, m=224, k=224, n=96,
                             nnz_a=1_700, nnz_b=224 * 96)
        assert client.predict(alice).workload_name == "alice"
        served = client.predict(bob)  # identical stats: a cache hit
        assert served.workload_name == "bob"

    def test_repeat_is_served_from_cache(self, client):
        # The repeat may land in the exact tier or (same-band traffic
        # from sibling tests on this shared server) the near tier;
        # either way it must be answered from cache, not recomputed.
        wl = _wl(m=260)
        first = client.predict(wl)
        before = client.stats()["cache"]
        again = client.predict(wl)
        after = client.stats()["cache"]
        assert again.best == first.best
        assert (
            after["hits"] + after["near_hits"]
            > before["hits"] + before["near_hits"]
        )

    def test_predict_many_preserves_order(self, client):
        suite = [_wl(m=200 + 10 * i) for i in range(4)]
        decisions = client.predict_many(suite)
        assert [d.workload_name for d in decisions] == ["e2e"] * 4
        singles = [client.predict(wl) for wl in suite]
        assert [d.best.mcf for d in decisions] == [d.best.mcf for d in singles]

    def test_top_controls_shipped_ranking(self, client):
        wl = _wl(m=272)
        assert len(client.predict(wl, top=2).ranking) == 2
        full = client.predict(wl, top=0)
        assert len(full.ranking) > 8  # server default prefix exceeded

    def test_stats_shape(self, client):
        client.predict(_wl())
        stats = client.stats()
        assert stats["requests"]["served"] >= 1
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert stats["latency_ms"]["p50"] is not None
        assert set(stats["batches"]) == {"coalesced"}
        assert not {"shards", "degraded"} & set(stats)

    def test_malformed_workload_reports_in_band(self, client):
        with pytest.raises(ServeError, match="kind"):
            client.predict({"kind": "graph"})
        # The connection survives an in-band error.
        assert client.ping()

    def test_invalid_json_line_reports_in_band(self, server):
        with socket.create_connection(server.address, timeout=30) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            reply = json.loads(f.readline())
            assert reply["ok"] is False

    def test_unknown_op_rejected(self, client):
        with pytest.raises(ServeError, match="unknown op"):
            client._rpc({"op": "transmogrify"})


class TestWireParity:
    def test_binary_and_legacy_clients_agree_with_local_session(self, server):
        # A band no other test in this module touches, so neither answer
        # can be a near-hit from a neighbour's decision.
        wl = MatrixWorkload("parity", Kernel.SPMM, m=144, k=96, n=64,
                            nnz_a=937, nnz_b=96 * 64)
        with Session() as session:
            local = session.predict(wl).to_wire()
        # top=0 requests the full ranking, matching the local wire form.
        with ServeClient(*server.address) as binary:
            served_binary = binary.predict(wl, top=0).to_wire()
        with ServeClient(*server.address, wire_mode="json") as legacy:
            served_legacy = legacy.predict(wl, top=0).to_wire()
        assert served_binary == local
        assert served_legacy == local

    @pytest.mark.parametrize("other_bytes", [False, True],
                             ids=["same-bytes", "other-bytes"])
    @pytest.mark.parametrize("wire_mode", ["binary", "json"])
    def test_repeat_of_an_exact_hit_rides_the_fast_path(
        self, exact_server, wire_mode, other_bytes
    ):
        # Statistics of its own per case: the first answer is an exact
        # miss, and the first exact hit fills the entry's reply memo.
        case = 2 * ("binary", "json").index(wire_mode) + other_bytes
        wl = MatrixWorkload("fast", Kernel.SPGEMM, m=512, k=512, n=256,
                            nnz_a=30_000 + case, nnz_b=20_000)

        def request(i: int) -> dict:
            if not other_bytes:
                return {"op": "predict", "workload": wl.to_dict()}
            # Other key order and an added trace ID: other body bytes.
            workload = dict(reversed(wl.to_dict().items()))
            return {"trace": f"{i:016x}", "workload": workload,
                    "op": "predict"}

        with ServeClient(*exact_server.address, wire_mode=wire_mode) as c:
            first = c._rpc(request(0))
            fill = c._rpc(request(1))
            for i in range(2, 5):
                before = c.stats()["requests"]["fast_path"]
                again = c._rpc(request(i))
                assert c.stats()["requests"]["fast_path"] - before == 1
                # The decision field is the decision's to_wire() form.
                assert again["decision"] == first["decision"]
                assert again["outcome"] == "hit"
        assert (first["outcome"], fill["outcome"]) == ("miss", "hit")
        assert fill["decision"] == first["decision"]

    def test_a_near_hit_is_never_memoized(self):
        neighbour, wl = _wl(m=208, nnz_a=2_100), _wl(m=208, nnz_a=2_500)
        request = {"op": "predict", "workload": wl.to_dict()}
        with SageServer(serve=ServeConfig(port=0)) as srv:
            with ServeClient(*srv.address) as c:
                for _ in range(3):  # miss, then hits: the memo fills
                    c.predict(neighbour)
                near = [c._rpc(dict(request)) for _ in range(2)]
                fast_path = c.stats()["requests"]["fast_path"]
                # The exact computation lands, as a miss's search would.
                srv._cache.put(fingerprint_of(wl), Sage().predict(wl))
                exact = [c._rpc(dict(request)) for _ in range(3)]
                after = c.stats()["requests"]["fast_path"]
        with Session() as session:
            local = session.predict(wl, top_k=8).to_wire()
        assert [r["outcome"] for r in near] == ["near_hit"] * 2
        assert [r["outcome"] for r in exact] == ["hit"] * 3
        assert near[0]["decision"] != local
        assert all(r["decision"] == local for r in exact)
        # The first exact hit fills the memo; the two after it ride the loop.
        assert after - fast_path == 2

    def test_memo_answers_its_own_name_and_top_only(self, exact_server):
        alice = MatrixWorkload("alice", Kernel.SPMM, m=232, k=232, n=96,
                               nnz_a=1_713, nnz_b=232 * 96)
        bob = dataclasses.replace(alice, name="bob")
        with ServeClient(*exact_server.address) as c:
            names = [c.predict(wl).workload_name
                     for wl in (alice, alice, alice, bob, bob, alice)]
            rows = [len(c.predict(bob, top=top).ranking)
                    for top in (8, 8, 3, 3)]
        assert names == ["alice"] * 3 + ["bob"] * 2 + ["alice"]
        assert rows == [8, 8, 3, 3]

    @pytest.mark.parametrize(
        "index", range(len(_TABLE3)),
        ids=[f"{wl.name}-{wl.kernel.value}" for wl in _TABLE3],
    )
    def test_table3_cold_and_warm_on_both_wires_agree_with_session(
        self, exact_server, index
    ):
        # Alternate which wire sees each workload cold, so both wires
        # carry misses (searched in the server process) and memo hits.
        wl = _TABLE3[index]
        wires = ("binary", "json") if index % 2 == 0 else ("json", "binary")
        with Session() as session:
            local = session.predict(wl).to_wire()
        served = []
        for wire_mode in wires:
            with ServeClient(*exact_server.address, wire_mode=wire_mode) as c:
                served += [c.predict(wl, top=0).to_wire() for _ in range(2)]
        assert served == [local] * 4

    @pytest.mark.parametrize("flags", [0x01, 0x02, 0x80])
    def test_flagged_frame_is_rejected_then_closed(self, server, flags):
        # A packed (0x01) or routed (0x02) frame from an older client
        # must not be read as JSON: one in-band error frame, then EOF.
        body = b'{"op":"ping"}'
        header = struct.pack(
            "!HBBI", wire.MAGIC, wire.WIRE_VERSION, flags, len(body)
        )
        with socket.create_connection(server.address, timeout=30) as sock:
            f = sock.makefile("rwb")
            f.write(header + body)
            f.flush()
            reply = wire.read_frame(f)
            assert reply["ok"] is False
            assert reply["error"].startswith("WireError: ")
            assert f"flags 0x{flags:02x}" in reply["error"]
            assert f.read(1) == b""


class TestConcurrency:
    def test_concurrent_clients_coalesce_identical_requests(self):
        # The search is held open until all six requests are in flight,
        # so none of them can be a cache hit: five must attach to the
        # first one's computation.
        sage = _GatedSage()
        wl = _wl(m=384, nnz_a=3_000)
        results: list = []
        errors: list = []
        barrier = threading.Barrier(6)
        with SageServer(
            sage=sage, serve=ServeConfig(port=0)
        ) as srv:

            def ask() -> None:
                try:
                    with ServeClient(*srv.address) as c:
                        barrier.wait()
                        results.append(c.predict(wl))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=ask) for _ in range(6)]
            for t in threads:
                t.start()
            attached = _wait_until(
                lambda: srv.stats()["batches"]["coalesced"] == 5
            )
            sage.gate.set()
            for t in threads:
                t.join(timeout=60)
            stats = srv.stats()
        assert attached
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert sage.calls == 1
        assert len(results) == 6
        assert len({json.dumps(d.to_wire(), sort_keys=True)
                    for d in results}) == 1
        assert stats["batches"]["coalesced"] == 5
        assert stats["cache"]["misses"] == 6

    def test_distinct_misses_search_side_by_side(self):
        # Two different workloads miss together: each search runs on its
        # own worker thread, so both enter the predictor before either
        # is let through the gate.
        sage = _GatedSage()
        suite = [_wl(m=416), _wl(m=448)]
        results: list = []
        with SageServer(sage=sage, serve=ServeConfig(port=0)) as srv:

            def ask(wl) -> None:
                with ServeClient(*srv.address) as c:
                    results.append(c.predict(wl))

            threads = [threading.Thread(target=ask, args=(wl,))
                       for wl in suite]
            for t in threads:
                t.start()
            both_searching = _wait_until(lambda: sage.calls == 2)
            sage.gate.set()
            for t in threads:
                t.join(timeout=60)
        assert both_searching
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 2

    def test_many_distinct_requests_across_clients(self, server):
        errors: list = []

        def sweep(offset: int) -> None:
            try:
                with ServeClient(*server.address) as c:
                    suite = [_wl(m=300 + offset + 4 * i) for i in range(3)]
                    decisions = c.predict_many(suite)
                    assert len(decisions) == 3
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestModes:
    def test_in_process_mode_no_shards(self):
        # Every miss is searched in the server process: no child process
        # is started and stats() carries no shard section.
        with SageServer(serve=ServeConfig(port=0)) as srv:
            with ServeClient(*srv.address) as c:
                decision = c.predict(_wl(m=432))
                assert decision.best is not None
                stats = c.stats()
            assert multiprocessing.active_children() == []
        assert stats["cache"]["misses"] >= 1
        assert not {"shards", "degraded"} & set(stats)

    def test_a_miss_is_searched_on_a_serve_worker_thread(self):
        sage = _WhereSage()
        with SageServer(sage=sage, serve=ServeConfig(port=0)) as srv:
            with ServeClient(*srv.address) as c:
                c.predict(_wl(m=464))
                c.predict(_wl(m=464))  # a hit: no second search
        assert len(sage.seen) == 1
        pid, thread = sage.seen[0]
        assert pid == os.getpid()
        assert thread.startswith("serve-worker")

    def test_a_failed_miss_reports_in_band_and_is_not_cached(self):
        sage = _FailOnceSage()
        wl = _wl(m=480)
        with SageServer(sage=sage, serve=ServeConfig(port=0)) as srv:
            with ServeClient(*srv.address) as c:
                with pytest.raises(ServeError, match="search exploded"):
                    c.predict(wl)
                assert fingerprint_of(wl).exact_key() not in srv._inflight
                decision = c.predict(wl)  # searched again, not a cached error
                assert decision.best is not None
                errors = c.stats()["requests"]["errors"]
        assert sage.calls == 2
        assert errors == 1

    def test_serve_config_has_no_shards_field(self):
        names = [f.name for f in dataclasses.fields(ServeConfig)]
        assert names == [
            "host", "port", "cache_size", "near_hit", "ranking_top",
            "fidelity", "request_timeout_s", "warm_bands",
        ]
        with pytest.raises(TypeError):
            ServeConfig(port=0, shards=1)

    def test_near_hit_mode_serves_banded_neighbour(self):
        config = ServeConfig(port=0, near_hit=True)
        with SageServer(serve=config) as srv:
            with ServeClient(*srv.address) as c:
                c.predict(_wl(nnz_a=2_100))
                c.predict(_wl(nnz_a=2_500))  # same density band
                assert c.stats()["cache"]["near_hits"] >= 1

    def test_exact_mode_recomputes_banded_neighbour(self):
        config = ServeConfig(port=0, near_hit=False)
        with SageServer(serve=config) as srv:
            with ServeClient(*srv.address) as c:
                c.predict(_wl(nnz_a=2_100))
                c.predict(_wl(nnz_a=2_500))
                stats = c.stats()["cache"]
                assert stats["near_hits"] == 0
                assert stats["misses"] >= 2

    def test_cycle_fidelity_server(self):
        # A cycle-tier server answers with simulator-validated decisions;
        # the small workload stays under the simulation proxy cap.
        config = ServeConfig(port=0, fidelity="cycle")
        wl = MatrixWorkload("cyc", Kernel.SPMM, m=96, k=96, n=64,
                            nnz_a=900, nnz_b=96 * 64)
        with SageServer(serve=config) as srv:
            with ServeClient(*srv.address) as c:
                decision = c.predict(wl)
                assert decision.fidelity == "cycle"
                assert c.stats()["fidelity"] == "cycle"

    def test_calibrated_fidelity_server(self, tmp_path):
        # A calibrated-tier server answers corrected decisions from its
        # preloaded factor table.
        from repro.sage.calibrate import GRIDS, build_table
        from repro.xp.artifacts import ArtifactStore

        table = build_table(
            GRIDS["tiny"], store=ArtifactStore(tmp_path)
        ).table
        config = ServeConfig(port=0, fidelity="calibrated")
        wl = MatrixWorkload("calib", Kernel.SPMM, m=96, k=96, n=64,
                            nnz_a=900, nnz_b=96 * 64)
        with SageServer(sage=Sage(calibration=table), serve=config) as srv:
            with ServeClient(*srv.address) as c:
                decision = c.predict(wl)
                assert decision.fidelity == "calibrated"
                assert c.stats()["fidelity"] == "calibrated"

    def test_calibrated_server_without_table_fails_fast(self, monkeypatch):
        # No table for this config: construction must raise, not every
        # later request.
        monkeypatch.setattr(
            "repro.sage.predictor.load_default_table", lambda config: None
        )
        with pytest.raises(PredictionError, match="repro calibrate"):
            SageServer(
                serve=ServeConfig(port=0, fidelity="calibrated")
            )

    def test_unknown_fidelity_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown serve fidelity"):
            SageServer(serve=ServeConfig(port=0, fidelity="oracular"))

    def test_shutdown_rpc_stops_server(self):
        srv = SageServer(serve=ServeConfig(port=0))
        address = srv.start()
        with ServeClient(*address) as c:
            c.shutdown_server()
        srv.serve_forever()  # returns: close() ran
        with pytest.raises(ServeError):
            ServeClient(*address, timeout=2).ping()

    def test_close_is_idempotent(self):
        srv = SageServer(serve=ServeConfig(port=0))
        srv.start()
        srv.close()
        srv.close()

    def test_client_poisons_connection_on_transport_failure(self):
        import socket as socket_mod

        with SageServer(serve=ServeConfig(port=0)) as srv:
            # retries=0 opts out of the default transparent retry, which
            # restores the PR-2-era poison-on-first-failure contract.
            c = ServeClient(*srv.address, retries=0)
            assert c.ping()
            # Simulate a dropped transport mid-session.
            c._sock.shutdown(socket_mod.SHUT_RDWR)
            with pytest.raises(ServeError, match="transport failed"):
                c.ping()
            with pytest.raises(ServeError, match="poisoned"):
                c.ping()

    def test_client_retries_transparently_after_transport_failure(self):
        import socket as socket_mod

        with SageServer(serve=ServeConfig(port=0)) as srv:
            c = ServeClient(*srv.address)  # default: retries=1
            assert c.ping()
            # Kill the transport under the client; the next idempotent op
            # must reconnect-and-resend instead of surfacing the failure.
            c._sock.shutdown(socket_mod.SHUT_RDWR)
            assert c.ping()
            assert not c.broken
            decision = c.predict(_wl())
            assert decision.best is not None
            c.close()

    def test_timeout_unwedges_inflight_fingerprint(self):
        # A result that never arrives must not leave its fingerprint
        # permanently coalescing onto a dead computation.
        from repro.serve.server import _PendingRequest

        srv = SageServer(
            serve=ServeConfig(port=0, request_timeout_s=0.05)
        )
        wl = _wl()
        fp = fingerprint_of(wl)
        req = _PendingRequest(wl, fp)
        srv._inflight[fp.exact_key()] = [req]  # dispatched, never resolved
        reply = srv._reply_one(req, None)
        assert reply == {"ok": False, "error": "request timed out"}
        assert fp.exact_key() not in srv._inflight

    def test_submit_after_close_fails_fast(self):
        srv = SageServer(serve=ServeConfig(port=0))
        srv.start()
        srv.close()
        req = srv._submit(_wl().to_dict())
        assert req.done.is_set()
        assert req.error == "server shutting down"

    def test_close_fails_a_miss_in_flight(self):
        # One request owns a search held open by the gate; a second,
        # identical one waits on it.  close() must release the waiter
        # with an error long before its request timeout.
        sage = _GatedSage()
        srv = SageServer(
            sage=sage,
            serve=ServeConfig(port=0, request_timeout_s=60.0),
        )
        srv.start()
        message = {"op": "predict", "workload": _wl(m=392).to_dict()}
        replies: dict = {}

        def ask(role: str) -> None:
            replies[role] = srv.handle_message(dict(message))

        owner = threading.Thread(target=ask, args=("owner",))
        waiter = threading.Thread(target=ask, args=("waiter",))
        try:
            owner.start()
            assert _wait_until(lambda: sage.calls == 1)
            waiter.start()
            assert _wait_until(
                lambda: srv.stats()["batches"]["coalesced"] == 1
            )
            t0 = time.monotonic()
            srv.close()
            waiter.join(timeout=10)
            elapsed = time.monotonic() - t0
        finally:
            sage.gate.set()
            srv.close()
        owner.join(timeout=30)
        assert not waiter.is_alive()
        assert not owner.is_alive()
        assert elapsed < 10
        shutting_down = {"ok": False, "error": "server shutting down"}
        assert replies == {"waiter": shutting_down, "owner": shutting_down}
