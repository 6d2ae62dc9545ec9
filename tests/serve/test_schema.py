"""Wire-schema versioning: legacy compatibility, rejection, options."""

from __future__ import annotations

import json
import socket

import pytest

from repro.api import Session
from repro.api.options import PredictOptions, WIRE_SCHEMA_VERSION
from repro.errors import ServeError
from repro.formats.registry import Format
from repro.sage import Sage
from repro.serve import SageServer, ServeClient, ServeConfig
from repro.workloads.spec import Kernel, MatrixWorkload


def _wl(m: int = 200, nnz_a: int = 1_600) -> MatrixWorkload:
    return MatrixWorkload("schema", Kernel.SPMM, m=m, k=200, n=100,
                          nnz_a=nnz_a, nnz_b=200 * 100)


@pytest.fixture(scope="module")
def server():
    with SageServer(
        serve=ServeConfig(port=0, shards=0)
    ) as srv:
        yield srv


def _raw_rpc(server, payload: dict) -> dict:
    """One request outside ServeClient, to control the exact wire bytes."""
    with socket.create_connection(server.address, timeout=60) as sock:
        f = sock.makefile("rwb")
        f.write((json.dumps(payload) + "\n").encode())
        f.flush()
        return json.loads(f.readline())


class TestLegacyCompatibility:
    def test_pr2_style_request_still_answered(self, server):
        """A request with no schema_version is the version-1 legacy shape."""
        reply = _raw_rpc(
            server, {"op": "predict", "workload": _wl().to_dict()}
        )
        assert reply["ok"] is True
        assert reply["decision"]["best"]["mcf"]

    def test_explicit_version_1_accepted(self, server):
        reply = _raw_rpc(
            server,
            {"op": "predict", "schema_version": 1,
             "workload": _wl(m=208).to_dict()},
        )
        assert reply["ok"] is True

    def test_legacy_predict_many_still_answered(self, server):
        reply = _raw_rpc(
            server,
            {"op": "predict_many",
             "workloads": [_wl(m=216).to_dict(), _wl(m=224).to_dict()]},
        )
        assert reply["ok"] is True
        assert len(reply["decisions"]) == 2


class TestVersionRejection:
    def test_unknown_version_rejected_with_help(self, server):
        reply = _raw_rpc(
            server,
            {"op": "predict", "schema_version": 99,
             "workload": _wl().to_dict()},
        )
        assert reply["ok"] is False
        assert "unsupported schema_version 99" in reply["error"]
        assert "1, 2" in reply["error"]  # names what the server speaks

    def test_options_on_legacy_version_rejected(self, server):
        reply = _raw_rpc(
            server,
            {"op": "predict", "schema_version": 1,
             "workload": _wl().to_dict(),
             "options": PredictOptions().to_wire()},
        )
        assert reply["ok"] is False
        assert str(WIRE_SCHEMA_VERSION) in reply["error"]

    def test_malformed_options_reported_in_band(self, server):
        reply = _raw_rpc(
            server,
            {"op": "predict", "schema_version": 2,
             "workload": _wl().to_dict(),
             "options": {"fidelity": "oracular"}},
        )
        assert reply["ok"] is False
        assert "unknown fidelity" in reply["error"]

    def test_unknown_option_field_reported_in_band(self, server):
        reply = _raw_rpc(
            server,
            {"op": "predict", "schema_version": 2,
             "workload": _wl().to_dict(),
             "options": {"mcf": ["CSR", "Dense"]}},
        )
        assert reply["ok"] is False
        assert "unknown PredictOptions" in reply["error"]


class TestOptionsOverTheWire:
    def test_restriction_honored_and_bypasses_cache(self, server):
        wl = _wl(m=232)
        with ServeClient(*server.address) as client:
            free = client.predict(wl, top=0)
            before = client.stats()["requests"]["bypassed"]
            pinned = client.predict(
                wl,
                top=0,
                options=PredictOptions(fixed_mcf=(Format.COO, Format.DENSE)),
            )
            after = client.stats()["requests"]["bypassed"]
        assert after == before + 1
        assert pinned.best.mcf == (Format.COO, Format.DENSE)
        assert all(c.mcf == (Format.COO, Format.DENSE) for c in pinned.ranking)
        # The unrestricted decision was not poisoned by the restricted one.
        assert free.best.edp <= pinned.best.edp

    def test_restriction_matches_local_sage(self, server):
        wl = _wl(m=240)
        opts = PredictOptions(mcf_b_space=(Format.ZVC,), top_k=4)
        with ServeClient(*server.address) as client:
            served = client.predict(wl, top=0, options=opts)
        local = Sage().predict(wl, options=opts)
        assert served.to_wire() == local.to_wire()

    def test_default_options_ride_the_cache(self, server):
        # Served-from-cache may be the exact tier or (same-band traffic
        # from sibling tests) the near tier; either proves the request
        # did not bypass the cache.
        wl = _wl(m=248)
        with ServeClient(*server.address) as client:
            client.predict(wl, options=PredictOptions())
            before = client.stats()["cache"]
            client.predict(wl, options=PredictOptions())
            after = client.stats()["cache"]
        assert (
            after["hits"] + after["near_hits"]
            > before["hits"] + before["near_hits"]
        )

    def test_off_tier_fidelity_bypasses_cache(self, server):
        # The server runs analytical; a cycle-tier request must not be
        # answered from the analytical cache.
        wl = MatrixWorkload("tier", Kernel.SPMM, m=96, k=96, n=64,
                            nnz_a=800, nnz_b=96 * 64)
        with ServeClient(*server.address) as client:
            client.predict(wl)  # warm the analytical cache
            cycle = client.predict(
                wl, options=PredictOptions(fidelity="cycle")
            )
        assert cycle.fidelity == "cycle"

    def test_deferred_fidelity_rides_a_cycle_server_cache(self):
        # Default options name no tier, so they ride the server's own —
        # a cycle server keeps answering cycle decisions from its cache
        # instead of being silently downgraded to analytical.
        wl = MatrixWorkload("tier2", Kernel.SPMM, m=96, k=96, n=64,
                            nnz_a=900, nnz_b=96 * 64)
        config = ServeConfig(port=0, shards=0, fidelity="cycle")
        with SageServer(serve=config) as srv:
            with ServeClient(*srv.address) as client:
                first = client.predict(wl, options=PredictOptions())
                again = client.predict(wl, options=PredictOptions())
                stats = client.stats()
        assert first.fidelity == again.fidelity == "cycle"
        assert stats["requests"]["bypassed"] == 0
        # The repeat is an exact hit on the tier-consistent decision
        # cache (a hit the event loop answers counts there too).
        assert stats["cache"]["hits"] >= 1

    def test_top_k_honored_on_cacheable_path(self, server):
        # top_k must bound the shipped ranking whether or not the request
        # takes the cache path (no explicit `top` key sent).
        wl = _wl(m=280)
        with ServeClient(*server.address) as client:
            first = client.predict(wl, options=PredictOptions(top_k=3))
            cached = client.predict(wl, options=PredictOptions(top_k=3))
            full = client.predict(wl, options=PredictOptions())
        assert len(first.ranking) == 3
        assert len(cached.ranking) == 3
        assert len(full.ranking) > 3  # top_k=None ships the full ranking

    def test_options_apply_to_predict_many(self, server):
        suite = [_wl(m=256), _wl(m=264)]
        opts = PredictOptions(fixed_mcf=(Format.CSR, Format.CSC))
        with ServeClient(*server.address) as client:
            before = client.stats()["requests"]["bypassed"]
            decisions = client.predict_many(suite, options=opts)
            after = client.stats()["requests"]["bypassed"]
        assert all(d.best.mcf == (Format.CSR, Format.CSC) for d in decisions)
        assert after == before + len(suite)  # one bypass each, not cached

    def test_restricted_predict_many_matches_local(self, server):
        suite = [_wl(m=272), _wl(m=296)]
        opts = PredictOptions(mcf_a_space=(Format.COO, Format.CSR), top_k=2)
        with ServeClient(*server.address) as client:
            served = client.predict_many(suite, top=0, options=opts)
        with Session() as session:
            local = session.predict(suite, opts)
        assert [d.to_wire() for d in served] == [d.to_wire() for d in local]

    def test_stats_advertise_schema_versions(self, server):
        with ServeClient(*server.address) as client:
            assert client.stats()["schema_versions"] == [1, 2]

    def test_in_band_schema_error_raises_serve_error(self, server):
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeError, match="unsupported schema_version"):
                client._rpc(
                    {"op": "predict", "schema_version": 7,
                     "workload": _wl().to_dict()}
                )
            assert client.ping()  # connection survives
