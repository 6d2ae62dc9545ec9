"""``repro.serve`` — SAGE as a cached prediction server.

The serving subsystem (stdlib only) layered over the in-process predictor:

* :mod:`repro.serve.fingerprint` — canonical workload identity (kernel,
  dims, nnz, dtype, accelerator-config digest) with exact and
  density-band keys;
* :mod:`repro.serve.cache` — thread-safe LRU
  :class:`~repro.serve.cache.DecisionCache` with hit/miss/eviction
  counters, an optional near-hit tier and one reply memo per exact
  entry;
* :mod:`repro.serve.wire` — the length-prefixed binary frame around a
  JSON body, with one-byte auto-detection against the legacy JSON-lines
  protocol;
* :mod:`repro.serve.server` — the async-front-end TCP
  :class:`~repro.serve.server.SageServer`: exact hits on either wire
  answered on the event loop from the decision cache's reply memos,
  request coalescing, misses searched on the worker thread that waits
  for them, outcome-split latency, and a ``stats`` RPC that reads the
  server's own metric registry;
* :mod:`repro.serve.warmer` — speculative
  :class:`~repro.serve.warmer.BandWarmer` pre-computing adjacent
  density bands on misses;
* :mod:`repro.serve.client` — the blocking
  :class:`~repro.serve.client.ServeClient` (binary wire, transparent
  retry).

Quickstart::

    from repro.serve import SageServer, ServeClient, ServeConfig

    with SageServer(serve=ServeConfig(port=0)) as server:
        with ServeClient(*server.address) as client:
            decision = client.predict(workload)

or from a shell: ``python -m repro serve --port 7342``.
Most callers should go through the
:class:`~repro.api.session.Session` facade (``Session("tcp://host:port")``),
which fronts this client and the in-process predictor with one
backend-transparent surface.  The request schema is versioned and shared
with :mod:`repro.api.options`; legacy (version-1) workload dicts remain
accepted, and legacy JSON-lines clients interoperate unchanged.
"""

from repro.serve.cache import CacheStats, DecisionCache
from repro.serve.client import ServeClient
from repro.serve.fingerprint import (
    WorkloadFingerprint,
    config_digest,
    density_band,
    fingerprint_of,
)
from repro.serve.server import OUTCOMES, SageServer, ServeConfig
from repro.serve.warmer import BandWarmer, warm_candidates
from repro.serve.wire import WireError

__all__ = [
    "BandWarmer",
    "CacheStats",
    "DecisionCache",
    "OUTCOMES",
    "SageServer",
    "ServeClient",
    "ServeConfig",
    "WireError",
    "WorkloadFingerprint",
    "config_digest",
    "density_band",
    "fingerprint_of",
    "warm_candidates",
]
