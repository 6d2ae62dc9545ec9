"""Pluggable prediction backends behind the :class:`Session` facade.

The same calling code runs in-process or against a running
:class:`~repro.serve.server.SageServer`, the way DaCe's SDFG program object
fronts many execution targets:

* :class:`LocalBackend` wraps an in-process
  :class:`~repro.sage.predictor.Sage` and a fingerprint-keyed
  :class:`~repro.serve.cache.DecisionCache` per fidelity tier.  Batches
  fan out across :func:`~repro.util.pool.fork_map`.
* :class:`RemoteBackend` wraps a
  :class:`~repro.serve.client.ServeClient`; options travel in the
  versioned wire schema (:data:`~repro.api.options.WIRE_SCHEMA_VERSION`)
  and batches coalesce into one ``predict_many`` round trip, riding the
  server's caches and in-flight coalescing.

Both return the same :class:`~repro.sage.predictor.SageDecision` objects,
wire-identical for identical workloads and options.
"""

from __future__ import annotations

import dataclasses
from typing import Protocol, Sequence, runtime_checkable

from repro.api.options import FIDELITIES, PredictOptions
from repro.sage.predictor import Sage, SageDecision, truncate_ranking
from repro.serve.cache import DecisionCache
from repro.serve.client import ServeClient
from repro.serve.fingerprint import fingerprint_of
from repro.workloads.spec import MatrixWorkload, TensorWorkload

__all__ = ["Backend", "LocalBackend", "RemoteBackend"]

Workload = MatrixWorkload | TensorWorkload


@runtime_checkable
class Backend(Protocol):
    """What a Session needs from an execution target."""

    def predict_one(
        self, workload: Workload, options: PredictOptions
    ) -> SageDecision:
        """One decision for one workload."""
        ...

    def predict_batch(
        self, workloads: Sequence[Workload], options: PredictOptions
    ) -> list[SageDecision]:
        """Decisions for a suite, in input order."""
        ...

    def describe(self) -> str:
        """Short human-readable identity (shown in Session repr)."""
        ...

    def close(self) -> None:
        """Release held resources (connections, pools)."""
        ...


def _relabel(decision: SageDecision, name: str) -> SageDecision:
    """Cache keys exclude the workload name; label hits for the caller."""
    if decision.workload_name == name:
        return decision
    return dataclasses.replace(decision, workload_name=name)


class LocalBackend:
    """In-process predictions with a warm decision cache.

    ``near_hit`` defaults off (unlike the serve layer) so local sessions
    stay exact by default; turn it on to trade exactness for throughput
    the same way a near-hit server does.
    """

    def __init__(
        self,
        sage: Sage | None = None,
        *,
        cache_size: int = 1024,
        near_hit: bool = False,
    ) -> None:
        self.sage = sage or Sage()
        # One cache per registered tier: a calibrated decision must never
        # alias (nor be served from) an analytical entry for the same
        # workload fingerprint.
        self._caches = {
            fidelity: DecisionCache(cache_size, near_hit=near_hit)
            for fidelity in FIDELITIES
        }

    # ------------------------------------------------------------- Backend
    def predict_one(
        self, workload: Workload, options: PredictOptions
    ) -> SageDecision:
        if options.restricts_search or options.overrides_hardware:
            # Restricted searches are workload-specific beyond what the
            # fingerprint captures, and hardware overrides answer for a
            # different accelerator than the fingerprint names: compute,
            # never cache (mirrors the server's bypass path so local and
            # remote stay wire-identical).
            return self.sage.predict(workload, options=options)
        cache = self._caches[options.local_fidelity]
        fp = fingerprint_of(workload, self.sage.config)
        decision = cache.get(fp)
        if decision is None:
            full = dataclasses.replace(options, top_k=None)
            decision = self.sage.predict(workload, options=full)
            cache.put(fp, decision)
        return truncate_ranking(
            _relabel(decision, workload.name), options.top_k
        )

    def predict_batch(
        self, workloads: Sequence[Workload], options: PredictOptions
    ) -> list[SageDecision]:
        if options.restricts_search or options.overrides_hardware:
            return self.sage.predict_many(list(workloads), options=options)
        cache = self._caches[options.local_fidelity]
        decisions: list[SageDecision | None] = []
        misses: list[int] = []
        for index, workload in enumerate(workloads):
            cached = cache.get(fingerprint_of(workload, self.sage.config))
            decisions.append(cached)
            if cached is None:
                misses.append(index)
        if misses:
            full = dataclasses.replace(options, top_k=None)
            computed = self.sage.predict_many(
                [workloads[i] for i in misses], options=full
            )
            for index, decision in zip(misses, computed):
                cache.put(
                    fingerprint_of(workloads[index], self.sage.config), decision
                )
                decisions[index] = decision
        return [
            truncate_ranking(_relabel(d, wl.name), options.top_k)
            for d, wl in zip(decisions, workloads)  # type: ignore[arg-type]
        ]

    def describe(self) -> str:
        return "local"

    def close(self) -> None:
        """Nothing held; present for Backend symmetry."""

    def cache_stats(self) -> dict:
        """Per-fidelity decision-cache counters."""
        return {
            fidelity: cache.stats().to_dict()
            for fidelity, cache in self._caches.items()
        }


class RemoteBackend:
    """Predictions answered by a running :class:`SageServer`.

    Every request ships the versioned schema with explicit options and an
    explicit ranking length (``top_k`` or the full ranking), so a remote
    decision is wire-identical to what a :class:`LocalBackend` computes
    for the same workload and options.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = 150.0
    ) -> None:
        self.host, self.port = host, port
        self.client = ServeClient(host, port, timeout=timeout)

    @staticmethod
    def _top(options: PredictOptions) -> int:
        # None means "full ranking" in PredictOptions; the serve protocol
        # spells that 0 (its own None means "server default prefix").
        return 0 if options.top_k is None else options.top_k

    # ------------------------------------------------------------- Backend
    def predict_one(
        self, workload: Workload, options: PredictOptions
    ) -> SageDecision:
        return self.client.predict(
            workload, top=self._top(options), options=options
        )

    def predict_batch(
        self, workloads: Sequence[Workload], options: PredictOptions
    ) -> list[SageDecision]:
        return self.client.predict_many(
            list(workloads), top=self._top(options), options=options
        )

    def describe(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    def close(self) -> None:
        self.client.close()

    def stats(self) -> dict:
        """The remote server's stats RPC."""
        return self.client.stats()
