"""Thread-safe LRU cache of SAGE decisions, keyed by workload fingerprint.

The serve front end consults this before searching any workload:
SAGE is a pure function of the fingerprint, so a hit skips the entire
MCF/ACF search.  Two hit tiers exist:

* **exact** — the fingerprint's full statistics match a cached entry;
* **near** (optional) — no exact entry, but a workload in the same
  per-operand density band has been decided; its decision is served
  instead.  Within a band, operand footprints agree to within 2x, so the
  chosen formats are almost always identical — the classic
  accuracy-for-latency trade a production service wants switchable.

Eviction is LRU over *exact* entries; the band index tracks the
most-recently-decided representative per band.  Each exact entry also
holds one **reply memo**: the encoded body of its final ``{"ok": true,
"decision": ..., "outcome": "hit"}`` reply for one ``(workload name,
top)``.  The server fills it on the entry's first exact hit and answers
repeats from it on the event loop.  ``put`` and eviction drop it;
near-hit replies are never memoized.  Hits, near-hits, misses
and evictions are counted only on ``repro_serve_cache_events_total``
of the cache's :class:`~repro.obs.metrics.MetricRegistry` (the server's
own registry, or a private one); :meth:`DecisionCache.stats` reads them
back from there for the server's ``stats`` RPC.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricRegistry
from repro.serve.fingerprint import WorkloadFingerprint

if TYPE_CHECKING:  # pragma: no cover
    from repro.sage.predictor import SageDecision

__all__ = ["CacheStats", "DecisionCache"]


class _Entry:
    """One exact decision, its band key (so eviction can clean the band
    index in O(1)) and its reply memo ``(workload name, top, body)``."""

    __slots__ = ("decision", "band", "memo")

    def __init__(self, decision: "SageDecision", band: tuple) -> None:
        self.decision = decision
        self.band = band
        self.memo: tuple[str, int, bytes] | None = None


@dataclass(frozen=True)
class CacheStats:
    """Monotonic counters plus occupancy of one :class:`DecisionCache`."""

    hits: int
    near_hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int

    @property
    def lookups(self) -> int:
        """Total get() calls."""
        return self.hits + self.near_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Served-from-cache fraction (exact + near) of all lookups."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.near_hits) / self.lookups

    def to_dict(self) -> dict:
        """JSON-safe form for the ``stats`` RPC."""
        return {
            "hits": self.hits,
            "near_hits": self.near_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "currsize": self.currsize,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class DecisionCache:
    """LRU ``fingerprint -> SageDecision`` map with a density-band tier."""

    def __init__(
        self,
        maxsize: int = 4096,
        *,
        near_hit: bool = False,
        metrics: MetricRegistry | None = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.near_hit = near_hit
        self._events = (metrics or MetricRegistry()).counter(
            "repro_serve_cache_events_total",
            "DecisionCache lookups/evictions, by event",
        )
        self._lock = threading.Lock()
        self._exact: OrderedDict[tuple, _Entry] = OrderedDict()
        #: band key -> exact key of the band's latest decided representative
        self._bands: dict[tuple, tuple] = {}

    def get(self, fp: WorkloadFingerprint) -> "SageDecision | None":
        """The cached decision for *fp*, or ``None`` on a miss.

        Exact entries win; with ``near_hit`` enabled, a same-band
        representative is served (and counted separately) when no exact
        entry exists.
        """
        return self.lookup(fp)[0]

    def lookup(
        self, fp: WorkloadFingerprint
    ) -> "tuple[SageDecision | None, str]":
        """Like :meth:`get`, but also names the outcome tier.

        Returns ``(decision, "hit")`` / ``(decision, "near_hit")`` /
        ``(None, "miss")`` so callers can attribute latency per cache
        outcome instead of inferring the tier from counter deltas.
        """
        exact = fp.exact_key()
        with self._lock:
            entry = self._exact.get(exact)
            if entry is not None:
                self._exact.move_to_end(exact)
                self._events.inc(event="hit")
                return entry.decision, "hit"
            if self.near_hit:
                rep = self._bands.get(fp.band_key())
                if rep is not None and rep in self._exact:
                    self._exact.move_to_end(rep)
                    self._events.inc(event="near_hit")
                    return self._exact[rep].decision, "near_hit"
            self._events.inc(event="miss")
            return None, "miss"

    def memo(self, fp: WorkloadFingerprint, name: str, top: int):
        """*fp*'s memoized reply body for *name* and *top*, or ``None``.

        A match counts one exact ``hit``; ``None`` counts nothing, so the
        caller's full :meth:`lookup` counts that request once.
        """
        exact = fp.exact_key()
        with self._lock:
            entry = self._exact.get(exact)
            if entry is None or (entry.memo or ())[:2] != (name, top):
                return None
            self._exact.move_to_end(exact)
            self._events.inc(event="hit")
            return entry.memo[2]

    def memoize(self, fp, decision, name: str, top: int, body: bytes):
        """Hold *body* as the memo of *fp*'s exact entry, if that entry
        still holds *decision* (a concurrent :meth:`put` empties it)."""
        with self._lock:
            entry = self._exact.get(fp.exact_key())
            if entry is not None and entry.decision is decision:
                entry.memo = (name, top, body)

    def has_band(self, band_key: tuple) -> bool:
        """Whether *any* live entry covers this band key (no counters).

        The speculative warmer probes this before spending a search on a
        band the cache already answers.
        """
        with self._lock:
            rep = self._bands.get(band_key)
            return rep is not None and rep in self._exact

    def put(self, fp: WorkloadFingerprint, decision: "SageDecision") -> None:
        """Insert (or refresh) the decision for *fp*; its memo starts empty."""
        exact = fp.exact_key()
        band = fp.band_key()
        with self._lock:
            self._exact[exact] = _Entry(decision, band)
            self._exact.move_to_end(exact)
            self._bands[band] = exact
            while len(self._exact) > self.maxsize:
                evicted_key, evicted = self._exact.popitem(last=False)
                self._events.inc(event="eviction")
                # Drop the band pointer if the eviction left it dangling.
                if self._bands.get(evicted.band) == evicted_key:
                    del self._bands[evicted.band]

    def __len__(self) -> int:
        with self._lock:
            return len(self._exact)

    def stats(self) -> CacheStats:
        """Read the event counters back from the registry, plus occupancy."""
        count = self._events.value
        return CacheStats(
            hits=int(count(event="hit")),
            near_hits=int(count(event="near_hit")),
            misses=int(count(event="miss")),
            evictions=int(count(event="eviction")),
            currsize=len(self),
            maxsize=self.maxsize,
        )
