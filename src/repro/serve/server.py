"""SAGE-as-a-service: an async, cached TCP prediction server.

Turns the in-process :class:`~repro.sage.predictor.Sage` and the
:class:`~repro.serve.cache.DecisionCache` into a long-lived service.
Stdlib only — ``asyncio`` + ``multiprocessing`` + ``threading``.

Request path
------------

1. One **asyncio event loop** (its own thread) owns every connection:
   thousands of idle clients cost file descriptors, not threads.  Each
   message's first byte picks the protocol — ``0xA5`` opens a binary
   frame (:mod:`repro.serve.wire`), anything else is a legacy JSON line
   — so old clients and ``repro stats`` keep working unchanged.
2. The loop decodes each message once.  A ``predict`` whose exact
   :class:`DecisionCache` entry holds a **reply memo** for its name and
   ``top`` is answered right there, on either wire: the memoized body
   plus a frame header or a newline — no ``to_wire``, no JSON encode.
3. Everything else goes, as its decoded dict, to a bounded worker pool
   that consults the :class:`DecisionCache`: hits (exact or
   density-band near-hits) are answered at once, and an exact hit fills
   its entry's memo, so the loop answers the next repeat.
4. Misses dispatch at once from the worker thread that waits on them.
   A miss whose fingerprint is already being computed **coalesces**:
   it attaches to the pending computation instead of dispatching
   again.  Each miss (and near-hit) also feeds the **speculative
   warmer** (:class:`~repro.serve.warmer.BandWarmer`,
   ``warm_bands > 0``), which pre-computes adjacent density bands in
   the background so the next cold request in the band becomes a hit.
5. **Shards** are persistent worker processes addressed by the
   fingerprint's stable band-key hash, so repeats of a workload always
   hit the same worker.  A shard only ever sees front-cache misses that
   survived coalescing, so it predicts directly; the front
   :class:`DecisionCache` is the one decision cache a request consults.
   With ``shards=0`` (or a dead shard) the worker thread computes the
   miss itself (no extra processes; useful on platforms without
   ``fork``).
6. Results flow back through per-shard collector threads, populate the
   front cache, and release every waiter that coalesced onto them.

Wire protocol — binary frames (:mod:`repro.serve.wire`) or legacy
JSON-lines (one JSON object per line, response per request)::

    {"op": "predict", "workload": {...}, "top": 8}
    {"op": "predict", "schema_version": 2, "workload": {...},
     "options": {...}}
    {"op": "predict_many", "workloads": [{...}, ...]}
    {"op": "stats"} | {"op": "ping"} | {"op": "shutdown"}

Responses are compact JSON on both wires, ``{"ok": true, ...}`` or
``{"ok": false, "error": msg}``; decisions travel as
:meth:`SageDecision.to_wire` dicts, and ``predict`` replies name their
cache ``outcome`` (hit / near_hit / miss / bypassed).

The request schema is **versioned** (shared with :mod:`repro.api.options`):
requests without a ``schema_version`` are the PR-2-era legacy shape
(version 1); version-2 requests may attach a
:class:`~repro.api.options.PredictOptions` wire dict under ``options``.
Unknown versions are rejected.  Requests whose options restrict the
search, override the hardware or name another fidelity tier bypass the
decision cache and coalescing (fingerprints do not capture them) and are
computed on the worker-pool thread handling them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import os
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.api.options import (
    FIDELITIES,
    PredictOptions,
    SUPPORTED_WIRE_SCHEMAS,
    WIRE_SCHEMA_VERSION,
)
from repro.obs import get_logger, registry, set_trace_id, span
from repro.obs import metrics as obs_metrics
from repro.sage.predictor import Sage, SageDecision
from repro.serve import wire
from repro.serve.cache import DecisionCache
from repro.serve.fingerprint import WorkloadFingerprint, fingerprint_of
from repro.serve.warmer import BandWarmer
from repro.workloads.spec import workload_from_dict

__all__ = ["OUTCOMES", "SageServer", "ServeConfig"]

_LOG = get_logger("serve")

#: Sentinel key prefix for in-band shard metric collection.  Prediction
#: keys are fingerprint tuples, so a *string* key can never collide.
_METRICS_KEY = "__metrics__:"

#: Cache outcomes a request can resolve with (the latency label set).
OUTCOMES = ("hit", "near_hit", "miss", "bypassed")

#: Worker-pool width: how many requests may be *processing* at once.
#: Idle connections are free (the async front end holds them on one
#: event loop); this bounds active work only.
_MAX_INFLIGHT = 16
#: Bound on the speculative warm queue (drop-new beyond it).
_WARM_QUEUE = 256

#: ``stats()["requests"]`` key -> ``repro_serve_requests_total`` event.
_REQUEST_EVENTS = {
    "submitted": "submitted",
    "served": "served",
    "errors": "error",
    "bypassed": "bypassed",
    "fast_path": "fast_path",
}


@dataclass(frozen=True)
class ServeConfig:
    """Settings of one :class:`SageServer`.

    Attributes
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`SageServer.address`).
    shards:
        Persistent worker processes; ``0`` computes misses in-process.
    cache_size, near_hit:
        Front :class:`DecisionCache` capacity and whether same-density-
        band near-hits may be served (exactness off ↔ throughput up).
    ranking_top:
        Ranking prefix length shipped per decision unless the request
        asks otherwise (``top <= 0`` requests the full ranking).
    fidelity:
        Prediction tier every miss is computed at: ``"analytical"``
        (closed-form search, the default), ``"calibrated"`` (analytical
        candidates corrected by a measured per-(kernel, ACF, density-band)
        factor table — analytical latency, near-cycle ranking; the table
        must already be built for this config, see ``repro calibrate``),
        or ``"cycle"`` (the analytical top-k re-ranked on the cycle-level
        simulator).  Fidelity is a server-level property so the decision
        cache stays tier-consistent.
    request_timeout_s:
        Server-side cap on how long one request waits for a shard's (or
        another request's) computation.  A search run on the request's
        own worker thread (no live shard, or a bypass) is not cut short.
    warm_bands:
        Speculative warming depth: on a miss or near-hit, pre-compute
        this many adjacent density bands (each direction) plus the
        predicted-next problem size in the background.  ``0`` (default)
        disables speculation — embedded/test servers stay deterministic;
        ``repro serve`` turns it on.
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    cache_size: int = 4096
    near_hit: bool = True
    ranking_top: int = 8
    fidelity: str = "analytical"
    request_timeout_s: float = 120.0
    warm_bands: int = 0


class _PendingRequest:
    """One in-flight prediction: waiters block on :attr:`done`."""

    __slots__ = (
        "parsed", "fp", "done", "decision", "error", "t_submit", "outcome",
    )

    def __init__(self, parsed, fp: WorkloadFingerprint) -> None:
        self.parsed = parsed  # the workload object, parsed once on submit
        self.fp = fp
        self.done = threading.Event()
        self.decision: SageDecision | None = None
        self.error: str | None = None
        self.t_submit = time.perf_counter()
        #: Cache outcome label: hit / near_hit / miss / bypassed.
        self.outcome: str = "miss"


class _Rejected(Exception):
    """A request the server refuses before submitting any workload."""


def _body(response: dict) -> bytes:
    """A reply's compact JSON body, the same bytes on both wires."""
    return json.dumps(response, separators=(",", ":")).encode()


def _on_wire(body: bytes, framed: bool) -> bytes:
    """Reply body bytes on the request's wire: a frame or a JSON line."""
    return wire.frame_for_body(body) if framed else body + b"\n"


def _shard_main(in_q, out_q, sage: Sage, fidelity: str) -> None:
    """Shard worker loop: predict forever until the ``None`` sentinel.

    No decision cache lives here: the parent only dispatches front-cache
    misses, one per in-flight fingerprint, so a shard-local cache would
    never answer.
    """
    # The forked child inherits the parent's metric values; zero them so
    # the in-band snapshots this shard ships cover only its own work and
    # merging them into the parent never double-counts.
    obs_metrics.reset_registry()
    while True:
        msg = in_q.get()
        if msg is None:
            out_q.put(None)
            return
        key, workload = msg
        if isinstance(key, str) and key.startswith(_METRICS_KEY):
            # In-band metrics poll: answer with this shard's registry
            # snapshot through the ordinary result queue.
            out_q.put((key, obs_metrics.registry().snapshot(), None))
            continue
        try:
            with span("serve.shard_predict", workload=workload.name):
                decision = sage.predict(workload, fidelity=fidelity)
            out_q.put((key, decision, None))
        except Exception as exc:  # noqa: BLE001 - shipped to the client
            _LOG.warning(
                "shard %d prediction failed for %r",
                os.getpid(),
                workload.name,
                exc_info=True,
            )
            out_q.put((key, None, f"{type(exc).__name__}: {exc}"))


class _Shard:
    """One worker process plus its request/response queues."""

    def __init__(self, ctx, sage: Sage, fidelity: str) -> None:
        self.in_q = ctx.Queue()
        self.out_q = ctx.Queue()
        self.proc = ctx.Process(
            target=_shard_main,
            args=(self.in_q, self.out_q, sage, fidelity),
            daemon=True,
        )
        self.proc.start()

    def queue_depth(self) -> int | None:
        try:
            return self.in_q.qsize()
        except NotImplementedError:  # pragma: no cover - macOS
            return None


class _AsyncFrontEnd:
    """One event-loop thread owning every client connection.

    Replaces the thread-per-connection ``socketserver`` front end: idle
    connections cost nothing, and the per-message first byte selects
    binary frames vs legacy JSON lines.  The owner supplies two hooks:

    * ``loop_reply(body, framed, t_recv) -> (reply | None, message)`` —
      decodes the body and answers it on the loop when it can (must not
      block);
    * ``handle_decoded(message, framed) -> (reply_bytes, close_after)``
      — everything else, dispatched to the owner's worker pool.
    """

    def __init__(self, owner, host: str, port: int) -> None:
        self._owner = owner
        self._host = host
        self._port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="serve-async", daemon=True
        )

    # ----------------------------------------------------------- lifecycle
    def start(self) -> tuple[str, int]:
        self._thread.start()
        self._ready.wait()
        if self._boot_error is not None:
            raise self._boot_error
        assert self._address is not None
        return self._address

    def stop(self) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return

        def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
            loop.stop()

        loop.call_soon_threadsafe(_shutdown)
        self._thread.join(timeout=5)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        def _quiet_cancel(loop_, context) -> None:
            # Connection tasks cancelled at shutdown are expected; the
            # default handler would log them at ERROR.
            if isinstance(context.get("exception"), asyncio.CancelledError):
                return
            loop_.default_exception_handler(context)

        loop.set_exception_handler(_quiet_cancel)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(
                    self._on_connection, self._host, self._port,
                    limit=wire.MAX_FRAME,
                )
            )
            sockname = self._server.sockets[0].getsockname()
            self._address = (str(sockname[0]), int(sockname[1]))
        except BaseException as exc:  # pragma: no cover - bind failures
            self._boot_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            try:
                if self._server is not None:
                    self._server.close()
                    loop.run_until_complete(self._server.wait_closed())
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()

    # ------------------------------------------------------------- traffic
    async def _read_message(self, reader) -> tuple[bytes, bool] | None:
        """One message: ``(body, framed)`` or ``None`` on clean EOF.

        ``framed`` is false for a legacy JSON line (newline stripped).
        Frame integrity errors raise
        :class:`~repro.serve.wire.WireError` (frame sync is lost; the
        connection must close).
        """
        first = await reader.read(1)
        if not first:
            return None
        if first == wire.MAGIC_BYTE:
            header = first + await reader.readexactly(wire.HEADER.size - 1)
            length = wire.parse_header(header)
            body = await reader.readexactly(length) if length else b""
            return body, True
        line = first + await reader.readline()
        return line.strip(), False

    async def _on_connection(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    message = await self._read_message(reader)
                except wire.WireError as exc:
                    # Frame sync is gone: report in-band, then hang up.
                    writer.write(wire.encode_frame(
                        self._owner._reject(f"WireError: {exc}")
                    ))
                    await writer.drain()
                    break
                if message is None:
                    break
                body, framed = message
                if not body:
                    continue
                t_recv = time.perf_counter()
                reply, decoded = self._owner._loop_reply(
                    body, framed, t_recv
                )
                close_after = False
                if reply is None:
                    reply, close_after = await loop.run_in_executor(
                        self._owner._executor,
                        self._owner._handle_decoded, decoded, framed,
                    )
                writer.write(reply)
                await writer.drain()
                if close_after:
                    # The shutdown reply is on the wire; the deferred
                    # close (waiting on this event) may now stop the loop.
                    self._owner._shutdown_flushed.set()
                    break
        except (
            asyncio.IncompleteReadError, ConnectionError, asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-message; nothing to answer
        except RuntimeError:  # pragma: no cover - executor shut down mid-close
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


class SageServer:
    """The serving frontend: async listener, caches, shard pool.

    Typical embedded use (tests, benchmarks, notebooks)::

        with SageServer(serve=ServeConfig(port=0, shards=2)) as server:
            host, port = server.address
            ...

    or blocking from the CLI via :meth:`serve_forever`.
    """

    def __init__(
        self,
        *,
        sage: Sage | None = None,
        serve: ServeConfig | None = None,
    ) -> None:
        self.serve = serve or ServeConfig()
        if self.serve.fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown serve fidelity {self.serve.fidelity!r} "
                f"(choose from {', '.join(FIDELITIES)})"
            )
        self._sage = sage or Sage()
        if self.serve.fidelity == "calibrated":
            # Fail fast at construction (not per-request inside a shard)
            # when no table exists for this config; loading here also
            # means forked shards inherit the parsed table for free.
            self._sage.ensure_calibration()
        #: This server's ledger: every serve event is counted here once,
        #: and the ``stats`` RPC reads it back (embedded servers sharing
        #: a process keep separate books).
        self._metrics = obs_metrics.MetricRegistry()
        self._requests = self._metrics.counter(
            "repro_serve_requests_total",
            "Serve request lifecycle events (submitted/served/error/"
            "bypassed/coalesced/fast_path)",
        )
        self._stage_seconds = self._metrics.histogram(
            "repro_serve_stage_seconds",
            "Per-request wall-seconds by serve stage (compute/total)",
        )
        self._latency = self._metrics.histogram(
            "repro_serve_latency_seconds",
            "Request wall-seconds split by cache outcome "
            "(hit/near_hit/miss/bypassed)",
        )
        self._cache = DecisionCache(
            self.serve.cache_size,
            near_hit=self.serve.near_hit,
            metrics=self._metrics,
        )
        self._lock = threading.Lock()
        self._inflight: dict[tuple, list[_PendingRequest]] = {}
        self._shards: list[_Shard] = []
        self._collectors: list[threading.Thread] = []
        self._frontend: _AsyncFrontEnd | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._warmer: BandWarmer | None = None
        self._closed = threading.Event()
        self._shutdown_flushed = threading.Event()
        self._started = False
        self._degraded: str | None = None
        self._t_start = 0.0
        #: In-band shard metric polls awaiting replies: sentinel key ->
        #: [event, snapshot-or-None] box filled by the collector thread.
        self._metric_boxes: dict[str, list] = {}

    # ------------------------------------------------------------ lifecycle
    def start(self) -> tuple[str, int]:
        """Spin up shards and listener; return ``(host, port)``."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._t_start = time.monotonic()
        if self.serve.shards > 0:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = multiprocessing.get_context()
            try:
                for _ in range(self.serve.shards):
                    self._shards.append(
                        _Shard(ctx, self._sage, self.serve.fidelity)
                    )
            except (OSError, PermissionError) as exc:  # pragma: no cover
                # Platforms that cannot spawn processes at all degrade to
                # in-process compute; anything else (e.g. a genuinely
                # broken predictor) propagates.  The degradation is loud:
                # recorded here and surfaced by the stats RPC.
                for shard in self._shards:
                    shard.proc.terminate()
                self._shards = []
                self._degraded = (
                    f"shard pool unavailable ({exc}); computing in-process"
                )
        for index, shard in enumerate(self._shards):
            collector = threading.Thread(
                target=self._collect_loop,
                args=(shard,),
                name=f"serve-collector-{index}",
                daemon=True,
            )
            collector.start()
            self._collectors.append(collector)
        if self.serve.warm_bands > 0:
            self._warmer = BandWarmer(
                lambda wl: self._sage.predict(wl, fidelity=self.serve.fidelity),
                self._cache,
                config=self._sage.config,
                bands=self.serve.warm_bands,
                maxsize=_WARM_QUEUE,
            )
        self._executor = ThreadPoolExecutor(
            max_workers=_MAX_INFLIGHT,
            thread_name_prefix="serve-worker",
        )
        self._frontend = _AsyncFrontEnd(
            self, self.serve.host, self.serve.port
        )
        self._frontend.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` (resolves ``port=0`` ephemeral binds)."""
        if self._frontend is None or self._frontend._address is None:
            raise RuntimeError("server not started")
        return self._frontend._address

    def serve_forever(self) -> None:
        """Block until :meth:`close` is called (e.g. by a shutdown RPC)."""
        self._closed.wait()

    def _close_after_flush(self) -> None:
        """Close, but let the front end flush the shutdown reply first.

        Without the wait, stopping the event loop races the reply write
        and the client can see the connection die before the ``stopping``
        frame arrives.  The timeout covers direct ``handle_message``
        callers, where no connection ever sets the event.
        """
        self._shutdown_flushed.wait(timeout=1.0)
        self.close()

    def close(self) -> None:
        """Graceful shutdown: stop intake, fail in-flight work, reap shards."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._frontend is not None:
            self._frontend.stop()
        if self._warmer is not None:
            self._warmer.close()
        with self._lock:
            pending = list(self._inflight.values())
            self._inflight.clear()
        for waiters in pending:
            for req in waiters:
                req.error = "server shutting down"
                req.done.set()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        for shard in self._shards:
            shard.in_q.put(None)
        for collector in self._collectors:
            collector.join(timeout=5)
        for shard in self._shards:
            shard.proc.join(timeout=5)
            if shard.proc.is_alive():  # pragma: no cover - hung worker
                shard.proc.terminate()
                shard.proc.join(timeout=5)

    def __enter__(self) -> "SageServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- wire layer
    def _loop_reply(
        self, body: bytes, framed: bool, t_recv: float
    ) -> tuple[bytes | None, dict | None]:
        """Loop side: decode *body* once; answer it here if it can.

        ``(reply, None)`` answers an undecodable body or a memoized exact
        hit; ``(None, message)`` hands the decoded dict to the pool.
        """
        try:
            message = wire.decode_body(body)
        except wire.WireError as exc:
            reply = _body(self._reject(f"WireError: {exc}"))
            return _on_wire(reply, framed), None
        if message.get("op") != "predict":
            return None, message
        try:
            limit, bypass = self._predict_args(message)
            parsed = workload_from_dict(message["workload"])
            fp = fingerprint_of(parsed, self._sage.config)
        except Exception:  # noqa: BLE001 - the worker pool reports it
            return None, message
        reply = (
            None if bypass is not None
            else self._cache.memo(fp, parsed.name, limit)
        )
        if reply is None:
            return None, message
        elapsed = time.perf_counter() - t_recv
        self._requests.inc(event="submitted")
        self._requests.inc(event="served")
        self._requests.inc(event="fast_path")
        self._latency.observe(elapsed, outcome="hit")
        self._stage_seconds.observe(elapsed, stage="total")
        return _on_wire(reply, framed), None

    def _handle_decoded(
        self, message: dict, framed: bool
    ) -> tuple[bytes, bool]:
        """Worker-pool side: dispatch, encode, fill an exact hit's memo.

        Returns ``(reply_bytes, close_after)``; the reply rides the same
        protocol the request arrived on.
        """
        op = message.get("op")
        memo = None
        try:
            response, memo = self._handle_traced(message, op)
        except Exception as exc:  # noqa: BLE001 - reported in-band
            _LOG.warning("handler failed on op %r", op, exc_info=True)
            response = self._reject(f"{type(exc).__name__}: {exc}")
        body = _body(response)
        if memo is not None:
            self._cache.memoize(*memo, body)
        return _on_wire(body, framed), op == "shutdown"

    def _reject(self, error: str) -> dict:
        """``ok: false`` for a message that submitted no workload.

        It counts as one submitted request and one error, so the ledger's
        ``submitted == served + errors`` holds for rejected messages too.
        """
        self._requests.inc(event="submitted")
        self._requests.inc(event="error")
        return {"ok": False, "error": error}

    # ------------------------------------------------------------- protocol
    def handle_message(self, message: dict) -> dict:
        """Dispatch one decoded request dict to its ``op`` handler."""
        return self._handle_traced(message, message.get("op"))[0]

    def _handle_traced(self, message: dict, op) -> tuple[dict, tuple | None]:
        trace = message.get("trace")
        if trace is not None:
            # Adopt the client's trace ID on this handler thread so spans
            # recorded while serving the request correlate with it.
            set_trace_id(str(trace))
        with span("serve.handle", op=str(op)):
            return self._handle_message(message, op)

    def _handle_message(self, message: dict, op) -> tuple[dict, tuple | None]:
        """The reply, plus ``(fp, decision, name, top)`` for the memo an
        exact ``predict`` hit fills (``None`` for anything else)."""
        if op == "ping":
            return {"ok": True, "pong": True}, None
        if op == "stats":
            return {"ok": True, "stats": self.stats()}, None
        if op == "shutdown":
            threading.Thread(target=self._close_after_flush,
                             daemon=True).start()
            return {"ok": True, "stopping": True}, None
        if op not in ("predict", "predict_many"):
            return self._reject(f"unknown op {op!r}"), None
        try:
            limit, bypass = self._predict_args(message)
        except _Rejected as exc:
            return self._reject(str(exc)), None
        if op == "predict":
            workload = message.get("workload")
            if not isinstance(workload, dict):
                return self._reject("predict needs a workload dict"), None
            req = self._submit(workload, bypass)
            response = self._reply_one(req, limit)
            if req.outcome != "hit":
                return response, None
            return response, (req.fp, req.decision, req.parsed.name, limit)
        workloads = message.get("workloads")
        if not isinstance(workloads, list):
            return self._reject("predict_many needs a workloads list"), None
        requests = [self._submit(wl, bypass) for wl in workloads]
        replies = [self._reply_one(req, limit) for req in requests]
        failed = next((r for r in replies if not r["ok"]), None)
        if failed is not None:
            # All-or-nothing reply.  Cacheable siblings that did succeed
            # are already cached, so a corrected resend re-pays only the
            # failed and the bypassed workloads.
            return failed, None
        return {
            "ok": True,
            "decisions": [r["decision"] for r in replies],
        }, None

    def _predict_args(
        self, message: dict
    ) -> tuple[int, PredictOptions | None]:
        """``(top, bypass)`` of a ``predict`` or ``predict_many`` message.

        The one parse of schema version, options and ``top``, shared by
        the event loop and the worker pool; raises :class:`_Rejected` for
        a version or options the server refuses.  ``top <= 0`` asks for
        the full ranking.  ``bypass`` is ``None`` when cached decisions
        may answer, else the options the request's own search runs with.
        Fingerprints ignore search restrictions and hardware overrides,
        and the cache holds the server's fidelity tier only, so those
        requests (and any naming another tier) bypass.
        """
        version = message.get("schema_version", 1)
        if version not in SUPPORTED_WIRE_SCHEMAS:
            raise _Rejected(
                f"unsupported schema_version {version!r}; this server "
                f"speaks "
                f"{', '.join(str(v) for v in SUPPORTED_WIRE_SCHEMAS)} "
                f"(requests without a schema_version are treated as "
                f"the version-1 legacy schema)"
            )
        top = message.get("top")
        options = message.get("options")
        if options is None:
            bypass = None
        else:
            if version < WIRE_SCHEMA_VERSION:
                raise _Rejected(
                    "request carries options but declares the legacy "
                    f"schema; send schema_version {WIRE_SCHEMA_VERSION}"
                )
            options = PredictOptions.from_wire(options)
            if top is None:
                # Options speak their own ranking vocabulary: top_k=None
                # means the full ranking (the serve protocol spells it 0).
                top = 0 if options.top_k is None else options.top_k
            cacheable = (
                not options.restricts_search
                and not options.overrides_hardware
                and options.fidelity in (None, self.serve.fidelity)
            )
            bypass = None if cacheable else options
        # Parsed before any workload is submitted, so a bad ``top`` is a
        # rejected message rather than a submitted request never answered.
        return (self.serve.ranking_top if top is None else int(top)), bypass

    def _reply_one(self, req: _PendingRequest, limit: int) -> dict:
        """One workload's reply; ``limit <= 0`` ships the full ranking."""
        if not req.done.wait(timeout=self.serve.request_timeout_s):
            # Un-wedge the fingerprint: without this, every future request
            # for the same workload would coalesce onto a computation that
            # will never resolve (e.g. a killed shard worker).
            key = req.fp.exact_key()
            with self._lock:
                waiters = self._inflight.get(key)
                stranded = waiters is not None and req in waiters
                if stranded:
                    waiters.remove(req)
                    if not waiters:
                        del self._inflight[key]
            self._requests.inc(event="error")
            if stranded:
                # Otherwise a resolver popped it just now and records it.
                self._record_latency(req)
            return {"ok": False, "error": "request timed out"}
        if req.error is not None:
            self._requests.inc(event="error")
            return {"ok": False, "error": req.error}
        assert req.decision is not None
        decision = req.decision
        if decision.workload_name != req.parsed.name:
            # Cache keys exclude the (decision-irrelevant) workload name,
            # so a hit may carry another caller's label; relabel the reply.
            decision = dataclasses.replace(
                decision, workload_name=req.parsed.name
            )
        wire_decision = decision.to_wire(top=None if limit <= 0 else limit)
        self._requests.inc(event="served")
        return {"ok": True, "decision": wire_decision, "outcome": req.outcome}

    # ------------------------------------------------------------ data path
    def _effective_options(self, options: PredictOptions) -> PredictOptions:
        """Resolve a deferred fidelity to this server's configured tier."""
        if options.fidelity is None:
            return dataclasses.replace(options, fidelity=self.serve.fidelity)
        return options

    def _submit(
        self, workload: dict, bypass: PredictOptions | None = None
    ) -> _PendingRequest:
        """Answer one workload dict from cache or dispatch its miss.

        *bypass* is ``None`` for a request that rides the cache, else the
        options of the search it runs on this thread (see
        :meth:`_predict_args`).  Returns the pending handle, which the
        calling worker thread then waits on in :meth:`_reply_one`.
        """
        self._requests.inc(event="submitted")
        try:
            parsed = workload_from_dict(workload)
            fp = fingerprint_of(parsed, self._sage.config)
        except Exception as exc:  # noqa: BLE001 - reported in-band
            # A malformed workload fails alone: its reply counts the error.
            req = _PendingRequest(None, None)
            req.error = f"{type(exc).__name__}: {exc}"
            req.done.set()
            return req
        req = _PendingRequest(parsed, fp)
        if self._closed.is_set():
            # Shutting down: fail fast instead of timing out.
            req.error = "server shutting down"
            req.done.set()
            return req
        if bypass is not None:
            # Restricted search (or an off-tier fidelity): compute on this
            # worker thread, skipping cache, coalescing and shards.  The
            # worker would block in _reply_one anyway, so this costs no
            # extra latency and keeps the cache tier-consistent.
            req.outcome = "bypassed"
            self._requests.inc(event="bypassed")
            try:
                with span("serve.bypass_predict", workload=parsed.name):
                    req.decision = self._sage.predict(
                        parsed, options=self._effective_options(bypass)
                    )
            except Exception as exc:  # noqa: BLE001 - reported in-band
                _LOG.warning(
                    "bypass predict failed for %r", parsed.name, exc_info=True
                )
                req.error = f"{type(exc).__name__}: {exc}"
            self._record_latency(req)
            req.done.set()
            return req
        cached, tier = self._cache.lookup(fp)
        if cached is not None:
            req.outcome = tier
            req.decision = cached
            if tier == "near_hit" and self._warmer is not None:
                # Near traffic predicts adjacent-band traffic: speculate.
                self._warmer.enqueue(fp)
            self._record_latency(req)
            req.done.set()
            return req
        req.outcome = "miss"
        if self._warmer is not None:
            self._warmer.enqueue(fp)
        key = fp.exact_key()
        with self._lock:
            # close() sets the flag before it fails the in-flight map under
            # this lock, so a miss registered here is either failed by
            # close() or sees the flag now: it never waits out the timeout.
            if self._closed.is_set():
                req.error = "server shutting down"
                req.done.set()
                return req
            waiters = self._inflight.get(key)
            if waiters is None:
                self._inflight[key] = [req]
            else:
                # Same fingerprint already being computed: attach.
                waiters.append(req)
        if waiters is not None:
            self._requests.inc(event="coalesced")
            return req
        shard = (
            self._shards[fp.shard(len(self._shards))] if self._shards else None
        )
        if shard is not None and shard.proc.is_alive():
            shard.in_q.put((key, parsed))
        else:
            # No shards configured, or this one died (OOM, kill): compute
            # on this worker thread, which would block in _reply_one
            # anyway, so the fingerprint's partition is not blackholed.
            self._compute_inline(key, parsed)
        return req

    def _compute_inline(self, key: tuple, workload) -> None:
        """Shardless fallback: run the search in this (worker) thread."""
        try:
            with span("serve.inline_predict", workload=workload.name):
                decision = self._sage.predict(
                    workload, fidelity=self.serve.fidelity
                )
        except Exception as exc:  # noqa: BLE001 - reported in-band
            _LOG.warning(
                "inline predict failed for %r", workload.name, exc_info=True
            )
            self._resolve(key, None, f"{type(exc).__name__}: {exc}")
        else:
            self._resolve(key, decision, None)

    def _collect_loop(self, shard: _Shard) -> None:
        """Drain one shard's results until its exit sentinel."""
        while True:
            msg = shard.out_q.get()
            if msg is None:
                return
            key, decision, error = msg
            if isinstance(key, str) and key.startswith(_METRICS_KEY):
                # In-band metrics reply: deliver to the waiting stats()
                # call instead of the request-resolution path.
                with self._lock:
                    box = self._metric_boxes.get(key)
                if box is not None:
                    box[1] = decision  # the shard's registry snapshot
                    box[0].set()
                continue
            self._resolve(key, decision, error)

    def _resolve(
        self, key: tuple, decision: SageDecision | None, error: str | None
    ) -> None:
        with self._lock:
            waiters = self._inflight.pop(key, [])
        if not waiters:
            return
        if decision is not None:
            self._cache.put(waiters[0].fp, decision)
        for req in waiters:
            req.decision = decision
            req.error = error
            self._record_latency(req)
            req.done.set()

    def _record_latency(self, req: _PendingRequest) -> None:
        elapsed = time.perf_counter() - req.t_submit
        self._stage_seconds.observe(elapsed, stage="total")
        self._latency.observe(elapsed, outcome=req.outcome)
        if req.outcome == "miss":
            self._stage_seconds.observe(elapsed, stage="compute")

    # --------------------------------------------------------------- stats
    def collect_metrics(self, timeout_s: float = 1.0) -> dict:
        """Merged metrics (process-global, this server's ledger, live
        shards) with poll coverage.

        Each alive shard is polled in-band (a sentinel string key through
        its ordinary request queue — fingerprint keys are tuples, so the
        sentinel cannot collide) and given a shared *timeout_s* deadline;
        shards busy past the deadline simply miss this poll.  Snapshots
        merge exactly, so worker-side counters (SAGE candidate counts,
        span histograms) land in one registry view under ``"registry"``;
        ``"shards_polled"`` / ``"shards_reporting"`` say how complete
        this poll was.
        """
        merged = obs_metrics.MetricRegistry()
        merged.merge_snapshot(registry().snapshot())
        merged.merge_snapshot(self._metrics.snapshot())
        boxes: list[list] = []
        for shard in self._shards:
            if not shard.proc.is_alive():
                continue
            token = f"{_METRICS_KEY}{uuid.uuid4().hex}"
            box = [threading.Event(), None, token]
            with self._lock:
                self._metric_boxes[token] = box
            shard.in_q.put((token, None))
            boxes.append(box)
        deadline = time.monotonic() + timeout_s
        reporting = 0
        for box in boxes:
            remaining = max(0.0, deadline - time.monotonic())
            if box[0].wait(timeout=remaining) and box[1] is not None:
                merged.merge_snapshot(box[1])
                reporting += 1
            with self._lock:
                self._metric_boxes.pop(box[2], None)
        return {
            "registry": merged.snapshot(),
            "shards_polled": len(boxes),
            "shards_reporting": reporting,
        }

    def stats(self) -> dict:
        """The ``stats`` RPC payload, a read of this server's registry.

        Request, coalescing and cache counters and the latency
        percentiles (overall and per cache outcome) come from the
        server's own :class:`~repro.obs.metrics.MetricRegistry`, so they
        read 0 (and ``None``) under ``REPRO_OBS=off``.  Percentiles are
        log2-bucket estimates over the server's lifetime.  Shard and
        warming state ride along, and ``metrics`` holds the merged
        registry view (:meth:`collect_metrics`).
        """
        count = self._requests.value
        return {
            "uptime_s": time.monotonic() - self._t_start,
            "schema_versions": list(SUPPORTED_WIRE_SCHEMAS),
            "fidelity": self.serve.fidelity,
            "degraded": self._degraded,
            "requests": {
                key: int(count(event=event))
                for key, event in _REQUEST_EVENTS.items()
            },
            "cache": self._cache.stats().to_dict(),
            "warming": (
                self._warmer.stats() if self._warmer is not None else None
            ),
            # Misses that attached to an in-flight computation; the
            # section keeps its historical name for stats readers.
            "batches": {"coalesced": int(count(event="coalesced"))},
            "shards": [
                {
                    "shard": index,
                    "pid": shard.proc.pid,
                    "alive": shard.proc.is_alive(),
                    "queue_depth": shard.queue_depth(),
                }
                for index, shard in enumerate(self._shards)
            ],
            "latency_ms": _quantiles_ms(self._stage_seconds, stage="total"),
            "latency_by_outcome_ms": {
                outcome: _quantiles_ms(self._latency, outcome=outcome)
                for outcome in OUTCOMES
            },
            "metrics": self.collect_metrics(),
        }


def _quantiles_ms(hist: obs_metrics.Histogram, **labels) -> dict:
    """``count`` plus p50/p90/p99 bucket estimates (ms) of one series."""
    out: dict = {"count": hist.count(**labels)}
    for label, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        value = hist.quantile(q, **labels)
        out[label] = None if value is None else value * 1e3
    return out
