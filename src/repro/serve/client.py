"""Blocking client for :class:`~repro.serve.server.SageServer`.

One :class:`ServeClient` holds one TCP connection and issues one request
at a time (the server multiplexes many clients; open one client per
thread for client-side concurrency).  Two wire modes, which the server
answers the same way — a repeat of an exact cache hit is answered on its
event loop from the decision's memoized reply, whichever wire it came on:

* ``wire="binary"`` (default) — length-prefixed frames around the JSON
  payload (:mod:`repro.serve.wire`).
* ``wire="json"`` — the legacy JSON-lines protocol, byte-for-byte what
  PR-2-era clients speak.  Kept for interop and for pinning the
  compatibility contract in tests.

Transient transport failures are retried transparently: every op this
client issues is idempotent (predictions are pure functions of the
workload; ``stats``/``ping`` are reads), so a dropped connection is
reconnected and the request resent, up to ``retries`` times.  Only
``shutdown`` is never retried — the first attempt may well have
succeeded, and re-sending it to a fresh server would stop the wrong
instance.  A client whose retries are exhausted (or constructed with
``retries=0``) poisons itself exactly like the legacy client did, since
a late reply could still be sitting in the dead socket's buffer.

Workload objects are serialized with
:meth:`~repro.workloads.spec.MatrixWorkload.to_dict`; decisions come back
as :class:`~repro.sage.predictor.SageDecision` rebuilt from their wire
form, so downstream code cannot tell a served decision from a local one.
"""

from __future__ import annotations

import json
import socket
from typing import Mapping, Sequence

from repro.api.options import PredictOptions, WIRE_SCHEMA_VERSION
from repro.errors import ServeError
from repro.obs import current_trace_id, get_logger, span
from repro.sage.predictor import SageDecision
from repro.serve import wire
from repro.workloads.spec import MatrixWorkload, TensorWorkload

__all__ = ["ServeClient"]

_LOG = get_logger("serve.client")

_Workload = MatrixWorkload | TensorWorkload

WIRE_MODES = ("binary", "json")


def _wire_workload(workload: _Workload | Mapping) -> dict:
    if isinstance(workload, (MatrixWorkload, TensorWorkload)):
        return workload.to_dict()
    return dict(workload)


def _attach_options(payload: dict, options: PredictOptions | None) -> None:
    """Ship options in the versioned schema (legacy shape when absent)."""
    if options is not None:
        payload["schema_version"] = WIRE_SCHEMA_VERSION
        payload["options"] = options.to_wire()


class ServeClient:
    """Connect to a running server and predict over the wire."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 150.0,
        wire_mode: str = "binary",
        retries: int = 1,
    ) -> None:
        # The default timeout deliberately outlasts the server's
        # request_timeout_s (120 s): a slow request should die server-side
        # with a clean in-band error, not poison this connection.
        if wire_mode not in WIRE_MODES:
            raise ValueError(
                f"unknown wire_mode {wire_mode!r} "
                f"(choose from {', '.join(WIRE_MODES)})"
            )
        self._host = host
        self._port = port
        self._timeout = timeout
        self.wire_mode = wire_mode
        self.retries = max(0, retries)
        self._broken = False
        self._sock: socket.socket | None = None
        self._file = None
        self._connect()

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self._host, self._port), self._timeout
            )
        except OSError as exc:
            self._sock = None
            raise ServeError(
                f"cannot connect to {self._host}:{self._port}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rwb")

    # ------------------------------------------------------------ transport
    def _send_recv(self, payload: dict, *, scale: int) -> dict:
        """One attempt: request out, response in, on the configured wire."""
        assert self._sock is not None and self._file is not None
        self._sock.settimeout(self._timeout * max(1, scale))
        if self.wire_mode == "binary":
            self._file.write(wire.encode_frame(payload))
            self._file.flush()
            return wire.read_frame(self._file)
        self._file.write((json.dumps(payload) + "\n").encode())
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServeError("server closed the connection")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServeError(f"malformed reply: {exc}") from exc

    def _rpc(
        self,
        payload: dict,
        *,
        scale: int = 1,
        retryable: bool = True,
    ) -> dict:
        """One request out, one response in, with transparent retry.

        ``scale`` multiplies the socket deadline for requests whose
        server-side processing time grows with payload size
        (``predict_many`` waits per workload).

        Transport-level failures (timeout, dropped connection, truncated
        or undecodable reply) on a *retryable* op trigger reconnect-and-
        resend, up to ``self.retries`` times — every op here except
        ``shutdown`` is idempotent, so a resend can at worst recompute a
        pure function.  When retries are exhausted (or disabled) the
        connection is poisoned: a late reply could still be sitting in
        the old socket's buffer, and reading it later would pair it with
        the wrong request.  In-band ``{"ok": false}`` errors keep the
        connection usable and are never retried.
        """
        if self._broken:
            raise ServeError("connection poisoned by an earlier transport "
                             "failure; open a new ServeClient")
        trace_id = current_trace_id()
        if trace_id is not None and "trace" not in payload:
            # Both schema versions ignore unknown top-level keys, so the
            # trace ID rides every request without a version bump; the
            # server adopts it for its handler-side spans.
            payload["trace"] = trace_id
        attempts = 1 + (self.retries if retryable else 0)
        last_exc: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                # Reconnect before the resend; a failure here burns this
                # attempt (the server may still be restarting).
                try:
                    self.close()
                except (OSError, ValueError):
                    pass
                try:
                    self._connect()
                except ServeError as exc:
                    last_exc = exc
                    continue
                _LOG.info(
                    "retrying %s after transport failure (attempt %d/%d)",
                    payload.get("op"), attempt + 1, attempts,
                )
            try:
                with span("serve.rpc", op=str(payload.get("op"))):
                    response = self._send_recv(payload, scale=scale)
            except (OSError, ValueError, wire.WireError, ServeError) as exc:
                last_exc = exc
                continue
            if not response.get("ok"):
                raise ServeError(response.get("error", "unknown server error"))
            return response
        self._poison()
        raise ServeError(f"transport failed: {last_exc}") from last_exc

    def _poison(self) -> None:
        self._broken = True
        try:
            self.close()
        except (OSError, ValueError):  # already torn down
            pass

    @property
    def broken(self) -> bool:
        """Whether this client has been poisoned by a transport failure."""
        return self._broken

    # ------------------------------------------------------------------ api
    def ping(self) -> bool:
        """Liveness probe."""
        return bool(self._rpc({"op": "ping"}).get("pong"))

    def predict(
        self,
        workload: _Workload | Mapping,
        *,
        top: int | None = None,
        options: PredictOptions | None = None,
    ) -> SageDecision:
        """One decision for one workload (object or wire dict).

        ``top`` bounds the shipped ranking; ``0`` (or negative) requests
        the full ranking, ``None`` accepts the server's default prefix.
        ``options`` attaches a typed option set (search restrictions,
        fidelity tier) in the versioned wire schema; requests without
        options stay in the legacy (version-1) shape old servers accept.
        """
        payload: dict = {"op": "predict", "workload": _wire_workload(workload)}
        if top is not None:
            payload["top"] = top
        _attach_options(payload, options)
        reply = self._rpc(payload)
        return SageDecision.from_wire(reply["decision"])

    def predict_many(
        self,
        workloads: Sequence[_Workload | Mapping],
        *,
        top: int | None = None,
        options: PredictOptions | None = None,
    ) -> list[SageDecision]:
        """Decisions for a suite, in input order, via one round trip.

        ``options`` applies to every workload in the batch.
        """
        payload: dict = {
            "op": "predict_many",
            "workloads": [_wire_workload(wl) for wl in workloads],
        }
        if top is not None:
            payload["top"] = top
        _attach_options(payload, options)
        reply = self._rpc(payload, scale=max(1, len(payload["workloads"])))
        return [SageDecision.from_wire(w) for w in reply["decisions"]]

    def stats(self) -> dict:
        """The server's ``stats`` payload: request, coalescing, cache
        and latency figures plus its merged metric registry."""
        return self._rpc({"op": "stats"})["stats"]

    def shutdown_server(self) -> None:
        """Ask the server to stop accepting and wind down gracefully.

        Never retried: the first attempt may have landed, and re-sending
        after a reconnect could stop a freshly-restarted server.
        """
        self._rpc({"op": "shutdown"}, retryable=False)

    def close(self) -> None:
        """Close this connection (the server keeps running)."""
        try:
            if self._file is not None:
                self._file.close()
        finally:
            if self._sock is not None:
                self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
