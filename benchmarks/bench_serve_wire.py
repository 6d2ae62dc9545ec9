"""Serving under Zipf-skewed traffic replay: binary frames vs JSON lines.

The serve-wire bar: both wires ride one hit path, so one server answers
legacy JSON lines at >= 0.7x the request rate it reaches on
length-prefixed binary frames, with warm-steady-state binary p99 under
50 ms.  An exact hit on either wire is answered on the event loop from
the decision cache's memoized reply body; the wires differ only in a
frame header against a newline, and in the reader's newline scan.  This
bench is the loadgen that measures it:

* a **universe** of synthetic workloads spanning sizes and density
  bands, sampled **Zipf-skewed** (rank-``s`` weights) the way real
  prediction traffic repeats its hot workloads;
* **thin raw-socket clients**: every request is pre-encoded once and
  replayed as raw bytes, and replies are validated with a byte scan —
  client-side CPU stays out of the measurement (decision *correctness*
  over the wire is pinned by ``tests/serve``, not here);
* two phases over the same replayed sequence against the same server,
  warm in both: ``single_json`` (JSON lines) and ``single_binary``
  (frames).

Per-request wall time is recorded client-side and split by the cache
``outcome`` each reply names, so the table shows where the tail lives
(hit / near-hit / miss).  Headline numbers land in
``benchmarks/out/serve_wire.json`` and are floored by
``check_floors.py`` (JSON-vs-binary rps >= 0.7, binary warm p99
<= 50 ms).
"""

from __future__ import annotations

import json
import math
import random
import socket
import threading
import time
from pathlib import Path

from repro.serve import SageServer, ServeConfig
from repro.serve import wire
from repro.workloads.spec import Kernel, MatrixWorkload

OUT_PATH = Path(__file__).parent / "out" / "serve_wire.json"

UNIVERSE = 24  # distinct workloads in the traffic model
REQUESTS = 600  # timed requests per phase
THREADS = 4  # concurrent replay clients
ZIPF_S = 1.1  # skew exponent (rank-weighted 1/r^s)
SEED = 20210517  # the paper's conference date; any constant works

_SERVE = ServeConfig(port=0, warm_bands=0)

_OUTCOMES = ("hit", "near_hit", "miss", "bypassed")


def _universe() -> list[MatrixWorkload]:
    """Deterministic workload universe across sizes and density bands."""
    rng = random.Random(SEED)
    out = []
    for i in range(UNIVERSE):
        m = rng.choice((96, 128, 192, 256, 384))
        k = rng.choice((64, 96, 128, 192))
        n = rng.choice((32, 64, 96))
        density = rng.choice((0.002, 0.01, 0.03, 0.1, 0.3))
        nnz_a = max(1, int(m * k * density))
        out.append(MatrixWorkload(
            name=f"zipf-{i}", kernel=Kernel.SPMM, m=m, k=k, n=n,
            nnz_a=nnz_a, nnz_b=k * n, dtype_bits=32,
        ))
    return out


def _zipf_sequence(universe: list[MatrixWorkload]) -> list[int]:
    """The replayed request sequence: Zipf-skewed indexes, fixed seed.

    Every phase replays this exact sequence, so the comparison isolates
    the serving stack, not the traffic draw.
    """
    rng = random.Random(SEED + 1)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(universe))]
    return rng.choices(range(len(universe)), weights=weights, k=REQUESTS)


def _encode_json(wl: MatrixWorkload) -> bytes:
    payload = {"op": "predict", "workload": wl.to_dict(), "top": 1}
    return (json.dumps(payload) + "\n").encode()


def _encode_binary(wl: MatrixWorkload) -> bytes:
    payload = {"op": "predict", "workload": wl.to_dict(), "top": 1}
    return wire.encode_frame(payload)


def _scan_outcome(body: bytes) -> str:
    """Cheap reply validation: ok-flag plus the outcome label byte-scan."""
    if b'"ok": true' not in body and b'"ok":true' not in body:
        raise AssertionError(f"request failed: {body[:200]!r}")
    for outcome in _OUTCOMES:
        if outcome.encode() in body:
            return outcome
    return "hit"  # replies older than the outcome field


class _ThinClient:
    """Raw-socket replayer: pre-encoded bytes out, byte-scanned reply in."""

    def __init__(self, address: tuple[str, int], binary: bool) -> None:
        self._sock = socket.create_connection(address, timeout=30.0)
        self._file = self._sock.makefile("rwb")
        self._binary = binary

    def request(self, encoded: bytes) -> str:
        self._file.write(encoded)
        self._file.flush()
        if self._binary:
            header = self._file.read(wire.HEADER.size)
            length = wire.parse_header(header)
            body = self._file.read(length)
        else:
            body = self._file.readline()
        return _scan_outcome(body)

    def close(self) -> None:
        self._file.close()
        self._sock.close()


def _replay(
    address: tuple[str, int],
    encoded: list[bytes],
    sequence: list[int],
    binary: bool,
) -> dict:
    """Replay the sequence across THREADS clients; per-outcome latencies."""
    chunks = [sequence[i::THREADS] for i in range(THREADS)]
    samples: list[list[tuple[str, float]]] = [[] for _ in range(THREADS)]
    errors: list[Exception] = []

    def worker(chunk: list[int], sink: list) -> None:
        try:
            client = _ThinClient(address, binary)
            try:
                for index in chunk:
                    t0 = time.perf_counter()
                    outcome = client.request(encoded[index])
                    sink.append((outcome, time.perf_counter() - t0))
            finally:
                client.close()
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(chunk, sink), daemon=True)
        for chunk, sink in zip(chunks, samples)
    ]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t_start
    if errors:
        raise errors[0]
    flat = [s for sink in samples for s in sink]
    by_outcome: dict[str, list[float]] = {o: [] for o in _OUTCOMES}
    for outcome, latency in flat:
        by_outcome[outcome].append(latency)
    return {
        "requests": len(flat),
        "elapsed_s": elapsed,
        "rps": len(flat) / elapsed,
        "latency_ms": _percentiles([lat for _, lat in flat]),
        "latency_by_outcome_ms": {
            o: _percentiles(lats) for o, lats in by_outcome.items() if lats
        },
    }


def _percentiles(latencies_s: list[float]) -> dict:
    ordered = sorted(latencies_s)
    out: dict = {"count": len(ordered)}
    for label, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        if not ordered:
            out[label] = None
            continue
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        out[label] = ordered[index] * 1e3
    return out


def _warm(address: tuple[str, int], encoded: list[bytes], binary: bool) -> None:
    """Two passes over the universe: decisions, then their reply memos."""
    client = _ThinClient(address, binary)
    try:
        for _ in range(2):
            for request in encoded:
                client.request(request)
    finally:
        client.close()


def measure() -> dict:
    universe = _universe()
    sequence = _zipf_sequence(universe)
    json_encoded = [_encode_json(wl) for wl in universe]
    binary_encoded = [_encode_binary(wl) for wl in universe]
    phases: dict[str, dict] = {}

    # One server, legacy lines then frames.
    with SageServer(serve=_SERVE) as server:
        _warm(server.address, json_encoded, binary=False)
        phases["single_json"] = _replay(
            server.address, json_encoded, sequence, binary=False
        )
        _warm(server.address, binary_encoded, binary=True)
        phases["single_binary"] = _replay(
            server.address, binary_encoded, sequence, binary=True
        )
        stats = server.stats()

    result = {
        "universe": len(universe),
        "requests_per_phase": REQUESTS,
        "threads": THREADS,
        "zipf_s": ZIPF_S,
        "phases": phases,
        "json_vs_binary_rps": (
            phases["single_json"]["rps"] / phases["single_binary"]["rps"]
        ),
        "warm_p99_ms": phases["single_binary"]["latency_ms"]["p99"],
        "server_requests": stats["requests"],
        "server_cache": stats["cache"],
    }
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return result


def bench_serve_wire(once, benchmark):
    out = once(measure)
    print()
    print(f"{'phase':>14} | {'req/s':>8} | {'p50':>8} | {'p99':>8}")
    for name in ("single_json", "single_binary"):
        phase = out["phases"][name]
        lat = phase["latency_ms"]
        print(
            f"{name:>14} | {phase['rps']:>8.0f} | {lat['p50']:>6.2f}ms "
            f"| {lat['p99']:>6.2f}ms"
        )
    binary = out["phases"]["single_binary"]
    for outcome, lat in binary["latency_by_outcome_ms"].items():
        print(
            f"  binary[{outcome}]: p50={lat['p50']:.2f}ms "
            f"p99={lat['p99']:.2f}ms over {lat['count']} request(s)"
        )
    print(
        f"json vs binary rps: {out['json_vs_binary_rps']:.2f} "
        f"(warm p99 {out['warm_p99_ms']:.2f} ms)"
    )
    print(f"wrote {OUT_PATH}")
    assert out["json_vs_binary_rps"] >= 0.7
    assert out["warm_p99_ms"] <= 50.0
    benchmark.extra_info["json_vs_binary_rps"] = round(
        out["json_vs_binary_rps"], 2
    )
    benchmark.extra_info["binary_rps"] = round(binary["rps"], 1)
    benchmark.extra_info["warm_p99_ms"] = round(out["warm_p99_ms"], 2)
