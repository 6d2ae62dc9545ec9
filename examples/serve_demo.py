"""Serving demo: the same Session code, answered by a remote server.

Starts a :class:`~repro.serve.server.SageServer` on an ephemeral port
(misses searched in the server process, near-hit cache on) and drives
it through the ``Session`` facade with a ``tcp://`` backend — cold pass,
warm repeat, a density-band near-hit, a search-restricted request that
bypasses the cache — then prints the server's stats RPC.  Nothing but the backend URL
distinguishes this code from an in-process ``Session()``.

Run with ``PYTHONPATH=src python examples/serve_demo.py``.
(set ``REPRO_EXAMPLE_SMOKE=1`` for a smaller headless-CI instance)
"""

from __future__ import annotations

import json
import os
import time

from repro import (
    MATRIX_SUITE,
    Format,
    Kernel,
    MatrixWorkload,
    PredictOptions,
    Session,
)
from repro.serve import SageServer, ServeConfig

SMOKE = bool(os.environ.get("REPRO_EXAMPLE_SMOKE"))


def main() -> None:
    entries = MATRIX_SUITE[:3] if SMOKE else MATRIX_SUITE
    suite = [entry.matrix_workload(Kernel.SPMM) for entry in entries]
    config = ServeConfig(port=0, near_hit=True)
    with SageServer(serve=config) as server:
        host, port = server.address
        print(f"server up on {host}:{port}\n")
        with Session(f"tcp://{host}:{port}") as session:
            t0 = time.perf_counter()
            decisions = session.predict(suite)
            cold_ms = (time.perf_counter() - t0) * 1e3
            print(f"cold pass: {len(suite)} suite workloads in {cold_ms:.1f} ms")
            for decision in decisions[:3]:
                best = decision.best
                print(
                    f"  {decision.workload_name:>16}: "
                    f"MCF=({best.mcf[0]},{best.mcf[1]}) "
                    f"ACF=({best.acf[0]},{best.acf[1]})"
                )

            t0 = time.perf_counter()
            session.predict(suite)
            warm_ms = (time.perf_counter() - t0) * 1e3
            print(f"warm pass: same suite in {warm_ms:.1f} ms (decision cache)")

            # A workload the server never saw, but in the same density
            # band as a cached one: served as a near-hit.
            seen = suite[-1]
            neighbour = MatrixWorkload(
                f"{seen.name}-retrained", seen.kernel, seen.m, seen.k,
                seen.n, seen.nnz_a + 512, seen.nnz_b,
            )
            session.predict(neighbour)
            print("near-hit: unseen neighbour answered from the band cache")

            # Typed options travel the versioned wire schema; restricted
            # searches bypass the decision cache on the server side.
            pinned = session.predict(
                seen, PredictOptions(fixed_mcf=(Format.CSR, Format.DENSE))
            )
            print(
                f"restricted: CSR-pinned best ACF = "
                f"({pinned.best.acf[0]},{pinned.best.acf[1]}) "
                f"(computed cache-bypassing)\n"
            )

            print("server stats:")
            print(json.dumps(session.backend.stats(), indent=2))
    print("\nserver shut down cleanly")


if __name__ == "__main__":
    main()
