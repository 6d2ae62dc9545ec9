"""Batched cycle simulation: the one-statistics-pass engine vs the per-beat oracle.

Runs one mixed batch of GEMMs — every streamable ACF in the protocol
registry (Dense / CSR / CSC / COO / ELL) against both stationary layouts
(Dense / CSC) at two densities — three ways:

* **reference** — the per-beat test oracle
  (``tests/accelerator/_reference_engine.py``): materialized ``Beat``
  objects driving one Python ``PE`` object per column, sequentially per
  job;
* **vectorized** — ``WeightStationarySimulator.run_gemm``, the engine
  that reports each GEMM from one statistics pass per operand (plus the
  output product), sequentially per job;
* **batch** — ``WeightStationarySimulator.simulate_many``, the batch API
  over the same engine, which simulates each distinct job once, prepares
  each stationary operand once, counts every job's bus beats in one call
  and returns reports only (no output matrix).

Job by job, the batch report is asserted equal to both ``run_gemm``'s and
the oracle's (the differential check that keeps the vectorized path
honest), the acceptance
bar is a >= 5x vectorized-vs-reference speedup, and the headline numbers
land in ``benchmarks/out/simulate_many.json``, among them
``speedup_batch_vs_vectorized``: what the batch saves over one
``run_gemm`` per job.  ``batch_gemms`` there is the
``repro_accel_gemms_total`` delta over the batch phase, asserted equal to
the batch's distinct job count.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# The per-beat oracle lives next to the tests it backs, and imports its
# sibling oracles as ``tests.accelerator.*`` from the repo root.
ROOT = Path(__file__).resolve().parents[1]
ORACLE_DIR = ROOT / "tests" / "accelerator"
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ORACLE_DIR))

from _reference_engine import reference_gemm
from repro.accelerator.protocols import streamable_formats
from repro.accelerator.simulator import WeightStationarySimulator
from repro.formats.csc import CscMatrix
from repro.formats.dense import DenseMatrix
from repro.formats.registry import Format, matrix_class
from repro.obs import registry
from repro.workloads.synthetic import random_sparse_matrix

OUT_PATH = Path(__file__).parent / "out" / "simulate_many.json"

M, K, N = 160, 160, 96
DENSITIES = (0.05, 0.25)


def _jobs():
    """The benchmark batch: every streamable ACF x {Dense, CSC} stationary.

    Like SAGE's callers, each density encodes its stationary operand once
    per ACF and shares it across the streamed ACFs.
    """
    jobs = []
    for seed, density in enumerate(DENSITIES):
        nnz_a = max(1, int(density * M * K))
        a_dense = random_sparse_matrix(M, K, nnz_a, seed)
        b_dense = random_sparse_matrix(K, N, max(1, int(density * K * N)),
                                       seed + 100)
        stationary = (
            (Format.DENSE, DenseMatrix.from_dense(b_dense)),
            (Format.CSC, CscMatrix.from_dense(b_dense)),
        )
        for acf_a in streamable_formats():
            a = matrix_class(acf_a).from_dense(a_dense)
            for acf_b, b in stationary:
                jobs.append((a, acf_a, b, acf_b))
    return jobs


def measure() -> dict:
    sim = WeightStationarySimulator()
    jobs = _jobs()

    t0 = time.perf_counter()
    reference = [reference_gemm(sim.config, *job) for job in jobs]
    reference_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    vectorized = [sim.run_gemm(*job) for job in jobs]
    vectorized_s = time.perf_counter() - t0

    gemms = registry().counter("repro_accel_gemms_total")
    gemms_before = gemms.value()
    t0 = time.perf_counter()
    batched = sim.simulate_many(jobs)
    batch_s = time.perf_counter() - t0
    batch_gemms = int(gemms.value() - gemms_before)
    distinct = {(id(a), acf_a, id(b), acf_b) for a, acf_a, b, acf_b in jobs}
    assert batch_gemms == len(distinct), (batch_gemms, len(distinct))

    assert len(batched) == len(jobs)
    for (_, ref), (_, vec), bat in zip(reference, vectorized, batched):
        assert bat == vec
        assert bat.cycles == ref.cycles and bat.energy == ref.energy

    result = {
        "jobs": len(jobs),
        "shape": [M, K, N],
        "densities": list(DENSITIES),
        "streamed_acfs": [f.value for f in streamable_formats()],
        "reference_s": reference_s,
        "vectorized_s": vectorized_s,
        "batch_s": batch_s,
        "batch_gemms": batch_gemms,
        "speedup_vectorized_vs_reference": reference_s / vectorized_s,
        "speedup_batch_vs_reference": reference_s / batch_s,
        "speedup_batch_vs_vectorized": vectorized_s / batch_s,
    }
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return result


def bench_simulate_many(once, benchmark):
    out = once(measure)
    print()
    print(f"{'engine':>20} | {'total':>9} | {'jobs/s':>7}")
    for label, key in (
        ("reference (oracle)", "reference_s"),
        ("vectorized", "vectorized_s"),
        ("simulate_many", "batch_s"),
    ):
        seconds = out[key]
        print(f"{label:>20} | {seconds * 1e3:>7.1f}ms | "
              f"{out['jobs'] / seconds:>7.1f}")
    print(
        f"vectorized vs per-beat oracle: "
        f"{out['speedup_vectorized_vs_reference']:.1f}x, "
        f"batched: {out['speedup_batch_vs_reference']:.1f}x, "
        f"batched vs vectorized: {out['speedup_batch_vs_vectorized']:.1f}x"
    )
    print(f"wrote {OUT_PATH}")
    assert out["speedup_vectorized_vs_reference"] >= 5.0
    benchmark.extra_info["speedup_vectorized_vs_reference"] = round(
        out["speedup_vectorized_vs_reference"], 1
    )
    benchmark.extra_info["speedup_batch_vs_reference"] = round(
        out["speedup_batch_vs_reference"], 1
    )
    benchmark.extra_info["speedup_batch_vs_vectorized"] = round(
        out["speedup_batch_vs_vectorized"], 1
    )
