"""Test-only oracle: the cycle tier's re-rank with one GEMM per candidate.

:meth:`~repro.sage.predictor.Sage._cycle_rerank` hands its jobs to
``simulate_many``, which simulates each distinct job once and prepares each
stationary operand once.  The body below is the re-rank as it ran before
that batching: every candidate gets its own ``run_gemm``, and so its own
fresh stationary preparation.  ``test_cycle_parity.py`` pins the two
wire-identical.
"""

from __future__ import annotations

from repro.accelerator.protocols import streamable_formats
from repro.accelerator.report import RunReport
from repro.accelerator.simulator import WeightStationarySimulator
from repro.errors import ConversionError, PredictionError
from repro.formats.csc import CscMatrix
from repro.formats.dense import DenseMatrix
from repro.formats.registry import Format, matrix_class
from repro.sage.cost_model import price_matrix_io
from repro.sage.predictor import (
    CYCLE_TOP_K,
    SIM_CAP_ELEMENTS,
    Sage,
    SageDecision,
    _proxy_workload,
)
from repro.sage.spaces import MATRIX_ACF_STREAMED
from repro.workloads.spec import MatrixWorkload
from repro.workloads.synthetic import random_sparse_matrix


def cycle_rerank_per_candidate(
    sage: Sage,
    workload: MatrixWorkload,
    analytical: SageDecision,
    *,
    top: int = CYCLE_TOP_K,
    seed: int = 0,
) -> tuple[SageDecision, list[RunReport]]:
    """The per-candidate re-rank: (decision, one report per candidate)."""
    sim_wl = _proxy_workload(workload, SIM_CAP_ELEMENTS)
    combos: list[tuple[tuple[Format, Format], tuple[Format, Format]]] = []
    for cand in analytical.ranking[:top]:
        if (cand.mcf, cand.acf) not in combos:
            combos.append((cand.mcf, cand.acf))
    best = analytical.best
    for fmt in streamable_formats():
        if fmt in MATRIX_ACF_STREAMED:
            continue
        extra = (best.mcf, (fmt, best.acf[1]))
        if extra not in combos:
            combos.append(extra)

    a_dense = random_sparse_matrix(sim_wl.m, sim_wl.k, sim_wl.nnz_a, seed)
    b_dense = random_sparse_matrix(sim_wl.k, sim_wl.n, sim_wl.nnz_b, seed + 1)
    encoded_a: dict[Format, object] = {}
    encoded_b: dict[Format, object] = {}
    jobs, plans = [], []
    for mcf, acf in combos:
        try:
            io = price_matrix_io(
                sim_wl, mcf, acf,
                config=sage.config, dram=sage.dram, provider=sage.provider,
            )
        except ConversionError:
            continue
        if io is None:
            continue
        if acf[0] not in encoded_a:
            encoded_a[acf[0]] = matrix_class(acf[0]).from_dense(a_dense)
        if acf[1] not in encoded_b:
            cls = CscMatrix if acf[1] is Format.CSC else DenseMatrix
            encoded_b[acf[1]] = cls.from_dense(b_dense)
        jobs.append((encoded_a[acf[0]], acf[0], encoded_b[acf[1]], acf[1]))
        plans.append(io)
    if not jobs:
        raise PredictionError(
            f"no cycle-simulatable candidate for {workload.name}"
        )
    sim = WeightStationarySimulator(sage.config)
    reports = [sim.run_gemm(*job)[1] for job in jobs]
    measured = [
        io.complete(run.cycles.total_cycles, run.energy.total_j)
        for io, run in zip(plans, reports)
    ]
    ranking = tuple(sorted(measured, key=lambda c: c.edp))
    decision = SageDecision(
        workload_name=workload.name,
        best=ranking[0],
        ranking=ranking,
        fidelity="cycle",
        sim_scale=(
            (sim_wl.m * sim_wl.k * sim_wl.n)
            / (workload.m * workload.k * workload.n)
        ),
    )
    return decision, reports
