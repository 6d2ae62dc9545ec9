"""The batched cycle tier is wire-identical to one GEMM per candidate.

``simulate_many`` simulates each distinct job once and prepares each
stationary operand once; ``_cycle_oracle`` re-ranks with a separate
``run_gemm`` (and a fresh preparation) per candidate.  Every Table III
matrix workload's cycle-tier decision must match the oracle's ``to_wire()``
exactly, floats included.
"""

from __future__ import annotations

from itertools import product

import pytest

from _cycle_oracle import cycle_rerank_per_candidate
from repro.obs import registry
from repro.sage import Sage
from repro.workloads import MATRIX_SUITE, Kernel

WORKLOADS = [
    entry.matrix_workload(kernel)
    for entry, kernel in product(MATRIX_SUITE, (Kernel.SPMM, Kernel.SPGEMM))
]


@pytest.fixture(scope="module")
def sage():
    return Sage()


@pytest.fixture(scope="module")
def oracle(sage):
    """Per workload name: the per-candidate (decision, reports)."""
    return {
        wl.name: cycle_rerank_per_candidate(
            sage, wl, sage.predict_matrix(wl, fidelity="analytical")
        )
        for wl in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda wl: wl.name)
def test_cycle_decision_matches_per_candidate_oracle(sage, oracle, workload):
    gemms = registry().counter("repro_accel_gemms_total")
    before = gemms.value()
    decision = sage.predict_matrix(workload, fidelity="cycle")
    expected, _reports = oracle[workload.name]
    assert decision.to_wire() == expected.to_wire()
    # Operands are encoded once per ACF, so candidates sharing an ACF pair
    # share one simulated GEMM.
    distinct_pairs = {cand.acf for cand in expected.ranking}
    assert gemms.value() - before == len(distinct_pairs)


def test_suite_covers_k_tiled_proxies(oracle):
    # Parity must hold where the stationary operand spans several K tiles,
    # not only where one preparation fits the PE buffers whole.
    tiled = [
        name
        for name, (_decision, reports) in oracle.items()
        if any(report.cycles.k_tiles > 1 for report in reports)
    ]
    assert tiled
