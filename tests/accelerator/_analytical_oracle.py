"""Test-only oracle: the exact closed-form cycle model of one GEMM.

:class:`~repro.accelerator.simulator.WeightStationarySimulator` is the
one executable model of each ACF's walk in ``src``; SAGE prices with the
statistics-only model of :mod:`repro.accelerator.perf_model`.  The model
below is a third, independent derivation of the simulator's totals: it
computes the identical cycle/energy report in closed form from nonzero
histograms and boolean pattern products, for every row-grouped streamed
ACF (Dense, CSR, COO, CSC) against a Dense or CSC stationary operand.
``test_perf_model.py`` and ``tests/integration/test_property_system.py``
pin the simulator equal to it on randomized workloads.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.accounting import energy_report
from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.protocols import stationary_layout_for
from repro.accelerator.report import CycleReport, RunReport
from repro.accelerator.scheduler import CSC_ENTRY_COST
from repro.accelerator.stream import stream_spec_for
from repro.errors import SimulationError
from repro.formats.base import MatrixFormat
from repro.formats.csc import CscMatrix
from repro.formats.registry import Format
from repro.util.bits import ceil_div
from tests.accelerator._stream_oracle import build_schedule, stream_cycle_count


def _streamed_pattern(a: MatrixFormat) -> np.ndarray:
    """Boolean nonzero pattern of the streamed operand."""
    return a.to_dense() != 0.0


def _group_sizes_for_tile(
    pattern: np.ndarray, acf_a: Format, k_lo: int, k_hi: int, m: int
) -> np.ndarray:
    """Per-group streamed entry counts within one reduction tile."""
    tile = pattern[:, k_lo:k_hi]
    if acf_a is Format.DENSE:
        return np.full(m, k_hi - k_lo, dtype=np.int64)
    if acf_a in (Format.CSR, Format.COO):
        counts = tile.sum(axis=1).astype(np.int64)
        if acf_a is Format.COO:
            return np.asarray([int(counts.sum())], dtype=np.int64)
        return counts
    if acf_a is Format.CSC:
        return tile.sum(axis=0).astype(np.int64)
    raise SimulationError(
        f"{acf_a} has no exact analytical streaming model "
        f"(modelled: Dense, CSR, COO, CSC)"
    )


def _csc_stream_spill_runs(pa_tile: np.ndarray, pb_col: np.ndarray | None) -> int:
    """Row-run count of the column-major matched sequence (CSC streaming).

    ``pb_col`` restricts the matched reduction indices (CSC stationary); pass
    ``None`` for a dense stationary buffer (everything matches).
    """
    m, kt = pa_tile.shape
    seq: list[int] = []
    for k in range(kt):
        if pb_col is not None and not pb_col[k]:
            continue
        rows = np.flatnonzero(pa_tile[:, k])
        seq.extend(int(r) for r in rows)
    if not seq:
        return 0
    arr = np.asarray(seq)
    return 1 + int(np.count_nonzero(arr[1:] != arr[:-1]))


def analytical_gemm(
    a: MatrixFormat,
    acf_a: Format,
    b: MatrixFormat,
    acf_b: Format,
    config: AcceleratorConfig | None = None,
) -> RunReport:
    """Exact closed-form model of ``O = A @ B`` on the WS accelerator."""
    cfg = config or AcceleratorConfig.paper_default()
    if a.ncols != b.nrows:
        raise SimulationError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    stationary_layout_for(acf_b)  # raises naming the registered layouts
    m, k, n = a.nrows, a.ncols, b.ncols
    spec = stream_spec_for(acf_a)
    pa = _streamed_pattern(a)
    pb = b.to_dense() != 0.0

    sched_operand: MatrixFormat = (
        b
        if (acf_b is Format.DENSE or isinstance(b, CscMatrix))
        else CscMatrix.from_dense(b.to_dense())
    )
    schedule = build_schedule(
        sched_operand, acf_b, cfg.pe_buffer_entries, cfg.num_pes
    )
    w = cfg.bus_slots
    rounds = schedule.rounds

    load_cycles = stream_cycles = 0
    issued = matched = compares = spills = 0
    entries_loaded_total = 0

    for k_lo, k_hi in schedule.k_tiles:
        pa_tile = pa[:, k_lo:k_hi]
        pb_tile = pb[k_lo:k_hi, :]
        a_col_counts = pa_tile.sum(axis=0).astype(np.int64)  # nnz per k
        b_row_counts = pb_tile.sum(axis=1).astype(np.int64)  # nnz per k
        nnz_a_tile = int(a_col_counts.sum())
        nnz_b_tile = int(pb_tile.sum())

        sizes = _group_sizes_for_tile(pa, acf_a, k_lo, k_hi, m)
        tile_stream = stream_cycle_count(sizes, spec, w)
        stream_cycles += tile_stream * len(rounds)

        streamed_entries = (
            m * (k_hi - k_lo) if acf_a is Format.DENSE else nnz_a_tile
        )
        # Per-k streamed-element counts (dense ACFs stream zeros too).
        streamed_per_k = (
            np.full(k_hi - k_lo, m, dtype=np.int64)
            if acf_a is Format.DENSE
            else a_col_counts
        )
        matched += int(np.dot(a_col_counts, b_row_counts))

        if acf_b is Format.DENSE:
            issued += streamed_entries * n
            # Spills: every streamed group that reaches a PE opens runs.
            if acf_a is Format.DENSE:
                spills += m * n
            elif acf_a in (Format.CSR, Format.COO):
                nonempty_rows = int((pa_tile.any(axis=1)).sum())
                spills += nonempty_rows * n
            else:  # CSC streaming: column-major row runs, same for every PE
                spills += _csc_stream_spill_runs(pa_tile, None) * n
        else:  # CSC stationary
            issued += int(np.dot(streamed_per_k, b_row_counts))
            compares += streamed_entries * nnz_b_tile
            if acf_a is Format.DENSE:
                nonempty_cols = int((pb_tile.any(axis=0)).sum())
                spills += m * nonempty_cols
            elif acf_a in (Format.CSR, Format.COO):
                # Rows with >= 1 match per PE: boolean pattern product.
                product = pa_tile @ pb_tile  # int matmul of booleans
                spills += int(np.count_nonzero(product))
            else:  # CSC streaming against CSC stationary: per-PE sequences
                for j in range(n):
                    spills += _csc_stream_spill_runs(pa_tile, pb_tile[:, j])

        # Loading: one ceil() per (tile, round), as the simulator charges.
        for col_lo, col_hi in rounds:
            if acf_b is Format.DENSE:
                entries = (col_hi - col_lo) * (k_hi - k_lo)
            else:
                entries = CSC_ENTRY_COST * int(
                    pb_tile[:, col_lo:col_hi].sum()
                )
            if entries:
                load_cycles += ceil_div(entries, w)
            entries_loaded_total += entries

    drain_cycles = ceil_div(spills, w) if spills else 0
    compute_cycles = ceil_div(issued, cfg.total_macs) if issued else 0
    cycles = CycleReport(
        load_cycles=load_cycles,
        stream_cycles=stream_cycles,
        drain_cycles=drain_cycles,
        compute_cycles=compute_cycles,
        rounds=schedule.num_rounds,
        k_tiles=schedule.num_tiles,
        issued_macs=issued,
        matched_macs=matched,
        output_spills=spills,
    )
    energy = energy_report(
        cfg,
        beat_cycles=stream_cycles,
        entries_loaded=entries_loaded_total,
        issued_macs=issued,
        compares=compares,
        spills=spills,
    )
    return RunReport(cycles=cycles, energy=energy)
