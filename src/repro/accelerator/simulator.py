"""Cycle-level functional simulator of the weight-stationary accelerator.

Executes ``O = A @ B`` (GEMM / SpMM / SpGEMM / SpMV are all this, per
Fig. 2) under any registered ACF pair, producing both the numerical output
and a :class:`~repro.accelerator.report.RunReport` (:meth:`run_gemm`), or
the reports alone for a batch (:meth:`simulate_many`).

The simulator is the operational ground truth: it packs real bus beats
(:mod:`repro.accelerator.stream`), matches streamed elements against the
stationary buffers and walks the (k-tile x round) schedule
(:mod:`repro.accelerator.scheduler`).  Which ACFs can stream or sit
stationary is decided by the protocol registries of
:mod:`repro.accelerator.protocols` — adding a format there is enough for
it to run here.

It consumes array-resident :class:`~repro.accelerator.stream.BeatPlan`
objects, one per K tile, and computes every per-PE statistic with numpy
segment ops; no per-entry Python loops.  Streamed ACFs whose extraction
scans the whole operand (COO, ELL) are extracted once per GEMM and split
into tiles (:meth:`~repro.accelerator.protocols.StreamProtocol.
tile_entries`); the others extract each tile directly.  Its cycle/energy
reports are pinned by the test suite against a per-beat PE model kept
there as an oracle, along with the Fig. 6 walkthrough's 8 / 3 / 4
streaming cycles and the closed-form analytical cross-check.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.protocols import (
    StationaryLayout,
    StationaryOperand,
    StreamProtocol,
    stationary_layout_for,
    stream_protocol_for,
    streamable_formats,
)
from repro.accelerator.report import CycleReport, EnergyReport, RunReport
from repro.accelerator.scheduler import (
    Schedule,
    compute_k_tiles,
    compute_rounds,
)
from repro.accelerator.stream import build_beat_plan, pack_entries
from repro.errors import SimulationError
from repro.formats.base import MatrixFormat
from repro.formats.registry import Format
from repro.obs import registry, span
from repro.util.bits import ceil_div

_GEMMS = registry().counter(
    "repro_accel_gemms_total", "Simulated GEMMs"
)
_PHASE_CYCLES = registry().counter(
    "repro_accel_phase_cycles_total",
    "Modeled accelerator cycles, by phase (load/stream/compute/drain)",
)

#: One simulate_many job: (streamed operand, its ACF, stationary operand,
#: its ACF) — exactly the run_gemm signature.
SimJob = tuple[MatrixFormat, Format, MatrixFormat, Format]

#: Prepared stationary operands and their schedules, by (id(b), acf_b).
_Prepared = dict[tuple[int, Format], tuple[StationaryOperand, Schedule]]


class WeightStationarySimulator:
    """Cycle-level simulator for one accelerator configuration."""

    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        self.config = config or AcceleratorConfig.paper_default()

    # ------------------------------------------------------------------ run
    def run_gemm(
        self,
        a: MatrixFormat,
        acf_a: Format,
        b: MatrixFormat,
        acf_b: Format,
    ) -> tuple[np.ndarray, RunReport]:
        """Execute ``O = A @ B`` and return (output, report).

        ``a`` must be encoded in ``acf_a`` (its class must match) and ``b``
        is re-encoded to the stationary layout internally if needed.
        """
        return self._gemm(a, acf_a, b, acf_b, {}, output=True)

    def _gemm(
        self,
        a: MatrixFormat,
        acf_a: Format,
        b: MatrixFormat,
        acf_b: Format,
        prepared: _Prepared,
        *,
        output: bool,
    ) -> tuple[np.ndarray | None, RunReport]:
        """Validate, prepare the stationary side unless *prepared* already
        holds it (keyed by ``(id(b), acf_b)``), then execute.  The output
        is computed only when *output* is set (``None`` otherwise); the
        report does not depend on it."""
        proto = stream_protocol_for(acf_a)
        if not proto.streamable:
            raise SimulationError(
                f"{acf_a} is not a streamable ACF "
                f"(streamable: {', '.join(f.value for f in streamable_formats())})"
            )
        layout = stationary_layout_for(acf_b)
        if a.format is not acf_a:
            raise SimulationError(
                f"streamed operand is encoded as {a.format}, ACF says {acf_a}"
            )
        if a.ncols != b.nrows:
            raise SimulationError(
                f"inner dimensions disagree: {a.shape} @ {b.shape}"
            )
        if self.config.pe_buffer_entries < 1:  # pragma: no cover - config guard
            raise SimulationError("PE buffer must hold at least one entry")
        with span("accel.gemm", streamed=str(acf_a), stationary=str(acf_b)):
            key = (id(b), acf_b)
            if key not in prepared:
                with span("accel.prepare"):
                    stationary = layout.prepare(b)
                    prepared[key] = stationary, Schedule(
                        k_tiles=compute_k_tiles(
                            stationary, acf_b, self.config.pe_buffer_entries
                        ),
                        rounds=compute_rounds(b.ncols, self.config.num_pes),
                    )
            stationary, schedule = prepared[key]
            out, report = self._run_vectorized(
                a, proto, layout, stationary, schedule, output
            )
        _GEMMS.inc()
        cycles = report.cycles
        for phase, amount in (
            ("load", cycles.load_cycles),
            ("stream", cycles.stream_cycles),
            ("compute", cycles.compute_cycles),
            ("drain", cycles.drain_cycles),
        ):
            if amount:
                _PHASE_CYCLES.inc(amount, phase=phase)
        return out, report

    # ------------------------------------------------- vectorized engine --
    def _run_vectorized(
        self, a, proto: StreamProtocol, layout: StationaryLayout,
        stationary, schedule, output: bool,
    ) -> tuple[np.ndarray | None, RunReport]:
        cfg = self.config
        w = cfg.bus_slots
        m, n = a.nrows, stationary.values.shape[1]
        bd, smask = stationary.values, stationary.stored
        out = np.zeros((m, n), dtype=np.float64) if output else None
        load_cycles = stream_cycles = 0
        issued = matched = compares = spills = 0
        entries_loaded_total = 0
        cam_grouped = layout.matcher != "direct" and proto.row_grouped

        tiles = proto.tile_entries(a, schedule.k_tiles)
        for (k_lo, k_hi), entries in zip(schedule.k_tiles, tiles):
            kt = k_hi - k_lo
            plan = pack_entries(*entries, proto.spec, w)
            tile_cycles = plan.total_cycles
            valid = plan.k >= 0  # padding slots never reach the datapath
            i_e = plan.i[valid]
            k_e = plan.k[valid] - k_lo
            v_e = plan.v[valid]
            num = len(v_e)
            if num:
                # Per-k processed / nonzero streamed-entry histograms and the
                # scatter views of the streamed tile.
                c_all = np.bincount(k_e, minlength=kt)
                c_nz = np.bincount(
                    k_e[v_e != 0.0], minlength=kt
                )
                if output:
                    s_vals = np.zeros((m, kt), dtype=np.float64)
                    s_vals[i_e, k_e] = v_e
                if cam_grouped:
                    pattern, active_k = _streamed_pattern(i_e, k_e, m, c_all)
                runs_all = 1 + int(np.count_nonzero(i_e[1:] != i_e[:-1]))
            else:
                c_all = c_nz = np.zeros(kt, dtype=np.int64)
                runs_all = 0

            for col_lo, col_hi in schedule.rounds:
                ncols = col_hi - col_lo
                sm_t = smask[k_lo:k_hi, col_lo:col_hi]
                loaded = layout.entry_cost * int(sm_t.sum())
                if loaded:
                    load_cycles += ceil_div(loaded, w)
                entries_loaded_total += loaded
                stream_cycles += tile_cycles
                if not num:
                    continue
                bd_t = bd[k_lo:k_hi, col_lo:col_hi]
                if output:
                    out[:, col_lo:col_hi] += s_vals @ bd_t
                if layout.matcher == "direct":
                    # Indexable buffers answer every streamed element.
                    issued += num * ncols
                    matched += int(np.dot(c_nz, (bd_t != 0.0).sum(axis=1)))
                    spills += runs_all * ncols
                else:
                    # Metadata (CAM) matching against the stored pattern.
                    stored_per_k = sm_t.sum(axis=1)
                    issued += int(np.dot(c_all, stored_per_k))
                    matched += int(np.dot(c_nz, stored_per_k))
                    compares += num * int(sm_t.sum())
                    if cam_grouped:
                        # Row-grouped streams open one Oreg run per
                        # (row with >= 1 metadata match, PE).  A float32
                        # GEMM of 0/1 operands is an exact nonzero test:
                        # a sum of positive terms never rounds to zero.
                        hits = pattern @ sm_t[active_k].astype(np.float32)
                        spills += int(np.count_nonzero(hits))
                    else:
                        spills += _interleaved_runs(i_e, k_e, sm_t)

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
        energy = self._energy(
            stream_cycles, entries_loaded_total, issued, compares, spills
        )
        return out, RunReport(cycles=cycles, energy=energy)

    # ------------------------------------------------------------- batch --
    def simulate_many(self, jobs: Sequence[SimJob]) -> list[RunReport]:
        """Simulate a batch of GEMMs in this process; one report per job,
        in input order.

        The batch returns reports only: its callers rank and calibrate on
        cycles and energy, so no output matrix is computed (use
        :meth:`run_gemm` for the product).  Each report equals
        ``run_gemm(*job)[1]``.  As in :meth:`run_gemm`, a COO or ELL
        streamed operand is extracted once per GEMM and split into its K
        tiles.

        Each piece of work is done once per batch.  Jobs are keyed by
        operand identity, ``(id(a), acf_a, id(b), acf_b)``: a repeated job
        simulates once and every repeat gets the first run's report back
        (the same object, not a copy).  Two equal-valued operands that are
        separate objects still simulate separately.  Each distinct
        stationary operand, ``(id(b), acf_b)``, is prepared and scheduled
        once and shared by every job that holds it.  *jobs* keeps the
        operands alive for the whole call, so their ids stay stable.

        The batches SAGE's cycle tier and the calibration build submit are
        a handful of GEMMs on small proxies, which a process pool would
        spend more on forking and result shipping than on simulation.
        Callers that need fan-out parallelize whole predictions or grid
        cells instead (:func:`~repro.util.pool.fork_map`).
        """
        done: dict[tuple, RunReport] = {}
        prepared: _Prepared = {}
        reports = []
        for a, acf_a, b, acf_b in jobs:
            key = (id(a), acf_a, id(b), acf_b)
            if key not in done:
                done[key] = self._gemm(
                    a, acf_a, b, acf_b, prepared, output=False
                )[1]
            reports.append(done[key])
        return reports

    # ----------------------------------------------------------- accounting
    def _energy(
        self,
        beat_cycles: int,
        entries_loaded: int,
        issued_macs: int,
        compares: int,
        spills: int,
    ) -> EnergyReport:
        from repro.accelerator.accounting import energy_report

        return energy_report(
            self.config,
            beat_cycles=beat_cycles,
            entries_loaded=entries_loaded,
            issued_macs=issued_macs,
            compares=compares,
            spills=spills,
        )

    # ---------------------------------------------------- convenience APIs --
    def stream_cycles_only(self, a: MatrixFormat, acf_a: Format) -> int:
        """Cycles to broadcast operand A once, untiled (the Fig. 6 number)."""
        return build_beat_plan(a, acf_a, self.config.bus_slots).total_cycles


def _streamed_pattern(
    i_e: np.ndarray, k_e: np.ndarray, m: int, c_all: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """0/1 float32 mask of the streamed (row, k) cells, compacted.

    Rows and reduction indices the tile never streams cannot open an Oreg
    run, so the mask keeps only active rows x active k.  Returns it with
    the active k indices (tile-local, ascending).
    """
    row_on = np.zeros(m, dtype=bool)
    row_on[i_e] = True
    k_on = c_all > 0
    pattern = np.zeros(
        (np.count_nonzero(row_on), np.count_nonzero(k_on)), dtype=np.float32
    )
    pattern[(np.cumsum(row_on) - 1)[i_e], (np.cumsum(k_on) - 1)[k_e]] = 1.0
    return pattern, np.flatnonzero(k_on)


def _interleaved_runs(
    i_e: np.ndarray, k_e: np.ndarray, sm_t: np.ndarray, chunk_cells: int = 1 << 22
) -> int:
    """Oreg spill runs for streams that interleave output rows (e.g. CSC).

    For each PE column, the matched subsequence is the streamed entries
    whose reduction index is stored in that column's buffer; a spill run
    starts at the first match and at every match whose row differs from
    the previous match.  Computed column-chunked to bound the (entries x
    columns) working set.
    """
    num = len(i_e)
    if not num:
        return 0
    ncols = sm_t.shape[1]
    step = max(1, chunk_cells // num)
    total = 0
    arange = np.arange(num, dtype=np.int64)[:, None]
    for lo in range(0, ncols, step):
        mask = sm_t[k_e, lo : lo + step]  # (entries, cols) matched pattern
        pos = np.where(mask, arange, -1)
        last = np.maximum.accumulate(pos, axis=0)
        prev = np.empty_like(last)
        prev[0] = -1
        prev[1:] = last[:-1]
        same = mask & (prev >= 0) & (i_e[prev] == i_e[:, None])
        total += int(mask.sum()) - int(same.sum())
    return total

