"""Test-only oracle: the per-beat PE model of the weight-stationary array.

:class:`~repro.accelerator.simulator.WeightStationarySimulator` reports
a GEMM from whole-operand statistics, one pass per operand.  The model
below is the seed simulator it replaced: each K tile's beats
materialized as :class:`Beat` objects (``build_beat_plan``) driving one
:class:`PE` object per stationary column, exactly as the Fig. 6
walkthrough describes the hardware.  It shares only the public
preparation, scheduling, extraction and energy helpers with the
simulator; its beats come from ``pack_entries``, which the simulator's
beat count does not call.  So ``test_protocols.py`` and
``test_stream_stats.py``, pinning the two report-identical, check the
statistics-derived spill, match, load and stream counts against the
per-beat semantics.  ``benchmarks/bench_simulate_many.py`` times it as
the baseline of the engine.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.accounting import energy_report
from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.protocols import stationary_layout_for
from repro.accelerator.report import CycleReport, RunReport
from repro.accelerator.scheduler import compute_rounds
from repro.accelerator.stream import build_beat_plan
from repro.errors import SimulationError
from repro.formats.base import MatrixFormat
from repro.formats.registry import Format
from repro.util.bits import ceil_div
from tests.accelerator._stream_oracle import compute_k_tiles, stored_mask


class PE:
    """One processing element with the Sec. IV flexible-ACF extensions.

    It holds one stationary column (Dense: all K values, zeros included;
    CSC: value + row-id metadata pairs in the flexibly partitioned buffer),
    matches incoming streamed elements against it — by direct index for
    Dense, by metadata comparison for CSC — and accumulates one output
    register (Oreg) that spills to the global output buffer whenever the
    output row (Rreg) changes.
    """

    def __init__(self, col_index: int) -> None:
        self.col_index = col_index
        self.stationary_format: Format | None = None
        self._dense_values: np.ndarray | None = None
        self._k_lo = 0
        self._csc_lookup: dict[int, float] | None = None
        self._meta_entries = 0
        # Output state registers (Rreg / Oreg of Fig. 6).
        self._current_row: int | None = None
        self._acc = 0.0
        # Statistics.
        self.issued_macs = 0
        self.matched_macs = 0
        self.compares = 0
        self.spills = 0
        self.contributions: list[tuple[int, float]] = []

    # ------------------------------------------------------------- loading --
    def load_dense(self, values: np.ndarray, k_lo: int) -> None:
        """Pin a dense column slice: buffer holds every value, zeros too."""
        self.stationary_format = Format.DENSE
        self._dense_values = np.asarray(values, dtype=np.float64)
        self._k_lo = k_lo
        self._csc_lookup = None
        self._meta_entries = 0

    def load_csc(self, row_ids: np.ndarray, values: np.ndarray) -> None:
        """Pin a CSC column slice: nonzeros plus row-id metadata."""
        self.stationary_format = Format.CSC
        self._csc_lookup = {
            int(r): float(v) for r, v in zip(row_ids, values)
        }
        self._meta_entries = len(self._csc_lookup)
        self._dense_values = None

    @property
    def footprint_entries(self) -> int:
        """Buffer entries consumed by the current stationary slice."""
        if self.stationary_format is Format.DENSE:
            assert self._dense_values is not None
            return len(self._dense_values)
        if self.stationary_format is Format.CSC:
            return 2 * self._meta_entries
        return 0

    # ------------------------------------------------------------ matching --
    def process(self, i: int, k: int, value: float) -> None:
        """Consume one streamed element (output row i, reduction index k).

        ``k < 0`` marks a padding slot of a fixed-width ACF (e.g. ELL): it
        occupied a bus slot but carries no element, so the PE discards it
        without issuing a MAC, comparing metadata or touching Rreg/Oreg.
        """
        if k < 0:
            return
        if self.stationary_format is Format.DENSE:
            assert self._dense_values is not None
            stationary = float(self._dense_values[k - self._k_lo])
            # Dense buffers answer every index: a MAC is always issued, even
            # on zero operands — that is the utilization loss of dense ACFs.
            self._accumulate(i, value * stationary)
            self.issued_macs += 1
            if value != 0.0 and stationary != 0.0:
                self.matched_macs += 1
        elif self.stationary_format is Format.CSC:
            assert self._csc_lookup is not None
            # The metadata comparators check the incoming k against every
            # stored row id in parallel (CAM-style).
            self.compares += self._meta_entries
            stationary = self._csc_lookup.get(int(k))
            if stationary is not None:
                self._accumulate(i, value * stationary)
                self.issued_macs += 1
                if value != 0.0:
                    self.matched_macs += 1
        else:
            raise SimulationError("PE has no stationary operand loaded")

    def _accumulate(self, i: int, product: float) -> None:
        if self._current_row is None:
            self._current_row = i
            self._acc = product
        elif i == self._current_row:
            self._acc += product
        else:
            self._spill()
            self._current_row = i
            self._acc = product

    def _spill(self) -> None:
        assert self._current_row is not None
        self.contributions.append((self._current_row, self._acc))
        self.spills += 1

    def flush(self) -> None:
        """End-of-round: write back the open output register, if any."""
        if self._current_row is not None:
            self._spill()
        self._current_row = None
        self._acc = 0.0


def reference_gemm(
    config: AcceleratorConfig,
    a: MatrixFormat,
    acf_a: Format,
    b: MatrixFormat,
    acf_b: Format,
) -> tuple[np.ndarray, RunReport]:
    """``O = A @ B`` beat by beat through per-column :class:`PE` models.

    Same signature and result as ``WeightStationarySimulator(config)
    .run_gemm(a, acf_a, b, acf_b)``, for the Dense and CSC stationary
    layouts the PE models.
    """
    layout = stationary_layout_for(acf_b)
    if layout.format not in (Format.DENSE, Format.CSC):
        raise SimulationError(
            f"the reference engine models Dense/CSC PE buffers only, "
            f"not {layout.format}"
        )
    stationary = layout.prepare(b)
    stored = stored_mask(stationary)
    k_tiles = compute_k_tiles(stationary, acf_b, config.pe_buffer_entries)
    rounds = compute_rounds(b.ncols, config.num_pes)
    m, n = a.nrows, stationary.shape[1]
    out = np.zeros((m, n), dtype=np.float64)
    load_cycles = stream_cycles = 0
    issued = matched = compares = spills = 0
    entries_loaded_total = 0

    for k_lo, k_hi in k_tiles:
        # Beats are identical across rounds of the same tile; enumerate
        # once and replay per round.
        plan = build_beat_plan(a, acf_a, config.bus_slots, (k_lo, k_hi))
        tile_beats = list(plan.iter_beats())
        tile_beat_cycles = sum(bt.cycles for bt in tile_beats)
        for col_lo, col_hi in rounds:
            pes: list[PE] = []
            entries_loaded = 0
            for j in range(col_lo, col_hi):
                pe = PE(j)
                if layout.format is Format.DENSE:
                    pe.load_dense(stationary.values[k_lo:k_hi, j], k_lo)
                else:
                    rows = np.flatnonzero(stored[k_lo:k_hi, j])
                    pe.load_csc(rows + k_lo, stationary.values[rows + k_lo, j])
                entries_loaded += pe.footprint_entries
                pes.append(pe)
            if entries_loaded:
                load_cycles += ceil_div(entries_loaded, config.bus_slots)
            entries_loaded_total += entries_loaded

            for beat in tile_beats:
                for i, k, v in beat.entries:
                    for pe in pes:
                        pe.process(i, k, v)
            stream_cycles += tile_beat_cycles

            for pe in pes:
                pe.flush()
                for i, contribution in pe.contributions:
                    out[i, pe.col_index] += contribution
                issued += pe.issued_macs
                matched += pe.matched_macs
                compares += pe.compares
                spills += pe.spills

    cycles = CycleReport(
        load_cycles=load_cycles,
        stream_cycles=stream_cycles,
        drain_cycles=ceil_div(spills, config.bus_slots) if spills else 0,
        compute_cycles=ceil_div(issued, config.total_macs) if issued else 0,
        rounds=len(rounds),
        k_tiles=len(k_tiles),
        issued_macs=issued,
        matched_macs=matched,
        output_spills=spills,
    )
    energy = energy_report(
        config,
        beat_cycles=stream_cycles,
        entries_loaded=entries_loaded_total,
        issued_macs=issued,
        compares=compares,
        spills=spills,
    )
    return out, RunReport(cycles=cycles, energy=energy)
