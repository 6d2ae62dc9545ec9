"""Cycle-level functional simulator of the weight-stationary accelerator.

Executes ``O = A @ B`` (GEMM / SpMM / SpGEMM / SpMV are all this, per
Fig. 2) under any registered ACF pair, producing both the numerical output
and a :class:`~repro.accelerator.report.RunReport` (:meth:`run_gemm`), or
the reports alone for a batch (:meth:`simulate_many`).

The simulator is the operational ground truth of the greedy bus packer
(:mod:`repro.accelerator.stream`), the metadata matching in each PE and
the (k-tile x round) schedule (:mod:`repro.accelerator.scheduler`).
Which ACFs can stream or sit stationary is decided by the protocol
registries of :mod:`repro.accelerator.protocols` — adding a format there
is enough for it to run here.

A GEMM's report comes from one statistics pass per operand, not from an
entry stream per K tile: the streamed operand's
:class:`~repro.accelerator.stream.StreamStats` (per-k entry histograms,
per-tile row runs, bus groups) and the stationary operand's per-k and
per-(tile, round) stored counts, taken once per prepared operand from
its stored positions (from its shape alone when, as for Dense, every
position is stored).  The K tiles partition K and the rounds partition
the columns, so issued, matched and compared MACs are dot products over
K, loads a segment sum, and the stream's beats a composition of
per-group packer transition tables.  A batch (:meth:`simulate_many`)
keeps only each GEMM's bus groups once its statistics are taken and
counts the beats of all its GEMMs in one
:func:`~repro.accelerator.stream.count_beats_many` call; :meth:`run_gemm`
makes the same call for its one GEMM.  The output product
(:meth:`run_gemm`) comes from the same pass: one scatter of the
statistics' entries and one matmul against the stationary values, which
is what the PEs accumulate tile by tile and round by round; only it
builds the dense stationary values.  Beyond that, entries are looked at
only for the CAM spill runs of a sparse row-grouped stream (one keyed
pass over all tiles ORing per-k column bitsets, integer ops only) and
for the spill runs of a stream that interleaves rows (CSC).
The reports are pinned by the test suite against a per-beat PE model and
a Python greedy packer kept there as oracles, along with the Fig. 6
walkthrough's 8 / 3 / 4 streaming cycles and the closed-form analytical
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.protocols import (
    StationaryLayout,
    StreamProtocol,
    stationary_layout_for,
    stream_protocol_for,
    streamable_formats,
)
from repro.accelerator.report import CycleReport, EnergyReport, RunReport
from repro.accelerator.scheduler import (
    Schedule,
    compute_rounds,
    plan_k_tiles,
)
from repro.accelerator.stream import BeatJob, StreamStats, count_beats_many
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


class _Stationary:
    """One prepared stationary operand: its buffers, its schedule and the
    per-k / per-tile statistics every GEMM against it reads.

    Built once per ``(id(b), acf_b)``; nothing in it depends on the
    streamed operand.  Every count comes from the operand's stored
    positions (from its shape when every position is stored), not from
    a dense mask.
    """

    def __init__(
        self, layout: StationaryLayout, b: MatrixFormat,
        config: AcceleratorConfig,
    ) -> None:
        self.operand = operand = layout.prepare(b)
        tiles, per_tile_col = plan_k_tiles(
            operand, layout, config.pe_buffer_entries
        )
        self.schedule = Schedule(
            k_tiles=tiles, rounds=compute_rounds(b.ncols, config.num_pes)
        )
        if layout.matcher != "direct" and operand.positions is None:
            raise SimulationError(
                f"{layout.format} matches by metadata, so its prepare hook "
                "must return the stored positions"
            )
        k, n = operand.shape
        self.bounds = np.asarray([lo for lo, _hi in tiles] + [k])
        #: stored positions per reduction index, over every column.
        self.per_k = (
            np.full(k, n, dtype=np.int64) if operand.positions is None
            else np.bincount(operand.positions[0], minlength=k)
        )
        #: stored positions per K tile, and columns with at least one.
        self.per_tile = per_tile_col.sum(axis=1)
        self.cols_per_tile = np.count_nonzero(per_tile_col, axis=1)
        #: stationary entries a streamed nonzero can match, per k: the
        #: nonzero values of an indexable buffer, else every stored one.
        self.match_per_k = (
            np.count_nonzero(operand.values, axis=1)
            if layout.matcher == "direct" else self.per_k
        )
        # Every (tile, round) loads its slice of the buffers once.
        round_starts = [lo for lo, _hi in self.schedule.rounds]
        loaded = layout.entry_cost * (
            np.add.reduceat(per_tile_col, round_starts, axis=1)
            if n else per_tile_col
        )
        self.entries_loaded = int(loaded.sum())
        self.load_cycles = int((-(-loaded // config.bus_slots)).sum())

    @cached_property
    def column_words(self) -> np.ndarray:
        """(K, ceil(N / 64)) uint64 column bitsets of a metadata buffer:
        bit ``c % 64`` of word ``c // 64`` of row k is set when column c
        stores k.  Built from the stored positions on first read."""
        k, n = self.operand.shape
        width = -(-n // 64)
        words = np.zeros(k * width, dtype=np.uint64)
        pos_k, col = self.operand.positions
        slot = pos_k * width + (col >> 6)
        if len(slot):
            # Row-major positions: each word's bits are adjacent.
            starts = np.flatnonzero(
                np.concatenate(([True], slot[1:] != slot[:-1]))
            )
            bits = np.left_shift(np.uint64(1), (col & 63).astype(np.uint64))
            words[slot[starts]] = np.bitwise_or.reduceat(bits, starts)
        return words.reshape(k, width)


#: Prepared stationary operands, by (id(b), acf_b).
_Prepared = dict[tuple[int, Format], _Stationary]


@dataclass(frozen=True)
class _Pending:
    """One GEMM's report but for its stream beats, which are counted for
    a whole batch at once: the stream's bus groups and every other
    report input."""

    groups: BeatJob
    rounds: int
    k_tiles: int
    load_cycles: int
    entries_loaded: int
    issued: int
    matched: int
    compares: int
    spills: int


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
        pending, out = self._gemm(a, acf_a, b, acf_b, {}, output=True)
        (report,) = self._reports([pending])
        return out, report

    def _gemm(
        self,
        a: MatrixFormat,
        acf_a: Format,
        b: MatrixFormat,
        acf_b: Format,
        prepared: _Prepared,
        *,
        output: bool,
    ) -> tuple[_Pending, np.ndarray | None]:
        """Validate, prepare the stationary side unless *prepared* already
        holds it (keyed by ``(id(b), acf_b)``), then take the GEMM's
        statistics: its report but for the beats, and its output when
        *output* is set (``None`` otherwise)."""
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
                    prepared[key] = _Stationary(layout, b, self.config)
            return self._measure(a, proto, layout, prepared[key], output)

    # ------------------------------------------------- vectorized engine --
    def _measure(
        self, a, proto: StreamProtocol, layout: StationaryLayout,
        st: _Stationary, output: bool,
    ) -> tuple[_Pending, np.ndarray | None]:
        """One GEMM's report inputs, and its product when *output* is set,
        from whole-operand statistics.

        Every streamed statistic is taken once per operand
        (:meth:`~repro.accelerator.protocols.StreamProtocol.stream_stats`)
        and every stationary one once per prepared operand, so the K
        tiles and column rounds only enter as segment sums: the tiles
        partition K and the rounds partition the columns.  Of the
        statistics only the bus groups outlive the call.
        """
        n = st.operand.shape[1]
        stats = proto.stream_stats(a, st.schedule.k_tiles)
        num = int(stats.c_all.sum())
        if layout.matcher == "direct":
            # Indexable buffers answer every streamed element.
            issued = num * n
            matched = int(np.dot(stats.c_nz, st.match_per_k))
            compares = 0
            spills = int(stats.runs.sum()) * n
        else:
            # Metadata (CAM) matching against the stored pattern.
            issued = int(np.dot(stats.c_all, st.per_k))
            matched = int(np.dot(stats.c_nz, st.per_k))
            # Each entry is compared against its tile's stored positions.
            upto = np.concatenate(([0], np.cumsum(stats.c_all)))
            compares = int(np.dot(np.diff(upto[st.bounds]), st.per_tile))
            if not proto.row_grouped:
                spills = _interleaved_runs(stats.entries, st)
            elif stats.entries is None:
                # Every row streams every k of its tiles, so it opens one
                # Oreg run per PE column holding anything of the tile.
                spills = int(np.dot(stats.runs, st.cols_per_tile))
            else:
                spills = _pattern_runs(stats.entries, st)
        pending = _Pending(
            groups=(*stats.groups, proto.spec),
            rounds=st.schedule.num_rounds,
            k_tiles=st.schedule.num_tiles,
            load_cycles=st.load_cycles,
            entries_loaded=st.entries_loaded,
            issued=issued,
            matched=matched,
            compares=compares,
            spills=spills,
        )
        return pending, _output(a, stats, st) if output else None

    def _reports(self, pending: Sequence[_Pending]) -> list[RunReport]:
        """The reports of *pending* GEMMs, their beats counted in one
        :func:`~repro.accelerator.stream.count_beats_many` call."""
        cfg = self.config
        beats = count_beats_many([p.groups for p in pending], cfg.bus_slots)
        reports = []
        for p, stream_beats in zip(pending, beats.tolist()):
            stream_cycles = p.rounds * stream_beats
            cycles = CycleReport(
                load_cycles=p.load_cycles,
                stream_cycles=stream_cycles,
                drain_cycles=ceil_div(p.spills, cfg.bus_slots),
                compute_cycles=ceil_div(p.issued, cfg.total_macs),
                rounds=p.rounds,
                k_tiles=p.k_tiles,
                issued_macs=p.issued,
                matched_macs=p.matched,
                output_spills=p.spills,
            )
            energy = self._energy(
                stream_cycles, p.entries_loaded, p.issued, p.compares,
                p.spills,
            )
            reports.append(RunReport(cycles=cycles, energy=energy))
            _GEMMS.inc()
            for phase, amount in (
                ("load", cycles.load_cycles),
                ("stream", cycles.stream_cycles),
                ("compute", cycles.compute_cycles),
                ("drain", cycles.drain_cycles),
            ):
                if amount:
                    _PHASE_CYCLES.inc(amount, phase=phase)
        return reports

    # ------------------------------------------------------------- batch --
    def simulate_many(self, jobs: Sequence[SimJob]) -> list[RunReport]:
        """Simulate a batch of GEMMs in this process; one report per job,
        in input order.

        The batch returns reports only: its callers rank and calibrate on
        cycles and energy, so no output matrix is computed (use
        :meth:`run_gemm` for the product).  Each report equals
        ``run_gemm(*job)[1]``.  As in :meth:`run_gemm`, each streamed
        operand's statistics are taken in one pass per GEMM; no entry
        stream is built per K tile.  The stream beats of every GEMM are
        then counted in one call for the whole batch.

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
        Callers that need fan-out parallelize whole grid cells instead
        (:func:`~repro.util.pool.fork_map`).
        """
        pending: dict[tuple, _Pending] = {}
        prepared: _Prepared = {}
        keys = []
        for a, acf_a, b, acf_b in jobs:
            key = (id(a), acf_a, id(b), acf_b)
            keys.append(key)
            if key not in pending:
                pending[key] = self._gemm(
                    a, acf_a, b, acf_b, prepared, output=False
                )[0]
        done = dict(zip(pending, self._reports(list(pending.values()))))
        return [done[key] for key in keys]

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
        proto = stream_protocol_for(acf_a)
        stats = proto.stream_stats(a, ((0, a.ncols),))
        return stats.beats(proto.spec, self.config.bus_slots)


def _output(a, stats: StreamStats, st: _Stationary) -> np.ndarray:
    """``O = A @ B`` from the streamed entries the statistics pass read.

    The PEs accumulate each K tile's entries against each round's
    columns; the tiles partition K and the rounds partition the columns,
    so that sum is one product of the streamed block (only the rows and
    reduction indices that stream anything) and the stationary values.
    """
    bd = st.operand.values
    if stats.entries is None:  # Dense: every row streams every k
        return a.values @ bd
    i, k, _tile, v = stats.entries
    rows, row_at = _active(i, a.nrows)
    ks, k_at = _active(k, bd.shape[0])
    s_vals = np.zeros((len(rows), len(ks)), dtype=np.float64)
    s_vals[row_at, k_at] = v
    out = np.zeros((a.nrows, bd.shape[1]), dtype=np.float64)
    out[rows] = s_vals @ bd[ks]
    return out


def _active(index: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of *index* (ascending) and each entry's
    position among them."""
    on = np.zeros(size, dtype=bool)
    on[index] = True
    return np.flatnonzero(on), (np.cumsum(on) - 1)[index]


def _by_tile(entries):
    """Entries regrouped tile by tile (stable), with each tile's slice."""
    i, k, tile, _v = entries
    order = np.argsort(tile, kind="stable")
    bounds = np.searchsorted(tile[order], np.arange(int(tile.max()) + 2))
    return i[order], k[order], tile[order], bounds


def _pattern_runs(entries, st: _Stationary) -> int:
    """Oreg runs of a row-grouped stream against a metadata buffer.

    Each row of a tile opens one run per PE column that stores a k the
    row streams in that tile: the columns set in the OR of those k's
    :attr:`~_Stationary.column_words`.  Entries are keyed by (row,
    tile), which a stream listing each row's k in ascending order
    already visits in order (sorted otherwise); one ``reduceat`` ORs
    every key's words and a popcount sums the runs.
    """
    i, k, tile, _v = entries
    if not len(k):
        return 0
    key = i * st.schedule.num_tiles + tile
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        key, k = key[order], k[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    hits = np.bitwise_or.reduceat(st.column_words[k], starts, axis=0)
    return int(np.bitwise_count(hits).sum(dtype=np.int64))


def _interleaved_runs(entries, st: _Stationary) -> int:
    """Oreg runs of a stream that interleaves output rows (e.g. CSC).

    For each (tile, PE column) the matched subsequence is the tile's
    entries whose k the column stores; a run starts at its first entry
    and at every entry whose row differs from the previous one's.  So
    runs are matches minus continuations.  Adjacent entries with the same
    k match the same columns, so the stream is cut into blocks of equal
    k: inside a block a continuation counts once per column storing k;
    across blocks, for each column, consecutive matched blocks of one
    tile continue when the first's last row is the second's first row.
    That needs one (block, column) pair per stored position a block's k
    has, not an (entry x column) mask.
    """
    if not len(entries[0]):
        return 0
    i, k, tile, _bounds = _by_tile(entries)
    per_k = st.per_k
    runs = int(per_k[k].sum())
    same_k = (k[1:] == k[:-1]) & (tile[1:] == tile[:-1])
    runs -= int(per_k[k[1:]][same_k & (i[1:] == i[:-1])].sum())
    first = np.flatnonzero(np.concatenate(([True], ~same_k)))
    last = np.concatenate((first[1:], [len(k)])) - 1
    block_k = k[first]
    # Each block's matched columns, block-major, then stably by column.
    fan = per_k[block_k]
    stored_col = st.operand.positions[1]
    k_start = np.concatenate(([0], np.cumsum(per_k)))[block_k]
    block = np.repeat(np.arange(len(first)), fan)
    offset = np.arange(len(block)) - np.repeat(np.cumsum(fan) - fan, fan)
    col = stored_col[np.repeat(k_start, fan) + offset]
    order = np.argsort(col, kind="stable")
    block, col = block[order], col[order]
    prev, nxt = block[:-1], block[1:]
    runs -= int(np.count_nonzero(
        (col[1:] == col[:-1])
        & (tile[first][nxt] == tile[first][prev])
        & (i[first][nxt] == i[last][prev])
    ))
    return runs
