"""Test-only oracles of the streaming packer and the schedule.

:func:`pack_layout` is the greedy beat packer as a plain Python loop over
groups, one integer of state (the open beat's free slots) carried from
group to group.  ``repro.accelerator.stream`` computes the same layout by
composing per-group transition tables in log depth; the tests pin the two
equal.

:func:`plan_k_tiles_from_mask` and :func:`stationary_sums` derive the
K tiling and the stationary statistics of a prepared operand from its
dense (K x N) stored mask, one segment sum over the mask per candidate
tiling; the simulator derives the same from the stored positions
(:func:`~repro.accelerator.scheduler.plan_k_tiles` and
``simulator._Stationary``), and the tests pin the two equal.
:func:`compute_k_tiles`, :func:`build_schedule` and
:func:`stationary_entries_loaded` are the scheduler's whole-operand
views over the mask derivation, which the simulator never needs.
:func:`stored_mask` builds that mask from the stored positions.

:func:`pattern_runs` counts the CAM spill runs of a row-grouped stream
with one float32 pattern GEMM per K tile against the stored mask; the
simulator counts them from per-k column bitsets in one keyed pass
(``simulator._pattern_runs``), and the tests pin the two equal.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.protocols import (
    StationaryLayout,
    StationaryOperand,
    stationary_layout_for,
)
from repro.accelerator.scheduler import Schedule, compute_rounds
from repro.accelerator.stream import StreamSpec
from repro.errors import SchedulingError
from repro.formats.base import MatrixFormat
from repro.formats.registry import Format


def pack_layout(
    sizes: Sequence[int], es: int, ss: int, bus_slots: int
) -> tuple[list[int], list[int], int, int]:
    """Greedy per-group packing layout: ``(first_beat, first_take, epb, beats)``.

    Entries fill the open beat while their slots (plus their group's
    header, if the group is not yet in the beat) fit; a group spanning
    several beats pays its header in each.  ``first_take`` is how many of
    a group's entries land in its first beat; every continuation beat
    carries ``epb`` entries except the last.  Groups must be nonempty and
    ``es + ss <= bus_slots``.
    """
    epb = (bus_slots - ss) // es
    first_beat: list[int] = []
    first_take: list[int] = []
    beat = 0
    free = bus_slots
    any_entries = False
    for n in sizes:
        n = int(n)
        if free < ss + es:
            beat += 1
            free = bus_slots
        take = (free - ss) // es
        if take > n:
            take = n
        first_beat.append(beat)
        first_take.append(take)
        free -= ss + take * es
        rem = n - take
        if rem:
            more = -(-rem // epb)  # ceil
            last = rem - (more - 1) * epb
            beat += more
            free = bus_slots - ss - last * es
        any_entries = True
    return first_beat, first_take, epb, (beat + 1 if any_entries else 0)


def stream_cycle_count(
    group_sizes: Sequence[int] | np.ndarray,
    spec: StreamSpec,
    bus_slots: int,
) -> int:
    """Bus cycles to stream the given per-group entry counts once.

    For ungrouped specs (COO) pass a single total as ``[total]``.
    """
    sizes = np.asarray(group_sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    if not len(sizes):
        return 0
    es, ss = spec.entry_slots, spec.shared_slots
    if es + ss > bus_slots:
        return int(sizes.sum()) * spec.span_cycles(bus_slots)
    *_rest, beats = pack_layout(sizes.tolist(), es, ss, bus_slots)
    return beats


def stored_mask(op: StationaryOperand) -> np.ndarray:
    """(K, N) bool: the buffer-resident positions of a prepared operand."""
    if op.positions is None:
        return np.ones(op.shape, dtype=bool)
    mask = np.zeros(op.shape, dtype=bool)
    mask[op.positions] = True
    return mask


def _active(index: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of *index* (ascending) and each entry's
    position among them."""
    on = np.zeros(size, dtype=bool)
    on[index] = True
    return np.flatnonzero(on), (np.cumsum(on) - 1)[index]


def pattern_runs(entries, m: int, op: StationaryOperand) -> int:
    """Oreg runs of a row-grouped stream against a metadata buffer.

    *entries* are a statistics pass's ``(i, k, tile, v)``.  Each row of
    a tile opens one run per PE column that stores a k the row streams
    in that tile.  Per tile, a float32 GEMM of the 0/1 streamed pattern
    (active rows x active k) and the stored mask counts those (row,
    column) pairs exactly: a sum of positive terms never rounds to zero.
    """
    i, k, tile, _v = entries
    if not len(k):
        return 0
    stored = stored_mask(op)
    spills = 0
    for t in np.unique(tile):
        sel = tile == t
        rows, row_at = _active(i[sel], m)
        ks, k_at = _active(k[sel], stored.shape[0])
        pattern = np.zeros((len(rows), len(ks)), dtype=np.float32)
        pattern[row_at, k_at] = 1
        hits = pattern @ stored[ks].astype(np.float32)
        spills += int(np.count_nonzero(hits))
    return spills


def _uniform_tiles(k: int, num_tiles: int) -> tuple[tuple[int, int], ...]:
    """Split [0, k) into *num_tiles* near-equal contiguous ranges."""
    bounds = np.linspace(0, k, num_tiles + 1, dtype=np.int64)
    return tuple((int(bounds[t]), int(bounds[t + 1])) for t in range(num_tiles))


def column_counts(
    stored: np.ndarray, tiles: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """Stored positions per (tile, column), shape ``(num_tiles, N)``."""
    if not stored.size:
        return np.zeros((len(tiles), stored.shape[1]), dtype=np.int64)
    starts = [lo for lo, _hi in tiles]
    return np.add.reduceat(stored, starts, axis=0, dtype=np.int64)


def plan_k_tiles_from_mask(
    stored: np.ndarray, layout: StationaryLayout, capacity_entries: int
) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """Minimal uniform K-tiling so every (tile, column) footprint fits,
    with its ``(num_tiles, N)`` counts, from the (K, N) stored mask."""
    k = stored.shape[0]
    per_col = stored.sum(axis=0)
    max_footprint = (
        layout.entry_cost * int(per_col.max()) if per_col.size else 0
    )
    num = max(1, -(-max_footprint // capacity_entries))
    while num <= max(k, 1):
        tiles = _uniform_tiles(k, num)
        counts = column_counts(stored, tiles)
        if layout.entry_cost * counts.max(initial=0) <= capacity_entries:
            return tiles, counts
        num += 1
    raise SchedulingError(
        f"PE buffer of {capacity_entries} entries cannot hold even a "
        f"single-k {layout.format} column slice"
    )


def stationary_sums(
    op: StationaryOperand, layout: StationaryLayout,
    config: AcceleratorConfig,
) -> dict:
    """Schedule and per-k / per-tile / per-(tile, round) statistics of a
    prepared operand, from its dense stored mask."""
    stored = stored_mask(op)
    tiles, per_tile_col = plan_k_tiles_from_mask(
        stored, layout, config.pe_buffer_entries
    )
    rounds = compute_rounds(stored.shape[1], config.num_pes)
    per_k = stored.sum(axis=1, dtype=np.int64)
    round_starts = [lo for lo, _hi in rounds]
    loaded = layout.entry_cost * (
        np.add.reduceat(per_tile_col, round_starts, axis=1)
        if stored.shape[1] else per_tile_col
    )
    return {
        "schedule": Schedule(k_tiles=tiles, rounds=rounds),
        "per_k": per_k,
        "per_tile": per_tile_col.sum(axis=1),
        "cols_per_tile": np.count_nonzero(per_tile_col, axis=1),
        "match_per_k": (
            np.count_nonzero(op.values, axis=1)
            if layout.matcher == "direct" else per_k
        ),
        "entries_loaded": int(loaded.sum()),
        "load_cycles": int((-(-loaded // config.bus_slots)).sum()),
    }


def compute_k_tiles(
    b: MatrixFormat | StationaryOperand,
    acf_b: Format,
    capacity_entries: int,
) -> tuple[tuple[int, int], ...]:
    """Minimal uniform K-tiling so every (column, tile) footprint fits.

    Accepts either the stationary operand object or an already-prepared
    :class:`~repro.accelerator.protocols.StationaryOperand` view.
    """
    layout = stationary_layout_for(acf_b)
    op = b if isinstance(b, StationaryOperand) else layout.prepare(b)
    return plan_k_tiles_from_mask(stored_mask(op), layout, capacity_entries)[0]


def build_schedule(
    b: MatrixFormat, acf_b: Format, capacity_entries: int, num_pes: int
) -> Schedule:
    """Full (tiles x rounds) schedule for stationary operand *b*."""
    if capacity_entries < 1:
        raise SchedulingError("PE buffer must hold at least one entry")
    return Schedule(
        k_tiles=compute_k_tiles(b, acf_b, capacity_entries),
        rounds=compute_rounds(b.ncols, num_pes),
    )


def stationary_entries_loaded(b: MatrixFormat, acf_b: Format) -> int:
    """Total buffer entries written while loading B across all tiles and
    rounds.

    Every column is loaded once per tile that intersects it, and each
    stored position belongs to exactly one tile, so the total depends on
    neither the tiling nor the rounds.
    """
    layout = stationary_layout_for(acf_b)
    return layout.entry_cost * int(stored_mask(layout.prepare(b)).sum())
