"""Test-only oracles of the streaming packer and the schedule.

:func:`pack_layout` is the greedy beat packer as a plain Python loop over
groups, one integer of state (the open beat's free slots) carried from
group to group.  ``repro.accelerator.stream`` computes the same layout by
composing per-group transition tables in log depth; the tests pin the two
equal.  :func:`compute_k_tiles`, :func:`build_schedule` and
:func:`stationary_entries_loaded` are the scheduler's whole-operand
views, which the simulator never needs: it builds its
:class:`~repro.accelerator.scheduler.Schedule` from the tiles and
(tile x column) counts of
:func:`~repro.accelerator.scheduler.plan_k_tiles` and from
:func:`~repro.accelerator.scheduler.compute_rounds`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.accelerator.protocols import (
    StationaryOperand,
    stationary_layout_for,
)
from repro.accelerator.scheduler import Schedule, compute_rounds, plan_k_tiles
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
    return plan_k_tiles(op, layout, capacity_entries)[0]


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
    return layout.entry_cost * int(layout.prepare(b).stored.sum())
