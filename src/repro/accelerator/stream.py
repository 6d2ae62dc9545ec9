"""Bus beat packing per Algorithm Compression Format.

Sec. IV-B's walkthrough fixes the streaming rules this module implements.
The bus carries ``W`` element slots per cycle (metadata and data slots are
interchangeable, selected by the Sec. IV flag extension).  Each ACF defines
the slot cost of one streamed entry and of a per-group shared header:

* **Dense** — 1 slot per value (zeros included, Fig. 6a) + 1 shared row id
  per row per beat;
* **CSR**   — 2 slots per (value, col id) + 1 shared row id per row per
  beat; Fig. 6b: "if the row id is not common among both data, it must be
  broken up" — i.e. a beat may carry several rows only if every row's
  header fits, which at W=5 it cannot;
* **CSC**   — CSR mirrored column-wise;
* **COO**   — 3 slots per (value, col id, row id), no shared header;
* **ELL**   — 2 slots per (value, col id) like CSR, but every row streams
  its full fixed width, padding slots included (the ELL trade-off);
* **CSF**   — (matricized 3-D tensors) 2 shared fiber coordinates + 2 slots
  per (value, leaf id);
* **COO3**  — 4 slots per (value, x, y, z).

Which ACFs stream, with what slot costs and which entry extraction, is no
longer hard-coded here: it lives in the **streaming-protocol registry**
(:mod:`repro.accelerator.protocols`), mirroring the conversion-graph
registry of :mod:`repro.mint.graph`.  This module owns the format-agnostic
machinery: the :class:`StreamSpec` slot algebra, the **vectorized packer**
producing array-resident :class:`BeatPlan` objects (a single O(#groups)
integer scan for beat boundaries; all per-entry work is numpy prefix-sum /
segment ops — no per-entry Python loops), and the closed-form estimate.

Packing is greedy and order-preserving: entries fill the current beat as
long as their slots (plus their group's header, if the group is not yet
present in the beat) fit; otherwise a new beat starts.  A group spanning
several beats pays its header in each.  On the Fig. 6 operands (W=5) this
yields exactly 8 / 3 / 4 cycles for Dense / CSR / COO, which the test
suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.formats.base import MatrixFormat
from repro.formats.registry import Format
from repro.util.bits import ceil_div

#: Reduction-coordinate sentinel for padding slots (fixed-width ACFs such
#: as ELL stream them; PEs discard them without issuing a MAC).
PAD_K = -1


@dataclass(frozen=True)
class StreamSpec:
    """Slot cost of one streamed entry and of its per-group shared header."""

    entry_slots: int
    shared_slots: int
    grouped: bool

    def entries_per_beat(self, bus_slots: int) -> int:
        """Entries fitting an empty beat (0 = one entry spans many beats)."""
        return max(0, (bus_slots - self.shared_slots) // self.entry_slots)

    def span_cycles(self, bus_slots: int) -> int:
        """Beats one over-wide entry occupies."""
        return ceil_div(self.entry_slots + self.shared_slots, bus_slots)


def stream_spec_for(fmt: Format, *, tensor: bool = False) -> StreamSpec:
    """Return the streaming spec for an ACF (matrix by default).

    Delegates to the streaming-protocol registry; unsupported formats raise
    :class:`~repro.errors.SimulationError` naming the registered ACFs.
    """
    from repro.accelerator.protocols import stream_protocol_for

    return stream_protocol_for(fmt, tensor=tensor).spec


# --------------------------------------------------------------------------
# vectorized greedy packer (single source of truth for beat boundaries)
# --------------------------------------------------------------------------


def _pack_layout(
    sizes: Sequence[int], es: int, ss: int, bus_slots: int
) -> tuple[list[int], list[int], int, int]:
    """Greedy per-group packing layout: ``(first_beat, first_take, epb, beats)``.

    The only sequential state the greedy packer carries between groups is
    one integer (the open beat's free slots), so this scan is O(#groups)
    in plain Python ints; everything per-entry is done vectorized on top
    of the returned layout.  ``first_take`` is how many of a group's
    entries land in its first beat; all continuation beats carry ``epb``
    entries except the last.
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


def _entry_beats(
    sizes: np.ndarray, first_beat: np.ndarray, first_take: np.ndarray, epb: int
) -> np.ndarray:
    """Per-entry beat index from the per-group layout (pure segment ops)."""
    total = int(sizes.sum())
    group_start = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=group_start[1:])
    t_in_group = np.arange(total, dtype=np.int64) - np.repeat(group_start, sizes)
    b0 = np.repeat(first_beat, sizes)
    over = t_in_group - np.repeat(first_take, sizes)
    return np.where(over < 0, b0, b0 + 1 + over // max(1, epb))


@dataclass(frozen=True)
class Beat:
    """One bus cycle's worth of streamed entries.

    ``entries`` holds (i, k, value) triples: output-row coordinate,
    reduction coordinate and data value of each element on the bus
    (``k == PAD_K`` marks a padding slot of a fixed-width ACF).
    ``cycles`` > 1 models a single wide entry spanning several bus beats.
    """

    entries: tuple[tuple[int, int, float], ...]
    cycles: int = 1


@dataclass(frozen=True)
class BeatPlan:
    """Array-resident beat packing of one streamed operand (or k-tile).

    The plan is what the vectorized simulator consumes: parallel entry
    arrays in stream order plus each entry's owning beat — no Python-object
    beats on the hot path.  ``k == PAD_K`` entries are padding slots: they
    occupy bus slots (and therefore cycles) but are discarded by the PEs.
    """

    i: np.ndarray  # int64 output-row coordinate per entry
    k: np.ndarray  # int64 reduction coordinate per entry (PAD_K = padding)
    v: np.ndarray  # float64 data value per entry
    entry_beat: np.ndarray  # int64 owning beat per entry (non-decreasing)
    beat_cycles: np.ndarray  # int64 bus cycles per beat
    spec: StreamSpec
    bus_slots: int

    @property
    def num_entries(self) -> int:
        """Streamed entries, padding slots included."""
        return len(self.v)

    @property
    def num_beats(self) -> int:
        """Packed beat count."""
        return len(self.beat_cycles)

    @property
    def total_cycles(self) -> int:
        """Bus cycles to stream the whole plan."""
        return int(self.beat_cycles.sum())

    def iter_beats(self) -> Iterator[Beat]:
        """Materialize :class:`Beat` objects (traces, tests, teaching)."""
        bounds = np.searchsorted(
            self.entry_beat, np.arange(self.num_beats + 1)
        )
        for b in range(self.num_beats):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            entries = tuple(
                (int(self.i[t]), int(self.k[t]), float(self.v[t]))
                for t in range(lo, hi)
            )
            yield Beat(entries=entries, cycles=int(self.beat_cycles[b]))


def pack_entries(
    i: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    group_sizes: np.ndarray,
    spec: StreamSpec,
    bus_slots: int,
) -> BeatPlan:
    """Pack entry arrays (concatenated group-major) into a :class:`BeatPlan`.

    ``group_sizes`` gives per-group entry counts in stream order; empty
    groups contribute no entries and no header.
    """
    i = np.asarray(i, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    v = np.asarray(v, dtype=np.float64)
    sizes = np.asarray(group_sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    total = int(sizes.sum())
    if total != len(v):
        raise SimulationError(
            f"group sizes sum to {total} but {len(v)} entries were extracted"
        )
    es, ss = spec.entry_slots, spec.shared_slots
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return BeatPlan(i, k, v, empty, empty.copy(), spec, bus_slots)
    if es + ss > bus_slots:
        # Degenerate wide-entry case: every entry is its own multi-cycle beat.
        span = spec.span_cycles(bus_slots)
        return BeatPlan(
            i, k, v,
            entry_beat=np.arange(total, dtype=np.int64),
            beat_cycles=np.full(total, span, dtype=np.int64),
            spec=spec,
            bus_slots=bus_slots,
        )
    first_beat, first_take, epb, beats = _pack_layout(
        sizes.tolist(), es, ss, bus_slots
    )
    entry_beat = _entry_beats(
        sizes,
        np.asarray(first_beat, dtype=np.int64),
        np.asarray(first_take, dtype=np.int64),
        epb,
    )
    return BeatPlan(
        i, k, v,
        entry_beat=entry_beat,
        beat_cycles=np.ones(beats, dtype=np.int64),
        spec=spec,
        bus_slots=bus_slots,
    )


def stream_cycle_count(
    group_sizes: Sequence[int] | np.ndarray,
    spec: StreamSpec,
    bus_slots: int,
) -> int:
    """Beat count for the given per-group entry counts.

    Runs the same greedy layout the simulator streams with, so the
    exact closed-form test oracle and the simulator agree beat-for-beat.  For
    ungrouped specs (COO) pass a single total as ``[total]``.
    """
    sizes = np.asarray(group_sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    if not len(sizes):
        return 0
    es, ss = spec.entry_slots, spec.shared_slots
    if es + ss > bus_slots:
        return int(sizes.sum()) * spec.span_cycles(bus_slots)
    *_rest, beats = _pack_layout(sizes.tolist(), es, ss, bus_slots)
    return beats


def stream_cycles_estimate(
    total_entries: float,
    nonempty_groups: float,
    spec: StreamSpec,
    bus_slots: int,
) -> float:
    """Closed-form expectation of the greedy packer's beat count.

    Slots consumed are ``entry_slots * entries`` plus one header per
    (group, beat) incidence: at least one per nonempty group, and at least
    one per beat when groups are long.  Hence the max of the two regimes:

    * long groups: every beat carries one header ->
      ``entries * entry_slots / (W - shared)``;
    * short groups: one header each ->
      ``(entries * entry_slots + groups * shared) / W``.
    """
    es, ss = spec.entry_slots, spec.shared_slots
    if es + ss > bus_slots:
        return total_entries * spec.span_cycles(bus_slots)
    slots = total_entries * es
    long_regime = slots / max(1, bus_slots - ss)
    short_regime = (slots + nonempty_groups * ss) / bus_slots
    return max(long_regime, short_regime)


# --------------------------------------------------------------------------
# payload streaming for the simulator
# --------------------------------------------------------------------------


def build_beat_plan(
    a: MatrixFormat,
    fmt: Format,
    bus_slots: int,
    k_range: tuple[int, int] | None = None,
) -> BeatPlan:
    """Pack the streamed operand *a* (in ACF *fmt*) into a beat plan.

    ``k_range`` restricts streaming to a reduction-dimension tile, as the
    scheduler requires when the stationary operand is K-tiled.  The
    extraction itself is the registered protocol's vectorized kernel.
    """
    from repro.accelerator.protocols import stream_protocol_for

    proto = stream_protocol_for(fmt)
    if k_range is None:
        k_range = (0, a.ncols)
    i, k, v, sizes = proto.extract_entries(a, k_range[0], k_range[1])
    return pack_entries(i, k, v, sizes, proto.spec, bus_slots)


def stream_beats(
    a: MatrixFormat,
    fmt: Format,
    bus_slots: int,
    k_range: tuple[int, int] | None = None,
) -> Iterator[Beat]:
    """Beat-object view of :func:`build_beat_plan` (traces and tests)."""
    return build_beat_plan(a, fmt, bus_slots, k_range).iter_beats()
