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
machinery: the :class:`StreamSpec` slot algebra, the **vectorized packer**,
the :class:`StreamStats` a GEMM's report is computed from, and the
closed-form estimate.

Packing is greedy and order-preserving: entries fill the current beat as
long as their slots (plus their group's header, if the group is not yet
present in the beat) fit; otherwise a new beat starts.  A group spanning
several beats pays its header in each.  On the Fig. 6 operands (W=5) this
yields exactly 8 / 3 / 4 cycles for Dense / CSR / COO, which the test
suite pins.  The only state the packer carries between groups is the
open beat's free slots, so each group is a transition table over those
``W + 1`` states.  :func:`count_beats_many` is the simulator's beat
count: it tables the groups of a whole batch of streams at once and
composes each stream's tables, tile after tile, in log depth, every
stream in the same numpy calls (:func:`count_beats` is its one-stream
call).  :func:`pack_entries` prefix-scans the tables into the per-entry
:class:`BeatPlan` that traces and the Fig. 6 walkthrough render.  No
Python loop runs per group or per entry.
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


def _state_bits(bus_slots: int) -> int:
    """Bits of an encoded table entry that hold the next state."""
    return bus_slots.bit_length()


def _transition_tables(
    sizes: np.ndarray, kinds: np.ndarray, slots: np.ndarray, bus_slots: int
) -> np.ndarray:
    """Each group's effect on the greedy packer, for every entry state.

    The only state the packer carries from one group to the next is the
    open beat's free slots, ``0..W`` (``0``: no beat open, the state
    before the first group).  A group of ``n`` entries opens a beat when
    its header plus one entry does not fit, fills the open beat, then
    spills the rest into fresh beats of ``epb`` entries each, paying its
    header again in every one.  Where one entry and its header do not fit
    a beat, every entry is a beat of its own spanning several cycles and
    no beat stays open.  An empty group changes nothing.

    Group ``g`` streams under the slot costs ``slots[kinds[g]]``, an
    ``(entry_slots, shared_slots)`` row.  Row ``g``, column ``s`` encodes
    group ``g`` entered in state ``s`` as ``beats_opened <<
    _state_bits(W) | next_state``.
    """
    w, bits = bus_slots, _state_bits(bus_slots)
    n = sizes[:, None]
    cost = slots[kinds]
    es, ss = cost[:, :1], cost[:, 1:]
    fits = es + ss  # a header and one entry
    free = np.arange(w + 1, dtype=np.int64)[None, :]
    opened = free < fits
    room = np.where(opened, w, free) - ss  # after the group's header
    take = np.minimum(room // es, n)  # entries into the open beat
    rem = n - take
    # The rest fills continuation beats of epb entries: ``more + 1`` of
    # them, the last holding ``last + 1`` (``more == -1`` when none).
    more, last = np.divmod(rem - 1, np.maximum((w - ss) // es, 1))
    next_free = np.where(rem > 0, w - fits - last * es, room - n * es)
    code = (opened + more + 1) << bits | next_free
    code = np.where(fits > w, n * -(-fits // w) << bits, code)
    return np.where(n > 0, code, free)


def _then(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Row-wise composition of encoded tables: *first*, then *second*."""
    cols = first.shape[1]
    state = first & ((1 << _state_bits(cols - 1)) - 1)
    offsets = np.arange(0, len(second) * cols, cols)[:, None]
    return first - state + np.take(second, state + offsets)


def _power(tables: np.ndarray, repeats: np.ndarray) -> np.ndarray:
    """Each row's table composed with itself ``repeats[row]`` times."""
    out = np.broadcast_to(
        np.arange(tables.shape[1], dtype=np.int64), tables.shape
    ).copy()
    reps = repeats.copy()
    while True:
        odd = (reps & 1).astype(bool)
        out[odd] = _then(out[odd], tables[odd])
        reps >>= 1
        if not reps.any():
            return out
        tables = _then(tables, tables)


#: One :func:`count_beats_many` job: a stream's bus groups ``(sizes,
#: tiles, repeats)``, as :attr:`StreamStats.groups` holds them, and the
#: spec they stream under.
BeatJob = tuple[np.ndarray, np.ndarray, np.ndarray, StreamSpec]


def count_beats_many(jobs: Sequence[BeatJob], bus_slots: int) -> np.ndarray:
    """Bus beats to stream every tile of each job once, greedily packed:
    one count per job.

    Group ``g`` of a job (stream order) carries ``sizes[g]`` entries,
    padding included, and occurs ``repeats[g]`` times in a row in tile
    ``tiles[g]`` (non-decreasing); empty groups carry no header.  The
    groups of every job are stacked and tabled at once, each under its
    job's spec.  A tile is streamed on its own (the packer starts it from
    no open beat), so the first group of each tile reads state ``0``
    whatever state the group before it left: its row is its state-0
    column.  Each job's rows then compose pairwise in log depth, every
    job in the same numpy calls (padded with identity tables, so that no
    pair spans two jobs), until no job has more than 16, which are read
    off from state ``0``.
    """
    if not jobs:
        return np.zeros(0, dtype=np.int64)
    kinds: dict[tuple[int, int], int] = {}
    kind_of, heights = [], []
    for sizes, _tiles, _repeats, spec in jobs:
        key = (spec.entry_slots, spec.shared_slots)
        kind_of.append(kinds.setdefault(key, len(kinds)))
        heights.append(len(sizes))
    sizes, tiles, repeats = (
        np.concatenate([np.asarray(job[part], dtype=np.int64) for job in jobs])
        for part in range(3)
    )
    reset = np.ones(len(sizes), dtype=np.int64)  # first group of a tile
    np.not_equal(tiles[1:], tiles[:-1], out=reset[1:], casting="unsafe")
    # Groups of equal size, slot costs, repeat count and reset share one
    # table.  The mixed-radix key is below 2 * kinds * (largest size + 1)
    # * (largest repeat count + 1), far from 2**63 for real operands.
    slots = np.asarray(list(kinds), dtype=np.int64)
    radix = int(repeats.max(initial=0)) + 1
    kind = np.repeat(np.asarray(kind_of, dtype=np.int64), heights)
    cells, row = np.unique(
        ((sizes * len(slots) + kind) * radix + repeats) * 2 + reset,
        return_inverse=True,
    )
    cells, cell_reset = np.divmod(cells, 2)
    cells, cell_repeats = np.divmod(cells, radix)
    tables = _transition_tables(*np.divmod(cells, len(slots)), slots, bus_slots)
    if (cell_repeats != 1).any():
        tables = _power(tables, cell_repeats)
    starts = cell_reset.astype(bool)
    tables[starts] = tables[starts, :1]
    # Pad every job with the identity table (no beats, same state), the
    # last row here, to a multiple of 2**levels rows, enough levels to
    # leave each job at most 16 rows.
    tables = np.concatenate([tables, np.arange(tables.shape[1])[None, :]])
    row = row.ravel()
    levels = ((max(1, *heights) - 1) // 16).bit_length()
    pads = [-h % (1 << levels) for h in heights]
    if any(pads):
        parts, at = [], 0
        for h, pad in zip(heights, pads):
            parts += [row[at:at + h], np.full(pad, len(tables) - 1)]
            at += h
        row = np.concatenate(parts)
    tables = tables[row]
    for _level in range(levels):
        tables = _then(tables[0::2], tables[1::2])
    bits = _state_bits(bus_slots)
    rows, beats, at = tables.tolist(), [], 0
    for left in [(h + pad) >> levels for h, pad in zip(heights, pads)]:
        code = 0
        for table in rows[at:at + left]:
            state = code & ((1 << bits) - 1)
            code += table[state] - state
        beats.append(code >> bits)
        at += left
    return np.asarray(beats, dtype=np.int64)


def count_beats(
    sizes: np.ndarray,
    tiles: np.ndarray,
    repeats: np.ndarray,
    spec: StreamSpec,
    bus_slots: int,
) -> int:
    """:func:`count_beats_many` of one job."""
    return int(count_beats_many([(sizes, tiles, repeats, spec)], bus_slots)[0])


def _group_layout(
    sizes: np.ndarray, spec: StreamSpec, bus_slots: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Greedy per-group layout: ``(first_beat, first_take, beats)``.

    ``first_take`` is how many of a group's entries land in its first
    beat; the continuation beats carry ``epb`` entries each except the
    last.  The state before each group is an inclusive prefix scan of the
    transition tables (Hillis-Steele, log depth) read at state ``0``.
    Groups must be nonempty and ``entry_slots + shared_slots <= W``.
    """
    es, ss = spec.entry_slots, spec.shared_slots
    bits = _state_bits(bus_slots)
    keys, row = np.unique(sizes, return_inverse=True)
    tables = _transition_tables(
        keys, np.zeros_like(keys), np.asarray([(es, ss)]), bus_slots
    )[row.ravel()]
    step = 1
    while step < len(tables):
        tables = np.concatenate(
            [tables[:step], _then(tables[:-step], tables[step:])]
        )
        step *= 2
    before = np.zeros(len(sizes) + 1, dtype=np.int64)  # encoded, state 0
    before[1:] = tables[:, 0]
    before, after = before[:-1], before[-1]
    free = before & ((1 << bits) - 1)
    opens = free < ss + es
    first_beat = (before >> bits) - 1 + opens
    first_take = np.minimum((np.where(opens, bus_slots, free) - ss) // es, sizes)
    return first_beat, first_take, int(after) >> bits


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

    Parallel entry arrays in stream order plus each entry's owning beat,
    for traces, the Fig. 6 walkthrough and the per-beat test oracle (the
    simulator itself only counts beats, :func:`count_beats_many`).
    ``k == PAD_K`` entries are padding slots: they occupy bus slots (and
    therefore cycles) but are discarded by the PEs.
    """

    i: np.ndarray  # int64 output-row coordinate per entry
    k: np.ndarray  # int64 reduction coordinate per entry (PAD_K = padding)
    v: np.ndarray  # float64 data value per entry
    entry_beat: np.ndarray  # int64 owning beat per entry (non-decreasing)
    beat_cycles: np.ndarray  # int64 bus cycles per beat
    spec: StreamSpec
    bus_slots: int

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


@dataclass(frozen=True)
class StreamStats:
    """What the simulator reads of one streamed operand under a K tiling.

    Each field is a whole-operand statistic taken in one pass, so a GEMM
    never materializes a per-tile entry stream to report its cycles or to
    compute its product.  "Entries" below are the elements the PEs see:
    padding slots of fixed-width ACFs are excluded everywhere except in
    ``groups``.
    """

    #: (K,) int64: entries streamed per reduction index.
    c_all: np.ndarray
    #: (K,) int64: of those, the nonzero-valued ones.
    c_nz: np.ndarray
    #: (T,) int64: output-row runs per tile.  A run starts at a tile's
    #: first entry and at every entry whose row differs from the last's.
    runs: np.ndarray
    #: Bus groups in stream order, as :func:`count_beats_many` takes them:
    #: ``(sizes, tiles, repeats)``, padding slots included.
    groups: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: ``(i, k, tile, v)`` of every entry, or ``None`` when every row
    #: streams every k of every tile (Dense: the full pattern).  Streams
    #: that are not row-grouped list them in stream order within each tile.
    entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None

    def beats(self, spec: StreamSpec, bus_slots: int) -> int:
        """Bus beats to stream every tile once."""
        return count_beats(*self.groups, spec, bus_slots)


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
    first_beat, first_take, beats = _group_layout(sizes, spec, bus_slots)
    entry_beat = _entry_beats(
        sizes, first_beat, first_take, spec.entries_per_beat(bus_slots)
    )
    return BeatPlan(
        i, k, v,
        entry_beat=entry_beat,
        beat_cycles=np.ones(beats, dtype=np.int64),
        spec=spec,
        bus_slots=bus_slots,
    )


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
