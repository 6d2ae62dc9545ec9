"""Mapping a GEMM onto the PE array: column rounds and reduction tiling.

The weight-stationary dataflow pins one column of the stationary operand B
(K x N) per PE.  Two mapping dimensions arise:

* **rounds** — with N columns and P PEs, ``ceil(N / P)`` batches of columns,
  each requiring the streamed operand A to be re-broadcast;
* **K-tiles** — when one column's stationary footprint (values + metadata)
  exceeds the PE buffer, the reduction dimension is split into uniform
  tiles, and A is streamed once per tile (restricted to that tile's
  k-range).

Footprints follow Fig. 6, but are no longer hard-coded per format: each
registered :class:`~repro.accelerator.protocols.StationaryLayout` declares
its buffer entries per stored element over its stored pattern — a Dense
column stores every position (zeros included, "to maintain correct buffer
indexing", 1 entry each), a CSC column stores ``2 * nnz`` entries (value +
row-id metadata, the flexible buffer partition of Sec. IV).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerator.protocols import (
    StationaryOperand,
    stationary_layout_for,
)
from repro.errors import SchedulingError
from repro.formats.base import MatrixFormat
from repro.formats.registry import Format
from repro.util.bits import ceil_div

#: Buffer entries consumed per stationary nonzero in CSC (value + row id).
CSC_ENTRY_COST = 2


@dataclass(frozen=True)
class Schedule:
    """The (k-tile x round) execution grid for one GEMM."""

    k_tiles: tuple[tuple[int, int], ...]
    rounds: tuple[tuple[int, int], ...]  # [col_lo, col_hi) per round

    @property
    def num_tiles(self) -> int:
        """Reduction-dimension tile count."""
        return len(self.k_tiles)

    @property
    def num_rounds(self) -> int:
        """Column-batch count."""
        return len(self.rounds)


def _uniform_tiles(k: int, num_tiles: int) -> tuple[tuple[int, int], ...]:
    """Split [0, k) into *num_tiles* near-equal contiguous ranges."""
    bounds = np.linspace(0, k, num_tiles + 1, dtype=np.int64)
    return tuple((int(bounds[t]), int(bounds[t + 1])) for t in range(num_tiles))


def _tile_footprints(
    csum: np.ndarray, entry_cost: int, tiles: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """Max per-column buffer footprint within each tile, vectorized.

    ``csum`` is the running per-column count of stored positions — the
    (K, N) stored-position mask's ``cumsum(axis=0)``, computed once by the
    caller since it does not depend on the tiling; the footprint of a
    (tile, column) cell is ``entry_cost`` per stored position.  Returns an
    array of shape (num_tiles,) with the worst-column footprint.
    """
    cum = np.zeros((len(tiles) + 1, csum.shape[1]), dtype=np.int64)
    for t, (lo, hi) in enumerate(tiles):
        cum[t + 1] = csum[hi - 1] if hi > lo else (csum[lo - 1] if lo else 0)
    counts = np.diff(cum, axis=0)
    return entry_cost * counts.max(axis=1)


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
    k = op.stored.shape[0]
    per_col = op.stored.sum(axis=0)
    max_footprint = (
        layout.entry_cost * int(per_col.max()) if per_col.size else 0
    )
    if max_footprint == 0:
        return _uniform_tiles(k, 1)
    csum = op.stored.cumsum(axis=0, dtype=np.int64)
    num = max(1, ceil_div(max_footprint, capacity_entries))
    while num <= k:
        tiles = _uniform_tiles(k, num)
        if _tile_footprints(csum, layout.entry_cost, tiles).max() <= (
            capacity_entries
        ):
            return tiles
        num += 1
    raise SchedulingError(
        f"PE buffer of {capacity_entries} entries cannot hold even a "
        f"single-k {acf_b} column slice"
    )


def compute_rounds(n_cols: int, num_pes: int) -> tuple[tuple[int, int], ...]:
    """Column batches of at most *num_pes* columns."""
    return tuple(
        (lo, min(lo + num_pes, n_cols)) for lo in range(0, max(n_cols, 1), num_pes)
    )


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


def stationary_entries_loaded(
    b: MatrixFormat, acf_b: Format, tiles: tuple[tuple[int, int], ...]
) -> int:
    """Total buffer entries written while loading B across all tiles/rounds.

    Every column is loaded exactly once per tile that intersects it, so the
    total is independent of the round structure (and of the tiling: each
    stored position belongs to exactly one tile).
    """
    layout = stationary_layout_for(acf_b)
    return layout.entries_loaded(layout.prepare(b))
