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

from repro.accelerator.protocols import StationaryLayout, StationaryOperand
from repro.errors import SchedulingError
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


def _column_counts(op: StationaryOperand, bounds: np.ndarray) -> np.ndarray:
    """Stored positions per (tile, column), shape ``(num_tiles, N)``, for
    the K tiles ``[bounds[t], bounds[t + 1])``."""
    num_tiles, n = len(bounds) - 1, op.shape[1]
    if op.positions is None:  # every position: each tile's width
        return np.repeat(np.diff(bounds)[:, None], n, axis=1)
    k, col = op.positions
    tile = np.searchsorted(bounds, k, side="right") - 1
    return np.bincount(
        tile * n + col, minlength=num_tiles * n
    ).reshape(num_tiles, n)


def plan_k_tiles(
    op: StationaryOperand, layout: StationaryLayout, capacity_entries: int
) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """Minimal uniform K-tiling so every (tile, column) footprint fits,
    with its ``(num_tiles, N)`` stored-position counts.

    Candidate tilings (near-equal contiguous ranges) are tried from the
    fewest tiles the fullest column allows upwards; each costs one
    ``bincount`` over the stored positions, or nothing beyond the tile
    widths when every position is stored.
    """
    k, n = op.shape
    if op.positions is None:
        fullest = k if n else 0
    else:
        fullest = int(np.bincount(op.positions[1], minlength=n).max(initial=0))
    num = max(1, ceil_div(layout.entry_cost * fullest, capacity_entries))
    while num <= max(k, 1):
        bounds = np.linspace(0, k, num + 1, dtype=np.int64)
        counts = _column_counts(op, bounds)
        if layout.entry_cost * counts.max(initial=0) <= capacity_entries:
            tiles = tuple(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
            return tiles, counts
        num += 1
    raise SchedulingError(
        f"PE buffer of {capacity_entries} entries cannot hold even a "
        f"single-k {layout.format} column slice"
    )


def compute_rounds(n_cols: int, num_pes: int) -> tuple[tuple[int, int], ...]:
    """Column batches of at most *num_pes* columns."""
    return tuple(
        (lo, min(lo + num_pes, n_cols)) for lo in range(0, max(n_cols, 1), num_pes)
    )
