"""Hierarchical Coordinate (HiCOO) 3-D tensor encoding.

HiCOO (Li et al., SC'18) groups nonzeros into fixed-size blocks: block
coordinates are stored once per block at full width while per-element
offsets inside a block need only ``log2(block_dim)`` bits each (Fig. 3b:
``bptr``, ``bx/by/bz``, ``ex/ey/ez``).  A structured format in the paper's
taxonomy (performance modelling is future work, Sec. VI); implemented for
compactness analysis and conversions.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import StorageBreakdown, TensorFormat, check_distinct
from repro.formats.registry import Format
from repro.util.bits import bits_for_count, bits_for_index, ceil_div
from repro.util.validation import check_dense_tensor

DEFAULT_BLOCK = (2, 2, 2)
"""Paper's example block shape (Fig. 3b)."""


class HicooTensor(TensorFormat):
    """HiCOO encoding with per-block coordinates and per-entry offsets."""

    format = Format.HICOO

    def __init__(
        self,
        shape: tuple[int, int, int],
        values: np.ndarray,
        bptr: np.ndarray,
        block_ids: np.ndarray,
        elem_offsets: np.ndarray,
        *,
        block_shape: tuple[int, int, int] = DEFAULT_BLOCK,
        dtype_bits: int = 32,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)  # type: ignore[assignment]
        self.block_shape = tuple(int(b) for b in block_shape)
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.bptr = np.asarray(bptr, dtype=np.int64).ravel()
        self.block_ids = np.asarray(block_ids, dtype=np.int64)  # (nblocks, 3)
        self.elem_offsets = np.asarray(elem_offsets, dtype=np.int64)  # (nnz, 3)
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()
        self._validate()

    @property
    def nblocks(self) -> int:
        """Stored block count."""
        return self.block_ids.shape[0] if self.block_ids.ndim == 2 else 0

    def _validate(self) -> None:
        n = len(self.values)
        if any(b < 1 for b in self.block_shape):
            raise FormatError(f"block_shape must be positive, got {self.block_shape}")
        if self.block_ids.ndim != 2 or self.block_ids.shape[1] != 3:
            raise FormatError("HiCOO block_ids must have shape (nblocks, 3)")
        if self.elem_offsets.shape != (n, 3):
            raise FormatError("HiCOO elem_offsets must have shape (nnz, 3)")
        if len(self.bptr) != self.nblocks + 1:
            raise FormatError("HiCOO bptr length mismatch")
        if self.nblocks:
            if self.bptr[0] != 0 or self.bptr[-1] != n:
                raise FormatError("HiCOO bptr endpoints must be 0 and nnz")
            if np.any(np.diff(self.bptr) <= 0):
                raise FormatError("HiCOO blocks must be non-empty and ordered")
            grid = [ceil_div(s, b) for s, b in zip(self.shape, self.block_shape)]
            if self.block_ids.min() < 0 or np.any(self.block_ids.max(0) >= grid):
                raise FormatError("HiCOO block_ids out of the block grid")
            blocks = np.ravel_multi_index(self.block_ids.T, grid)
            check_distinct(np.array([0, len(blocks)]), blocks, 1, "HiCOO block_ids")
        elif n:
            raise FormatError("HiCOO with entries must have blocks")
        for axis in range(3):
            if n and (
                self.elem_offsets[:, axis].min() < 0
                or self.elem_offsets[:, axis].max() >= self.block_shape[axis]
            ):
                raise FormatError("HiCOO element offsets out of block range")
        if n:  # an offset is stored once inside its block
            offsets = np.ravel_multi_index(self.elem_offsets.T, self.block_shape)
            check_distinct(self.bptr, offsets, np.prod(self.block_shape), "HiCOO")

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        *,
        dtype_bits: int = 32,
        block_shape: tuple[int, int, int] = DEFAULT_BLOCK,
    ) -> "HicooTensor":
        dense = check_dense_tensor(dense)
        bx, by, bz = (int(b) for b in block_shape)
        xs, ys, zs = (a.astype(np.int64) for a in np.nonzero(dense))
        vals = dense[xs, ys, zs]
        blocks = np.stack([xs // bx, ys // by, zs // bz], axis=1)
        offsets = np.stack([xs % bx, ys % by, zs % bz], axis=1)
        # Sort by block (lexicographic), then by offset within block.
        order = np.lexsort(
            (offsets[:, 2], offsets[:, 1], offsets[:, 0],
             blocks[:, 2], blocks[:, 1], blocks[:, 0])
        )
        blocks, offsets, vals = blocks[order], offsets[order], vals[order]
        n = len(vals)
        if n == 0:
            return cls(
                dense.shape,
                vals,
                np.zeros(1, dtype=np.int64),
                np.empty((0, 3), dtype=np.int64),
                offsets,
                block_shape=(bx, by, bz),
                dtype_bits=dtype_bits,
            )
        new_block = np.empty(n, dtype=bool)
        new_block[0] = True
        new_block[1:] = np.any(blocks[1:] != blocks[:-1], axis=1)
        starts = np.flatnonzero(new_block)
        bptr = np.concatenate([starts, [n]]).astype(np.int64)
        return cls(
            dense.shape,
            vals,
            bptr,
            blocks[starts],
            offsets,
            block_shape=(bx, by, bz),
            dtype_bits=dtype_bits,
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        if self.nblocks == 0:
            return out
        counts = np.diff(self.bptr)
        block_of_entry = np.repeat(np.arange(self.nblocks), counts)
        base = self.block_ids[block_of_entry] * np.asarray(
            self.block_shape, dtype=np.int64
        )
        coords = base + self.elem_offsets
        out[coords[:, 0], coords[:, 1], coords[:, 2]] = self.values
        return out

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def storage(self) -> StorageBreakdown:
        n = len(self.values)
        grid = [ceil_div(s, b) for s, b in zip(self.shape, self.block_shape)]
        block_coord_bits = sum(bits_for_index(max(1, g)) for g in grid)
        offset_bits = sum(bits_for_index(b) for b in self.block_shape)
        meta = (
            (self.nblocks + 1) * bits_for_count(max(n, 1))  # bptr
            + self.nblocks * block_coord_bits  # bx, by, bz
            + n * offset_bits  # ex, ey, ez
        )
        return StorageBreakdown(data_bits=n * self.dtype_bits, metadata_bits=meta)

    def fields(self) -> Mapping[str, np.ndarray]:
        return {
            "values": self.values,
            "bptr": self.bptr,
            "block_ids": self.block_ids,
            "elem_offsets": self.elem_offsets,
        }
