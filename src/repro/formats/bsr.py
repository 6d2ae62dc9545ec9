"""Block Compressed Sparse Row (BSR) matrix encoding.

A blocked CSR (Fig. 3): nonzero *blocks* are indexed CSR-style, and each
stored block keeps its full ``br x bc`` contents — zero-filling incomplete
blocks (Sec. V-B3: "zeros are inserted into the values if the blocks are not
complete").  Reduces metadata and regularizes access when nonzeros cluster;
target of MINT's CSR->BSR conversion (Fig. 8e).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import (
    MatrixFormat,
    StorageBreakdown,
    check_distinct,
    coords_to_dense,
)
from repro.formats.registry import Format
from repro.util.bits import bits_for_count, bits_for_index, ceil_div
from repro.util.validation import check_dense_matrix

DEFAULT_BLOCK = (2, 2)
"""Paper's example block shape (Fig. 3 / Fig. 8e)."""


class BsrMatrix(MatrixFormat):
    """BSR encoding: block ``values`` / ``block_col_ids`` / ``block_row_ptr``.

    ``values`` has shape ``(nblocks, br, bc)``.  Logical shapes that are not
    multiples of the block shape are zero-padded on encode and cropped on
    decode.
    """

    format = Format.BSR

    def __init__(
        self,
        shape: tuple[int, int],
        values: np.ndarray,
        block_col_ids: np.ndarray,
        block_row_ptr: np.ndarray,
        *,
        block_shape: tuple[int, int] = DEFAULT_BLOCK,
        dtype_bits: int = 32,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.block_shape = (int(block_shape[0]), int(block_shape[1]))
        self.values = np.asarray(values, dtype=np.float64)
        self.block_col_ids = np.asarray(block_col_ids, dtype=np.int64).ravel()
        self.block_row_ptr = np.asarray(block_row_ptr, dtype=np.int64).ravel()
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()
        self._validate()

    # ------------------------------------------------------------------ grid
    @property
    def block_rows(self) -> int:
        """Number of block rows in the padded grid."""
        return ceil_div(self.shape[0], self.block_shape[0])

    @property
    def block_cols(self) -> int:
        """Number of block columns in the padded grid."""
        return ceil_div(self.shape[1], self.block_shape[1])

    @property
    def nblocks(self) -> int:
        """Stored block count."""
        return self.values.shape[0] if self.values.ndim == 3 else 0

    def _validate(self) -> None:
        br, bc = self.block_shape
        if br < 1 or bc < 1:
            raise FormatError(f"block_shape must be positive, got {self.block_shape}")
        if self.values.ndim != 3 or self.values.shape[1:] != (br, bc):
            raise FormatError(
                f"BSR values must have shape (nblocks, {br}, {bc}), "
                f"got {self.values.shape}"
            )
        if len(self.block_col_ids) != self.nblocks:
            raise FormatError("BSR block_col_ids length mismatch")
        if len(self.block_row_ptr) != self.block_rows + 1:
            raise FormatError(
                f"BSR block_row_ptr must have {self.block_rows + 1} entries"
            )
        if self.block_row_ptr[0] != 0 or self.block_row_ptr[-1] != self.nblocks:
            raise FormatError("BSR block_row_ptr endpoints must be 0 and nblocks")
        if np.any(np.diff(self.block_row_ptr) < 0):
            raise FormatError("BSR block_row_ptr must be non-decreasing")
        if self.nblocks and (
            self.block_col_ids.min() < 0 or self.block_col_ids.max() >= self.block_cols
        ):
            raise FormatError("BSR block_col_ids out of range")
        check_distinct(self.block_row_ptr, self.block_col_ids, self.block_cols, "BSR")

    @classmethod
    def from_coords(
        cls,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
        block_shape: tuple[int, int] = DEFAULT_BLOCK,
    ) -> "BsrMatrix":
        # Blocks are cut from the dense array.
        return cls.from_dense(
            coords_to_dense(shape, flat, values),
            dtype_bits=dtype_bits,
            block_shape=block_shape,
        )

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        *,
        dtype_bits: int = 32,
        block_shape: tuple[int, int] = DEFAULT_BLOCK,
    ) -> "BsrMatrix":
        dense = check_dense_matrix(dense)
        br, bc = int(block_shape[0]), int(block_shape[1])
        if br < 1 or bc < 1:
            raise FormatError(f"block_shape must be positive, got {block_shape}")
        m, k = dense.shape
        pm, pk = ceil_div(m, br) * br, ceil_div(k, bc) * bc
        padded = np.zeros((pm, pk), dtype=np.float64)
        padded[:m, :k] = dense
        grid_rows, grid_cols = pm // br, pk // bc
        # View as (grid_rows, br, grid_cols, bc) -> block-major (gr, gc, br, bc)
        blocks = padded.reshape(grid_rows, br, grid_cols, bc).swapaxes(1, 2)
        occupied = blocks.reshape(grid_rows, grid_cols, br * bc).any(axis=2)
        grs, gcs = np.nonzero(occupied)
        values = blocks[grs, gcs].copy()
        block_row_ptr = np.zeros(grid_rows + 1, dtype=np.int64)
        np.add.at(block_row_ptr, grs + 1, 1)
        np.cumsum(block_row_ptr, out=block_row_ptr)
        return cls(
            dense.shape,
            values,
            gcs,
            block_row_ptr,
            block_shape=(br, bc),
            dtype_bits=dtype_bits,
        )

    def to_dense(self) -> np.ndarray:
        br, bc = self.block_shape
        pm, pk = self.block_rows * br, self.block_cols * bc
        padded = np.zeros((pm, pk), dtype=np.float64)
        for gr in range(self.block_rows):
            lo, hi = int(self.block_row_ptr[gr]), int(self.block_row_ptr[gr + 1])
            for idx in range(lo, hi):
                gc = int(self.block_col_ids[idx])
                padded[gr * br : (gr + 1) * br, gc * bc : (gc + 1) * bc] = self.values[
                    idx
                ]
        return padded[: self.shape[0], : self.shape[1]].copy()

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def storage(self) -> StorageBreakdown:
        br, bc = self.block_shape
        return StorageBreakdown(
            # Whole blocks stored, zero fill included (the BSR trade-off).
            data_bits=self.nblocks * br * bc * self.dtype_bits,
            metadata_bits=(
                self.nblocks * bits_for_index(max(1, self.block_cols))
                + (self.block_rows + 1) * bits_for_count(self.nblocks)
            ),
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {
            "values": self.values.reshape(
                self.nblocks, self.block_shape[0] * self.block_shape[1]
            ),
            "block_col_ids": self.block_col_ids,
            "block_row_ptr": self.block_row_ptr,
        }
