"""Compressed Sparse Column (CSC) matrix encoding.

CSR's column-major mirror.  The paper's recurring ACF for stationary sparse
weights (Fig. 6b: CSC(B) keeps nonzeros + row indices in the PE buffer) and
the target of the CSR->CSC transpose conversion needed by DL
backpropagation (Sec. III-C, Fig. 8c).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import (
    MatrixFormat,
    StorageBreakdown,
    check_coords,
    check_distinct,
    coords_rows_cols,
)
from repro.formats.registry import Format
from repro.util.bits import bits_for_count, bits_for_index


class CscMatrix(MatrixFormat):
    """CSC encoding: ``values`` / ``row_ids`` / ``col_ptr`` arrays."""

    format = Format.CSC

    def __init__(
        self,
        shape: tuple[int, int],
        values: np.ndarray,
        row_ids: np.ndarray,
        col_ptr: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.row_ids = np.asarray(row_ids, dtype=np.int64).ravel()
        self.col_ptr = np.asarray(col_ptr, dtype=np.int64).ravel()
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()
        self._validate()

    def _validate(self) -> None:
        n = len(self.values)
        if len(self.row_ids) != n:
            raise FormatError("CSC values/row_ids length mismatch")
        if len(self.col_ptr) != self.shape[1] + 1:
            raise FormatError(
                f"CSC col_ptr must have {self.shape[1] + 1} entries, "
                f"got {len(self.col_ptr)}"
            )
        if self.col_ptr[0] != 0 or self.col_ptr[-1] != n:
            raise FormatError("CSC col_ptr endpoints must be 0 and nnz")
        if np.any(np.diff(self.col_ptr) < 0):
            raise FormatError("CSC col_ptr must be non-decreasing")
        if n and (self.row_ids.min() < 0 or self.row_ids.max() >= self.shape[0]):
            raise FormatError("CSC row_ids out of range")
        check_distinct(self.col_ptr, self.row_ids, self.shape[0], "CSC")

    @classmethod
    def from_coords(
        cls,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> "CscMatrix":
        shape, flat, values = check_coords(shape, flat, values)
        rows, cols = coords_rows_cols(flat, shape[1])
        # Column-major order: a stable sort on the column keeps each
        # column's rows ascending, as they are in row-major order.  On
        # 16-bit keys numpy's stable sort is a radix sort.
        keys = cols.astype(np.uint16) if shape[1] <= 1 << 16 else cols
        order = np.argsort(keys, kind="stable")
        col_ptr = np.zeros(shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=shape[1]), out=col_ptr[1:])
        return cls(
            shape, values[order], rows[order], col_ptr, dtype_bits=dtype_bits
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.col_ptr))
        out[self.row_ids, cols] = self.values
        return out

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def stored(self) -> int:
        """Stored entries (may include explicit zeros)."""
        return len(self.values)

    def storage(self) -> StorageBreakdown:
        return StorageBreakdown(
            data_bits=self.stored * self.dtype_bits,
            metadata_bits=(
                self.stored * bits_for_index(max(1, self.shape[0]))
                + (self.shape[1] + 1) * bits_for_count(self.stored)
            ),
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {
            "values": self.values,
            "row_ids": self.row_ids,
            "col_ptr": self.col_ptr,
        }

    def col_lengths(self) -> np.ndarray:
        """Per-column nonzero counts (stationary-buffer occupancy model)."""
        return np.diff(self.col_ptr)

    def col_slice(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """(row_ids, values) view of one column."""
        lo, hi = int(self.col_ptr[col]), int(self.col_ptr[col + 1])
        return self.row_ids[lo:hi], self.values[lo:hi]
