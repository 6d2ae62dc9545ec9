"""Compressed Sparse Row (CSR) matrix encoding.

Replaces COO's per-entry row ids by an (M+1)-entry row-pointer array.  The
most compact MCF in the ~0.1%-few% density band for square matrices
(Fig. 4a); the paper normalizes all compactness plots to CSR.
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


class CsrMatrix(MatrixFormat):
    """CSR encoding: ``values`` / ``col_ids`` / ``row_ptr`` arrays."""

    format = Format.CSR

    def __init__(
        self,
        shape: tuple[int, int],
        values: np.ndarray,
        col_ids: np.ndarray,
        row_ptr: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.col_ids = np.asarray(col_ids, dtype=np.int64).ravel()
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64).ravel()
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()
        self._validate()

    def _validate(self) -> None:
        n = len(self.values)
        if len(self.col_ids) != n:
            raise FormatError("CSR values/col_ids length mismatch")
        if len(self.row_ptr) != self.shape[0] + 1:
            raise FormatError(
                f"CSR row_ptr must have {self.shape[0] + 1} entries, "
                f"got {len(self.row_ptr)}"
            )
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != n:
            raise FormatError("CSR row_ptr endpoints must be 0 and nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise FormatError("CSR row_ptr must be non-decreasing")
        if n and (self.col_ids.min() < 0 or self.col_ids.max() >= self.shape[1]):
            raise FormatError("CSR col_ids out of range")
        check_distinct(self.row_ptr, self.col_ids, self.shape[1], "CSR")

    @classmethod
    def from_coords(
        cls,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> "CsrMatrix":
        shape, flat, values = check_coords(shape, flat, values)
        # Row-major positions are already in CSR order.
        rows, cols = coords_rows_cols(flat, shape[1])
        row_ptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=row_ptr[1:])
        return cls(shape, values, cols, row_ptr, dtype_bits=dtype_bits)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.row_ptr))
        out[rows, self.col_ids] = self.values
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
                self.stored * bits_for_index(max(1, self.shape[1]))
                + (self.shape[0] + 1) * bits_for_count(self.stored)
            ),
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {
            "values": self.values,
            "col_ids": self.col_ids,
            "row_ptr": self.row_ptr,
        }

    def row_lengths(self) -> np.ndarray:
        """Per-row nonzero counts (used by the streaming cycle models)."""
        return np.diff(self.row_ptr)

    def row_slice(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(col_ids, values) view of one row."""
        lo, hi = int(self.row_ptr[row]), int(self.row_ptr[row + 1])
        return self.col_ids[lo:hi], self.values[lo:hi]
