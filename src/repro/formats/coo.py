"""Coordinate (COO) matrix encoding.

Stores every nonzero with its (row, col) coordinates, sorted row-major.
The most compact MCF at extreme sparsity (Fig. 4a: nnz << M means CSR's
row-pointer array dominates, which COO avoids) and the ACF of Alg. 1.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import (
    MatrixFormat,
    StorageBreakdown,
    check_coords,
    coords_rows_cols,
)
from repro.formats.registry import Format
from repro.util.bits import bits_for_index


class CooMatrix(MatrixFormat):
    """COO encoding: parallel ``values`` / ``row_ids`` / ``col_ids`` arrays."""

    format = Format.COO

    def __init__(
        self,
        shape: tuple[int, int],
        values: np.ndarray,
        row_ids: np.ndarray,
        col_ids: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.row_ids = np.asarray(row_ids, dtype=np.int64).ravel()
        self.col_ids = np.asarray(col_ids, dtype=np.int64).ravel()
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()
        self._validate()

    def _validate(self) -> None:
        n = len(self.values)
        if len(self.row_ids) != n or len(self.col_ids) != n:
            raise FormatError("COO field arrays must have equal length")
        if n:
            if self.row_ids.min() < 0 or self.row_ids.max() >= self.shape[0]:
                raise FormatError("COO row_ids out of range")
            if self.col_ids.min() < 0 or self.col_ids.max() >= self.shape[1]:
                raise FormatError("COO col_ids out of range")
            linear = self.row_ids * self.shape[1] + self.col_ids
            # Strictly ascending (row-major sorted) entries are distinct;
            # only an unsorted COO pays for the sort.
            if np.any(linear[1:] <= linear[:-1]) and len(np.unique(linear)) != n:
                raise FormatError("COO contains duplicate coordinates")

    @classmethod
    def from_coords(
        cls,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> "CooMatrix":
        shape, flat, values = check_coords(shape, flat, values)
        rows, cols = coords_rows_cols(flat, shape[1])
        return cls(shape, values, rows, cols, dtype_bits=dtype_bits)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.row_ids, self.col_ids] = self.values
        return out

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def stored(self) -> int:
        """Stored entries (may include explicit zeros after arithmetic)."""
        return len(self.values)

    def storage(self) -> StorageBreakdown:
        row_bits = bits_for_index(max(1, self.shape[0]))
        col_bits = bits_for_index(max(1, self.shape[1]))
        return StorageBreakdown(
            data_bits=self.stored * self.dtype_bits,
            metadata_bits=self.stored * (row_bits + col_bits),
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {
            "values": self.values,
            "row_ids": self.row_ids,
            "col_ids": self.col_ids,
        }

    def sorted_row_major(self) -> "CooMatrix":
        """Return an equivalent COO with entries sorted (row, col)."""
        order = np.lexsort((self.col_ids, self.row_ids))
        return CooMatrix(
            self.shape,
            self.values[order],
            self.row_ids[order],
            self.col_ids[order],
            dtype_bits=self.dtype_bits,
        )
