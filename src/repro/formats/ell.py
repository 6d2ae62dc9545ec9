"""ELLPACK (ELL) matrix encoding.

The fourth structured format the paper names (Sec. VI: "structured formats
(e.g. DIA, HiCOO, BSR and ELLPACK)", citing Bell & Garland).  Every row
stores exactly ``width = max_row_nnz`` (value, col id) slots, padding short
rows — a fixed-shape layout GPUs and systolic arrays like, whose footprint
is hostage to the densest row.

The paper leaves structured-format *performance* modelling as future work;
like BSR/DIA/HiCOO, ELL participates here in the compactness analysis and
the conversion library.
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
from repro.util.bits import bits_for_index

#: Column-id value marking a padding slot.
PAD_COL = -1


class EllMatrix(MatrixFormat):
    """ELL encoding: ``values`` and ``col_ids`` of shape (M, width)."""

    format = Format.ELL

    def __init__(
        self,
        shape: tuple[int, int],
        values: np.ndarray,
        col_ids: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.values = np.asarray(values, dtype=np.float64)
        self.col_ids = np.asarray(col_ids, dtype=np.int64)
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()
        self._validate()

    @property
    def width(self) -> int:
        """Stored slots per row (the maximum row nonzero count)."""
        return self.values.shape[1] if self.values.ndim == 2 else 0

    def _validate(self) -> None:
        m, k = self.shape
        if self.values.ndim != 2 or self.values.shape[0] != m:
            raise FormatError(
                f"ELL values must have shape ({m}, width), got {self.values.shape}"
            )
        if self.col_ids.shape != self.values.shape:
            raise FormatError("ELL values/col_ids shape mismatch")
        real = self.col_ids != PAD_COL
        if real.any():
            cols = self.col_ids[real]
            if cols.min() < 0 or cols.max() >= k:
                raise FormatError("ELL col_ids out of range")
            ptr = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(np.count_nonzero(real, axis=1), out=ptr[1:])
            check_distinct(ptr, cols, k, "ELL")
        if np.any(self.values[~real] != 0.0):
            raise FormatError("ELL padding slots must hold zero values")

    @classmethod
    def from_coords(
        cls,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> "EllMatrix":
        (m, k), flat, values = check_coords(shape, flat, values)
        rows, cols = coords_rows_cols(flat, k)
        row_nnz = np.bincount(rows, minlength=m)
        width = int(row_nnz.max()) if m else 0
        slot_values = np.zeros((m, width), dtype=np.float64)
        col_ids = np.full((m, width), PAD_COL, dtype=np.int64)
        # Positions are row-major, so each entry lands at (its row, its
        # rank within the row): its index minus its row's start, offset
        # by its row's first slot in the flattened arrays.
        starts = np.cumsum(row_nnz) - row_nnz
        at = np.arange(len(rows), dtype=np.int64) + (rows * width - starts[rows])
        slot_values.reshape(-1)[at] = values
        col_ids.reshape(-1)[at] = cols
        return cls((m, k), slot_values, col_ids, dtype_bits=dtype_bits)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        rows, slots = np.nonzero(self.col_ids != PAD_COL)
        out[rows, self.col_ids[rows, slots]] = self.values[rows, slots]
        return out

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def storage(self) -> StorageBreakdown:
        slots = self.shape[0] * self.width
        return StorageBreakdown(
            # Padding slots store explicit zero values — the ELL trade-off.
            data_bits=slots * self.dtype_bits,
            metadata_bits=slots * bits_for_index(max(1, self.shape[1])),
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {"values": self.values, "col_ids": self.col_ids}
