"""Dense (uncompressed) matrix encoding.

The degenerate format: every position stored, no metadata.  Best MCF at
~100% density (Fig. 4a) and the simplest ACF (direct indexing, Fig. 6a).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.formats.base import MatrixFormat, StorageBreakdown, coords_to_dense
from repro.formats.registry import Format
from repro.util.validation import check_dense_matrix


class DenseMatrix(MatrixFormat):
    """Row-major dense storage of an M x K matrix."""

    format = Format.DENSE

    def __init__(self, values: np.ndarray, *, dtype_bits: int = 32) -> None:
        self.values = check_dense_matrix(values, "values")
        self.shape = (int(self.values.shape[0]), int(self.values.shape[1]))
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()

    @classmethod
    def from_coords(
        cls,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> "DenseMatrix":
        return cls(coords_to_dense(shape, flat, values), dtype_bits=dtype_bits)

    def to_dense(self) -> np.ndarray:
        return self.values.copy()

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def storage(self) -> StorageBreakdown:
        return StorageBreakdown(
            data_bits=self.size * self.dtype_bits,
            metadata_bits=0,
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {"values": self.values.ravel()}
