"""Zero-Value Compression (ZVC) matrix encoding.

Stores the nonzero values plus a one-bit-per-position occupancy mask
(Fig. 3).  The most compact MCF around 50% density (Fig. 4a): the mask costs
exactly 1 bit/position regardless of sparsity, so ZVC beats Dense whenever
density < (b-1)/b and beats index-based formats once indices are wider than
the amortized mask cost.  Used as the fixed MCF of SIGMA and NVDLA
(Table II).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import MatrixFormat, StorageBreakdown, check_coords
from repro.formats.registry import Format


class ZvcMatrix(MatrixFormat):
    """ZVC encoding: ``values`` plus a flat row-major bit ``mask``."""

    format = Format.ZVC

    def __init__(
        self,
        shape: tuple[int, int],
        values: np.ndarray,
        mask: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.mask = np.asarray(mask, dtype=bool).ravel()
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()
        self._validate()

    def _validate(self) -> None:
        if len(self.mask) != self.size:
            raise FormatError(
                f"ZVC mask must have {self.size} bits, got {len(self.mask)}"
            )
        if np.count_nonzero(self.mask) != len(self.values):
            raise FormatError("ZVC mask popcount must equal stored value count")

    @classmethod
    def from_coords(
        cls,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> "ZvcMatrix":
        (m, k), flat, values = check_coords(shape, flat, values)
        mask = np.zeros(m * k, dtype=bool)
        mask[flat] = True
        return cls((m, k), values, mask, dtype_bits=dtype_bits)

    def to_dense(self) -> np.ndarray:
        flat = np.zeros(self.size, dtype=np.float64)
        flat[self.mask] = self.values
        return flat.reshape(self.shape)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def stored(self) -> int:
        """Stored value-array entries."""
        return len(self.values)

    def storage(self) -> StorageBreakdown:
        return StorageBreakdown(
            data_bits=self.stored * self.dtype_bits,
            metadata_bits=self.size,  # one mask bit per logical position
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {"values": self.values, "mask": self.mask.astype(np.int64)}
