"""Diagonal (DIA) matrix encoding.

Stores each occupied diagonal as a padded fixed-length row plus its offset
(Fig. 3: the ``*`` entries are padding).  Extremely compact for banded
matrices, catastrophic for scattered sparsity — which is why the paper
classes it (with BSR/HiCOO) as a *structured* format whose performance
modelling is future work (Sec. VI).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import MatrixFormat, StorageBreakdown, coords_to_dense
from repro.formats.registry import Format
from repro.util.bits import bits_for_index
from repro.util.validation import check_dense_matrix


class DiaMatrix(MatrixFormat):
    """DIA encoding: ``data`` of shape (ndiags, L) plus ``offsets``.

    Diagonal ``d`` holds entries ``A[i, i + d]``; the padded row length is
    ``L = min(M, K)`` so every diagonal fits with left/right padding, matching
    the regular-access layout of Fig. 3.
    """

    format = Format.DIA

    def __init__(
        self,
        shape: tuple[int, int],
        data: np.ndarray,
        offsets: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.data = np.asarray(data, dtype=np.float64)
        self.offsets = np.asarray(offsets, dtype=np.int64).ravel()
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()
        self._validate()

    @property
    def padded_length(self) -> int:
        """Uniform stored length of each diagonal row."""
        return min(self.shape)

    @property
    def ndiags(self) -> int:
        """Stored diagonal count."""
        return len(self.offsets)

    def _validate(self) -> None:
        m, k = self.shape
        if self.data.ndim != 2 or self.data.shape != (
            self.ndiags,
            self.padded_length,
        ):
            raise FormatError(
                f"DIA data must have shape ({self.ndiags}, {self.padded_length}), "
                f"got {self.data.shape}"
            )
        if self.ndiags:
            if self.offsets.min() < -(m - 1) or self.offsets.max() > k - 1:
                raise FormatError("DIA offsets out of range")
            if len(np.unique(self.offsets)) != self.ndiags:
                raise FormatError("DIA offsets must be unique")

    @staticmethod
    def _diag_span(m: int, k: int, d: int) -> tuple[int, int]:
        """(first_row, length) of diagonal *d* in an m x k matrix."""
        if d >= 0:
            return 0, min(m, k - d)
        return -d, min(m + d, k)

    @classmethod
    def from_coords(
        cls,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> "DiaMatrix":
        # Diagonals are cut from the dense array.
        return cls.from_dense(
            coords_to_dense(shape, flat, values), dtype_bits=dtype_bits
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, dtype_bits: int = 32) -> "DiaMatrix":
        dense = check_dense_matrix(dense)
        m, k = dense.shape
        rows, cols = np.nonzero(dense)
        offsets = np.unique(cols - rows)
        length = min(m, k)
        data = np.zeros((len(offsets), length), dtype=np.float64)
        for di, d in enumerate(offsets):
            first_row, span = cls._diag_span(m, k, int(d))
            idx = np.arange(span)
            data[di, :span] = dense[first_row + idx, first_row + idx + d]
        return cls(dense.shape, data, offsets, dtype_bits=dtype_bits)

    def to_dense(self) -> np.ndarray:
        m, k = self.shape
        out = np.zeros((m, k), dtype=np.float64)
        for di, d in enumerate(self.offsets):
            first_row, span = self._diag_span(m, k, int(d))
            idx = np.arange(span)
            out[first_row + idx, first_row + idx + d] = self.data[di, :span]
        return out

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    def storage(self) -> StorageBreakdown:
        m, k = self.shape
        return StorageBreakdown(
            # Padded diagonals stored in full (the DIA trade-off).
            data_bits=self.ndiags * self.padded_length * self.dtype_bits,
            metadata_bits=self.ndiags * bits_for_index(max(1, m + k - 1)),
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {"data": self.data, "offsets": self.offsets}
