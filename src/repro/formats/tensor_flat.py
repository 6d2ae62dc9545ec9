"""RLC and ZVC encodings for 3-D tensors.

Fig. 3b applies both schemes to the row-major flattening of the tensor —
RLC alternates zero-run/value entries and ZVC keeps a one-bit-per-position
mask — so these classes share the matrix machinery on the flat view.
BrainQ's MCF in Table III is tensor ZVC.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats._runlength import decode_runs, encode_runs, run_positions
from repro.formats.base import StorageBreakdown, TensorFormat
from repro.formats.registry import Format
from repro.formats.rlc import DEFAULT_RUN_BITS
from repro.util.validation import check_dense_tensor


class RlcTensor(TensorFormat):
    """RLC over the row-major flattened tensor."""

    format = Format.RLC

    def __init__(
        self,
        shape: tuple[int, int, int],
        runs: np.ndarray,
        levels: np.ndarray,
        *,
        dtype_bits: int = 32,
        run_bits: int = DEFAULT_RUN_BITS,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)  # type: ignore[assignment]
        self.runs = np.asarray(runs, dtype=np.int64).ravel()
        self.levels = np.asarray(levels, dtype=np.float64).ravel()
        self.dtype_bits = dtype_bits
        self.run_bits = run_bits
        self._check_dtype_bits()
        run_positions(self.runs, self.levels, self.size)

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        *,
        dtype_bits: int = 32,
        run_bits: int = DEFAULT_RUN_BITS,
    ) -> "RlcTensor":
        dense = check_dense_tensor(dense)
        flat = dense.ravel()
        positions = np.flatnonzero(flat)
        runs, levels = encode_runs(positions, flat[positions], run_bits)
        return cls(dense.shape, runs, levels, dtype_bits=dtype_bits, run_bits=run_bits)

    def to_dense(self) -> np.ndarray:
        return decode_runs(self.runs, self.levels, self.size).reshape(self.shape)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.levels))

    @property
    def entries(self) -> int:
        """Stored (run, level) pairs, including padding entries."""
        return len(self.levels)

    def storage(self) -> StorageBreakdown:
        return StorageBreakdown(
            data_bits=self.entries * self.dtype_bits,
            metadata_bits=self.entries * self.run_bits,
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {"runs": self.runs, "levels": self.levels}


class ZvcTensor(TensorFormat):
    """ZVC over the row-major flattened tensor."""

    format = Format.ZVC

    def __init__(
        self,
        shape: tuple[int, int, int],
        values: np.ndarray,
        mask: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)  # type: ignore[assignment]
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.mask = np.asarray(mask, dtype=bool).ravel()
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()
        if len(self.mask) != self.size:
            raise FormatError(
                f"ZVC tensor mask must have {self.size} bits, got {len(self.mask)}"
            )
        if int(self.mask.sum()) != len(self.values):
            raise FormatError("ZVC tensor mask popcount must equal value count")

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, dtype_bits: int = 32) -> "ZvcTensor":
        dense = check_dense_tensor(dense)
        flat = dense.ravel()
        mask = flat != 0.0
        return cls(dense.shape, flat[mask], mask, dtype_bits=dtype_bits)

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
            metadata_bits=self.size,
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {"values": self.values, "mask": self.mask.astype(np.int64)}
