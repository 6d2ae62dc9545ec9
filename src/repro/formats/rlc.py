"""Run-Length Coding (RLC) matrix encoding.

Alternates zero-run lengths with nonzero values over the row-major flattened
matrix (Fig. 3); Eyeriss stores fmaps this way (Table I).  The most compact
MCF in the ~3%-20% density band (Fig. 4a's 10% star).  Run-field width is a
knob (``run_bits``, default 5, Eyeriss's choice): see
:mod:`repro.formats._runlength` for the fixed-width padding semantics that
make RLC degrade at extreme sparsity.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.formats._runlength import decode_runs, encode_runs, run_positions
from repro.formats.base import MatrixFormat, StorageBreakdown, check_coords
from repro.formats.registry import Format

DEFAULT_RUN_BITS = 5
"""Default width of the zero-run field, in bits (5, as in Eyeriss [17])."""


class RlcMatrix(MatrixFormat):
    """RLC encoding: parallel ``runs`` / ``levels`` entry arrays."""

    format = Format.RLC

    def __init__(
        self,
        shape: tuple[int, int],
        runs: np.ndarray,
        levels: np.ndarray,
        *,
        dtype_bits: int = 32,
        run_bits: int = DEFAULT_RUN_BITS,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.runs = np.asarray(runs, dtype=np.int64).ravel()
        self.levels = np.asarray(levels, dtype=np.float64).ravel()
        self.dtype_bits = dtype_bits
        self.run_bits = run_bits
        self._check_dtype_bits()
        run_positions(self.runs, self.levels, self.size)

    @classmethod
    def from_coords(
        cls,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
        run_bits: int = DEFAULT_RUN_BITS,
    ) -> "RlcMatrix":
        shape, flat, values = check_coords(shape, flat, values)
        runs, levels = encode_runs(flat, values, run_bits)
        return cls(shape, runs, levels, dtype_bits=dtype_bits, run_bits=run_bits)

    def to_dense(self) -> np.ndarray:
        return decode_runs(self.runs, self.levels, self.size).reshape(self.shape)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.levels))

    @property
    def entries(self) -> int:
        """Stored (run, level) pairs, including overflow padding entries."""
        return len(self.levels)

    def storage(self) -> StorageBreakdown:
        return StorageBreakdown(
            data_bits=self.entries * self.dtype_bits,
            metadata_bits=self.entries * self.run_bits,
        )

    def fields(self) -> Mapping[str, np.ndarray]:
        return {"runs": self.runs, "levels": self.levels}
