"""Abstract base classes and storage accounting for compression formats.

The two criteria the paper optimizes (Sec. I) are *compactness* (total bits of
data + metadata, driving DRAM energy) and *compute efficiency* (how an
algorithm walks the format).  The base classes fix the compactness interface;
compute efficiency lives in :mod:`repro.accelerator`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Mapping

import numpy as np

from repro.errors import FormatError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.formats.registry import Format


@dataclass(frozen=True)
class StorageBreakdown:
    """Bits of payload data vs format metadata for one encoded tensor.

    The paper's Fig. 4 plots are derived entirely from this split: DRAM
    transfer energy is proportional to ``total_bits``.
    """

    data_bits: int
    metadata_bits: int

    @property
    def total_bits(self) -> int:
        """Data plus metadata bits."""
        return self.data_bits + self.metadata_bits

    @property
    def metadata_fraction(self) -> float:
        """Share of the footprint spent on metadata (0 when empty)."""
        total = self.total_bits
        return self.metadata_bits / total if total else 0.0

    def __add__(self, other: "StorageBreakdown") -> "StorageBreakdown":
        return StorageBreakdown(
            self.data_bits + other.data_bits,
            self.metadata_bits + other.metadata_bits,
        )


class _EncodedBase(ABC):
    """Shared behaviour of matrix and tensor encodings."""

    #: Registry tag filled in by each concrete class.
    format: ClassVar["Format"]

    shape: tuple[int, ...]
    dtype_bits: int

    @abstractmethod
    def to_dense(self) -> np.ndarray:
        """Decode to a dense float64 ndarray of ``self.shape``."""

    @abstractmethod
    def storage(self) -> StorageBreakdown:
        """Bit accounting under the Sec. III-A metadata-width model."""

    @abstractmethod
    def fields(self) -> Mapping[str, np.ndarray]:
        """Ordered raw field arrays (as streamed by MINT), name -> array."""

    # ------------------------------------------------------------------ misc
    @property
    @abstractmethod
    def nnz(self) -> int:
        """Number of stored nonzero values (explicit zeros excluded)."""

    @property
    def size(self) -> int:
        """Number of logical positions in the tensor."""
        return int(np.prod(self.shape))

    @property
    def density(self) -> float:
        """nnz / size (0 for an empty shape)."""
        return self.nnz / self.size if self.size else 0.0

    @property
    def total_bits(self) -> int:
        """Convenience: ``storage().total_bits``."""
        return self.storage().total_bits

    def allclose(self, other: "_EncodedBase", rtol: float = 1e-12) -> bool:
        """True when both encodings decode to (almost) the same dense array."""
        if self.shape != other.shape:
            return False
        return bool(np.allclose(self.to_dense(), other.to_dense(), rtol=rtol))

    def _check_dtype_bits(self) -> None:
        if self.dtype_bits not in (8, 16, 32, 64):
            raise FormatError(
                f"dtype_bits must be one of 8/16/32/64, got {self.dtype_bits}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"dtype_bits={self.dtype_bits}, total_bits={self.total_bits})"
        )


class MatrixFormat(_EncodedBase):
    """Base class for 2-D encodings."""

    shape: tuple[int, int]

    @classmethod
    @abstractmethod
    def from_dense(cls, dense: np.ndarray, *, dtype_bits: int = 32) -> "MatrixFormat":
        """Encode a dense 2-D array."""

    @property
    def nrows(self) -> int:
        """Row count (M)."""
        return self.shape[0]

    @property
    def ncols(self) -> int:
        """Column count (K or N depending on operand role)."""
        return self.shape[1]


class TensorFormat(_EncodedBase):
    """Base class for 3-D encodings."""

    shape: tuple[int, int, int]

    @classmethod
    @abstractmethod
    def from_dense(cls, dense: np.ndarray, *, dtype_bits: int = 32) -> "TensorFormat":
        """Encode a dense 3-D array."""
