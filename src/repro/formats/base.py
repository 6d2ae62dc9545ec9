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
from repro.util.validation import check_dense_matrix

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


def check_distinct(
    ptr: np.ndarray, ids: np.ndarray, minor_dim: int, name: str
) -> None:
    """Reject a repeated cell in a compressed layout (CSR, CSC).

    *ptr* splits *ids* (in range) into one segment per major index.  Ids
    strictly ascending inside every segment are distinct, so encoder
    output pays one comparison; only out-of-order segments pay for the
    sort.
    """
    out_of_order = ids[1:] <= ids[:-1]
    starts = ptr[1:-1]
    out_of_order[starts[(starts > 0) & (starts < len(ids))] - 1] = False
    if out_of_order.any():
        major = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
        if len(np.unique(major * minor_dim + ids)) != len(ids):
            raise FormatError(f"{name} contains duplicate coordinates")


def check_coords(
    shape: tuple[int, int], flat: np.ndarray, values: np.ndarray
) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """Validate a matrix given as coordinates, the input of ``from_coords``.

    Returns ``(shape, flat, values)`` as an int pair, an ``int64`` and a
    ``float64`` 1-D array (no copy when they already are).  *flat* must
    hold distinct row-major positions in ascending order, inside the
    shape, one per value.
    """
    m, k = (int(shape[0]), int(shape[1]))
    flat = np.asarray(flat, dtype=np.int64).ravel()
    values = np.asarray(values, dtype=np.float64).ravel()
    if m < 0 or k < 0:
        raise FormatError(f"matrix shape must be non-negative, got {shape}")
    if len(flat) != len(values):
        raise FormatError(
            f"{len(flat)} positions but {len(values)} values"
        )
    if len(flat) and (
        flat[0] < 0
        or flat[-1] >= m * k
        or np.any(flat[1:] <= flat[:-1])
    ):
        raise FormatError(
            f"positions must be ascending, distinct and inside {m}x{k}"
        )
    return (m, k), flat, values


def coords_rows_cols(
    flat: np.ndarray, ncols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each row-major position (``np.divmod``, at half
    its cost: one division by the scalar)."""
    rows = flat // ncols
    return rows, flat - rows * ncols


def dense_to_coords(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of an array as ``(flat, values)``: ascending row-major
    positions and the values there."""
    flat = np.flatnonzero(dense)
    return flat, np.ravel(dense)[flat]


def coords_to_dense(
    shape: tuple[int, int], flat: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """The dense ``float64`` array of a matrix given as coordinates.

    When every position is set, *values* already is the row-major array:
    the result is a view of it, not a copy.
    """
    (m, k), flat, values = check_coords(shape, flat, values)
    if len(values) == m * k:
        return values.reshape(m, k)
    dense = np.zeros(m * k, dtype=np.float64)
    dense[flat] = values
    return dense.reshape(m, k)


class MatrixFormat(_EncodedBase):
    """Base class for 2-D encodings.

    Every encoding is built by :meth:`from_coords` from its nonzeros;
    :meth:`from_dense` finds them in a dense array and hands them on.
    """

    shape: tuple[int, int]

    @classmethod
    @abstractmethod
    def from_coords(
        cls,
        shape: tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> "MatrixFormat":
        """Encode the matrix of *shape* whose nonzero *values* sit at the
        ascending distinct row-major positions *flat* (every other
        position is zero)."""

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, *, dtype_bits: int = 32, **options
    ) -> "MatrixFormat":
        """Encode a dense 2-D array: its nonzeros through
        :meth:`from_coords` (*options* are the format's own, e.g. RLC's
        ``run_bits``)."""
        dense = check_dense_matrix(dense)
        return cls.from_coords(
            dense.shape, *dense_to_coords(dense),
            dtype_bits=dtype_bits, **options,
        )

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
