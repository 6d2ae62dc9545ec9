"""Compressed Sparse Fiber (CSF) 3-D tensor encoding.

CSF (Smith & Karypis) stores the nonzeros of a tensor as a tree: one node
layer per mode, with pointer arrays compressing shared coordinate prefixes
(Fig. 3b).  The paper's MCF/ACF of choice for the mid-density Crime and Uber
tensors (Table III) and the target of MINT's Dense->CSF conversion
(Fig. 8f).

Mode order is fixed to (x, y, z): roots are unique x coordinates, their
children unique (x, y) fibers, and leaves the (z, value) pairs.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import FormatError
from repro.formats.base import StorageBreakdown, TensorFormat, check_distinct
from repro.formats.registry import Format
from repro.formats.tensor_coo import CooTensor
from repro.util.bits import bits_for_count, bits_for_index
from repro.util.validation import check_dense_tensor


class CsfTensor(TensorFormat):
    """CSF encoding with arrays ``x_ids/x_ptr``, ``y_ids/y_ptr``, ``z_ids/values``."""

    format = Format.CSF

    def __init__(
        self,
        shape: tuple[int, int, int],
        x_ids: np.ndarray,
        x_ptr: np.ndarray,
        y_ids: np.ndarray,
        y_ptr: np.ndarray,
        z_ids: np.ndarray,
        values: np.ndarray,
        *,
        dtype_bits: int = 32,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)  # type: ignore[assignment]
        self.x_ids = np.asarray(x_ids, dtype=np.int64).ravel()
        self.x_ptr = np.asarray(x_ptr, dtype=np.int64).ravel()
        self.y_ids = np.asarray(y_ids, dtype=np.int64).ravel()
        self.y_ptr = np.asarray(y_ptr, dtype=np.int64).ravel()
        self.z_ids = np.asarray(z_ids, dtype=np.int64).ravel()
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.dtype_bits = dtype_bits
        self._check_dtype_bits()
        self._validate()

    def _validate(self) -> None:
        n0, n1, n2 = len(self.x_ids), len(self.y_ids), len(self.values)
        if len(self.z_ids) != n2:
            raise FormatError("CSF z_ids/values length mismatch")
        if len(self.x_ptr) != n0 + 1 or len(self.y_ptr) != n1 + 1:
            raise FormatError("CSF pointer array length mismatch")
        if n0:
            if self.x_ptr[0] != 0 or self.x_ptr[-1] != n1:
                raise FormatError("CSF x_ptr endpoints must be 0 and len(y_ids)")
            if self.y_ptr[0] != 0 or self.y_ptr[-1] != n2:
                raise FormatError("CSF y_ptr endpoints must be 0 and nnz")
        elif n1 or n2:
            raise FormatError("CSF with no roots cannot have fibers or leaves")
        for name, ptr in (("x_ptr", self.x_ptr), ("y_ptr", self.y_ptr)):
            if np.any(np.diff(ptr) < 0):
                raise FormatError(f"CSF {name} must be non-decreasing")
        # A root is stored once, a fiber once per root, a leaf once per fiber.
        for name, ids, ptr, dim in (
            ("x_ids", self.x_ids, np.array([0, n0]), self.shape[0]),
            ("y_ids", self.y_ids, self.x_ptr, self.shape[1]),
            ("z_ids", self.z_ids, self.y_ptr, self.shape[2]),
        ):
            if len(ids) and (ids.min() < 0 or ids.max() >= dim):
                raise FormatError(f"CSF {name} out of range")
            check_distinct(ptr, ids, dim, f"CSF {name}")

    # ----------------------------------------------------------- construction
    @classmethod
    def from_coo(cls, coo: CooTensor) -> "CsfTensor":
        """Build the CSF tree from a COO tensor (sorted internally)."""
        sorted_coo = coo.sorted_lexicographic()
        xs, ys, zs = sorted_coo.x_ids, sorted_coo.y_ids, sorted_coo.z_ids
        vals = sorted_coo.values
        n = len(vals)
        if n == 0:
            empty_i = np.empty(0, dtype=np.int64)
            return cls(
                coo.shape,
                empty_i,
                np.zeros(1, dtype=np.int64),
                empty_i,
                np.zeros(1, dtype=np.int64),
                empty_i,
                np.empty(0, dtype=np.float64),
                dtype_bits=coo.dtype_bits,
            )
        # Fiber boundaries: new (x) root where x changes; new (x, y) fiber
        # where x or y changes.
        x_new = np.empty(n, dtype=bool)
        x_new[0] = True
        x_new[1:] = xs[1:] != xs[:-1]
        xy_new = np.empty(n, dtype=bool)
        xy_new[0] = True
        xy_new[1:] = x_new[1:] | (ys[1:] != ys[:-1])

        x_starts = np.flatnonzero(x_new)
        xy_starts = np.flatnonzero(xy_new)
        x_ids = xs[x_starts]
        y_ids = ys[xy_starts]
        # x_ptr[i] = number of fibers starting before root i's first entry.
        fiber_index_of_entry = np.cumsum(xy_new) - 1
        x_ptr = np.concatenate(
            [fiber_index_of_entry[x_starts], [len(xy_starts)]]
        ).astype(np.int64)
        y_ptr = np.concatenate([xy_starts, [n]]).astype(np.int64)
        return cls(
            coo.shape, x_ids, x_ptr, y_ids, y_ptr, zs, vals, dtype_bits=coo.dtype_bits
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, dtype_bits: int = 32) -> "CsfTensor":
        dense = check_dense_tensor(dense)
        return cls.from_coo(CooTensor.from_dense(dense, dtype_bits=dtype_bits))

    def to_coo(self) -> CooTensor:
        """Flatten the tree back to COO."""
        n1 = len(self.y_ids)
        n2 = len(self.values)
        fiber_counts = np.diff(self.y_ptr)  # leaves per (x, y) fiber
        ys = np.repeat(self.y_ids, fiber_counts) if n1 else np.empty(0, dtype=np.int64)
        if len(self.x_ids):
            # Entries per root = leaves summed over that root's fiber range.
            cum = np.concatenate([[0], np.cumsum(fiber_counts)])
            entries_per_root = cum[self.x_ptr[1:]] - cum[self.x_ptr[:-1]]
            xs = np.repeat(self.x_ids, entries_per_root)
        else:
            xs = np.empty(0, dtype=np.int64)
        if len(xs) != n2 or len(ys) != n2:
            raise FormatError("CSF tree is inconsistent: leaf counts disagree")
        return CooTensor(
            self.shape, self.values, xs, ys, self.z_ids, dtype_bits=self.dtype_bits
        )

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def nroots(self) -> int:
        """Unique x coordinates."""
        return len(self.x_ids)

    @property
    def nfibers(self) -> int:
        """Unique (x, y) fibers."""
        return len(self.y_ids)

    def storage(self) -> StorageBreakdown:
        n0, n1, n2 = self.nroots, self.nfibers, len(self.values)
        meta = (
            n0 * bits_for_index(self.shape[0])
            + (n0 + 1) * bits_for_count(max(n1, 1))
            + n1 * bits_for_index(self.shape[1])
            + (n1 + 1) * bits_for_count(max(n2, 1))
            + n2 * bits_for_index(self.shape[2])
        )
        return StorageBreakdown(data_bits=n2 * self.dtype_bits, metadata_bits=meta)

    def fields(self) -> Mapping[str, np.ndarray]:
        return {
            "x_ids": self.x_ids,
            "x_ptr": self.x_ptr,
            "y_ids": self.y_ids,
            "y_ptr": self.y_ptr,
            "z_ids": self.z_ids,
            "values": self.values,
        }
