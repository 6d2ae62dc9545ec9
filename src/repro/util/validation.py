"""Argument validation helpers shared across the package."""

from __future__ import annotations

from typing import Any

import numpy as np


def check_dense_matrix(array: Any, name: str = "matrix") -> np.ndarray:
    """Coerce *array* to a 2-D float64 ndarray, raising on bad rank.

    Returns a C-contiguous view/copy so downstream row-major iteration is
    cache-friendly (see the HPC guide note on strides).
    """
    arr = np.ascontiguousarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def check_dense_tensor(array: Any, name: str = "tensor") -> np.ndarray:
    """Coerce *array* to a 3-D float64 ndarray, raising on bad rank."""
    arr = np.ascontiguousarray(array, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be 3-D, got shape {arr.shape}")
    return arr
