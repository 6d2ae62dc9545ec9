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


def check_probability(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
