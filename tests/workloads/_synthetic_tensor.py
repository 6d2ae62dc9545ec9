"""Seeded uniform-random 3-D test operands.

No src path materializes a 3-D operand, so the tensor generator lives with
the tests: it draws a tensor's nonzeros as
:func:`repro.workloads.synthetic.random_sparse_coords` draws a matrix's
(the tensor flattened row-major) and scatters them.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.synthetic import random_sparse_coords


def random_sparse_tensor(
    shape: tuple[int, int, int],
    nnz: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Dense 3-D array with exactly *nnz* uniform nonzeros."""
    i, j, k = shape
    flat, values = random_sparse_coords(i, j * k, nnz, rng)
    out = np.zeros(i * j * k, dtype=np.float64)
    out[flat] = values
    return out.reshape(shape)
