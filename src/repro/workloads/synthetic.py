"""Seeded uniform-random sparse operand generators.

Stands in for SuiteSparse / DeepBench / FROSTT / BrainQ downloads: the
paper's models consume only (dimensions, nnz, dtype), and its performance
model explicitly assumes "a uniform random distribution of the dense
values" (Sec. VI), so uniform-random operands with the exact published
dimensions and nonzero counts exercise the same behaviour.

Values are drawn from (0.1, 1] so no sampled nonzero collapses to zero.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import coords_to_dense


def _sample_distinct(total: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample *count* distinct linear indices from [0, total).

    Over-samples with replacement and deduplicates through a ``bool[total]``
    bitmap (one byte per index), looping until enough distinct positions
    exist.  Returns them ascending.
    """
    if count < 0 or count > total:
        raise ValueError(f"cannot sample {count} distinct from {total}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count == total:
        return np.arange(total, dtype=np.int64)
    if count > total // 2:
        # Sample the complement instead: it is the smaller set.
        holes = _sample_distinct(total, total - count, rng)
        mask = np.ones(total, dtype=bool)
        mask[holes] = False
        return np.flatnonzero(mask).astype(np.int64, copy=False)
    seen = np.zeros(total, dtype=bool)
    seen[rng.integers(0, total, size=int(count * 1.2) + 16)] = True
    while np.count_nonzero(seen) < count:
        seen[rng.integers(0, total, size=int(count * 0.2) + 16)] = True
    chosen = np.flatnonzero(seen)
    rng.shuffle(chosen)
    return np.sort(chosen[:count]).astype(np.int64, copy=False)


def random_sparse_coords(
    m: int,
    k: int,
    nnz: int,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly *nnz* uniform nonzeros of an (m, k) matrix as coordinates.

    Returns ``(flat, values)``: ascending distinct row-major positions
    (``int64``) and their values in (0.1, 1] (``float64``), the input of
    every ``MatrixFormat.from_coords``.
    """
    rng = np.random.default_rng(rng)
    flat = _sample_distinct(m * k, nnz, rng)
    values = rng.random(len(flat))
    values *= 0.9  # in place: the same 0.1 + 0.9 * u, one array
    values += 0.1
    return flat, values


def random_sparse_matrix(
    m: int,
    k: int,
    nnz: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Dense array of shape (m, k) with exactly *nnz* uniform nonzeros:
    :func:`random_sparse_coords` scattered."""
    return coords_to_dense((m, k), *random_sparse_coords(m, k, nnz, rng))
