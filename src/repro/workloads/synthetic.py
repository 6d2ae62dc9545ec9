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

from repro.util.validation import check_probability


def _sample_distinct(total: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample *count* distinct linear indices from [0, total).

    Over-samples with replacement and deduplicates through a ``bool[total]``
    bitmap, looping until enough distinct positions exist.  The bitmap
    costs one byte per index, 1/8 of the ``float64[total]`` array every
    caller fills.
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
        return np.flatnonzero(mask).astype(np.int64)
    seen = np.zeros(total, dtype=bool)
    seen[rng.integers(0, total, size=int(count * 1.2) + 16)] = True
    while np.count_nonzero(seen) < count:
        seen[rng.integers(0, total, size=int(count * 0.2) + 16)] = True
    chosen = np.flatnonzero(seen)
    rng.shuffle(chosen)
    return np.sort(chosen[:count]).astype(np.int64)


def random_sparse_matrix(
    m: int,
    k: int,
    nnz: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Dense array of shape (m, k) with exactly *nnz* uniform nonzeros."""
    rng = np.random.default_rng(rng)
    out = np.zeros(m * k, dtype=np.float64)
    idx = _sample_distinct(m * k, nnz, rng)
    out[idx] = 0.1 + 0.9 * rng.random(len(idx))
    return out.reshape(m, k)


def random_sparse_tensor(
    shape: tuple[int, int, int],
    nnz: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Dense 3-D array with exactly *nnz* uniform nonzeros."""
    rng = np.random.default_rng(rng)
    size = int(np.prod(shape))
    out = np.zeros(size, dtype=np.float64)
    idx = _sample_distinct(size, nnz, rng)
    out[idx] = 0.1 + 0.9 * rng.random(len(idx))
    return out.reshape(shape)


def bernoulli_sparse_matrix(
    m: int,
    k: int,
    density: float,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Matrix whose entries are independently nonzero with prob. *density*.

    Used where the paper specifies a density region rather than an exact
    nonzero count (the Fig. 14 pruning sweeps).
    """
    check_probability(density, "density")
    rng = np.random.default_rng(rng)
    mask = rng.random((m, k)) < density
    return (0.1 + 0.9 * rng.random((m, k))) * mask
