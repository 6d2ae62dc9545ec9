"""Bit-width helpers used by the storage-compactness models.

The paper's compactness analysis (Sec. III-A) states: *"The number of metadata
bits required is the log of the maximum possible value."*  These helpers
centralize that accounting so every format class computes metadata widths the
same way.
"""

from __future__ import annotations

import math


def ceil_log2(value: int) -> int:
    """Return ``ceil(log2(value))`` for a positive integer.

    ``ceil_log2(1) == 0``: a single possible value needs no bits to encode.

    Parameters
    ----------
    value:
        Positive integer.

    Raises
    ------
    ValueError
        If ``value`` is not a positive integer.
    """
    if value < 1:
        raise ValueError(f"ceil_log2 requires a positive integer, got {value!r}")
    return int(math.ceil(math.log2(value))) if value > 1 else 0


def bits_for_index(dimension: int) -> int:
    """Bits needed to address one coordinate in a dimension of given size.

    A dimension of size ``d`` has valid indices ``0 .. d-1``, so the metadata
    width is ``ceil(log2(d))`` with a floor of 1 bit (an index field narrower
    than one bit cannot exist in hardware).
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    return max(1, ceil_log2(dimension))


def bits_for_count(max_count: int) -> int:
    """Bits needed to store a counter whose values span ``0 .. max_count``.

    Used for CSR/CSC pointer arrays whose entries range up to ``nnz``
    inclusive, hence ``max_count + 1`` representable values.
    """
    if max_count < 0:
        raise ValueError(f"max_count must be >= 0, got {max_count}")
    return max(1, ceil_log2(max_count + 1))


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division; denominator must be positive."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)
