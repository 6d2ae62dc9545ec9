"""Shared low-level utilities: bit accounting, validation, statistics."""

from repro.util.bits import (
    bits_for_count,
    bits_for_index,
    ceil_div,
    ceil_log2,
)
from repro.util.stats import geomean, normalized, summarize
from repro.util.validation import (
    check_dense_matrix,
    check_dense_tensor,
)

__all__ = [
    "bits_for_count",
    "bits_for_index",
    "ceil_div",
    "ceil_log2",
    "geomean",
    "normalized",
    "summarize",
    "check_dense_matrix",
    "check_dense_tensor",
]
