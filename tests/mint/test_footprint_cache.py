"""``_footprint_bits`` is memoized on (format, operand stats), and bounded.

A route search prices both ends of every hop twice (its cycle estimate
and its cost) for one operand, so the transit footprint is memoized.  The
memo must answer exactly what the storage model does, and must not grow
with the number of distinct operands a long-lived process sees.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.compactness import storage_bits
from repro.formats.registry import Format
from repro.mint.graph import (
    FOOTPRINT_CACHE_SIZE,
    HopStats,
    _dims_for,
    _footprint_bits,
    conversion_graph,
)


def _graph_formats(tensor: bool) -> list[Format]:
    formats = set()
    for dp in conversion_graph(tensor=tensor):
        formats.update((dp.source, dp.target))
    return sorted(formats, key=lambda fmt: fmt.value)


MATRIX_NODES = _graph_formats(tensor=False)
TENSOR_NODES = _graph_formats(tensor=True)


@st.composite
def _fmt_and_stats(draw):
    tensor = draw(st.booleans())
    fmt = draw(st.sampled_from(TENSOR_NODES if tensor else MATRIX_NODES))
    size = draw(st.integers(1, 1 << 22))
    major_dim = draw(st.integers(1, size))
    # The storage model sees dims rebuilt from (size, major_dim); keep nnz
    # within them, as every real operand's is.
    cells = math.prod(_dims_for(size, major_dim, tensor=tensor))
    stats = HopStats(
        size=size,
        nnz=draw(st.integers(0, cells)),
        major_dim=major_dim,
        dtype_bits=draw(st.sampled_from((8, 16, 32, 64))),
        tensor=tensor,
    )
    return fmt, stats


def _storage_model(fmt: Format, stats: HopStats) -> float:
    """The transit footprint straight from the storage model."""
    dims = _dims_for(stats.size, stats.major_dim, tensor=stats.tensor)
    transit = Format.ZVC if fmt is Format.DENSE else fmt
    return float(storage_bits(transit, dims, stats.nnz, stats.dtype_bits))


@settings(max_examples=200, deadline=None)
@given(_fmt_and_stats())
def test_memoized_footprint_matches_storage_model(case):
    fmt, stats = case
    expected = _storage_model(fmt, stats)
    first = _footprint_bits(fmt, stats)
    # An equal-valued stats object is answered from the memo.
    again = _footprint_bits(fmt, HopStats(**vars(stats)))
    assert first == expected
    assert again == expected
    assert type(first) is float and type(again) is float


def test_cache_stays_bounded():
    info = _footprint_bits.cache_info()
    assert info.maxsize == FOOTPRINT_CACHE_SIZE
    for nnz in range(2 * FOOTPRINT_CACHE_SIZE):
        _footprint_bits(
            Format.CSR, HopStats(size=1 << 20, nnz=nnz, major_dim=1 << 10)
        )
    assert _footprint_bits.cache_info().currsize <= FOOTPRINT_CACHE_SIZE


def test_route_search_reuses_footprints():
    """Pricing one operand's hops twice hits the memo the second time."""
    stats = HopStats(size=(1 << 20) + 3, nnz=12_345, major_dim=1 << 10)
    _footprint_bits.cache_clear()
    for _ in range(2):
        for dp in conversion_graph(tensor=False):
            dp.cycles(stats)
    info = _footprint_bits.cache_info()
    assert info.currsize == len(MATRIX_NODES)
    assert info.hits >= info.misses
