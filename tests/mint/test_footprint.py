"""MINT's transit footprints: one storage-model call per format per operand.

A :class:`~repro.mint.graph.RouteTable` prices every datapath of one
operand from the transit footprint of each format, computed once.  The
footprint must answer exactly what the storage model does.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.compactness import storage_bits
from repro.formats.registry import Format
import repro.mint.graph as graph_module
from repro.mint.graph import (
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
def test_footprint_matches_storage_model(case):
    fmt, stats = case
    bits = _footprint_bits(fmt, stats)
    assert bits == _storage_model(fmt, stats)
    assert type(bits) is float


def test_route_table_reads_each_footprint_once(monkeypatch):
    """Pricing every edge of an operand calls the storage model once per
    format, and routing all pairs from that table calls it no more."""
    calls = []

    def counting(*args):
        calls.append(args[0])
        return storage_bits(*args)

    monkeypatch.setattr(graph_module, "storage_bits", counting)
    stats = HopStats(size=(1 << 20) + 3, nnz=12_345, major_dim=1 << 10)
    table = conversion_graph(tensor=False).table(stats)
    for src in MATRIX_NODES:
        for dst in MATRIX_NODES:
            table.route(src, dst)
    assert len(calls) == len(MATRIX_NODES)
    assert table.bits == [
        _storage_model(fmt, stats) for fmt in table.index.nodes
    ]
