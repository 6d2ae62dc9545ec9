"""Pluggable streaming-protocol and stationary-layout registries.

The accelerator's whole format dispatch (streaming slot costs, which ACFs
may stream or sit stationary, entry extraction and stationary footprints)
lives in two registries, mirroring the conversion-graph registry of
:mod:`repro.mint.graph`; :func:`streamable_formats` and
:func:`stationary_formats` derive the supported ACF sets from them:

* :class:`StreamProtocol` — how one ACF travels on the distribution bus:
  its :class:`~repro.accelerator.stream.StreamSpec` slot costs, whether
  entries arrive grouped by output row (the spill model depends on it),
  and a **vectorized entry-extraction kernel** producing the parallel
  ``(i, k, v, group_sizes)`` arrays the beat packer consumes.  Protocols
  self-register through :func:`register_stream_protocol`; tensor ACFs that
  only the analytical model streams register spec-only (no extractor).
  A protocol may register a **statistics kernel** that reads a K tiling's
  :class:`~repro.accelerator.stream.StreamStats` straight off the
  operand's arrays (Dense, CSR, COO, ELL); without one the statistics
  are derived from each K tile's extracted entries
  (:meth:`StreamProtocol.stream_stats`).  A GEMM reads its streamed
  operand once, through these statistics: its report and its output
  product both come from them.  The extraction kernels serve the
  per-tile beat plans of traces and the Fig. 6 walkthrough, and the
  statistics of protocols without a kernel.
* :class:`StationaryLayout` — how one ACF occupies the PE buffers: entries
  consumed per stored element, direct-index vs metadata matching, and a
  ``prepare`` hook materializing the array-resident view
  (:class:`StationaryOperand`) the vectorized engine and scheduler share.

Adding a streamable format is one decorated function next to the others —
the simulator, scheduler, perf model, SAGE's cycle-fidelity tier and the
CLI pick it up automatically.  Unsupported lookups raise
:class:`~repro.errors.SimulationError` naming the registered formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.accelerator.stream import PAD_K, StreamSpec, StreamStats
from repro.errors import SimulationError
from repro.formats.base import MatrixFormat
from repro.formats.coo import CooMatrix
from repro.formats.csc import CscMatrix
from repro.formats.csr import CsrMatrix
from repro.formats.dense import DenseMatrix
from repro.formats.ell import PAD_COL, EllMatrix
from repro.formats.registry import Format

__all__ = [
    "StationaryLayout",
    "StationaryOperand",
    "StreamProtocol",
    "register_stationary_layout",
    "register_stream_protocol",
    "stationary_formats",
    "stationary_layout_for",
    "stream_protocol_for",
    "streamable_formats",
]

#: Extraction kernel: ``fn(a, k_lo, k_hi) -> (i, k, v, group_sizes)`` where
#: the entry arrays are concatenated group-major in stream order and
#: ``group_sizes`` counts entries per group (empty groups allowed).
ExtractFn = Callable[
    [MatrixFormat, int, int],
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]

#: Statistics kernel: ``fn(a, k_tiles) -> StreamStats``, equal to what
#: :meth:`StreamProtocol.stream_stats` derives from the extracted entries,
#: taken straight from the operand's own arrays.
StatsFn = Callable[[MatrixFormat, Sequence[tuple[int, int]]], StreamStats]


@dataclass(frozen=True)
class StreamProtocol:
    """One ACF's bus-streaming contract."""

    format: Format
    spec: StreamSpec
    tensor: bool = False
    extract: ExtractFn | None = None  # None: spec-only (analytical model)
    operand_cls: type | None = None  # required encoding class, if any
    row_grouped: bool = True  # entries arrive grouped by output row
    stats: StatsFn | None = None  # None: derive statistics from entries

    @property
    def streamable(self) -> bool:
        """Can the cycle simulator stream real payloads in this ACF?"""
        return self.extract is not None

    def extract_entries(
        self, a: MatrixFormat, k_lo: int, k_hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the registered extraction kernel, validating the operand."""
        self._check_operand(a)
        return self.extract(a, int(k_lo), int(k_hi))

    def stream_stats(
        self, a: MatrixFormat, k_tiles: Sequence[tuple[int, int]]
    ) -> StreamStats:
        """Statistics of streaming *a* once per K tile, in one pass.

        A registered statistics kernel reads them off the operand's
        arrays; otherwise they are derived from each tile's extracted
        entries.  Both give the same result.
        """
        self._check_operand(a)
        if self.stats is not None:
            return self.stats(a, k_tiles)
        return _stats_from_entries(
            [self.extract_entries(a, lo, hi) for lo, hi in k_tiles],
            a.ncols,
        )

    def _check_operand(self, a: MatrixFormat) -> None:
        if self.extract is None:
            raise SimulationError(
                f"{self.format} registers streaming slot costs only; the "
                f"cycle simulator cannot stream it (streamable: "
                f"{_names(streamable_formats(tensor=self.tensor))})"
            )
        if self.operand_cls is not None and not isinstance(a, self.operand_cls):
            raise SimulationError(
                f"{self.format} streaming requires a "
                f"{self.operand_cls.__name__} operand, got {type(a).__name__}"
            )


class _ProtocolRegistry:
    """Format -> protocol map with helpful unsupported-lookup errors."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._table: dict[Format, StreamProtocol] = {}

    def register(self, proto: StreamProtocol) -> StreamProtocol:
        self._table[proto.format] = proto
        return proto

    def get(self, fmt: Format) -> StreamProtocol:
        try:
            return self._table[fmt]
        except KeyError:
            raise SimulationError(
                f"{fmt} is not a registered {self.kind} streaming ACF "
                f"(registered: {_names(self._table)})"
            ) from None

    def formats(self) -> tuple[Format, ...]:
        return tuple(self._table)

    def __iter__(self) -> Iterator[StreamProtocol]:
        return iter(self._table.values())

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, fmt: Format) -> bool:
        return fmt in self._table


def _names(fmts) -> str:
    return ", ".join(f.value for f in fmts) or "none"


#: The process-wide registries the decorators populate.
MATRIX_STREAM_PROTOCOLS = _ProtocolRegistry("matrix")
TENSOR_STREAM_PROTOCOLS = _ProtocolRegistry("tensor")


def stream_protocol_for(fmt: Format, *, tensor: bool = False) -> StreamProtocol:
    """The registered protocol for an ACF (matrix by default)."""
    reg = TENSOR_STREAM_PROTOCOLS if tensor else MATRIX_STREAM_PROTOCOLS
    return reg.get(fmt)


def streamable_formats(*, tensor: bool = False) -> tuple[Format, ...]:
    """ACFs the cycle simulator can stream (extraction kernel registered)."""
    reg = TENSOR_STREAM_PROTOCOLS if tensor else MATRIX_STREAM_PROTOCOLS
    return tuple(p.format for p in reg if p.streamable)


def register_stream_protocol(
    fmt: Format,
    *,
    spec: StreamSpec,
    tensor: bool = False,
    operand_cls: type | None = None,
    row_grouped: bool = True,
    stats: StatsFn | None = None,
) -> Callable[[ExtractFn], ExtractFn]:
    """Decorator: self-register an extraction kernel as a stream protocol."""

    def deco(fn: ExtractFn) -> ExtractFn:
        reg = TENSOR_STREAM_PROTOCOLS if tensor else MATRIX_STREAM_PROTOCOLS
        reg.register(
            StreamProtocol(
                format=fmt,
                spec=spec,
                tensor=tensor,
                extract=fn,
                operand_cls=operand_cls,
                row_grouped=row_grouped,
                stats=stats,
            )
        )
        return fn

    return deco


# --------------------------------------------------------------------------
# whole-operand stream statistics
# --------------------------------------------------------------------------


def _tile_of_k(k_tiles: Sequence[tuple[int, int]]) -> np.ndarray:
    """The K tile each reduction index belongs to."""
    widths = [hi - lo for lo, hi in k_tiles]
    return np.repeat(np.arange(len(widths), dtype=np.int64), widths)


def _stats_from_entries(parts, ncols: int) -> StreamStats:
    """Statistics of each K tile's extracted ``(i, k, v, group_sizes)``,
    in tile order (any protocol)."""
    i, k, v, sizes = (
        np.concatenate([np.asarray(part[j]) for part in parts])
        for j in range(4)
    )
    tile_ids = np.arange(len(parts), dtype=np.int64)
    entry_tile = np.repeat(tile_ids, [len(part[2]) for part in parts])
    valid = k >= 0  # padding slots never reach the datapath
    i, k, v = i[valid].astype(np.int64), k[valid].astype(np.int64), v[valid]
    entry_tile = entry_tile[valid]
    # A run continues only across two adjacent entries of one tile and row.
    same = (i[1:] == i[:-1]) & (entry_tile[1:] == entry_tile[:-1])
    runs = np.bincount(entry_tile, minlength=len(parts)) - np.bincount(
        entry_tile[1:][same], minlength=len(parts)
    )
    sizes = sizes.astype(np.int64)
    return StreamStats(
        c_all=np.bincount(k, minlength=ncols),
        c_nz=np.bincount(k[v != 0.0], minlength=ncols),
        runs=runs,
        groups=(
            sizes,
            np.repeat(tile_ids, [len(part[3]) for part in parts]),
            np.ones_like(sizes),
        ),
        entries=(i, k, entry_tile, v),
    )


def _row_major_stats(rows, k, v, shape, k_tiles, groups) -> StreamStats:
    """Statistics of a row-grouped stream from its stored entries.

    Within every tile the stream visits rows in order, each row's entries
    together, so a tile's runs are its nonempty rows.  ``groups(tile,
    counts, num_tiles, m)`` turns the nonempty (tile, row) pairs, in
    stream order, and their entry counts into the protocol's bus groups.
    """
    m, ncols = shape
    num_tiles = len(k_tiles)
    entry_tile = _tile_of_k(k_tiles)[k]
    keys = entry_tile * m + rows
    # A (tile x row) histogram, the same order of size as the stationary
    # side's (tile x column) counts.
    counts = np.bincount(keys, minlength=num_tiles * m)
    keys = np.flatnonzero(counts)
    counts = counts[keys]
    key_tile = keys // max(m, 1)
    return StreamStats(
        c_all=np.bincount(k, minlength=ncols),
        c_nz=np.bincount(k[v != 0.0], minlength=ncols),
        runs=np.bincount(key_tile, minlength=num_tiles),
        groups=groups(key_tile, counts, num_tiles, m),
        entries=(rows, k, entry_tile, v),
    )


def _stats_dense(a: MatrixFormat, k_tiles) -> StreamStats:
    """Every row streams every k of a tile: one group per row and tile."""
    dense = a.values if isinstance(a, DenseMatrix) else a.to_dense()
    m, ncols = dense.shape
    widths = np.asarray([hi - lo for lo, hi in k_tiles], dtype=np.int64)
    return StreamStats(
        c_all=np.full(ncols, m, dtype=np.int64),
        c_nz=np.count_nonzero(dense, axis=0).astype(np.int64),
        runs=np.where(widths > 0, m, 0),
        groups=(
            widths,
            np.arange(len(widths), dtype=np.int64),
            np.full(len(widths), m, dtype=np.int64),
        ),
        entries=None,
    )


def _csr_groups(tile, counts, _num_tiles, _m):
    """One group per nonempty (tile, row)."""
    return counts, tile, np.ones_like(counts)


def _stats_csr(a: CsrMatrix, k_tiles) -> StreamStats:
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_lengths())
    return _row_major_stats(
        rows, a.col_ids, a.values, a.shape, k_tiles, _csr_groups
    )


def _coo_groups(tile, counts, num_tiles, _m):
    """One ungrouped run per tile."""
    sizes = np.zeros(num_tiles, dtype=np.int64)
    np.add.at(sizes, tile, counts)
    tiles = np.arange(num_tiles, dtype=np.int64)
    return sizes, tiles, np.ones_like(sizes)


def _stats_coo(a: CooMatrix, k_tiles) -> StreamStats:
    return _row_major_stats(
        a.row_ids, a.col_ids, a.values, a.shape, k_tiles, _coo_groups
    )


def _ell_groups(tile, counts, num_tiles, m):
    """Every row of a tile streams the tile's widest row, padded."""
    width = np.zeros(num_tiles, dtype=np.int64)
    np.maximum.at(width, tile, counts)
    tiles = np.arange(num_tiles, dtype=np.int64)
    return width, tiles, np.full(num_tiles, m, dtype=np.int64)


def _stats_ell(a: EllMatrix, k_tiles) -> StreamStats:
    real = a.col_ids != PAD_COL
    rows = np.nonzero(real)[0]
    return _row_major_stats(
        rows, a.col_ids[real], a.values[real], a.shape, k_tiles, _ell_groups
    )


# --------------------------------------------------------------------------
# matrix streaming protocols (streamed operand A of the WS dataflow)
# --------------------------------------------------------------------------


@register_stream_protocol(
    Format.DENSE,
    spec=StreamSpec(entry_slots=1, shared_slots=1, grouped=True),
    stats=_stats_dense,
)
def _extract_dense(a: MatrixFormat, lo: int, hi: int):
    """Every (row, k) position streams, zeros included (Fig. 6a)."""
    dense = a.values if isinstance(a, DenseMatrix) else a.to_dense()
    m = dense.shape[0]
    width = hi - lo
    i = np.repeat(np.arange(m, dtype=np.int64), width)
    k = np.tile(np.arange(lo, hi, dtype=np.int64), m)
    v = dense[:, lo:hi].astype(np.float64).ravel()
    return i, k, v, np.full(m, width, dtype=np.int64)


@register_stream_protocol(
    Format.CSR,
    spec=StreamSpec(entry_slots=2, shared_slots=1, grouped=True),
    operand_cls=CsrMatrix,
    stats=_stats_csr,
)
def _extract_csr(a: CsrMatrix, lo: int, hi: int):
    """Stored entries grouped per row, row-major (Fig. 6b)."""
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_lengths())
    sel = (a.col_ids >= lo) & (a.col_ids < hi)
    i = rows[sel]
    sizes = np.bincount(i, minlength=a.nrows).astype(np.int64)
    return i, a.col_ids[sel], a.values[sel], sizes


@register_stream_protocol(
    Format.CSC,
    spec=StreamSpec(entry_slots=2, shared_slots=1, grouped=True),
    operand_cls=CscMatrix,
    row_grouped=False,  # column-major: output rows interleave
)
def _extract_csc(a: CscMatrix, lo: int, hi: int):
    """Stored entries grouped per column (the shared header is the k id)."""
    plo, phi = int(a.col_ptr[lo]), int(a.col_ptr[hi])
    sizes = a.col_lengths()[lo:hi].astype(np.int64)
    k = np.repeat(np.arange(lo, hi, dtype=np.int64), sizes)
    return a.row_ids[plo:phi], k, a.values[plo:phi], sizes


@register_stream_protocol(
    Format.COO,
    spec=StreamSpec(entry_slots=3, shared_slots=0, grouped=False),
    operand_cls=CooMatrix,
    stats=_stats_coo,
)
def _extract_coo(a: CooMatrix, lo: int, hi: int):
    """Row-major sorted coordinates, one ungrouped run (Fig. 6c)."""
    order = np.lexsort((a.col_ids, a.row_ids))
    i, k, v = a.row_ids[order], a.col_ids[order], a.values[order]
    sel = (k >= lo) & (k < hi)
    i, k, v = i[sel], k[sel], v[sel]
    return i, k, v, np.asarray([len(v)], dtype=np.int64)


@register_stream_protocol(
    Format.ELL,
    spec=StreamSpec(entry_slots=2, shared_slots=1, grouped=True),
    operand_cls=EllMatrix,
    stats=_stats_ell,
)
def _extract_ell(a: EllMatrix, lo: int, hi: int):
    """Fixed-width rows: every row streams the tile's max row occupancy.

    ELL's hardware appeal is that every row has the same shape, so the
    streamer sends ``width`` (value, col id) slot pairs per row — padding
    slots included, carried as ``(0, PAD_K)`` and discarded by the PEs.
    Under a K-tile restriction the streamer re-packs to the tile-local
    width (the fixed-shape invariant holds per tile).
    """
    m = a.shape[0]
    real = (a.col_ids != PAD_COL) & (a.col_ids >= lo) & (a.col_ids < hi)
    counts = real.sum(axis=1).astype(np.int64)
    width = int(counts.max()) if m else 0
    if width == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0), np.zeros(m, dtype=np.int64)
    # Stable in-row compaction: real entries first, original order kept.
    order = np.argsort(~real, axis=1, kind="stable")[:, :width]
    k = np.take_along_axis(a.col_ids, order, axis=1)
    v = np.take_along_axis(a.values, order, axis=1)
    pad = np.arange(width, dtype=np.int64)[None, :] >= counts[:, None]
    k = np.where(pad, PAD_K, k)
    v = np.where(pad, 0.0, v)
    i = np.repeat(np.arange(m, dtype=np.int64), width)
    return i, k.ravel(), v.ravel(), np.full(m, width, dtype=np.int64)


# Matricized 3-D tensor ACFs: slot costs for the analytical model; the
# cycle simulator does not stream 3-D payloads (yet), so no extractors.
TENSOR_STREAM_PROTOCOLS.register(
    StreamProtocol(
        Format.DENSE,
        StreamSpec(entry_slots=1, shared_slots=1, grouped=True),
        tensor=True,
    )
)
TENSOR_STREAM_PROTOCOLS.register(
    StreamProtocol(
        Format.COO,
        StreamSpec(entry_slots=4, shared_slots=0, grouped=False),
        tensor=True,
    )
)
TENSOR_STREAM_PROTOCOLS.register(
    StreamProtocol(
        Format.CSF,
        StreamSpec(entry_slots=2, shared_slots=2, grouped=True),
        tensor=True,
    )
)


# --------------------------------------------------------------------------
# stationary layouts (pinned operand B of the WS dataflow)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StationaryOperand:
    """Array-resident view of one stationary operand.

    ``source`` is the operand as encoded for the layout.  ``positions``
    holds the buffer-resident positions as ``(k, column)`` index arrays
    in row-major order (the order ``np.nonzero`` returns), or ``None``
    when every position is resident: a Dense layout stores zeros too "to
    maintain correct buffer indexing", CSC only its stored entries
    (explicit zeros included).  A metadata layout matches against its
    stored positions, so its ``prepare`` hook always returns them.  The
    simulator's per-k, per-(tile, column) and spill counts come from the
    positions, or from :attr:`shape` alone when every position is
    resident; :attr:`values` is the dense payload, built on first read
    (by the output product and a direct matcher's nonzero counts only).
    """

    source: MatrixFormat
    positions: tuple[np.ndarray, np.ndarray] | None

    @property
    def shape(self) -> tuple[int, int]:
        """(K, N)."""
        return self.source.shape

    @cached_property
    def values(self) -> np.ndarray:
        """(K, N) float64: the stored payload, zeros where nothing is
        stored."""
        return self.source.to_dense()


@dataclass(frozen=True)
class StationaryLayout:
    """One ACF's PE-buffer contract."""

    format: Format
    entry_cost: int  # buffer entries per stored element
    matcher: str  # "direct" (indexable buffer) | "metadata" (CAM compare)
    prepare: Callable[[MatrixFormat], StationaryOperand]


class _LayoutRegistry:
    def __init__(self) -> None:
        self._table: dict[Format, StationaryLayout] = {}

    def register(self, layout: StationaryLayout) -> StationaryLayout:
        self._table[layout.format] = layout
        return layout

    def get(self, fmt: Format) -> StationaryLayout:
        try:
            return self._table[fmt]
        except KeyError:
            raise SimulationError(
                f"{fmt} is not a registered stationary ACF "
                f"(registered: {_names(self._table)})"
            ) from None

    def formats(self) -> tuple[Format, ...]:
        return tuple(self._table)

    def __contains__(self, fmt: Format) -> bool:
        return fmt in self._table


STATIONARY_LAYOUTS = _LayoutRegistry()


def stationary_layout_for(fmt: Format) -> StationaryLayout:
    """The registered PE-buffer layout for a stationary ACF."""
    return STATIONARY_LAYOUTS.get(fmt)


def stationary_formats() -> tuple[Format, ...]:
    """ACFs with a registered stationary buffer layout."""
    return STATIONARY_LAYOUTS.formats()


def register_stationary_layout(
    fmt: Format, *, entry_cost: int, matcher: str
) -> Callable:
    """Decorator: self-register a ``prepare`` hook as a stationary layout."""

    def deco(fn: Callable[[MatrixFormat], StationaryOperand]):
        STATIONARY_LAYOUTS.register(
            StationaryLayout(
                format=fmt, entry_cost=entry_cost, matcher=matcher, prepare=fn
            )
        )
        return fn

    return deco


@register_stationary_layout(Format.DENSE, entry_cost=1, matcher="direct")
def _prepare_dense(b: MatrixFormat) -> StationaryOperand:
    """Dense columns store every value; the buffer answers every index."""
    return StationaryOperand(source=b, positions=None)


@register_stationary_layout(Format.CSC, entry_cost=2, matcher="metadata")
def _prepare_csc(b: MatrixFormat) -> StationaryOperand:
    """CSC columns store (value, row id) pairs; matching is by metadata."""
    csc = b if isinstance(b, CscMatrix) else CscMatrix.from_dense(b.to_dense())
    n = csc.shape[1]
    cols = np.repeat(np.arange(n, dtype=np.int64), csc.col_lengths())
    # Column-major storage, re-sorted into row-major positions.
    flat = np.sort(csc.row_ids.astype(np.int64) * n + cols)
    return StationaryOperand(source=csc, positions=np.divmod(flat, max(n, 1)))
