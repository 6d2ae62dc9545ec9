"""Hardware-path matrix format conversions (Fig. 8).

Every routine takes the source encoding and a :class:`BlockSet`, performs
the conversion through the building blocks the paper's datapath uses —
never materializing a dense intermediate unless the paper's own path does —
and returns ``(target, cycles)``.

Cycle model: a conversion is one or more *passes*; within a pass the chained
blocks are pipelined, so the pass costs the **maximum** of its blocks' cycle
counts (throughput-bound; pipeline fill is inside each block's count).
Passes are sequential, so their costs add.  MINT additionally overlaps the
first pass with streaming the source from memory (Sec. V-B: "MINT is
pipelined to start conversion while streaming in data from memory"), which
is why the first pass is costed as max(stream-in, compute) too.

Each conversion is verified element-exact against its dense input by the
all-pairs ``MintEngine.convert`` tests (``tests/mint/test_engine_designs_cost.py``).
"""

from __future__ import annotations

import numpy as np

from repro.formats.bsr import BsrMatrix
from repro.formats.coo import CooMatrix
from repro.formats.csc import CscMatrix
from repro.formats.csr import CsrMatrix
from repro.formats.dense import DenseMatrix
from repro.formats.dia import DiaMatrix
from repro.formats.ell import EllMatrix, PAD_COL
from repro.formats.registry import Format
from repro.formats.rlc import DEFAULT_RUN_BITS, RlcMatrix
from repro.formats._runlength import encode_runs
from repro.formats.zvc import ZvcMatrix
from repro.mint.blockset import BlockSet
from repro.mint.graph import register_conversion


# --------------------------------------------------------------------------
# Fig. 8c: CSR -> CSC
# --------------------------------------------------------------------------
@register_conversion(Format.CSR, Format.CSC)
def csr_to_csc(src: CsrMatrix, blocks: BlockSet) -> tuple[CscMatrix, int]:
    """Transpose-reencode via histogram + prefix sum + scatter (Fig. 8c)."""
    m, k = src.shape
    nnz = src.stored
    # Pass 1: stream col_ids; sorted chunks feed the cluster counter (steps
    # 1-3), producing per-column counts.
    c_read = blocks.memctrl.stream(nnz)
    _sorted, c_sort = blocks.sorter.sort_chunks(src.col_ids)
    counts, c_count = blocks.cluster.histogram(src.col_ids, k)
    pass1 = max(c_read, c_sort, c_count)
    # Step 5: prefix sum over the column counts -> col_ptr.
    csum, c_scan = blocks.prefix.scan(counts)
    col_ptr = np.concatenate([[0], csum]).astype(np.int64)
    # Steps 6-9: iterate CSR fields, scattering each entry to the slot its
    # working col_ptr designates (then bumping it).  A stable counting sort
    # by column id computes exactly those destinations.
    order = np.argsort(src.col_ids, kind="stable")
    rows = np.repeat(np.arange(m, dtype=np.int64), src.row_lengths())
    values = src.values[order]
    row_ids = rows[order]
    c_scatter_read = blocks.memctrl.stream(2 * nnz)  # values + col_ids in
    c_scatter_write = blocks.memctrl.stream(2 * nnz)  # values + row_ids out
    pass2 = max(c_scatter_read, c_scatter_write)
    out = CscMatrix(src.shape, values, row_ids, col_ptr, dtype_bits=src.dtype_bits)
    return out, pass1 + c_scan + pass2


@register_conversion(Format.CSC, Format.CSR)
def csc_to_csr(src: CscMatrix, blocks: BlockSet) -> tuple[CsrMatrix, int]:
    """Mirror of Fig. 8c with rows and columns exchanged."""
    m, k = src.shape
    nnz = src.stored
    c_read = blocks.memctrl.stream(nnz)
    _sorted, c_sort = blocks.sorter.sort_chunks(src.row_ids)
    counts, c_count = blocks.cluster.histogram(src.row_ids, m)
    pass1 = max(c_read, c_sort, c_count)
    csum, c_scan = blocks.prefix.scan(counts)
    row_ptr = np.concatenate([[0], csum]).astype(np.int64)
    order = np.argsort(src.row_ids, kind="stable")
    cols = np.repeat(np.arange(k, dtype=np.int64), src.col_lengths())
    values = src.values[order]
    col_ids = cols[order]
    pass2 = max(blocks.memctrl.stream(2 * nnz), blocks.memctrl.stream(2 * nnz))
    out = CsrMatrix(src.shape, values, col_ids, row_ptr, dtype_bits=src.dtype_bits)
    return out, pass1 + c_scan + pass2


# --------------------------------------------------------------------------
# Fig. 8d: RLC -> COO
# --------------------------------------------------------------------------
@register_conversion(Format.RLC, Format.COO)
def rlc_to_coo(src: RlcMatrix, blocks: BlockSet) -> tuple[CooMatrix, int]:
    """Positions by prefix sum, coordinates by parallel divide/mod (Fig. 8d)."""
    m, k = src.shape
    entries = src.entries
    c_read = blocks.memctrl.stream(2 * entries)  # runs + levels
    # Step 2: +1 offsets (position of each level is gap + its own slot).
    sums, c_scan = blocks.prefix.scan(src.runs + 1)
    positions = sums - 1
    # Step 4: row = pos // K, col = pos % K.
    row_ids, col_ids, c_div = blocks.divmod.divmod_by(positions, k)
    pass1 = max(c_read, c_scan, c_div)
    # Padding entries carry an explicit zero level; drop them on write-out.
    keep = src.levels != 0.0
    c_write = blocks.memctrl.stream(3 * int(keep.sum()))
    out = CooMatrix(
        src.shape,
        src.levels[keep],
        row_ids[keep],
        col_ids[keep],
        dtype_bits=src.dtype_bits,
    )
    return out, pass1 + c_write


@register_conversion(Format.RLC, Format.DENSE)
def rlc_to_dense(src: RlcMatrix, blocks: BlockSet) -> tuple[DenseMatrix, int]:
    """RLC decode: prefix-summed positions scattered into a zeroed buffer."""
    m, k = src.shape
    entries = src.entries
    c_read = blocks.memctrl.stream(2 * entries)
    sums, c_scan = blocks.prefix.scan(src.runs + 1)
    positions = sums - 1
    flat, c_write = blocks.memctrl.scatter(src.levels, positions, m * k)
    c_fill = blocks.memctrl.stream(m * k)  # zero-fill the dense buffer
    out = DenseMatrix(flat.reshape(m, k), dtype_bits=src.dtype_bits)
    return out, max(c_read, c_scan) + max(c_write, c_fill)


# --------------------------------------------------------------------------
# Fig. 8e: CSR -> BSR
# --------------------------------------------------------------------------
@register_conversion(Format.CSR, Format.BSR, accepts=("block_shape",))
def csr_to_bsr(
    src: CsrMatrix,
    blocks: BlockSet,
    block_shape: tuple[int, int] = (2, 2),
) -> tuple[BsrMatrix, int]:
    """Blockize via divide/mod block positions + initialization flags (Fig. 8e)."""
    m, k = src.shape
    br, bc = int(block_shape[0]), int(block_shape[1])
    nnz = src.stored
    rows = np.repeat(np.arange(m, dtype=np.int64), src.row_lengths())
    c_read = blocks.memctrl.stream(2 * nnz)
    # Steps 1-2: block coordinates and intra-block offsets by divide/mod.
    grs, ers, c_div1 = blocks.divmod.divmod_by(rows, br)
    gcs, ecs, c_div2 = blocks.divmod.divmod_by(src.col_ids, bc)
    pass1 = max(c_read, c_div1 + c_div2)
    # Step 2-3: register flags track initialized blocks; a stable sort by
    # (block row, block col) realizes the same grouping.
    grid_cols = -(-k // bc)
    grid_rows = -(-m // br)
    keys = grs * grid_cols + gcs
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_block = np.empty(nnz, dtype=bool)
    if nnz:
        new_block[0] = True
        new_block[1:] = sorted_keys[1:] != sorted_keys[:-1]
    block_index_of_entry = np.cumsum(new_block) - 1 if nnz else np.empty(0, np.int64)
    unique_keys = sorted_keys[new_block] if nnz else np.empty(0, np.int64)
    nblocks = len(unique_keys)
    blocks.cluster.stats.compares += nnz  # the initialized-block flag checks
    # Zero-filled block value buffers, scatter each entry into its slot.
    values = np.zeros((nblocks, br, bc), dtype=np.float64)
    values[
        block_index_of_entry, ers[order], ecs[order]
    ] = src.values[order]
    c_fill = blocks.memctrl.stream(nblocks * br * bc)
    c_write = blocks.memctrl.stream(nnz)
    # Steps 3/5: block_row_ptr from per-block-row unique counts + prefix sum.
    block_gr = unique_keys // grid_cols
    counts, c_count = blocks.cluster.histogram(block_gr, grid_rows)
    csum, c_scan = blocks.prefix.scan(counts)
    block_row_ptr = np.concatenate([[0], csum]).astype(np.int64)
    block_col_ids = unique_keys % grid_cols
    out = BsrMatrix(
        src.shape,
        values,
        block_col_ids,
        block_row_ptr,
        block_shape=(br, bc),
        dtype_bits=src.dtype_bits,
    )
    return out, pass1 + max(c_fill, c_write) + c_count + c_scan


# --------------------------------------------------------------------------
# Dense <-> compressed
# --------------------------------------------------------------------------
@register_conversion(Format.DENSE, Format.COO)
def dense_to_coo(src: DenseMatrix, blocks: BlockSet) -> tuple[CooMatrix, int]:
    """Nonzero scan + prefix-sum compaction + divide/mod coordinates."""
    m, k = src.shape
    flat = src.values.ravel()
    c_read = blocks.memctrl.stream(m * k)
    indicator = (flat != 0.0).astype(np.int64)
    blocks.cluster.stats.compares += m * k  # zero-detect comparators
    _sums, c_scan = blocks.prefix.scan(indicator)
    positions = np.flatnonzero(indicator)
    rows, cols, c_div = blocks.divmod.divmod_by(positions, k)
    c_write = blocks.memctrl.stream(3 * len(positions))
    out = CooMatrix(src.shape, flat[positions], rows, cols, dtype_bits=src.dtype_bits)
    return out, max(c_read, c_scan, c_div) + c_write


@register_conversion(Format.DENSE, Format.CSR)
def dense_to_csr(src: DenseMatrix, blocks: BlockSet) -> tuple[CsrMatrix, int]:
    """Dense -> COO coordinates, then row-pointer compression by prefix sum."""
    coo, c_coo = dense_to_coo(src, blocks)
    counts, c_count = blocks.cluster.histogram(coo.row_ids, src.shape[0])
    csum, c_scan = blocks.prefix.scan(counts)
    row_ptr = np.concatenate([[0], csum]).astype(np.int64)
    out = CsrMatrix(
        src.shape, coo.values, coo.col_ids, row_ptr, dtype_bits=src.dtype_bits
    )
    return out, c_coo + c_count + c_scan


@register_conversion(Format.DENSE, Format.CSC)
def dense_to_csc(src: DenseMatrix, blocks: BlockSet) -> tuple[CscMatrix, int]:
    """Dense -> COO, then column-major counting-sort into CSC."""
    coo, c_coo = dense_to_coo(src, blocks)
    csr = CsrMatrix(
        src.shape,
        coo.values,
        coo.col_ids,
        np.concatenate(
            [[0], np.cumsum(np.bincount(coo.row_ids, minlength=src.shape[0]))]
        ).astype(np.int64),
        dtype_bits=src.dtype_bits,
    )
    out, c_t = csr_to_csc(csr, blocks)
    return out, c_coo + c_t


@register_conversion(Format.DENSE, Format.ZVC)
def dense_to_zvc(src: DenseMatrix, blocks: BlockSet) -> tuple[ZvcMatrix, int]:
    """Zero-detect produces the mask; prefix sum compacts the values [9]."""
    m, k = src.shape
    flat = src.values.ravel()
    c_read = blocks.memctrl.stream(m * k)
    mask = flat != 0.0
    blocks.cluster.stats.compares += m * k
    _sums, c_scan = blocks.prefix.scan(mask.astype(np.int64))
    c_write = blocks.memctrl.stream(int(mask.sum()))
    out = ZvcMatrix(src.shape, flat[mask], mask, dtype_bits=src.dtype_bits)
    return out, max(c_read, c_scan) + c_write


@register_conversion(Format.ZVC, Format.DENSE)
def zvc_to_dense(src: ZvcMatrix, blocks: BlockSet) -> tuple[DenseMatrix, int]:
    """Mask-driven expansion: prefix sum of the mask addresses each value."""
    m, k = src.shape
    c_read = blocks.memctrl.stream(src.stored)
    _sums, c_scan = blocks.prefix.scan(src.mask.astype(np.int64))
    positions = np.flatnonzero(src.mask)
    flat, c_write = blocks.memctrl.scatter(src.values, positions, m * k)
    c_fill = blocks.memctrl.stream(m * k)
    out = DenseMatrix(flat.reshape(m, k), dtype_bits=src.dtype_bits)
    return out, max(c_read, c_scan) + max(c_write, c_fill)


@register_conversion(Format.DENSE, Format.RLC)
def dense_to_rlc(src: DenseMatrix, blocks: BlockSet) -> tuple[RlcMatrix, int]:
    """Gap encoding: zero-run counters emit (run, level) pairs."""
    m, k = src.shape
    flat = src.values.ravel()
    c_read = blocks.memctrl.stream(m * k)
    blocks.cluster.stats.compares += m * k  # zero detection
    positions = np.flatnonzero(flat)
    runs, levels = encode_runs(positions, flat[positions], DEFAULT_RUN_BITS)
    blocks.prefix.stats.int_adds += m * k  # run counters increment per element
    c_write = blocks.memctrl.stream(2 * len(levels))
    out = RlcMatrix(
        src.shape, runs, levels, dtype_bits=src.dtype_bits, run_bits=DEFAULT_RUN_BITS
    )
    return out, max(c_read, c_write)


@register_conversion(Format.CSR, Format.DENSE)
def csr_to_dense(src: CsrMatrix, blocks: BlockSet) -> tuple[DenseMatrix, int]:
    """Pointer expansion + scatter into a zero-filled buffer."""
    m, k = src.shape
    nnz = src.stored
    c_read = blocks.memctrl.stream(2 * nnz + m + 1)
    rows = np.repeat(np.arange(m, dtype=np.int64), src.row_lengths())
    flat, c_write = blocks.memctrl.scatter(src.values, rows * k + src.col_ids, m * k)
    c_fill = blocks.memctrl.stream(m * k)
    out = DenseMatrix(flat.reshape(m, k), dtype_bits=src.dtype_bits)
    return out, max(c_read, 0) + max(c_write, c_fill)


@register_conversion(Format.CSC, Format.DENSE)
def csc_to_dense(src: CscMatrix, blocks: BlockSet) -> tuple[DenseMatrix, int]:
    """Pointer expansion + scatter into a zero-filled buffer."""
    m, k = src.shape
    nnz = src.stored
    c_read = blocks.memctrl.stream(2 * nnz + k + 1)
    cols = np.repeat(np.arange(k, dtype=np.int64), src.col_lengths())
    flat, c_write = blocks.memctrl.scatter(src.values, src.row_ids * k + cols, m * k)
    c_fill = blocks.memctrl.stream(m * k)
    out = DenseMatrix(flat.reshape(m, k), dtype_bits=src.dtype_bits)
    return out, max(c_read, 0) + max(c_write, c_fill)


@register_conversion(Format.COO, Format.DENSE)
def coo_to_dense(src: CooMatrix, blocks: BlockSet) -> tuple[DenseMatrix, int]:
    """Coordinate scatter into a zero-filled buffer."""
    m, k = src.shape
    c_read = blocks.memctrl.stream(3 * src.stored)
    flat, c_write = blocks.memctrl.scatter(
        src.values, src.row_ids * k + src.col_ids, m * k
    )
    c_fill = blocks.memctrl.stream(m * k)
    out = DenseMatrix(flat.reshape(m, k), dtype_bits=src.dtype_bits)
    return out, max(c_read, c_write, c_fill)


@register_conversion(Format.COO, Format.CSR)
def coo_to_csr(src: CooMatrix, blocks: BlockSet) -> tuple[CsrMatrix, int]:
    """Counting sort by row id: histogram + prefix sum + scatter."""
    m, _k = src.shape
    nnz = src.stored
    c_read = blocks.memctrl.stream(3 * nnz)
    counts, c_count = blocks.cluster.histogram(src.row_ids, m)
    csum, c_scan = blocks.prefix.scan(counts)
    row_ptr = np.concatenate([[0], csum]).astype(np.int64)
    order = np.lexsort((src.col_ids, src.row_ids))
    c_write = blocks.memctrl.stream(2 * nnz)
    out = CsrMatrix(
        src.shape,
        src.values[order],
        src.col_ids[order],
        row_ptr,
        dtype_bits=src.dtype_bits,
    )
    return out, max(c_read, c_count) + c_scan + c_write


@register_conversion(Format.COO, Format.CSC)
def coo_to_csc(src: CooMatrix, blocks: BlockSet) -> tuple[CscMatrix, int]:
    """Counting sort by column id: histogram + prefix sum + scatter."""
    _m, k = src.shape
    nnz = src.stored
    c_read = blocks.memctrl.stream(3 * nnz)
    counts, c_count = blocks.cluster.histogram(src.col_ids, k)
    csum, c_scan = blocks.prefix.scan(counts)
    col_ptr = np.concatenate([[0], csum]).astype(np.int64)
    order = np.lexsort((src.row_ids, src.col_ids))
    c_write = blocks.memctrl.stream(2 * nnz)
    out = CscMatrix(
        src.shape,
        src.values[order],
        src.row_ids[order],
        col_ptr,
        dtype_bits=src.dtype_bits,
    )
    return out, max(c_read, c_count) + c_scan + c_write


@register_conversion(Format.CSR, Format.COO)
def csr_to_coo(src: CsrMatrix, blocks: BlockSet) -> tuple[CooMatrix, int]:
    """Row-pointer expansion (the inverse counting sort is trivial)."""
    m, _k = src.shape
    nnz = src.stored
    c_read = blocks.memctrl.stream(2 * nnz + m + 1)
    rows = np.repeat(np.arange(m, dtype=np.int64), src.row_lengths())
    c_write = blocks.memctrl.stream(3 * nnz)
    out = CooMatrix(src.shape, src.values, rows, src.col_ids, dtype_bits=src.dtype_bits)
    return out, max(c_read, c_write)


@register_conversion(Format.CSC, Format.COO)
def csc_to_coo(src: CscMatrix, blocks: BlockSet) -> tuple[CooMatrix, int]:
    """Column-pointer expansion, then reorder row-major."""
    _m, k = src.shape
    nnz = src.stored
    c_read = blocks.memctrl.stream(2 * nnz + k + 1)
    cols = np.repeat(np.arange(k, dtype=np.int64), src.col_lengths())
    order = np.lexsort((cols, src.row_ids))
    c_write = blocks.memctrl.stream(3 * nnz)
    out = CooMatrix(
        src.shape,
        src.values[order],
        src.row_ids[order],
        cols[order],
        dtype_bits=src.dtype_bits,
    )
    return out, max(c_read, c_write)


@register_conversion(Format.DENSE, Format.BSR, accepts=("block_shape",))
def dense_to_bsr(
    src: DenseMatrix, blocks: BlockSet, block_shape: tuple[int, int] = (2, 2)
) -> tuple[BsrMatrix, int]:
    """Dense -> CSR -> BSR composition through the block library."""
    csr, c1 = dense_to_csr(src, blocks)
    bsr, c2 = csr_to_bsr(csr, blocks, block_shape)
    return bsr, c1 + c2


@register_conversion(Format.BSR, Format.DENSE)
def bsr_to_dense(src: BsrMatrix, blocks: BlockSet) -> tuple[DenseMatrix, int]:
    """Block expansion into a zero-filled buffer."""
    m, k = src.shape
    br, bc = src.block_shape
    c_read = blocks.memctrl.stream(src.nblocks * (br * bc + 1))
    c_fill = blocks.memctrl.stream(m * k)
    out = DenseMatrix(src.to_dense(), dtype_bits=src.dtype_bits)
    return out, max(c_read, c_fill)


@register_conversion(Format.DENSE, Format.DIA)
def dense_to_dia(src: DenseMatrix, blocks: BlockSet) -> tuple[DiaMatrix, int]:
    """Diagonal bucketing: offset = col - row per nonzero, then gather."""
    m, k = src.shape
    c_read = blocks.memctrl.stream(m * k)
    blocks.cluster.stats.compares += m * k  # zero detection
    out = DiaMatrix.from_dense(src.values, dtype_bits=src.dtype_bits)
    c_write = blocks.memctrl.stream(out.ndiags * out.padded_length)
    return out, max(c_read, c_write)


@register_conversion(Format.DIA, Format.DENSE)
def dia_to_dense(src: DiaMatrix, blocks: BlockSet) -> tuple[DenseMatrix, int]:
    """Diagonal expansion into a zero-filled buffer."""
    m, k = src.shape
    c_read = blocks.memctrl.stream(src.ndiags * (src.padded_length + 1))
    c_fill = blocks.memctrl.stream(m * k)
    out = DenseMatrix(src.to_dense(), dtype_bits=src.dtype_bits)
    return out, max(c_read, c_fill)


@register_conversion(Format.DENSE, Format.ELL)
def dense_to_ell(src: DenseMatrix, blocks: BlockSet) -> tuple[EllMatrix, int]:
    """Row compaction into fixed-width slots: nonzero scan + row histogram."""
    import numpy as np

    m, k = src.shape
    c_read = blocks.memctrl.stream(m * k)
    blocks.cluster.stats.compares += m * k  # zero detection
    row_nnz = np.count_nonzero(src.values, axis=1).astype(np.int64)
    _counts, c_count = blocks.cluster.histogram(
        np.repeat(np.arange(m, dtype=np.int64), row_nnz), m
    )
    out = EllMatrix.from_dense(src.values, dtype_bits=src.dtype_bits)
    c_write = blocks.memctrl.stream(2 * m * out.width)
    return out, max(c_read, c_count) + c_write


@register_conversion(Format.ELL, Format.DENSE)
def ell_to_dense(src: EllMatrix, blocks: BlockSet) -> tuple[DenseMatrix, int]:
    """Slot expansion: scatter each non-padding slot by its column id."""
    m, k = src.shape
    c_read = blocks.memctrl.stream(2 * m * src.width)
    blocks.cluster.stats.compares += m * src.width  # padding detection
    c_fill = blocks.memctrl.stream(m * k)
    out = DenseMatrix(src.to_dense(), dtype_bits=src.dtype_bits)
    return out, max(c_read, c_fill)


@register_conversion(Format.CSR, Format.ELL)
def csr_to_ell(src: CsrMatrix, blocks: BlockSet) -> tuple[EllMatrix, int]:
    """Row-pointer-driven compaction without materializing dense."""
    import numpy as np

    m, k = src.shape
    nnz = src.stored
    c_read = blocks.memctrl.stream(2 * nnz + m + 1)
    lengths = src.row_lengths()
    width = int(lengths.max()) if m and nnz else 0
    values = np.zeros((m, width), dtype=np.float64)
    col_ids = np.full((m, width), PAD_COL, dtype=np.int64)
    # Each entry lands at (its row, its rank within the row): the rank is
    # the entry's global position minus its row's pointer base.
    rows = np.repeat(np.arange(m, dtype=np.int64), lengths)
    slots = np.arange(nnz, dtype=np.int64) - np.repeat(src.row_ptr[:-1], lengths)
    values[rows, slots] = src.values
    col_ids[rows, slots] = src.col_ids
    out = EllMatrix(src.shape, values, col_ids, dtype_bits=src.dtype_bits)
    c_write = blocks.memctrl.stream(2 * m * width)
    return out, max(c_read, c_write)
