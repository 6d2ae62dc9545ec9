"""Hardware-path 3-D tensor format conversions (Fig. 8f and generalizations).

Same conventions as :mod:`repro.mint.conversions`: functional results,
pipelined-pass cycle model, verified element-exact against the dense input
by the all-pairs ``MintEngine.convert`` tests.
"""

from __future__ import annotations

import numpy as np

from repro.formats._runlength import encode_runs
from repro.formats.csf import CsfTensor
from repro.formats.hicoo import HicooTensor
from repro.formats.rlc import DEFAULT_RUN_BITS
from repro.formats.tensor_coo import CooTensor
from repro.formats.tensor_dense import DenseTensor
from repro.formats.tensor_flat import RlcTensor, ZvcTensor
from repro.formats.registry import Format
from repro.mint.blockset import BlockSet
from repro.mint.graph import register_conversion


def _linear_to_coords(
    positions: np.ndarray, shape: tuple[int, int, int], blocks: BlockSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Fig. 8f step 3: the divide/mod chain from linear index to (x, y, z)."""
    _x, y_dim, z_dim = shape
    xs, rem, c1 = blocks.divmod.divmod_by(positions, y_dim * z_dim)
    ys, zs, c2 = blocks.divmod.divmod_by(rem, z_dim)
    return xs, ys, zs, c1 + c2


@register_conversion(Format.DENSE, Format.COO, tensor=True)
def dense_to_coo3(src: DenseTensor, blocks: BlockSet) -> tuple[CooTensor, int]:
    """Fig. 8f steps 1-4: nonzero scan, prefix-summed positions, divide/mod."""
    size = src.size
    flat = src.values.ravel()
    c_read = blocks.memctrl.stream(size)
    indicator = (flat != 0.0).astype(np.int64)
    blocks.cluster.stats.compares += size
    _sums, c_scan = blocks.prefix.scan(indicator)
    positions = np.flatnonzero(indicator)
    xs, ys, zs, c_div = _linear_to_coords(positions, src.shape, blocks)
    c_write = blocks.memctrl.stream(4 * len(positions))
    out = CooTensor(src.shape, flat[positions], xs, ys, zs, dtype_bits=src.dtype_bits)
    return out, max(c_read, c_scan, c_div) + c_write


@register_conversion(Format.COO, Format.CSF, tensor=True)
def coo3_to_csf(src: CooTensor, blocks: BlockSet) -> tuple[CsfTensor, int]:
    """Fig. 8f steps 5-7: tree construction from sorted COO.

    Comparators detect root/fiber boundaries; prefix sums produce the
    pointer arrays.
    """
    nnz = src.stored
    c_read = blocks.memctrl.stream(4 * nnz)
    # Boundary detection: adjacent coordinate comparisons across two levels.
    blocks.cluster.stats.compares += 2 * max(0, nnz - 1)
    out = CsfTensor.from_coo(src)
    # Pointer arrays via prefix sums over per-root / per-fiber counts.
    _s1, c_scan1 = blocks.prefix.scan(np.diff(out.x_ptr))
    _s2, c_scan2 = blocks.prefix.scan(np.diff(out.y_ptr))
    c_write = blocks.memctrl.stream(
        len(out.x_ids) + len(out.x_ptr) + len(out.y_ids) + len(out.y_ptr) + 2 * nnz
    )
    return out, max(c_read, c_scan1 + c_scan2) + c_write


@register_conversion(Format.DENSE, Format.CSF, tensor=True)
def dense_to_csf(src: DenseTensor, blocks: BlockSet) -> tuple[CsfTensor, int]:
    """The full Fig. 8f pipeline: Dense -> COO -> CSF."""
    coo, c1 = dense_to_coo3(src, blocks)
    csf, c2 = coo3_to_csf(coo, blocks)
    return csf, c1 + c2


@register_conversion(Format.CSF, Format.COO, tensor=True)
def csf_to_coo3(src: CsfTensor, blocks: BlockSet) -> tuple[CooTensor, int]:
    """Pointer expansion down the tree."""
    nnz = len(src.values)
    c_read = blocks.memctrl.stream(
        len(src.x_ids) + len(src.x_ptr) + len(src.y_ids) + len(src.y_ptr) + 2 * nnz
    )
    out = src.to_coo()
    c_write = blocks.memctrl.stream(4 * nnz)
    return out, max(c_read, c_write)


@register_conversion(Format.COO, Format.DENSE, tensor=True)
def coo3_to_dense(src: CooTensor, blocks: BlockSet) -> tuple[DenseTensor, int]:
    """Coordinate scatter into a zero-filled buffer."""
    size = src.size
    c_read = blocks.memctrl.stream(4 * src.stored)
    c_fill = blocks.memctrl.stream(size)
    out = DenseTensor(src.to_dense(), dtype_bits=src.dtype_bits)
    return out, max(c_read, c_fill)


@register_conversion(Format.CSF, Format.DENSE, tensor=True)
def csf_to_dense(src: CsfTensor, blocks: BlockSet) -> tuple[DenseTensor, int]:
    """CSF -> COO -> Dense composition."""
    coo, c1 = csf_to_coo3(src, blocks)
    dense, c2 = coo3_to_dense(coo, blocks)
    return dense, c1 + c2


@register_conversion(Format.DENSE, Format.ZVC, tensor=True)
def dense_to_zvc3(src: DenseTensor, blocks: BlockSet) -> tuple[ZvcTensor, int]:
    """Zero-detect mask + value compaction on the flattened tensor."""
    size = src.size
    flat = src.values.ravel()
    c_read = blocks.memctrl.stream(size)
    mask = flat != 0.0
    blocks.cluster.stats.compares += size
    _s, c_scan = blocks.prefix.scan(mask.astype(np.int64))
    c_write = blocks.memctrl.stream(int(mask.sum()))
    out = ZvcTensor(src.shape, flat[mask], mask, dtype_bits=src.dtype_bits)
    return out, max(c_read, c_scan) + c_write


@register_conversion(Format.ZVC, Format.DENSE, tensor=True)
def zvc3_to_dense(src: ZvcTensor, blocks: BlockSet) -> tuple[DenseTensor, int]:
    """Mask-driven expansion."""
    size = src.size
    c_read = blocks.memctrl.stream(src.stored)
    _s, c_scan = blocks.prefix.scan(src.mask.astype(np.int64))
    c_fill = blocks.memctrl.stream(size)
    out = DenseTensor(src.to_dense(), dtype_bits=src.dtype_bits)
    return out, max(c_read, c_scan, c_fill)


@register_conversion(Format.DENSE, Format.RLC, tensor=True)
def dense_to_rlc3(src: DenseTensor, blocks: BlockSet) -> tuple[RlcTensor, int]:
    """Gap encoding of the flattened tensor."""
    size = src.size
    flat = src.values.ravel()
    c_read = blocks.memctrl.stream(size)
    blocks.cluster.stats.compares += size
    positions = np.flatnonzero(flat)
    runs, levels = encode_runs(positions, flat[positions], DEFAULT_RUN_BITS)
    blocks.prefix.stats.int_adds += size
    c_write = blocks.memctrl.stream(2 * len(levels))
    out = RlcTensor(
        src.shape, runs, levels, dtype_bits=src.dtype_bits, run_bits=DEFAULT_RUN_BITS
    )
    return out, max(c_read, c_write)


@register_conversion(Format.RLC, Format.COO, tensor=True)
def rlc3_to_coo3(src: RlcTensor, blocks: BlockSet) -> tuple[CooTensor, int]:
    """Prefix-summed positions + divide/mod chain (Fig. 8d lifted to 3-D)."""
    entries = src.entries
    c_read = blocks.memctrl.stream(2 * entries)
    sums, c_scan = blocks.prefix.scan(src.runs + 1)
    positions = sums - 1
    xs, ys, zs, c_div = _linear_to_coords(positions, src.shape, blocks)
    keep = src.levels != 0.0
    c_write = blocks.memctrl.stream(4 * int(keep.sum()))
    out = CooTensor(
        src.shape,
        src.levels[keep],
        xs[keep],
        ys[keep],
        zs[keep],
        dtype_bits=src.dtype_bits,
    )
    return out, max(c_read, c_scan, c_div) + c_write


@register_conversion(Format.RLC, Format.DENSE, tensor=True)
def rlc3_to_dense(src: RlcTensor, blocks: BlockSet) -> tuple[DenseTensor, int]:
    """RLC decode into a zero-filled buffer."""
    entries = src.entries
    c_read = blocks.memctrl.stream(2 * entries)
    _sums, c_scan = blocks.prefix.scan(src.runs + 1)
    c_fill = blocks.memctrl.stream(src.size)
    out = DenseTensor(src.to_dense(), dtype_bits=src.dtype_bits)
    return out, max(c_read, c_scan, c_fill)


@register_conversion(Format.COO, Format.HICOO, tensor=True)
def coo3_to_hicoo(src: CooTensor, blocks: BlockSet) -> tuple[HicooTensor, int]:
    """Block bucketing: divide/mod per axis + boundary detection."""
    nnz = src.stored
    c_read = blocks.memctrl.stream(4 * nnz)
    # One divide/mod per coordinate axis.
    _bx, _ex, c1 = blocks.divmod.divmod_by(src.x_ids, 2)
    _by, _ey, c2 = blocks.divmod.divmod_by(src.y_ids, 2)
    _bz, _ez, c3 = blocks.divmod.divmod_by(src.z_ids, 2)
    blocks.cluster.stats.compares += 3 * max(0, nnz - 1)
    out = HicooTensor.from_dense(src.to_dense(), dtype_bits=src.dtype_bits)
    c_write = blocks.memctrl.stream(4 * nnz + 4 * out.nblocks)
    return out, max(c_read, c1 + c2 + c3) + c_write


@register_conversion(Format.HICOO, Format.COO, tensor=True)
def hicoo_to_coo3(src: HicooTensor, blocks: BlockSet) -> tuple[CooTensor, int]:
    """Block expansion back to absolute coordinates (multiply-add per axis)."""
    nnz = len(src.values)
    c_read = blocks.memctrl.stream(4 * nnz + 4 * src.nblocks)
    blocks.prefix.stats.int_adds += 3 * nnz
    blocks.prefix.stats.int_mults = getattr(blocks.prefix.stats, "int_mults", 0)
    blocks.prefix.stats.int_mults += 3 * nnz
    coo = CooTensor.from_dense(src.to_dense(), dtype_bits=src.dtype_bits)
    c_write = blocks.memctrl.stream(4 * nnz)
    return coo, max(c_read, c_write)


@register_conversion(Format.DENSE, Format.HICOO, tensor=True)
def dense_to_hicoo(src: DenseTensor, blocks: BlockSet) -> tuple[HicooTensor, int]:
    """Dense -> COO -> HiCOO composition."""
    coo, c1 = dense_to_coo3(src, blocks)
    out, c2 = coo3_to_hicoo(coo, blocks)
    return out, c1 + c2


@register_conversion(Format.HICOO, Format.DENSE, tensor=True)
def hicoo_to_dense(src: HicooTensor, blocks: BlockSet) -> tuple[DenseTensor, int]:
    """HiCOO -> COO -> Dense composition."""
    coo, c1 = hicoo_to_coo3(src, blocks)
    out, c2 = coo3_to_dense(coo, blocks)
    return out, c1 + c2
