"""Closed-form storage (compactness) model and the Fig. 4 sweeps.

Computes the data/metadata bit footprint of a tensor in any format from
summary statistics alone, using the same Sec. III-A accounting as the
format classes ("the number of metadata bits required is the log of the
maximum possible value").  Exact for position-list formats
(Dense/COO/CSR/CSC/ZVC); expectation-under-uniform-placement for run- and
block-structured formats (RLC/BSR/DIA/CSF/HiCOO), matching the paper's
uniform-random modelling assumption.

The test suite cross-checks these formulas against the concrete
``storage()`` of materialized random instances.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import FormatError
from repro.formats._runlength import entry_count_expected
from repro.formats.registry import Format
from repro.formats.rlc import DEFAULT_RUN_BITS
from repro.hardware.dram import DramChannel
from repro.util.bits import bits_for_count, bits_for_index, ceil_div


def _expected_occupied(groups: float, group_size: float, density: float) -> float:
    """E[#groups with >= 1 nonzero] under uniform placement."""
    if groups <= 0 or group_size <= 0:
        return 0.0
    return groups * (1.0 - (1.0 - density) ** group_size)


def storage_bits(
    fmt: Format,
    dims: Sequence[int],
    nnz: int,
    dtype_bits: int = 32,
    *,
    run_bits: int = DEFAULT_RUN_BITS,
    block: int = 2,
) -> float:
    """Total storage bits of a tensor in *fmt* from summary statistics.

    ``dims`` has length 2 (matrix) or 3 (tensor).  ``block`` is the
    per-dimension block edge for BSR/HiCOO.
    """
    dims = [int(d) for d in dims]
    size = math.prod(dims)
    if not 0 <= nnz <= size:
        raise FormatError(f"nnz {nnz} out of range for dims {dims}")
    density = nnz / size if size else 0.0
    b = dtype_bits

    if fmt is Format.DENSE:
        return float(size * b)
    if fmt is Format.COO:
        coord = sum(bits_for_index(d) for d in dims)
        return float(nnz) * (b + coord)
    if fmt is Format.RLC:
        entries = entry_count_expected(size, nnz, run_bits)
        return entries * (b + run_bits)
    if fmt is Format.ZVC:
        return float(nnz) * b + size

    if len(dims) == 2:
        m, k = dims
        if fmt is Format.CSR:
            return float(nnz) * (b + bits_for_index(k)) + (m + 1) * bits_for_count(
                nnz
            )
        if fmt is Format.CSC:
            return float(nnz) * (b + bits_for_index(m)) + (k + 1) * bits_for_count(
                nnz
            )
        if fmt is Format.BSR:
            grid_r, grid_c = ceil_div(m, block), ceil_div(k, block)
            nblocks = _expected_occupied(grid_r * grid_c, block * block, density)
            return (
                nblocks * (block * block * b + bits_for_index(max(1, grid_c)))
                + (grid_r + 1) * bits_for_count(max(1, int(nblocks)))
            )
        if fmt is Format.ELL:
            # Width = expected maximum row nonzero count under uniform
            # placement: mean + Gumbel-style sqrt(2 p(1-p) K ln M) tail.
            p_row = density
            mean = p_row * k
            spread = np.sqrt(max(0.0, 2.0 * p_row * (1 - p_row) * k * np.log(max(m, 2))))
            width = min(k, mean + spread) if nnz else 0.0
            return m * width * (b + bits_for_index(k))
        if fmt is Format.DIA:
            total_diags = m + k - 1
            mean_diag_len = size / total_diags
            ndiags = _expected_occupied(total_diags, mean_diag_len, density)
            return ndiags * (min(m, k) * b + bits_for_index(total_diags))
        raise FormatError(f"{fmt} is not a matrix format")

    x, y, z = dims
    if fmt is Format.CSF:
        roots = _expected_occupied(x, y * z, density)
        fibers = _expected_occupied(x * y, z, density)
        return (
            roots * bits_for_index(x)
            + (roots + 1) * bits_for_count(max(1, int(fibers)))
            + fibers * bits_for_index(y)
            + (fibers + 1) * bits_for_count(max(1, nnz))
            + float(nnz) * (bits_for_index(z) + b)
        )
    if fmt is Format.HICOO:
        grid = [ceil_div(d, block) for d in dims]
        nblocks = _expected_occupied(
            float(math.prod(grid)), block ** 3, density
        )
        block_coord = sum(bits_for_index(max(1, g)) for g in grid)
        offset_bits = 3 * bits_for_index(block)
        return (
            (nblocks + 1) * bits_for_count(max(1, nnz))
            + nblocks * block_coord
            + float(nnz) * (offset_bits + b)
        )
    raise FormatError(f"{fmt} is not a 3-D tensor format")


def transfer_energy_sweep(
    dims: Sequence[int],
    densities: Iterable[float],
    formats: Sequence[Format],
    dtype_bits: int = 32,
    *,
    normalize_to: Format | None = Format.CSR,
    dram: DramChannel | None = None,
    run_bits: int = DEFAULT_RUN_BITS,
) -> Mapping[Format, np.ndarray]:
    """DRAM transfer energy of each format across densities (Fig. 4).

    Returns energy per format, normalized to ``normalize_to`` at each
    density when given (the paper normalizes to CSR).
    """
    dram = dram or DramChannel()
    densities = np.asarray(list(densities), dtype=np.float64)
    size = int(np.prod([int(d) for d in dims]))
    out: dict[Format, np.ndarray] = {}
    for fmt in formats:
        energies = np.empty(len(densities))
        for i, d in enumerate(densities):
            nnz = min(size, max(0, int(round(d * size))))
            bits = storage_bits(fmt, dims, nnz, dtype_bits, run_bits=run_bits)
            energies[i] = dram.transfer_energy(int(bits))
        out[fmt] = energies
    if normalize_to is not None:
        ref = out[normalize_to].copy()
        ref[ref == 0.0] = 1.0
        out = {fmt: e / ref for fmt, e in out.items()}
    return out


def crossover_density(
    fmt_low: Format,
    fmt_high: Format,
    dims: Sequence[int],
    dtype_bits: int = 32,
    *,
    lo: float = 1e-10,
    hi: float = 1.0,
    iters: int = 80,
) -> float:
    """Density where *fmt_low* stops being more compact than *fmt_high*.

    Bisects on density assuming the footprint ratio is monotone (true for
    the Fig. 4 crossover pairs: COO/CSR, CSR/ZVC, ZVC-or-RLC/Dense).
    Returns the crossover density; callers should check the bracket holds.
    """
    size = int(np.prod([int(d) for d in dims]))

    def diff(d: float) -> float:
        nnz = min(size, max(1, int(round(d * size))))
        return storage_bits(fmt_low, dims, nnz, dtype_bits) - storage_bits(
            fmt_high, dims, nnz, dtype_bits
        )

    f_lo, f_hi = diff(lo), diff(hi)
    if f_lo * f_hi > 0:
        raise ValueError(
            f"no {fmt_low}/{fmt_high} crossover in [{lo}, {hi}] for dims {dims}"
        )
    for _ in range(iters):
        mid = np.sqrt(lo * hi)  # bisect in log space
        if diff(mid) * f_lo <= 0:
            hi = mid
        else:
            lo = mid
    return float(np.sqrt(lo * hi))
