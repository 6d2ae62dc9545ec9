"""Shared run-length machinery for RLC on flattened arrays.

RLC (Fig. 3) alternates a zero-run count with the following nonzero value:
``0 a 0 b 2 c ...``.  The run field has a fixed hardware width ``run_bits``
(Eyeriss uses 5-bit runs; we default to 4 and make it an ablation knob).
A gap longer than ``2**run_bits - 1`` is encoded by inserting *padding
entries* — a maximal run followed by an explicit zero value — exactly as
fixed-width RLC hardware does.  This is what makes RLC collapse at extreme
sparsity in Fig. 4a: each padding entry burns ``run_bits + dtype_bits``.

Trailing zeros after the final nonzero are implicit: the decoder knows the
logical size from the stored dimension metadata (Fig. 3 stores ``m_dim``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError


def encode_runs(
    positions: np.ndarray, values: np.ndarray, run_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Encode the nonzero *values* at ascending distinct flat *positions*
    (every other position is zero) into (runs, levels) entry pairs.

    Returns
    -------
    runs:
        Zero-run length preceding each stored level, each < 2**run_bits.
    levels:
        The stored values; padding entries store an explicit 0.0 level.
    """
    if run_bits < 1:
        raise FormatError(f"run_bits must be >= 1, got {run_bits}")
    positions = np.asarray(positions, dtype=np.int64).ravel()
    max_run = (1 << run_bits) - 1
    # Each nonzero is preceded by ``pads`` padding entries, each covering
    # max_run zeros plus its own zero level, then its own entry whose run
    # is the remaining gap (a divmod by 2**run_bits).
    gaps = np.diff(positions, prepend=-1) - 1
    pads, rest = gaps >> run_bits, gaps & max_run
    ends = np.cumsum(pads + 1) - 1  # entry index of each nonzero
    size = int(ends[-1]) + 1 if len(ends) else 0
    runs = np.full(size, max_run, dtype=np.int64)
    levels = np.zeros(size, dtype=np.float64)
    runs[ends] = rest
    levels[ends] = values
    return runs, levels


def run_positions(
    runs: np.ndarray, levels: np.ndarray, size: int
) -> np.ndarray:
    """Flat position of every (run, level) entry, checking that the stream
    is consistent and fits in *size* positions."""
    runs = np.asarray(runs, dtype=np.int64).ravel()
    if len(runs) != len(np.ravel(levels)):
        raise FormatError("RLC runs/levels length mismatch")
    if len(runs) and runs.min() < 0:
        raise FormatError(f"RLC run lengths must be >= 0, got {int(runs.min())}")
    # Position of entry i = sum(runs[:i+1]) + i  (each entry consumes its
    # preceding zeros plus one slot for itself).
    positions = np.cumsum(runs) + np.arange(len(runs))
    if len(positions) and positions[-1] >= size:
        raise FormatError(
            f"RLC stream overruns logical size {size} (last position "
            f"{int(positions[-1])})"
        )
    return positions


def decode_runs(
    runs: np.ndarray, levels: np.ndarray, size: int
) -> np.ndarray:
    """Decode (runs, levels) pairs back into a flat array of *size*."""
    positions = run_positions(runs, levels, size)
    out = np.zeros(size, dtype=np.float64)
    out[positions] = np.asarray(levels, dtype=np.float64).ravel()
    return out


def entry_count_expected(size: int, nnz: int, run_bits: int) -> float:
    """Expected RLC entry count for *nnz* uniform-random nonzeros.

    Used by SAGE's fast path when only summary statistics are available.
    Under uniform placement the mean gap is ``(size - nnz) / (nnz + 1)``;
    padding inflates entries by roughly ``gap / (2**run_bits)`` per nonzero.
    """
    if nnz <= 0:
        return 0.0
    max_span = float(1 << run_bits)
    mean_gap = (size - nnz) / (nnz + 1.0)
    pads_per_entry = max(0.0, mean_gap - (max_span - 1.0)) / max_span
    return nnz * (1.0 + pads_per_entry)
