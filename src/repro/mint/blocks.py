"""MINT building blocks (Fig. 8a / Fig. 9).

Each block is functional — it computes real results on numpy arrays — and
self-accounting: every invocation returns the result plus the cycles it
occupies, and accumulates operation counts for energy reporting.  Blocks are
pipelined: an input of n elements through a block of width ``lanes`` and
pipeline depth ``d`` takes ``ceil(n / lanes) + d - 1`` cycles, with
initiation interval 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.hardware.area import PrefixSumDesign
from repro.util.bits import ceil_div


@dataclass
class BlockStats:
    """Operation counters a block accumulates across invocations."""

    int_adds: int = 0
    int_mults: int = 0
    divides: int = 0
    mods: int = 0
    compares: int = 0
    elements_moved: int = 0

    def __iadd__(self, other: "BlockStats") -> "BlockStats":
        self.int_adds += other.int_adds
        self.int_mults += other.int_mults
        self.divides += other.divides
        self.mods += other.mods
        self.compares += other.compares
        self.elements_moved += other.elements_moved
        return self


def _pipeline_cycles(n: int, lanes: int, depth: int) -> int:
    """Cycles for n elements through a ``lanes``-wide, ``depth``-deep pipe."""
    if n <= 0:
        return 0
    return ceil_div(n, lanes) + depth - 1


class PrefixSumUnit:
    """Prefix-sum (scan) unit with the three Fig. 9 implementations.

    * ``SERIAL_CHAIN`` — store-and-forward chain with an offset-adder row:
      N-deep pipeline, N results/cycle, 2N adders.
    * ``WORK_EFFICIENT`` — Brent-Kung: 2*log2(N)-1 stages, ~2N adders total
      work per chunk.
    * ``HIGHLY_PARALLEL`` — Sklansky: log2(N) stages, (N/2)*log2(N) adders.

    All three produce identical inclusive prefix sums; they differ in
    latency, adder count and wiring — the ablation of
    ``repro xp run ablation_prefix``.
    """

    def __init__(
        self,
        design: PrefixSumDesign = PrefixSumDesign.HIGHLY_PARALLEL,
        width: int = 32,
    ) -> None:
        if width < 1 or width & (width - 1):
            raise ConfigError(f"prefix-sum width must be a power of two, got {width}")
        self.design = design
        self.width = width
        self.stats = BlockStats()

    @property
    def pipeline_depth(self) -> int:
        """Stages between first input and first output."""
        n = self.width
        log_n = max(1, int(np.log2(n)))
        if self.design is PrefixSumDesign.SERIAL_CHAIN:
            return n
        if self.design is PrefixSumDesign.WORK_EFFICIENT:
            return 2 * log_n - 1
        return log_n

    @property
    def adder_count(self) -> int:
        """Physical adders instantiated (area driver)."""
        n = self.width
        log_n = max(1, int(np.log2(n)))
        if self.design is PrefixSumDesign.SERIAL_CHAIN:
            return 2 * n  # chain + offset row
        if self.design is PrefixSumDesign.WORK_EFFICIENT:
            return 2 * n - 2 - log_n
        return (n // 2) * log_n

    def scan(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Inclusive prefix sum; returns (sums, cycles occupied)."""
        arr = np.asarray(values, dtype=np.int64).ravel()
        n = len(arr)
        cycles = _pipeline_cycles(n, self.width, self.pipeline_depth)
        self.stats += BlockStats(
            int_adds=ceil_div(n, self.width) * self.adder_count if n else 0,
            elements_moved=n,
        )
        return np.cumsum(arr), cycles


class ParallelDivMod:
    """Bank of pipelined integer divide + modulo units.

    The paper limits MINT to eight parallel units "due to how hardware
    expensive the modules are" (Sec. VII-B); they are the dominant area and
    power consumer of MINT_m.
    """

    PIPELINE_DEPTH = 8  # pipelined radix divider latency

    def __init__(self, units: int = 8) -> None:
        if units < 1:
            raise ConfigError("need at least one divide/mod unit")
        self.units = units
        self.stats = BlockStats()

    def divmod_by(
        self, numerators: np.ndarray, divisor: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Elementwise (numerator // divisor, numerator % divisor, cycles)."""
        if divisor <= 0:
            raise ConfigError(f"divisor must be positive, got {divisor}")
        arr = np.asarray(numerators, dtype=np.int64).ravel()
        n = len(arr)
        cycles = _pipeline_cycles(n, self.units, self.PIPELINE_DEPTH)
        self.stats += BlockStats(divides=n, mods=n, elements_moved=n)
        return arr // divisor, arr % divisor, cycles


class SortingNetwork:
    """Pipelined bitonic sorting network over fixed-width chunks.

    Used by the CSR->CSC path to sort col-id chunks before cluster counting
    (Fig. 8c step 2).  Stage count is the bitonic ``log2(w)*(log2(w)+1)/2``.
    """

    def __init__(self, width: int = 16) -> None:
        if width < 2 or width & (width - 1):
            raise ConfigError(f"sorter width must be a power of two >= 2, got {width}")
        self.width = width
        self.stats = BlockStats()

    @property
    def stages(self) -> int:
        """Pipeline stages of the bitonic network."""
        log_w = int(np.log2(self.width))
        return log_w * (log_w + 1) // 2

    @property
    def comparator_count(self) -> int:
        """Physical compare-exchange elements."""
        return (self.width // 2) * self.stages

    def sort_chunks(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Sort each width-sized chunk independently; returns (out, cycles)."""
        arr = np.asarray(values, dtype=np.int64).ravel()
        n = len(arr)
        if n == 0:
            return arr, 0
        out = arr.copy()
        for lo in range(0, n, self.width):
            out[lo : lo + self.width] = np.sort(out[lo : lo + self.width])
        cycles = _pipeline_cycles(n, self.width, self.stages)
        self.stats += BlockStats(
            compares=ceil_div(n, self.width) * self.comparator_count,
            elements_moved=n,
        )
        return out, cycles


class ClusterCounter:
    """Counts occurrences of key values in a stream (Fig. 8c step 3).

    Functionally a bounded histogram; in hardware a bank of match counters
    incremented as sorted chunks stream past.
    """

    def __init__(self, lanes: int = 16) -> None:
        if lanes < 1:
            raise ConfigError("cluster counter needs at least one lane")
        self.lanes = lanes
        self.stats = BlockStats()

    def histogram(self, keys: np.ndarray, num_bins: int) -> tuple[np.ndarray, int]:
        """Count key occurrences into *num_bins*; returns (counts, cycles)."""
        arr = np.asarray(keys, dtype=np.int64).ravel()
        n = len(arr)
        counts = np.bincount(arr, minlength=num_bins).astype(np.int64)
        cycles = _pipeline_cycles(n, self.lanes, 1)
        self.stats += BlockStats(int_adds=n, compares=n, elements_moved=n)
        return counts, cycles


class MemoryController:
    """Scratchpad read/write streams with address generation (Fig. 8a).

    Models the address generators + FIFOs + crossbar: moving n elements at
    ``lanes`` per cycle.  Also exposes a gather/scatter helper whose cycle
    cost is the same streaming cost (the crossbar hides bank conflicts in
    this model).
    """

    def __init__(self, lanes: int = 16) -> None:
        if lanes < 1:
            raise ConfigError("memory controller needs at least one lane")
        self.lanes = lanes
        self.stats = BlockStats()

    def stream(self, n_elements: int) -> int:
        """Cycles to stream *n_elements* through the controller."""
        if n_elements < 0:
            raise ConfigError("element count must be >= 0")
        self.stats += BlockStats(elements_moved=n_elements)
        return _pipeline_cycles(n_elements, self.lanes, 1)

    def scatter(
        self, values: np.ndarray, positions: np.ndarray, size: int
    ) -> tuple[np.ndarray, int]:
        """Place values[i] at positions[i] in a fresh buffer of *size*."""
        out = np.zeros(size, dtype=np.asarray(values).dtype)
        out[np.asarray(positions, dtype=np.int64)] = values
        cycles = self.stream(len(np.asarray(values).ravel()))
        return out, cycles
