"""Closed-form conversion cost estimates and the per-operand path planner.

SAGE must price every (MCF, ACF) candidate without materializing the
operands (Sec. VI: "to model the conversion cost, we evaluate the building
blocks necessary for each conversion scenario along with their relative
execution cycles and power consumption").  This module prices the routes
the :mod:`repro.mint.graph` planner chooses, using the same pipelined-pass
cycle model the graph's per-hop estimators implement, plus the energy
accounting the graph does not carry.

Throughput is bit-granular: MINT's memory controller ingests at the bus
width (512 bits/cycle), so a conversion whose processing stages keep pace
is *fully hidden* behind the DRAM transfer of the same operand ("MINT is
pipelined to start conversion while streaming in data from memory",
Sec. V-B).  The visible residuals are the divide/mod bank (8 results/cycle,
needed only when absolute coordinates must be produced) and the prefix-sum
unit (32/cycle).  A conversion's *output* stream is not charged on the
final hop: it feeds the accelerator's flexible NoC directly and is already
accounted as the compute stage's streaming cycles; a Dense endpoint inside
MINT is therefore costed as nonzeros + occupancy sideband (ZVC-like), never
as materialized zeros.

:class:`PathPlanner` prices conversions per operand.  The first query for
an operand's exact summary statistics builds one
:class:`~repro.mint.graph.RouteTable`: every datapath priced once, one
shortest-path tree per source.  Every (src, dst) cost of that operand is
then read from it.  A small LRU of these tables, keyed on the exact
statistics, serves the repeated pricing of SAGE's search, and no route
depends on what the process priced before.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.formats.registry import Format
from repro.hardware.energy import DEFAULT_ENERGY, EnergyModel
from repro.mint.graph import (
    DEFAULT_THROUGHPUT,
    HopStats,
    MintThroughput,
    RouteTable,
    _needs_divmod,
    conversion_graph,
)

__all__ = [
    "ConversionCost",
    "MintThroughput",
    "PathPlanner",
    "estimate_conversion_cost",
    "shared_planner",
]


@dataclass(frozen=True)
class ConversionCost:
    """Estimated cost of one conversion for the SAGE cost model."""

    cycles: int
    energy_j: float
    seconds: float

    @staticmethod
    def zero() -> "ConversionCost":
        """No-conversion (MCF == ACF) cost."""
        return ConversionCost(0, 0.0, 0.0)

    def __add__(self, other: "ConversionCost") -> "ConversionCost":
        return ConversionCost(
            self.cycles + other.cycles,
            self.energy_j + other.energy_j,
            self.seconds + other.seconds,
        )


class _CostTable:
    """One operand's :class:`ConversionCost` for every (src, dst) pair,
    each priced along its :class:`~repro.mint.graph.RouteTable` route."""

    def __init__(self, table: RouteTable, energy: EnergyModel) -> None:
        self.table = table
        self.energy = energy
        self._costs: dict[tuple[Format, Format], ConversionCost] = {}

    def cost(self, src: Format, dst: Format) -> ConversionCost:
        cost = self._costs.get((src, dst))
        if cost is None:
            edges = self.table.edges(src, dst)
            cost = ConversionCost.zero()
            for i, e in enumerate(edges):
                cost = cost + self._hop(e, final_hop=i == len(edges) - 1)
            self._costs[src, dst] = cost
        return cost

    def _hop(self, e: int, *, final_hop: bool) -> ConversionCost:
        """Price one routed hop: its table cycles + the energy model."""
        table, energy = self.table, self.energy
        stats, index = table.stats, table.index
        src, dst = index.edges[e].pair
        in_bits = table.bits[index.src[e]]
        out_bits = table.bits[index.dst[e]]
        div_ops = float(stats.nnz) if _needs_divmod(src, dst) else 0.0
        scan_ops = (
            float(stats.size)
            if src is Format.DENSE
            else float(max(stats.nnz, stats.major_dim))
        )
        compares = float(stats.size) if src is Format.DENSE else float(stats.nnz)
        cycles = int(table.final[e] if final_hop else table.inter[e])
        energy_j = (
            (in_bits + out_bits) * energy.sram_global_bit
            + div_ops * (energy.div_int32 + energy.mod_int32)
            + scan_ops * energy.add_int32
            + compares * energy.compare
        )
        return ConversionCost(cycles, energy_j, cycles / table.throughput.clock_hz)


# ---------------------------------------------------------------- planner
#: Operands whose cost tables a planner keeps (a predict prices 2-3).
TABLE_CACHE_SIZE = 256


class PathPlanner:
    """Exact-statistics conversion cost planner over the conversion graph.

    One planner instance serves one (throughput, energy) configuration;
    :func:`shared_planner` returns the process-wide default every SAGE
    search shares.  It keeps the last :data:`TABLE_CACHE_SIZE` operands'
    cost tables.
    """

    def __init__(
        self,
        *,
        throughput: MintThroughput | None = None,
        energy: EnergyModel = DEFAULT_ENERGY,
    ) -> None:
        self.throughput = throughput or DEFAULT_THROUGHPUT
        self.energy = energy
        self._table = lru_cache(maxsize=TABLE_CACHE_SIZE)(self._build)

    def _build(
        self, size: int, nnz: int, major_dim: int, dtype_bits: int, tensor: bool
    ) -> _CostTable:
        stats = HopStats(
            size=size, nnz=nnz, major_dim=major_dim, dtype_bits=dtype_bits,
            tensor=tensor,
        )
        graph = conversion_graph(tensor=tensor)
        return _CostTable(
            graph.table(stats, throughput=self.throughput), self.energy
        )

    def estimate(
        self,
        src: Format,
        dst: Format,
        *,
        size: int,
        nnz: int,
        major_dim: int,
        dtype_bits: int = 32,
        tensor: bool = False,
    ) -> ConversionCost:
        """Conversion cost along the operand's cheapest route."""
        if src is dst:
            return ConversionCost.zero()
        table = self._table(size, nnz, major_dim, dtype_bits, tensor)
        return table.cost(src, dst)

    def cache_info(self):
        """Hit/miss counters of the per-operand table LRU."""
        return self._table.cache_info()

    def cache_clear(self) -> None:
        """Drop every cached table (used to time cold searches)."""
        self._table.cache_clear()


_SHARED_PLANNER = PathPlanner()


def shared_planner() -> PathPlanner:
    """The process-wide planner SAGE's cost model routes through."""
    return _SHARED_PLANNER


def estimate_conversion_cost(
    src: Format,
    dst: Format,
    *,
    size: int,
    nnz: int,
    major_dim: int,
    dtype_bits: int = 32,
    tensor: bool = False,
    throughput: MintThroughput | None = None,
    energy: EnergyModel = DEFAULT_ENERGY,
) -> ConversionCost:
    """Estimate MINT's cost to convert src -> dst from summary statistics.

    Default-configuration queries go through the shared planner; custom
    throughput/energy models are priced by a fresh one.

    Parameters
    ----------
    size:
        Logical element count (M*K or X*Y*Z).
    nnz:
        Nonzero count.
    major_dim:
        Pointer-array length driver (rows for CSR, columns for CSC; use the
        larger dimension when unknown).
    """
    if (throughput is None or throughput is DEFAULT_THROUGHPUT) and (
        energy is DEFAULT_ENERGY
    ):
        planner = _SHARED_PLANNER
    else:
        planner = PathPlanner(throughput=throughput, energy=energy)
    return planner.estimate(
        src,
        dst,
        size=size,
        nnz=nnz,
        major_dim=major_dim,
        dtype_bits=dtype_bits,
        tensor=tensor,
    )
