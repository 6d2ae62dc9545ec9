"""Test-only oracle: per-target MINT routing and the class-routed planner.

:class:`~repro.mint.graph.RouteTable` prices each datapath once per
operand and answers every target of a source from one shortest-path
tree.  The code below is what it replaced:

* :func:`find_path` runs one Dijkstra per (source, target) pair that
  never expands the target, pricing each hop as
  :meth:`~repro.mint.graph.Datapath.cycles` does, from transit
  footprints memoized per (format, statistics);
* :func:`price_path` prices a route hop by hop with the energy model;
* :class:`ClassRoutedPlanner` memoizes routes per power-of-two size
  class (so the first operand seen in a class routes every later one)
  and costs per exact statistics, each in a bounded LRU.

``test_graph_planner.py`` pins the exact planner to :func:`find_path`
and :func:`price_path` bit for bit; ``benchmarks/bench_path_planning.py``
times :class:`ClassRoutedPlanner` as the baseline of the exact planner.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from functools import lru_cache

from repro.errors import ConversionError
from repro.formats.registry import Format
from repro.hardware.energy import DEFAULT_ENERGY, EnergyModel
from repro.mint.cost import ConversionCost
from repro.mint.graph import (
    DEFAULT_THROUGHPUT,
    ConversionGraph,
    Datapath,
    HopStats,
    MintThroughput,
    _footprint_bits,
    _hop_cycles,
    _is_generic,
    _needs_divmod,
    conversion_graph,
)

_footprint = lru_cache(maxsize=1024)(_footprint_bits)


def _cycles(
    dp: Datapath,
    stats: HopStats,
    *,
    final_hop: bool,
    throughput: MintThroughput | None = None,
) -> float:
    """:meth:`Datapath.cycles`, with the generic estimator's footprints
    read from the memo."""
    tp = throughput or DEFAULT_THROUGHPUT
    if tp is DEFAULT_THROUGHPUT and not _is_generic(dp):
        return dp.cycles(stats, final_hop=final_hop)
    inter, final = _hop_cycles(
        dp.source, dp.target, stats,
        _footprint(dp.source, stats), _footprint(dp.target, stats), tp,
    )
    return float(final if final_hop else inter)


def find_path(
    graph: ConversionGraph,
    source: Format,
    target: Format,
    stats: HopStats | None = None,
    *,
    throughput: MintThroughput | None = None,
) -> tuple[Datapath, ...]:
    """Cheapest hop sequence realizing source -> target (Dijkstra)."""
    if source is target:
        return ()
    stats = stats or HopStats.typical(tensor=graph.tensor)
    # Dijkstra with every hop charged as intermediate; dst is never
    # expanded, so dist[u] is the cheapest dst-free prefix ending at u.
    dist: dict[Format, float] = {source: 0.0}
    prev: dict[Format, Datapath] = {}
    pq: list[tuple[float, int, str, Format]] = [(0.0, 0, source.value, source)]
    settled: set[Format] = set()
    while pq:
        d, hops, _, node = heapq.heappop(pq)
        if node in settled or node is target:
            continue
        settled.add(node)
        for dp in graph.edges_from(node):
            nd = d + _cycles(dp, stats, final_hop=False, throughput=throughput)
            if nd < dist.get(dp.target, float("inf")):
                dist[dp.target] = nd
                prev[dp.target] = dp
                heapq.heappush(pq, (nd, hops + 1, dp.target.value, dp.target))
    # The true path cost discounts the last hop's write-back: pick the
    # final edge minimizing prefix + final-priced hop.
    best: tuple[float, Datapath] | None = None
    for dp in graph:
        if dp.target is not target or dp.source not in dist:
            continue
        total = dist[dp.source] + _cycles(
            dp, stats, final_hop=True, throughput=throughput
        )
        if best is None or total < best[0]:
            best = (total, dp)
    if best is None:
        raise ConversionError(
            f"no MINT datapath from {source} to {target} "
            f"({'tensor' if graph.tensor else 'matrix'})"
        )
    path = [best[1]]
    node = best[1].source
    while node is not source:
        dp = prev[node]
        path.append(dp)
        node = dp.source
    return tuple(reversed(path))


def _hop_cost(
    dp: Datapath,
    stats: HopStats,
    tp: MintThroughput,
    energy: EnergyModel,
    *,
    final_hop: bool,
) -> ConversionCost:
    """Price one routed hop: the datapath's cycle estimate + energy model."""
    src, dst = dp.source, dp.target
    in_bits = _footprint(src, stats)
    out_bits = _footprint(dst, stats)
    div_ops = float(stats.nnz) if _needs_divmod(src, dst) else 0.0
    scan_ops = (
        float(stats.size)
        if src is Format.DENSE
        else float(max(stats.nnz, stats.major_dim))
    )
    compares = float(stats.size) if src is Format.DENSE else float(stats.nnz)
    cycles = int(_cycles(dp, stats, final_hop=final_hop, throughput=tp))
    energy_j = (
        (in_bits + out_bits) * energy.sram_global_bit
        + div_ops * (energy.div_int32 + energy.mod_int32)
        + scan_ops * energy.add_int32
        + compares * energy.compare
    )
    return ConversionCost(cycles, energy_j, cycles / tp.clock_hz)


def price_path(
    path: tuple[Datapath, ...],
    stats: HopStats,
    tp: MintThroughput = DEFAULT_THROUGHPUT,
    energy: EnergyModel = DEFAULT_ENERGY,
) -> ConversionCost:
    """The cost of *path* for *stats*, hop by hop."""
    total = ConversionCost.zero()
    for idx, dp in enumerate(path):
        total = total + _hop_cost(
            dp, stats, tp, energy, final_hop=idx == len(path) - 1
        )
    return total


class _LruDict:
    """A tiny ordered-dict LRU."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get_or_compute(self, key, compute):
        try:
            value = self._data[key]
        except KeyError:
            value = self._data[key] = compute()
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            return value
        self._data.move_to_end(key)
        return value

    def clear(self) -> None:
        self._data.clear()


def _size_class(value: int) -> int:
    """Power-of-two bucket: operands within 2x share a planned route."""
    return max(1, int(value)).bit_length()


class ClassRoutedPlanner:
    """Routes memoized per size class, costs per exact statistics."""

    def __init__(
        self,
        *,
        throughput: MintThroughput | None = None,
        energy: EnergyModel = DEFAULT_ENERGY,
        route_cache: int = 4096,
        cost_cache: int = 65536,
    ) -> None:
        self.throughput = throughput or DEFAULT_THROUGHPUT
        self.energy = energy
        self._routes = _LruDict(route_cache)
        self._costs = _LruDict(cost_cache)

    def route(
        self,
        src: Format,
        dst: Format,
        *,
        tensor: bool = False,
        size: int,
        nnz: int,
        major_dim: int,
        dtype_bits: int = 32,
    ) -> tuple[Datapath, ...]:
        """The planned hop sequence, memoized per size-class."""
        if src is dst:
            return ()
        key = (
            src, dst, tensor, _size_class(size), _size_class(nnz),
            _size_class(major_dim), dtype_bits,
        )
        stats = HopStats(
            size=size, nnz=nnz, major_dim=major_dim, dtype_bits=dtype_bits,
            tensor=tensor,
        )
        graph = conversion_graph(tensor=tensor)
        return self._routes.get_or_compute(
            key,
            lambda: find_path(
                graph, src, dst, stats, throughput=self.throughput
            ),
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
        """Exact-statistics conversion cost along the class route."""
        if src is dst:
            return ConversionCost.zero()
        key = (src, dst, tensor, size, nnz, major_dim, dtype_bits)

        def compute() -> ConversionCost:
            path = self.route(
                src, dst, tensor=tensor, size=size, nnz=nnz,
                major_dim=major_dim, dtype_bits=dtype_bits,
            )
            stats = HopStats(
                size=size, nnz=nnz, major_dim=major_dim,
                dtype_bits=dtype_bits, tensor=tensor,
            )
            return price_path(path, stats, self.throughput, self.energy)

        return self._costs.get_or_compute(key, compute)

    def cache_clear(self) -> None:
        """Drop both caches."""
        self._routes.clear()
        self._costs.clear()
