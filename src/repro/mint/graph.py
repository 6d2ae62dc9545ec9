"""Pluggable conversion-graph registry with cost-aware path planning.

The MINT engine used to hard-code its dispatch in two module dicts plus a
fixed "via COO, else via Dense" hub heuristic.  This module replaces that
with a **registry**: every conversion routine in
:mod:`repro.mint.conversions` / :mod:`repro.mint.tensor_conversions`
self-registers through the :func:`register_conversion` decorator, carrying
its metadata — source/target :class:`~repro.formats.registry.Format`, the
keyword arguments it accepts, and a per-hop cycle estimator.  Path
resolution is then a Dijkstra shortest-path search over the registered
datapaths, weighted by estimated cycles for the operand at hand
(size/nnz-aware), so adding a format is one decorated function and routing
automatically exploits it.  A :class:`RouteTable` prices every edge once
for one operand and answers every target of a source from one
shortest-path tree.

Because the legacy hub route is itself a path in the same graph, the
Dijkstra route is **never costlier than the old heuristic's** under the
same estimator — the property the planner regression tests pin.

Cycle estimation mirrors the pipelined-pass model of
:mod:`repro.mint.cost`: a hop's visible cycles are the slowest of its
stream-in, divide/mod and prefix-sum stages; intermediate hops additionally
materialize their output in the scratchpad, while the final hop's output
feeds the accelerator directly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator

from repro.analysis.compactness import storage_bits
from repro.errors import ConversionError
from repro.formats.registry import Format

#: A conversion routine: ``fn(src_obj, blocks, **kwargs) -> (dst_obj, cycles)``.
ConversionFn = Callable[..., tuple[Any, int]]


@dataclass(frozen=True)
class MintThroughput:
    """Throughput of the merged MINT instance (Sec. VII-B sizing)."""

    stream_bits: int = 512  # memory-controller ingest, matched to the bus
    divmod_units: int = 8  # "we limit the number of parallel mod and divider
    #                         units to eight" (Sec. VII-B)
    scan_width: int = 32  # "highly parallel prefix sum of 32 inputs"
    clock_hz: float = 1.0e9


DEFAULT_THROUGHPUT = MintThroughput()


@dataclass(frozen=True)
class HopStats:
    """Operand summary statistics a hop estimator prices against."""

    size: int  # logical element count (M*K or X*Y*Z)
    nnz: int  # nonzero count
    major_dim: int  # pointer-array length driver (rows for CSR, ...)
    dtype_bits: int = 32
    tensor: bool = False

    @staticmethod
    def typical(*, tensor: bool = False) -> "HopStats":
        """Representative stats when the caller has no operand in hand.

        A 1K x 1K (or 128^3-ish) operand at ~1% density: dense-vs-sparse
        routing tradeoffs are already visible at this size-class.
        """
        size = 1 << 20
        return HopStats(
            size=size, nnz=size // 100, major_dim=1 << 10, tensor=tensor
        )

    @staticmethod
    def of(obj: Any) -> "HopStats":
        """Stats of a materialized format object (matrix or tensor)."""
        from repro.formats.base import TensorFormat

        tensor = isinstance(obj, TensorFormat)
        size = 1
        for d in obj.shape:
            size *= int(d)
        return HopStats(
            size=size,
            nnz=max(1, int(obj.nnz)),
            major_dim=max(1, int(obj.shape[0])),
            dtype_bits=obj.dtype_bits,
            tensor=tensor,
        )


#: A hop estimator prices one registered datapath for given operand stats;
#: ``final_hop`` hops skip the scratchpad write-back charge.
HopEstimator = Callable[..., float]


def _dims_for(size: int, major_dim: int, *, tensor: bool) -> tuple[int, ...]:
    """Reconstruct a dims tuple for the storage model from (size, major)."""
    major_dim = max(1, min(major_dim, size))
    minor = max(1, size // major_dim)
    if not tensor:
        return (major_dim, minor)
    # Split the minor extent evenly for the two remaining modes.
    mid = max(1, int(minor ** 0.5))
    return (major_dim, mid, max(1, minor // mid))


def _footprint_bits(fmt: Format, stats: HopStats) -> float:
    """Bits of an encoding as it transits MINT.

    Dense transits as nonzeros + occupancy sideband (the flexible-NoC
    representation, ZVC-equivalent) — MINT never materializes zeros.
    """
    dims = _dims_for(stats.size, stats.major_dim, tensor=stats.tensor)
    transit_fmt = Format.ZVC if fmt is Format.DENSE else fmt
    return float(
        storage_bits(transit_fmt, dims, stats.nnz, stats.dtype_bits)
    )


def _needs_divmod(src: Format, dst: Format) -> bool:
    """Does the hop compute absolute coordinates with the divide/mod bank?"""
    return dst in (Format.COO, Format.CSF, Format.HICOO, Format.BSR)


def estimate_hop_cycles(
    src: Format,
    dst: Format,
    stats: HopStats,
    *,
    final_hop: bool = True,
    throughput: MintThroughput = DEFAULT_THROUGHPUT,
) -> int:
    """Estimated visible cycles of one registered hop (pipelined passes).

    This is the generic estimator attached to every datapath that does not
    supply its own: the slowest of the stream-in / divide-mod / prefix-sum
    stages bounds the pass, pointer-to-pointer transposes (CSR<->CSC) take
    a second full pass, and non-final hops add the scratchpad write-back.
    """
    out_bits = 0.0 if final_hop else _footprint_bits(dst, stats)
    inter, final = _hop_cycles(
        src, dst, stats, _footprint_bits(src, stats), out_bits, throughput
    )
    return final if final_hop else inter


def _hop_cycles(
    src: Format,
    dst: Format,
    stats: HopStats,
    in_bits: float,
    out_bits: float,
    tp: MintThroughput,
) -> tuple[int, int]:
    """A hop's (intermediate, final) cycles given its ends' footprints."""
    div_ops = float(stats.nnz) if _needs_divmod(src, dst) else 0.0
    scan_ops = (
        float(stats.size)
        if src is Format.DENSE
        else float(max(stats.nnz, stats.major_dim))
    )
    passes = 2.0 if (
        src in (Format.CSR, Format.CSC) and dst in (Format.CSR, Format.CSC)
    ) else 1.0
    stage_cycles = max(
        passes * in_bits / tp.stream_bits,
        div_ops / tp.divmod_units,
        scan_ops / tp.scan_width,
    )
    inter = stage_cycles + out_bits / tp.stream_bits
    return max(1, int(inter) + 1), max(1, int(stage_cycles) + 1)


@dataclass(frozen=True)
class Datapath:
    """One registered conversion edge and its metadata."""

    source: Format
    target: Format
    fn: ConversionFn
    accepts: tuple[str, ...] = ()  # kwarg names the routine understands
    estimator: HopEstimator | None = None
    tensor: bool = False

    @property
    def name(self) -> str:
        """The implementing routine's name (used in conversion reports)."""
        return self.fn.__name__

    @property
    def pair(self) -> tuple[Format, Format]:
        """The (source, target) key of this edge."""
        return (self.source, self.target)

    def cycles(
        self,
        stats: HopStats,
        *,
        final_hop: bool = True,
        throughput: MintThroughput | None = None,
    ) -> float:
        """Estimated cycles of this hop for *stats*.

        A non-default *throughput* overrides the registered estimator
        (which closes over the default MINT sizing), so routing and
        pricing agree under custom hardware configurations.
        """
        if throughput is not None and throughput is not DEFAULT_THROUGHPUT:
            return float(
                estimate_hop_cycles(
                    self.source, self.target, stats,
                    final_hop=final_hop, throughput=throughput,
                )
            )
        est = self.estimator or partial(
            estimate_hop_cycles, self.source, self.target
        )
        return float(est(stats, final_hop=final_hop))

    def __call__(self, obj: Any, blocks: Any, **kwargs: Any) -> tuple[Any, int]:
        """Execute the datapath, forwarding only the kwargs it accepts."""
        usable = {k: v for k, v in kwargs.items() if k in self.accepts}
        return self.fn(obj, blocks, **usable)


class ConversionGraph:
    """Registry of datapaths + cost-weighted shortest-path routing.

    One instance exists per operand arity (:data:`MATRIX_GRAPH`,
    :data:`TENSOR_GRAPH`).  Registration is open: downstream packages add a
    format by decorating its conversion routines — no engine edits.
    """

    def __init__(self, *, tensor: bool = False) -> None:
        self.tensor = tensor
        self._edges: dict[tuple[Format, Format], Datapath] = {}
        self._out: dict[Format, list[Datapath]] = {}
        self._index: _GraphIndex | None = None

    # ------------------------------------------------------------ registry
    def register(self, dp: Datapath) -> Datapath:
        """Add (or replace) the datapath for ``dp.pair``."""
        old = self._edges.get(dp.pair)
        if old is not None:
            self._out[dp.source].remove(old)
        self._edges[dp.pair] = dp
        self._out.setdefault(dp.source, []).append(dp)
        self._index = None
        return dp

    def direct(self, source: Format, target: Format) -> Datapath | None:
        """The registered single-hop datapath, if any."""
        return self._edges.get((source, target))

    def edges_from(self, source: Format) -> tuple[Datapath, ...]:
        """All registered datapaths leaving *source*."""
        return tuple(self._out.get(source, ()))

    def formats(self) -> tuple[Format, ...]:
        """Every format appearing as an edge endpoint, stably ordered."""
        seen: dict[Format, None] = {}
        for s, t in self._edges:
            seen.setdefault(s)
            seen.setdefault(t)
        return tuple(seen)

    def __iter__(self) -> Iterator[Datapath]:
        return iter(self._edges.values())

    def __len__(self) -> int:
        return len(self._edges)

    # ------------------------------------------------------------- routing
    def _indexed(self) -> "_GraphIndex":
        index = self._index
        if index is None:
            index = self._index = _GraphIndex(self)
        return index

    def table(
        self,
        stats: HopStats | None = None,
        *,
        throughput: MintThroughput | None = None,
    ) -> "RouteTable":
        """Every route of this graph for one operand's *stats*."""
        return RouteTable(
            self, stats or HopStats.typical(tensor=self.tensor), throughput
        )

    def find_path(
        self,
        source: Format,
        target: Format,
        stats: HopStats | None = None,
        *,
        throughput: MintThroughput | None = None,
    ) -> tuple[Datapath, ...]:
        """Cheapest hop sequence realizing source -> target (Dijkstra).

        Edge weights are each datapath's estimated cycles for *stats*
        (:meth:`Datapath.cycles`); the final hop is priced without the
        scratchpad write-back, exactly as the engine executes it.  Raises
        :class:`~repro.errors.ConversionError` when *target* is unreachable.
        """
        if source is target:
            return ()
        return self.table(stats, throughput=throughput).route(source, target)

    def hub_heuristic_path(
        self, source: Format, target: Format
    ) -> tuple[Datapath, ...]:
        """The legacy resolution order: identity, direct, via COO, via Dense.

        Kept as the regression baseline the Dijkstra route must never
        exceed in estimated cycles (and for A/B experiments).
        """
        if source is target:
            return ()
        direct = self.direct(source, target)
        if direct is not None:
            return (direct,)
        for hub in (Format.COO, Format.DENSE):
            if hub in (source, target):
                continue
            first = self.direct(source, hub)
            second = self.direct(hub, target)
            if first is not None and second is not None:
                return (first, second)
        raise _no_route(source, target, tensor=self.tensor)

    def path_cycles(
        self,
        path: tuple[Datapath, ...],
        stats: HopStats | None = None,
        *,
        throughput: MintThroughput | None = None,
    ) -> float:
        """Total estimated cycles of *path* (final hop priced as final)."""
        stats = stats or HopStats.typical(tensor=self.tensor)
        total = 0.0
        for idx, dp in enumerate(path):
            total += dp.cycles(
                stats, final_hop=idx == len(path) - 1, throughput=throughput
            )
        return total

    def supported_pairs(self) -> list[tuple[Format, Format]]:
        """All (source, target) pairs with a realizable route."""
        from repro.formats.registry import MATRIX_FORMATS, TENSOR_FORMATS

        catalog = TENSOR_FORMATS if self.tensor else MATRIX_FORMATS
        table = self.table()
        pairs = []
        for s in catalog:
            for t in catalog:
                try:
                    table.route(s, t)
                except ConversionError:
                    continue
                pairs.append((s, t))
        return pairs


def _no_route(source: Format, target: Format, *, tensor: bool) -> ConversionError:
    return ConversionError(
        f"no MINT datapath from {source} to {target} "
        f"({'tensor' if tensor else 'matrix'})"
    )


def _is_generic(dp: Datapath) -> bool:
    """Does *dp* price itself with the generic :func:`estimate_hop_cycles`?"""
    est = dp.estimator
    return est is None or (
        isinstance(est, partial)
        and est.func is estimate_hop_cycles
        and est.args == dp.pair
        and not est.keywords
    )


class _GraphIndex:
    """A graph's formats and datapaths numbered for routing.

    Nodes are numbered in ``Format.value`` order, the heap tie-break, so
    equal-cost routes resolve the same way on integers as on formats.
    Edges keep registration order, the order a route's final hop is
    chosen in.
    """

    def __init__(self, graph: ConversionGraph) -> None:
        self.tensor = graph.tensor
        self.nodes = tuple(sorted(graph.formats(), key=lambda f: f.value))
        self.node_of = {fmt: v for v, fmt in enumerate(self.nodes)}
        self.edges = tuple(graph)
        edge_of = {dp.pair: e for e, dp in enumerate(self.edges)}
        self.src = tuple(self.node_of[dp.source] for dp in self.edges)
        self.dst = tuple(self.node_of[dp.target] for dp in self.edges)
        self.out = tuple(
            tuple(edge_of[dp.pair] for dp in graph.edges_from(fmt))
            for fmt in self.nodes
        )
        self.into = tuple(
            tuple(e for e, dst in enumerate(self.dst) if dst == v)
            for v in range(len(self.nodes))
        )
        self.generic = tuple(_is_generic(dp) for dp in self.edges)


class RouteTable:
    """Every MINT route for one operand: each edge priced once, one
    shortest-path tree per source.

    ``inter[e]`` and ``final[e]`` are edge ``e``'s cycles as an
    intermediate and as the final hop, ``bits[v]`` node ``v``'s transit
    footprint (see :class:`_GraphIndex` for the numbering).  A non-default
    *throughput* reprices every edge with :func:`estimate_hop_cycles`,
    overriding registered estimators as :meth:`Datapath.cycles` does.
    """

    def __init__(
        self,
        graph: ConversionGraph,
        stats: HopStats,
        throughput: MintThroughput | None = None,
    ) -> None:
        index = self.index = graph._indexed()
        self.stats = stats
        tp = self.throughput = throughput or DEFAULT_THROUGHPUT
        bits = self.bits = [_footprint_bits(fmt, stats) for fmt in index.nodes]
        self.inter: list[float] = []
        self.final: list[float] = []
        for e, dp in enumerate(index.edges):
            if tp is not DEFAULT_THROUGHPUT or index.generic[e]:
                inter, final = _hop_cycles(
                    dp.source, dp.target, stats,
                    bits[index.src[e]], bits[index.dst[e]], tp,
                )
            else:
                inter = dp.estimator(stats, final_hop=False)
                final = dp.estimator(stats, final_hop=True)
            self.inter.append(float(inter))
            self.final.append(float(final))
        self._trees: dict[int, tuple[list[float], list[int]]] = {}

    def _tree(self, source: int, stop: int = -1) -> tuple[list[float], list[int]]:
        """Dijkstra from *source*, every hop charged as intermediate.

        Returns each node's cheapest prefix cost and the edge reaching it
        (``-1`` for the source and unreached nodes).  *stop* is reached
        but never expanded.
        """
        index, inter = self.index, self.inter
        dist = [math.inf] * len(index.nodes)
        prev = [-1] * len(index.nodes)
        settled = [False] * len(index.nodes)
        dist[source] = 0.0
        # (cost, hops, node): equal costs pop fewer hops first, then the
        # lower node number.
        pq = [(0.0, 0, source)]
        while pq:
            d, hops, node = heapq.heappop(pq)
            if settled[node] or node == stop:
                continue
            settled[node] = True
            for e in index.out[node]:
                nd = d + inter[e]
                v = index.dst[e]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = e
                    heapq.heappush(pq, (nd, hops + 1, v))
        return dist, prev

    def _last_hop(self, dist: list[float], target: int) -> int:
        """The edge into *target* minimizing prefix + final-priced hop."""
        best, best_total = -1, math.inf
        for e in self.index.into[target]:
            total = dist[self.index.src[e]] + self.final[e]
            if total < best_total:
                best, best_total = e, total
        return best

    def edges(self, source: Format, target: Format) -> list[int]:
        """Edge numbers of the cheapest source -> target route.

        Raises :class:`~repro.errors.ConversionError` when *target* is
        unreachable.
        """
        if source is target:
            return []
        index = self.index
        s, t = index.node_of.get(source), index.node_of.get(target)
        last = -1
        if s is not None and t is not None:
            tree = self._trees.get(s)
            if tree is None:
                tree = self._trees[s] = self._tree(s)
            dist, prev = tree
            last = self._last_hop(dist, t)
            if last >= 0 and dist[index.src[last]] >= dist[t]:
                # A prefix that settled before *target* is the one a
                # search never expanding *target* finds.  This one may not
                # have (possible only when an estimator prices a final hop
                # above the same intermediate hop, or at zero): re-solve
                # without expanding *target*.
                dist, prev = self._tree(s, stop=t)
                last = self._last_hop(dist, t)
        if last < 0:
            raise _no_route(source, target, tensor=index.tensor)
        path = [last]
        node = index.src[last]
        while node != s:
            path.append(prev[node])
            node = index.src[prev[node]]
        path.reverse()
        return path

    def route(self, source: Format, target: Format) -> tuple[Datapath, ...]:
        """Cheapest hop sequence realizing source -> target."""
        return tuple(self.index.edges[e] for e in self.edges(source, target))


#: The process-wide registries the decorators populate.
MATRIX_GRAPH = ConversionGraph(tensor=False)
TENSOR_GRAPH = ConversionGraph(tensor=True)

_DATAPATHS_LOADED = False


def _ensure_datapaths_loaded() -> None:
    """Import the conversion modules so their decorators have run.

    The flag flips only *after* both imports complete: flipping it first
    let a concurrent thread (e.g. an in-process serve worker answering
    the process's very first prediction) observe an empty graph and fail
    with "no MINT datapath".  Duplicate imports are harmless no-ops and
    the interpreter's import lock serializes racing first importers.
    """
    global _DATAPATHS_LOADED
    if not _DATAPATHS_LOADED:
        import repro.mint.conversions  # noqa: F401  (registers matrix edges)
        import repro.mint.tensor_conversions  # noqa: F401  (tensor edges)
        _DATAPATHS_LOADED = True


def conversion_graph(*, tensor: bool = False) -> ConversionGraph:
    """The populated registry for the requested operand arity."""
    _ensure_datapaths_loaded()
    return TENSOR_GRAPH if tensor else MATRIX_GRAPH


def register_conversion(
    source: Format,
    target: Format,
    *,
    tensor: bool = False,
    accepts: tuple[str, ...] = (),
    estimator: HopEstimator | None = None,
    graph: ConversionGraph | None = None,
) -> Callable[[ConversionFn], ConversionFn]:
    """Decorator: self-register a conversion routine as a graph datapath.

    Parameters
    ----------
    accepts:
        Keyword arguments the routine understands (e.g. ``("block_shape",)``
        for BSR encoders); the engine forwards only these.
    estimator:
        Per-hop cycle estimator ``est(stats, *, final_hop) -> float``;
        defaults to :func:`estimate_hop_cycles` specialized to the pair.
    """

    def deco(fn: ConversionFn) -> ConversionFn:
        # `is not None`, not truthiness: an empty target graph is falsy.
        g = graph if graph is not None else (
            TENSOR_GRAPH if tensor else MATRIX_GRAPH
        )
        est = estimator or partial(estimate_hop_cycles, source, target)
        g.register(
            Datapath(
                source=source,
                target=target,
                fn=fn,
                accepts=tuple(accepts),
                estimator=est,
                tensor=tensor,
            )
        )
        return fn

    return deco
