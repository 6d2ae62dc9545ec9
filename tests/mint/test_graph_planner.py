"""The conversion-graph registry and the exact-statistics planner."""

from __future__ import annotations

import math
import os
import random

import numpy as np
import pytest
from _class_route_oracle import ClassRoutedPlanner
from _class_route_oracle import find_path as oracle_find_path
from _class_route_oracle import price_path as oracle_price_path
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.inputs import _miss_bands, _miss_workload
from repro.errors import ConversionError
from repro.formats import MATRIX_FORMATS, TENSOR_FORMATS, matrix_class
from repro.formats.registry import Format
from repro.mint.cost import (
    TABLE_CACHE_SIZE,
    PathPlanner,
    estimate_conversion_cost,
    shared_planner,
)
from repro.mint.graph import (
    DEFAULT_THROUGHPUT,
    ConversionGraph,
    Datapath,
    HopStats,
    MintThroughput,
    _dims_for,
    conversion_graph,
    register_conversion,
)
from repro.sage import Sage
from tests.conftest import make_sparse

STATS_GRID = [
    HopStats(size=1 << 14, nnz=1 << 8, major_dim=1 << 7),
    HopStats(size=1 << 20, nnz=1 << 14, major_dim=1 << 10),
    HopStats(size=1 << 24, nnz=1 << 21, major_dim=1 << 12),
]


class TestRegistry:
    def test_every_datapath_carries_metadata(self):
        for tensor in (False, True):
            graph = conversion_graph(tensor=tensor)
            assert len(graph) > 0
            for dp in graph:
                assert dp.tensor is tensor
                assert dp.estimator is not None
                assert dp.cycles(HopStats.typical(tensor=tensor)) >= 1
                assert callable(dp.fn) and dp.name == dp.fn.__name__

    def test_no_static_dispatch_dicts_remain(self):
        import repro.mint.engine as engine

        assert not hasattr(engine, "_MATRIX_DIRECT")
        assert not hasattr(engine, "_TENSOR_DIRECT")

    def test_bsr_encoders_declare_block_shape(self):
        graph = conversion_graph(tensor=False)
        for pair in [(Format.CSR, Format.BSR), (Format.DENSE, Format.BSR)]:
            dp = graph.direct(*pair)
            assert dp is not None and "block_shape" in dp.accepts

    def test_registration_is_open(self):
        """A third-party format is one decorated function away."""
        scratch = ConversionGraph(tensor=False)

        @register_conversion(Format.CSR, Format.COO, graph=scratch)
        def my_path(src, blocks):  # pragma: no cover - never executed
            return src, 0

        dp = scratch.direct(Format.CSR, Format.COO)
        assert dp is not None and dp.fn is my_path
        # Re-registration replaces the edge (latest wins).

        @register_conversion(Format.CSR, Format.COO, graph=scratch)
        def my_path2(src, blocks):  # pragma: no cover
            return src, 0

        assert scratch.direct(Format.CSR, Format.COO).fn is my_path2
        assert len(scratch.edges_from(Format.CSR)) == 1

        # A registered estimator prices its own edge: two one-cycle hops
        # via CSC beat the generically priced direct hop.
        def one_cycle(stats, *, final_hop):
            return 1.0

        for src, dst in [(Format.CSR, Format.CSC), (Format.CSC, Format.COO)]:
            register_conversion(
                src, dst, graph=scratch, estimator=one_cycle
            )(my_path2)
        stats = HopStats.typical()
        route = scratch.find_path(Format.CSR, Format.COO, stats)
        assert [dp.pair for dp in route] == [
            (Format.CSR, Format.CSC), (Format.CSC, Format.COO),
        ]
        assert scratch.path_cycles(route, stats) == 2.0
        assert route == oracle_find_path(scratch, Format.CSR, Format.COO, stats)

    def test_datapath_call_filters_unknown_kwargs(self):
        graph = conversion_graph(tensor=False)
        dp = graph.direct(Format.CSR, Format.COO)
        dense = np.eye(4)
        src = matrix_class(Format.CSR).from_dense(dense)
        from repro.mint.blockset import BlockSet

        out, _cycles = dp(src, BlockSet(), block_shape=(2, 2), bogus=1)
        assert np.array_equal(out.to_dense(), dense)


class TestDijkstraRouting:
    @pytest.mark.parametrize("tensor", [False, True])
    @pytest.mark.parametrize("stats_idx", range(len(STATS_GRID)))
    def test_route_never_costlier_than_hub_heuristic(self, tensor, stats_idx):
        """The planner property: Dijkstra <= legacy hub route, all pairs."""
        graph = conversion_graph(tensor=tensor)
        catalog = TENSOR_FORMATS if tensor else MATRIX_FORMATS
        base = STATS_GRID[stats_idx]
        stats = HopStats(
            size=base.size, nnz=base.nnz, major_dim=base.major_dim,
            tensor=tensor,
        )
        for src in catalog:
            for dst in catalog:
                if src is dst:
                    continue
                route = graph.find_path(src, dst, stats)
                hub = graph.hub_heuristic_path(src, dst)
                assert graph.path_cycles(route, stats) <= graph.path_cycles(
                    hub, stats
                ), f"{src}->{dst} regressed vs the hub heuristic"

    @pytest.mark.parametrize("tensor", [False, True])
    def test_all_pairs_reachable(self, tensor):
        graph = conversion_graph(tensor=tensor)
        catalog = TENSOR_FORMATS if tensor else MATRIX_FORMATS
        assert len(graph.supported_pairs()) == len(catalog) ** 2

    def test_identity_is_empty_route(self):
        graph = conversion_graph(tensor=False)
        assert graph.find_path(Format.CSR, Format.CSR) == ()
        assert graph.hub_heuristic_path(Format.CSR, Format.CSR) == ()

    def test_unreachable_raises(self):
        empty = ConversionGraph(tensor=False)
        with pytest.raises(ConversionError):
            empty.find_path(Format.CSR, Format.CSC)
        with pytest.raises(ConversionError):
            empty.hub_heuristic_path(Format.CSR, Format.CSC)

    def test_route_respects_operand_size(self):
        """Routes are planned against the operand, not a fixed table."""
        graph = conversion_graph(tensor=False)
        for stats in STATS_GRID:
            route = graph.find_path(Format.ZVC, Format.CSR, stats)
            assert [dp.pair for dp in route] == [
                (Format.ZVC, Format.DENSE),
                (Format.DENSE, Format.CSR),
            ]


class TestPathPlanner:
    def test_cost_cache_hits_on_repeat(self):
        planner = PathPlanner()
        kwargs = dict(size=1 << 20, nnz=1 << 12, major_dim=1 << 10)
        first = planner.estimate(Format.CSR, Format.CSC, **kwargs)
        info = planner.cache_info()
        assert info.misses == 1 and info.hits == 0
        second = planner.estimate(Format.CSR, Format.CSC, **kwargs)
        # Another pair of the same operand reads the same table.
        planner.estimate(Format.RLC, Format.CSC, **kwargs)
        info = planner.cache_info()
        assert info.hits == 2 and info.misses == 1
        assert first == second

    def test_cache_clear_resets(self):
        planner = PathPlanner()
        kwargs = dict(size=4096, nnz=64, major_dim=64)
        before = planner.estimate(Format.COO, Format.CSR, **kwargs)
        planner.cache_clear()
        info = planner.cache_info()
        assert info.currsize == 0
        assert info.hits == 0 and info.misses == 0
        # A cleared planner rebuilds the table and answers the same cost.
        assert planner.estimate(Format.COO, Format.CSR, **kwargs) == before
        assert planner.cache_info().misses == 1

    def test_table_cache_stays_bounded(self):
        planner = PathPlanner()
        assert planner.cache_info().maxsize == TABLE_CACHE_SIZE
        for nnz in range(TABLE_CACHE_SIZE + 16):
            planner.estimate(Format.CSR, Format.CSC, size=1 << 20, nnz=nnz,
                             major_dim=1 << 10)
        info = planner.cache_info()
        assert info.currsize == TABLE_CACHE_SIZE
        assert info.misses == TABLE_CACHE_SIZE + 16

    def test_identity_costs_nothing_and_skips_cache(self):
        planner = PathPlanner()
        cost = planner.estimate(Format.CSR, Format.CSR, size=100, nnz=10,
                                major_dim=10)
        assert cost.cycles == 0 and planner.cache_info().currsize == 0

    def test_estimate_conversion_cost_uses_shared_planner(self):
        before = shared_planner().cache_info()
        kwargs = dict(size=1 << 16, nnz=1 << 9, major_dim=1 << 8)
        a = estimate_conversion_cost(Format.ZVC, Format.COO, **kwargs)
        b = estimate_conversion_cost(Format.ZVC, Format.COO, **kwargs)
        after = shared_planner().cache_info()
        assert a == b
        assert after.hits >= before.hits + 1

    def test_planner_matches_direct_graph_pricing(self):
        """Memoization must not change the numbers, only the work."""
        kwargs = dict(size=1 << 20, nnz=1 << 13, major_dim=1 << 10)
        fresh = PathPlanner().estimate(Format.RLC, Format.COO, **kwargs)
        again = PathPlanner().estimate(Format.RLC, Format.COO, **kwargs)
        assert fresh == again and fresh.cycles > 0

    def test_decision_is_history_independent(self):
        """A workload's decision does not depend on what the process
        predicted before it.

        The probe shares every size class with the 22nd of 200 fresh-band
        workloads (perfbench's serve misses).  The class-routed planner
        routes the probe's conversions by whichever operand of its class
        it saw first, so its ranking moves; the exact planner's cannot.
        """
        combos = _miss_bands(1)
        rng = random.Random(1)
        history = [_miss_workload(combos[i], rng, i) for i in range(200)]
        probe = _miss_workload(combos[21], random.Random(2), 1000)

        shared_planner().cache_clear()
        cold = Sage().predict(probe).to_wire()
        shared_planner().cache_clear()
        sage = Sage()
        for wl in history:
            sage.predict(wl)
        assert sage.predict(probe).to_wire() == cold

        def class_routed(planner):
            def price(src, dst, size, nnz, major_dim, dtype_bits, tensor):
                return planner.estimate(
                    src, dst, size=size, nnz=nnz, major_dim=major_dim,
                    dtype_bits=dtype_bits, tensor=tensor,
                )

            return Sage(provider=price)

        assert class_routed(ClassRoutedPlanner()).predict(probe).to_wire() == cold
        warm = class_routed(ClassRoutedPlanner())
        for wl in history:
            warm.predict(wl)
        assert warm.predict(probe).to_wire() != cold


@st.composite
def _stats(draw, tensor: bool) -> HopStats:
    size = draw(st.integers(1, 1 << 24))
    major_dim = draw(st.integers(1, size))
    # Keep nnz within the dims the storage model rebuilds, as every real
    # operand's is.
    cells = math.prod(_dims_for(size, major_dim, tensor=tensor))
    return HopStats(
        size=size,
        nnz=draw(st.integers(0, cells)),
        major_dim=major_dim,
        dtype_bits=draw(st.sampled_from((8, 16, 32, 64))),
        tensor=tensor,
    )


_THROUGHPUTS = st.one_of(
    st.just(DEFAULT_THROUGHPUT),
    st.builds(
        MintThroughput,
        stream_bits=st.sampled_from((64, 128, 512, 1024)),
        divmod_units=st.integers(1, 16),
        scan_width=st.sampled_from((4, 8, 32, 64)),
    ),
)


class TestExactRoutingOracle:
    """One tree per source answers every target exactly as the
    per-target Dijkstra of ``_class_route_oracle`` does."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.booleans().flatmap(
            lambda tensor: st.tuples(st.just(tensor), _stats(tensor))
        ),
        throughput=_THROUGHPUTS,
    )
    def test_routes_and_costs_match_oracle(self, case, throughput):
        tensor, stats = case
        graph = conversion_graph(tensor=tensor)
        catalog = TENSOR_FORMATS if tensor else MATRIX_FORMATS
        planner = PathPlanner(throughput=throughput)
        kwargs = dict(
            size=stats.size, nnz=stats.nnz, major_dim=stats.major_dim,
            dtype_bits=stats.dtype_bits, tensor=tensor,
        )
        for src in catalog:
            for dst in catalog:
                route = graph.find_path(src, dst, stats, throughput=throughput)
                expected = oracle_find_path(
                    graph, src, dst, stats, throughput=throughput
                )
                assert route == expected, (src, dst)
                cost = oracle_price_path(expected, stats, throughput)
                assert planner.estimate(src, dst, **kwargs) == cost
                assert estimate_conversion_cost(
                    src, dst, throughput=throughput, **kwargs
                ) == cost

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_custom_estimators_match_oracle(self, data):
        """Registered estimators, ties and final hops priced above the
        same intermediate hop: routes still equal the oracle's."""
        graph = ConversionGraph(tensor=False)
        formats = [Format.DENSE, Format.COO, Format.CSR, Format.CSC,
                   Format.RLC]
        weights = st.integers(1, 4)
        for src in formats:
            for dst in formats:
                if src is dst or not data.draw(st.booleans()):
                    continue
                inter, final = data.draw(weights), data.draw(weights)

                def est(stats, *, final_hop, inter=inter, final=final):
                    return final if final_hop else inter

                register_conversion(src, dst, graph=graph, estimator=est)(
                    lambda obj, blocks: (obj, 0)
                )
        for src in formats:
            for dst in formats:
                try:
                    expected = oracle_find_path(graph, src, dst)
                except ConversionError:
                    with pytest.raises(ConversionError):
                        graph.find_path(src, dst)
                    continue
                assert graph.find_path(src, dst) == expected, (src, dst)


class TestCustomThroughputRouting:
    def test_throughput_overrides_edge_estimates(self):
        from repro.mint.cost import MintThroughput

        graph = conversion_graph(tensor=False)
        dp = graph.direct(Format.RLC, Format.COO)  # divmod-bound hop
        stats = HopStats(size=1 << 24, nnz=1 << 20, major_dim=1 << 12)
        starved = MintThroughput(divmod_units=1)
        assert dp.cycles(stats, throughput=starved) > dp.cycles(stats)

    def test_estimate_conversion_cost_custom_throughput(self):
        from repro.mint.cost import MintThroughput

        kwargs = dict(size=1 << 24, nnz=1 << 20, major_dim=1 << 12)
        base = estimate_conversion_cost(Format.RLC, Format.COO, **kwargs)
        starved = estimate_conversion_cost(
            Format.RLC, Format.COO,
            throughput=MintThroughput(divmod_units=1), **kwargs,
        )
        assert starved.cycles > base.cycles


class TestEngineKwargsValidation:
    def test_unknown_kwarg_raises(self, rng):
        from repro.mint.engine import MintEngine

        dense = make_sparse(rng, (8, 8), 0.3)
        src = matrix_class(Format.CSR).from_dense(dense)
        with pytest.raises(TypeError, match="blockshape"):
            MintEngine().convert(src, Format.BSR, blockshape=(4, 4))

    def test_kwarg_unused_by_route_raises(self, rng):
        from repro.mint.engine import MintEngine

        dense = make_sparse(rng, (8, 8), 0.3)
        src = matrix_class(Format.CSR).from_dense(dense)
        with pytest.raises(TypeError, match="block_shape"):
            MintEngine().convert(src, Format.COO, block_shape=(4, 4))


class TestVectorizedCsrToEll:
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_element_exact_vs_dense_oracle(self, rng, density):
        from repro.mint.blockset import BlockSet
        from repro.mint.conversions import csr_to_ell

        dense = make_sparse(rng, (13, 9), density)
        dense[4, :] = 0.0  # force an empty row between populated ones
        src = matrix_class(Format.CSR).from_dense(dense)
        out, cycles = csr_to_ell(src, BlockSet())
        assert out.format is Format.ELL
        assert np.array_equal(out.to_dense(), dense)
        assert cycles >= 0


class TestPublicApi:
    def test_ell_matrix_exported_at_package_root(self):
        import repro

        assert "EllMatrix" in repro.__all__
        assert repro.EllMatrix is matrix_class(Format.ELL)

    def test_graph_api_exported_at_package_root(self):
        import repro

        for name in ("ConversionGraph", "Datapath", "HopStats",
                     "PathPlanner", "register_conversion",
                     "conversion_graph", "find_path", "shared_planner"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_datapath_is_frozen_metadata(self):
        graph = conversion_graph(tensor=False)
        dp = graph.direct(Format.CSR, Format.CSC)
        with pytest.raises(AttributeError):
            dp.source = Format.COO
        assert isinstance(dp, Datapath)


class TestConcurrentFirstUse:
    def test_racing_threads_never_see_an_empty_graph(self):
        """Regression: ``_ensure_datapaths_loaded`` used to flip its flag
        *before* importing the conversion modules, so the process's first
        prediction racing across threads (an in-process serve worker vs
        the request thread) could observe zero registered datapaths and
        fail with "no MINT datapath".  Run the first-use race in a fresh
        interpreter, where the lazy import is still pending."""
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import threading\n"
            "from repro.mint.graph import conversion_graph\n"
            "errors = []\n"
            "def first_use():\n"
            "    try:\n"
            "        assert len(conversion_graph()) > 0, 'empty graph'\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=first_use)"
            " for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            "assert not errors, errors\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
