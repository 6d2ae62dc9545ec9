"""Path-planning micro-benchmark: exact-statistics routing vs class routing.

SAGE prices every conversion along a MINT route.  The exact planner
(:class:`~repro.mint.cost.PathPlanner`) solves each operand's routes on
its own statistics: every datapath priced once, one shortest-path tree
per source.  Its baseline is the class-routed planner it replaced, kept
as the test oracle ``tests/mint/_class_route_oracle.py``: one Dijkstra
per (source, target) pair, memoized per power-of-two size class.

Both run cold over fresh-band workloads (perfbench's ``_miss_workload``
generator: every workload is new to the process, as serve misses are):

* ``speedup_vs_class_routed`` — ``Sage().predict_matrix`` over the
  workloads with each planner as the conversion provider (class-routed
  time / exact time);
* ``estimate_layer_speedup_vs_class_routed`` — the conversion-pricing
  layer alone, every (MCF, ACF) query of both operands of every workload;
* ``warm_layer_speedup`` — the exact planner's pricing layer re-run with
  its per-operand table LRU warm, against its cold run.

Rounds alternate which planner runs first; each ratio is the median of
per-round ratios.  Writes ``benchmarks/out/path_planning.json``.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

from repro.mint.cost import PathPlanner, shared_planner
from repro.sage import Sage
from repro.sage.spaces import MATRIX_ACF_STREAMED, MATRIX_MCF

ROOT = Path(__file__).resolve().parents[1]
ORACLE_DIR = ROOT / "tests" / "mint"
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ORACLE_DIR))

from _class_route_oracle import ClassRoutedPlanner  # noqa: E402
from perfbench.inputs import _miss_bands, _miss_workload  # noqa: E402

OUT_PATH = Path(__file__).parent / "out" / "path_planning.json"
ROUNDS = 5
WORKLOADS = 60


def _workloads() -> list:
    combos = _miss_bands(1)
    rng = random.Random(1)
    return [_miss_workload(combos[i], rng, i) for i in range(WORKLOADS)]


def _provider(planner):
    def price(src, dst, size, nnz, major_dim, dtype_bits, tensor):
        return planner.estimate(
            src, dst, size=size, nnz=nnz, major_dim=major_dim,
            dtype_bits=dtype_bits, tensor=tensor,
        )

    return price


def _predict(sage: Sage, workloads: list) -> float:
    t0 = time.perf_counter()
    for wl in workloads:
        sage.predict_matrix(wl)
    return time.perf_counter() - t0


def _estimate_layer(planner, workloads: list) -> float:
    """One sweep of every (MCF, ACF) conversion query of both operands."""
    t0 = time.perf_counter()
    for wl in workloads:
        for size, nnz, major in (
            (wl.m * wl.k, wl.nnz_a, wl.m),
            (wl.k * wl.n, wl.nnz_b, wl.k),
        ):
            for src in MATRIX_MCF:
                for dst in MATRIX_ACF_STREAMED:
                    planner.estimate(
                        src, dst, size=size, nnz=nnz, major_dim=major,
                        dtype_bits=wl.dtype_bits,
                    )
    return time.perf_counter() - t0


def _pair(exact, routed, flip: bool) -> tuple[float, float]:
    """Run both timers, the class-routed one first when *flip*."""
    if flip:
        routed_s = routed()
        return exact(), routed_s
    exact_s = exact()
    return exact_s, routed()


def measure() -> dict:
    workloads = _workloads()
    exact_sage = Sage()
    predict_ratios, layer_ratios, warm_ratios = [], [], []
    exact_s, class_s = [], []
    for rnd in range(ROUNDS):
        class_sage = Sage(provider=_provider(ClassRoutedPlanner()))

        def exact_run() -> float:
            shared_planner().cache_clear()
            return _predict(exact_sage, workloads)

        exact, routed = _pair(
            exact_run, lambda: _predict(class_sage, workloads), rnd % 2 == 1
        )
        exact_s.append(exact)
        class_s.append(routed)
        predict_ratios.append(routed / exact)

        fresh = PathPlanner()
        cold, routed = _pair(
            lambda: _estimate_layer(fresh, workloads),
            lambda: _estimate_layer(ClassRoutedPlanner(), workloads),
            rnd % 2 == 1,
        )
        layer_ratios.append(routed / cold)
        warm_ratios.append(cold / _estimate_layer(fresh, workloads))

    result = {
        "workloads": f"{WORKLOADS} fresh-band matrix workloads (seed 1)",
        "rounds": ROUNDS,
        "exact_predict_s": statistics.median(exact_s),
        "class_routed_predict_s": statistics.median(class_s),
        "speedup_vs_class_routed": statistics.median(predict_ratios),
        "estimate_layer_speedup_vs_class_routed": statistics.median(
            layer_ratios
        ),
        "warm_layer_speedup": statistics.median(warm_ratios),
        "table_cache": shared_planner().cache_info()._asdict(),
    }
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return result


def bench_path_planning(once, benchmark):
    out = once(measure)
    print()
    print(
        f"predict_matrix x{WORKLOADS} fresh: exact "
        f"{out['exact_predict_s'] * 1e3:.1f} ms, class-routed "
        f"{out['class_routed_predict_s'] * 1e3:.1f} ms "
        f"({out['speedup_vs_class_routed']:.2f}x)"
    )
    print(
        f"conversion pricing layer: exact vs class-routed "
        f"{out['estimate_layer_speedup_vs_class_routed']:.1f}x, warm vs "
        f"cold {out['warm_layer_speedup']:.1f}x"
    )
    print(f"wrote {OUT_PATH}")
    # The floors live in check_floors.py; these only catch a broken bench.
    assert out["speedup_vs_class_routed"] > 0.9
    assert out["estimate_layer_speedup_vs_class_routed"] > 1.0
    for key in ("speedup_vs_class_routed",
                "estimate_layer_speedup_vs_class_routed",
                "warm_layer_speedup"):
        benchmark.extra_info[key] = round(out[key], 2)
