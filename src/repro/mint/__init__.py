"""MINT: Microarchitecture for Interchangeable compressioN formats for Tensors.

The paper's contribution 2 (Sec. V): a general-purpose hardware format
converter built from reusable building blocks (prefix sum, parallel
divide/mod, sorting network, cluster counter, comparators, memory
controller) instead of one dedicated converter per format pair.

* :mod:`repro.mint.blocks` — the building blocks, functional + cost-counted;
* :mod:`repro.mint.conversions` — the Fig. 8 conversions (CSR->CSC,
  RLC->COO, CSR->BSR, Dense->CSF) and the generalizations, each verified
  element-exact against the software oracle;
* :mod:`repro.mint.graph` — the pluggable conversion-graph registry:
  datapaths self-register via :func:`~repro.mint.graph.register_conversion`
  and routing is cost-weighted Dijkstra over the registered edges;
* :mod:`repro.mint.engine` — graph-routed dispatch + cost reports;
* :mod:`repro.mint.designs` — MINT_b / MINT_m / MINT_mr area & power;
* :mod:`repro.mint.cost` — closed-form conversion cost estimates for SAGE,
  priced per operand by :class:`~repro.mint.cost.PathPlanner`.
"""

from repro.mint.blocks import (
    ClusterCounter,
    MemoryController,
    ParallelDivMod,
    PrefixSumUnit,
    SortingNetwork,
)
from repro.mint.cost import (
    ConversionCost,
    MintThroughput,
    PathPlanner,
    estimate_conversion_cost,
    shared_planner,
)
from repro.mint.designs import MintDesign, mint_area, mint_power
from repro.mint.engine import ConversionReport, MintEngine, find_path
from repro.mint.graph import (
    ConversionGraph,
    Datapath,
    HopStats,
    conversion_graph,
    register_conversion,
)

__all__ = [
    "ClusterCounter",
    "ConversionCost",
    "ConversionGraph",
    "ConversionReport",
    "Datapath",
    "HopStats",
    "MemoryController",
    "MintDesign",
    "MintEngine",
    "MintThroughput",
    "ParallelDivMod",
    "PathPlanner",
    "PrefixSumUnit",
    "SortingNetwork",
    "conversion_graph",
    "estimate_conversion_cost",
    "find_path",
    "mint_area",
    "mint_power",
    "register_conversion",
    "shared_planner",
]
