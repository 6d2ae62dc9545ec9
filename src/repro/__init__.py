"""repro — reproduction of "Extending Sparse Tensor Accelerators to Support
Multiple Compression Formats" (Qin et al., IPDPS 2021).

The package implements the paper's three contributions plus every substrate
they depend on:

* **Accelerator extensions** (Sec. IV): a weight-stationary sparse
  accelerator whose PEs execute multiple Algorithm Compression Formats —
  :class:`~repro.accelerator.simulator.WeightStationarySimulator` (cycle
  level) and :mod:`repro.accelerator.perf_model` (analytical).
* **MINT** (Sec. V): a general-purpose format converter built from shared
  building blocks — :class:`~repro.mint.engine.MintEngine` and the
  :mod:`repro.mint.designs` area/power model.
* **SAGE** (Sec. VI): the MCF/ACF predictor minimizing energy-delay
  product — :class:`~repro.sage.predictor.Sage`.

The preferred call surface is the :class:`~repro.api.session.Session`
facade, which fronts the whole flow behind pluggable local/remote
backends::

    from repro import Session, MatrixWorkload, Kernel

    wl = MatrixWorkload("mine", Kernel.SPMM, m=4096, k=4096, n=2048,
                        nnz_a=800_000, nnz_b=4096 * 2048)
    with Session() as s:                 # or Session("tcp://host:port")
        decision = s.predict(wl)         # batch-first: lists work too
        result = s.run(wl)               # predict -> convert -> simulate
    print(decision.summary())

``Sage`` and ``MintEngine`` remain importable as the stable in-process
primitives underneath (``Session`` composes them); prefer ``Session`` for
new code — the old per-class entry points are kept for compatibility.

See ``examples/`` for runnable end-to-end scenarios and ``benchmarks/`` for
the per-figure reproduction harnesses.
"""

from repro.accelerator import (
    AcceleratorConfig,
    CycleReport,
    EnergyReport,
    RunReport,
    WeightStationarySimulator,
    analytical_gemm_stats,
    analytical_mttkrp,
    analytical_spttm,
)
from repro.api import (
    Backend,
    LocalBackend,
    PredictOptions,
    RemoteBackend,
    RunOptions,
    RunResult,
    Session,
)
from repro.baselines import (
    ALL_POLICIES,
    AcceleratorPolicy,
    CpuModel,
    GpuModel,
    MMAlgorithm,
    evaluate_all,
    evaluate_policy,
)
from repro.formats import (
    MATRIX_FORMATS,
    TENSOR_FORMATS,
    BsrMatrix,
    CooMatrix,
    CooTensor,
    CscMatrix,
    CsfTensor,
    CsrMatrix,
    DenseMatrix,
    DenseTensor,
    DiaMatrix,
    EllMatrix,
    Format,
    HicooTensor,
    MatrixFormat,
    RlcMatrix,
    RlcTensor,
    StorageBreakdown,
    TensorFormat,
    ZvcMatrix,
    ZvcTensor,
    matrix_class,
)
from repro.hardware import AreaModel, DramChannel, EnergyModel
from repro.mint import (
    ConversionCost,
    ConversionGraph,
    ConversionReport,
    Datapath,
    HopStats,
    MintDesign,
    MintEngine,
    MintThroughput,
    PathPlanner,
    conversion_graph,
    estimate_conversion_cost,
    find_path,
    mint_area,
    mint_power,
    register_conversion,
    shared_planner,
)
from repro.sage import (
    CostBreakdown,
    PipelinePlan,
    Sage,
    SageDecision,
    plan_chain,
)
from repro.serve import (
    DecisionCache,
    SageServer,
    ServeClient,
    ServeConfig,
    WorkloadFingerprint,
    fingerprint_of,
)
from repro.workloads import (
    CONV_LAYERS,
    MATRIX_SUITE,
    TENSOR_SUITE,
    Kernel,
    MatrixWorkload,
    PruningStrategy,
    TensorWorkload,
    layer_gemm,
    random_sparse_matrix,
    suite_by_name,
    workload_from_dict,
)

__version__ = "1.1.0"

__all__ = [
    # api (the preferred surface)
    "Session",
    "PredictOptions",
    "RunOptions",
    "RunResult",
    "Backend",
    "LocalBackend",
    "RemoteBackend",
    # formats
    "Format",
    "MATRIX_FORMATS",
    "TENSOR_FORMATS",
    "MatrixFormat",
    "TensorFormat",
    "StorageBreakdown",
    "DenseMatrix",
    "CooMatrix",
    "CsrMatrix",
    "CscMatrix",
    "RlcMatrix",
    "ZvcMatrix",
    "BsrMatrix",
    "DiaMatrix",
    "EllMatrix",
    "DenseTensor",
    "CooTensor",
    "CsfTensor",
    "HicooTensor",
    "RlcTensor",
    "ZvcTensor",
    "matrix_class",
    # accelerator
    "AcceleratorConfig",
    "WeightStationarySimulator",
    "CycleReport",
    "EnergyReport",
    "RunReport",
    "analytical_gemm_stats",
    "analytical_spttm",
    "analytical_mttkrp",
    # mint
    "MintEngine",
    "MintDesign",
    "ConversionReport",
    "ConversionCost",
    "ConversionGraph",
    "Datapath",
    "HopStats",
    "MintThroughput",
    "PathPlanner",
    "conversion_graph",
    "find_path",
    "register_conversion",
    "shared_planner",
    "mint_area",
    "mint_power",
    "estimate_conversion_cost",
    # sage
    "Sage",
    "SageDecision",
    "CostBreakdown",
    "PipelinePlan",
    "plan_chain",
    # serve
    "SageServer",
    "ServeClient",
    "ServeConfig",
    "DecisionCache",
    "WorkloadFingerprint",
    "fingerprint_of",
    # baselines
    "ALL_POLICIES",
    "AcceleratorPolicy",
    "evaluate_all",
    "evaluate_policy",
    "CpuModel",
    "GpuModel",
    "MMAlgorithm",
    # hardware
    "EnergyModel",
    "DramChannel",
    "AreaModel",
    # workloads
    "Kernel",
    "MatrixWorkload",
    "TensorWorkload",
    "workload_from_dict",
    "MATRIX_SUITE",
    "TENSOR_SUITE",
    "suite_by_name",
    "CONV_LAYERS",
    "PruningStrategy",
    "layer_gemm",
    "random_sparse_matrix",
]
