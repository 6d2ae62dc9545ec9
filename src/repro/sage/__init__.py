"""SAGE: Sparsity formAt Generation Engine (paper Sec. VI).

Given a workload's summary statistics, the accelerator configuration and
MINT's conversion costs, SAGE enumerates MCF/ACF combinations, prices each
with a cost model (DRAM traffic + conversion) plus the performance model
(compute cycles on the WS accelerator), and returns the combination with
the lowest energy-delay product.

Three fidelity tiers answer that search: ``analytical`` (the closed-form
models), ``calibrated`` (analytical candidates corrected by a measured
factor table — :mod:`repro.sage.calibrate`), and ``cycle`` (top-k
re-ranked on the cycle-level simulator).
"""

from repro.sage.calibrate import (
    CalibrationGrid,
    CalibrationTable,
    CellStats,
    ErrorBound,
    GRIDS,
    build_table,
    load_table,
)
from repro.sage.cost_model import CostBreakdown
from repro.sage.pipeline import PipelinePlan, PipelineStage, plan_chain
from repro.sage.predictor import Sage, SageDecision
from repro.sage.spaces import (
    MATRIX_ACF_STATIONARY,
    MATRIX_ACF_STREAMED,
    MATRIX_MCF,
    OUTPUT_MCF,
    TENSOR_ACF,
    TENSOR_MCF,
)

__all__ = [
    "CalibrationGrid",
    "CalibrationTable",
    "CellStats",
    "CostBreakdown",
    "ErrorBound",
    "GRIDS",
    "Sage",
    "SageDecision",
    "build_table",
    "load_table",
    "PipelinePlan",
    "PipelineStage",
    "plan_chain",
    "MATRIX_MCF",
    "MATRIX_ACF_STREAMED",
    "MATRIX_ACF_STATIONARY",
    "TENSOR_MCF",
    "TENSOR_ACF",
    "OUTPUT_MCF",
]
