"""``repro.tune`` — invert SAGE into an accelerator-config autotuner.

SAGE answers "best format for this hardware"; this package answers the
dual question — "best hardware for this workload suite" — by sweeping
:class:`~repro.accelerator.config.AcceleratorConfig` / DRAM / tech-node
candidates through the same predictor and extracting the non-dominated
front over (cycles, energy, area).

Entry points: :func:`~repro.tune.search.run_tune` (library),
``repro tune`` (CLI).  See ``docs/tuning.md``.
"""

from repro.tune.objective import (
    OBJECTIVES,
    evaluate_with_session,
    point_area_mm2,
    tune_suite,
)
from repro.tune.pareto import (
    dominated_counts,
    dominates,
    hypervolume_fraction,
    pareto_front,
)
from repro.tune.report import render_tune_md, write_tune_report
from repro.tune.search import (
    STRATEGIES,
    TuneConfig,
    TuneEntry,
    TuneResult,
    run_tune,
)
from repro.tune.space import (
    ParamSpace,
    TunePoint,
    ablation_seed_points,
    register_seed_points,
    seed_points,
    space,
    space_names,
)

__all__ = [
    "OBJECTIVES",
    "ParamSpace",
    "STRATEGIES",
    "TuneConfig",
    "TuneEntry",
    "TunePoint",
    "TuneResult",
    "ablation_seed_points",
    "dominated_counts",
    "dominates",
    "evaluate_with_session",
    "hypervolume_fraction",
    "pareto_front",
    "point_area_mm2",
    "register_seed_points",
    "render_tune_md",
    "run_tune",
    "seed_points",
    "space",
    "space_names",
    "tune_suite",
    "write_tune_report",
]
