"""Tune strategies: grid, seeded-random, and successive halving.

A run sweeps a :class:`~repro.tune.space.ParamSpace` (anchored at
``paper_default``, optionally widened with the ablation seed points)
as cells of the registered ``tune_grid`` experiment, whose measure is the
:mod:`~repro.tune.objective` evaluation.  Each pricing pass is one
:func:`~repro.xp.runner.run_cells` call: the xp runner's executor fans
the cells across the fork pool and keys them into the artifact store,
so interrupted or repeated sweeps resume instead of recomputing, and
tune and ``repro xp run tune_grid`` share every cell.

Strategies
----------
``grid``
    Every valid point (budget-truncated), at the configured fidelity.
``random``
    The anchor plus a seeded sample of the rest — a cheap smoke of a
    large space.
``halving``
    Successive halving across the fidelity tiers: an analytical rung
    prices everything, a ``tune.prune`` pass keeps the top ``1/eta`` by
    EDP (the anchor always survives, so the paper system is confirmed at
    full fidelity), and survivors are re-priced at cycle fidelity.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import ConfigError
from repro.obs import registry, span
from repro.tune.objective import OBJECTIVES, suite_names
from repro.tune.pareto import dominated_counts, hypervolume_fraction, pareto_front
from repro.tune.space import ParamSpace, TunePoint, ablation_seed_points, space
from repro.xp.artifacts import ArtifactStore
from repro.xp.registry import get_experiment
from repro.xp.runner import RunConfig, run_cells

__all__ = ["STRATEGIES", "TuneConfig", "TuneEntry", "TuneResult", "run_tune"]

STRATEGIES = ("grid", "random", "halving")

#: Points handed to a budget-less ``random`` strategy.
DEFAULT_RANDOM_BUDGET = 24

_POINTS = registry().counter(
    "repro_tune_points_total",
    "Tune point evaluations by outcome (swept, pruned, cache_hit)",
)


@dataclass(frozen=True)
class TuneConfig:
    """Everything one ``run_tune`` call needs besides the space."""

    suite: str = "smoke"
    strategy: str = "grid"
    budget: int | None = None
    seed: int = 0
    #: Fidelity of grid/random sweeps and the halving screening rung.
    fidelity: str = "analytical"
    #: Fidelity halving survivors are confirmed at.
    confirm_fidelity: str = "cycle"
    #: Halving keep-fraction denominator (survivors = ceil(n / eta)).
    eta: int = 4
    backend: str = "local"
    processes: int | None = None
    resume: bool = False
    force: bool = False
    #: Fold the registered ablation seed points into the swept set.
    include_seeds: bool = True
    store_root: Path | str | None = None
    out_dir: Path | str | None = None
    report: bool = True

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown tune strategy {self.strategy!r} (choose from "
                f"{', '.join(STRATEGIES)})"
            )
        if self.suite not in suite_names():
            raise ConfigError(
                f"unknown tune suite {self.suite!r} (choose from "
                f"{', '.join(suite_names())})"
            )
        if self.budget is not None and self.budget < 1:
            raise ConfigError("budget must be positive")
        if self.eta < 2:
            raise ConfigError("eta must be >= 2 (keep fewer than you screen)")


@dataclass
class TuneEntry:
    """One swept point and its (latest-fidelity) evaluation."""

    point: TunePoint
    result: dict | None = None
    error: str | None = None
    fidelity: str = "analytical"
    cached: bool = False
    pruned: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    @property
    def is_anchor(self) -> bool:
        return self.point == TunePoint()


@dataclass
class TuneResult:
    """Outcome of one tune run (see :meth:`record` for the JSON form)."""

    space_name: str
    config: TuneConfig
    entries: list[TuneEntry]
    front: list[int]
    executed: int = 0
    cached: int = 0
    pruned: int = 0
    hypervolume: float = 0.0
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for e in self.entries if e.error is not None)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and bool(self.entries)

    @property
    def anchor(self) -> TuneEntry | None:
        """The ``paper_default`` entry (always swept, never pruned away)."""
        for entry in self.entries:
            if entry.is_anchor:
                return entry
        return None

    def front_entries(self) -> list[TuneEntry]:
        return [self.entries[i] for i in self.front]

    def record(self) -> dict:
        """JSON-safe summary (the CLI's ``--json`` body)."""
        evaluated = [e for e in self.entries if e.ok]
        counts = dominated_counts([e.result for e in evaluated])
        dominated = {id(e): c for e, c in zip(evaluated, counts)}
        anchor = self.anchor

        def row(entry: TuneEntry) -> dict:
            out = {
                "label": entry.point.label(),
                "params": entry.point.params(),
                "fidelity": entry.fidelity,
                "cached": entry.cached,
                "pruned": entry.pruned,
                "dominates": dominated.get(id(entry), 0),
            }
            if entry.result is not None:
                out.update(
                    {k: entry.result[k] for k in (*OBJECTIVES, "edp")}
                )
            if entry.error is not None:
                out["error"] = entry.error
            return out

        return {
            "space": self.space_name,
            "suite": self.config.suite,
            "strategy": self.config.strategy,
            "backend": self.config.backend,
            "points": len(self.entries),
            "executed": self.executed,
            "cached": self.cached,
            "pruned": self.pruned,
            "failed": self.failed,
            "front_size": len(self.front),
            "hypervolume": round(self.hypervolume, 4),
            "wall_s": round(self.wall_s, 4),
            "ok": self.ok,
            "anchor": None if anchor is None else row(anchor),
            "front": [row(e) for e in self.front_entries()],
        }


# ----------------------------------------------------------------- the run
def _selected_points(
    space_points: Sequence[TunePoint], config: TuneConfig
) -> list[TunePoint]:
    """The swept set: anchor first, deduplicated, strategy-sampled."""
    anchor = TunePoint()
    ordered: list[TunePoint] = [anchor]
    seen = {anchor}
    pool = list(space_points)
    if config.include_seeds:
        pool.extend(ablation_seed_points())
    for point in pool:
        if point not in seen:
            seen.add(point)
            ordered.append(point)
    if config.strategy == "random":
        budget = config.budget or DEFAULT_RANDOM_BUDGET
        rest = ordered[1:]
        take = min(max(budget - 1, 0), len(rest))
        return [anchor] + random.Random(config.seed).sample(rest, take)
    if config.budget is not None:
        return ordered[: max(config.budget, 1)]
    return ordered


def _evaluate(
    entries: list[TuneEntry], fidelity: str, config: TuneConfig
) -> tuple[int, int]:
    """Price *entries* at *fidelity* in place; returns (executed, cached)."""
    grid = get_experiment("tune_grid")
    cells = [
        (grid, {
            "point": e.point.params(),
            "suite": config.suite,
            "fidelity": fidelity,
        })
        for e in entries
    ]
    states = run_cells(cells, RunConfig(
        backend=config.backend,
        processes=config.processes,
        resume=config.resume,
        store_root=config.store_root,
    ))
    for entry, state in zip(entries, states):
        entry.fidelity = fidelity
        entry.result, entry.error = state.result, state.error
        entry.cached = state.cached
    cached = sum(1 for e in entries if e.cached)
    executed = len(entries) - cached
    if cached:
        _POINTS.inc(cached, outcome="cache_hit")
    if executed:
        _POINTS.inc(executed, outcome="swept")
    return executed, cached


def run_tune(
    space_or_name: ParamSpace | str = "smoke",
    config: TuneConfig | None = None,
) -> TuneResult:
    """Sweep a space and return the Pareto result (see module docstring)."""
    config = config or TuneConfig()
    tune_space = (
        space(space_or_name) if isinstance(space_or_name, str) else space_or_name
    )
    t0 = time.perf_counter()
    if config.force:
        ArtifactStore(config.store_root).invalidate("tune_grid")

    entries = [
        TuneEntry(point=p)
        for p in _selected_points(tune_space.points(), config)
    ]
    executed = cached = pruned = 0

    if config.strategy == "halving":
        n_exec, n_hit = _evaluate(entries, config.fidelity, config)
        executed += n_exec
        cached += n_hit
        screened = [e for e in entries if e.ok]
        keep = max(1, -(-len(screened) // config.eta))  # ceil division
        with span(
            "tune.prune",
            strategy=config.strategy,
            screened=len(screened),
            keep=keep,
        ):
            ranked = sorted(screened, key=lambda e: e.result["edp"])
            survivors = ranked[:keep]
            anchor = next((e for e in entries if e.is_anchor), None)
            if anchor is not None and anchor.ok and anchor not in survivors:
                survivors.append(anchor)
            for entry in screened:
                entry.pruned = entry not in survivors
        pruned = sum(1 for e in entries if e.pruned)
        if pruned:
            _POINTS.inc(pruned, outcome="pruned")
        n_exec, n_hit = _evaluate(survivors, config.confirm_fidelity, config)
        executed += n_exec
        cached += n_hit
    else:
        executed, cached = _evaluate(entries, config.fidelity, config)

    # The front is drawn over confirmed (non-pruned) evaluations; pruned
    # points stay in ``entries`` for the report's dominated-count stats.
    confirmed = [
        i for i, e in enumerate(entries) if e.ok and not e.pruned
    ]
    front_local = pareto_front([entries[i].result for i in confirmed])
    front = [confirmed[i] for i in front_local]
    hypervolume = hypervolume_fraction(
        [entries[i].result for i in confirmed], seed=config.seed
    )

    result = TuneResult(
        space_name=tune_space.name,
        config=config,
        entries=entries,
        front=front,
        executed=executed,
        cached=cached,
        pruned=pruned,
        hypervolume=hypervolume,
        wall_s=time.perf_counter() - t0,
    )
    if config.report and config.out_dir is not None:
        from repro.tune.report import write_tune_report

        write_tune_report(result, config.out_dir)
    return result
