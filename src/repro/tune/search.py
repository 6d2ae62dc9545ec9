"""Tune strategies: grid, seeded-random, and successive halving.

A run sweeps a :class:`~repro.tune.space.ParamSpace` (anchored at
``paper_default``, optionally widened with the ablation seed points)
through the :mod:`~repro.tune.objective` evaluation, fanned across the
:func:`~repro.util.pool.fork_map` pool, and keyed into the
:class:`~repro.xp.artifacts.ArtifactStore` so interrupted or repeated
sweeps resume instead of recomputing.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.errors import ConfigError
from repro.obs import collect_spans, registry, span
from repro.tune.objective import (
    OBJECTIVES,
    EvalIdentity,
    evaluate_with_session,
    suite_names,
)
from repro.tune.pareto import dominated_counts, hypervolume_fraction, pareto_front
from repro.tune.space import ParamSpace, TunePoint, ablation_seed_points, space
from repro.util.pool import fork_map
from repro.xp.artifacts import ArtifactStore

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
    params: dict = field(default_factory=dict)
    key: str = ""
    result: dict | None = None
    error: str | None = None
    fidelity: str = "analytical"
    cached: bool = False
    pruned: bool = False
    elapsed_s: float = 0.0
    spans: dict | None = None

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


# --------------------------------------------------------------- the worker
@dataclass(frozen=True)
class _EvalJob:
    """Picklable unit of work handed to the fork pool."""

    params: tuple  # sorted (axis, value) pairs
    key: str
    backend: str


#: Per-worker-process warm sessions, keyed by backend spec.
_SESSIONS: dict = {}


def _session_for(backend: str):
    from repro.api.session import Session

    session = _SESSIONS.get(backend)
    if session is None:
        session = _SESSIONS[backend] = Session(backend)
    return session


def _evaluate_cell(job: _EvalJob) -> TuneEntry:
    """Pool task: price one point through a warm session."""
    params = dict(job.params)
    point = TunePoint.from_params(params["point"])
    t0 = time.perf_counter()
    try:
        session = _session_for(job.backend)
        with collect_spans() as spans:
            result = evaluate_with_session(session, params)
        return TuneEntry(
            point=point,
            params=params,
            key=job.key,
            result=result,
            fidelity=str(params["fidelity"]),
            elapsed_s=time.perf_counter() - t0,
            spans=spans.summary() or None,
        )
    except Exception as exc:  # noqa: BLE001 - point failures are data
        return TuneEntry(
            point=point,
            params=params,
            key=job.key,
            error=f"{type(exc).__name__}: {exc}",
            fidelity=str(params["fidelity"]),
            elapsed_s=time.perf_counter() - t0,
        )


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
    entries: list[TuneEntry],
    fidelity: str,
    config: TuneConfig,
    store: ArtifactStore,
    identity: EvalIdentity,
) -> tuple[int, int]:
    """Price *entries* at *fidelity* in place; returns (executed, cached)."""
    jobs: list[_EvalJob] = []
    pending: dict[str, TuneEntry] = {}
    cached = 0
    for entry in entries:
        params = {
            "point": entry.point.params(),
            "suite": config.suite,
            "fidelity": fidelity,
        }
        key = store.cell_key(identity, params, backend=config.backend)
        entry.params, entry.key, entry.fidelity = params, key, fidelity
        record = store.load(identity.name, key) if config.resume else None
        if record is not None and "result" in record:
            entry.result = record["result"]
            entry.cached = True
            entry.elapsed_s = float(record.get("elapsed_s", 0.0))
            entry.spans = record.get("spans")
            cached += 1
            continue
        entry.cached = False
        pending[key] = entry
        jobs.append(
            _EvalJob(
                params=tuple(sorted(params.items())),
                key=key,
                backend=config.backend,
            )
        )

    def persist(outcome: TuneEntry) -> None:
        # Runs in this process as results arrive: an interrupted sweep
        # keeps every completed cell for the next --resume.  The record
        # shape matches the xp runner's, so tune cells and tune_grid
        # experiment cells are interchangeable cache content.
        if outcome.ok:
            store.store(
                identity.name,
                outcome.key,
                {
                    "experiment": identity.name,
                    "params": outcome.params,
                    "result": outcome.result,
                    "elapsed_s": round(outcome.elapsed_s, 6),
                    "spans": outcome.spans,
                    "digest": store.config_digest(),
                },
            )

    outcomes = fork_map(
        _evaluate_cell,
        jobs,
        processes=config.processes,
        consume=persist,
    )
    for outcome in outcomes:
        entry = pending[outcome.key]
        entry.result = outcome.result
        entry.error = outcome.error
        entry.elapsed_s = outcome.elapsed_s
        entry.spans = outcome.spans
    if cached:
        _POINTS.inc(cached, outcome="cache_hit")
    if jobs:
        _POINTS.inc(len(jobs), outcome="swept")
    return len(jobs), cached


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
    store = ArtifactStore(config.store_root)
    identity = EvalIdentity()
    if config.force:
        store.invalidate(identity.name)

    entries = [
        TuneEntry(point=p)
        for p in _selected_points(tune_space.points(), config)
    ]
    executed = cached = pruned = 0

    if config.strategy == "halving":
        n_exec, n_hit = _evaluate(
            entries, config.fidelity, config, store, identity
        )
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
        n_exec, n_hit = _evaluate(
            survivors, config.confirm_fidelity, config, store, identity
        )
        executed += n_exec
        cached += n_hit
    else:
        executed, cached = _evaluate(
            entries, config.fidelity, config, store, identity
        )

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
