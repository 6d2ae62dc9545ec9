"""The grid runner: expand, cache-check, fan out, validate, check, record.

One :func:`run_experiments` call is the whole orchestration pipeline the
seed scripts hand-rolled twenty times:

1. **Expand** every selected experiment's scenario matrix into cells
   (smoke grid under ``smoke=True``).
2. **Plan** against the :class:`~repro.xp.artifacts.ArtifactStore`:
   ``force`` invalidates the experiments' cached cells first; ``resume``
   skips cells whose content hash is already stored.
3. **Execute** the pending cells across the shared
   :func:`repro.util.pool.fork_map` worker pool — *one* flat batch over
   all experiments, so a wide grid saturates the pool even when single
   experiments are narrow.  Every worker measures through a process-wide
   warm :class:`~repro.api.session.Session` (local or ``tcp://``
   backend).  The resume check, execution, validation and persistence
   are :func:`run_cells`, through which ``repro tune`` also prices its
   points, as ``tune_grid`` cells, and ``repro calibrate`` its training
   workloads.
4. **Validate** each result against the experiment's expected-shape
   schema and persist it to the store.
5. **Check** each completed grid (cached cells included) against the
   paper's pinned claims.
6. **Record** the run into ``benchmarks/out/xp_runner.json`` and render
   the markdown report (:mod:`repro.xp.report`).

Example — a smoke run of two experiments, then a resume that re-executes
nothing::

    from repro.xp import RunConfig, run_experiments

    cfg = RunConfig(smoke=True, store_root=tmp_path, out_dir=tmp_path)
    first = run_experiments(["fig07_pe_overhead", "fig09_prefix_sum"], cfg)
    assert first.executed_cells > 0 and first.ok

    again = run_experiments(
        ["fig07_pe_overhead", "fig09_prefix_sum"],
        RunConfig(smoke=True, resume=True, store_root=tmp_path,
                  out_dir=tmp_path),
    )
    assert again.executed_cells == 0          # everything answered from cache
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.obs import collect_spans, span
from repro.util.pool import fork_map
from repro.xp.artifacts import ArtifactStore
from repro.xp.registry import Experiment, get_experiment

__all__ = [
    "CellState",
    "ExperimentRun",
    "RunConfig",
    "RunSummary",
    "default_out_dir",
    "run_cells",
    "run_experiments",
]

#: Run records kept in ``xp_runner.json`` (oldest dropped first).
RUNS_KEPT = 40


def default_out_dir() -> Path:
    """Where reports and the runner journal land: ``benchmarks/out``."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "out"


@dataclass(frozen=True)
class RunConfig:
    """Knobs of one orchestrated run.

    Attributes
    ----------
    backend:
        Session backend every measure function goes through: ``"local"``
        or a ``tcp://host:port`` URL of a running ``repro serve``.
    processes:
        Fork-pool width (``None`` = one per CPU; ``1`` = serial).
    smoke:
        Use each experiment's smoke grid (CI-sized axes).
    resume:
        Skip cells already in the artifact store.
    force:
        Invalidate the selected experiments' cached cells first.
    store_root, out_dir:
        Artifact store location and report/journal directory (defaults:
        ``benchmarks/out/xp/store`` and ``benchmarks/out``).
    report:
        Render markdown reports after the run.
    record:
        Append the run record to ``<out_dir>/xp_runner.json``.
    cached_only:
        Never execute: answer from the artifact store and *skip* cells
        that are not cached (``repro xp report``'s pure re-render mode).
        Skipped cells are excluded from the grid and counted on the
        summary; grid checks only run on complete grids.
    """

    backend: str = "local"
    processes: int | None = None
    smoke: bool = False
    resume: bool = False
    force: bool = False
    store_root: Path | str | None = None
    out_dir: Path | str | None = None
    report: bool = True
    record: bool = True
    cached_only: bool = False


@dataclass
class CellState:
    """One grid cell after the run."""

    params: dict
    key: str
    result: dict | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    cached: bool = False
    #: Per-span breakdown of the cell's measure time
    #: (``{span_name: {"count": n, "seconds": total}}``); persisted with
    #: the artifact so report pages can show where grid time goes.
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the cell measured (or resumed) successfully."""
        return self.error is None and self.result is not None


@dataclass
class ExperimentRun:
    """One experiment's completed grid plus its check verdict."""

    experiment: Experiment
    cells: list[CellState] = field(default_factory=list)
    check_error: str | None = None
    skipped: int = 0  # uncached cells dropped by cached_only mode

    @property
    def executed(self) -> int:
        """Cells measured fresh in this run."""
        return sum(1 for c in self.cells if not c.cached and c.ok)

    @property
    def cached(self) -> int:
        """Cells answered from the artifact store."""
        return sum(1 for c in self.cells if c.cached)

    @property
    def failed(self) -> int:
        """Cells whose measure raised or violated the schema."""
        return sum(1 for c in self.cells if not c.ok)

    @property
    def elapsed_s(self) -> float:
        """Summed per-cell measure time (excludes cached cells)."""
        return sum(c.elapsed_s for c in self.cells if not c.cached)

    @property
    def ok(self) -> bool:
        """True when every cell measured and the check passed."""
        return self.failed == 0 and self.check_error is None

    @property
    def status(self) -> str:
        """One-line verdict for reports: ok / failed / check failed."""
        if self.failed:
            return f"failed ({self.failed}/{len(self.cells)} cells)"
        if self.check_error is not None:
            return f"check failed: {self.check_error}"
        if self.skipped:
            return f"partial ({self.skipped} uncached cells skipped)"
        return "ok"


@dataclass
class RunSummary:
    """Aggregate of one :func:`run_experiments` call."""

    experiments: list[ExperimentRun]
    wall_s: float
    config: RunConfig

    @property
    def total_cells(self) -> int:
        """Grid size across every selected experiment."""
        return sum(len(e.cells) for e in self.experiments)

    @property
    def executed_cells(self) -> int:
        """Cells measured fresh across the run."""
        return sum(e.executed for e in self.experiments)

    @property
    def cached_cells(self) -> int:
        """Cells answered from the artifact store across the run."""
        return sum(e.cached for e in self.experiments)

    @property
    def failed_cells(self) -> int:
        """Failed cells across the run."""
        return sum(e.failed for e in self.experiments)

    @property
    def skipped_cells(self) -> int:
        """Uncached cells dropped by ``cached_only`` mode."""
        return sum(e.skipped for e in self.experiments)

    @property
    def serial_cell_s(self) -> float:
        """Summed per-cell measure time — a serial-execution proxy."""
        return sum(e.elapsed_s for e in self.experiments)

    @property
    def ok(self) -> bool:
        """True when every experiment's grid and check succeeded."""
        return all(e.ok for e in self.experiments)

    def record(self) -> dict:
        """The JSON run record appended to ``xp_runner.json``."""
        return {
            "when": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "experiments": [e.experiment.name for e in self.experiments],
            "backend": self.config.backend,
            "smoke": self.config.smoke,
            "resume": self.config.resume,
            "force": self.config.force,
            "processes": self.config.processes,
            "cells": self.total_cells,
            "executed_cells": self.executed_cells,
            "cached_cells": self.cached_cells,
            "failed_cells": self.failed_cells,
            "skipped_cells": self.skipped_cells,
            "wall_s": round(self.wall_s, 4),
            "serial_cell_s": round(self.serial_cell_s, 4),
            "ok": self.ok,
            "statuses": {
                e.experiment.name: e.status for e in self.experiments
            },
        }


# --------------------------------------------------------------- cell worker
@dataclass(frozen=True)
class _CellJob:
    """Picklable unit of work handed to the fork pool."""

    experiment: Experiment
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


class _LazySession:
    """The worker's warm Session for one backend, built on first use.

    A measure that never reads its session (a calibration cell's, say)
    leaves no Session behind in the worker.
    """

    __slots__ = ("_backend",)

    def __init__(self, backend: str) -> None:
        self._backend = backend

    def __getattr__(self, name: str):
        return getattr(_session_for(self._backend), name)


def _execute_cell(job: _CellJob) -> CellState:
    """Measure one cell through the Session and validate its result."""
    params = dict(job.params)
    t0 = time.perf_counter()
    exp = job.experiment
    try:
        with collect_spans() as spans, span("xp.cell", experiment=exp.name):
            measured = exp.measure(_LazySession(job.backend), params)
        result = exp.validate_result(params, measured)
        return CellState(
            params=params,
            key=job.key,
            result=result,
            elapsed_s=time.perf_counter() - t0,
            spans=spans.summary() or None,
        )
    except Exception as exc:  # noqa: BLE001 - cell failures are data
        return CellState(
            params=params,
            key=job.key,
            error=f"{type(exc).__name__}: {exc}",
            elapsed_s=time.perf_counter() - t0,
        )


def run_cells(
    cells: Sequence[tuple[Experiment, dict]],
    config: RunConfig,
) -> list[CellState]:
    """Answer ``(experiment, params)`` cells; states come back in input order.

    The experiments need not be registered.  Under ``resume`` (or
    ``cached_only``) a cell already in the artifact store is answered from
    its record.  The rest run as one :func:`~repro.util.pool.fork_map`
    batch, each persisted as it arrives, so an interrupted batch keeps
    every completed cell for the next resume.  ``cached_only`` runs
    nothing: an uncached cell comes back as a bare placeholder (neither
    ``ok`` nor ``cached``).
    """
    store = ArtifactStore(config.store_root)
    resume = config.resume or config.cached_only
    states: list[CellState] = []
    pending: list[_CellJob] = []
    slots: list[int] = []
    for exp, params in cells:
        key = store.cell_key(exp, params, backend=config.backend)
        record = store.load(exp.name, key) if resume else None
        if record is not None and "result" in record:
            states.append(
                CellState(
                    params=params,
                    key=key,
                    result=record["result"],
                    elapsed_s=float(record.get("elapsed_s", 0.0)),
                    cached=True,
                    spans=record.get("spans"),
                )
            )
            continue
        states.append(CellState(params=params, key=key))
        if not config.cached_only:
            slots.append(len(states) - 1)
            pending.append(
                _CellJob(
                    experiment=exp,
                    params=tuple(sorted(params.items())),
                    key=key,
                    backend=config.backend,
                )
            )

    owner = {job.key: job.experiment.name for job in pending}

    def persist(cell: CellState) -> None:
        if cell.ok:
            store.store(
                owner[cell.key],
                cell.key,
                {
                    "experiment": owner[cell.key],
                    "params": cell.params,
                    "result": cell.result,
                    "elapsed_s": round(cell.elapsed_s, 6),
                    "spans": cell.spans,
                    "digest": store.config_digest(),
                },
            )

    outcomes = fork_map(
        _execute_cell,
        pending,
        processes=config.processes,
        consume=persist,
    )
    for slot, outcome in zip(slots, outcomes):
        states[slot] = outcome
    return states


# ------------------------------------------------------------------ the run
def run_experiments(
    names: list[str] | None,
    config: RunConfig | None = None,
) -> RunSummary:
    """Run a set of registered experiments (``None`` = all of them).

    See the module docstring for the pipeline; returns the
    :class:`RunSummary` (check ``summary.ok``).
    """
    from repro.xp.registry import experiment_names

    config = config or RunConfig()
    t0 = time.perf_counter()
    if names is None:
        names = experiment_names()
    # Duplicate selections would double-execute their grids and inflate
    # every count; first mention wins.
    names = list(dict.fromkeys(names))
    experiments = [get_experiment(n) for n in names]

    if config.force:
        store = ArtifactStore(config.store_root)
        for exp in experiments:
            store.invalidate(exp.name)

    grid = [
        (exp, params)
        for exp in experiments
        for params in exp.scenarios(smoke=config.smoke)
    ]
    runs = {exp.name: ExperimentRun(experiment=exp) for exp in experiments}
    for (exp, _), state in zip(grid, run_cells(grid, config)):
        if config.cached_only and not state.cached:
            runs[exp.name].skipped += 1
        else:
            runs[exp.name].cells.append(state)

    for run in runs.values():
        if run.failed or run.skipped:
            continue  # incomplete grids cannot be checked
        if run.experiment.check is None:
            continue
        cells = [(c.params, c.result) for c in run.cells]
        try:
            run.experiment.check(cells, smoke=config.smoke)
        except Exception as exc:  # noqa: BLE001 - verdicts are data
            run.check_error = f"{type(exc).__name__}: {exc}"

    summary = RunSummary(
        experiments=list(runs.values()),
        wall_s=time.perf_counter() - t0,
        config=config,
    )
    if config.record:
        record_run(summary)
    if config.report:
        from repro.xp.report import write_reports

        write_reports(summary, out_dir=_out_dir(config))
    return summary


def _out_dir(config: RunConfig) -> Path:
    return (
        Path(config.out_dir) if config.out_dir is not None else default_out_dir()
    )


def runner_journal_path(config: RunConfig) -> Path:
    """Where this config's run records accumulate."""
    return _out_dir(config) / "xp_runner.json"


def record_run(summary: RunSummary) -> Path:
    """Append the run record to ``xp_runner.json`` (keeping the last 40).

    The document shape is ``{"runs": [...oldest→newest...],
    "comparison": {...}}``; the ``comparison`` block (one serial process
    per experiment vs the orchestrator, written by
    ``benchmarks/bench_xp_runner.py``) is preserved across appends.
    """
    path = runner_journal_path(summary.config)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        doc = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        doc = {}
    runs = list(doc.get("runs", []))
    runs.append(summary.record())
    doc["runs"] = runs[-RUNS_KEPT:]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
