"""Runner semantics: execution, cache hits, invalidation, partial resume.

The toy experiments here count real executions through marker files, so
cache hits are asserted as "the measure function did not run again", not
just as runner bookkeeping.
"""

from __future__ import annotations

import itertools
import json
import uuid
from pathlib import Path

from repro.xp import runner
from repro.xp.artifacts import ArtifactStore
from repro.xp.registry import Experiment, register
from repro.xp.runner import RunConfig, run_experiments

_SEQ = itertools.count()


def _marking_measure(session, params):
    marks = Path(params["dir"])
    marks.mkdir(parents=True, exist_ok=True)
    (marks / f"x{params['x']}-{uuid.uuid4().hex}").touch()
    return {"x2": params["x"] * 2}


def _failing_measure(session, params):
    if params["x"] == 2:
        raise ValueError("cell exploded")
    return _marking_measure(session, params)


def _wrong_shape_measure(session, params):
    return {"not_in_schema": 1}


def _config_reading_measure(session, params):
    return {"x2": params["x"] * 2, "pes": session.config.num_pes}


def _toy(
    tmp_path,
    xs=(1, 2, 3),
    smoke=None,
    measure=_marking_measure,
    check=None,
):
    exp = Experiment(
        name=f"toy_runner_{next(_SEQ)}_{uuid.uuid4().hex[:6]}",
        kind="ablation",
        anchor="-",
        title="runner toy",
        matrix={"x": xs, "dir": (str(tmp_path / "marks"),)},
        smoke=smoke,
        measure=measure,
        schema=("x2",),
        check=check,
    )
    register(exp)
    return exp


def _marks(tmp_path) -> int:
    marks = tmp_path / "marks"
    return len(list(marks.iterdir())) if marks.exists() else 0


def _cfg(tmp_path, **kw) -> RunConfig:
    defaults = dict(
        processes=1,
        store_root=tmp_path / "store",
        out_dir=tmp_path / "out",
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestExecution:
    def test_runs_grid_and_stores_artifacts(self, tmp_path):
        exp = _toy(tmp_path)
        summary = run_experiments([exp.name], _cfg(tmp_path))
        assert summary.ok
        assert summary.executed_cells == 3 and summary.cached_cells == 0
        assert _marks(tmp_path) == 3
        assert ArtifactStore(tmp_path / "store").count(exp.name) == 3
        results = [c.result for c in summary.experiments[0].cells]
        assert results == [{"x2": 2}, {"x2": 4}, {"x2": 6}]

    def test_run_record_is_journaled(self, tmp_path):
        exp = _toy(tmp_path)
        run_experiments([exp.name], _cfg(tmp_path))
        run_experiments([exp.name], _cfg(tmp_path, resume=True))
        doc = json.loads((tmp_path / "out" / "xp_runner.json").read_text())
        assert [r["executed_cells"] for r in doc["runs"]] == [3, 0]
        assert doc["runs"][-1]["resume"] is True

    def test_reports_are_rendered(self, tmp_path):
        exp = _toy(tmp_path)
        run_experiments([exp.name], _cfg(tmp_path))
        rollup = (tmp_path / "out" / "report.md").read_text()
        page = (tmp_path / "out" / "xp" / f"{exp.name}.md").read_text()
        assert exp.name in rollup
        assert "x2" in page and "measured" in page


class TestWarmSession:
    """A worker builds its Session on first use, and only then."""

    def test_measure_ignoring_its_session_builds_none(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner, "_SESSIONS", {})
        exp = _toy(tmp_path)
        assert run_experiments([exp.name], _cfg(tmp_path)).ok
        assert runner._SESSIONS == {}

    def test_measure_reading_its_session_builds_one(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner, "_SESSIONS", {})
        exp = _toy(tmp_path, measure=_config_reading_measure)
        summary = run_experiments([exp.name], _cfg(tmp_path))
        assert summary.ok
        assert list(runner._SESSIONS) == ["local"]
        pes = runner._SESSIONS["local"].config.num_pes
        assert [c.result["pes"] for c in summary.experiments[0].cells] == [
            pes
        ] * 3


class TestResume:
    def test_identical_scenario_is_a_cache_hit(self, tmp_path):
        exp = _toy(tmp_path)
        run_experiments([exp.name], _cfg(tmp_path))
        again = run_experiments([exp.name], _cfg(tmp_path, resume=True))
        assert again.ok
        assert again.executed_cells == 0 and again.cached_cells == 3
        assert _marks(tmp_path) == 3  # the measure fn never ran again
        # Cached cells carry the stored results, so checks still see them.
        assert [c.result for c in again.experiments[0].cells] == [
            {"x2": 2}, {"x2": 4}, {"x2": 6},
        ]

    def test_config_digest_change_invalidates_resume(
        self, tmp_path, monkeypatch
    ):
        exp = _toy(tmp_path)
        run_experiments([exp.name], _cfg(tmp_path))
        monkeypatch.setattr(
            ArtifactStore, "config_digest", lambda self: "new-hardware"
        )
        again = run_experiments([exp.name], _cfg(tmp_path, resume=True))
        assert again.executed_cells == 3 and again.cached_cells == 0
        assert _marks(tmp_path) == 6

    def test_partial_grid_resume_executes_only_the_gap(self, tmp_path):
        exp = _toy(tmp_path, smoke={"x": (1,)})
        first = run_experiments([exp.name], _cfg(tmp_path, smoke=True))
        assert first.executed_cells == 1
        full = run_experiments([exp.name], _cfg(tmp_path, resume=True))
        assert full.total_cells == 3
        assert full.cached_cells == 1  # the smoke cell is part of the grid
        assert full.executed_cells == 2
        assert _marks(tmp_path) == 3

    def test_deleted_artifact_is_remeasured(self, tmp_path):
        exp = _toy(tmp_path)
        run_experiments([exp.name], _cfg(tmp_path))
        store = ArtifactStore(tmp_path / "store")
        victim = next(iter((tmp_path / "store" / exp.name).glob("*.json")))
        victim.unlink()
        again = run_experiments([exp.name], _cfg(tmp_path, resume=True))
        assert again.executed_cells == 1 and again.cached_cells == 2
        assert store.count(exp.name) == 3

    def test_force_drops_the_cache_first(self, tmp_path):
        exp = _toy(tmp_path)
        run_experiments([exp.name], _cfg(tmp_path))
        again = run_experiments(
            [exp.name], _cfg(tmp_path, resume=True, force=True)
        )
        assert again.executed_cells == 3 and again.cached_cells == 0
        assert _marks(tmp_path) == 6


class TestIncrementalPersistence:
    def test_interrupted_batch_keeps_completed_cells(self, tmp_path):
        def measure(session, params):
            if params["x"] == 3:
                raise KeyboardInterrupt  # simulate Ctrl-C mid-batch
            return _marking_measure(session, params)

        exp = _toy(tmp_path, measure=measure)
        import pytest

        with pytest.raises(KeyboardInterrupt):
            run_experiments([exp.name], _cfg(tmp_path))
        # The two cells that finished before the interrupt survived...
        assert ArtifactStore(tmp_path / "store").count(exp.name) == 2
        exp.measure = _marking_measure
        resumed = run_experiments([exp.name], _cfg(tmp_path, resume=True))
        # ...so resume measures only the interrupted cell.
        assert resumed.executed_cells == 1 and resumed.cached_cells == 2

    def test_duplicate_names_run_once(self, tmp_path):
        exp = _toy(tmp_path)
        summary = run_experiments([exp.name, exp.name], _cfg(tmp_path))
        assert len(summary.experiments) == 1
        assert summary.total_cells == 3
        assert _marks(tmp_path) == 3

    def test_remote_backend_does_not_share_local_cache(self, tmp_path):
        from repro.xp.registry import Experiment as _E  # noqa: F401

        exp = _toy(tmp_path)
        store = ArtifactStore(tmp_path / "store")
        params = exp.scenarios()[0]
        local = store.cell_key(exp, params)
        assert store.cell_key(exp, params, backend="local") == local
        remote = store.cell_key(exp, params, backend="tcp://h:7342")
        assert remote != local


class TestCachedOnly:
    def test_report_mode_never_executes(self, tmp_path):
        exp = _toy(tmp_path, smoke={"x": (1,)})
        run_experiments([exp.name], _cfg(tmp_path, smoke=True))
        assert _marks(tmp_path) == 1
        summary = run_experiments(
            [exp.name], _cfg(tmp_path, cached_only=True, record=False)
        )
        assert _marks(tmp_path) == 1  # nothing measured
        run = summary.experiments[0]
        assert run.cached == 1 and run.skipped == 2
        assert "partial" in run.status
        assert summary.skipped_cells == 2

    def test_complete_store_reports_ok(self, tmp_path):
        exp = _toy(tmp_path)
        run_experiments([exp.name], _cfg(tmp_path))
        summary = run_experiments(
            [exp.name], _cfg(tmp_path, cached_only=True, record=False)
        )
        assert summary.ok and summary.cached_cells == 3
        assert summary.skipped_cells == 0


class TestFailures:
    def test_failed_cell_is_data_not_crash(self, tmp_path):
        exp = _toy(tmp_path, measure=_failing_measure)
        summary = run_experiments([exp.name], _cfg(tmp_path))
        assert not summary.ok
        run = summary.experiments[0]
        assert run.failed == 1 and run.executed == 2
        assert "cell exploded" in run.status or "failed" in run.status
        bad = next(c for c in run.cells if not c.ok)
        assert "ValueError" in bad.error
        # Failed cells are never persisted: a later resume retries them.
        assert ArtifactStore(tmp_path / "store").count(exp.name) == 2

    def test_incomplete_grid_skips_the_check(self, tmp_path):
        def check(cells, *, smoke):
            raise AssertionError("must not run on incomplete grids")

        exp = _toy(tmp_path, measure=_failing_measure, check=check)
        summary = run_experiments([exp.name], _cfg(tmp_path))
        assert summary.experiments[0].check_error is None
        assert not summary.ok  # the failed cell still fails the run

    def test_check_failure_is_reported(self, tmp_path):
        def check(cells, *, smoke):
            assert len(cells) == 99, "paper pin violated"

        exp = _toy(tmp_path, check=check)
        summary = run_experiments([exp.name], _cfg(tmp_path))
        assert not summary.ok
        assert "paper pin violated" in summary.experiments[0].status

    def test_schema_violation_fails_the_cell(self, tmp_path):
        exp = _toy(tmp_path, measure=_wrong_shape_measure)
        summary = run_experiments([exp.name], _cfg(tmp_path))
        assert summary.failed_cells == 3
        assert "missing schema key" in summary.experiments[0].cells[0].error
