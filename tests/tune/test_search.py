"""run_tune: strategies, artifact-cache resume, obs, xp parity, executor."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.obs import collect_spans, registry
from repro.tune import (
    ParamSpace,
    TuneConfig,
    TunePoint,
    run_tune,
    space,
)
from repro.tune.objective import evaluate_with_session

TINY_SPACE = ParamSpace(
    {"num_pes": (1024, 2048), "pe_buffer_bytes": (256, 512)}, name="tiny4"
)


def tiny_config(store, **overrides) -> TuneConfig:
    base = dict(
        suite="tiny",
        store_root=store,
        include_seeds=False,
        report=False,
        processes=2,
    )
    base.update(overrides)
    return TuneConfig(**base)


class TestConfig:
    def test_rejects_unknown_knobs(self):
        with pytest.raises(ConfigError):
            TuneConfig(strategy="exhaustive")
        with pytest.raises(ConfigError):
            TuneConfig(suite="imaginary")
        with pytest.raises(ConfigError):
            TuneConfig(budget=0)
        with pytest.raises(ConfigError):
            TuneConfig(eta=1)


class TestGrid:
    def test_sweeps_every_point_and_fronts(self, tmp_path):
        result = run_tune(TINY_SPACE, tiny_config(tmp_path))
        assert result.ok
        assert len(result.entries) == 4
        assert result.executed == 4 and result.cached == 0
        assert result.front  # something is non-dominated
        assert result.anchor is not None and result.anchor.ok
        assert 0.0 <= result.hypervolume <= 1.0
        # The buffer trade must keep >= 2 incomparable designs alive.
        assert len(result.front) >= 2

    def test_budget_truncates_but_keeps_anchor(self, tmp_path):
        result = run_tune(TINY_SPACE, tiny_config(tmp_path, budget=2))
        assert len(result.entries) == 2
        assert result.anchor is not None

    def test_resume_reexecutes_nothing(self, tmp_path):
        cold = run_tune(TINY_SPACE, tiny_config(tmp_path))
        warm = run_tune(TINY_SPACE, tiny_config(tmp_path, resume=True))
        assert warm.executed == 0
        assert warm.cached == len(warm.entries) == len(cold.entries)
        # Identical fronts from identical (cached) numbers.
        assert [e.point for e in warm.front_entries()] == [
            e.point for e in cold.front_entries()
        ]

    def test_force_invalidates(self, tmp_path):
        run_tune(TINY_SPACE, tiny_config(tmp_path))
        forced = run_tune(
            TINY_SPACE, tiny_config(tmp_path, resume=True, force=True)
        )
        assert forced.executed == len(forced.entries)

    def test_record_shape(self, tmp_path):
        result = run_tune(TINY_SPACE, tiny_config(tmp_path))
        record = result.record()
        assert record["points"] == 4
        assert record["front_size"] == len(result.front)
        assert record["anchor"]["params"] == TunePoint().params()
        for row in record["front"]:
            assert {"cycles", "energy_j", "area_mm2", "edp"} <= set(row)


class TestRandom:
    def test_seeded_sample_is_deterministic(self, tmp_path):
        cfg = tiny_config(tmp_path, strategy="random", budget=3, seed=7)
        a = run_tune(TINY_SPACE, cfg)
        b = run_tune(TINY_SPACE, tiny_config(
            tmp_path, strategy="random", budget=3, seed=7, resume=True))
        assert [e.point for e in a.entries] == [e.point for e in b.entries]
        assert len(a.entries) == 3
        assert a.entries[0].is_anchor  # anchor always swept first
        assert b.executed == 0  # same sample -> all cache hits


class TestHalving:
    def test_prunes_then_confirms_at_cycle_fidelity(self, tmp_path):
        result = run_tune(
            TINY_SPACE, tiny_config(tmp_path, strategy="halving")
        )
        assert result.ok
        assert result.pruned > 0
        survivors = [e for e in result.entries if not e.pruned]
        assert all(e.fidelity == "cycle" for e in survivors)
        pruned = [e for e in result.entries if e.pruned]
        assert all(e.fidelity == "analytical" for e in pruned)
        # The anchor survives pruning by construction.
        assert result.anchor is not None and not result.anchor.pruned
        # The front is drawn over confirmed entries only.
        assert all(not result.entries[i].pruned for i in result.front)

    def test_emits_prune_span(self, tmp_path):
        with collect_spans() as spans:
            run_tune(TINY_SPACE, tiny_config(
                tmp_path, strategy="halving", processes=1))
        assert "tune.prune" in spans.summary()


class TestObs:
    def test_outcome_counters(self, tmp_path):
        counter = registry().counter("repro_tune_points_total")
        swept0 = counter.value(outcome="swept")
        hits0 = counter.value(outcome="cache_hit")
        run_tune(TINY_SPACE, tiny_config(tmp_path, processes=1))
        assert counter.value(outcome="swept") == swept0 + 4
        run_tune(TINY_SPACE, tiny_config(tmp_path, resume=True, processes=1))
        assert counter.value(outcome="cache_hit") == hits0 + 4

    def test_evaluate_span_in_serial_runs(self, tmp_path):
        with collect_spans() as spans:
            run_tune(TINY_SPACE, tiny_config(tmp_path, processes=1))
        summary = spans.summary()
        assert "tune.evaluate" in summary
        assert summary["tune.evaluate"]["count"] == 4


class TestReport:
    def test_writes_pareto_page(self, tmp_path):
        result = run_tune(
            TINY_SPACE,
            tiny_config(tmp_path / "store", out_dir=tmp_path, report=True),
        )
        page = tmp_path / "xp" / "tune_pareto.md"
        assert page.is_file()
        text = page.read_text()
        assert "Pareto front" in text
        assert "paper_default" in text
        assert str(len(result.front)) in text


class TestXpParity:
    """Satellite: ablation-seeded cells are shared, never recomputed."""

    def test_xp_run_preseeds_the_tuner(self, tmp_path):
        from repro.xp import RunConfig, run_experiments

        summary = run_experiments(
            ["tune_grid"],
            RunConfig(store_root=tmp_path, out_dir=tmp_path / "out",
                      report=False, record=False),
        )
        assert summary.ok and summary.executed_cells > 0
        # Tune over exactly the seed points: every cell is already there.
        result = run_tune(
            space("paper_default"),
            TuneConfig(store_root=tmp_path, resume=True, include_seeds=True,
                       report=False),
        )
        assert len(result.entries) == summary.total_cells
        assert result.executed == 0
        assert result.cached == len(result.entries)

    def test_tuner_preseeds_xp_resume(self, tmp_path):
        from repro.xp import RunConfig, run_experiments

        result = run_tune(
            space("paper_default"),
            TuneConfig(store_root=tmp_path, include_seeds=True, report=False),
        )
        assert result.ok and result.executed == len(result.entries)
        summary = run_experiments(
            ["tune_grid"],
            RunConfig(store_root=tmp_path, out_dir=tmp_path / "out",
                      report=False, record=False, resume=True),
        )
        assert summary.ok
        assert summary.executed_cells == 0
        assert summary.cached_cells == len(result.entries)


class TestOneExecutor:
    """Tune points are ``tune_grid`` cells run by the xp runner's executor."""

    @staticmethod
    def _pool_maps() -> float:
        # Cells price through Session.predict, whose own (single-process)
        # fork_map calls count under path=sequential; only the sweep's
        # batches reach the pool.
        counter = registry().counter("repro_pool_maps_total")
        return counter.value(path="pool")

    def test_grid_run_is_one_pool_map(self, tmp_path):
        before = self._pool_maps()
        result = run_tune(TINY_SPACE, tiny_config(tmp_path))
        assert result.executed == 4
        assert self._pool_maps() - before == 1

    def test_halving_run_is_one_pool_map_per_rung(self, tmp_path):
        before = self._pool_maps()
        # eta=2 keeps two of four points, so the confirm rung is a batch.
        result = run_tune(
            TINY_SPACE, tiny_config(tmp_path, strategy="halving", eta=2)
        )
        assert result.executed == 4 + sum(
            1 for e in result.entries if not e.pruned
        )
        assert self._pool_maps() - before == 2

    def test_tune_cell_record_is_the_xp_record(self, tmp_path):
        from repro.xp import ArtifactStore, RunConfig, run_experiments

        tuned = run_tune(
            space("paper_default"),
            TuneConfig(store_root=tmp_path / "tune", budget=3, report=False),
        )
        assert tuned.ok and tuned.executed == 3
        summary = run_experiments(
            ["tune_grid"],
            RunConfig(store_root=tmp_path / "xp", out_dir=tmp_path / "out",
                      report=False, record=False),
        )
        assert summary.ok
        tune_store = ArtifactStore(tmp_path / "tune")
        xp_store = ArtifactStore(tmp_path / "xp")
        keys = [p.stem for p in (tmp_path / "tune" / "tune_grid").iterdir()]
        assert len(keys) == 3

        def comparable(record: dict) -> dict:
            return {
                k: v for k, v in record.items()
                if k not in ("elapsed_s", "spans")
            }

        for key in keys:
            assert comparable(tune_store.load("tune_grid", key)) == (
                comparable(xp_store.load("tune_grid", key))
            )


class TestObjective:
    def test_evaluation_is_deterministic(self, tmp_path):
        from repro.api.session import Session

        params = {
            "point": TunePoint(num_pes=1024).params(),
            "suite": "tiny",
            "fidelity": "analytical",
        }
        with Session("local") as session:
            a = evaluate_with_session(session, params)
            b = evaluate_with_session(session, params)
        assert a == b
        assert a["cycles"] > 0 and a["energy_j"] > 0 and a["area_mm2"] > 0

    def test_tech_node_scales_area_and_energy(self, tmp_path):
        from repro.api.session import Session

        with Session("local") as session:
            at28 = evaluate_with_session(session, {
                "point": TunePoint().params(),
                "suite": "tiny", "fidelity": "analytical"})
            at14 = evaluate_with_session(session, {
                "point": TunePoint(tech_node_nm=14).params(),
                "suite": "tiny", "fidelity": "analytical"})
        assert at14["area_mm2"] == pytest.approx(at28["area_mm2"] / 4)
        assert at14["cycles"] == at28["cycles"]  # node is cost, not timing
        assert at14["energy_j"] < at28["energy_j"]
