"""The calibrated fidelity tier: table building, accuracy regression, staleness.

The accuracy tests are the paper-facing bar: on the (smoke-sized) Table
III suite the calibrated tier must pick the cycle tier's winner almost
always, while never invoking the simulator at predict time.  The
remaining tests pin the artifact-store contract (resume, staleness,
deterministic rebuilds) and the table's validation invariants
(hypothesis-driven).
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.config import AcceleratorConfig
from repro.errors import PredictionError
from repro.formats.registry import Format
from repro.obs.metrics import registry
from repro.obs.trace import start_trace, stop_trace
from repro.sage import calibrate
from repro.sage.calibrate import (
    GRIDS,
    CalibrationError,
    CalibrationTable,
    CellStats,
    ErrorBound,
    build_table,
    calibration_band,
    load_table,
)
from repro.sage.predictor import SIM_CAP_ELEMENTS, Sage, SageDecision, _proxy_workload
from repro.workloads.spec import Kernel
from repro.workloads.suite import MATRIX_SUITE
from repro.xp.artifacts import ArtifactStore
from repro.xp.registry import experiment_names


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("calibration-store"))


@pytest.fixture(scope="module")
def tiny_build(store):
    return build_table(GRIDS["tiny"], store=store)


@pytest.fixture(scope="module")
def smoke_table(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("calibration-smoke"))
    return build_table(GRIDS["smoke"], store=store).table


class TestBuild:
    def test_build_produces_cells(self, tiny_build):
        assert len(tiny_build.table.cells) > 0
        assert tiny_build.executed == len(GRIDS["tiny"].workloads())
        assert tiny_build.cached == 0

    def test_factors_strictly_positive(self, tiny_build):
        for stats in tiny_build.table.cells.values():
            assert stats.factor > 0.0
            assert stats.energy_factor > 0.0

    def test_error_bounds_non_negative_and_ordered(self, tiny_build):
        for stats in tiny_build.table.cells.values():
            assert 0.0 <= stats.p50_rel_err <= stats.p95_rel_err

    def test_resume_re_executes_nothing(self, store, tiny_build):
        resumed = build_table(GRIDS["tiny"], store=store, resume=True)
        assert resumed.executed == 0
        assert resumed.cached == tiny_build.workloads
        assert resumed.table.to_dict() == tiny_build.table.to_dict()

    def test_deterministic_rebuild_bit_identical(self, tiny_build, tmp_path):
        # Two cold builds against independent stores: operand seeds
        # derive from workload names, so the factors must match bit for
        # bit — the reproducibility bar for a persisted model artifact.
        rebuilt = build_table(
            GRIDS["tiny"], store=ArtifactStore(tmp_path / "fresh")
        )
        assert rebuilt.table.to_dict() == tiny_build.table.to_dict()


class TestCellExecutor:
    """Training workloads are cells of the xp runner's executor."""

    @staticmethod
    def _pool_maps() -> dict[str, float]:
        counter = registry().counter("repro_pool_maps_total")
        return {
            path: counter.value(path=path) for path in ("sequential", "pool")
        }

    def test_build_is_one_sequential_map(self, tmp_path):
        # Fanning the build out over a pool is a recorded negative result
        # (peak RSS); the whole grid is one in-process fork_map.
        before = self._pool_maps()
        build_table(GRIDS["tiny"], store=ArtifactStore(tmp_path))
        after = self._pool_maps()
        assert after["sequential"] - before["sequential"] == 1
        assert after["pool"] == before["pool"]

    def test_failed_workload_raises_and_stores_no_table(
        self, tmp_path, monkeypatch
    ):
        failing = GRIDS["tiny"].workloads()[3].name
        measure = calibrate._measure_workload

        def flaky(session, params):
            if params["workload"]["name"] == failing:
                raise RuntimeError("simulator fault")
            return measure(session, params)

        monkeypatch.setattr(calibrate, "_measure_workload", flaky)
        store = ArtifactStore(tmp_path)
        with pytest.raises(CalibrationError, match=failing):
            build_table(GRIDS["tiny"], store=store)
        assert load_table(store) is None
        assert store.count(calibrate.TABLE_EXPERIMENT) == 0

    def test_force_with_resume_re_executes_every_workload(
        self, store, tiny_build
    ):
        forced = build_table(GRIDS["tiny"], store=store, resume=True,
                             force=True)
        assert forced.executed == forced.workloads == tiny_build.workloads
        assert forced.cached == 0
        assert forced.table.to_dict() == tiny_build.table.to_dict()

    def test_build_leaves_no_warm_session(self, tmp_path):
        # Calibration cells ignore their session: a fresh process that
        # builds a table never builds a Session.
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        code = (
            "from repro.sage.calibrate import GRIDS, build_table\n"
            "from repro.xp import runner\n"
            "from repro.xp.artifacts import ArtifactStore\n"
            f"build_table(GRIDS['tiny'], store=ArtifactStore({str(tmp_path)!r}))\n"
            "print(len(runner._SESSIONS))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_cell_experiment_is_not_registered(self):
        assert calibrate.CELL_EXPERIMENT not in experiment_names()

    def test_traced_build_spans_one_cell_per_workload(self, tmp_path):
        start_trace()
        try:
            build = build_table(GRIDS["tiny"], store=ArtifactStore(tmp_path))
        finally:
            events = stop_trace()
        cells = [e for e in events if e["name"] == "xp.cell"]
        assert len(cells) == build.workloads
        assert {e["args"]["experiment"] for e in cells} == {
            calibrate.CELL_EXPERIMENT
        }


class TestStaleness:
    def test_stored_table_loads_back(self, store, tiny_build):
        table = load_table(store)
        assert table is not None
        assert table.to_dict() == tiny_build.table.to_dict()

    def test_config_digest_change_invalidates(self, store, tiny_build):
        other = dataclasses.replace(
            AcceleratorConfig.paper_default(), num_pes=7
        )
        assert load_table(store, other) is None

    def test_missing_store_is_a_miss(self, tmp_path):
        assert load_table(ArtifactStore(tmp_path / "empty")) is None

    def test_predict_without_table_names_the_rebuild_command(
        self, monkeypatch
    ):
        # No table anywhere (the default-store load comes back empty):
        # the tier must refuse loudly, never answer uncorrected.
        monkeypatch.setattr(
            "repro.sage.predictor.load_default_table", lambda config: None
        )
        with pytest.raises(PredictionError, match="repro calibrate"):
            Sage().predict_matrix(
                _smoke_workloads()[0], fidelity="calibrated"
            )


def _smoke_workloads():
    return [
        _proxy_workload(entry.matrix_workload(kernel), SIM_CAP_ELEMENTS)
        for entry in MATRIX_SUITE
        for kernel in (Kernel.SPMM, Kernel.SPGEMM)
    ]


class TestAccuracyRegression:
    """Calibrated-vs-cycle agreement on the smoke-sized Table III suite."""

    @pytest.fixture(scope="class")
    def decisions(self, smoke_table):
        sage = Sage(calibration=smoke_table)
        pairs = []
        for wl in _smoke_workloads():
            pairs.append(
                (
                    sage.predict_matrix(wl, fidelity="calibrated"),
                    sage.predict_matrix(wl, fidelity="cycle"),
                )
            )
        return pairs

    def test_top1_agreement_floor(self, decisions):
        hits = sum(
            (cal.best.mcf, cal.best.acf) == (cyc.best.mcf, cyc.best.acf)
            for cal, cyc in decisions
        )
        assert hits / len(decisions) >= 0.9

    def test_top3_agreement_floor(self, decisions):
        hits = sum(
            (cyc.best.mcf, cyc.best.acf)
            in [(c.mcf, c.acf) for c in cal.ranking[:3]]
            for cal, cyc in decisions
        )
        assert hits / len(decisions) >= 0.95

    def test_calibrated_beats_uncalibrated_agreement(self, decisions):
        sage = Sage()
        uncal = sum(
            (ana.best.mcf, ana.best.acf) == (cyc.best.mcf, cyc.best.acf)
            for ana, (_cal, cyc) in zip(
                (sage.predict_matrix(wl) for wl in _smoke_workloads()),
                decisions,
            )
        )
        cal = sum(
            (c.best.mcf, c.best.acf) == (cyc.best.mcf, cyc.best.acf)
            for c, cyc in decisions
        )
        assert cal > uncal

    def test_decisions_report_the_tier_and_bound(self, decisions):
        for cal, _cyc in decisions:
            assert cal.fidelity == "calibrated"
            assert cal.sim_scale == 1.0
            if cal.error_bound is not None:
                assert cal.error_bound.p50_rel >= 0.0
                assert cal.error_bound.p95_rel >= cal.error_bound.p50_rel

    def test_wire_round_trip(self, decisions):
        cal, _cyc = decisions[0]
        rebuilt = SageDecision.from_wire(cal.to_wire())
        assert rebuilt == cal
        assert rebuilt.error_bound == cal.error_bound


# ------------------------------------------------------------ property tests

_factors = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)
_errs = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def _cell_stats(draw):
    lo, hi = sorted((draw(_errs), draw(_errs)))
    return CellStats(
        factor=draw(_factors),
        energy_factor=draw(_factors),
        p50_rel_err=lo,
        p95_rel_err=hi,
        samples=draw(st.integers(min_value=1, max_value=64)),
    )


_acf_a = st.sampled_from(
    [Format.CSR.value, Format.COO.value, Format.DENSE.value, Format.ELL.value]
)
_acf_b = st.sampled_from([Format.DENSE.value, Format.CSC.value])
_keys = st.tuples(
    st.sampled_from([Kernel.SPMM.value, Kernel.SPGEMM.value]),
    _acf_a,
    _acf_b,
    st.integers(min_value=-24, max_value=0),
)


@st.composite
def _tables(draw):
    cells = draw(
        st.dictionaries(_keys, _cell_stats(), min_size=1, max_size=12)
    )
    return CalibrationTable(
        config_digest=draw(st.text(min_size=1, max_size=16)),
        grid_name="prop",
        cells=cells,
    )


class TestTableProperties:
    @given(table=_tables())
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, table):
        assert CalibrationTable.from_dict(table.to_dict()) == table

    @given(factor=st.floats(max_value=0.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_nonpositive_factor_rejected(self, factor):
        with pytest.raises(CalibrationError, match="strictly positive"):
            CellStats(
                factor=factor,
                energy_factor=1.0,
                p50_rel_err=0.0,
                p95_rel_err=0.0,
                samples=1,
            )

    @given(
        cell=_cell_stats(),
        a=st.integers(min_value=0, max_value=1 << 30),
        b=st.integers(min_value=0, max_value=1 << 30),
    )
    @settings(max_examples=80, deadline=None)
    def test_corrected_cycles_monotone_in_analytical(self, cell, a, b):
        lo, hi = sorted((a, b))
        assert cell.corrected_cycles(lo) <= cell.corrected_cycles(hi)
        assert cell.corrected_cycles(hi) >= 1

    @given(p50=_errs, p95=_errs)
    @settings(max_examples=40, deadline=None)
    def test_error_bounds_non_negative(self, p50, p95):
        lo, hi = sorted((p50, p95))
        bound = ErrorBound(p50_rel=lo, p95_rel=hi)
        assert bound.p50_rel >= 0.0 and bound.p95_rel >= 0.0
        assert ErrorBound.from_wire(bound.to_wire()) == bound

    @given(neg=st.floats(max_value=-1e-9, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_negative_bound_rejected(self, neg):
        with pytest.raises(CalibrationError, match="non-negative"):
            ErrorBound(p50_rel=neg, p95_rel=0.0)

    @given(density=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_band_clamped_and_monotone(self, density):
        band = calibration_band(density)
        assert -24 <= band <= 0
        denser = calibration_band(min(1.0, density * 2))
        assert denser >= band


class TestLookupFallback:
    def test_nearest_band_answers_off_grid_density(self, tiny_build):
        table = tiny_build.table
        # tiny trains every other octave: an untrained band in between
        # must answer from a neighbour, never None for a trained pair.
        cell = table.lookup(Kernel.SPMM, (Format.CSR, Format.DENSE), 0.3)
        assert cell is not None

    def test_untrained_pair_returns_none(self, tiny_build):
        # COO is never a stationary-side ACF in the training pairs.
        trained = {
            (k, a, b) for (k, a, b, _band) in tiny_build.table.cells
        }
        assert (
            Kernel.SPMM.value,
            Format.CSR.value,
            Format.COO.value,
        ) not in trained
        assert (
            tiny_build.table.lookup(
                Kernel.SPMM, (Format.CSR, Format.COO), 0.1
            )
            is None
        )
