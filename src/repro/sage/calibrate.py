"""The calibrated fidelity tier: analytical counts x measured overhead.

The fidelity ladder's missing middle rung (ROADMAP "Calibrated fidelity
tier"): the analytical cost model is fast but uncalibrated; the cycle
tier is the operational ground truth but pays a full simulation per
candidate.  The csl-experiments compute-model exemplar closes the same
gap for SUMMA GEMM kernels by predicting cycles as a *pure analytical
count times a measured overhead factor* — this module does that for the
SAGE compute stage.

Methodology
-----------

A **training grid** of synthetic workloads (sizes x densities x kernels,
:class:`CalibrationGrid`) is priced twice per (streamed ACF, stationary
ACF) pair: once by :func:`~repro.accelerator.perf_model.
analytical_gemm_stats` and once by the vectorized cycle simulator
(:meth:`~repro.accelerator.simulator.WeightStationarySimulator.
simulate_many`, which returns cycle/energy reports only — no output
matrix — from one statistics pass per operand, not an entry stream per
K tile).  Each sample's
cycle and energy ratios are grouped by **(kernel, ACF pair, density
band)** — a power-of-two bucket of the streamed operand's density — and
aggregated into one :class:`CellStats` per cell: the geometric-mean
**correction factor** plus p50/p95 relative-error **residual bounds**
describing how well that single factor explains the cell's samples.

Registry-only streamed ACFs (e.g. ELL) have no closed-form model
(:func:`analytical_gemm_stats` rejects them), so their factors are
regressed against the :data:`ANALYTICAL_BASE_ACF` proxy — the factor
absorbs the padding/extraction overhead, and the predictor applies the
same base at decision time, keeping training and inference symmetric.

Persistence
-----------

Each training workload is one cell of the xp cell executor
(:func:`~repro.xp.runner.run_cells`), cached in the artifact store (so
``repro calibrate --resume`` re-executes nothing), and the aggregated
table is stored under a key derived from the accelerator-config digest,
the wire-schema version and :data:`GRID_VERSION` — a hardware or schema
change silently invalidates the stale table (:func:`load_table` returns
``None``; the predictor then demands a rebuild instead of applying wrong
factors).

Everything here is deterministic: operand seeds derive from workload
names, sample aggregation iterates in sorted order — rebuilding a table
from the same grid reproduces bit-identical factors (pinned by
``tests/sage/test_calibration.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.perf_model import analytical_gemm_stats
from repro.accelerator.protocols import streamable_formats
from repro.accelerator.simulator import WeightStationarySimulator
from repro.api.options import WIRE_SCHEMA_VERSION
from repro.errors import PredictionError
from repro.formats.csc import CscMatrix
from repro.formats.dense import DenseMatrix
from repro.formats.registry import Format, matrix_class
from repro.sage.cost_model import CostBreakdown
from repro.sage.spaces import MATRIX_ACF_STATIONARY, MATRIX_ACF_STREAMED
from repro.workloads.spec import Kernel, MatrixWorkload
from repro.workloads.synthetic import random_sparse_coords

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an xp cycle)
    from repro.xp.artifacts import ArtifactStore

__all__ = [
    "ANALYTICAL_BASE_ACF",
    "CalibrationBuild",
    "CalibrationError",
    "CalibrationGrid",
    "CalibrationTable",
    "CellStats",
    "ErrorBound",
    "GRIDS",
    "GRID_VERSION",
    "analytical_base_acf",
    "build_table",
    "calibration_band",
    "load_default_table",
    "load_table",
]

#: Bump when the grid/measurement semantics change: invalidates every
#: stored cell and table at once (it is part of both store keys).
GRID_VERSION = 1

#: Artifact-store "experiment" directories (cells and aggregated tables).
CELL_EXPERIMENT = "sage_calibration"
TABLE_EXPERIMENT = "sage_calibration_table"

#: Densest representable band (density ~1) and the sparse clamp.
MIN_BAND = -24

#: The closed-form stand-in for streamed ACFs outside the analytical
#: space (row-grouped, like ELL's row-major padding): training regresses
#: the simulator against this base, prediction applies the same base.
ANALYTICAL_BASE_ACF = Format.CSR


class CalibrationError(PredictionError):
    """A calibration table is malformed, stale, or cannot be built."""


def calibration_band(density: float) -> int:
    """Power-of-two density bucket of the streamed operand.

    ``0`` is (near-)dense, each step down halves the density; clamped at
    :data:`MIN_BAND`.  Banding on *density* (not absolute nnz) lets a
    factor trained at one size generalize across sizes of the same
    sparsity regime — the same reasoning as the serve layer's
    :func:`~repro.serve.fingerprint.density_band`, but size-invariant.
    """
    if density <= 0.0:
        return MIN_BAND
    if density >= 1.0:
        return 0
    return max(MIN_BAND, int(math.floor(math.log2(density))))


def analytical_base_acf(acf_a: Format) -> Format:
    """The closed-form ACF a correction factor is regressed against."""
    return acf_a if acf_a in MATRIX_ACF_STREAMED else ANALYTICAL_BASE_ACF


def _config_digest(config: AcceleratorConfig) -> str:
    # Lazy: repro.serve.fingerprint pulls the serve package in.
    from repro.serve.fingerprint import config_digest

    return config_digest(config)


# --------------------------------------------------------------------- table


@dataclass(frozen=True)
class ErrorBound:
    """Residual error of a calibrated prediction, relative to simulation.

    ``p50_rel`` / ``p95_rel`` are percentiles of ``|sim - factor *
    analytical| / sim`` over the training samples of the cell that
    produced the winning candidate — i.e. how far the corrected compute
    cycles may sit from a real simulation of this (kernel, ACF, density
    band), not a bound on the uncalibrated analytical model.
    """

    p50_rel: float
    p95_rel: float

    def __post_init__(self) -> None:
        if self.p50_rel < 0.0 or self.p95_rel < 0.0:
            raise CalibrationError("error bounds must be non-negative")

    def to_wire(self) -> dict:
        """JSON-safe wire form (inverse of :meth:`from_wire`)."""
        return {"p50_rel": self.p50_rel, "p95_rel": self.p95_rel}

    @classmethod
    def from_wire(cls, data: Mapping) -> "ErrorBound":
        """Rebuild a bound from its :meth:`to_wire` form."""
        return cls(
            p50_rel=float(data["p50_rel"]), p95_rel=float(data["p95_rel"])
        )


@dataclass(frozen=True)
class CellStats:
    """One calibration cell: correction factors plus residual bounds."""

    #: Geometric-mean simulated/analytical compute-cycle ratio.
    factor: float
    #: Geometric-mean simulated/analytical compute-energy ratio.
    energy_factor: float
    #: Percentiles of the per-sample relative residual (see ErrorBound).
    p50_rel_err: float
    p95_rel_err: float
    #: Training samples aggregated into this cell.
    samples: int

    def __post_init__(self) -> None:
        if not (self.factor > 0.0 and math.isfinite(self.factor)):
            raise CalibrationError(
                f"correction factor must be strictly positive, got "
                f"{self.factor!r}"
            )
        if not (self.energy_factor > 0.0 and math.isfinite(self.energy_factor)):
            raise CalibrationError(
                f"energy factor must be strictly positive, got "
                f"{self.energy_factor!r}"
            )
        if self.p50_rel_err < 0.0 or self.p95_rel_err < 0.0:
            raise CalibrationError("residual errors must be non-negative")
        if self.samples < 1:
            raise CalibrationError("a cell needs at least one sample")

    @property
    def bound(self) -> ErrorBound:
        """The cell's residuals as a decision-attachable bound."""
        return ErrorBound(p50_rel=self.p50_rel_err, p95_rel=self.p95_rel_err)

    def corrected_cycles(self, analytical_cycles: int) -> int:
        """Calibrated compute cycles (monotone in the analytical count)."""
        return max(1, math.ceil(analytical_cycles * self.factor))

    def corrected_energy(self, analytical_energy_j: float) -> float:
        """Calibrated compute energy."""
        return analytical_energy_j * self.energy_factor


#: (kernel value, streamed ACF value, stationary ACF value, density band).
CellKey = tuple[str, str, str, int]


@dataclass(frozen=True)
class CalibrationTable:
    """Correction factors for one accelerator config, by calibration cell.

    Frozen and picklable: a :class:`~repro.sage.predictor.Sage` carries
    its table into fork-pool workers, and decisions corrected by it are
    deterministic functions of (workload, table).
    """

    config_digest: str
    grid_name: str
    cells: Mapping[CellKey, CellStats] = field(default_factory=dict)
    grid_version: int = GRID_VERSION
    wire_schema: int = WIRE_SCHEMA_VERSION

    # -------------------------------------------------------------- lookup
    def lookup(
        self, kernel: Kernel | str, acf: Sequence[Format], density: float
    ) -> CellStats | None:
        """The cell for (kernel, ACF pair) nearest *density*'s band.

        Exact-band hits win; otherwise the nearest *trained* band of the
        same (kernel, ACF pair) answers — ties break toward the denser
        band, whose factors are better conditioned.  ``None`` when the
        pair was never trained at any band (the caller must then keep the
        uncalibrated analytical numbers rather than guess).
        """
        kernel_v = kernel.value if isinstance(kernel, Kernel) else str(kernel)
        acf_a, acf_b = acf[0].value, acf[1].value
        band = calibration_band(density)
        exact = self.cells.get((kernel_v, acf_a, acf_b, band))
        if exact is not None:
            return exact
        trained = [
            key
            for key in self.cells
            if key[0] == kernel_v and key[1] == acf_a and key[2] == acf_b
        ]
        if not trained:
            return None
        nearest = min(trained, key=lambda key: (abs(key[3] - band), -key[3]))
        return self.cells[nearest]

    def apply(
        self,
        cost: CostBreakdown,
        kernel: Kernel | str,
        density: float,
    ) -> tuple[CostBreakdown, CellStats | None]:
        """Correct one candidate's compute stage; DRAM/conversion pass through.

        Returns the corrected breakdown plus the cell that produced it
        (``None`` = untrained pair, breakdown returned unchanged).
        """
        cell = self.lookup(kernel, cost.acf, density)
        if cell is None:
            return cost, None
        return (
            dataclasses.replace(
                cost,
                compute_cycles=cell.corrected_cycles(cost.compute_cycles),
                compute_energy_j=cell.corrected_energy(cost.compute_energy_j),
            ),
            cell,
        )

    # ---------------------------------------------------------- (de)serialize
    def to_dict(self) -> dict:
        """JSON-safe form (inverse of :meth:`from_dict`), sorted stably."""
        return {
            "config_digest": self.config_digest,
            "grid_name": self.grid_name,
            "grid_version": self.grid_version,
            "wire_schema": self.wire_schema,
            "cells": [
                {
                    "kernel": key[0],
                    "acf_a": key[1],
                    "acf_b": key[2],
                    "band": key[3],
                    "factor": stats.factor,
                    "energy_factor": stats.energy_factor,
                    "p50_rel_err": stats.p50_rel_err,
                    "p95_rel_err": stats.p95_rel_err,
                    "samples": stats.samples,
                }
                for key, stats in sorted(self.cells.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CalibrationTable":
        """Rebuild (and validate) a table from its :meth:`to_dict` form."""
        try:
            cells: dict[CellKey, CellStats] = {}
            for row in data["cells"]:
                key: CellKey = (
                    str(row["kernel"]),
                    str(row["acf_a"]),
                    str(row["acf_b"]),
                    int(row["band"]),
                )
                if key in cells:
                    raise CalibrationError(
                        f"duplicate calibration cell {key}"
                    )
                cells[key] = CellStats(
                    factor=float(row["factor"]),
                    energy_factor=float(row["energy_factor"]),
                    p50_rel_err=float(row["p50_rel_err"]),
                    p95_rel_err=float(row["p95_rel_err"]),
                    samples=int(row["samples"]),
                )
            return cls(
                config_digest=str(data["config_digest"]),
                grid_name=str(data["grid_name"]),
                cells=cells,
                grid_version=int(data["grid_version"]),
                wire_schema=int(data["wire_schema"]),
            )
        except CalibrationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(
                f"malformed calibration table: {exc}"
            ) from exc

    def summary(self) -> str:
        """Human-readable digest of the table for ``repro calibrate``."""
        lines = [
            f"calibration table ({len(self.cells)} cells, grid "
            f"{self.grid_name!r} v{self.grid_version}, config "
            f"{self.config_digest}, wire schema {self.wire_schema})"
        ]
        for key, stats in sorted(self.cells.items()):
            kernel, acf_a, acf_b, band = key
            lines.append(
                f"  {kernel:7s} ACF=({acf_a},{acf_b}) band {band:>3d}: "
                f"cycles x{stats.factor:7.3f} energy "
                f"x{stats.energy_factor:7.3f} "
                f"rel-err p50 {stats.p50_rel_err:.1%} / "
                f"p95 {stats.p95_rel_err:.1%} ({stats.samples} samples)"
            )
        return "\n".join(lines)


# ------------------------------------------------------------ training grid


@dataclass(frozen=True)
class CalibrationGrid:
    """A named training grid: sizes x densities x kernels."""

    name: str
    sizes: tuple[tuple[int, int, int], ...]
    densities: tuple[float, ...]
    kernels: tuple[Kernel, ...] = (Kernel.SPMM, Kernel.SPGEMM)

    def workloads(self) -> tuple[MatrixWorkload, ...]:
        """The grid's training workloads, in deterministic order.

        Operand B follows the suite convention: dense for SpMM,
        density-matched to A for SpGEMM.
        """
        out: list[MatrixWorkload] = []
        for kernel in self.kernels:
            for m, k, n in self.sizes:
                for density in self.densities:
                    nnz_a = max(1, min(m * k, round(density * m * k)))
                    nnz_b = (
                        k * n
                        if kernel is Kernel.SPMM
                        else max(1, min(k * n, round(density * k * n)))
                    )
                    out.append(
                        MatrixWorkload(
                            name=(
                                f"calib-{kernel.value}-{m}x{k}x{n}"
                                f"-d{density:g}"
                            ),
                            kernel=kernel,
                            m=m,
                            k=k,
                            n=n,
                            nnz_a=nnz_a,
                            nnz_b=nnz_b,
                        )
                    )
        return tuple(out)


#: Named grid presets.  All three sample one density per octave band
#: (``0.75 * 2**-i``) so every band a query can land in has a trained
#: cell — coarser ladders leave bands to nearest-neighbour fallback,
#: which measurably degrades top-1 agreement with the cycle tier.
#: ``tiny`` (sub-second — unit tests), ``smoke`` (CI + benchmarks: two
#: sizes per band so residual bounds are non-trivial, spans the Table
#: III density range), ``full`` (adds a third, larger size per band).
GRIDS: dict[str, CalibrationGrid] = {
    "tiny": CalibrationGrid(
        name="tiny",
        sizes=((96, 96, 48),),
        densities=tuple(0.75 * 2**-i for i in range(0, 15, 2)),
    ),
    "smoke": CalibrationGrid(
        name="smoke",
        sizes=((96, 96, 48), (160, 128, 64)),
        densities=tuple(0.75 * 2**-i for i in range(15)),
    ),
    "full": CalibrationGrid(
        name="full",
        sizes=((96, 96, 48), (160, 128, 64), (256, 192, 128)),
        densities=tuple(0.75 * 2**-i for i in range(18)),
    ),
}


def _workload_seed(workload: MatrixWorkload) -> int:
    """Deterministic operand seed from the workload's identity."""
    digest = hashlib.blake2s(workload.name.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (1 << 31)


def _acf_pairs() -> tuple[tuple[Format, Format], ...]:
    """Every (streamed, stationary) ACF pair a decision can carry.

    The analytical space plus every registry-only streamable format (the
    cycle tier's extra candidates, e.g. ELL) — trained here so the
    calibrated tier ranks the same candidate set as the cycle tier.
    """
    streamed = list(MATRIX_ACF_STREAMED)
    for fmt in streamable_formats():
        if fmt not in streamed:
            streamed.append(fmt)
    return tuple(
        (acf_a, acf_b)
        for acf_a in streamed
        for acf_b in MATRIX_ACF_STATIONARY
    )


def _measure_workload(session, params: Mapping) -> dict:
    """Analytical-vs-simulated compute samples for one training workload.

    The measure of a calibration cell (*session* is unused): its seeded
    operands are drawn as coordinates and encoded once per ACF straight
    from them (no dense array is built); the batch is simulated once on
    the paper-default config, reports only.
    """
    workload = MatrixWorkload.from_dict(params["workload"])
    config, seed = AcceleratorConfig.paper_default(), params["seed"]
    a_shape, b_shape = (workload.m, workload.k), (workload.k, workload.n)
    a_coords = random_sparse_coords(*a_shape, workload.nnz_a, seed)
    b_coords = random_sparse_coords(*b_shape, workload.nnz_b, seed + 1)
    encoded_a: dict[Format, object] = {}
    encoded_b: dict[Format, object] = {}
    jobs, metas = [], []
    for acf_a, acf_b in _acf_pairs():
        # Base ACFs are modelled; a SimulationError here fails the cell.
        run = analytical_gemm_stats(
            workload.m,
            workload.k,
            workload.n,
            workload.nnz_a,
            workload.nnz_b,
            analytical_base_acf(acf_a),
            acf_b,
            config,
        )
        if acf_a not in encoded_a:
            encoded_a[acf_a] = matrix_class(acf_a).from_coords(
                a_shape, *a_coords
            )
        if acf_b not in encoded_b:
            cls = CscMatrix if acf_b is Format.CSC else DenseMatrix
            encoded_b[acf_b] = cls.from_coords(b_shape, *b_coords)
        jobs.append((encoded_a[acf_a], acf_a, encoded_b[acf_b], acf_b))
        metas.append(
            {
                "acf_a": acf_a.value,
                "acf_b": acf_b.value,
                "analytical_cycles": run.cycles.total_cycles,
                "analytical_energy_j": run.energy.total_j,
            }
        )
    reports = WeightStationarySimulator(config).simulate_many(jobs)
    samples = []
    for meta, run in zip(metas, reports):
        samples.append(
            {
                **meta,
                "sim_cycles": run.cycles.total_cycles,
                "sim_energy_j": run.energy.total_j,
            }
        )
    return {"samples": samples}


# ------------------------------------------------------------- aggregation


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _aggregate(
    measured: Sequence[tuple[MatrixWorkload, dict]],
    grid: CalibrationGrid,
    config: AcceleratorConfig,
) -> CalibrationTable:
    """Fold per-workload samples into per-cell factors + residuals."""
    groups: dict[CellKey, list[tuple[float, float, float, float]]] = {}
    for workload, record in measured:
        band = calibration_band(workload.density_a)
        for sample in record["samples"]:
            key: CellKey = (
                workload.kernel.value,
                sample["acf_a"],
                sample["acf_b"],
                band,
            )
            groups.setdefault(key, []).append(
                (
                    float(sample["analytical_cycles"]),
                    float(sample["sim_cycles"]),
                    float(sample["analytical_energy_j"]),
                    float(sample["sim_energy_j"]),
                )
            )
    cells: dict[CellKey, CellStats] = {}
    for key in sorted(groups):
        rows = sorted(groups[key])
        factor = math.exp(
            sum(math.log(sim / ana) for ana, sim, _, _ in rows) / len(rows)
        )
        energy_factor = math.exp(
            sum(math.log(sim / ana) for _, _, ana, sim in rows) / len(rows)
        )
        residuals = sorted(
            abs(sim - factor * ana) / sim for ana, sim, _, _ in rows
        )
        cells[key] = CellStats(
            factor=factor,
            energy_factor=energy_factor,
            p50_rel_err=_percentile(residuals, 0.50),
            p95_rel_err=_percentile(residuals, 0.95),
            samples=len(rows),
        )
    return CalibrationTable(
        config_digest=_config_digest(config),
        grid_name=grid.name,
        cells=cells,
    )


# ------------------------------------------------------------- build / load


@dataclass(frozen=True)
class CalibrationBuild:
    """Result of one :func:`build_table` run (the CLI's JSON record)."""

    table: CalibrationTable
    grid: str
    workloads: int
    executed: int
    cached: int
    wall_s: float
    table_path: Path

    def record(self) -> dict:
        """JSON-safe summary (``repro calibrate --json``)."""
        worst = max(
            (stats.p95_rel_err for stats in self.table.cells.values()),
            default=0.0,
        )
        return {
            "ok": True,
            "grid": self.grid,
            "workloads": self.workloads,
            "executed": self.executed,
            "cached": self.cached,
            "table_cells": len(self.table.cells),
            "config_digest": self.table.config_digest,
            "worst_p95_rel_err": worst,
            "wall_s": self.wall_s,
            "table_path": str(self.table_path),
        }


def _table_key(config: AcceleratorConfig) -> str:
    """Store key of the aggregated table for one accelerator config."""
    return f"{_config_digest(config)}-g{GRID_VERSION}-w{WIRE_SCHEMA_VERSION}"


def build_table(
    grid: CalibrationGrid,
    *,
    store: "ArtifactStore | None" = None,
    resume: bool = False,
    force: bool = False,
) -> CalibrationBuild:
    """Measure (or resume) a training grid and persist its table.

    ``resume=True`` answers grid cells already in the store without
    re-simulating (asserting zero re-execution is the CI smoke check);
    ``force=True`` invalidates them first.  A failed workload raises
    :class:`CalibrationError` and stores no table.  The aggregated table
    always re-derives from the (cached or fresh) cell records and
    overwrites the stored table — a refresh is just a re-run.
    """
    from repro.xp.artifacts import ArtifactStore
    from repro.xp.registry import Experiment
    from repro.xp.runner import RunConfig, run_cells

    store = store if store is not None else ArtifactStore()
    if force:
        store.invalidate(CELL_EXPERIMENT)
    t0 = time.perf_counter()
    # Unregistered; the cells are laid out here, so the matrix names grids.
    experiment = Experiment(
        name=CELL_EXPERIMENT, kind="table", anchor="calibrated tier",
        title="Analytical vs simulated samples of one training workload",
        matrix={"grid": tuple(GRIDS)}, measure=_measure_workload,
        schema=("samples",), version=GRID_VERSION,
    )
    workloads = grid.workloads()
    states = run_cells(
        [
            (experiment, {"workload": w.to_dict(), "grid": grid.name,
                          "seed": _workload_seed(w)})
            for w in workloads
        ],
        RunConfig(processes=1, resume=resume, store_root=store.root),
    )
    for workload, state in zip(workloads, states):
        if not state.ok:
            raise CalibrationError(
                f"calibration workload {workload.name!r} failed: {state.error}"
            )
    config = AcceleratorConfig.paper_default()
    table = _aggregate(
        [(w, s.result) for w, s in zip(workloads, states)], grid, config
    )
    path = store.store(TABLE_EXPERIMENT, _table_key(config), table.to_dict())
    cached = sum(state.cached for state in states)
    return CalibrationBuild(
        table=table,
        grid=grid.name,
        workloads=len(states),
        executed=len(states) - cached,
        cached=cached,
        wall_s=time.perf_counter() - t0,
        table_path=path,
    )


def load_table(
    store: "ArtifactStore", config: AcceleratorConfig | None = None
) -> CalibrationTable | None:
    """The stored table for *config*, or ``None`` when absent or stale.

    Stale means any key ingredient moved: the accelerator-config digest,
    the wire schema, or :data:`GRID_VERSION` — a mismatched table is a
    miss (rebuild with ``repro calibrate``), never silently applied.
    """
    cfg = config or AcceleratorConfig.paper_default()
    record = store.load(TABLE_EXPERIMENT, _table_key(cfg))
    if record is None:
        return None
    try:
        table = CalibrationTable.from_dict(record)
    except CalibrationError:
        return None
    if (
        table.config_digest != _config_digest(cfg)
        or table.grid_version != GRID_VERSION
        or table.wire_schema != WIRE_SCHEMA_VERSION
    ):
        return None
    return table


def load_default_table(
    config: AcceleratorConfig | None = None,
) -> CalibrationTable | None:
    """:func:`load_table` against the default on-disk artifact store."""
    from repro.xp.artifacts import ArtifactStore

    return load_table(ArtifactStore(), config)
