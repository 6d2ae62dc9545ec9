"""The SAGE predictor: search the MCF/ACF space for minimum EDP.

"SAGE predicts which MCF and ACF combination results in the lowest
energy-delay product (EDP).  The inputs to SAGE are workload size,
datatype, density region, MINT format conversion cost, and accelerator
hardware parameters.  The outputs are the ideal MCF and ACF combinations."
(Sec. VI)

Three **fidelity tiers** are exposed through ``fidelity=``:

* ``"analytical"`` (default) — the paper's closed-form cost model over the
  full MCF/ACF cross-product; fast enough for exhaustive search.
* ``"calibrated"`` — the analytical candidates, compute stage corrected by
  measured per-(kernel, ACF, density-band) factors from a
  :class:`~repro.sage.calibrate.CalibrationTable` (built once against the
  cycle simulator with ``repro calibrate``).  No simulation at decision
  time: analytical latency, near-cycle ranking, and the winning cell's
  residual bounds attached as :attr:`SageDecision.error_bound`.  Costs are
  at full workload scale (``sim_scale`` stays 1.0).  Registry-only
  streamed ACFs (e.g. ELL) join via their trained factors over the
  :data:`~repro.sage.calibrate.ANALYTICAL_BASE_ACF` closed-form base, so
  the candidate set matches the cycle tier's.
* ``"cycle"`` — the analytical top-k is validated (or re-ranked) by the
  cycle-level simulator (Sec. IV's operational ground truth): concrete
  operands with the workload's exact statistics are materialized, encoded
  once per distinct ACF, and batch-simulated via
  :meth:`~repro.accelerator.simulator.WeightStationarySimulator.
  simulate_many`, which simulates each distinct (operand, ACF) job once —
  candidates that differ only in their MCFs share one simulation — and
  returns cycle/energy reports only, computing no output matrix.  Any
  extra streamable ACF registered in the streaming-protocol registry but
  absent from the analytical search space (e.g. ELL) joins the candidate
  set here — the cycle tier is how newly registered protocols enter SAGE
  decisions before anyone writes a closed-form model for them.  Very large workloads are simulated through
  a density-preserving proxy capped at :data:`SIM_CAP_ELEMENTS` elements
  per operand, so the tier stays interactive; all candidates are priced at
  the same scale, keeping the ranking meaningful, and the scaling is
  declared on the decision (:attr:`SageDecision.sim_scale` travels on the
  wire), so absolute cycle/energy numbers are never mistaken for
  full-scale measurements.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.perf_model import analytical_gemm_stats
from repro.accelerator.protocols import streamable_formats
from repro.accelerator.simulator import WeightStationarySimulator
from repro.api.options import FIDELITIES, PredictOptions, resolve_options
from repro.errors import ConversionError, PredictionError, SimulationError
from repro.formats.csc import CscMatrix
from repro.formats.dense import DenseMatrix
from repro.formats.registry import Format, matrix_class
from repro.hardware.dram import DramChannel
from repro.obs import registry, span
from repro.sage.calibrate import (
    CalibrationTable,
    ErrorBound,
    analytical_base_acf,
    load_default_table,
)
from repro.sage.cost_model import (
    ConversionProvider,
    CostBreakdown,
    Menu,
    mint_provider,
    price_matrix_io,
    price_matrix_menu,
    price_tensor_menu,
)
from repro.sage.spaces import (
    MATRIX_ACF_STREAMED,
    FormatPair,
    matrix_grid,
    tensor_grid,
)
from repro.workloads.spec import MatrixWorkload, TensorWorkload
from repro.workloads.synthetic import random_sparse_coords

#: Largest operand (in logical elements) the cycle tier simulates directly;
#: bigger workloads are validated through a density-preserving proxy.
SIM_CAP_ELEMENTS = 1 << 18

#: Analytical candidates the cycle tier re-simulates.
CYCLE_TOP_K = 4

_CANDIDATES = registry().counter(
    "repro_sage_candidates_total",
    "MCF/ACF candidates priced by the cost model, by kind and feasibility",
)
_PREDICTIONS = registry().counter(
    "repro_sage_predictions_total", "SAGE decisions produced, by fidelity"
)


@dataclass(frozen=True)
class SageDecision:
    """SAGE's output: the chosen combination plus the full ranking."""

    workload_name: str
    best: CostBreakdown
    #: Every feasible candidate by ascending EDP, ``best`` first.  A fresh
    #: analytical search holds a lazy
    #: :class:`~repro.sage.cost_model.Ranking` over the priced menu's
    #: columns (rows are built when read, and ``best is ranking[0]``);
    #: the cycle and calibrated tiers and :meth:`from_wire` hold tuples.
    ranking: Sequence[CostBreakdown]
    fidelity: str = "analytical"
    #: Fraction of the workload's (m*k*n) volume the cycle tier actually
    #: simulated: 1.0 = exact scale; < 1.0 = a density-preserving proxy
    #: stood in, so absolute cycles/energy/EDP are at proxy scale (the
    #: ranking is still comparable — every candidate shares the scale).
    sim_scale: float = 1.0
    #: Calibrated tier only: the winning candidate's residual bounds
    #: (p50/p95 relative error vs the cycle simulator on the training
    #: cell that corrected it).  ``None`` on other tiers, or when the
    #: winner's (kernel, ACF, band) was never trained.
    error_bound: ErrorBound | None = None

    @property
    def mcf(self) -> tuple[Format, Format]:
        """Chosen memory compression formats (per operand)."""
        return self.best.mcf

    @property
    def acf(self) -> tuple[Format, Format]:
        """Chosen algorithm compression formats (per operand)."""
        return self.best.acf

    def to_wire(self, top: int | None = None) -> dict:
        """JSON-safe wire form (inverse of :meth:`from_wire`).

        ``top`` truncates the shipped ranking (the serve layer defaults to
        a small prefix so cache-hit responses stay compact); ``None`` ships
        the full ranking, making the round trip lossless.
        """
        ranking = self.ranking if top is None else self.ranking[:top]
        wire = {
            "workload_name": self.workload_name,
            "fidelity": self.fidelity,
            "sim_scale": self.sim_scale,
            "best": self.best.to_wire(),
            "ranking": [cand.to_wire() for cand in ranking],
        }
        if self.error_bound is not None:
            # Omitted when unset so analytical/cycle decisions keep the
            # exact pre-calibration wire shape (schema stays version 2).
            wire["error_bound"] = self.error_bound.to_wire()
        return wire

    @classmethod
    def from_wire(cls, data: dict) -> "SageDecision":
        """Rebuild a decision from its :meth:`to_wire` form."""
        ranking = tuple(
            CostBreakdown.from_wire(cand) for cand in data["ranking"]
        )
        # Every tier ranks its best candidate first: decode it once.
        best = (
            ranking[0]
            if ranking and data["best"] == data["ranking"][0]
            else CostBreakdown.from_wire(data["best"])
        )
        return cls(
            workload_name=str(data["workload_name"]),
            best=best,
            ranking=ranking,
            fidelity=str(data.get("fidelity", "analytical")),
            sim_scale=float(data.get("sim_scale", 1.0)),
            error_bound=(
                None
                if data.get("error_bound") is None
                else ErrorBound.from_wire(data["error_bound"])
            ),
        )

    def summary(self, top: int = 5) -> str:
        """Human-readable ranking of the best candidates."""
        if self.fidelity == "analytical":
            tier = ""
        elif self.sim_scale < 1.0:
            tier = f" [{self.fidelity}, proxy at {self.sim_scale:.1e}x volume]"
        elif self.error_bound is not None:
            tier = (
                f" [{self.fidelity}, rel err p50 "
                f"{self.error_bound.p50_rel:.1%} / p95 "
                f"{self.error_bound.p95_rel:.1%}]"
            )
        else:
            tier = f" [{self.fidelity}]"
        lines = [f"SAGE decision for {self.workload_name}{tier}:"]
        for i, cand in enumerate(self.ranking[:top]):
            marker = "*" if i == 0 else " "
            lines.append(
                f" {marker} MCF=({cand.mcf[0]},{cand.mcf[1]}) "
                f"ACF=({cand.acf[0]},{cand.acf[1]}) "
                f"EDP={cand.edp:.3e} J*s "
                f"(dram {cand.dram_in_cycles + cand.dram_out_cycles} cyc, "
                f"conv {cand.conv_cycles} cyc, compute {cand.compute_cycles} cyc)"
            )
        return "\n".join(lines)


def truncate_ranking(
    decision: SageDecision, top_k: int | None
) -> SageDecision:
    """Keep the ranking prefix ``top_k`` (``best`` is always retained)."""
    if top_k is None or len(decision.ranking) <= top_k:
        return decision
    return dataclasses.replace(decision, ranking=decision.ranking[:top_k])


class Sage:
    """The format predictor, bound to one accelerator + DRAM configuration.

    Every entry point accepts the same consolidated option set, either as
    one typed :class:`~repro.api.options.PredictOptions` object
    (``options=``) or as the equivalent keyword arguments (which override
    the object's fields).  Most callers should prefer the
    :class:`~repro.api.session.Session` facade, which fronts this class
    and the remote serving backend with one surface; ``Sage`` remains the
    stable in-process primitive underneath.
    """

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        dram: DramChannel | None = None,
        provider: ConversionProvider | None = mint_provider,
        calibration: CalibrationTable | None = None,
    ) -> None:
        self.config = config or AcceleratorConfig.paper_default()
        self.dram = dram or DramChannel(clock_hz=self.config.clock_hz)
        self.provider = provider
        #: Calibrated-tier correction table.  ``None`` defers to the
        #: default artifact store on first calibrated prediction (see
        #: :meth:`ensure_calibration`); pass one explicitly for scratch
        #: stores or embedded servers.  Plain attribute, so it pickles
        #: with the predictor.
        self.calibration = calibration

    def ensure_calibration(self) -> CalibrationTable:
        """The calibration table for this config, loading it if needed.

        Raises a :class:`~repro.errors.PredictionError` naming the
        rebuild command when no (non-stale) table exists — the calibrated
        tier never silently answers with uncorrected numbers.
        """
        if self.calibration is None:
            table = load_default_table(self.config)
            if table is None:
                raise PredictionError(
                    "no calibration table for this accelerator config "
                    "(stale or never built) — build one with "
                    "'repro calibrate', or pass Sage(calibration=...)"
                )
            self.calibration = table
        return self.calibration

    def for_options(self, options: PredictOptions) -> "Sage":
        """The predictor matching *options*' hardware overrides.

        Requests that carry ``options.config`` / ``options.dram_gbps``
        (the ``repro.tune`` evaluation path) are answered by a derived
        ``Sage`` bound to that hardware; everything else — search spaces,
        the conversion provider, proxy caches (process-global) — is
        shared.  Requests without overrides get ``self`` back, so the
        resident predictor's identity (and anything keyed on it) is
        untouched on the normal path.
        """
        if not options.overrides_hardware:
            return self
        config = options.config or self.config
        if options.dram_gbps is not None:
            dram = DramChannel(
                bandwidth_bytes_per_s=options.dram_gbps * 1e9,
                clock_hz=config.clock_hz,
                energy=self.dram.energy,
            )
        else:
            dram = DramChannel(
                bandwidth_bytes_per_s=self.dram.bandwidth_bytes_per_s,
                clock_hz=config.clock_hz,
                energy=self.dram.energy,
            )
        return Sage(config=config, dram=dram, provider=self.provider)

    @staticmethod
    def _strip_hardware(options: PredictOptions) -> PredictOptions:
        """Drop the override fields once a derived predictor owns them."""
        return dataclasses.replace(options, config=None, dram_gbps=None)

    def predict_matrix(
        self,
        workload: MatrixWorkload,
        *,
        options: PredictOptions | None = None,
        fixed_mcf: tuple[Format, Format] | None = None,
        mcf_a_space: tuple[Format, ...] | None = None,
        mcf_b_space: tuple[Format, ...] | None = None,
        fidelity: str | None = None,
    ) -> SageDecision:
        """Search the matrix MCF/ACF space for *workload*.

        ``fixed_mcf`` restricts the search to ACFs (and the conversion plan)
        when the programmer has already committed a storage format;
        ``mcf_a_space`` / ``mcf_b_space`` restrict single operands (used by
        the pipeline planner, where a stage inherits its predecessor's
        output format).  ``fidelity="cycle"`` re-ranks the analytical top-k
        through the cycle simulator (see the module docstring).  The same
        knobs (plus ``top_k`` ranking truncation) can arrive bundled as
        one ``options`` object; explicit keywords override its fields.
        """
        opts = resolve_options(
            options,
            fixed_mcf=fixed_mcf,
            mcf_a_space=mcf_a_space,
            mcf_b_space=mcf_b_space,
            fidelity=fidelity,
        )
        if opts.overrides_hardware:
            return self.for_options(opts).predict_matrix(
                workload, options=self._strip_hardware(opts)
            )
        with span("sage.enumerate", workload=workload.name):
            menu = price_matrix_menu(
                workload,
                *matrix_grid(**opts.search_kwargs()),
                config=self.config,
                dram=self.dram,
                provider=self.provider,
            )
        _count_candidates("matrix", menu)
        decision = self._decide(workload.name, menu)
        if opts.fidelity == "cycle":
            with span("sage.rerank", workload=workload.name):
                decision = self._cycle_rerank(workload, decision)
        elif opts.fidelity == "calibrated":
            with span("sage.calibrate", workload=workload.name):
                decision = self._calibrated_rerank(workload, decision)
        elif opts.fidelity not in (None, "analytical"):
            # A tier registered in FIDELITIES but not dispatched above
            # must fail loudly, not silently answer analytically.
            raise PredictionError(
                f"fidelity {opts.fidelity!r} is registered but not "
                f"implemented by this predictor"
            )
        _PREDICTIONS.inc(fidelity=decision.fidelity)
        return truncate_ranking(decision, opts.top_k)

    def predict_tensor(
        self,
        workload: TensorWorkload,
        *,
        options: PredictOptions | None = None,
        fixed_mcf: tuple[Format, Format] | None = None,
        fidelity: str | None = None,
    ) -> SageDecision:
        """Search the 3-D tensor MCF/ACF space for *workload*.

        Options the tensor search cannot honor are rejected with a
        :class:`~repro.errors.PredictionError` (never silently ignored):
        per-operand MCF spaces have no tensor equivalent, and cycle
        fidelity needs the matrix simulator.
        """
        opts = resolve_options(options, fixed_mcf=fixed_mcf, fidelity=fidelity)
        if opts.overrides_hardware:
            return self.for_options(opts).predict_tensor(
                workload, options=self._strip_hardware(opts)
            )
        unsupported = [
            name
            for name in ("mcf_a_space", "mcf_b_space")
            if getattr(opts, name) is not None
        ]
        if unsupported:
            raise PredictionError(
                f"{', '.join(unsupported)} not supported for 3-D tensor "
                f"workloads (per-operand MCF spaces are a matrix-search "
                f"restriction; use fixed_mcf to pin both tensor operands)"
            )
        if opts.fidelity in ("cycle", "calibrated"):
            raise PredictionError(
                f"{opts.fidelity} fidelity requires the matrix simulator; "
                f"3-D tensor kernels are analytical-only (matricized "
                f"streaming specs)"
            )
        with span("sage.enumerate", workload=workload.name):
            menu = price_tensor_menu(
                workload,
                *tensor_grid(fixed_mcf=opts.fixed_mcf),
                config=self.config,
                dram=self.dram,
                provider=self.provider,
            )
        _count_candidates("tensor", menu)
        decision = self._decide(workload.name, menu)
        _PREDICTIONS.inc(fidelity=decision.fidelity)
        return truncate_ranking(decision, opts.top_k)

    def predict(
        self,
        workload: MatrixWorkload | TensorWorkload,
        *,
        options: PredictOptions | None = None,
        fixed_mcf: tuple[Format, Format] | None = None,
        mcf_a_space: tuple[Format, ...] | None = None,
        mcf_b_space: tuple[Format, ...] | None = None,
        fidelity: str | None = None,
    ) -> SageDecision:
        """Dispatch on workload arity (matrix vs 3-D tensor).

        Accepts the full option set of :meth:`predict_matrix`; tensor
        workloads reject matrix-only restrictions with a clear
        :class:`~repro.errors.PredictionError` instead of dropping them.
        """
        opts = resolve_options(
            options,
            fixed_mcf=fixed_mcf,
            mcf_a_space=mcf_a_space,
            mcf_b_space=mcf_b_space,
            fidelity=fidelity,
        )
        if isinstance(workload, TensorWorkload):
            return self.predict_tensor(workload, options=opts)
        return self.predict_matrix(workload, options=opts)

    # ------------------------------------------------------ cycle fidelity --
    def _cycle_rerank(
        self,
        workload: MatrixWorkload,
        analytical: SageDecision,
        *,
        top: int = CYCLE_TOP_K,
        seed: int = 0,
    ) -> SageDecision:
        """Re-rank the analytical top-k with the cycle-level simulator.

        Operands with the workload's exact statistics are drawn as
        coordinates (seeded, hence deterministic), encoded once per
        distinct ACF straight from them (no dense array is built), and
        batch-simulated.  Because candidates reuse one encoded object per
        ACF, ``simulate_many`` (which keys jobs on operand identity) runs
        each distinct ACF pair once, hands every candidate on that pair the
        same report, and prepares each stationary operand once for the
        whole batch.  The batch computes reports only (no output matrix),
        from one statistics pass per operand.  The
        candidates are :func:`_rerank_menu`'s: extra streamable ACFs
        outside the analytical space join paired with the analytical
        winner's stationary ACF and MCFs.  All candidates share
        DRAM/conversion pricing from
        :func:`~repro.sage.cost_model.price_matrix_io` at the simulated
        scale, so EDPs are comparable within the ranking.
        """
        sim_wl = _proxy_workload(workload, SIM_CAP_ELEMENTS)
        a_shape, b_shape = (sim_wl.m, sim_wl.k), (sim_wl.k, sim_wl.n)
        a_coords = random_sparse_coords(*a_shape, sim_wl.nnz_a, seed)
        b_coords = random_sparse_coords(*b_shape, sim_wl.nnz_b, seed + 1)
        encoded_a: dict[Format, object] = {}
        encoded_b: dict[Format, object] = {}
        jobs, plans = [], []
        for (mcf, acf), _cand in _rerank_menu(analytical, top):
            try:
                io = price_matrix_io(
                    sim_wl, mcf, acf,
                    config=self.config, dram=self.dram, provider=self.provider,
                )
            except ConversionError:
                continue  # no MINT route to this ACF from this MCF
            if io is None:
                continue
            if acf[0] not in encoded_a:
                encoded_a[acf[0]] = matrix_class(acf[0]).from_coords(
                    a_shape, *a_coords
                )
            if acf[1] not in encoded_b:
                cls = CscMatrix if acf[1] is Format.CSC else DenseMatrix
                encoded_b[acf[1]] = cls.from_coords(b_shape, *b_coords)
            jobs.append((encoded_a[acf[0]], acf[0], encoded_b[acf[1]], acf[1]))
            plans.append(io)
        if not jobs:
            raise PredictionError(
                f"no cycle-simulatable candidate for {workload.name}"
            )
        sim = WeightStationarySimulator(self.config)
        reports = sim.simulate_many(jobs)
        measured = [
            io.complete(run.cycles.total_cycles, run.energy.total_j)
            for io, run in zip(plans, reports)
        ]
        ranking = tuple(sorted(measured, key=lambda c: c.edp))
        return SageDecision(
            workload_name=workload.name,
            best=ranking[0],
            ranking=ranking,
            fidelity="cycle",
            sim_scale=(
                (sim_wl.m * sim_wl.k * sim_wl.n)
                / (workload.m * workload.k * workload.n)
            ),
        )

    # -------------------------------------------------- calibrated fidelity --
    def _calibrated_rerank(
        self,
        workload: MatrixWorkload,
        analytical: SageDecision,
        *,
        top: int = CYCLE_TOP_K,
    ) -> SageDecision:
        """Re-rank the cycle tier's candidate menu through the calibration
        table.

        The menu is :meth:`_cycle_rerank`'s (:func:`_rerank_menu`) — the
        analytical top-``top`` plus registry-only streamed ACFs paired
        with the winner's stationary side — so the tier approximates what
        the simulator *would* rank, at dict-lookup cost.  Each candidate's
        compute stage is rescaled by its (kernel, ACF, density-band)
        correction factor; untrained analytical pairs keep their
        uncalibrated numbers (factor 1), while registry extras only join
        when a factor was actually trained (the table never guesses a
        format it has no closed-form model for).  All costs stay at full
        workload scale.
        """
        table = self.ensure_calibration()
        density = workload.density_a
        # (corrected breakdown, producing cell-or-None), same menu as cycle.
        corrected = []
        for (mcf, acf), cand in _rerank_menu(analytical, top):
            if cand is not None:
                corrected.append(table.apply(cand, workload.kernel, density))
                continue
            cell = table.lookup(workload.kernel, acf, density)
            if cell is None:
                continue  # never trained: stay out rather than guess
            try:
                io = price_matrix_io(
                    workload, mcf, acf,
                    config=self.config, dram=self.dram,
                    provider=self.provider,
                )
            except ConversionError:
                continue  # no MINT route to this ACF from this MCF
            if io is None:
                continue
            try:
                run = analytical_gemm_stats(
                    workload.m, workload.k, workload.n,
                    workload.nnz_a, workload.nnz_b,
                    analytical_base_acf(acf[0]), acf[1], self.config,
                )
            except SimulationError:  # pragma: no cover - base is modelled
                continue
            base_cost = io.complete(
                run.cycles.total_cycles, run.energy.total_j
            )
            corrected.append(
                (
                    dataclasses.replace(
                        base_cost,
                        compute_cycles=cell.corrected_cycles(
                            base_cost.compute_cycles
                        ),
                        compute_energy_j=cell.corrected_energy(
                            base_cost.compute_energy_j
                        ),
                    ),
                    cell,
                )
            )
        ranked = sorted(corrected, key=lambda pair: pair[0].edp)
        winner_cell = ranked[0][1]
        return SageDecision(
            workload_name=workload.name,
            best=ranked[0][0],
            ranking=tuple(cost for cost, _cell in ranked),
            fidelity="calibrated",
            sim_scale=1.0,
            error_bound=None if winner_cell is None else winner_cell.bound,
        )

    @staticmethod
    def _decide(name: str, menu: Menu) -> SageDecision:
        if not menu:
            raise PredictionError(f"no feasible MCF/ACF candidate for {name}")
        ranking = menu.ranking()
        return SageDecision(workload_name=name, best=ranking[0], ranking=ranking)


def _rerank_menu(
    analytical: SageDecision, top: int
) -> list[tuple[tuple[FormatPair, FormatPair], CostBreakdown | None]]:
    """The candidate menu both re-ranking tiers score, in order.

    The analytical top-``top`` deduplicated by (MCF, ACF), each with its
    analytical breakdown, then every registry-only streamed ACF (outside
    the analytical space) paired with the winner's stationary ACF and
    MCFs, with ``None`` in place of a breakdown.
    """
    menu: dict[tuple[FormatPair, FormatPair], CostBreakdown | None] = {}
    for cand in analytical.ranking[:top]:
        menu.setdefault((cand.mcf, cand.acf), cand)
    best = analytical.best
    for fmt in streamable_formats():
        if fmt not in MATRIX_ACF_STREAMED:
            menu.setdefault((best.mcf, (fmt, best.acf[1])), None)
    return list(menu.items())


def _count_candidates(kind: str, menu: Menu) -> None:
    """Count a priced grid's cells, feasible and not."""
    cells = len(menu.mcf_pairs) * len(menu.acf_pairs)
    _CANDIDATES.inc(len(menu), kind=kind, feasible="yes")
    _CANDIDATES.inc(cells - len(menu), kind=kind, feasible="no")


def _proxy_workload(wl: MatrixWorkload, cap_elements: int) -> MatrixWorkload:
    """A density-preserving stand-in small enough to simulate.

    Workloads whose operands already fit the cap pass through unchanged
    (the common case for interactive use and tests); larger ones are
    scaled down uniformly, keeping per-operand density and B's
    dense/sparse character, so the simulated ACF ranking reflects the
    original's streaming behaviour.
    """
    biggest = max(wl.m * wl.k, wl.k * wl.n)
    if biggest <= cap_elements:
        return wl
    f = (cap_elements / biggest) ** 0.5

    def scale(d: int) -> int:
        return max(1, int(round(d * f)))

    m, k, n = scale(wl.m), scale(wl.k), scale(wl.n)
    nnz_a = min(m * k, max(1, int(round(wl.density_a * m * k))))
    nnz_b = (
        k * n
        if wl.b_is_dense
        else min(k * n, max(1, int(round(wl.density_b * k * n))))
    )
    return MatrixWorkload(
        name=wl.name,
        kernel=wl.kernel,
        m=m, k=k, n=n,
        nnz_a=nnz_a,
        nnz_b=nnz_b,
        dtype_bits=wl.dtype_bits,
    )

