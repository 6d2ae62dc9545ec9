"""Per-config suite evaluation: the tuner's cycles/energy/area objective.

One evaluation prices a whole workload suite on one :class:`TunePoint`:

* **cycles** — the sum of SAGE-chosen best-candidate total cycles across
  the suite, computed through :meth:`Session.predict` with the point's
  hardware shipped as ``PredictOptions(config=..., dram_gbps=...)``.
  That makes every (workload, hardware) pair a servable query: the same
  evaluation runs in-process or against a ``tcp://`` server backend.
* **energy** — DRAM energy plus tech-node-scaled on-chip energy from the
  :mod:`repro.hardware.energy` event prices riding each
  :class:`~repro.sage.cost_model.CostBreakdown`.
* **area** — the PE array priced with :mod:`repro.hardware.area`
  (MAC lanes scaled by datatype width, per-byte buffer area, control,
  and the flexible-PE extension) plus the shared merged MINT converter,
  scaled quadratically by tech node.

This evaluation is the measure of the ``tune_grid`` xp experiment, and
``repro tune`` prices its points as that experiment's cells, so sweeps
resume and ablation-seeded cells are never recomputed.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.api.options import PredictOptions
from repro.hardware.area import DEFAULT_AREA, AreaModel
from repro.mint.designs import MintDesign, mint_area
from repro.obs import span
from repro.tune.space import TunePoint
from repro.workloads.spec import Kernel, MatrixWorkload
from repro.workloads.suite import MATRIX_SUITE

__all__ = [
    "OBJECTIVES",
    "evaluate_with_session",
    "point_area_mm2",
    "suite_names",
    "tune_suite",
]

#: The minimized objective keys, in report order.
OBJECTIVES = ("cycles", "energy_j", "area_mm2")


# ----------------------------------------------------------------- suites --

def _synthetic(name: str, m: int, k: int, n: int, density: float) -> MatrixWorkload:
    return MatrixWorkload(
        name=name,
        kernel=Kernel.SPMM,
        m=m, k=k, n=n,
        nnz_a=max(1, int(density * m * k)),
        nnz_b=k * n,
        dtype_bits=32,
    )


def suite_names() -> tuple[str, ...]:
    """Names :func:`tune_suite` accepts."""
    return ("tiny", "smoke", "tableiii")


def tune_suite(name: str) -> list[MatrixWorkload]:
    """The workload suite a tune run optimizes for.

    ``tiny`` is small enough for cycle-fidelity confirmation in tests;
    ``smoke`` spans the paper's density regions (and an n wide enough
    that PE count matters) while staying analytical-interactive;
    ``tableiii`` is the real Table III matrix suite.
    """
    if name == "tiny":
        return [
            _synthetic("tune_tiny_dense", 96, 96, 48, 0.3),
            _synthetic("tune_tiny_sparse", 96, 96, 48, 0.02),
        ]
    if name == "smoke":
        return [
            _synthetic("tune_smoke_dense", 512, 512, 256, 0.3),
            _synthetic("tune_smoke_wide", 512, 512, 2048, 0.05),
            _synthetic("tune_smoke_hyper", 512, 512, 256, 0.005),
        ]
    if name == "tableiii":
        return [entry.matrix_workload(Kernel.SPMM) for entry in MATRIX_SUITE]
    raise ValueError(
        f"unknown tune suite {name!r} (choose from {', '.join(suite_names())})"
    )


# ------------------------------------------------------------------- area --

def point_area_mm2(point: TunePoint, model: AreaModel = DEFAULT_AREA) -> float:
    """Silicon area (mm²) of one candidate design.

    The PE array reuses the calibrated flexible-PE composition
    (:meth:`AreaModel.pe_extended_area`) with the MAC-lane term scaled by
    datatype width (the model's lane constant is a 32-bit unit), plus one
    shared merged MINT converter; the whole die scales quadratically with
    the tech node à la the CACTI sweeps.
    """
    lane_scale = point.dtype_bits / 32.0
    per_pe = (
        model.pe_mac_lane_area * lane_scale * point.vector_lanes
        + point.pe_buffer_bytes * model.pe_buffer_area_per_byte
        + model.pe_control_area
        + model.pe_extension_area(point.vector_lanes)
    )
    die = point.num_pes * per_pe + mint_area(MintDesign.MERGED, model)
    return die * point.area_scale


# -------------------------------------------------------------- evaluation --

def evaluate_with_session(session, params: Mapping) -> dict:
    """Price one tune cell (a ``{point, suite, fidelity}`` param dict).

    The measure of the ``tune_grid`` xp experiment, through which the
    tuner prices every point.  *session* is
    any :class:`~repro.api.session.Session`-shaped object; the point's
    hardware travels in the options, so local and server backends price
    identically.
    """
    point = TunePoint.from_params(params["point"])
    suite = str(params["suite"])
    fidelity = str(params["fidelity"])
    workloads = [
        dataclasses.replace(wl, dtype_bits=point.dtype_bits)
        for wl in tune_suite(suite)
    ]
    options = PredictOptions(
        fidelity=fidelity,
        config=point.accelerator_config(),
        dram_gbps=point.dram_gbps,
        processes=1,  # the tuner owns the outer fan-out
        top_k=1,
    )
    with span("tune.evaluate", suite=suite, fidelity=fidelity,
              point=point.label()):
        decisions = session.predict(workloads, options)
    cycles = 0
    dram_j = 0.0
    onchip_j = 0.0
    seconds = 0.0
    chosen: dict[str, list[str]] = {}
    for wl, decision in zip(workloads, decisions):
        best = decision.best
        cycles += best.total_cycles
        dram_j += best.dram_energy_j
        onchip_j += best.conv_energy_j + best.compute_energy_j
        seconds += best.seconds
        chosen[wl.name] = [f.value for f in best.mcf] + [f.value for f in best.acf]
    energy_j = dram_j + onchip_j * point.energy_scale
    return {
        "cycles": int(cycles),
        "energy_j": float(energy_j),
        "area_mm2": float(point_area_mm2(point)),
        "edp": float(energy_j * seconds),
        "formats": chosen,
    }
