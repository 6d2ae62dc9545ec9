"""Weight-stationary sparse-accelerator model (paper Sec. IV).

Two coordinated models:

* :mod:`repro.accelerator.simulator` — a cycle-level functional simulator
  of the greedy bus packer, the metadata matching in each PE and the
  output accumulation, computed from one statistics pass per operand.
  It reproduces the Fig. 6 walkthrough cycle-exactly and its output
  equals ``A @ B``.
* :mod:`repro.accelerator.perf_model` — the closed-form analytical model
  SAGE uses (Sec. VI): expectation-based, from summary statistics only.

Both share the beat-packing rules of :mod:`repro.accelerator.stream` and the
tiling rules of :mod:`repro.accelerator.scheduler`.
"""

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.perf_model import (
    analytical_gemm_stats,
    analytical_mttkrp,
    analytical_spttm,
)
from repro.accelerator.protocols import (
    StationaryLayout,
    StreamProtocol,
    register_stationary_layout,
    register_stream_protocol,
    stationary_formats,
    stationary_layout_for,
    stream_protocol_for,
    streamable_formats,
)
from repro.accelerator.report import CycleReport, EnergyReport, RunReport
from repro.accelerator.simulator import WeightStationarySimulator
from repro.accelerator.stream import (
    BeatPlan,
    StreamSpec,
    build_beat_plan,
    stream_beats,
    stream_spec_for,
)

__all__ = [
    "AcceleratorConfig",
    "BeatPlan",
    "CycleReport",
    "EnergyReport",
    "RunReport",
    "StationaryLayout",
    "StreamProtocol",
    "StreamSpec",
    "build_beat_plan",
    "register_stationary_layout",
    "register_stream_protocol",
    "stationary_formats",
    "stationary_layout_for",
    "stream_beats",
    "stream_protocol_for",
    "stream_spec_for",
    "streamable_formats",
    "WeightStationarySimulator",
    "analytical_gemm_stats",
    "analytical_spttm",
    "analytical_mttkrp",
]
