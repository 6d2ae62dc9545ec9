"""Comparison systems: host-device models and Table II accelerator policies.

* :mod:`repro.baselines.cpu` / :mod:`repro.baselines.gpu` — roofline-style
  device models standing in for Intel MKL on the i9-9820X and cuSPARSE /
  cuBLAS on the Titan RTX (the paper's Fig. 5 / 10 / 11 hardware, see
  DESIGN.md substitution table).
* :mod:`repro.baselines.policies` — the format-flexibility policies of
  Table I / Table II (TPU, EIE, SIGMA, ExTensor, NVDLA, software, this
  work).
* :mod:`repro.baselines.evaluate` — run a workload under every policy on
  identical accelerator hardware and report the EDP breakdown (Fig. 12/13).
"""

from repro.baselines.cpu import CpuModel
from repro.baselines.gpu import GpuModel, MMAlgorithm
from repro.baselines.policies import (
    ALL_POLICIES,
    AcceleratorPolicy,
    ConverterKind,
)
from repro.baselines.evaluate import PolicyResult, evaluate_policy, evaluate_all

__all__ = [
    "CpuModel",
    "GpuModel",
    "MMAlgorithm",
    "ALL_POLICIES",
    "AcceleratorPolicy",
    "ConverterKind",
    "PolicyResult",
    "evaluate_policy",
    "evaluate_all",
]
