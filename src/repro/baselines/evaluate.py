"""Evaluate a workload under every Table II policy (Fig. 12 / 13 / 14c).

Each policy runs on identical hardware; within its admissible format space
it gets the *best* candidate (the evaluation is charitable to baselines —
they are assumed to pick their optimal configuration), costed by the same
SAGE cost model.  Software-converting policies pay the host-library
conversion time plus the PCIe round trip (Fig. 11's overhead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.analysis.compactness import storage_bits
from repro.baselines.cpu import CpuModel
from repro.baselines.gpu import GpuModel
from repro.baselines.policies import (
    ALL_POLICIES,
    AcceleratorPolicy,
    ConverterKind,
)
from repro.errors import PredictionError
from repro.formats.registry import Format
from repro.hardware.dram import DramChannel
from repro.mint.cost import ConversionCost
from repro.sage.cost_model import (
    CostBreakdown,
    mint_provider,
    price_matrix_menu,
)
from repro.workloads.spec import MatrixWorkload


def sw_provider_factory(device: CpuModel | GpuModel, clock_hz: float):
    """Conversion provider that prices conversions on a host device.

    The accelerator stalls for the host wall time (converted to accelerator
    cycles); GPU conversions additionally pay H2D/D2H transfers.
    """

    def provider(
        src: Format,
        dst: Format,
        size: int,
        nnz: int,
        major_dim: int,
        dtype_bits: int,
        tensor: bool,
    ) -> ConversionCost:
        dims = (major_dim, max(1, size // major_dim))
        bytes_in = storage_bits(src, dims, nnz, dtype_bits) / 8.0
        bytes_out = storage_bits(dst, dims, nnz, dtype_bits) / 8.0
        if isinstance(device, GpuModel):
            dev_s, h2d_s, d2h_s = device.conversion_time(bytes_in, bytes_out)
            seconds = dev_s + h2d_s + d2h_s
            energy = device.conversion_energy(seconds)
        else:
            seconds = device.conversion_time(bytes_in, bytes_out)
            energy = device.conversion_energy(seconds)
        return ConversionCost(int(seconds * clock_hz), energy, seconds)

    return provider


@dataclass(frozen=True)
class PolicyResult:
    """Best-candidate cost of one policy on one workload."""

    policy: AcceleratorPolicy
    workload: MatrixWorkload
    best: CostBreakdown

    @property
    def edp(self) -> float:
        """The policy's energy-delay product on this workload."""
        return self.best.edp


def evaluate_policy(
    workload: MatrixWorkload,
    policy: AcceleratorPolicy,
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    sw_device: CpuModel | GpuModel | None = None,
) -> PolicyResult:
    """Best admissible candidate for *policy* on *workload*."""
    cfg = config or AcceleratorConfig.paper_default()
    dram = dram or DramChannel(clock_hz=cfg.clock_hz)
    if policy.converter is ConverterKind.NONE:
        provider = None
    elif policy.converter is ConverterKind.HW:
        provider = mint_provider
    else:
        provider = sw_provider_factory(sw_device or CpuModel(), cfg.clock_hz)

    # The policy's MCF x ACF pair grid; with no converter, the cells whose
    # MCF differs from the ACF are infeasible, as candidates() skips them.
    menu = price_matrix_menu(
        workload,
        policy.mcf_pairs,
        policy.acf_pairs,
        config=cfg,
        dram=dram,
        provider=provider,
        flexible_noc=policy.zero_skipping,
    )
    if not menu:
        raise PredictionError(
            f"policy {policy.name} has no feasible candidate on {workload.name}"
        )
    # argmin keeps the first of equal EDPs, as a strict-< scan would.
    best = menu.row(int(np.argmin(menu.edp())))
    return PolicyResult(policy=policy, workload=workload, best=best)


def evaluate_all(
    workload: MatrixWorkload,
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    sw_device: CpuModel | GpuModel | None = None,
    policies: tuple[AcceleratorPolicy, ...] = ALL_POLICIES,
) -> dict[str, PolicyResult]:
    """Evaluate every Table II policy on *workload*, keyed by policy name."""
    return {
        policy.name: evaluate_policy(
            workload, policy, config=config, dram=dram, sw_device=sw_device
        )
        for policy in policies
    }
