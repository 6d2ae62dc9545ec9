"""Test-only oracle: the per-combo SAGE pricers the menu pricers replaced.

Each candidate is priced from scratch, exactly as the search did before
:func:`~repro.sage.cost_model.price_matrix_menu` and
:func:`~repro.sage.cost_model.price_tensor_menu` factored the separable
terms.  The bodies are kept verbatim (including their summation order) so
``test_menu_parity.py`` can pin the menus wire-identical to them.
"""

from __future__ import annotations

from itertools import product

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.perf_model import (
    analytical_gemm_stats,
    analytical_mttkrp,
    analytical_spttm,
    expected_output_nnz,
)
from repro.analysis.compactness import storage_bits
from repro.errors import PredictionError
from repro.formats.registry import Format
from repro.hardware.dram import DramChannel
from repro.mint.cost import ConversionCost
from repro.sage.cost_model import (
    ConversionProvider,
    CostBreakdown,
    MatrixIoPlan,
    mint_provider,
)
from repro.sage.spaces import OUTPUT_MCF, matrix_grid, tensor_grid
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload


def matrix_combos(**space):
    """Enumerate ((mcf_a, mcf_b), (acf_a, acf_b)) candidates.

    The cells of :func:`~repro.sage.spaces.matrix_grid` (same keywords)
    in row-major order, which is the order ties keep in a ranking.
    """
    return product(*matrix_grid(**space))


def tensor_combos(**space):
    """The cells of :func:`~repro.sage.spaces.tensor_grid`, row-major."""
    return product(*tensor_grid(**space))


def _output_plan(
    m: int,
    n: int,
    out_nnz: float,
    dtype_bits: int,
    allowed: tuple[Format, ...] = OUTPUT_MCF,
) -> tuple[Format, float]:
    """Pick the most compact output MCF: (format, store bits)."""
    best: tuple[Format, float] | None = None
    for fmt in allowed:
        bits = storage_bits(fmt, (m, n), int(round(out_nnz)), dtype_bits)
        if best is None or bits < best[1]:
            best = (fmt, bits)
    assert best is not None
    return best


def price_matrix_io(
    workload: MatrixWorkload,
    mcf: tuple[Format, Format],
    acf: tuple[Format, Format],
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    provider: ConversionProvider | None = mint_provider,
) -> MatrixIoPlan | None:
    """DRAM + conversion pricing of one matrix candidate (no compute)."""
    cfg = config or AcceleratorConfig.paper_default()
    dram = dram or DramChannel(clock_hz=cfg.clock_hz)
    wl = workload
    b = wl.dtype_bits

    # --- DRAM in: both operands at their MCF footprint -----------------------
    bits_a = storage_bits(mcf[0], (wl.m, wl.k), wl.nnz_a, b)
    bits_b = storage_bits(mcf[1], (wl.k, wl.n), wl.nnz_b, b)
    dram_in_cycles = dram.transfer_cycles(int(bits_a + bits_b))
    dram_in_energy = dram.transfer_energy(int(bits_a + bits_b))

    # --- conversions ----------------------------------------------------------
    conv_in = ConversionCost.zero()
    for operand, (src, dst) in enumerate(zip(mcf, acf)):
        if src is dst:
            continue
        if provider is None:
            return None
        if operand == 0:
            size, nnz, major = wl.m * wl.k, wl.nnz_a, wl.m
        else:
            size, nnz, major = wl.k * wl.n, wl.nnz_b, wl.k
        conv_in = conv_in + provider(src, dst, size, nnz, major, b, False)

    # --- DRAM out --------------------------------------------------------------
    out_nnz = expected_output_nnz(wl.m, wl.n, wl.k, wl.nnz_a, wl.nnz_b)
    mcf_out, out_bits = _output_plan(wl.m, wl.n, out_nnz, b)

    return MatrixIoPlan(
        mcf=mcf,
        acf=acf,
        mcf_out=mcf_out,
        dram_in_cycles=dram_in_cycles,
        dram_out_cycles=dram.transfer_cycles(int(out_bits)),
        dram_energy_j=dram_in_energy + dram.transfer_energy(int(out_bits)),
        conv=conv_in,
        clock_hz=cfg.clock_hz,
    )


def evaluate_matrix_combo(
    workload: MatrixWorkload,
    mcf: tuple[Format, Format],
    acf: tuple[Format, Format],
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    provider: ConversionProvider | None = mint_provider,
    flexible_noc: bool = True,
) -> CostBreakdown | None:
    """Price one candidate; ``None`` when it needs an unavailable converter."""
    cfg = config or AcceleratorConfig.paper_default()
    io = price_matrix_io(
        workload, mcf, acf, config=cfg, dram=dram, provider=provider
    )
    if io is None:
        return None
    wl = workload
    run = analytical_gemm_stats(
        wl.m, wl.k, wl.n, wl.nnz_a, wl.nnz_b, acf[0], acf[1], cfg,
        flexible_noc=flexible_noc,
    )
    return io.complete(run.cycles.total_cycles, run.energy.total_j)


def evaluate_tensor_combo(
    workload: TensorWorkload,
    mcf: tuple[Format, Format],
    acf: tuple[Format, Format],
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    provider: ConversionProvider | None = mint_provider,
) -> CostBreakdown | None:
    """Price one tensor-kernel candidate (SpTTM or MTTKRP)."""
    cfg = config or AcceleratorConfig.paper_default()
    dram = dram or DramChannel(clock_hz=cfg.clock_hz)
    wl = workload
    b = wl.dtype_bits
    x, y, z = wl.shape
    rank = wl.rank

    # Factor operands are dense K x rank matrices (one for SpTTM, two for
    # MTTKRP), per Sec. VII-A.
    n_factors = 2 if wl.kernel is Kernel.MTTKRP else 1
    factor_dims = [(z, rank)] if n_factors == 1 else [(y, rank), (z, rank)]

    bits_t = storage_bits(mcf[0], wl.shape, wl.nnz, b)
    bits_f = sum(
        storage_bits(mcf[1], dims, dims[0] * dims[1], b) for dims in factor_dims
    )
    dram_in_cycles = dram.transfer_cycles(int(bits_t + bits_f))
    dram_in_energy = dram.transfer_energy(int(bits_t + bits_f))

    conv = ConversionCost.zero()
    if mcf[0] is not acf[0]:
        if provider is None:
            return None
        conv = conv + provider(mcf[0], acf[0], wl.size, wl.nnz, x, b, True)
    if mcf[1] is not acf[1]:
        if provider is None:
            return None
        for dims in factor_dims:
            conv = conv + provider(
                mcf[1], acf[1], dims[0] * dims[1], dims[0] * dims[1], dims[0], b,
                False,
            )

    if wl.kernel is Kernel.SPTTM:
        run = analytical_spttm(wl.shape, wl.nnz, rank, acf[0], cfg)
        out_elems = x * y * rank  # semi-dense fiber-major output
        out_nnz = x * y * (1.0 - (1.0 - wl.density) ** z) * rank
    elif wl.kernel is Kernel.MTTKRP:
        run = analytical_mttkrp(wl.shape, wl.nnz, rank, acf[0], cfg)
        out_elems = x * rank
        out_nnz = x * (1.0 - (1.0 - wl.density) ** (y * z)) * rank
    else:
        raise PredictionError(f"{wl.kernel} is not a tensor kernel")

    # CSC-encoding a dense stationary factor doubles its buffer footprint;
    # charge the extra load traffic (the search should learn to avoid it).
    extra_cycles = 0
    if acf[1] is Format.CSC:
        extra_entries = sum(d[0] * d[1] for d in factor_dims)
        extra_cycles = extra_entries // cfg.bus_slots

    out_bits = min(
        float(out_elems) * b,  # dense
        out_nnz * (b + 32),  # COO-ish compressed bound
    )
    return CostBreakdown(
        mcf=mcf,
        acf=acf,
        mcf_out=Format.DENSE if out_bits == out_elems * b else Format.COO,
        dram_in_cycles=dram_in_cycles,
        dram_out_cycles=dram.transfer_cycles(int(out_bits)),
        dram_energy_j=dram_in_energy + dram.transfer_energy(int(out_bits)),
        conv_in_cycles=conv.cycles,
        conv_out_cycles=0,
        conv_energy_j=conv.energy_j,
        compute_cycles=run.cycles.total_cycles + extra_cycles,
        compute_energy_j=run.energy.total_j,
        clock_hz=cfg.clock_hz,
    )
