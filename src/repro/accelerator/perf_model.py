"""Closed-form analytical performance model (SAGE's perf model, Sec. VI).

Every entry point takes only summary statistics (shape and nonzero
counts) and uses the paper's uniform-random-placement assumption ("we
assume a uniform random distribution of the dense values") to produce
expected-value estimates.  This is what SAGE evaluates for the large
Table III workloads; the cycle simulator
(:class:`~repro.accelerator.simulator.WeightStationarySimulator`) is the
one executable model of each ACF's walk.

3-D tensor kernels (SpTTM / MTTKRP) are handled by matricizing the tensor
and re-using the same streaming/tiling machinery with tensor stream specs.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.accounting import energy_report
from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.protocols import stationary_layout_for
from repro.accelerator.report import CycleReport, RunReport
from repro.accelerator.scheduler import CSC_ENTRY_COST
from repro.accelerator.stream import stream_cycles_estimate, stream_spec_for
from repro.errors import SimulationError
from repro.formats.registry import Format
from repro.util.bits import ceil_div

# --------------------------------------------------------------------------
# matrix kernels
# --------------------------------------------------------------------------


def expected_output_nnz(m: int, n: int, k: int, nnz_a: int, nnz_b: int) -> float:
    """Expected nnz of A @ B under uniform-random placement.

    P[O[i,j] != 0] = 1 - (1 - dA*dB)^K with dA, dB the operand densities —
    the same uniform-random assumption as the rest of this model.
    """
    if m * k == 0 or k * n == 0:
        return 0.0
    pa, pb = nnz_a / (m * k), nnz_b / (k * n)
    return float(m) * n * (1.0 - (1.0 - pa * pb) ** k)


#: Occupancy-sideband compression of the flexible NoC: one bit per logical
#: position, packed 32 positions per bus slot.
_SIDEBAND_PACK = 32


def analytical_gemm_stats(
    m: int,
    k: int,
    n: int,
    nnz_a: int,
    nnz_b: int,
    acf_a: Format,
    acf_b: Format,
    config: AcceleratorConfig | None = None,
    *,
    flexible_noc: bool = True,
) -> RunReport:
    """Expected-value model from summary statistics (uniform placement).

    ``flexible_noc=True`` applies the Sec. VI assumption — "a flexible NoC
    to deliver non-zeros from the streaming tensor [5], [19]" — to Dense
    streamed ACFs: zeros are skipped at the source and position information
    travels as a 1-bit-per-position occupancy sideband (packed
    ``_SIDEBAND_PACK`` per slot).  This is what places the Dense/CSR ACF
    crossover near ~1.5% density, matching Table III's decisions (Dense ACF
    down to nd3k's 4.1%, CSR from cavity14's 1.1%).  The cycle simulator,
    like the Fig. 6 walkthrough, streams zeros literally.
    """
    cfg = config or AcceleratorConfig.paper_default()
    stationary_layout_for(acf_b)  # raises naming the registered layouts
    spec = stream_spec_for(acf_a)
    w = cfg.bus_slots
    cap = cfg.pe_buffer_entries
    d_a = nnz_a / (m * k) if m * k else 0.0
    d_b = nnz_b / (k * n) if k * n else 0.0

    # --- tiling & rounds ----------------------------------------------------
    if acf_b is Format.DENSE:
        k_tiles = max(1, ceil_div(k, cap))
        stationary_entries = float(k) * n
    else:
        mean_col = nnz_b / n if n else 0.0
        k_tiles = max(1, ceil_div(int(np.ceil(CSC_ENTRY_COST * mean_col)), cap))
        stationary_entries = float(CSC_ENTRY_COST) * nnz_b
    rounds = max(1, ceil_div(n, cfg.num_pes))
    k_tile = k / k_tiles

    # --- streaming ----------------------------------------------------------
    dense_streams_zeros = acf_a is Format.DENSE and not flexible_noc
    nnz_tile = nnz_a / k_tiles
    if acf_a is Format.DENSE and flexible_noc:
        # Nonzeros plus the packed occupancy sideband, row-grouped; the
        # sideband exists for every row, so every row is a nonempty group.
        per_tile = stream_cycles_estimate(
            nnz_tile + m * k_tile / _SIDEBAND_PACK, float(m), spec, w
        )
        streamed_entries = float(nnz_a)
    elif dense_streams_zeros:
        per_tile = stream_cycles_estimate(m * k_tile, float(m), spec, w)
        streamed_entries = float(m) * k
    elif acf_a is Format.CSR:
        nonempty_rows = m * (1.0 - (1.0 - d_a) ** k_tile)
        per_tile = stream_cycles_estimate(nnz_tile, nonempty_rows, spec, w)
        streamed_entries = float(nnz_a)
    elif acf_a is Format.COO:
        per_tile = stream_cycles_estimate(nnz_tile, 1.0, spec, w)
        streamed_entries = float(nnz_a)
    elif acf_a is Format.CSC:
        nonempty_cols = k_tile * (1.0 - (1.0 - d_a) ** m)
        per_tile = stream_cycles_estimate(nnz_tile, nonempty_cols, spec, w)
        streamed_entries = float(nnz_a)
    else:
        raise SimulationError(
            f"{acf_a} has no statistical streaming model "
            f"(modelled: Dense, CSR, COO, CSC)"
        )
    stream_cycles = float(per_tile) * k_tiles * rounds

    # --- MACs, compares, spills ----------------------------------------------
    useful = nnz_a * nnz_b / k if k else 0.0
    if acf_b is Format.DENSE:
        issued = streamed_entries * n
        compares = 0.0
        if dense_streams_zeros:
            spills = float(m) * n * k_tiles
        elif acf_a in (Format.DENSE, Format.CSR, Format.COO):
            nonempty_rows = m * (1.0 - (1.0 - d_a) ** k_tile)
            spills = nonempty_rows * n * k_tiles
        else:
            spills = streamed_entries * n  # CSC streaming thrashes Oreg
    else:
        if dense_streams_zeros:
            issued = float(m) * nnz_b
            nonempty_cols = n * (1.0 - (1.0 - d_b) ** k_tile)
            spills = float(m) * nonempty_cols * k_tiles
        else:
            issued = useful
            p_hit = 1.0 - (1.0 - d_a * d_b) ** k_tile
            spills = float(m) * n * p_hit * k_tiles
            if acf_a is Format.CSC:
                spills = max(spills, useful)  # run-per-match pessimism
        compares = streamed_entries * nnz_b

    # --- loading -------------------------------------------------------------
    load_cycles = stationary_entries / w + k_tiles * rounds * 0.5

    drain_cycles = spills / w
    compute_cycles = issued / cfg.total_macs
    cycles = CycleReport(
        load_cycles=int(np.ceil(load_cycles)),
        stream_cycles=int(np.ceil(stream_cycles)),
        drain_cycles=int(np.ceil(drain_cycles)),
        compute_cycles=int(np.ceil(compute_cycles)),
        rounds=rounds,
        k_tiles=k_tiles,
        issued_macs=int(np.ceil(issued)),
        matched_macs=int(np.ceil(useful)),
        output_spills=int(np.ceil(spills)),
    )
    energy = energy_report(
        cfg,
        beat_cycles=cycles.stream_cycles,
        entries_loaded=int(np.ceil(stationary_entries)),
        issued_macs=cycles.issued_macs,
        compares=int(np.ceil(compares)),
        spills=cycles.output_spills,
    )
    return RunReport(cycles=cycles, energy=energy)


# --------------------------------------------------------------------------
# 3-D tensor kernels (matricized)
# --------------------------------------------------------------------------


def analytical_spttm(
    shape: tuple[int, int, int],
    nnz: int,
    rank: int,
    acf_t: Format,
    config: AcceleratorConfig | None = None,
) -> RunReport:
    """SpTTM ``Y[i,j,r] = sum_k X[i,j,k] U[k,r]`` with a dense factor.

    The tensor is streamed matricized ((I*J) x K); each PE pins one dense
    factor column (rank-parallel mapping), so stationary footprint is K.
    Output rows are the (i, j) fibers.
    """
    return _tensor_kernel(shape, nnz, rank, acf_t, config, macs_per_nnz=1,
                          gather_b=False)


def analytical_mttkrp(
    shape: tuple[int, int, int],
    nnz: int,
    rank: int,
    acf_t: Format,
    config: AcceleratorConfig | None = None,
) -> RunReport:
    """MTTKRP ``M[i,r] = sum_{j,k} X[i,j,k] B[j,r] C[k,r]``.

    Rank-parallel: PE r pins C[:, r] (footprint K, like SpTTM); the B[j, r]
    coefficients are broadcast per fiber over the bus (a row of B serves
    every PE), charged as gather traffic.  Every nonzero issues two MACs
    (multiply by C, then by B).  Output rows are the roots (i).
    """
    return _tensor_kernel(shape, nnz, rank, acf_t, config, macs_per_nnz=2,
                          gather_b=True)


def _tensor_kernel(
    shape: tuple[int, int, int],
    nnz: int,
    rank: int,
    acf_t: Format,
    config: AcceleratorConfig | None,
    *,
    macs_per_nnz: int,
    gather_b: bool,
) -> RunReport:
    cfg = config or AcceleratorConfig.paper_default()
    i_dim, j_dim, k_dim = (int(s) for s in shape)
    size = i_dim * j_dim * k_dim
    density = nnz / size if size else 0.0
    spec = stream_spec_for(acf_t, tensor=True)
    w = cfg.bus_slots
    cap = cfg.pe_buffer_entries

    k_tiles = max(1, ceil_div(k_dim, cap))
    k_tile = k_dim / k_tiles
    rounds = max(1, ceil_div(rank, cfg.num_pes))

    n_fibers = i_dim * j_dim * (1.0 - (1.0 - density) ** k_dim)
    # Fibers occupied within one k-tile (what CSF streaming groups by).
    fibers_per_tile = i_dim * j_dim * (1.0 - (1.0 - density) ** k_tile)
    if acf_t is Format.DENSE:
        # Flexible NoC (Sec. VI): nonzeros + packed occupancy sideband.
        per_stream = stream_cycles_estimate(
            (nnz + size / _SIDEBAND_PACK) / k_tiles,
            float(i_dim * j_dim),
            spec,
            w,
        )
        streamed_entries = float(nnz)
    elif acf_t is Format.COO:
        per_stream = stream_cycles_estimate(nnz / k_tiles, 1.0, spec, w)
        streamed_entries = float(nnz)
    elif acf_t is Format.CSF:
        per_stream = stream_cycles_estimate(
            nnz / k_tiles, fibers_per_tile, spec, w
        )
        streamed_entries = float(nnz)
    else:
        raise SimulationError(
            f"{acf_t} has no tensor streaming model "
            f"(modelled: Dense, COO, CSF)"
        )
    stream_cycles = float(per_stream) * k_tiles * rounds

    issued = float(macs_per_nnz) * nnz * rank
    useful = float(macs_per_nnz) * nnz * rank
    spills = (
        i_dim * (1.0 - (1.0 - density) ** (j_dim * k_dim))
        if gather_b
        else n_fibers
    ) * rank * k_tiles
    stationary_entries = float(k_dim) * min(rank, cfg.num_pes) * rounds
    if gather_b:
        # One B row (rank wide) broadcast per occupied fiber per tile.
        stationary_entries += fibers_per_tile * k_tiles * min(
            rank, cfg.num_pes
        ) * rounds

    cycles = CycleReport(
        load_cycles=int(np.ceil(stationary_entries / w)),
        stream_cycles=int(np.ceil(stream_cycles)),
        drain_cycles=int(np.ceil(spills / w)),
        compute_cycles=int(np.ceil(issued / cfg.total_macs)),
        rounds=rounds,
        k_tiles=k_tiles,
        issued_macs=int(np.ceil(issued)),
        matched_macs=int(np.ceil(useful)),
        output_spills=int(np.ceil(spills)),
    )
    energy = energy_report(
        cfg,
        beat_cycles=cycles.stream_cycles,
        entries_loaded=int(np.ceil(stationary_entries)),
        issued_macs=cycles.issued_macs,
        compares=0,
        spills=cycles.output_spills,
    )
    return RunReport(cycles=cycles, energy=energy)
