"""SAGE's cost model: DRAM traffic + format conversion + compute.

Sec. VI: "The cost model first predicts the DRAM energy consumption and
transfer cycles cost.  This is directly proportional to the compression
size of the MCF.  Second, to model the conversion cost, we evaluate the
building blocks necessary for each conversion scenario..."  The performance
(compute) model is :mod:`repro.accelerator.perf_model`.

MINT "is pipelined to start conversion while streaming in data from
memory" (Sec. V-B), so the ingest phase costs max(DRAM-in, conversion-in)
cycles and the write-back phase max(DRAM-out, output-compression); compute
follows.  Conversion *energy* is charged in full — it is tiny (Sec. VII-C
reports 0.023% of system energy).

A candidate's cost is a sum of separable terms — DRAM-in(MCF pair) +
conversion(operand, MCF→ACF) + compute(ACF pair) + output(workload) — so
the menu pricers (:func:`price_matrix_menu`, :func:`price_tensor_menu`)
price each term once per distinct key and assemble the candidates from
them.

The output is written back in the cheapest output MCF.  Every evaluated
accelerator is granted a native output encoder (EIE emits Dense(O),
ExTensor CSR(O), NVDLA ZVC(O) straight from their output buffers), so
output compression charges no conversion cost for any policy — otherwise
output-write energy would dominate every comparison on very sparse
outputs, which the paper's Fig. 12/13 ratios (EIE max 99%) rule out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.perf_model import (
    analytical_gemm_stats,
    analytical_mttkrp,
    analytical_spttm,
)
from repro.analysis.compactness import storage_bits
from repro.errors import PredictionError
from repro.formats.registry import Format
from repro.hardware.dram import DramChannel
from repro.kernels.ops import expected_output_nnz
from repro.mint.cost import ConversionCost, shared_planner
from repro.sage.spaces import OUTPUT_MCF
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload

#: Signature of a conversion-cost provider: (src, dst, size, nnz, major_dim,
#: dtype_bits, tensor) -> ConversionCost.  ``None`` means conversions are
#: impossible (Flex Flex None-style accelerators).
ConversionProvider = Callable[
    [Format, Format, int, int, int, int, bool], ConversionCost
]


def mint_provider(
    src: Format,
    dst: Format,
    size: int,
    nnz: int,
    major_dim: int,
    dtype_bits: int,
    tensor: bool,
) -> ConversionCost:
    """The default provider: MINT attached to the accelerator.

    Routed through the process-wide memoized
    :class:`~repro.mint.cost.PathPlanner`, so route planning for a
    (src, dst) pair is shared across searches.
    """
    return shared_planner().estimate(
        src,
        dst,
        size=size,
        nnz=nnz,
        major_dim=major_dim,
        dtype_bits=dtype_bits,
        tensor=tensor,
    )


#: Wire value -> :class:`Format`; a dict lookup is several times cheaper
#: than ``Format(value)`` on the per-reply decode path.
_FORMAT_BY_VALUE: dict[str, Format] = {fmt.value: fmt for fmt in Format}


# Slots and a positional reduce keep a decision's ranking small wherever
# it is cached, including after it crosses a process boundary (serve
# shards ship every computed ranking to the front cache by pickle).
@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Full cost decomposition of one (MCF, ACF) candidate."""

    mcf: tuple[Format, Format]
    acf: tuple[Format, Format]
    mcf_out: Format
    dram_in_cycles: int
    dram_out_cycles: int
    dram_energy_j: float
    conv_in_cycles: int
    conv_out_cycles: int
    conv_energy_j: float
    compute_cycles: int
    compute_energy_j: float
    clock_hz: float

    @property
    def conv_cycles(self) -> int:
        """Total converter-occupied cycles (may be hidden by DRAM)."""
        return self.conv_in_cycles + self.conv_out_cycles

    @property
    def ingest_cycles(self) -> int:
        """DRAM-in overlapped with operand conversion."""
        return max(self.dram_in_cycles, self.conv_in_cycles)

    @property
    def writeback_cycles(self) -> int:
        """DRAM-out overlapped with output compression."""
        return max(self.dram_out_cycles, self.conv_out_cycles)

    @property
    def total_cycles(self) -> int:
        """Pipelined-phase latency in cycles."""
        return self.ingest_cycles + self.compute_cycles + self.writeback_cycles

    @property
    def total_energy_j(self) -> float:
        """Total system energy."""
        return self.dram_energy_j + self.conv_energy_j + self.compute_energy_j

    @property
    def seconds(self) -> float:
        """Wall time at the accelerator clock."""
        return self.total_cycles / self.clock_hz

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds (the SAGE objective)."""
        return self.total_energy_j * self.seconds

    def __reduce__(self):
        return (
            CostBreakdown,
            (
                self.mcf,
                self.acf,
                self.mcf_out,
                self.dram_in_cycles,
                self.dram_out_cycles,
                self.dram_energy_j,
                self.conv_in_cycles,
                self.conv_out_cycles,
                self.conv_energy_j,
                self.compute_cycles,
                self.compute_energy_j,
                self.clock_hz,
            ),
        )

    def to_wire(self) -> dict:
        """JSON-safe wire form (inverse of :meth:`from_wire`).

        Formats travel as their :class:`Format` enum values so any JSON
        client can read them without this package's pickle machinery.
        """
        return {
            "mcf": [self.mcf[0].value, self.mcf[1].value],
            "acf": [self.acf[0].value, self.acf[1].value],
            "mcf_out": self.mcf_out.value,
            "dram_in_cycles": self.dram_in_cycles,
            "dram_out_cycles": self.dram_out_cycles,
            "dram_energy_j": self.dram_energy_j,
            "conv_in_cycles": self.conv_in_cycles,
            "conv_out_cycles": self.conv_out_cycles,
            "conv_energy_j": self.conv_energy_j,
            "compute_cycles": self.compute_cycles,
            "compute_energy_j": self.compute_energy_j,
            "clock_hz": self.clock_hz,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "CostBreakdown":
        """Rebuild a breakdown from its :meth:`to_wire` form."""
        fmt = _FORMAT_BY_VALUE
        mcf, acf = data["mcf"], data["acf"]
        # Positional, in field order: every served reply decodes a ranking
        # prefix, and keyword passing costs a fifth of this call.
        return cls(
            (fmt[mcf[0]], fmt[mcf[1]]),
            (fmt[acf[0]], fmt[acf[1]]),
            fmt[data["mcf_out"]],
            int(data["dram_in_cycles"]),
            int(data["dram_out_cycles"]),
            float(data["dram_energy_j"]),
            int(data["conv_in_cycles"]),
            int(data["conv_out_cycles"]),
            float(data["conv_energy_j"]),
            int(data["compute_cycles"]),
            float(data["compute_energy_j"]),
            float(data["clock_hz"]),
        )


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


@dataclass(frozen=True)
class MatrixIoPlan:
    """Everything about a matrix candidate except its compute stage.

    DRAM traffic and conversion cost depend only on (workload, MCF, ACF) —
    not on how the compute stage is modelled — so both fidelity tiers
    share this pricing: the analytical tier completes it with
    :func:`~repro.accelerator.perf_model.analytical_gemm_stats`, the cycle
    tier with a :class:`~repro.accelerator.report.RunReport` from the
    simulator (:meth:`complete`).
    """

    mcf: tuple[Format, Format]
    acf: tuple[Format, Format]
    mcf_out: Format
    dram_in_cycles: int
    dram_out_cycles: int
    dram_energy_j: float
    conv: ConversionCost
    clock_hz: float

    def complete(
        self, compute_cycles: int, compute_energy_j: float
    ) -> CostBreakdown:
        """Attach a compute stage, closing the breakdown."""
        return CostBreakdown(
            mcf=self.mcf,
            acf=self.acf,
            mcf_out=self.mcf_out,
            dram_in_cycles=self.dram_in_cycles,
            dram_out_cycles=self.dram_out_cycles,
            dram_energy_j=self.dram_energy_j,
            conv_in_cycles=self.conv.cycles,
            conv_out_cycles=0,
            conv_energy_j=self.conv.energy_j,
            compute_cycles=compute_cycles,
            compute_energy_j=compute_energy_j,
            clock_hz=self.clock_hz,
        )


def _transfer(dram: DramChannel, bits: float) -> tuple[int, float]:
    """(cycles, joules) to move *bits* over *dram*."""
    return dram.transfer_cycles(int(bits)), dram.transfer_energy(int(bits))


class _MatrixTerms:
    """The separable cost terms of one matrix workload, priced lazily.

    A candidate's cost is DRAM-in(MCF pair) + conversion(operand, MCF ->
    ACF) + compute(ACF pair) + output(workload); each term is priced the
    first time its key is asked for and reused by every later candidate.
    One instance lives for one pricing call and is then dropped, so no
    state outlives the search that filled it.
    """

    def __init__(
        self,
        workload: MatrixWorkload,
        config: AcceleratorConfig,
        dram: DramChannel,
        provider: ConversionProvider | None,
        flexible_noc: bool = True,
    ) -> None:
        wl = self.workload = workload
        self.config, self.dram, self.provider = config, dram, provider
        self.flexible_noc = flexible_noc
        # Per operand (0 = streamed A, 1 = stationary B): dims, nnz, major.
        self._operands = (
            ((wl.m, wl.k), wl.nnz_a, wl.m),
            ((wl.k, wl.n), wl.nnz_b, wl.k),
        )
        out_nnz = expected_output_nnz(wl.m, wl.n, wl.k, wl.nnz_a, wl.nnz_b)
        self.mcf_out, out_bits = _output_plan(
            wl.m, wl.n, out_nnz, wl.dtype_bits
        )
        self.out_cycles, self._out_energy = _transfer(dram, out_bits)
        self._bits: dict[tuple[int, Format], float] = {}
        self._ingest: dict[tuple[Format, Format], tuple[int, float]] = {}
        self._conv: dict[tuple[int, Format, Format], ConversionCost] = {}
        self._compute: dict[tuple[Format, Format], tuple[int, float]] = {}

    def _operand_bits(self, operand: int, fmt: Format) -> float:
        bits = self._bits.get((operand, fmt))
        if bits is None:
            dims, nnz, _major = self._operands[operand]
            bits = storage_bits(fmt, dims, nnz, self.workload.dtype_bits)
            self._bits[operand, fmt] = bits
        return bits

    def ingest(self, mcf: tuple[Format, Format]) -> tuple[int, float]:
        """(DRAM-in cycles, DRAM-in + DRAM-out joules) of an MCF pair."""
        term = self._ingest.get(mcf)
        if term is None:
            cycles, energy = _transfer(
                self.dram,
                self._operand_bits(0, mcf[0]) + self._operand_bits(1, mcf[1]),
            )
            term = self._ingest[mcf] = (cycles, energy + self._out_energy)
        return term

    def conversion(
        self, mcf: tuple[Format, Format], acf: tuple[Format, Format]
    ) -> ConversionCost | None:
        """Ingest conversion cost; ``None`` when no provider can convert.

        Summed ``(zero + A) + B`` per candidate, never pre-summed, so the
        floats match a from-scratch pricing bit for bit.
        """
        conv = ConversionCost.zero()
        for operand, (src, dst) in enumerate(zip(mcf, acf)):
            if src is dst:
                continue
            if self.provider is None:
                return None
            term = self._conv.get((operand, src, dst))
            if term is None:
                dims, nnz, major = self._operands[operand]
                term = self.provider(
                    src, dst, dims[0] * dims[1], nnz, major,
                    self.workload.dtype_bits, False,
                )
                self._conv[operand, src, dst] = term
            conv = conv + term
        return conv

    def compute(self, acf: tuple[Format, Format]) -> tuple[int, float]:
        """(cycles, joules) of the analytical compute stage of an ACF pair."""
        term = self._compute.get(acf)
        if term is None:
            wl = self.workload
            run = analytical_gemm_stats(
                wl.m, wl.k, wl.n, wl.nnz_a, wl.nnz_b, acf[0], acf[1],
                self.config, flexible_noc=self.flexible_noc,
            )
            term = self._compute[acf] = (
                run.cycles.total_cycles, run.energy.total_j,
            )
        return term


class _TensorTerms:
    """The separable cost terms of one SpTTM/MTTKRP workload.

    Same decomposition as :class:`_MatrixTerms`; the compute stage
    depends on the streamed ACF only (the factor is dense and stationary)
    plus a CSC extra-load term keyed by the stationary ACF.
    """

    def __init__(
        self,
        workload: TensorWorkload,
        config: AcceleratorConfig,
        dram: DramChannel,
        provider: ConversionProvider | None,
    ) -> None:
        wl = self.workload = workload
        self.config, self.dram, self.provider = config, dram, provider
        b = wl.dtype_bits
        x, y, z = wl.shape
        rank = wl.rank
        # Factor operands are dense K x rank matrices (one for SpTTM, two
        # for MTTKRP), per Sec. VII-A.
        if wl.kernel is Kernel.SPTTM:
            self._factor_dims = [(z, rank)]
            out_elems = x * y * rank  # semi-dense fiber-major output
            out_nnz = x * y * (1.0 - (1.0 - wl.density) ** z) * rank
        elif wl.kernel is Kernel.MTTKRP:
            self._factor_dims = [(y, rank), (z, rank)]
            out_elems = x * rank
            out_nnz = x * (1.0 - (1.0 - wl.density) ** (y * z)) * rank
        else:
            raise PredictionError(f"{wl.kernel} is not a tensor kernel")
        out_bits = min(
            float(out_elems) * b,  # dense
            out_nnz * (b + 32),  # COO-ish compressed bound
        )
        self.mcf_out = Format.DENSE if out_bits == out_elems * b else Format.COO
        self.out_cycles, self._out_energy = _transfer(dram, out_bits)
        # CSC-encoding a dense stationary factor doubles its buffer
        # footprint; charge the extra load traffic (the search should
        # learn to avoid it).
        self._csc_extra_cycles = (
            sum(d[0] * d[1] for d in self._factor_dims) // config.bus_slots
        )
        self._bits_t: dict[Format, float] = {}
        self._bits_f: dict[Format, float] = {}
        self._ingest: dict[tuple[Format, Format], tuple[int, float]] = {}
        self._conv_t: dict[tuple[Format, Format], ConversionCost] = {}
        self._conv_f: dict[
            tuple[Format, Format, tuple[int, int]], ConversionCost
        ] = {}
        self._run: dict[Format, tuple[int, float]] = {}

    def ingest(self, mcf: tuple[Format, Format]) -> tuple[int, float]:
        """(DRAM-in cycles, DRAM-in + DRAM-out joules) of an MCF pair."""
        term = self._ingest.get(mcf)
        if term is None:
            wl, b = self.workload, self.workload.dtype_bits
            bits_t = self._bits_t.get(mcf[0])
            if bits_t is None:
                bits_t = storage_bits(mcf[0], wl.shape, wl.nnz, b)
                self._bits_t[mcf[0]] = bits_t
            bits_f = self._bits_f.get(mcf[1])
            if bits_f is None:
                bits_f = sum(
                    storage_bits(mcf[1], dims, dims[0] * dims[1], b)
                    for dims in self._factor_dims
                )
                self._bits_f[mcf[1]] = bits_f
            cycles, energy = _transfer(self.dram, bits_t + bits_f)
            term = self._ingest[mcf] = (cycles, energy + self._out_energy)
        return term

    def conversion(
        self, mcf: tuple[Format, Format], acf: tuple[Format, Format]
    ) -> ConversionCost | None:
        """Ingest conversion cost; ``None`` when no provider can convert.

        The tensor term, then each factor's term one at a time, added to a
        running sum (never pre-summed) to keep from-scratch floats.
        """
        wl, b = self.workload, self.workload.dtype_bits
        conv = ConversionCost.zero()
        if mcf[0] is not acf[0]:
            if self.provider is None:
                return None
            term = self._conv_t.get((mcf[0], acf[0]))
            if term is None:
                term = self.provider(
                    mcf[0], acf[0], wl.size, wl.nnz, wl.shape[0], b, True
                )
                self._conv_t[mcf[0], acf[0]] = term
            conv = conv + term
        if mcf[1] is not acf[1]:
            if self.provider is None:
                return None
            for dims in self._factor_dims:
                term = self._conv_f.get((mcf[1], acf[1], dims))
                if term is None:
                    entries = dims[0] * dims[1]
                    term = self.provider(
                        mcf[1], acf[1], entries, entries, dims[0], b, False
                    )
                    self._conv_f[mcf[1], acf[1], dims] = term
                conv = conv + term
        return conv

    def compute(self, acf: tuple[Format, Format]) -> tuple[int, float]:
        """(cycles, joules) of the analytical compute stage of an ACF pair."""
        run_term = self._run.get(acf[0])
        if run_term is None:
            wl = self.workload
            kernel = (
                analytical_spttm if wl.kernel is Kernel.SPTTM
                else analytical_mttkrp
            )
            run = kernel(wl.shape, wl.nnz, wl.rank, acf[0], self.config)
            run_term = self._run[acf[0]] = (
                run.cycles.total_cycles, run.energy.total_j,
            )
        cycles, energy = run_term
        if acf[1] is Format.CSC:
            cycles += self._csc_extra_cycles
        return cycles, energy


def _assemble(
    terms: _MatrixTerms | _TensorTerms,
    combos: Iterable[tuple[tuple[Format, Format], tuple[Format, Format]]],
    clock_hz: float,
) -> list[CostBreakdown]:
    """The feasible candidates of *combos*, in enumeration order."""
    menu: list[CostBreakdown] = []
    for mcf, acf in combos:
        dram_in_cycles, dram_energy_j = terms.ingest(mcf)
        conv = terms.conversion(mcf, acf)
        if conv is None:
            continue
        compute_cycles, compute_energy_j = terms.compute(acf)
        menu.append(
            CostBreakdown(
                mcf=mcf,
                acf=acf,
                mcf_out=terms.mcf_out,
                dram_in_cycles=dram_in_cycles,
                dram_out_cycles=terms.out_cycles,
                dram_energy_j=dram_energy_j,
                conv_in_cycles=conv.cycles,
                conv_out_cycles=0,
                conv_energy_j=conv.energy_j,
                compute_cycles=compute_cycles,
                compute_energy_j=compute_energy_j,
                clock_hz=clock_hz,
            )
        )
    return menu


def price_matrix_menu(
    workload: MatrixWorkload,
    combos: Iterable[tuple[tuple[Format, Format], tuple[Format, Format]]],
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    provider: ConversionProvider | None = mint_provider,
    flexible_noc: bool = True,
) -> list[CostBreakdown]:
    """Price every feasible ((mcf_a, mcf_b), (acf_a, acf_b)) of *combos*.

    Candidates needing a conversion no provider offers are dropped; the
    rest come back in enumeration order.  Each separable term is priced
    once per distinct key within the call.  ``flexible_noc=False`` models
    designs whose fabric cannot skip zero-valued operands (TPU, NVDLA):
    dense ACFs then stream and multiply every element.
    """
    cfg = config or AcceleratorConfig.paper_default()
    terms = _MatrixTerms(
        workload,
        cfg,
        dram or DramChannel(clock_hz=cfg.clock_hz),
        provider,
        flexible_noc,
    )
    return _assemble(terms, combos, cfg.clock_hz)


def price_tensor_menu(
    workload: TensorWorkload,
    combos: Iterable[tuple[tuple[Format, Format], tuple[Format, Format]]],
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    provider: ConversionProvider | None = mint_provider,
) -> list[CostBreakdown]:
    """Price every feasible ((mcf_t, mcf_f), (acf_t, acf_f)) of *combos*.

    The tensor counterpart of :func:`price_matrix_menu` (SpTTM or MTTKRP).
    """
    cfg = config or AcceleratorConfig.paper_default()
    terms = _TensorTerms(
        workload, cfg, dram or DramChannel(clock_hz=cfg.clock_hz), provider
    )
    return _assemble(terms, combos, cfg.clock_hz)


def price_matrix_io(
    workload: MatrixWorkload,
    mcf: tuple[Format, Format],
    acf: tuple[Format, Format],
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    provider: ConversionProvider | None = mint_provider,
) -> MatrixIoPlan | None:
    """DRAM + conversion pricing of one matrix candidate (no compute).

    ``None`` when the candidate needs a conversion no provider offers.
    """
    cfg = config or AcceleratorConfig.paper_default()
    terms = _MatrixTerms(
        workload, cfg, dram or DramChannel(clock_hz=cfg.clock_hz), provider
    )
    dram_in_cycles, dram_energy_j = terms.ingest(mcf)
    conv = terms.conversion(mcf, acf)
    if conv is None:
        return None
    return MatrixIoPlan(
        mcf=mcf,
        acf=acf,
        mcf_out=terms.mcf_out,
        dram_in_cycles=dram_in_cycles,
        dram_out_cycles=terms.out_cycles,
        dram_energy_j=dram_energy_j,
        conv=conv,
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
    """Price one candidate; ``None`` when it needs an unavailable converter.

    A one-row :func:`price_matrix_menu`.
    """
    menu = price_matrix_menu(
        workload, [(mcf, acf)], config=config, dram=dram, provider=provider,
        flexible_noc=flexible_noc,
    )
    return menu[0] if menu else None


def evaluate_tensor_combo(
    workload: TensorWorkload,
    mcf: tuple[Format, Format],
    acf: tuple[Format, Format],
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    provider: ConversionProvider | None = mint_provider,
) -> CostBreakdown | None:
    """Price one tensor-kernel candidate (SpTTM or MTTKRP).

    A one-row :func:`price_tensor_menu`.
    """
    menu = price_tensor_menu(
        workload, [(mcf, acf)], config=config, dram=dram, provider=provider
    )
    return menu[0] if menu else None
