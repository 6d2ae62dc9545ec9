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
conversion(operand, MCF→ACF) + compute(ACF pair) + output(workload) — and
every menu SAGE searches is a grid of MCF pairs × ACF pairs.  The menu
pricers (:func:`price_matrix_menu`, :func:`price_tensor_menu`) therefore
price each term once per distinct key and broadcast the terms over the
grid into numpy columns, a :class:`Menu`.  :meth:`Menu.ranking` orders its
feasible cells by EDP with one stable argsort; the :class:`Ranking` it
returns builds a :class:`CostBreakdown` only when that row is read.

The output is written back in the cheapest output MCF.  Every evaluated
accelerator is granted a native output encoder (EIE emits Dense(O),
ExTensor CSR(O), NVDLA ZVC(O) straight from their output buffers), so
output compression charges no conversion cost for any policy — otherwise
output-write energy would dominate every comparison on very sparse
outputs, which the paper's Fig. 12/13 ratios (EIE max 99%) rule out.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable

import numpy as np

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
from repro.mint.cost import ConversionCost, shared_planner
from repro.sage.spaces import OUTPUT_MCF, FormatPair
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


#: Format pair -> its canonical tuple (built once, never changed).  Every
#: menu and breakdown unpickled in this process shares one tuple per
#: pair, so a cache of decisions shipped from other processes holds each
#: pair once.
_PAIRS: dict[FormatPair, FormatPair] = {
    pair: pair for pair in product(Format, Format)
}


def _canonical(pairs: Iterable[FormatPair]) -> tuple[FormatPair, ...]:
    return tuple(_PAIRS.get(pair, pair) for pair in pairs)


# Slots and a positional reduce keep the rows a ranking builds small.  A
# ranking that crosses a process boundary by pickle travels as its menu's
# columns, never as rows: see :class:`Ranking`.
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
            _unpickle_cost,
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


def _unpickle_cost(
    mcf: FormatPair, acf: FormatPair, *fields
) -> CostBreakdown:
    return CostBreakdown(_PAIRS.get(mcf, mcf), _PAIRS.get(acf, acf), *fields)


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


class Menu:
    """The feasible cells of one priced MCF-pair x ACF-pair grid, as columns.

    Rows are feasible cells.  A menu fresh from a pricer keeps them in
    row-major (enumeration) order; :meth:`take` reorders them.  The DRAM
    term is held once per MCF pair and the compute term once per ACF pair;
    each row holds its pair indices and its conversion term.  :meth:`row`
    builds a row's :class:`CostBreakdown` on first read and keeps it, so
    reading a row twice returns the same object.
    """

    __slots__ = (
        "mcf_pairs", "acf_pairs", "mcf_out", "dram_out_cycles", "clock_hz",
        "dram_in_cycles", "dram_energy_j", "compute_cycles",
        "compute_energy_j", "mcf_index", "acf_index", "conv_in_cycles",
        "conv_energy_j", "_rows",
    )

    def __init__(
        self,
        mcf_pairs: tuple[FormatPair, ...],
        acf_pairs: tuple[FormatPair, ...],
        mcf_out: Format,
        dram_out_cycles: int,
        clock_hz: float,
        dram_in_cycles: tuple[int, ...],
        dram_energy_j: tuple[float, ...],
        compute_cycles: tuple[int, ...],
        compute_energy_j: tuple[float, ...],
        mcf_index: np.ndarray,
        acf_index: np.ndarray,
        conv_in_cycles: np.ndarray,
        conv_energy_j: np.ndarray,
    ) -> None:
        self.mcf_pairs, self.acf_pairs = mcf_pairs, acf_pairs
        self.mcf_out, self.clock_hz = mcf_out, clock_hz
        self.dram_out_cycles = dram_out_cycles
        # Per MCF pair.
        self.dram_in_cycles, self.dram_energy_j = dram_in_cycles, dram_energy_j
        # Per ACF pair (0 for a pair no feasible row uses).
        self.compute_cycles = compute_cycles
        self.compute_energy_j = compute_energy_j
        # Per row.
        self.mcf_index, self.acf_index = mcf_index, acf_index
        self.conv_in_cycles, self.conv_energy_j = conv_in_cycles, conv_energy_j
        self._rows: dict[int, CostBreakdown] = {}

    def __len__(self) -> int:
        return len(self.mcf_index)

    def _grid_fields(self) -> tuple:
        """The constructor's leading, not per-row, arguments."""
        return (
            self.mcf_pairs, self.acf_pairs, self.mcf_out,
            self.dram_out_cycles, self.clock_hz, self.dram_in_cycles,
            self.dram_energy_j, self.compute_cycles, self.compute_energy_j,
        )

    def __reduce__(self):
        # Built rows stay behind: a menu pickles as its columns.
        return (
            _unpickle_menu,
            (
                *self._grid_fields(), self.mcf_index, self.acf_index,
                self.conv_in_cycles, self.conv_energy_j,
            ),
        )

    def take(self, index: np.ndarray) -> "Menu":
        """A new menu of the rows at *index*, in that order."""
        return Menu(
            *self._grid_fields(),
            self.mcf_index[index], self.acf_index[index],
            self.conv_in_cycles[index], self.conv_energy_j[index],
        )

    def edp(self) -> np.ndarray:
        """Every row's :attr:`CostBreakdown.edp`, bit for bit.

        Summed in the breakdown's own order: energy is ``(DRAM +
        conversion) + compute`` and cycles ``ingest + compute +
        writeback``, divided by the clock.  Writeback is the DRAM-out
        term alone, as output compression charges no cycles.
        """
        mcf, acf = self.mcf_index, self.acf_index
        energy = (
            np.asarray(self.dram_energy_j)[mcf] + self.conv_energy_j
        ) + np.asarray(self.compute_energy_j)[acf]
        ingest = np.maximum(
            np.asarray(self.dram_in_cycles, np.int64)[mcf], self.conv_in_cycles
        )
        cycles = (
            ingest + np.asarray(self.compute_cycles, np.int64)[acf]
        ) + self.dram_out_cycles
        return energy * (cycles / self.clock_hz)

    def row(self, i: int) -> CostBreakdown:
        """Row *i* as a :class:`CostBreakdown`, built on first read."""
        cost = self._rows.get(i)
        if cost is None:
            p, q = self.mcf_index.item(i), self.acf_index.item(i)
            built = CostBreakdown(
                self.mcf_pairs[p],
                self.acf_pairs[q],
                self.mcf_out,
                self.dram_in_cycles[p],
                self.dram_out_cycles,
                self.dram_energy_j[p],
                self.conv_in_cycles.item(i),
                0,
                self.conv_energy_j.item(i),
                self.compute_cycles[q],
                self.compute_energy_j[q],
                self.clock_hz,
            )
            # Threads racing on one row all get the first stored object.
            cost = self._rows.setdefault(i, built)
        return cost

    def ranking(self) -> "Ranking":
        """The rows by ascending EDP; equal EDPs keep their row order."""
        return Ranking(self.take(np.argsort(self.edp(), kind="stable")))


class Ranking(Sequence):
    """A :class:`Menu`'s rows in order: a lazy ``Sequence[CostBreakdown]``.

    Indexing builds (and the menu keeps) only the rows read, so
    ``ranking[0] is ranking[0]``; a slice is another view of the same
    menu, sharing its built rows.  A ranking equals any sequence holding
    equal rows in the same order, hashes like ``tuple(ranking)``, and
    pickles as the columns of the rows it views.
    """

    __slots__ = ("_menu", "_span")

    def __init__(self, menu: Menu, span: range | None = None) -> None:
        self._menu = menu
        self._span = range(len(menu)) if span is None else span

    def __len__(self) -> int:
        return len(self._span)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Ranking(self._menu, self._span[index])
        return self._menu.row(self._span[index])

    def __iter__(self):
        return map(self._menu.row, self._span)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Ranking(<{len(self)} candidates>)"

    def __reduce__(self):
        menu, span = self._menu, self._span
        # The head row ships too when built: a decision's ``best`` is that
        # object, so pickle stores it once and ``best is ranking[0]``
        # still holds after the round trip.
        head = menu._rows.get(span[0]) if span else None
        if span != range(len(menu)):
            menu = menu.take(np.arange(span.start, span.stop, span.step))
        return (_unpickle_ranking, (menu, head))


def _unpickle_menu(
    mcf_pairs: tuple[FormatPair, ...], acf_pairs: tuple[FormatPair, ...], *rest
) -> Menu:
    return Menu(_canonical(mcf_pairs), _canonical(acf_pairs), *rest)


def _unpickle_ranking(menu: Menu, head: CostBreakdown | None) -> Ranking:
    if head is not None:
        menu._rows[0] = head
    return Ranking(menu)


#: One conversion term over a grid: (cycles, joules, feasible), each of
#: shape (MCF pairs, ACF pairs).
_GridTerm = tuple[np.ndarray, np.ndarray, np.ndarray]


def _conversion_grid(
    mcf_pairs: tuple[FormatPair, ...],
    acf_pairs: tuple[FormatPair, ...],
    side: int,
    price: Callable[[Format, Format], ConversionCost] | None,
) -> _GridTerm:
    """One operand's conversion term over an MCF-pair x ACF-pair grid.

    ``price(src, dst)`` is called once per distinct conversion the grid
    needs; cells whose operand keeps its format cost nothing.  With
    ``price=None`` no conversion is possible, so the cells needing one
    are infeasible.
    """
    srcs = tuple(dict.fromkeys(pair[side] for pair in mcf_pairs))
    dsts = tuple(dict.fromkeys(pair[side] for pair in acf_pairs))
    cycles = np.zeros((len(srcs), len(dsts)), np.int64)
    energy = np.zeros(cycles.shape)
    feasible = np.ones(cycles.shape, bool)
    for i, src in enumerate(srcs):
        for j, dst in enumerate(dsts):
            if src is dst:
                continue
            if price is None:
                feasible[i, j] = False
            else:
                cost = price(src, dst)
                cycles[i, j], energy[i, j] = cost.cycles, cost.energy_j
    cells = np.ix_(
        [srcs.index(pair[side]) for pair in mcf_pairs],
        [dsts.index(pair[side]) for pair in acf_pairs],
    )
    return cycles[cells], energy[cells], feasible[cells]


class _MatrixTerms:
    """The separable cost terms of one matrix workload.

    A candidate's cost is DRAM-in(MCF pair) + conversion(operand, MCF ->
    ACF) + compute(ACF pair) + output(workload).  One instance lives for
    one pricing call and is then dropped, so no state outlives the search
    that used it.
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

    def _operand_bits(self, operand: int, fmt: Format) -> float:
        bits = self._bits.get((operand, fmt))
        if bits is None:
            dims, nnz, _major = self._operands[operand]
            bits = storage_bits(fmt, dims, nnz, self.workload.dtype_bits)
            self._bits[operand, fmt] = bits
        return bits

    def ingest(self, mcf: FormatPair) -> tuple[int, float]:
        """(DRAM-in cycles, DRAM-in + DRAM-out joules) of an MCF pair."""
        cycles, energy = _transfer(
            self.dram,
            self._operand_bits(0, mcf[0]) + self._operand_bits(1, mcf[1]),
        )
        return cycles, energy + self._out_energy

    def convert(self, operand: int, src: Format, dst: Format) -> ConversionCost:
        """One operand's src -> dst conversion cost."""
        dims, nnz, major = self._operands[operand]
        return self.provider(
            src, dst, dims[0] * dims[1], nnz, major,
            self.workload.dtype_bits, False,
        )

    def conversions(
        self, mcf_pairs: tuple[FormatPair, ...], acf_pairs: tuple[FormatPair, ...]
    ) -> list[_GridTerm]:
        """A's then B's conversion term over the grid (summation order)."""
        return [
            _conversion_grid(
                mcf_pairs, acf_pairs, operand,
                None if self.provider is None else partial(self.convert, operand),
            )
            for operand in (0, 1)
        ]

    def compute(self, acf: FormatPair) -> tuple[int, float]:
        """(cycles, joules) of the analytical compute stage of an ACF pair."""
        wl = self.workload
        run = analytical_gemm_stats(
            wl.m, wl.k, wl.n, wl.nnz_a, wl.nnz_b, acf[0], acf[1],
            self.config, flexible_noc=self.flexible_noc,
        )
        return run.cycles.total_cycles, run.energy.total_j


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
        self._conv_f: dict[
            tuple[Format, Format, tuple[int, int]], ConversionCost
        ] = {}
        self._run: dict[Format, tuple[int, float]] = {}

    def ingest(self, mcf: FormatPair) -> tuple[int, float]:
        """(DRAM-in cycles, DRAM-in + DRAM-out joules) of an MCF pair."""
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
        return cycles, energy + self._out_energy

    def _convert_tensor(self, src: Format, dst: Format) -> ConversionCost:
        wl = self.workload
        return self.provider(
            src, dst, wl.size, wl.nnz, wl.shape[0], wl.dtype_bits, True
        )

    def _convert_factor(
        self, src: Format, dst: Format, dims: tuple[int, int]
    ) -> ConversionCost:
        # Keyed by dims too: MTTKRP factors of equal shape share a price.
        term = self._conv_f.get((src, dst, dims))
        if term is None:
            entries = dims[0] * dims[1]
            term = self._conv_f[src, dst, dims] = self.provider(
                src, dst, entries, entries, dims[0],
                self.workload.dtype_bits, False,
            )
        return term

    def conversions(
        self, mcf_pairs: tuple[FormatPair, ...], acf_pairs: tuple[FormatPair, ...]
    ) -> list[_GridTerm]:
        """The tensor's conversion term, then each factor's (summation
        order)."""
        none = self.provider is None
        terms = [
            _conversion_grid(
                mcf_pairs, acf_pairs, 0, None if none else self._convert_tensor
            )
        ]
        for dims in self._factor_dims:
            terms.append(
                _conversion_grid(
                    mcf_pairs, acf_pairs, 1,
                    None if none else partial(self._convert_factor, dims=dims),
                )
            )
        return terms

    def compute(self, acf: FormatPair) -> tuple[int, float]:
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


def _price_grid(
    terms: _MatrixTerms | _TensorTerms,
    mcf_pairs: Iterable[FormatPair],
    acf_pairs: Iterable[FormatPair],
    clock_hz: float,
) -> Menu:
    """Broadcast *terms* over the grid and keep its feasible cells."""
    mcf_pairs, acf_pairs = tuple(mcf_pairs), tuple(acf_pairs)
    shape = (len(mcf_pairs), len(acf_pairs))
    ingest = [terms.ingest(mcf) for mcf in mcf_pairs]
    conv_cycles = np.zeros(shape, np.int64)
    conv_energy = np.zeros(shape)
    feasible = np.ones(shape, bool)
    # (0 + A) + B, one term at a time as ConversionCost sums them, so the
    # floats match a candidate priced on its own bit for bit.
    for cycles, energy, ok in terms.conversions(mcf_pairs, acf_pairs):
        conv_cycles = conv_cycles + cycles
        conv_energy = conv_energy + energy
        feasible &= ok
    # Compute is priced only for ACF pairs some feasible cell uses.
    used = feasible.any(axis=0).tolist()
    compute = [
        terms.compute(acf) if use else (0, 0.0)
        for acf, use in zip(acf_pairs, used)
    ]
    cells = np.flatnonzero(feasible)  # row-major: enumeration order
    mcf_index, acf_index = np.divmod(cells, max(shape[1], 1))
    index_type = np.min_scalar_type(max(shape))
    return Menu(
        mcf_pairs,
        acf_pairs,
        terms.mcf_out,
        terms.out_cycles,
        clock_hz,
        tuple(cycles for cycles, _ in ingest),
        tuple(energy for _, energy in ingest),
        tuple(cycles for cycles, _ in compute),
        tuple(energy for _, energy in compute),
        mcf_index.astype(index_type),
        acf_index.astype(index_type),
        conv_cycles.ravel()[cells],
        conv_energy.ravel()[cells],
    )


def price_matrix_menu(
    workload: MatrixWorkload,
    mcf_pairs: Iterable[FormatPair],
    acf_pairs: Iterable[FormatPair],
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    provider: ConversionProvider | None = mint_provider,
    flexible_noc: bool = True,
) -> Menu:
    """Price the grid ``mcf_pairs`` x ``acf_pairs`` of matrix candidates.

    The menu's rows are the feasible cells in enumeration order (MCF pair
    outer, ACF pair inner); cells needing a conversion no provider offers
    are dropped.  Each separable term is priced once per distinct key.
    ``flexible_noc=False`` models designs whose fabric cannot skip
    zero-valued operands (TPU, NVDLA): dense ACFs then stream and multiply
    every element.
    """
    cfg = config or AcceleratorConfig.paper_default()
    terms = _MatrixTerms(
        workload,
        cfg,
        dram or DramChannel(clock_hz=cfg.clock_hz),
        provider,
        flexible_noc,
    )
    return _price_grid(terms, mcf_pairs, acf_pairs, cfg.clock_hz)


def price_tensor_menu(
    workload: TensorWorkload,
    mcf_pairs: Iterable[FormatPair],
    acf_pairs: Iterable[FormatPair],
    *,
    config: AcceleratorConfig | None = None,
    dram: DramChannel | None = None,
    provider: ConversionProvider | None = mint_provider,
) -> Menu:
    """Price the grid ``mcf_pairs`` x ``acf_pairs`` of tensor candidates.

    The tensor counterpart of :func:`price_matrix_menu` (SpTTM or MTTKRP);
    pairs are (tensor, factor).
    """
    cfg = config or AcceleratorConfig.paper_default()
    terms = _TensorTerms(
        workload, cfg, dram or DramChannel(clock_hz=cfg.clock_hz), provider
    )
    return _price_grid(terms, mcf_pairs, acf_pairs, cfg.clock_hz)


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
    conv = ConversionCost.zero()
    for operand, (src, dst) in enumerate(zip(mcf, acf)):
        if src is dst:
            continue
        if provider is None:
            return None
        conv = conv + terms.convert(operand, src, dst)
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
