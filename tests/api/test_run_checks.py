"""``Session.run``'s operand check: faults it must catch, and the oracle.

``RunOptions.verify`` checks that the operands the accelerator read hold
exactly the inputs' nonzeros: the statistics pass's streamed entries (a
Dense stream's array) against A's input coordinates, and the stationary
buffers against B's.  Faults are injected at each stage that hands the
simulator an operand — a MINT conversion's output, a stream statistics
kernel's entries and a stationary ``prepare`` hook — and each must make
``Session.run`` raise.  A duplicated streamed entry is among them: the
product assigns streamed entries into place, so a dense check of the
output cannot see it.

The dense check the operand check replaced is kept as the test oracle:
every run of the Table III suite (proxied) and of the perfbench ladder
equals numpy's dense ``A @ B``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from perfbench.inputs import sweep_ops
from repro import Kernel, MatrixWorkload, RunOptions, Session
from repro.accelerator.protocols import (
    MATRIX_STREAM_PROTOCOLS,
    STATIONARY_LAYOUTS,
    StationaryOperand,
)
from repro.errors import SimulationError
from repro.formats.base import coords_to_dense
from repro.formats.registry import Format
from repro.mint.engine import MintEngine
from repro.workloads.suite import MATRIX_SUITE
from repro.workloads.synthetic import random_sparse_coords

SESSION = Session()
FAULTS = ("value", "drop", "move")


def _spgemm(density: float) -> MatrixWorkload:
    m, k, n = 128, 128, 64
    return MatrixWorkload(
        f"checked-{density}", Kernel.SPGEMM, m=m, k=k, n=n,
        nnz_a=round(density * m * k), nnz_b=round(density * k * n),
    )


#: One SpGEMM per (streamed, stationary) ACF pair the ladder runs.  Both
#: operands have zeros, so a cell can move.
CASES = {
    (Format.DENSE, Format.DENSE): _spgemm(0.75),
    (Format.DENSE, Format.CSC): _spgemm(0.2),
    (Format.CSR, Format.CSC): _spgemm(0.02),
    (Format.COO, Format.CSC): _spgemm(0.003),
}
CASE_IDS = [f"{a}-{b}" for a, b in CASES]


def _corrupt_dense(dense: np.ndarray, fault: str) -> np.ndarray:
    """A copy of *dense* with one nonzero altered, dropped or moved to a
    zero position."""
    out = np.array(dense, dtype=np.float64)
    flat = out.reshape(-1)
    nonzero = np.flatnonzero(flat)
    cell = nonzero[len(nonzero) // 2]
    if fault == "value":
        flat[cell] += 1.0
    elif fault == "drop":
        flat[cell] = 0.0
    else:
        free = np.flatnonzero(flat == 0.0)[0]
        flat[free], flat[cell] = flat[cell], 0.0
    return out


def _corrupt_entries(entries, ncols: int, fault: str):
    """Streamed ``(i, k, tile, v)`` entries with one of them altered,
    dropped, moved to a free (row, k) or repeated."""
    i, k, tile, v = (np.array(x) for x in entries)
    j = len(v) // 2
    if fault == "value":
        v[j] += 1.0
    elif fault == "drop":
        i, k, tile, v = (np.delete(x, j) for x in (i, k, tile, v))
    elif fault == "move":
        taken = set(k[i == i[j]].tolist())
        k[j] = next(c for c in range(ncols) if c not in taken)
    else:
        i, k, tile, v = (np.insert(x, j, x[j]) for x in (i, k, tile, v))
    return i, k, tile, v


def _corrupt_conversion(monkeypatch, operand: int, fault: str) -> list:
    """Make MINT's conversion of operand 0 (A) or 1 (B) return a faulty
    operand; returns the list of conversion targets, one per call."""
    convert = MintEngine.convert
    calls = []

    def faulty(engine, obj, target, **kwargs):
        out, report = convert(engine, obj, target, **kwargs)
        calls.append(target)
        if len(calls) - 1 == operand:  # A converts first, then B
            out = type(out).from_dense(_corrupt_dense(out.to_dense(), fault))
        return out, report

    monkeypatch.setattr(MintEngine, "convert", faulty)
    return calls


class TestFaultsAreCaught:
    def test_cases_run_the_acf_pairs_they_name(self):
        for acfs, wl in CASES.items():
            assert SESSION.predict(wl).acf == acfs, wl.name

    @pytest.mark.parametrize("wl", CASES.values(), ids=CASE_IDS)
    def test_correct_operands_pass(self, wl):
        assert SESSION.run(wl).verified is True

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("operand", (0, 1), ids=("A", "B"))
    @pytest.mark.parametrize("wl", CASES.values(), ids=CASE_IDS)
    def test_mint_conversion_output(self, monkeypatch, wl, operand, fault):
        calls = _corrupt_conversion(monkeypatch, operand, fault)
        with pytest.raises(SimulationError, match="input nonzeros"):
            SESSION.run(wl)
        assert len(calls) == 2

    @pytest.mark.parametrize("fault", ("value", "drop"))
    def test_conversion_of_a_full_stationary_operand(self, monkeypatch, fault):
        # SpMM's B stores every position, so nothing can move into a zero.
        m, k, n = 128, 128, 64
        wl = MatrixWorkload("checked-spmm", Kernel.SPMM, m=m, k=k, n=n,
                            nnz_a=round(0.2 * m * k), nnz_b=k * n)
        _corrupt_conversion(monkeypatch, 1, fault)
        with pytest.raises(SimulationError, match="stationary buffers"):
            SESSION.run(wl)

    @pytest.mark.parametrize("fault", (*FAULTS, "duplicate"))
    @pytest.mark.parametrize("acf", (Format.CSR, Format.COO))
    def test_stream_stats_entries(self, monkeypatch, acf, fault):
        wl = CASES[(acf, Format.CSC)]
        proto = MATRIX_STREAM_PROTOCOLS.get(acf)

        def faulty(a, k_tiles):
            stats = proto.stats(a, k_tiles)
            entries = _corrupt_entries(stats.entries, a.ncols, fault)
            return dataclasses.replace(stats, entries=entries)

        monkeypatch.setitem(
            MATRIX_STREAM_PROTOCOLS._table, acf,
            dataclasses.replace(proto, stats=faulty),
        )
        with pytest.raises(SimulationError, match=f"{acf} stream"):
            SESSION.run(wl)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("acf", (Format.DENSE, Format.CSC))
    def test_stationary_prepare(self, monkeypatch, acf, fault):
        wl = CASES[(Format.DENSE, acf)]
        layout = STATIONARY_LAYOUTS.get(acf)

        def faulty(b):
            source = layout.prepare(b).source
            return layout.prepare(type(source).from_dense(
                _corrupt_dense(source.to_dense(), fault)
            ))

        monkeypatch.setitem(
            STATIONARY_LAYOUTS._table, acf,
            dataclasses.replace(layout, prepare=faulty),
        )
        with pytest.raises(SimulationError, match="stationary buffers"):
            SESSION.run(wl)

    def test_stationary_position_missing(self, monkeypatch):
        # The values hold B, but a metadata buffer lost a stored position,
        # so its PEs would never match that nonzero.
        wl = CASES[(Format.DENSE, Format.CSC)]
        layout = STATIONARY_LAYOUTS.get(Format.CSC)

        def faulty(b):
            good = layout.prepare(b)
            k, col = good.positions
            return StationaryOperand(
                source=good.source, positions=(k[1:], col[1:])
            )

        monkeypatch.setitem(
            STATIONARY_LAYOUTS._table, Format.CSC,
            dataclasses.replace(layout, prepare=faulty),
        )
        with pytest.raises(SimulationError, match="stationary buffers"):
            SESSION.run(wl)

    def test_unverified_run_skips_the_check(self, monkeypatch):
        wl = CASES[(Format.CSR, Format.CSC)]
        proto = MATRIX_STREAM_PROTOCOLS.get(Format.CSR)

        def faulty(a, k_tiles):
            stats = proto.stats(a, k_tiles)
            entries = _corrupt_entries(stats.entries, a.ncols, "duplicate")
            return dataclasses.replace(stats, entries=entries)

        monkeypatch.setitem(
            MATRIX_STREAM_PROTOCOLS._table, Format.CSR,
            dataclasses.replace(proto, stats=faulty),
        )
        assert SESSION.run(wl, RunOptions(verify=False)).verified is None


def _oracle_product(result, seed: int) -> np.ndarray:
    """Numpy's dense ``A @ B`` of the operands a run drew from *seed*."""
    sim = result.sim_workload
    a = coords_to_dense(
        (sim.m, sim.k), *random_sparse_coords(sim.m, sim.k, sim.nnz_a, seed)
    )
    b = coords_to_dense(
        (sim.k, sim.n),
        *random_sparse_coords(sim.k, sim.n, sim.nnz_b, seed + 1),
    )
    return a @ b


def _matches(out: np.ndarray, expected: np.ndarray) -> bool:
    """*out* equals *expected* to the last few ulps of its largest entry.

    Both products sum the same terms in different orders, which moves
    them apart by ~1e-16 relative; the default ``allclose`` tolerance
    (1e-5) would let a wrong streamed entry through.
    """
    atol = 1e-12 * float(np.abs(expected).max(initial=0.0))
    return np.allclose(out, expected, rtol=1e-12, atol=atol)


class TestDenseOracle:
    SEED = 3

    @pytest.mark.parametrize("kernel", (Kernel.SPMM, Kernel.SPGEMM))
    def test_table3_suite(self, kernel):
        for entry in MATRIX_SUITE:
            result = SESSION.run(
                entry.matrix_workload(kernel), RunOptions(seed=self.SEED)
            )
            assert result.verified is True
            assert _matches(
                result.output, _oracle_product(result, self.SEED)
            ), entry.name

    def test_perfbench_ladder(self):
        ops = sweep_ops(self.SEED)
        assert len(ops) == 28
        for op in ops:
            result = SESSION.run(op.workload, RunOptions(seed=op.seed))
            assert result.verified is True and result.sim_scale == 1.0
            assert _matches(
                result.output, _oracle_product(result, op.seed)
            ), op.workload.name
