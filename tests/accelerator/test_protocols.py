"""Streaming-protocol / stationary-layout registries and the simulator.

Covers the pluggable dispatch that replaced the seed's hard-coded format
tuples: registry lookups and their error messages, the ELL protocol
end-to-end, equivalence of the vectorized simulator with the per-beat
oracle of ``_reference_engine``, the ``simulate_many`` batch API, one
streamed-operand pass per GEMM, and dynamic registration of a new
protocol.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference_engine import reference_gemm
from repro.accelerator import AcceleratorConfig, WeightStationarySimulator
from repro.accelerator.protocols import (
    MATRIX_STREAM_PROTOCOLS,
    STATIONARY_LAYOUTS,
    StationaryOperand,
    StreamProtocol,
    register_stationary_layout,
    register_stream_protocol,
    stationary_formats,
    stationary_layout_for,
    stream_protocol_for,
    streamable_formats,
)
from repro.accelerator.stream import StreamSpec
from repro.errors import SimulationError
from repro.formats import (
    CooMatrix,
    CscMatrix,
    CsrMatrix,
    DenseMatrix,
    EllMatrix,
)
from repro.formats.ell import PAD_COL
from repro.formats.registry import Format, matrix_class
from repro.obs import collect_spans, registry
from repro.sage import calibrate
from repro.workloads import random_sparse_matrix
from tests.conftest import make_sparse


@pytest.fixture
def sim():
    return WeightStationarySimulator(AcceleratorConfig.walkthrough())


class TestRegistryLookups:
    def test_streamable_includes_seed_acfs_and_ell(self):
        fmts = streamable_formats()
        for fmt in (Format.DENSE, Format.CSR, Format.CSC, Format.COO,
                    Format.ELL):
            assert fmt in fmts

    def test_stationary_formats(self):
        assert set(stationary_formats()) == {Format.DENSE, Format.CSC}

    def test_unregistered_stream_lookup_names_registered(self):
        with pytest.raises(SimulationError) as err:
            stream_protocol_for(Format.RLC)
        message = str(err.value)
        assert "RLC" in message and "registered" in message
        assert "CSR" in message and "ELL" in message

    def test_unregistered_stationary_lookup_names_registered(self):
        with pytest.raises(SimulationError) as err:
            stationary_layout_for(Format.BSR)
        message = str(err.value)
        assert "BSR" in message and "CSC" in message and "Dense" in message

    def test_spec_only_tensor_protocol_cannot_extract(self, small_matrix):
        proto = stream_protocol_for(Format.CSF, tensor=True)
        assert not proto.streamable
        with pytest.raises(SimulationError) as err:
            proto.extract_entries(DenseMatrix.from_dense(small_matrix), 0, 2)
        assert "slot costs only" in str(err.value)

    def test_wrong_operand_class_rejected(self, small_matrix):
        proto = stream_protocol_for(Format.CSR)
        with pytest.raises(SimulationError) as err:
            proto.extract_entries(DenseMatrix.from_dense(small_matrix), 0, 2)
        assert "CsrMatrix" in str(err.value)


class TestEllEndToEnd:
    @pytest.mark.parametrize("acf_b", [Format.DENSE, Format.CSC])
    @pytest.mark.parametrize("density", [0.05, 0.4, 1.0])
    def test_run_gemm_matches_numpy(self, sim, rng, acf_b, density):
        a_dense = make_sparse(rng, (9, 11), density)
        b_dense = make_sparse(rng, (11, 6), 0.5)
        a = EllMatrix.from_dense(a_dense)
        b_cls = CscMatrix if acf_b is Format.CSC else DenseMatrix
        out, report = sim.run_gemm(a, Format.ELL, b_cls.from_dense(b_dense),
                                   acf_b)
        np.testing.assert_allclose(out, a_dense @ b_dense)
        assert report.cycles.total_cycles > 0

    def test_padding_slots_cost_cycles_but_no_macs(self, sim):
        # One long row forces heavy ELL padding on the others: ELL must
        # stream more cycles than CSR but issue the same matched MACs.
        a_dense = np.zeros((4, 8))
        a_dense[0, :6] = 1.0
        a_dense[1, 0] = a_dense[2, 3] = a_dense[3, 7] = 2.0
        b = DenseMatrix.from_dense(np.ones((8, 3)))
        _, rep_ell = sim.run_gemm(
            EllMatrix.from_dense(a_dense), Format.ELL, b, Format.DENSE
        )
        _, rep_csr = sim.run_gemm(
            CsrMatrix.from_dense(a_dense), Format.CSR, b, Format.DENSE
        )
        assert rep_ell.cycles.stream_cycles > rep_csr.cycles.stream_cycles
        assert rep_ell.cycles.matched_macs == rep_csr.cycles.matched_macs


class TestEngineEquivalence:
    @pytest.mark.parametrize("acf_a", [Format.DENSE, Format.CSR, Format.CSC,
                                       Format.COO, Format.ELL])
    @pytest.mark.parametrize("acf_b", [Format.DENSE, Format.CSC])
    def test_reports_identical(self, sim, rng, acf_a, acf_b):
        a_dense = make_sparse(rng, (8, 10), 0.3)
        b_dense = make_sparse(rng, (10, 5), 0.4)
        a = matrix_class(acf_a).from_dense(a_dense)
        b_cls = CscMatrix if acf_b is Format.CSC else DenseMatrix
        b = b_cls.from_dense(b_dense)
        out_v, rep_v = sim.run_gemm(a, acf_a, b, acf_b)
        out_r, rep_r = reference_gemm(sim.config, a, acf_a, b, acf_b)
        np.testing.assert_allclose(out_v, out_r)
        assert rep_v.cycles == rep_r.cycles
        assert rep_v.energy == rep_r.energy

    # Configs that force K-tiling (4-entry buffers) and many rounds (two
    # PEs), next to one whose schedule fits a single tile and round.
    SCHEDULES = {
        "k_tiled": AcceleratorConfig(num_pes=16, vector_lanes=4,
                                     pe_buffer_bytes=4 * 4, bus_bits=4 * 32),
        "multi_round": AcceleratorConfig(num_pes=2, vector_lanes=4,
                                         pe_buffer_bytes=64 * 4,
                                         bus_bits=3 * 32),
        "k_tiled_multi_round": AcceleratorConfig(num_pes=2, vector_lanes=2,
                                                 pe_buffer_bytes=3 * 4,
                                                 bus_bits=5 * 32),
        "single": AcceleratorConfig(num_pes=64, vector_lanes=4,
                                    pe_buffer_bytes=64 * 4, bus_bits=8 * 32),
    }

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("acf_a", [Format.DENSE, Format.CSR, Format.COO,
                                       Format.ELL, Format.CSC])
    @pytest.mark.parametrize("acf_b", [Format.CSC, Format.DENSE])
    def test_sparse_rows_and_unstreamed_k(self, rng, schedule, acf_a, acf_b):
        # Empty rows of A and reduction indices A never streams: the CAM
        # spill count skips both, and must still match the per-beat model.
        sim = WeightStationarySimulator(self.SCHEDULES[schedule])
        a_dense = make_sparse(rng, (14, 24), 0.35)
        a_dense[[0, 5, 6, 13], :] = 0.0
        a_dense[:, [1, 2, 3, 10, 17, 23]] = 0.0
        b_dense = make_sparse(rng, (24, 9), 0.4)
        b_dense[[4, 11], :] = 0.0  # stationary rows with nothing stored
        a = matrix_class(acf_a).from_dense(a_dense)
        b_cls = CscMatrix if acf_b is Format.CSC else DenseMatrix
        b = b_cls.from_dense(b_dense)
        out_v, rep_v = sim.run_gemm(a, acf_a, b, acf_b)
        out_r, rep_r = reference_gemm(sim.config, a, acf_a, b, acf_b)
        np.testing.assert_allclose(out_v, a_dense @ b_dense)
        np.testing.assert_allclose(out_v, out_r)
        assert rep_v.cycles == rep_r.cycles
        assert rep_v.energy == rep_r.energy
        if schedule.startswith("k_tiled"):
            assert rep_v.cycles.k_tiles > 1
        if schedule.endswith("multi_round"):
            assert rep_v.cycles.rounds > 1
        if acf_b is Format.CSC:
            assert rep_v.cycles.output_spills > 0

    @pytest.mark.parametrize("acf_a", [Format.CSR, Format.CSC])
    def test_tile_with_no_streamed_entries(self, acf_a):
        # A whole K tile of A is zero: that tile streams nothing.
        sim = WeightStationarySimulator(self.SCHEDULES["k_tiled_multi_round"])
        rng = np.random.default_rng(11)
        a_dense = make_sparse(rng, (6, 12), 0.5)
        a_dense[:, :6] = 0.0
        b = CscMatrix.from_dense(make_sparse(rng, (12, 5), 0.5))
        a = matrix_class(acf_a).from_dense(a_dense)
        _, rep_v = sim.run_gemm(a, acf_a, b, Format.CSC)
        _, rep_r = reference_gemm(sim.config, a, acf_a, b, Format.CSC)
        assert rep_v == rep_r


class TestSimulateMany:
    def _jobs(self, rng, count=5):
        jobs = []
        for index in range(count):
            a_dense = make_sparse(rng, (6 + index, 8), 0.3)
            b_dense = make_sparse(rng, (8, 4), 0.5)
            acf_a = (Format.CSR, Format.DENSE, Format.COO, Format.ELL,
                     Format.CSC)[index % 5]
            jobs.append((
                matrix_class(acf_a).from_dense(a_dense), acf_a,
                DenseMatrix.from_dense(b_dense), Format.DENSE,
            ))
        return jobs

    def test_matches_sequential_in_order(self, sim, rng):
        jobs = self._jobs(rng)
        batch = sim.simulate_many(jobs)
        assert len(batch) == len(jobs)
        for job, report in zip(jobs, batch):
            assert report == sim.run_gemm(*job)[1]

    @staticmethod
    def _tiled_sim():
        """4-entry PE buffers, so a K of 20 splits into several K tiles."""
        return WeightStationarySimulator(AcceleratorConfig(
            num_pes=3, vector_lanes=8, pe_buffer_bytes=16, bus_bits=5 * 32,
        ))

    @staticmethod
    def _shared_batch(rng):
        """Every streamable ACF against a shared Dense and a shared CSC
        stationary operand, each job listed twice, interleaved."""
        a_dense = make_sparse(rng, (9, 20), 0.3)
        b_dense = make_sparse(rng, (20, 7), 0.4)
        stationary = [
            (DenseMatrix.from_dense(b_dense), Format.DENSE),
            (CscMatrix.from_dense(b_dense), Format.CSC),
        ]
        distinct = [
            (matrix_class(acf_a).from_dense(a_dense), acf_a, b, acf_b)
            for acf_a in streamable_formats()
            for b, acf_b in stationary
        ]
        return distinct, distinct + distinct[::-1] + distinct[:3]

    @staticmethod
    def _gemms():
        return registry().counter("repro_accel_gemms_total").value()

    def test_repeats_and_shared_stationary_match_run_gemm(self, rng):
        sim = self._tiled_sim()
        distinct, jobs = self._shared_batch(rng)
        before = self._gemms()
        with collect_spans() as spans:
            batch = sim.simulate_many(jobs)
        assert self._gemms() - before == len(distinct)
        # One preparation per stationary operand (Dense and CSC).
        assert spans.summary()["accel.prepare"]["count"] == 2
        assert spans.summary()["accel.gemm"]["count"] == len(distinct)
        assert len(batch) == len(jobs)
        assert any(report.cycles.k_tiles > 1 for report in batch)
        for job, report in zip(jobs, batch):
            assert report == sim.run_gemm(*job)[1]

    def test_repeated_job_shares_the_first_result(self, rng):
        distinct, jobs = self._shared_batch(rng)
        batch = self._tiled_sim().simulate_many(jobs)
        first = {}
        for (a, acf_a, b, acf_b), result in zip(jobs, batch):
            key = (id(a), acf_a, id(b), acf_b)
            assert first.setdefault(key, result) is result
        assert len(first) == len(distinct)

    def test_equal_valued_copies_simulate_separately(self, rng):
        sim = self._tiled_sim()
        a_dense = make_sparse(rng, (6, 20), 0.4)
        b_dense = make_sparse(rng, (20, 5), 0.5)
        a1, a2 = (CsrMatrix.from_dense(a_dense) for _ in range(2))
        b1, b2 = (CscMatrix.from_dense(b_dense) for _ in range(2))
        jobs = [
            (a1, Format.CSR, b1, Format.CSC),
            (a2, Format.CSR, b1, Format.CSC),
            (a1, Format.CSR, b2, Format.CSC),
            (a1, Format.CSR, b1, Format.CSC),
        ]
        before = self._gemms()
        batch = sim.simulate_many(jobs)
        assert self._gemms() - before == 3
        assert batch[3] is batch[0]
        assert batch[1] is not batch[0] and batch[2] is not batch[0]
        assert batch[1] == batch[0] == batch[2]

    def test_calibration_samples_match_per_job_oracle(self):
        cfg = AcceleratorConfig.paper_default()
        for workload in calibrate.GRIDS["tiny"].workloads():
            seed = calibrate._workload_seed(workload)
            a_dense = random_sparse_matrix(
                workload.m, workload.k, workload.nnz_a, seed
            )
            b_dense = random_sparse_matrix(
                workload.k, workload.n, workload.nnz_b, seed + 1
            )
            expected = []
            for acf_a, acf_b in calibrate._acf_pairs():
                b_cls = CscMatrix if acf_b is Format.CSC else DenseMatrix
                _out, run = WeightStationarySimulator(cfg).run_gemm(
                    matrix_class(acf_a).from_dense(a_dense), acf_a,
                    b_cls.from_dense(b_dense), acf_b,
                )
                expected.append((
                    acf_a.value, acf_b.value,
                    run.cycles.total_cycles, run.energy.total_j,
                ))
            samples = calibrate._measure_workload(None, {
                "workload": workload.to_dict(), "seed": seed,
            })["samples"]
            assert [
                (s["acf_a"], s["acf_b"], s["sim_cycles"], s["sim_energy_j"])
                for s in samples
            ] == expected


@st.composite
def _stored_cells(draw, min_k: int = 1):
    """(m, k, cells, values, pad, seed): an operand's stored (row, col)
    cells in storage order, their values (explicit zeros included), extra
    ELL padding slots per row and a seed for the in-row slot order."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(min_k, 12))
    cells = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, k - 1)),
        unique=True, max_size=m * k,
    ))
    values = draw(st.lists(
        st.sampled_from((0.0, -0.0, 1.0, -2.5, 0.125)),
        min_size=len(cells), max_size=len(cells),
    ))
    return m, k, cells, values, draw(st.integers(0, 2)), draw(
        st.integers(0, 2**16)
    )


def _coo_and_ell(m, k, cells, values, pad, seed):
    """The cells as an unsorted COO and as an ELL whose rows keep their
    entries in storage order, with padding slots shuffled among them."""
    rows = np.asarray([r for r, _ in cells], dtype=np.int64)
    cols = np.asarray([c for _, c in cells], dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    coo = CooMatrix((m, k), vals, rows, cols)
    counts = np.bincount(rows, minlength=m)
    width = int(counts.max()) + pad
    col_ids = np.full((m, width), PAD_COL, dtype=np.int64)
    ell_vals = np.zeros((m, width))
    rng = np.random.default_rng(seed)
    for r in range(m):
        slots = np.sort(rng.permutation(width)[: counts[r]])
        col_ids[r, slots] = cols[rows == r]
        ell_vals[r, slots] = vals[rows == r]
    return coo, EllMatrix((m, k), ell_vals, col_ids)


@contextmanager
def _counted_kernels(fmt):
    """Swap *fmt*'s registered protocol for one whose statistics and
    extraction kernels count their calls; yields the counts."""
    proto = stream_protocol_for(fmt)
    calls = {"stats": 0, "extract": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    MATRIX_STREAM_PROTOCOLS.register(dataclasses.replace(
        proto,
        stats=counting("stats", proto.stats),
        extract=counting("extract", proto.extract),
    ))
    try:
        yield calls
    finally:
        MATRIX_STREAM_PROTOCOLS.register(proto)


class TestOneStreamPass:
    """A GEMM reads its streamed operand once: run_gemm's report and
    product both come from one statistics pass, with no extraction, on
    schedules of several K tiles and several column rounds."""

    CONFIG = AcceleratorConfig(
        num_pes=2, vector_lanes=1, pe_buffer_bytes=8, bus_bits=160
    )

    @settings(max_examples=60, deadline=None)
    @given(_stored_cells(min_k=3))
    @example((1, 5, [(0, 3), (0, 0)], [0.0, 2.0], 1, 0))  # m=1, zero
    @example((3, 6, [(1, 5), (1, 4)], [1.0, -2.5], 0, 1))  # empty rows
    @example((2, 8, [], [], 0, 0))  # no entries: width-0 ELL
    @example((2, 8, [], [], 2, 3))  # padding only
    def test_stats_kernel_once_and_no_extraction(self, operand):
        coo, ell = _coo_and_ell(*operand)
        a_dense = coo.to_dense()
        b_dense = np.ones((operand[1], 5))
        b_dense[1::3, 2:] = 0.0
        b_dense[::4, 0] = -1.5
        encoded = {
            Format.DENSE: DenseMatrix.from_dense(a_dense),
            Format.CSR: CsrMatrix.from_dense(a_dense),
            Format.COO: coo,
            Format.ELL: ell,
        }
        sim = WeightStationarySimulator(self.CONFIG)
        for fmt, a in encoded.items():
            for b, acf_b in (
                (DenseMatrix.from_dense(b_dense), Format.DENSE),
                (CscMatrix.from_dense(b_dense), Format.CSC),
            ):
                with _counted_kernels(fmt) as calls:
                    out, report = sim.run_gemm(a, fmt, b, acf_b)
                assert calls == {"stats": 1, "extract": 0}, (fmt, acf_b)
                assert report.cycles.k_tiles > 1 and report.cycles.rounds > 1
                np.testing.assert_allclose(out, a_dense @ b_dense)


class TestDynamicRegistration:
    def test_new_stream_protocol_reaches_run_gemm(self, sim, rng):
        # Registering a protocol is all a format needs to stream: plug a
        # BSR extractor in (via its dense view), run it end-to-end, then
        # restore the registry.
        assert Format.BSR not in MATRIX_STREAM_PROTOCOLS

        @register_stream_protocol(
            Format.BSR,
            spec=StreamSpec(entry_slots=2, shared_slots=1, grouped=True),
        )
        def _extract_bsr(a, lo, hi):
            dense = a.to_dense()[:, lo:hi]
            i, k = np.nonzero(dense)
            return (
                i.astype(np.int64),
                (k + lo).astype(np.int64),
                dense[i, k],
                np.bincount(i, minlength=dense.shape[0]).astype(np.int64),
            )

        try:
            assert Format.BSR in streamable_formats()
            a_dense = make_sparse(rng, (8, 8), 0.4)
            b_dense = make_sparse(rng, (8, 3), 0.5)
            a = matrix_class(Format.BSR).from_dense(a_dense)
            out, _report = sim.run_gemm(
                a, Format.BSR, DenseMatrix.from_dense(b_dense), Format.DENSE
            )
            np.testing.assert_allclose(out, a_dense @ b_dense)
        finally:
            del MATRIX_STREAM_PROTOCOLS._table[Format.BSR]
        assert Format.BSR not in MATRIX_STREAM_PROTOCOLS

    def test_new_stationary_layout_reaches_run_gemm(self, sim, rng):
        assert Format.ELL not in STATIONARY_LAYOUTS

        @register_stationary_layout(Format.ELL, entry_cost=2,
                                    matcher="metadata")
        def _prepare_ell(b) -> StationaryOperand:
            return StationaryOperand(
                source=b, positions=np.nonzero(b.to_dense())
            )

        try:
            a_dense = make_sparse(rng, (6, 7), 0.4)
            b_dense = make_sparse(rng, (7, 4), 0.5)
            out, _report = sim.run_gemm(
                CsrMatrix.from_dense(a_dense), Format.CSR,
                EllMatrix.from_dense(b_dense), Format.ELL,
            )
            np.testing.assert_allclose(out, a_dense @ b_dense)
        finally:
            del STATIONARY_LAYOUTS._table[Format.ELL]

    def test_metadata_layout_must_return_positions(self, sim, rng):
        @register_stationary_layout(Format.ELL, entry_cost=2,
                                    matcher="metadata")
        def _prepare_ell(b) -> StationaryOperand:
            return StationaryOperand(source=b, positions=None)

        try:
            b_dense = make_sparse(rng, (7, 4), 0.5)
            with pytest.raises(SimulationError, match="stored positions"):
                sim.run_gemm(
                    CsrMatrix.from_dense(make_sparse(rng, (6, 7), 0.4)),
                    Format.CSR, EllMatrix.from_dense(b_dense), Format.ELL,
                )
        finally:
            del STATIONARY_LAYOUTS._table[Format.ELL]

    def test_spec_only_registration_is_not_streamable(self):
        proto = StreamProtocol(
            Format.RLC, StreamSpec(entry_slots=2, shared_slots=0,
                                   grouped=False)
        )
        MATRIX_STREAM_PROTOCOLS.register(proto)
        try:
            assert Format.RLC not in streamable_formats()
            assert stream_protocol_for(Format.RLC) is proto
        finally:
            del MATRIX_STREAM_PROTOCOLS._table[Format.RLC]
