"""Whole-operand stream statistics against per-tile and per-beat oracles.

The simulator reports a GEMM from statistics taken once per operand and
counts bus beats by composing per-group transition tables.  These tests
pin both against what they replaced, on schedules with many K tiles and
many column rounds (the perfbench workloads run one round only): the
per-beat PE model of ``_reference_engine`` for every report field, and
the Python greedy packer of ``_stream_oracle`` for every beat count and
beat layout.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference_engine import reference_gemm
from _stream_oracle import compute_k_tiles, pack_layout, stream_cycle_count
from repro.accelerator import AcceleratorConfig, WeightStationarySimulator
from repro.accelerator.protocols import (
    _stats_from_entries,
    stream_protocol_for,
    streamable_formats,
)
from repro.accelerator.stream import (
    StreamSpec,
    _group_layout,
    count_beats,
    pack_entries,
)
from repro.formats import CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, EllMatrix
from repro.formats.ell import PAD_COL
from repro.formats.registry import Format, matrix_class

VALUES = (0.0, 0.0, 0.0, 1.0, -2.5, 0.125)


@st.composite
def _schedules(draw):
    """(config, A, B): 2-4 PEs, 2-8 entry PE buffers, 1-8 slot buses
    (down to narrower than one CSR or COO entry), more stationary columns
    than PEs, and A with a zeroed band of reduction indices so that some
    K tiles stream nothing."""
    num_pes = draw(st.integers(2, 4))
    config = AcceleratorConfig(
        num_pes=num_pes,
        vector_lanes=draw(st.integers(1, 4)),
        pe_buffer_bytes=4 * draw(st.integers(2, 8)),
        bus_bits=32 * draw(st.integers(1, 8)),
    )
    m = draw(st.integers(1, 7))
    k = draw(st.integers(1, 20))
    n = draw(st.integers(num_pes + 1, 3 * num_pes + 1))
    a = np.asarray(draw(st.lists(
        st.sampled_from(VALUES), min_size=m * k, max_size=m * k
    ))).reshape(m, k)
    lo = draw(st.integers(0, k))
    a[:, lo : draw(st.integers(lo, k))] = 0.0
    b = np.asarray(draw(st.lists(
        st.sampled_from(VALUES), min_size=k * n, max_size=k * n
    ))).reshape(k, n)
    return config, a, b


def _per_tile_beats(a, acf_a, k_tiles, bus_slots) -> int:
    """Beats to stream each K tile once, each packed by the Python loop."""
    proto = stream_protocol_for(acf_a)
    return sum(
        stream_cycle_count(proto.extract_entries(a, lo, hi)[3], proto.spec,
                           bus_slots)
        for lo, hi in k_tiles
    )


class TestManyTileSchedules:
    @settings(max_examples=60, deadline=None)
    @given(_schedules())
    @example((  # every tile but the last streams nothing
        AcceleratorConfig(num_pes=2, vector_lanes=1, pe_buffer_bytes=8,
                          bus_bits=64),
        np.hstack([np.zeros((3, 6)), np.ones((3, 2))]),
        np.ones((8, 5)),
    ))
    def test_reports_equal_the_per_beat_model(self, schedule):
        config, a_dense, b_dense = schedule
        sim = WeightStationarySimulator(config)
        stationary = (
            (DenseMatrix.from_dense(b_dense), Format.DENSE),
            (CscMatrix.from_dense(b_dense), Format.CSC),
        )
        jobs = [
            (matrix_class(acf_a).from_dense(a_dense), acf_a, b, acf_b)
            for acf_a in streamable_formats()
            for b, acf_b in stationary
        ]
        batch = sim.simulate_many(jobs)
        for job, many in zip(jobs, batch):
            out, report = sim.run_gemm(*job)
            out_ref, report_ref = reference_gemm(config, *job)
            assert report == report_ref == many, job[1::2]
            np.testing.assert_allclose(out, out_ref)
            np.testing.assert_allclose(out, a_dense @ b_dense)
            a, acf_a, b, acf_b = job
            k_tiles = compute_k_tiles(b, acf_b, config.pe_buffer_entries)
            cycles = report.cycles
            assert cycles.stream_cycles == cycles.rounds * _per_tile_beats(
                a, acf_a, k_tiles, config.bus_slots
            )


class TestBeatCount:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 40), max_size=60),
        st.integers(1, 3),
        st.integers(0, 2),
        st.integers(1, 12),
    )
    @example([], 1, 0, 1)
    @example([0, 0, 3], 2, 1, 3)  # one entry plus header fills the bus
    def test_layout_equals_the_python_packer(self, sizes, es, ss, bus):
        spec = StreamSpec(entry_slots=es, shared_slots=ss, grouped=ss > 0)
        sizes = np.asarray(sizes, dtype=np.int64)
        nonempty = sizes[sizes > 0]
        one_tile = np.zeros(len(sizes), dtype=np.int64)
        ones = np.ones(len(sizes), dtype=np.int64)
        beats = count_beats(sizes, one_tile, ones, spec, bus)
        assert beats == stream_cycle_count(sizes, spec, bus)
        if es + ss <= bus:
            first_beat, first_take, want_epb, want = pack_layout(
                nonempty.tolist(), es, ss, bus
            )
            got_beat, got_take, got = _group_layout(nonempty, spec, bus)
            assert got == want == beats
            assert got_beat.tolist() == first_beat
            assert got_take.tolist() == first_take
            assert spec.entries_per_beat(bus) == want_epb

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 5), st.booleans()),
            max_size=30,
        ),
        st.sampled_from(((1, 1), (2, 1), (3, 0), (2, 2))),
        st.integers(1, 16),
    )
    def test_tiles_and_repeats_equal_separate_packs(self, groups, slots, bus):
        # Groups with repeat counts, split into tiles where the flag is
        # set: the count equals packing each tile's expanded groups alone.
        es, ss = slots
        spec = StreamSpec(entry_slots=es, shared_slots=ss, grouped=ss > 0)
        sizes = np.asarray([g[0] for g in groups], dtype=np.int64)
        repeats = np.asarray([g[1] for g in groups], dtype=np.int64)
        tiles = np.cumsum([g[2] for g in groups], dtype=np.int64)
        want = 0
        for tile in np.unique(tiles):
            here = tiles == tile
            want += stream_cycle_count(
                np.repeat(sizes[here], repeats[here]), spec, bus
            )
        assert count_beats(sizes, tiles, repeats, spec, bus) == want

    def test_pack_entries_places_entries_like_the_python_packer(self):
        spec = StreamSpec(entry_slots=2, shared_slots=1, grouped=True)
        sizes = np.asarray([3, 1, 5, 2, 7], dtype=np.int64)
        total = int(sizes.sum())
        plan = pack_entries(
            np.zeros(total), np.zeros(total), np.zeros(total), sizes, spec, 7
        )
        first_beat, first_take, epb, beats = pack_layout(sizes, 2, 1, 7)
        want = []
        for n, beat, take in zip(sizes, first_beat, first_take):
            want += [beat] * take
            want += [beat + 1 + t // epb for t in range(n - take)]
        assert plan.entry_beat.tolist() == want
        assert plan.num_beats == beats


@st.composite
def _stored_operands(draw):
    """(k, {format: operand}): one set of distinct stored (row, col, value)
    cells, explicit zeros included, as CSR (rows in draw order), COO, ELL
    (with extra padding slots) and Dense encodings."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 14))
    cells = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, k - 1),
                  st.sampled_from((0.0, 1.0, -2.5))),
        max_size=3 * m,
        unique_by=lambda cell: cell[:2],
    ))
    cells.sort(key=lambda cell: cell[0])  # row-major, in-row order kept
    rows = np.asarray([c[0] for c in cells], dtype=np.int64)
    cols = np.asarray([c[1] for c in cells], dtype=np.int64)
    vals = np.asarray([c[2] for c in cells], dtype=np.float64)
    counts = np.bincount(rows, minlength=m)
    row_ptr = np.concatenate(([0], np.cumsum(counts)))
    width = int(counts.max(initial=0)) + draw(st.integers(0, 2))
    ell_cols = np.full((m, width), PAD_COL, dtype=np.int64)
    ell_vals = np.zeros((m, width))
    for r in range(m):
        ell_cols[r, : counts[r]] = cols[rows == r]
        ell_vals[r, : counts[r]] = vals[rows == r]
    dense = np.zeros((m, k))
    dense[rows, cols] = vals
    return k, {
        Format.CSR: CsrMatrix((m, k), vals, cols, row_ptr),
        Format.COO: CooMatrix((m, k), vals, rows, cols),
        Format.ELL: EllMatrix((m, k), ell_vals, ell_cols),
        Format.DENSE: DenseMatrix.from_dense(dense),
    }


class TestStatsKernels:
    """Dense, CSR, COO and ELL read their statistics off the operand's
    arrays; each must equal the derivation from extracted tile entries
    that every other protocol uses."""

    @settings(max_examples=200, deadline=None)
    @given(_stored_operands(), st.integers(1, 6))
    def test_kernels_equal_the_entry_derivation(self, operands, bus):
        k, encoded = operands
        column = DenseMatrix.from_dense(np.ones((k, 1)))
        tilings = {
            compute_k_tiles(column, Format.DENSE, capacity)
            for capacity in range(1, k + 1)
        }
        for fmt, a in encoded.items():
            proto = stream_protocol_for(fmt)
            assert proto.stats is not None
            for tiles in tilings:
                got = proto.stream_stats(a, tiles)
                want = _stats_from_entries(
                    [proto.extract_entries(a, lo, hi) for lo, hi in tiles], k
                )
                for field in ("c_all", "c_nz", "runs"):
                    assert np.array_equal(
                        getattr(got, field), getattr(want, field)
                    ), (fmt, tiles, field)
                assert got.beats(proto.spec, bus) == want.beats(
                    proto.spec, bus
                ), (fmt, tiles)
                if got.entries is not None:
                    assert sorted(zip(*(e.tolist() for e in got.entries))) == (
                        sorted(zip(*(e.tolist() for e in want.entries)))
                    ), (fmt, tiles)

    @settings(max_examples=60, deadline=None)
    @given(_stored_operands(), st.integers(1, 6), st.integers(2, 6))
    def test_reports_with_stored_zeros_equal_the_per_beat_model(
        self, operands, bus, buffer_entries
    ):
        k, encoded = operands
        config = AcceleratorConfig(
            num_pes=2, vector_lanes=2, pe_buffer_bytes=4 * buffer_entries,
            bus_bits=32 * bus,
        )
        b_dense = np.zeros((k, 5))
        b_dense[::2, 1:] = 1.5
        b_dense[1::3, 0] = -1.0
        sim = WeightStationarySimulator(config)
        for fmt, a in encoded.items():
            for b, acf_b in (
                (DenseMatrix.from_dense(b_dense), Format.DENSE),
                (CscMatrix.from_dense(b_dense), Format.CSC),
            ):
                _out, report = sim.run_gemm(a, fmt, b, acf_b)
                assert report == reference_gemm(config, a, fmt, b, acf_b)[1]
