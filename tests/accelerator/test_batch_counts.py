"""Batch beat counts and position-derived stationary counts against oracles.

``simulate_many`` counts the stream beats of a whole batch in one
:func:`~repro.accelerator.stream.count_beats_many` call, and each
prepared stationary operand's counts come from its stored positions.
These tests pin the batch count job by job against the Python greedy
packer of ``_stream_oracle`` run on that job alone, and the stationary
counts against the dense-mask derivation kept there.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _stream_oracle import pack_layout, stationary_sums
from repro.accelerator import AcceleratorConfig, WeightStationarySimulator
from repro.accelerator import simulator as simulator_module
from repro.accelerator.protocols import stationary_layout_for, streamable_formats
from repro.accelerator.simulator import _Stationary
from repro.accelerator.stream import StreamSpec, count_beats_many
from repro.errors import SchedulingError
from repro.formats import CscMatrix, CsrMatrix, DenseMatrix
from repro.formats.registry import Format, matrix_class
from tests.conftest import make_sparse

#: (entry_slots, shared_slots) of Dense, CSR and COO; ``None`` stands for
#: a spec whose entry and header do not fit one beat of the drawn bus.
SLOTS = ((1, 1), (2, 1), (3, 0), None)


def _job_beats(sizes, tiles, repeats, spec, bus) -> int:
    """Beats of one job: each tile's expanded groups packed alone."""
    beats = 0
    for tile in sorted(set(tiles)):
        groups = [
            size for size, t, r in zip(sizes, tiles, repeats)
            if t == tile for _ in range(r) if size
        ]
        if spec.entry_slots + spec.shared_slots > bus:
            beats += sum(groups) * spec.span_cycles(bus)
        elif groups:
            beats += pack_layout(
                groups, spec.entry_slots, spec.shared_slots, bus
            )[3]
    return beats


_JOB = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 4), st.booleans()),
        max_size=12,
    ),
    st.sampled_from(SLOTS),
)


class TestCountBeatsMany:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_JOB, max_size=8), st.integers(1, 16))
    @example([], 4)
    @example([([], (2, 1)), ([(3, 2, False), (0, 1, True)], None)], 5)
    @example([  # several tiles, repeats > 1, a zero-size group, all specs
        ([(5, 3, False), (2, 1, False), (0, 2, True), (7, 2, True)], (1, 1)),
        ([(4, 1, False), (9, 4, True)], (2, 1)),
        ([(11, 2, False), (3, 1, True)], (3, 0)),
        ([(2, 3, False), (1, 1, True)], None),
    ], 7)
    def test_each_job_equals_the_python_packer_alone(self, jobs, bus):
        batch, want = [], []
        for groups, slots in jobs:
            es, ss = slots if slots is not None else (bus, 1)
            spec = StreamSpec(entry_slots=es, shared_slots=ss, grouped=ss > 0)
            sizes = [g[0] for g in groups]
            repeats = [g[1] for g in groups]
            tiles = np.cumsum([g[2] for g in groups], dtype=np.int64)
            batch.append((
                np.asarray(sizes, dtype=np.int64), tiles,
                np.asarray(repeats, dtype=np.int64), spec,
            ))
            want.append(_job_beats(sizes, tiles.tolist(), repeats, spec, bus))
        assert count_beats_many(batch, bus).tolist() == want


@pytest.fixture
def beat_calls(monkeypatch):
    """Counts the simulator's calls of count_beats_many."""
    calls = []

    def counted(jobs, bus_slots):
        calls.append(len(jobs))
        return count_beats_many(jobs, bus_slots)

    monkeypatch.setattr(simulator_module, "count_beats_many", counted)
    return calls


class TestOneBeatCountPerBatch:
    CONFIG = AcceleratorConfig(
        num_pes=3, vector_lanes=2, pe_buffer_bytes=16, bus_bits=5 * 32
    )

    def _jobs(self, rng):
        a_dense = make_sparse(rng, (7, 20), 0.3)
        b_dense = make_sparse(rng, (20, 5), 0.4)
        stationary = [
            (DenseMatrix.from_dense(b_dense), Format.DENSE),
            (CscMatrix.from_dense(b_dense), Format.CSC),
        ]
        distinct = [
            (matrix_class(acf_a).from_dense(a_dense), acf_a, b, acf_b)
            for acf_a in streamable_formats()
            for b, acf_b in stationary
        ]
        return distinct, distinct + distinct[:3]

    def test_simulate_many_counts_every_job_in_one_call(self, rng, beat_calls):
        sim = WeightStationarySimulator(self.CONFIG)
        distinct, jobs = self._jobs(rng)
        reports = sim.simulate_many(jobs)
        assert beat_calls == [len(distinct)]
        del beat_calls[:]
        for job, report in zip(jobs, reports):
            assert sim.run_gemm(*job)[1] == report
        # run_gemm counts its one job with the same call.
        assert beat_calls == [1] * len(jobs)

    def test_empty_batch(self, beat_calls):
        assert WeightStationarySimulator(self.CONFIG).simulate_many([]) == []
        assert beat_calls == [0]


@st.composite
def _stationary_cases(draw):
    """(config, k, n, cells): a K x N stationary operand's stored (row,
    col, value) cells, explicit zeros included, and a config with 1-4
    PEs, 1-8 entry buffers and 1-8 slot buses."""
    k = draw(st.integers(0, 12))
    n = draw(st.integers(0, 9))
    cells = draw(st.lists(
        st.tuples(st.integers(0, max(k - 1, 0)), st.integers(0, max(n - 1, 0)),
                  st.sampled_from((0.0, 1.0, -2.5))),
        max_size=k * n, unique_by=lambda cell: cell[:2],
    )) if k and n else []
    config = AcceleratorConfig(
        num_pes=draw(st.integers(1, 4)),
        vector_lanes=1,
        pe_buffer_bytes=4 * draw(st.integers(1, 8)),
        bus_bits=32 * draw(st.integers(1, 8)),
    )
    return config, k, n, cells


def _encodings(k, n, cells):
    """The cells as a Dense operand and as a CSC that stores every cell,
    explicit zeros included."""
    cells = sorted(cells, key=lambda cell: (cell[1], cell[0]))
    rows = np.asarray([c[0] for c in cells], dtype=np.int64)
    cols = np.asarray([c[1] for c in cells], dtype=np.int64)
    vals = np.asarray([c[2] for c in cells], dtype=np.float64)
    col_ptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    dense = np.zeros((k, n))
    dense[rows, cols] = vals
    return (
        (DenseMatrix.from_dense(dense), Format.DENSE),
        (CscMatrix((k, n), vals, rows, col_ptr), Format.CSC),
    )


def _assert_counts_equal_the_mask_oracle(config, b, acf_b):
    layout = stationary_layout_for(acf_b)
    try:
        want = stationary_sums(layout.prepare(b), layout, config)
    except SchedulingError:
        with pytest.raises(SchedulingError):
            _Stationary(layout, b, config)
        return None
    got = _Stationary(layout, b, config)
    assert got.schedule == want["schedule"]
    for field in ("per_k", "per_tile", "cols_per_tile", "match_per_k"):
        assert np.array_equal(getattr(got, field), want[field]), field
    assert got.entries_loaded == want["entries_loaded"]
    assert got.load_cycles == want["load_cycles"]
    return got


class TestStationaryCounts:
    """Position-derived schedule and counts equal the dense-mask ones."""

    @settings(max_examples=200, deadline=None)
    @given(_stationary_cases())
    @example((AcceleratorConfig(num_pes=2, pe_buffer_bytes=8), 0, 3, []))
    @example((AcceleratorConfig(num_pes=2, pe_buffer_bytes=8), 4, 0, []))
    def test_position_counts_equal_the_mask_oracle(self, case):
        config, k, n, cells = case
        for b, acf_b in _encodings(k, n, cells):
            _assert_counts_equal_the_mask_oracle(config, b, acf_b)

    def test_stored_zeros_count_as_stored(self):
        config = AcceleratorConfig(num_pes=2, pe_buffer_bytes=4 * 8)
        cells = [(0, 0, 0.0), (2, 0, 1.0), (1, 1, 0.0), (3, 2, -2.5)]
        (_dense, _), (csc, acf) = _encodings(4, 3, cells)
        got = _assert_counts_equal_the_mask_oracle(config, csc, acf)
        assert got.per_k.tolist() == [1, 1, 1, 1]
        assert got.match_per_k.tolist() == [1, 1, 1, 1]

    def test_first_candidate_tiling_overflows(self):
        # Column 0 stores k = 0 and 1 (4 entries): 2-entry buffers need
        # 2 tiles by the fullest column, but halving K puts both in the
        # first, so the plan settles on 3.
        config = AcceleratorConfig(num_pes=1, pe_buffer_bytes=4 * 2)
        (_dense, _), (csc, acf) = _encodings(4, 1, [(0, 0, 1.0), (1, 0, 2.0)])
        got = _assert_counts_equal_the_mask_oracle(config, csc, acf)
        assert got.schedule.k_tiles == ((0, 1), (1, 2), (2, 4))

    def test_more_columns_than_pes(self, rng):
        config = AcceleratorConfig(num_pes=2, pe_buffer_bytes=4 * 3)
        dense = make_sparse(rng, (9, 7), 0.5)
        for b, acf_b in (
            (DenseMatrix.from_dense(dense), Format.DENSE),
            (CscMatrix.from_dense(dense), Format.CSC),
        ):
            got = _assert_counts_equal_the_mask_oracle(config, b, acf_b)
            assert got.schedule.num_rounds == 4 and got.schedule.num_tiles > 1

    def test_single_k_that_cannot_fit_raises(self):
        config = AcceleratorConfig(num_pes=2, pe_buffer_bytes=4)
        csc = CscMatrix.from_dense(np.ones((3, 2)))
        layout = stationary_layout_for(Format.CSC)
        with pytest.raises(SchedulingError):
            stationary_sums(layout.prepare(csc), layout, config)
        with pytest.raises(SchedulingError):
            _Stationary(layout, csc, config)

    def test_csr_encoded_b_prepares_like_csc(self, rng):
        config = AcceleratorConfig(num_pes=2, pe_buffer_bytes=4 * 4)
        dense = make_sparse(rng, (8, 5), 0.4)
        _assert_counts_equal_the_mask_oracle(
            config, CsrMatrix.from_dense(dense), Format.CSC
        )
