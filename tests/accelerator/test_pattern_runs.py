"""CAM spill runs of row-grouped streams, counted from column bitsets.

The simulator counts the Oreg runs a sparse row-grouped stream (CSR,
COO, ELL) opens against a metadata (CSC) buffer by ORing per-k column
bitsets of ``ceil(N / 64)`` 64-bit words, one ``reduceat`` over the
entries keyed by (row, K tile).  These tests pin that count against the
per-tile float32 pattern GEMM kept as ``_stream_oracle.pattern_runs``:
on stationary widths either side of a word boundary, schedules of many
K tiles (some streaming nothing), empty streams, stored explicit zeros
and streams whose rows list their k out of order, so their (row, tile)
keys are not contiguous.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _stream_oracle import pattern_runs, stored_mask
from repro.accelerator import AcceleratorConfig
from repro.accelerator.protocols import stationary_layout_for, stream_protocol_for
from repro.accelerator.simulator import _pattern_runs, _Stationary
from repro.formats import CooMatrix, CscMatrix, CsrMatrix, EllMatrix
from repro.formats.ell import PAD_COL
from repro.formats.registry import Format, matrix_class

#: Stationary widths: none, one, and either side of one and two words.
WIDTHS = (0, 1, 63, 64, 65, 130)
#: Stored values; zeros are stored explicitly.
VALUES = np.asarray([0.0, 0.0, 1.0, -2.5, 0.125])


def _coords(rng, shape, density):
    """Row-major stored positions of *shape* at *density*, and values
    drawn from :data:`VALUES` (explicit zeros included)."""
    flat = np.flatnonzero(rng.random(shape[0] * shape[1]) < density)
    return flat, rng.choice(VALUES, size=len(flat))


def _scrambled(a, rng):
    """*a* re-encoded with every row's (COO: the whole stream's) entries
    in a random order, so a row no longer lists its k ascending."""
    if isinstance(a, CsrMatrix):
        lengths = np.diff(a.row_ptr)
        rows = np.repeat(np.arange(a.nrows), lengths)
        order = np.lexsort((rng.random(len(rows)), rows))
        return CsrMatrix(a.shape, a.values[order], a.col_ids[order], a.row_ptr)
    if isinstance(a, CooMatrix):
        order = rng.permutation(len(a.values))
        return CooMatrix(
            a.shape, a.values[order], a.row_ids[order], a.col_ids[order]
        )
    order = np.argsort(rng.random(a.col_ids.shape), axis=1)
    return EllMatrix(
        a.shape,
        np.take_along_axis(a.values, order, axis=1),
        np.take_along_axis(a.col_ids, order, axis=1),
    )


def _stationaries(b_flat, b_vals, shape, buffer_entries):
    """The prepared CSC operand, from a CSC-encoded and from a
    CSR-encoded B, scheduled on a buffer of *buffer_entries*."""
    config = AcceleratorConfig(num_pes=4, pe_buffer_bytes=4 * buffer_entries)
    layout = stationary_layout_for(Format.CSC)
    return [
        _Stationary(layout, cls.from_coords(shape, b_flat, b_vals), config)
        for cls in (CscMatrix, CsrMatrix)
    ]


class TestPatternRuns:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(0, 6),
        k=st.integers(1, 12),
        n=st.sampled_from(WIDTHS),
        density_a=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
        density_b=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
        band=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        buffer_entries=st.integers(2, 8),
    )
    # Many tiles over a three-word width, a zero band of k in the stream.
    @example(seed=1, m=5, k=12, n=130, density_a=1.0, density_b=1.0,
             band=(2, 7), buffer_entries=2)
    # An empty stream against a full two-word buffer.
    @example(seed=2, m=4, k=6, n=65, density_a=0.0, density_b=1.0,
             band=(0, 0), buffer_entries=4)
    # A stationary operand without columns.
    @example(seed=3, m=3, k=5, n=0, density_a=1.0, density_b=1.0,
             band=(0, 0), buffer_entries=2)
    def test_bitset_count_equals_the_pattern_gemm(
        self, seed, m, k, n, density_a, density_b, band, buffer_entries,
    ):
        rng = np.random.default_rng(seed)
        a_flat, a_vals = _coords(rng, (m, k), density_a)
        # Reduction indices [lo, hi) stream nothing: some K tiles are empty.
        lo, hi = sorted(band)
        keep = ~np.isin(a_flat % k, np.arange(lo, hi))
        a_flat, a_vals = a_flat[keep], a_vals[keep]
        b_flat, b_vals = _coords(rng, (k, n), density_b)
        for stationary in _stationaries(b_flat, b_vals, (k, n), buffer_entries):
            tiles = stationary.schedule.k_tiles
            for acf in (Format.CSR, Format.COO, Format.ELL):
                a = matrix_class(acf).from_coords((m, k), a_flat, a_vals)
                proto = stream_protocol_for(acf)
                for streamed in (a, _scrambled(a, rng)):
                    entries = proto.stream_stats(streamed, tiles).entries
                    assert _pattern_runs(entries, stationary) == pattern_runs(
                        entries, m, stationary.operand
                    ), (acf, tiles)

    def test_rows_out_of_k_order_break_key_contiguity(self):
        # Row 0 streams k = 3 (tile 1) before k = 0 (tile 0): its (row,
        # tile) keys come back to tile 0 after leaving it.
        a = EllMatrix((2, 4), [[1.0, 2.0], [3.0, 0.0]], [[3, 0], [1, PAD_COL]])
        (stationary, _) = _stationaries(
            np.arange(4 * 70), np.ones(4 * 70), (4, 70), buffer_entries=4
        )
        assert stationary.schedule.k_tiles == ((0, 2), (2, 4))
        entries = stream_protocol_for(Format.ELL).stream_stats(
            a, stationary.schedule.k_tiles
        ).entries
        # Each (row, tile) pair with an entry opens a run in all 70 columns.
        assert _pattern_runs(entries, stationary) == 3 * 70
        assert pattern_runs(entries, 2, stationary.operand) == 3 * 70


class TestColumnWords:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(0, 9),
        n=st.sampled_from(WIDTHS),
        density=st.sampled_from((0.0, 0.2, 1.0)),
    )
    def test_bits_are_the_stored_mask(self, seed, k, n, density):
        b_flat, b_vals = _coords(np.random.default_rng(seed), (k, n), density)
        for stationary in _stationaries(b_flat, b_vals, (k, n), 64):
            words = stationary.column_words
            assert words.shape == (k, -(-n // 64))
            cols = np.arange(n)
            bits = (
                words[:, cols // 64] >> (cols % 64).astype(np.uint64)
            ) & np.uint64(1)
            np.testing.assert_array_equal(
                bits.astype(bool), stored_mask(stationary.operand)
            )
