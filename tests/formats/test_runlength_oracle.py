"""The vectorized RLC encoder against the per-position loop it replaced.

``encode_runs`` computes every padding count at once with ``divmod``; the
oracle below is the original loop, kept verbatim, which walks the nonzeros
and emits one padding entry per ``max_run + 1`` zeros.  Both must return
the same runs and levels, with the same dtypes, for every input
(``encode_runs`` is handed the array's nonzero positions and values).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.formats._runlength import decode_runs, encode_runs


def encode_flat(flat: np.ndarray, run_bits: int):
    """``encode_runs`` of a flat array's nonzeros."""
    positions = np.flatnonzero(flat)
    return encode_runs(positions, flat[positions], run_bits)


def encode_runs_loop(flat: np.ndarray, run_bits: int):
    """The per-position loop ``encode_runs`` replaced (the oracle)."""
    flat = np.asarray(flat, dtype=np.float64).ravel()
    max_run = (1 << run_bits) - 1
    positions = np.nonzero(flat)[0]
    runs: list[int] = []
    levels: list[float] = []
    prev_end = -1  # index of the previously consumed position
    for pos in positions:
        gap = int(pos) - prev_end - 1
        # Each padding entry covers max_run zeros plus its own zero level.
        while gap > max_run:
            runs.append(max_run)
            levels.append(0.0)
            gap -= max_run + 1
        runs.append(gap)
        levels.append(float(flat[pos]))
        prev_end = int(pos)
    return np.asarray(runs, dtype=np.int64), np.asarray(levels, dtype=np.float64)


def assert_matches_oracle(flat: np.ndarray, run_bits: int) -> None:
    runs, levels = encode_flat(flat, run_bits)
    runs_ref, levels_ref = encode_runs_loop(flat, run_bits)
    assert runs.dtype == np.int64 and levels.dtype == np.float64
    assert np.array_equal(runs, runs_ref)
    # Compare bytes so a +0.0 / -0.0 padding level mismatch also fails.
    assert levels.tobytes() == levels_ref.tobytes()
    assert np.array_equal(decode_runs(runs, levels, flat.size), flat)


VALUES = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
              allow_infinity=False),
)


class TestEncodeRunsOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        flat=arrays(np.float64, st.integers(0, 120), elements=VALUES),
        run_bits=st.integers(1, 5),
    )
    def test_random_arrays(self, flat, run_bits):
        assert_matches_oracle(flat, run_bits)

    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.lists(st.integers(0, 70), min_size=0, max_size=8),
        trailing=st.integers(0, 70),
        run_bits=st.integers(1, 5),
    )
    def test_gap_lists(self, gaps, trailing, run_bits):
        # One nonzero after each gap, then trailing zeros.
        flat = np.zeros(sum(gaps) + len(gaps) + trailing)
        flat[np.cumsum(np.asarray(gaps, dtype=np.int64) + 1) - 1] = 1.5
        assert_matches_oracle(flat, run_bits)

    @pytest.mark.parametrize("run_bits", [1, 2, 3, 4, 5])
    def test_empty_and_all_zero(self, run_bits):
        assert_matches_oracle(np.zeros(0), run_bits)
        assert_matches_oracle(np.zeros(100), run_bits)
        assert encode_flat(np.zeros(100), run_bits)[0].size == 0

    @pytest.mark.parametrize("run_bits", [1, 2, 3, 4, 5])
    def test_leading_and_trailing_zeros(self, run_bits):
        flat = np.zeros(200)
        flat[[97, 98, 150]] = [2.0, -3.0, 4.0]
        assert_matches_oracle(flat, run_bits)

    @pytest.mark.parametrize("run_bits", [1, 2, 3, 4, 5])
    def test_boundary_gaps(self, run_bits):
        max_run = (1 << run_bits) - 1
        for gap in (max_run, max_run + 1, 2 * max_run + 1, 2 * max_run + 2):
            flat = np.zeros(gap + 1)
            flat[gap] = 7.0
            assert_matches_oracle(flat, run_bits)
            # Same gaps between two nonzeros, not only at the start.
            flat = np.zeros(gap + 2)
            flat[[0, gap + 1]] = [1.0, 7.0]
            assert_matches_oracle(flat, run_bits)

    @pytest.mark.parametrize("run_bits", [1, 4])
    def test_negative_zero_is_a_zero(self, run_bits):
        flat = np.array([-0.0, 1.0, -0.0, -0.0, 0.0, -2.0, -0.0])
        assert_matches_oracle(flat, run_bits)
        runs, levels = encode_flat(np.full(40, -0.0), run_bits)
        assert runs.size == 0 and levels.size == 0
