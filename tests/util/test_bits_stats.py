"""Bit-accounting helpers and statistics utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import (
    bits_for_count,
    bits_for_index,
    ceil_div,
    ceil_log2,
)
from repro.util.stats import geomean, normalized, summarize


class TestCeilLog2:
    @pytest.mark.parametrize(
        "value,expected",
        [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10), (1025, 11)],
    )
    def test_values(self, value, expected):
        assert ceil_log2(value) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log2(0)

    @given(st.integers(1, 10**9))
    def test_is_ceiling(self, v):
        b = ceil_log2(v)
        assert 2**b >= v
        assert b == 0 or 2 ** (b - 1) < v


class TestIndexAndCountBits:
    def test_index_floor_one_bit(self):
        assert bits_for_index(1) == 1
        assert bits_for_index(2) == 1
        assert bits_for_index(3) == 2

    def test_count_includes_zero(self):
        # Counter spanning 0..4 needs 3 bits (5 values).
        assert bits_for_count(4) == 3
        assert bits_for_count(0) == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bits_for_index(0)
        with pytest.raises(ValueError):
            bits_for_count(-1)


class TestCeilDiv:
    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_matches_math(self, n, d):
        assert ceil_div(n, d) == -(-n // d)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(5, 0)


class TestStats:
    def test_geomean_of_constant(self):
        assert geomean([3.0, 3.0, 3.0]) == pytest.approx(3.0)

    def test_geomean_known(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_normalized(self):
        assert normalized([2.0, 4.0], 2.0) == [1.0, 2.0]
        with pytest.raises(ValueError):
            normalized([1.0], 0.0)

    def test_summarize_alignment(self):
        text = summarize({"a": 1.0, "longer": 2.0})
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].index(":") == lines[1].index(":")
        assert summarize({}) == "(empty)"
