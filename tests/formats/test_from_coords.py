"""Every matrix format's ``from_coords`` against ``from_dense``.

``from_coords`` is each format's one encoder; ``from_dense`` finds a dense
array's nonzeros and hands them to it.  Encoding coordinates must build
exactly what encoding their scatter builds: the same fields, with the
same dtypes, shapes and bytes, and the same storage accounting.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import DenseMatrix, RlcMatrix
from repro.formats.base import coords_to_dense, dense_to_coords
from repro.formats.registry import MATRIX_FORMATS, Format, matrix_class
from repro.workloads.synthetic import random_sparse_coords

NONZERO = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
).filter(lambda v: v != 0.0)


@st.composite
def coordinates(draw, max_dim: int = 9):
    """A shape, ascending distinct row-major positions and nonzero values."""
    m = draw(st.integers(0, max_dim))
    k = draw(st.integers(0, max_dim))
    picked = draw(st.sets(st.integers(0, m * k - 1))) if m * k else set()
    flat = np.array(sorted(picked), dtype=np.int64)
    values = np.array(
        draw(st.lists(NONZERO, min_size=len(flat), max_size=len(flat))),
        dtype=np.float64,
    )
    return (m, k), flat, values


def scatter(shape, flat, values) -> np.ndarray:
    dense = np.zeros(shape[0] * shape[1])
    dense[flat] = values
    return dense.reshape(shape)


def assert_same_encoding(got, want) -> None:
    assert type(got) is type(want)
    assert got.shape == want.shape and got.dtype_bits == want.dtype_bits
    got_fields, want_fields = got.fields(), want.fields()
    assert list(got_fields) == list(want_fields)
    for name, want_array in want_fields.items():
        got_array = got_fields[name]
        assert got_array.dtype == want_array.dtype, name
        assert got_array.shape == want_array.shape, name
        assert got_array.tobytes() == want_array.tobytes(), name
    assert got.storage() == want.storage()


def assert_coords_match_dense(fmt, shape, flat, values, **options) -> None:
    cls = matrix_class(fmt)
    dense = scatter(shape, flat, values)
    encoded = cls.from_coords(shape, flat, values, **options)
    assert_same_encoding(encoded, cls.from_dense(dense, **options))
    assert np.array_equal(encoded.to_dense(), dense)


@pytest.mark.parametrize("fmt", MATRIX_FORMATS, ids=lambda f: f.value)
class TestFromCoordsEqualsFromDense:
    @settings(max_examples=60, deadline=None)
    @given(case=coordinates())
    def test_random_coordinates(self, fmt, case):
        assert_coords_match_dense(fmt, *case)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (6, 7)])
    def test_empty(self, fmt, shape):
        assert_coords_match_dense(
            fmt, shape, np.empty(0, np.int64), np.empty(0)
        )

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_dimension_stores_no_data(self, fmt, shape):
        empty = np.empty(0, np.int64), np.empty(0)
        assert_coords_match_dense(fmt, shape, *empty)
        storage = matrix_class(fmt).from_coords(shape, *empty).storage()
        assert storage.data_bits == 0

    @pytest.mark.parametrize("shape", [(1, 1), (6, 7), (1, 9), (9, 1)])
    def test_full(self, fmt, shape):
        total = shape[0] * shape[1]
        flat = np.arange(total, dtype=np.int64)
        assert_coords_match_dense(fmt, shape, flat, 1.0 + flat)

    @pytest.mark.parametrize("shape", [(1, 40), (40, 1)])
    @pytest.mark.parametrize("nnz", [1, 7, 39])
    def test_vectors(self, fmt, shape, nnz):
        assert_coords_match_dense(
            fmt, shape, *random_sparse_coords(*shape, nnz, nnz)
        )

    @pytest.mark.parametrize("nnz", [301, 450, 599])
    def test_complement_branch(self, fmt, nnz):
        # nnz > total / 2: the sampler draws the holes, not the nonzeros.
        assert_coords_match_dense(
            fmt, (20, 30), *random_sparse_coords(20, 30, nnz, 3)
        )

    def test_dtype_bits_pass_through(self, fmt):
        flat, values = random_sparse_coords(8, 8, 20, 1)
        encoded = matrix_class(fmt).from_coords(
            (8, 8), flat, values, dtype_bits=16
        )
        assert encoded.dtype_bits == 16
        assert_coords_match_dense(fmt, (8, 8), flat, values, dtype_bits=16)


class TestRlcRunOverflow:
    @pytest.mark.parametrize("run_bits", [1, 2, 3, 4, 5])
    def test_long_gaps_pad(self, run_bits):
        # Gaps of 0, max_run, max_run + 1 and several field widths.
        max_run = (1 << run_bits) - 1
        gaps = [0, max_run, max_run + 1, 3 * max_run + 5, 0]
        flat = np.cumsum(np.asarray(gaps) + 1) - 1
        shape = (1, int(flat[-1]) + 4)
        values = np.arange(1.0, len(flat) + 1.0)
        encoded = RlcMatrix.from_coords(shape, flat, values, run_bits=run_bits)
        assert encoded.entries > len(flat)  # padding entries were emitted
        assert encoded.runs.max() <= max_run
        assert_coords_match_dense(
            Format.RLC, shape, flat, values, run_bits=run_bits
        )


class TestCoordinateHelpers:
    def test_complete_dense_operand_is_not_copied(self):
        flat = np.arange(12, dtype=np.int64)
        values = 1.0 + flat
        encoded = DenseMatrix.from_coords((3, 4), flat, values)
        assert np.shares_memory(encoded.values, values)

    def test_round_trip(self):
        flat, values = random_sparse_coords(9, 11, 30, 2)
        dense = coords_to_dense((9, 11), flat, values)
        got_flat, got_values = dense_to_coords(dense)
        assert np.array_equal(got_flat, flat)
        assert got_values.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "flat, values",
        [
            ([3, 1], [1.0, 2.0]),  # not ascending
            ([1, 1], [1.0, 2.0]),  # duplicate
            ([-1, 2], [1.0, 2.0]),  # before the first position
            ([2, 12], [1.0, 2.0]),  # past the last position
            ([1, 2], [1.0]),  # one value short
        ],
    )
    @pytest.mark.parametrize("fmt", MATRIX_FORMATS, ids=lambda f: f.value)
    def test_bad_coordinates_rejected(self, fmt, flat, values):
        with pytest.raises(FormatError):
            matrix_class(fmt).from_coords((3, 4), flat, values)
