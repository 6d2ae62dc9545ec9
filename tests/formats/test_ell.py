"""ELLPACK-specific structure and storage behaviour.

``TestLoopOracle`` pins the vectorized ``from_dense``/``to_dense`` against
the per-row loops they replaced, kept below verbatim: the arrays must be
byte-identical, dtypes included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.compactness import storage_bits
from repro.formats import CooMatrix, CsrMatrix, EllMatrix
from repro.formats.ell import PAD_COL
from repro.formats.registry import Format
from repro.workloads import random_sparse_matrix
from tests.conftest import make_sparse


class TestStructure:
    def test_width_is_max_row_nnz(self, rng):
        dense = make_sparse(rng, (10, 12), 0.3)
        ell = EllMatrix.from_dense(dense)
        assert ell.width == int(np.count_nonzero(dense, axis=1).max())

    def test_uniform_rows_no_padding(self):
        dense = np.eye(6) * 3.0
        ell = EllMatrix.from_dense(dense)
        assert ell.width == 1
        assert not np.any(ell.col_ids == -1)

    def test_one_hot_row_dominates_footprint(self, rng):
        """ELL's Achilles heel: one dense row pads every other row."""
        dense = make_sparse(rng, (50, 50), 0.02)
        dense[0, :] = 1.0  # one fully dense row
        ell = EllMatrix.from_dense(dense)
        assert ell.width == 50
        csr_bits = CsrMatrix.from_dense(dense).total_bits
        assert ell.total_bits > 5 * csr_bits

    def test_storage_counts_padding_as_data(self, rng):
        dense = make_sparse(rng, (8, 8), 0.2)
        ell = EllMatrix.from_dense(dense)
        assert ell.storage().data_bits == 8 * ell.width * 32

    def test_regular_sparsity_beats_coo_metadata(self):
        """Where every row has the same nnz, ELL stores no row structure."""
        dense = np.zeros((64, 64))
        for i in range(64):
            dense[i, (i * 7) % 64] = 1.0
            dense[i, (i * 13 + 1) % 64] = 2.0
        ell = EllMatrix.from_dense(dense)
        coo = CooMatrix.from_dense(dense)
        assert ell.storage().metadata_bits < coo.storage().metadata_bits


class TestClosedForm:
    def test_estimate_upper_bounds_typical_instance(self, rng):
        m, k, nnz = 60, 80, 600
        dense = random_sparse_matrix(m, k, nnz, rng)
        actual = EllMatrix.from_dense(dense).total_bits
        est = storage_bits(Format.ELL, (m, k), nnz)
        # The Gumbel-tail width estimate should be within ~40% of a sampled
        # instance (it models E[max] of the row-occupancy distribution).
        assert est == pytest.approx(actual, rel=0.4)

    def test_estimate_monotone_in_nnz(self):
        lo = storage_bits(Format.ELL, (100, 100), 500)
        hi = storage_bits(Format.ELL, (100, 100), 2000)
        assert hi > lo

    def test_zero_nnz(self):
        assert storage_bits(Format.ELL, (10, 10), 0) == 0.0


def from_dense_loop(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-row loop ``EllMatrix.from_dense`` replaced (the oracle)."""
    dense = np.ascontiguousarray(dense, dtype=np.float64)
    m, k = dense.shape
    row_nnz = np.count_nonzero(dense, axis=1)
    width = int(row_nnz.max()) if m else 0
    values = np.zeros((m, width), dtype=np.float64)
    col_ids = np.full((m, width), PAD_COL, dtype=np.int64)
    for i in range(m):
        cols = np.flatnonzero(dense[i])
        values[i, : len(cols)] = dense[i, cols]
        col_ids[i, : len(cols)] = cols
    return values, col_ids


def to_dense_loop(ell: EllMatrix) -> np.ndarray:
    """The per-row loop ``EllMatrix.to_dense`` replaced (the oracle)."""
    out = np.zeros(ell.shape, dtype=np.float64)
    for i in range(ell.shape[0]):
        real = ell.col_ids[i] != PAD_COL
        out[i, ell.col_ids[i, real]] = ell.values[i, real]
    return out


def assert_matches_loops(dense: np.ndarray, dtype_bits: int = 32) -> None:
    ell = EllMatrix.from_dense(dense, dtype_bits=dtype_bits)
    values_ref, col_ids_ref = from_dense_loop(dense)
    assert ell.values.dtype == values_ref.dtype == np.float64
    assert ell.col_ids.dtype == col_ids_ref.dtype == np.int64
    assert ell.values.shape == values_ref.shape
    # Bytes, so a +0.0 / -0.0 value mismatch also fails.
    assert ell.values.tobytes() == values_ref.tobytes()
    assert np.array_equal(ell.col_ids, col_ids_ref)
    assert ell.dtype_bits == dtype_bits
    dense_out = ell.to_dense()
    dense_ref = to_dense_loop(ell)
    assert dense_out.dtype == dense_ref.dtype == np.float64
    assert dense_out.tobytes() == dense_ref.tobytes()
    assert np.array_equal(dense_out, dense)


VALUES = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
              allow_infinity=False),
)


class TestLoopOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=VALUES,
        ),
        st.sampled_from((8, 16, 32, 64)),
    )
    def test_hypothesis_shapes(self, dense, dtype_bits):
        assert_matches_loops(dense, dtype_bits)

    def test_empty_rows(self, rng):
        dense = make_sparse(rng, (9, 7), 0.5)
        dense[[0, 4, 8]] = 0.0
        assert_matches_loops(dense)
        assert np.all(EllMatrix.from_dense(dense).col_ids[4] == PAD_COL)

    def test_all_zero_matrix_has_width_zero(self):
        dense = np.zeros((5, 6))
        assert_matches_loops(dense)
        ell = EllMatrix.from_dense(dense)
        assert ell.width == 0 and ell.values.shape == (5, 0)

    def test_single_row(self, rng):
        assert_matches_loops(make_sparse(rng, (1, 17), 0.4))
        assert_matches_loops(np.zeros((1, 4)))

    def test_one_hot_dense_row(self, rng):
        dense = make_sparse(rng, (20, 30), 0.05)
        dense[3, :] = 1.0
        assert_matches_loops(dense, dtype_bits=16)
        assert EllMatrix.from_dense(dense).width == 30

    def test_workload_operand(self):
        assert_matches_loops(random_sparse_matrix(64, 48, 300, 7))
