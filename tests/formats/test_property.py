"""Hypothesis property tests on the format substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.formats import CooMatrix, CscMatrix, CsrMatrix, ZvcMatrix
from repro.formats._runlength import decode_runs, encode_runs
from repro.formats.registry import MATRIX_FORMATS, matrix_class

# Derived from the registry, not hand-listed: a format registered for the
# matrix catalog (e.g. a new stream-capable ACF) is property-tested here
# automatically — codec drift fails the suite before it reaches the
# accelerator layer.
MATRIX_CLASSES = [matrix_class(fmt) for fmt in MATRIX_FORMATS]


def sparse_matrices(max_dim: int = 12):
    """Strategy producing small float matrices with many exact zeros."""
    shapes = st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    )
    return shapes.flatmap(
        lambda s: arrays(
            np.float64,
            s,
            elements=st.one_of(
                st.just(0.0),
                st.floats(
                    min_value=0.1,
                    max_value=100.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
        )
    )


@given(dense=sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_all_formats_roundtrip(dense):
    for cls in MATRIX_CLASSES:
        enc = cls.from_dense(dense)
        assert np.array_equal(enc.to_dense(), dense), cls.__name__


@given(dense=sparse_matrices())
@settings(max_examples=30, deadline=None)
def test_streamable_acfs_have_roundtrip_codecs(dense):
    # Every ACF the accelerator can stream or pin stationary must have a
    # lossless codec in the formats registry — the two registries drift
    # independently as stream-capable formats land.
    from repro.accelerator.protocols import (
        stationary_formats,
        streamable_formats,
    )

    for fmt in {*streamable_formats(), *stationary_formats()}:
        enc = matrix_class(fmt).from_dense(dense)
        assert np.array_equal(enc.to_dense(), dense), fmt


@given(dense=sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_storage_lower_bound_is_payload(dense):
    # Every format must store at least the nonzero payload bits.
    nnz = int(np.count_nonzero(dense))
    for cls in MATRIX_CLASSES:
        enc = cls.from_dense(dense, dtype_bits=32)
        assert enc.storage().total_bits >= 32 * nnz, cls.__name__


@given(dense=sparse_matrices())
@settings(max_examples=40, deadline=None)
def test_coo_csr_csc_store_exactly_nnz_values(dense):
    nnz = int(np.count_nonzero(dense))
    for cls in (CooMatrix, CsrMatrix, CscMatrix, ZvcMatrix):
        enc = cls.from_dense(dense)
        assert len(enc.fields()["values"]) == nnz


@given(
    flat=arrays(
        np.float64,
        st.integers(0, 200),
        elements=st.one_of(
            st.just(0.0), st.floats(0.5, 2.0, allow_nan=False)
        ),
    ),
    run_bits=st.integers(1, 8),
)
@settings(max_examples=80, deadline=None)
def test_runlength_roundtrip(flat, run_bits):
    positions = np.flatnonzero(flat)
    runs, levels = encode_runs(positions, flat[positions], run_bits)
    assert np.array_equal(decode_runs(runs, levels, len(flat)), flat)
    if len(runs):
        assert runs.max() < 2 ** run_bits
    # Padding entries are exactly the zero-valued levels.
    assert int(np.count_nonzero(levels)) == int(np.count_nonzero(flat))


@given(dense=sparse_matrices(max_dim=10))
@settings(max_examples=40, deadline=None)
def test_zvc_mask_is_nonzero_pattern(dense):
    zvc = ZvcMatrix.from_dense(dense)
    assert np.array_equal(
        zvc.mask.reshape(dense.shape), dense != 0.0
    )
