"""Failure injection: corrupted field arrays must be rejected at construction.

A downstream user deserializing format payloads from disk or a wire relies
on the constructors validating structural invariants; silently accepting a
corrupt pointer array would corrupt every kernel downstream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import (
    BsrMatrix,
    CooMatrix,
    CooTensor,
    CscMatrix,
    CsfTensor,
    CsrMatrix,
    DiaMatrix,
    EllMatrix,
    HicooTensor,
    RlcMatrix,
    RlcTensor,
    ZvcMatrix,
)
from repro.formats.registry import MATRIX_FORMATS, TENSOR_FORMATS, Format
from tests.conftest import make_sparse


@pytest.fixture
def csr(rng):
    return CsrMatrix.from_dense(make_sparse(rng, (8, 10), 0.3))


class TestCsrCorruption:
    def test_row_ptr_last_entry_wrong(self, csr):
        bad = csr.row_ptr.copy()
        bad[-1] += 1
        with pytest.raises(FormatError):
            CsrMatrix(csr.shape, csr.values, csr.col_ids, bad)

    def test_row_ptr_decreasing(self, csr):
        if csr.stored < 2:
            pytest.skip("needs 2 entries")
        bad = csr.row_ptr.copy()
        mid = len(bad) // 2
        bad[mid] = bad[-1] + 1  # spike above the end
        with pytest.raises(FormatError):
            CsrMatrix(csr.shape, csr.values, csr.col_ids, bad)

    def test_col_id_out_of_range(self, csr):
        bad = csr.col_ids.copy()
        bad[0] = csr.shape[1]
        with pytest.raises(FormatError):
            CsrMatrix(csr.shape, csr.values, bad, csr.row_ptr)

    def test_truncated_values(self, csr):
        with pytest.raises(FormatError):
            CsrMatrix(csr.shape, csr.values[:-1], csr.col_ids, csr.row_ptr)

    def test_repeated_cell(self):
        # Decoding would keep only the last copy while the report and
        # storage() bill both.
        with pytest.raises(FormatError, match="duplicate"):
            CsrMatrix((1, 2), [1.0, 2.0], [0, 0], [0, 2])

    def test_unsorted_distinct_columns_pass(self):
        csr = CsrMatrix((1, 3), [1.0, 2.0], [2, 0], [0, 2])
        assert csr.to_dense().tolist() == [[2.0, 0.0, 1.0]]


class TestOtherMatrixCorruption:
    def test_coo_negative_index(self, rng):
        with pytest.raises(FormatError):
            CooMatrix((4, 4), [1.0], [-1], [0])

    def test_csc_repeated_cell(self):
        with pytest.raises(FormatError, match="duplicate"):
            CscMatrix((2, 1), [1.0, 2.0], [0, 0], [0, 2])

    def test_csc_ptr_wrong_length(self, rng):
        csc = CscMatrix.from_dense(make_sparse(rng, (5, 6), 0.4))
        with pytest.raises(FormatError):
            CscMatrix(csc.shape, csc.values, csc.row_ids, csc.col_ptr[:-1])

    def test_rlc_stream_overruns_shape(self):
        # Runs summing past the logical size must be rejected.
        with pytest.raises(FormatError):
            RlcMatrix((2, 2), runs=[3, 1], levels=[1.0, 2.0])

    def test_rlc_negative_run(self):
        # A negative run would place its level before the stream's start,
        # which numpy indexing wraps round into the last element.
        with pytest.raises(FormatError, match="run lengths must be >= 0"):
            RlcMatrix((2, 2), runs=[-1, 0], levels=[1.0, 2.0])

    def test_zvc_mask_all_zero_with_values(self):
        with pytest.raises(FormatError):
            ZvcMatrix((2, 2), [1.0], np.zeros(4, dtype=bool))

    def test_bsr_col_id_out_of_grid(self, rng):
        bsr = BsrMatrix.from_dense(make_sparse(rng, (6, 6), 0.5))
        if bsr.nblocks == 0:
            pytest.skip("no blocks")
        bad = bsr.block_col_ids.copy()
        bad[0] = bsr.block_cols
        with pytest.raises(FormatError):
            BsrMatrix(bsr.shape, bsr.values, bad, bsr.block_row_ptr,
                      block_shape=bsr.block_shape)

    def test_ell_nonzero_in_padding(self, rng):
        ell = EllMatrix.from_dense(make_sparse(rng, (5, 8), 0.2))
        if ell.width < 2:
            pytest.skip("needs padding slots")
        bad_vals = ell.values.copy()
        # Find a padding slot and plant a value without fixing the col id.
        pads = np.argwhere(ell.col_ids == -1)
        if len(pads) == 0:
            pytest.skip("no padding")
        i, j = pads[0]
        bad_vals[i, j] = 9.0
        with pytest.raises(FormatError):
            EllMatrix(ell.shape, bad_vals, ell.col_ids)

    def test_ell_shape_mismatch(self, rng):
        ell = EllMatrix.from_dense(make_sparse(rng, (5, 8), 0.3))
        with pytest.raises(FormatError):
            EllMatrix(ell.shape, ell.values, ell.col_ids[:-1])


class TestTensorCorruption:
    def test_rlc_tensor_negative_run(self):
        with pytest.raises(FormatError, match="run lengths must be >= 0"):
            RlcTensor((1, 2, 2), runs=[0, -1], levels=[1.0, 2.0])

    def test_csf_ptr_endpoint(self, rng):
        csf = CsfTensor.from_dense(make_sparse(rng, (4, 4, 4), 0.3))
        if csf.nroots == 0:
            pytest.skip("empty")
        bad = csf.x_ptr.copy()
        bad[-1] += 1
        with pytest.raises(FormatError):
            CsfTensor(csf.shape, csf.x_ids, bad, csf.y_ids, csf.y_ptr,
                      csf.z_ids, csf.values)

    def test_coo_tensor_duplicate(self):
        with pytest.raises(FormatError):
            CooTensor((2, 2, 2), [1.0, 2.0], [0, 0], [0, 0], [0, 0])

    def test_hicoo_offset_out_of_block(self, rng):
        h = HicooTensor.from_dense(make_sparse(rng, (6, 6, 6), 0.2))
        if len(h.values) == 0:
            pytest.skip("empty")
        bad = h.elem_offsets.copy()
        bad[0, 0] = h.block_shape[0]
        with pytest.raises(FormatError):
            HicooTensor(h.shape, h.values, h.bptr, h.block_ids, bad,
                        block_shape=h.block_shape)

    def test_hicoo_empty_block(self, rng):
        h = HicooTensor.from_dense(make_sparse(rng, (6, 6, 6), 0.2))
        if h.nblocks < 2:
            pytest.skip("needs blocks")
        bad = h.bptr.copy()
        bad[1] = bad[0]  # first block becomes empty
        with pytest.raises(FormatError):
            HicooTensor(h.shape, h.values, bad, h.block_ids, h.elem_offsets,
                        block_shape=h.block_shape)


#: Raw fields that store one cell twice, for every registered format
#: whose layout can express a repeat, keyed by ``(kind, format)``.
#: Decoding such fields keeps one copy while ``storage()`` bills both.
REPEATED_CELL = {
    ("matrix", Format.COO): lambda: CooMatrix((1, 2), [1.0, 2.0], [0, 0], [1, 1]),
    ("matrix", Format.CSR): lambda: CsrMatrix((1, 2), [1.0, 2.0], [0, 0], [0, 2]),
    ("matrix", Format.CSC): lambda: CscMatrix((2, 1), [1.0, 2.0], [0, 0], [0, 2]),
    ("matrix", Format.BSR): lambda: BsrMatrix(
        (2, 4), np.ones((2, 2, 2)), [0, 0], [0, 2]
    ),
    ("matrix", Format.DIA): lambda: DiaMatrix((2, 2), np.ones((2, 2)), [0, 0]),
    ("matrix", Format.ELL): lambda: EllMatrix((1, 2), [[1.0, 2.0]], [[0, 0]]),
    ("tensor", Format.COO): lambda: CooTensor(
        (2, 2, 2), [1.0, 2.0], [0, 0], [0, 0], [0, 0]
    ),
    ("tensor", Format.CSF): lambda: CsfTensor(
        (1, 1, 2), [0], [0, 1], [0], [0, 2], [0, 0], [1.0, 2.0]
    ),
    ("tensor", Format.HICOO): lambda: HicooTensor(
        (1, 1, 2), [1.0, 2.0], [0, 2], [[0, 0, 0]], [[0, 0, 0], [0, 0, 0]]
    ),
}

#: Formats with one slot per position (a bitmask, run lengths, the dense
#: array itself): a cell's position follows from the layout, so no field
#: can name it twice.
POSITIONAL = {
    (kind, fmt)
    for kind in ("matrix", "tensor")
    for fmt in (Format.DENSE, Format.RLC, Format.ZVC)
}

REGISTERED = [("matrix", f) for f in MATRIX_FORMATS] + [
    ("tensor", f) for f in TENSOR_FORMATS
]


class TestRepeatedCell:
    """A cell is stored at most once, in every registered format."""

    def test_every_registered_format_is_covered(self):
        assert not set(REPEATED_CELL) & POSITIONAL
        assert set(REPEATED_CELL) | POSITIONAL == set(REGISTERED)

    @pytest.mark.parametrize(
        "case", sorted(REPEATED_CELL, key=str),
        ids=lambda case: f"{case[0]}-{case[1].value}",
    )
    def test_repeated_cell_rejected(self, case):
        with pytest.raises(FormatError):
            REPEATED_CELL[case]()

    def test_repeated_csf_root(self):
        # Distinct cells, but root x=0 is stored twice: storage() would
        # bill 18 metadata bits where the canonical tree bills 10.
        with pytest.raises(FormatError, match="x_ids"):
            CsfTensor((1, 1, 2), x_ids=[0, 0], x_ptr=[0, 1, 2],
                      y_ids=[0, 0], y_ptr=[0, 1, 2], z_ids=[0, 1],
                      values=[1.0, 2.0])

    def test_repeated_csf_fiber(self):
        with pytest.raises(FormatError, match="y_ids"):
            CsfTensor((1, 2, 2), x_ids=[0], x_ptr=[0, 2], y_ids=[0, 0],
                      y_ptr=[0, 1, 2], z_ids=[0, 1], values=[1.0, 2.0])

    def test_repeated_hicoo_block(self):
        # Distinct cells, but block [0, 0, 0] is stored twice: 18
        # metadata bits where the canonical encoding bills 13.
        with pytest.raises(FormatError, match="block_ids"):
            HicooTensor((1, 1, 2), [1.0, 2.0], [0, 1, 2],
                        [[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1]])

    def test_hicoo_block_outside_grid(self):
        with pytest.raises(FormatError, match="block grid"):
            HicooTensor((2, 2, 2), [1.0], [0, 1], [[1, 0, 0]], [[0, 0, 0]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EllMatrix((1, 3), [[1.0, 2.0]], [[2, 0]]),
            lambda: EllMatrix((2, 3), [[1.0, 0.0], [2.0, 3.0]],
                              [[1, -1], [2, 0]]),
            lambda: BsrMatrix((2, 4), np.ones((2, 2, 2)), [1, 0], [0, 2]),
            lambda: CsfTensor((2, 2, 2), [1, 0], [0, 1, 2], [1, 1],
                              [0, 2, 3], [1, 0, 1], [1.0, 2.0, 3.0]),
            lambda: HicooTensor((4, 2, 2), [1.0, 2.0, 3.0], [0, 2, 3],
                                [[1, 0, 0], [0, 0, 0]],
                                [[1, 0, 0], [0, 0, 0], [0, 1, 1]]),
        ],
        ids=["ell", "ell-padded-row", "bsr", "csf", "hicoo"],
    )
    def test_distinct_out_of_order_fields_pass(self, build):
        # Out-of-order but distinct fields take the sort path and pass.
        fmt = build()
        assert np.count_nonzero(fmt.to_dense()) == len(
            np.asarray(fmt.values).nonzero()[0]
        )
