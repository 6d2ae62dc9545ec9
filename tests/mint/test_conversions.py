"""Every MINT hardware-path conversion is element-exact vs the oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import matrix_class
from repro.formats.registry import Format
from repro.mint import conversions as mx
from repro.mint import tensor_conversions as tx
from repro.mint.blockset import BlockSet
from tests.conftest import make_sparse, tensor_class

MATRIX_CONVERSIONS = [
    (Format.CSR, Format.CSC, mx.csr_to_csc),
    (Format.CSC, Format.CSR, mx.csc_to_csr),
    (Format.RLC, Format.COO, mx.rlc_to_coo),
    (Format.RLC, Format.DENSE, mx.rlc_to_dense),
    (Format.CSR, Format.BSR, mx.csr_to_bsr),
    (Format.DENSE, Format.COO, mx.dense_to_coo),
    (Format.DENSE, Format.CSR, mx.dense_to_csr),
    (Format.DENSE, Format.CSC, mx.dense_to_csc),
    (Format.DENSE, Format.ZVC, mx.dense_to_zvc),
    (Format.DENSE, Format.RLC, mx.dense_to_rlc),
    (Format.DENSE, Format.BSR, mx.dense_to_bsr),
    (Format.DENSE, Format.DIA, mx.dense_to_dia),
    (Format.COO, Format.CSR, mx.coo_to_csr),
    (Format.COO, Format.CSC, mx.coo_to_csc),
    (Format.COO, Format.DENSE, mx.coo_to_dense),
    (Format.CSR, Format.COO, mx.csr_to_coo),
    (Format.CSR, Format.DENSE, mx.csr_to_dense),
    (Format.CSC, Format.COO, mx.csc_to_coo),
    (Format.CSC, Format.DENSE, mx.csc_to_dense),
    (Format.ZVC, Format.DENSE, mx.zvc_to_dense),
    (Format.BSR, Format.DENSE, mx.bsr_to_dense),
    (Format.DIA, Format.DENSE, mx.dia_to_dense),
]

TENSOR_CONVERSIONS = [
    (Format.DENSE, Format.COO, tx.dense_to_coo3),
    (Format.DENSE, Format.CSF, tx.dense_to_csf),
    (Format.DENSE, Format.ZVC, tx.dense_to_zvc3),
    (Format.DENSE, Format.RLC, tx.dense_to_rlc3),
    (Format.DENSE, Format.HICOO, tx.dense_to_hicoo),
    (Format.COO, Format.CSF, tx.coo3_to_csf),
    (Format.COO, Format.DENSE, tx.coo3_to_dense),
    (Format.COO, Format.HICOO, tx.coo3_to_hicoo),
    (Format.CSF, Format.COO, tx.csf_to_coo3),
    (Format.CSF, Format.DENSE, tx.csf_to_dense),
    (Format.ZVC, Format.DENSE, tx.zvc3_to_dense),
    (Format.RLC, Format.COO, tx.rlc3_to_coo3),
    (Format.RLC, Format.DENSE, tx.rlc3_to_dense),
    (Format.HICOO, Format.COO, tx.hicoo_to_coo3),
    (Format.HICOO, Format.DENSE, tx.hicoo_to_dense),
]


@pytest.mark.parametrize(
    "src,dst,fn", MATRIX_CONVERSIONS, ids=[f"{s.value}->{d.value}" for s, d, _ in MATRIX_CONVERSIONS]
)
@pytest.mark.parametrize("density", [0.0, 0.1, 0.5])
def test_matrix_conversion_exact(src, dst, fn, density, rng):
    dense = make_sparse(rng, (10, 14), density)
    source = matrix_class(src).from_dense(dense)
    out, cycles = fn(source, BlockSet())
    assert out.format is dst
    assert np.array_equal(out.to_dense(), dense)
    assert cycles >= 0


@pytest.mark.parametrize(
    "src,dst,fn", TENSOR_CONVERSIONS, ids=[f"{s.value}->{d.value}" for s, d, _ in TENSOR_CONVERSIONS]
)
@pytest.mark.parametrize("density", [0.0, 0.15, 0.6])
def test_tensor_conversion_exact(src, dst, fn, density, rng):
    dense = make_sparse(rng, (4, 5, 6), density)
    source = tensor_class(src).from_dense(dense)
    out, cycles = fn(source, BlockSet())
    assert out.format is dst
    assert np.array_equal(out.to_dense(), dense)
    assert cycles >= 0


def test_csr_to_csc_is_counting_sort(rng):
    """The scatter destinations equal a stable counting sort by column."""
    dense = make_sparse(rng, (8, 8), 0.4)
    csr = matrix_class(Format.CSR).from_dense(dense)
    csc, _ = mx.csr_to_csc(csr, BlockSet())
    oracle = matrix_class(Format.CSC).from_dense(dense)
    assert np.array_equal(csc.values, oracle.values)
    assert np.array_equal(csc.row_ids, oracle.row_ids)
    assert np.array_equal(csc.col_ptr, oracle.col_ptr)


def test_rlc_to_coo_drops_padding(rng):
    """Fixed-width padding entries must not surface as COO zeros."""
    dense = np.zeros((1, 200))
    dense[0, 150] = 3.0  # long gap forces padding with 5-bit runs
    rlc = matrix_class(Format.RLC).from_dense(dense)
    assert rlc.entries > 1
    coo, _ = mx.rlc_to_coo(rlc, BlockSet())
    assert coo.stored == 1
    assert np.array_equal(coo.to_dense(), dense)


def test_csr_to_bsr_custom_block(rng):
    dense = make_sparse(rng, (9, 12), 0.3)
    csr = matrix_class(Format.CSR).from_dense(dense)
    bsr, _ = mx.csr_to_bsr(csr, BlockSet(), block_shape=(3, 4))
    assert bsr.block_shape == (3, 4)
    assert np.array_equal(bsr.to_dense(), dense)


def test_conversions_accumulate_block_stats(rng):
    dense = make_sparse(rng, (12, 12), 0.3)
    blocks = BlockSet()
    mx.rlc_to_coo(matrix_class(Format.RLC).from_dense(dense), blocks)
    stats = blocks.total_stats()
    assert stats.divides > 0  # coordinate computation used the divmod bank
    assert stats.elements_moved > 0
    assert blocks.energy_joules() > 0.0
