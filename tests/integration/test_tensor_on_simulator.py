"""Tensor kernels executed on the cycle-level accelerator via matricization.

Closes the loop the analytical tensor model assumes: SpTTM and MTTKRP
really are GEMMs over unfoldings, so the *cycle simulator* — not just the
closed-form model — can execute them and reproduce the einsum oracles.
Also validates the structural claim behind the CSF streaming spec: CSR rows
of the mode-3 unfolding are exactly the CSF fibers.
"""

from __future__ import annotations

import numpy as np
import pytest

from _tensor_lowering import (
    fold_mode3,
    khatri_rao,
    matricize_mode1,
    matricize_mode3,
    ref_mttkrp,
    ref_spttm,
)
from repro.accelerator import AcceleratorConfig, WeightStationarySimulator
from repro.formats import CooMatrix, CsfTensor, CsrMatrix, DenseMatrix
from repro.formats.registry import Format
from tests.conftest import make_sparse


@pytest.fixture
def fabric():
    return AcceleratorConfig(
        num_pes=4, vector_lanes=4, pe_buffer_bytes=24 * 4, bus_bits=8 * 32
    )


class TestMatricize:
    def test_mode3_rows_are_fibers(self, small_tensor):
        unfolded = matricize_mode3(small_tensor)
        csr = CsrMatrix.from_dense(unfolded)
        csf = CsfTensor.from_dense(small_tensor)
        # Nonempty CSR rows == CSF fibers, with identical leaf counts.
        lengths = csr.row_lengths()
        assert int((lengths > 0).sum()) == csf.nfibers
        fiber_rows = (
            csf.to_coo().x_ids * small_tensor.shape[1] + csf.to_coo().y_ids
        )
        assert np.array_equal(
            np.sort(np.unique(fiber_rows)), np.flatnonzero(lengths > 0)
        )

    def test_khatri_rao_known_value(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        c = np.array([[5.0, 6.0], [7.0, 8.0]])
        kr = khatri_rao(b, c)
        assert kr.shape == (4, 2)
        assert np.allclose(kr[:, 0], [5.0, 7.0, 15.0, 21.0])

    def test_khatri_rao_rejects_rank_mismatch(self, rng):
        with pytest.raises(ValueError):
            khatri_rao(rng.random((3, 2)), rng.random((4, 3)))

    def test_fold_unfold_roundtrip(self, small_tensor):
        unfolded = matricize_mode3(small_tensor)
        folded = fold_mode3(unfolded, small_tensor.shape)
        assert np.array_equal(folded, small_tensor)


class TestSpttmOnSimulator:
    @pytest.mark.parametrize("density", [0.05, 0.25])
    @pytest.mark.parametrize("acf_t", [Format.CSR, Format.COO, Format.DENSE])
    def test_matches_einsum(self, density, acf_t, fabric, rng):
        shape, rank = (5, 6, 8), 3
        x = make_sparse(rng, shape, density)
        u = rng.random((shape[2], rank))
        unfolded = matricize_mode3(x)
        from repro.formats import CooMatrix

        enc = {
            Format.CSR: CsrMatrix,
            Format.COO: CooMatrix,
            Format.DENSE: DenseMatrix,
        }[acf_t].from_dense(unfolded)
        sim = WeightStationarySimulator(fabric)
        out, rep = sim.run_gemm(enc, acf_t, DenseMatrix.from_dense(u), Format.DENSE)
        assert np.allclose(fold_mode3(out, shape), ref_spttm(x, u))
        assert rep.cycles.total_cycles > 0


#: (shape, rank, density): a 1x1x1 tensor, an all-zero tensor, a rank
#: above the smallest mode, a mostly-full tensor.
SHAPE_CASES = [
    ((1, 1, 1), 2, 1.0),
    ((4, 5, 6), 3, 0.2),
    ((8, 3, 10), 4, 0.05),
    ((3, 3, 3), 2, 0.0),
    ((2, 7, 4), 5, 0.7),
]

UNFOLDING_ENCODERS = {
    Format.CSR: CsrMatrix,
    Format.COO: CooMatrix,
    Format.DENSE: DenseMatrix,
}


@pytest.mark.parametrize("shape,rank,density", SHAPE_CASES)
@pytest.mark.parametrize("acf", list(UNFOLDING_ENCODERS))
class TestShapeSweep:
    def test_spttm_matches_einsum(self, shape, rank, density, acf, fabric, rng):
        x = make_sparse(rng, shape, density)
        u = rng.random((shape[2], rank))
        enc = UNFOLDING_ENCODERS[acf].from_dense(matricize_mode3(x))
        out, _ = WeightStationarySimulator(fabric).run_gemm(
            enc, acf, DenseMatrix.from_dense(u), Format.DENSE
        )
        assert np.allclose(fold_mode3(out, shape), ref_spttm(x, u))

    def test_mttkrp_matches_einsum(self, shape, rank, density, acf, fabric, rng):
        x = make_sparse(rng, shape, density)
        b = rng.random((shape[1], rank))
        c = rng.random((shape[2], rank))
        enc = UNFOLDING_ENCODERS[acf].from_dense(matricize_mode1(x))
        out, _ = WeightStationarySimulator(fabric).run_gemm(
            enc, acf, DenseMatrix.from_dense(khatri_rao(b, c)), Format.DENSE
        )
        assert np.allclose(out, ref_mttkrp(x, b, c))


class TestMttkrpOnSimulator:
    @pytest.mark.parametrize("density", [0.1, 0.4])
    def test_matches_einsum(self, density, fabric, rng):
        shape, rank = (4, 5, 6), 3
        x = make_sparse(rng, shape, density)
        b = rng.random((shape[1], rank))
        c = rng.random((shape[2], rank))
        unfolded = matricize_mode1(x)  # I x (J*K)
        kr = khatri_rao(b, c)  # (J*K) x R
        sim = WeightStationarySimulator(fabric)
        out, _ = sim.run_gemm(
            CsrMatrix.from_dense(unfolded),
            Format.CSR,
            DenseMatrix.from_dense(kr),
            Format.DENSE,
        )
        assert np.allclose(out, ref_mttkrp(x, b, c))

    def test_csf_streaming_cheaper_than_coo_for_clustered_fibers(self, fabric, rng):
        """The Table III intuition on real hardware: fiber-clustered tensors
        stream cheaper row-grouped (CSR of the unfolding ~= CSF) than COO."""
        x = np.zeros((4, 4, 24))
        x[0, 1, :] = 1.0  # two long fibers
        x[2, 3, :] = 2.0
        unfolded = matricize_mode3(x)
        sim = WeightStationarySimulator(fabric)
        from repro.formats import CooMatrix

        csr_cycles = sim.stream_cycles_only(
            CsrMatrix.from_dense(unfolded), Format.CSR
        )
        coo_cycles = sim.stream_cycles_only(
            CooMatrix.from_dense(unfolded), Format.COO
        )
        assert csr_cycles < coo_cycles
