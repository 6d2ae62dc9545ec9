"""Workload fingerprints: stability, sensitivity, banding, validation."""

from __future__ import annotations

import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.serve.fingerprint import (
    WorkloadFingerprint,
    config_digest,
    density_band,
    fingerprint_of,
)
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload


def _wl(**overrides) -> MatrixWorkload:
    base = dict(
        name="fp", kernel=Kernel.SPMM, m=512, k=512, n=256,
        nnz_a=10_000, nnz_b=512 * 256,
    )
    base.update(overrides)
    return MatrixWorkload(**base)


class TestStability:
    def test_same_stats_same_fingerprint(self):
        assert fingerprint_of(_wl()) == fingerprint_of(_wl(name="other"))

    def test_wire_dict_matches_object(self):
        wl = _wl()
        assert fingerprint_of(wl.to_dict()) == fingerprint_of(wl)

    def test_exact_key_hashable_and_stable(self):
        fp = fingerprint_of(_wl())
        assert fp.exact_key() == fingerprint_of(_wl()).exact_key()
        assert hash(fp.exact_key()) == hash(fingerprint_of(_wl()).exact_key())

    def test_tensor_fingerprint_carries_rank(self):
        a = TensorWorkload("t", Kernel.SPTTM, (32, 32, 32), 500, rank=8)
        b = TensorWorkload("t", Kernel.SPTTM, (32, 32, 32), 500, rank=16)
        assert fingerprint_of(a) != fingerprint_of(b)


class TestSensitivity:
    @pytest.mark.parametrize(
        "change",
        [
            {"m": 513},
            {"n": 128, "nnz_b": 512 * 128},
            {"nnz_a": 10_001},
            {"dtype_bits": 16},
            {"kernel": Kernel.SPGEMM},
        ],
    )
    def test_any_statistic_changes_exact_key(self, change):
        assert (
            fingerprint_of(_wl(**change)).exact_key()
            != fingerprint_of(_wl()).exact_key()
        )

    def test_config_changes_fingerprint(self):
        small = AcceleratorConfig(num_pes=64)
        assert fingerprint_of(_wl(), small) != fingerprint_of(_wl())
        assert config_digest(small) != config_digest(
            AcceleratorConfig.paper_default()
        )

    def test_matrix_and_tensor_never_collide(self):
        # Same flattened dims/nnz on purpose.
        mat = MatrixWorkload("m", Kernel.SPMM, m=32, k=32, n=32,
                             nnz_a=100, nnz_b=32 * 32)
        ten = TensorWorkload("t", Kernel.SPTTM, (32, 32, 32), 100, rank=32)
        assert fingerprint_of(mat).exact_key() != fingerprint_of(ten).exact_key()


class TestBanding:
    def test_density_band_is_power_of_two_bucket(self):
        assert density_band(1024) == density_band(2047)
        assert density_band(1024) != density_band(2048)
        assert density_band(0) == density_band(1)

    def test_band_key_merges_nnz_within_band(self):
        a, b = fingerprint_of(_wl(nnz_a=10_000)), fingerprint_of(_wl(nnz_a=11_000))
        assert a.exact_key() != b.exact_key()
        assert a.band_key() == b.band_key()

    def test_band_key_splits_across_bands(self):
        a, b = fingerprint_of(_wl(nnz_a=10_000)), fingerprint_of(_wl(nnz_a=20_000))
        assert a.band_key() != b.band_key()

    def test_band_key_merges_dims_within_band(self):
        # Real suites have no two workloads with identical extents; dims
        # must band like nnz does or near hits never fire (the Table III
        # near_hits=0 regression).
        a, b = fingerprint_of(_wl(m=512)), fingerprint_of(_wl(m=700))
        assert a.exact_key() != b.exact_key()
        assert a.band_key() == b.band_key()

    def test_band_key_splits_dims_across_bands(self):
        a, b = fingerprint_of(_wl(m=512)), fingerprint_of(_wl(m=2048))
        assert a.band_key() != b.band_key()


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadFingerprint(
                kind="vector", kernel="SpMV", dims=(4,), nnz=(4,),
                dtype_bits=32, config="00",
            )
