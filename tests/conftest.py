"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; per-test isolation via fixed seed."""
    return np.random.default_rng(12345)


def tensor_class(fmt):
    """The 3-D tensor class implementing *fmt*."""
    from repro.formats import (
        CooTensor,
        CsfTensor,
        DenseTensor,
        HicooTensor,
        RlcTensor,
        ZvcTensor,
    )
    from repro.formats.registry import Format

    return {
        Format.DENSE: DenseTensor,
        Format.COO: CooTensor,
        Format.CSF: CsfTensor,
        Format.HICOO: HicooTensor,
        Format.RLC: RlcTensor,
        Format.ZVC: ZvcTensor,
    }[fmt]


def make_sparse(rng, shape, density):
    """Dense ndarray with ~density fraction of nonzeros in (0.1, 1]."""
    mask = rng.random(shape) < density
    return (0.1 + 0.9 * rng.random(shape)) * mask


@pytest.fixture
def small_matrix(rng) -> np.ndarray:
    """A 9x7 matrix at ~30% density."""
    return make_sparse(rng, (9, 7), 0.3)


@pytest.fixture
def small_tensor(rng) -> np.ndarray:
    """A 5x6x7 tensor at ~20% density."""
    return make_sparse(rng, (5, 6, 7), 0.2)
