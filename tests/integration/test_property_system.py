"""System-level hypothesis properties: simulator and conversion engine."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator import AcceleratorConfig, WeightStationarySimulator
from repro.formats import CooMatrix, CscMatrix, CsrMatrix, DenseMatrix
from repro.formats.registry import MATRIX_FORMATS, Format
from repro.mint import MintEngine
from tests.accelerator._analytical_oracle import analytical_gemm

ENCODERS = {
    Format.DENSE: DenseMatrix,
    Format.CSR: CsrMatrix,
    Format.COO: CooMatrix,
    Format.CSC: CscMatrix,
}


@st.composite
def gemm_cases(draw):
    """Random (A, B, config, acf pair) simulator cases."""
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, 10))
    n = draw(st.integers(1, 6))
    density = draw(st.sampled_from([0.1, 0.4, 0.9]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    a = (0.5 + rng.random((m, k))) * (rng.random((m, k)) < density)
    b = (0.5 + rng.random((k, n))) * (rng.random((k, n)) < density)
    acf_a = draw(st.sampled_from(list(ENCODERS)))
    acf_b = draw(st.sampled_from([Format.DENSE, Format.CSC]))
    bus = draw(st.sampled_from([4, 5, 8, 16]))
    buf = draw(st.sampled_from([3, 6, 16]))
    pes = draw(st.integers(1, 5))
    cfg = AcceleratorConfig(
        num_pes=pes, vector_lanes=2, pe_buffer_bytes=buf * 4, bus_bits=bus * 32
    )
    return a, b, acf_a, acf_b, cfg


@given(case=gemm_cases())
@settings(max_examples=60, deadline=None)
def test_simulator_always_computes_matmul(case):
    a, b, acf_a, acf_b, cfg = case
    a_enc = ENCODERS[acf_a].from_dense(a)
    b_enc = (
        CscMatrix.from_dense(b) if acf_b is Format.CSC else DenseMatrix.from_dense(b)
    )
    out, rep = WeightStationarySimulator(cfg).run_gemm(a_enc, acf_a, b_enc, acf_b)
    assert np.allclose(out, a @ b)
    assert rep.cycles.matched_macs <= max(rep.cycles.issued_macs, 1)
    assert rep.energy.total_j >= 0.0


@given(case=gemm_cases())
@settings(max_examples=40, deadline=None)
def test_analytical_always_matches_simulator(case):
    a, b, acf_a, acf_b, cfg = case
    a_enc = ENCODERS[acf_a].from_dense(a)
    b_enc = (
        CscMatrix.from_dense(b) if acf_b is Format.CSC else DenseMatrix.from_dense(b)
    )
    _, sim = WeightStationarySimulator(cfg).run_gemm(a_enc, acf_a, b_enc, acf_b)
    ana = analytical_gemm(a_enc, acf_a, b_enc, acf_b, cfg)
    assert ana.cycles == sim.cycles


@given(
    seed=st.integers(0, 2**16),
    density=st.sampled_from([0.0, 0.15, 0.6]),
    src=st.sampled_from(list(MATRIX_FORMATS)),
    dst=st.sampled_from(list(MATRIX_FORMATS)),
)
@settings(max_examples=80, deadline=None)
def test_mint_engine_preserves_values(seed, density, src, dst):
    from repro.formats import matrix_class

    rng = np.random.default_rng(seed)
    dense = (0.5 + rng.random((7, 9))) * (rng.random((7, 9)) < density)
    out, report = MintEngine().convert(matrix_class(src).from_dense(dense), dst)
    assert np.array_equal(out.to_dense(), dense)
    assert report.cycles >= 0 and report.energy_j >= 0.0
    assert (report.cycles == 0) == (src is dst)
