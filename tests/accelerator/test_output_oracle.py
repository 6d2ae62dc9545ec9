"""``run_gemm``'s product and operand check against the dense oracle.

``Session.run`` no longer forms a second dense product to check the
simulator: it checks that the operands the GEMM reads hold exactly the
inputs' nonzeros.  So the product itself (``simulator._output``: one
scatter of the streamed entries and one matmul) is pinned here against
numpy's ``A @ B``, over every streamable x stationary ACF pair, on
operands with empty rows, empty reduction indices and stored explicit
zeros, with schedules of many K tiles and column rounds.  Each GEMM runs
with its input coordinates, so the exact check must accept every such
operand, explicit zeros and out-of-order streams included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accelerator import AcceleratorConfig, WeightStationarySimulator
from repro.accelerator.protocols import stationary_formats, streamable_formats
from repro.formats import CooMatrix
from repro.formats.base import coords_to_dense
from repro.formats.registry import matrix_class

#: Stored values; zeros are stored explicitly by the sparse encodings.
VALUES = np.asarray([0.0, 0.0, 1.0, -2.5, 0.125, 3.0])
PAIRS = [(a, b) for a in streamable_formats() for b in stationary_formats()]


def _coords(rng, shape, density, empty_rows=(), empty_ks=()):
    """Row-major stored positions of *shape* at *density*, none in the
    given rows or columns, and values from :data:`VALUES`."""
    m, k = shape
    flat = np.flatnonzero(rng.random(m * k) < density)
    flat = flat[~np.isin(flat // max(k, 1), empty_rows)
                & ~np.isin(flat % max(k, 1), empty_ks)]
    return flat, rng.choice(VALUES, size=len(flat))


class TestOutputOracle:
    def test_pairs_cover_both_stationary_layouts(self):
        assert {str(b) for _a, b in PAIRS} == {"Dense", "CSC"}
        assert len(PAIRS) == 2 * len(streamable_formats()) >= 10

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(0, 7),
        k=st.integers(1, 10),
        n=st.integers(0, 9),
        density_a=st.sampled_from((0.0, 0.2, 0.6, 1.0)),
        density_b=st.sampled_from((0.0, 0.3, 1.0)),
        empty_rows=st.lists(st.integers(0, 6), max_size=3),
        empty_ks=st.lists(st.integers(0, 9), max_size=3),
        num_pes=st.integers(1, 3),
        buffer_entries=st.integers(2, 8),
    )
    # Many K tiles and column rounds, a band of k streaming nothing.
    @example(seed=1, m=6, k=10, n=9, density_a=1.0, density_b=1.0,
             empty_rows=[2], empty_ks=[3, 4, 5], num_pes=2, buffer_entries=2)
    # An empty stream; a stationary operand without columns.
    @example(seed=2, m=4, k=5, n=6, density_a=0.0, density_b=1.0,
             empty_rows=[], empty_ks=[], num_pes=3, buffer_entries=4)
    @example(seed=3, m=3, k=4, n=0, density_a=1.0, density_b=1.0,
             empty_rows=[], empty_ks=[], num_pes=1, buffer_entries=2)
    def test_product_equals_numpy_for_every_acf_pair(
        self, seed, m, k, n, density_a, density_b, empty_rows, empty_ks,
        num_pes, buffer_entries,
    ):
        rng = np.random.default_rng(seed)
        a_nz = _coords(rng, (m, k), density_a, empty_rows, empty_ks)
        b_nz = _coords(rng, (k, n), density_b)
        want = coords_to_dense((m, k), *a_nz) @ coords_to_dense((k, n), *b_nz)
        sim = WeightStationarySimulator(AcceleratorConfig(
            num_pes=num_pes, pe_buffer_bytes=4 * buffer_entries,
        ))
        for acf_a, acf_b in PAIRS:
            a = matrix_class(acf_a).from_coords((m, k), *a_nz)
            b = matrix_class(acf_b).from_coords((k, n), *b_nz)
            streams = [a]
            if isinstance(a, CooMatrix):  # a stream out of row-major order
                order = rng.permutation(len(a.values))
                streams.append(CooMatrix(
                    a.shape, a.values[order], a.row_ids[order],
                    a.col_ids[order],
                ))
            for streamed in streams:
                out, report = sim.run_gemm(
                    streamed, acf_a, b, acf_b, inputs=(a_nz, b_nz)
                )
                assert out.shape == (m, n)
                assert np.allclose(out, want), (acf_a, acf_b)
                unchecked, same = sim.run_gemm(streamed, acf_a, b, acf_b)
                assert np.array_equal(out, unchecked)
                assert report == same
