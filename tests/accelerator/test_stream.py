"""Beat packing: the Fig. 6 pins and the packer's invariants."""

from __future__ import annotations

import numpy as np
import pytest

from _stream_oracle import stream_cycle_count
from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.stream import (
    StreamSpec,
    stream_beats,
    stream_cycles_estimate,
    stream_spec_for,
)
from repro.errors import SimulationError
from repro.formats import CooMatrix, CscMatrix, CsrMatrix, DenseMatrix
from repro.formats.registry import Format
from tests.accelerator.fig6 import fig6_streamed
from tests.conftest import make_sparse


class TestFig6Pins:
    """Sec. IV-B: 'Fig 6a,b,c require 8, 3, and 4 cycles to send matrix A'."""

    @pytest.fixture
    def bus(self):
        return AcceleratorConfig.walkthrough().bus_slots  # 5 slots

    def test_dense_takes_8_cycles(self, bus):
        beats = list(
            stream_beats(DenseMatrix.from_dense(fig6_streamed()), Format.DENSE, bus)
        )
        assert sum(b.cycles for b in beats) == 8

    def test_csr_takes_3_cycles(self, bus):
        beats = list(
            stream_beats(CsrMatrix.from_dense(fig6_streamed()), Format.CSR, bus)
        )
        assert sum(b.cycles for b in beats) == 3

    def test_coo_takes_4_cycles(self, bus):
        beats = list(
            stream_beats(CooMatrix.from_dense(fig6_streamed()), Format.COO, bus)
        )
        assert sum(b.cycles for b in beats) == 4

    def test_csr_row_break_up(self, bus):
        """Fig. 6b: 'C' and 'H' are on different rows and must be broken up."""
        beats = list(
            stream_beats(CsrMatrix.from_dense(fig6_streamed()), Format.CSR, bus)
        )
        # Third beat carries only H (row 3); C (row 0) could not share it.
        rows_per_beat = [sorted({e[0] for e in b.entries}) for b in beats]
        assert rows_per_beat == [[0], [0], [3]]


class TestPackerInvariants:
    @pytest.mark.parametrize("fmt", [Format.DENSE, Format.CSR, Format.COO, Format.CSC])
    @pytest.mark.parametrize("bus", [4, 5, 7, 16])
    def test_every_element_streamed_once(self, fmt, bus, rng):
        dense = make_sparse(rng, (6, 9), 0.4)
        cls = {
            Format.DENSE: DenseMatrix,
            Format.CSR: CsrMatrix,
            Format.COO: CooMatrix,
            Format.CSC: CscMatrix,
        }[fmt]
        beats = list(stream_beats(cls.from_dense(dense), fmt, bus))
        seen = {}
        for b in beats:
            for i, k, v in b.entries:
                assert (i, k) not in seen
                seen[(i, k)] = v
        if fmt is Format.DENSE:
            assert len(seen) == dense.size
        else:
            assert len(seen) == np.count_nonzero(dense)
        for (i, k), v in seen.items():
            assert dense[i, k] == v

    @pytest.mark.parametrize("fmt", [Format.DENSE, Format.CSR, Format.COO, Format.CSC])
    def test_slot_budget_respected(self, fmt, rng):
        bus = 6
        spec = stream_spec_for(fmt)
        dense = make_sparse(rng, (5, 8), 0.5)
        cls = {
            Format.DENSE: DenseMatrix,
            Format.CSR: CsrMatrix,
            Format.COO: CooMatrix,
            Format.CSC: CscMatrix,
        }[fmt]
        for beat in stream_beats(cls.from_dense(dense), fmt, bus):
            if beat.cycles > 1:
                continue  # degenerate wide-entry case
            groups = {e[0] if fmt is not Format.CSC else e[1] for e in beat.entries}
            slots = (
                len(beat.entries) * spec.entry_slots
                + (len(groups) if spec.grouped else 0) * spec.shared_slots
            )
            assert slots <= bus

    def test_cycle_count_matches_beats(self, rng):
        dense = make_sparse(rng, (7, 11), 0.3)
        for fmt, cls in [
            (Format.CSR, CsrMatrix),
            (Format.DENSE, DenseMatrix),
        ]:
            beats = list(stream_beats(cls.from_dense(dense), fmt, 5))
            sizes = (
                (dense != 0).sum(axis=1)
                if fmt is Format.CSR
                else np.full(7, 11)
            )
            assert sum(b.cycles for b in beats) == stream_cycle_count(
                sizes, stream_spec_for(fmt), 5
            )

    def test_k_range_restricts_entries(self, rng):
        dense = make_sparse(rng, (6, 10), 0.5)
        beats = list(
            stream_beats(CsrMatrix.from_dense(dense), Format.CSR, 8, (3, 7))
        )
        for b in beats:
            for _i, k, _v in b.entries:
                assert 3 <= k < 7

    def test_wide_entry_spans_beats(self):
        # COO entry (3 slots) on a 2-slot bus takes 2 cycles.
        dense = np.zeros((2, 2))
        dense[1, 1] = 5.0
        beats = list(stream_beats(CooMatrix.from_dense(dense), Format.COO, 2))
        assert len(beats) == 1 and beats[0].cycles == 2


class TestEstimate:
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.8])
    def test_estimate_tracks_exact(self, density, rng):
        dense = make_sparse(rng, (40, 60), density)
        spec = stream_spec_for(Format.CSR)
        sizes = (dense != 0).sum(axis=1)
        exact = stream_cycle_count(sizes, spec, 16)
        est = stream_cycles_estimate(
            float(sizes.sum()), float((sizes > 0).sum()), spec, 16
        )
        assert est == pytest.approx(exact, rel=0.35)

    def test_estimate_monotone_in_entries(self):
        spec = stream_spec_for(Format.CSR)
        assert stream_cycles_estimate(2000, 10, spec, 16) > (
            stream_cycles_estimate(1000, 10, spec, 16)
        )


class TestSpecs:
    def test_matrix_spec_slots(self):
        assert stream_spec_for(Format.DENSE).entry_slots == 1
        assert stream_spec_for(Format.CSR).entry_slots == 2
        assert stream_spec_for(Format.COO).entry_slots == 3
        assert stream_spec_for(Format.COO).shared_slots == 0

    def test_tensor_specs(self):
        assert stream_spec_for(Format.COO, tensor=True).entry_slots == 4
        assert stream_spec_for(Format.CSF, tensor=True).shared_slots == 2

    def test_unknown_acf_rejected(self):
        with pytest.raises(SimulationError):
            stream_spec_for(Format.BSR)
        with pytest.raises(SimulationError):
            stream_spec_for(Format.CSR, tensor=True)

    def test_entries_per_beat(self):
        spec = StreamSpec(entry_slots=2, shared_slots=1, grouped=True)
        assert spec.entries_per_beat(5) == 2
        assert spec.entries_per_beat(2) == 0
        assert spec.span_cycles(2) == 2
