"""EDP aggregation helpers and table rendering."""

from __future__ import annotations

import pytest

from repro.analysis.edp import edp_table
from repro.analysis.tables import render_table


class TestEdp:
    def test_edp_table_summary(self):
        per_wl = {
            "w1": {"base": 2.0, "ours": 1.0},
            "w2": {"base": 4.0, "ours": 1.0},
        }
        t = edp_table(per_wl, "ours")
        assert t["base"]["max_reduction_pct"] == pytest.approx(300.0)
        assert t["base"]["geomean_reduction_pct"] == pytest.approx(
            (8.0 ** 0.5 - 1) * 100
        )


class TestTables:
    def test_render_aligned(self):
        text = render_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all("|" in line for line in lines[1:] if "-" not in line)

