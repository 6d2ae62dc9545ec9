"""Energy-delay-product aggregation for the Fig. 12/13/14 result tables."""

from __future__ import annotations

from typing import Mapping

from repro.util.stats import geomean


def edp_table(
    per_workload: Mapping[str, Mapping[str, float]], ours: str
) -> dict[str, dict[str, float]]:
    """Summary of geomean and max reductions per baseline (Fig. 13 captions)."""
    systems = {
        name
        for table in per_workload.values()
        for name in table
        if name != ours
    }
    out: dict[str, dict[str, float]] = {}
    for system in sorted(systems):
        ratios = [
            table[system] / table[ours]
            for table in per_workload.values()
            if system in table
        ]
        out[system] = {
            "geomean_reduction_pct": (geomean(ratios) - 1.0) * 100.0,
            "max_reduction_pct": (max(ratios) - 1.0) * 100.0,
        }
    return out
