"""Evaluation analytics: compactness sweeps, EDP aggregation, table rendering."""

from repro.analysis.compactness import (
    crossover_density,
    storage_bits,
    transfer_energy_sweep,
)
from repro.analysis.edp import edp_table
from repro.analysis.tables import render_table

__all__ = [
    "storage_bits",
    "transfer_energy_sweep",
    "crossover_density",
    "edp_table",
    "render_table",
]
