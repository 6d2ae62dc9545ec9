"""Cycle-tier predictions stay in-process and leave no debris behind.

A fresh interpreter runs a dozen cycle-fidelity predictions on distinct
workloads and one end-to-end run.  The re-rank's handful of proxy GEMMs
must simulate in that process (no fork pool), its stderr must stay free
of tracebacks (resource-tracker ``KeyError``s were the symptom of
shipping operands through shared-memory segments), and no ``repro-op*``
segment may be left in ``/dev/shm``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SHM_DIR = Path("/dev/shm")

SCRIPT = """
from repro import Kernel, MatrixWorkload, Session
from repro.obs import registry

with Session() as session:
    for i in range(12):
        # Proxies at the simulation cap: operands of megabytes, the size
        # that used to travel through shared-memory segments.
        wl = MatrixWorkload(f"hygiene-{i}", Kernel.SPMM, m=512 + 16 * i,
                            k=512, n=256, nnz_a=8_000 + 500 * i,
                            nnz_b=512 * 256)
        assert session.predict(wl, fidelity="cycle").fidelity == "cycle"
    result = session.run(MatrixWorkload("hygiene-run", Kernel.SPMM, m=64,
                                        k=64, n=32, nnz_a=400, nnz_b=64 * 32))
    assert result.verified is True
maps = registry().snapshot().get("repro_pool_maps_total", {})
assert "path=pool" not in maps.get("values", {}), maps
"""


def _segments() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("repro-op")}


def test_cycle_predictions_leave_no_tracebacks_or_segments():
    before = _segments()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for marker in ("Traceback", "resource_tracker", "KeyError"):
        assert marker not in proc.stderr, proc.stderr
    assert _segments() - before == set()
