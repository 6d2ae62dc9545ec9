"""Print one SHA-256 over the wire form of a fixed set of SAGE decisions.

The set is perfbench's predict_fresh rounds (each predict at its own
tier) followed by every Table III workload at every tier it supports:
matrix workloads at analytical, calibrated and cycle fidelity, tensor
workloads at analytical.  At the default two rounds that is 172 + 66 =
238 decisions.  One ``Sage`` answers all of them with the smoke
calibration table, built into a temporary store.  Two trees that print
the same digest put every one of those decisions on the wire byte for
byte alike, so a change meant to keep SAGE's answers is checked by
running this on both trees.  A second line digests the smoke calibration
table itself (its ``to_dict()``), which pins every simulated statistic
the calibration build reads.

Run from the repository root::

    PYTHONPATH=src python tools/decision_digest.py [--seed 9001] [--rounds 2]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402
from repro.sage.calibrate import GRIDS, CalibrationTable, build_table  # noqa: E402
from repro.sage.predictor import Sage, SageDecision  # noqa: E402
from repro.workloads.spec import MatrixWorkload, TensorWorkload  # noqa: E402
from repro.xp.artifacts import ArtifactStore  # noqa: E402

MATRIX_FIDELITIES = ("analytical", "calibrated", "cycle")

#: One predict: the workload and the fidelity it is asked at.
Job = tuple[MatrixWorkload | TensorWorkload, str]


def jobs(seed: int, rounds: int = 2) -> list[Job]:
    """The predict_fresh rounds, then Table III at every tier."""
    out: list[Job] = [
        (op.workload, op.fidelity)
        for rnd in range(rounds)
        for op in inputs.predict_round(seed, rnd)
    ]
    out += [
        (wl, fidelity)
        for wl in inputs.table3_matrix()
        for fidelity in MATRIX_FIDELITIES
    ]
    out += [(wl, "analytical") for wl in inputs.table3_tensor()]
    return out


def smoke_table() -> CalibrationTable:
    """The smoke-grid calibration table, built into a throwaway store."""
    with tempfile.TemporaryDirectory() as store:
        return build_table(GRIDS["smoke"], store=ArtifactStore(store)).table


def decide(jobs: Iterable[Job], table: CalibrationTable) -> list[SageDecision]:
    """Every job's decision, from one predictor bound to *table*."""
    sage = Sage(calibration=table)
    return [sage.predict(wl, fidelity=fidelity) for wl, fidelity in jobs]


def digest(decisions: Iterable[SageDecision]) -> str:
    """SHA-256 over each decision's full ``to_wire()`` as key-sorted JSON."""
    sha = hashlib.sha256()
    for decision in decisions:
        sha.update(json.dumps(decision.to_wire(), sort_keys=True).encode())
    return sha.hexdigest()


def table_digest(table: CalibrationTable) -> str:
    """SHA-256 over the table's ``to_dict()`` as key-sorted JSON."""
    return hashlib.sha256(
        json.dumps(table.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=9001)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    table = smoke_table()
    decisions = decide(jobs(args.seed, args.rounds), table)
    print(f"{digest(decisions)}  {len(decisions)} decisions, seed {args.seed}")
    print(f"{table_digest(table)}  smoke calibration table")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
