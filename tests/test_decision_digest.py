"""``tools/decision_digest.py`` digests SAGE's answers deterministically.

The full run (238 decisions) compares two trees; here a subset that still
spans every tier checks that the digest repeats, that a pickle round trip
of the decisions leaves it unchanged (serve shards and xp pool workers
ship decisions by pickle), and that it covers whole rankings.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import decision_digest  # noqa: E402
from repro.workloads.spec import TensorWorkload  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return decision_digest.smoke_table()


@pytest.fixture(scope="module")
def subset():
    jobs = decision_digest.jobs(9001, rounds=1)
    # Every 6th job: round-0 predicts and Table III rows at every tier.
    picked = jobs[::6]
    assert {fidelity for _wl, fidelity in picked} == {
        "analytical", "calibrated", "cycle",
    }
    assert any(isinstance(wl, TensorWorkload) for wl, _ in picked)
    return picked


def test_full_job_list_size():
    assert len(decision_digest.jobs(9001)) == 238
    assert len(decision_digest.jobs(9001, rounds=0)) == 66


def test_digest_is_deterministic_and_survives_pickle(table, subset):
    decisions = decision_digest.decide(subset, table)
    first = decision_digest.digest(decisions)
    assert decision_digest.digest(decision_digest.decide(subset, table)) == first
    shipped = pickle.loads(pickle.dumps(decisions))
    assert decision_digest.digest(shipped) == first
    assert len(first) == 64 and int(first, 16) >= 0


def test_digest_covers_the_whole_ranking(table, subset):
    decisions = decision_digest.decide(subset, table)
    first = decision_digest.digest(decisions)
    cut = dataclasses.replace(
        decisions[0], ranking=decisions[0].ranking[:-1]
    )
    assert decision_digest.digest([cut, *decisions[1:]]) != first


def test_table_digest_pins_every_cell(table):
    first = decision_digest.table_digest(table)
    assert decision_digest.table_digest(table) == first and len(first) == 64
    wire = table.to_dict()
    wire["cells"][0]["factor"] *= 1.0 + 1e-12
    moved = type(table).from_dict(wire)
    assert decision_digest.table_digest(moved) != first
