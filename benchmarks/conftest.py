"""Benchmark-harness helpers.

Every bench measures one performance property of the stack: it prints a
table (run pytest with ``-s`` to see it, or read the captured stdout in
the report), records headline values in ``benchmark.extra_info``, and
times the measurement itself via pytest-benchmark.  The paper's figures
and tables are ``repro xp run <name>`` experiments, not benches.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Time *fn* with a single warm run (benches are deterministic models)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    """Fixture form of :func:`run_once`."""

    def _run(fn):
        return run_once(benchmark, fn)

    return _run
