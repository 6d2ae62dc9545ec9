"""Host speed, sampled between operations, and timings rescaled to it.

On a shared 2-vCPU VM the interpreter's speed moves by up to a third
for stretches of seconds to minutes, and it moves every timing of the
program with it: a pure-Python probe loop and the predict latencies
correlated at 0.96 over 5-second windows, Session.run latencies at 0.88.
So the benchmark times a fixed probe loop between operations, while the
program under test is idle, and reports each timing scaled by
``REFERENCE_PROBE_S / probe``: milliseconds on a host where the probe
takes :data:`REFERENCE_PROBE_S`.  The raw figures and the probe's median
stay in the report lines.

The probe is the benchmark's own code, so no change to the program can
make it faster.  A change that leaves work running in the background
while the program is idle would slow the probe and hide part of its own
cost; the raw figures and ``probe_ms`` in the report show that.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the probe loop (about 3 ms of pure Python).
PROBE_LOOP = 40_000
#: Probe time the reported timings are scaled to (the probe's median on
#: a 2-vCPU x86_64 VM, Python 3.11, when the host ran fast).
REFERENCE_PROBE_S = 0.0025


def probe() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return time.perf_counter() - t0


def speed_factors(probes: list[float]) -> list[float]:
    """Scale factor of each interval between consecutive *probes*.

    Interval ``i`` lies between ``probes[i]`` and ``probes[i + 1]``; its
    factor is ``REFERENCE_PROBE_S`` over the median of the two probes
    before and the two after it, so one noisy probe moves nothing.
    """
    return [
        REFERENCE_PROBE_S / statistics.median(probes[max(0, i - 1):i + 3])
        for i in range(len(probes) - 1)
    ]
