"""Rescaling timings to the reference host speed."""

from __future__ import annotations

import pytest

from perfbench.host import REFERENCE_PROBE_S, probe, speed_factors


def test_one_factor_per_interval_between_probes():
    probes = [REFERENCE_PROBE_S] * 5
    assert speed_factors(probes) == [pytest.approx(1.0)] * 4
    assert speed_factors([REFERENCE_PROBE_S]) == []


def test_a_slower_host_scales_timings_down():
    factors = speed_factors([2 * REFERENCE_PROBE_S] * 3)
    assert factors == [pytest.approx(0.5)] * 2


def test_one_noisy_probe_moves_no_factor():
    probes = [REFERENCE_PROBE_S] * 6
    probes[2] = 10 * REFERENCE_PROBE_S
    assert speed_factors(probes) == [pytest.approx(1.0)] * 5


def test_a_lasting_change_of_speed_is_followed():
    slow = 1.5 * REFERENCE_PROBE_S
    factors = speed_factors([REFERENCE_PROBE_S] * 4 + [slow] * 4)
    assert factors[0] == pytest.approx(1.0)
    assert factors[-1] == pytest.approx(1 / 1.5)


def test_probe_times_real_work():
    assert 0 < probe() < 1.0
