"""The normalisation arithmetic, on made-up probe samples."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import probe  # noqa: E402

NOMINAL = [probe.NOMINAL_SECONDS[p] for p in probe.PROBES]


def test_slowdown_is_one_at_nominal_and_scales_with_the_probes() -> None:
    twice = [2 * x for x in NOMINAL]
    factors = probe.slowdowns([NOMINAL, NOMINAL, twice, twice])
    assert factors == pytest.approx([1.0, 1.5, 2.0])


def test_one_probe_gone_wild_moves_the_mean_by_its_fifth_root() -> None:
    wild = list(NOMINAL)
    wild[-1] *= 32
    assert probe.slowdowns([wild, wild]) == pytest.approx([2.0])


def test_segment_clock_stops_while_sampling_and_until_restart() -> None:
    def slow_sample() -> list[float]:
        time.sleep(0.05)
        return [2 * x for x in NOMINAL]

    clock = probe.SegmentClock(slow_sample)
    time.sleep(0.02)
    clock.mark()
    time.sleep(0.05)            # not timed: before restart()
    clock.restart()
    time.sleep(0.02)
    clock.mark()
    assert len(clock.samples) == len(clock.segments) + 1 == 3
    assert clock.seconds == pytest.approx(0.04, abs=0.015)
    assert clock.nominal_seconds() == pytest.approx(clock.seconds / 2)


def test_a_segment_begun_in_another_process_counts_from_its_start() -> None:
    clock = probe.SegmentClock(lambda: NOMINAL, first=NOMINAL, elapsed=1.5)
    clock.mark()
    assert clock.seconds == pytest.approx(1.5, abs=0.01)
