"""Tests for the measurement instruments."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.monitor import (
    ClassDelayStats,
    DelayMonitor,
    IntervalDelayMonitor,
    PacketTap,
)

from .conftest import departure_args, make_packet


def departed(class_id: int, arrived: float, service_start: float):
    packet = make_packet(class_id=class_id, created_at=arrived)
    packet.arrived_at = arrived
    packet.service_start = service_start
    return departure_args(packet)


class TestClassDelayStats:
    def test_streaming_moments(self):
        stats = ClassDelayStats()
        for delay in (1.0, 2.0, 3.0):
            stats.add(delay)
        assert stats.mean == pytest.approx(2.0)
        assert stats.variance == pytest.approx(2.0 / 3.0)
        assert stats.min == 1.0
        assert stats.max == 3.0

    def test_empty_stats_are_nan(self):
        stats = ClassDelayStats()
        assert math.isnan(stats.mean)
        assert math.isnan(stats.variance)


class TestDelayMonitor:
    def test_per_class_means(self):
        monitor = DelayMonitor(2)
        monitor.on_departure(*departed(0, 0.0, 4.0), 5.0)
        monitor.on_departure(*departed(0, 1.0, 3.0), 5.0)
        monitor.on_departure(*departed(1, 2.0, 3.0), 5.0)
        assert monitor.mean_delay(0) == pytest.approx(3.0)
        assert monitor.mean_delay(1) == pytest.approx(1.0)
        assert monitor.counts() == [2, 1]

    def test_warmup_discards_early_departures(self):
        monitor = DelayMonitor(1, warmup=10.0)
        monitor.on_departure(*departed(0, 0.0, 5.0), 9.0)
        monitor.on_departure(*departed(0, 10.0, 12.0), 13.0)
        assert monitor.counts() == [1]
        assert monitor.mean_delay(0) == pytest.approx(2.0)

    def test_successive_ratios(self):
        monitor = DelayMonitor(3)
        for cid, delay in ((0, 8.0), (1, 4.0), (2, 2.0)):
            monitor.on_departure(*departed(cid, 0.0, delay), delay)
        assert monitor.successive_ratios() == pytest.approx([2.0, 2.0])

    def test_successive_ratios_follow_ieee_division(self):
        """A class whose every packet found the link idle has mean delay
        exactly 0.0: the ratio over it is +inf, 0/0 is nan, and a class
        with no departures (nan mean) propagates nan."""
        monitor = DelayMonitor(6)
        delays = ((0, 0.3), (1, 0.7), (2, 0.0), (3, 0.0), (4, 1.5))
        for cid, delay in delays:
            monitor.on_departure(*departed(cid, 0.0, delay), delay)
        means = monitor.mean_delays()
        ratios = monitor.successive_ratios()
        assert ratios[0] == means[0] / means[1]
        assert ratios[1] == math.inf
        assert math.isnan(ratios[2])
        assert ratios[3] == 0.0
        assert math.isnan(ratios[4])
        assert all(type(ratio) is float for ratio in ratios)

    def test_percentile_needs_samples(self):
        monitor = DelayMonitor(1)
        with pytest.raises(ConfigurationError):
            monitor.percentile(0, 50.0)

    def test_percentile_with_samples(self):
        monitor = DelayMonitor(1, keep_samples=True)
        for delay in range(1, 101):
            monitor.on_departure(*departed(0, 0.0, float(delay)), float(delay))
        assert monitor.percentile(0, 50.0) == pytest.approx(50.5)

    def test_idle_class_mean_is_nan(self):
        assert math.isnan(DelayMonitor(2).mean_delay(1))

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayMonitor(1, warmup=-1.0)


class TestIntervalDelayMonitor:
    def test_intervals_partition_departures(self):
        monitor = IntervalDelayMonitor(2, tau=10.0)
        monitor.on_departure(*departed(0, 0.0, 2.0), 5.0)    # interval 0
        monitor.on_departure(*departed(1, 0.0, 4.0), 8.0)    # interval 0
        monitor.on_departure(*departed(0, 10.0, 16.0), 17.0) # interval 1
        monitor.finalize()
        means = monitor.interval_means()
        assert means.shape == (2, 2)
        assert means[0, 0] == pytest.approx(2.0)
        assert means[0, 1] == pytest.approx(4.0)
        assert means[1, 0] == pytest.approx(6.0)
        assert math.isnan(means[1, 1])

    def test_empty_intervals_are_skipped(self):
        monitor = IntervalDelayMonitor(1, tau=1.0)
        monitor.on_departure(*departed(0, 0.0, 0.5), 0.5)
        monitor.on_departure(*departed(0, 99.0, 99.5), 99.5)
        monitor.finalize()
        assert len(monitor.intervals) == 2
        indices = [idx for idx, _, _ in monitor.intervals]
        assert indices == [0, 99]

    def test_warmup_respected(self):
        monitor = IntervalDelayMonitor(1, tau=10.0, warmup=50.0)
        monitor.on_departure(*departed(0, 0.0, 1.0), 5.0)
        monitor.finalize()
        assert len(monitor.intervals) == 0

    def test_finalize_is_idempotent(self):
        monitor = IntervalDelayMonitor(1, tau=10.0)
        monitor.on_departure(*departed(0, 0.0, 1.0), 1.0)
        monitor.finalize()
        monitor.finalize()
        assert len(monitor.intervals) == 1

    def test_invalid_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            IntervalDelayMonitor(1, tau=0.0)

    def test_no_departures_gives_empty_matrix(self):
        monitor = IntervalDelayMonitor(3, tau=1.0)
        monitor.finalize()
        assert monitor.interval_means().shape == (0, 3)


class TestPacketTap:
    def test_window_filtering(self):
        tap = PacketTap(1, start=10.0, end=20.0)
        tap.on_departure(*departed(0, 0.0, 5.0), 9.9)
        tap.on_departure(*departed(0, 10.0, 12.0), 15.0)
        tap.on_departure(*departed(0, 18.0, 21.0), 20.0)  # end exclusive
        assert tap.samples[0] == [(15.0, 2.0)]

    def test_per_class_sample_lists(self):
        tap = PacketTap(2, 0.0, 100.0)
        tap.on_departure(*departed(0, 0.0, 1.0), 1.0)
        tap.on_departure(*departed(1, 0.0, 2.0), 2.0)
        assert len(tap.samples[0]) == 1
        assert len(tap.samples[1]) == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            PacketTap(1, start=5.0, end=5.0)
