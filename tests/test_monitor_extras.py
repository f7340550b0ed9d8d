"""Tests for the throughput monitor and backlog sampler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.schedulers import BPRScheduler, FCFSScheduler
from repro.sim import (
    BacklogSampler,
    Link,
    PacketSink,
    Simulator,
    ThroughputMonitor,
)

from .conftest import departure_args, make_packet


class TestThroughputMonitor:
    def test_bytes_bucketed_by_interval(self):
        monitor = ThroughputMonitor(2, tau=10.0)
        first = make_packet(0, class_id=0, size=100.0)
        second = make_packet(1, class_id=1, size=50.0)
        third = make_packet(2, class_id=0, size=25.0)
        monitor.on_departure(*departure_args(first), 3.0)
        monitor.on_departure(*departure_args(second), 7.0)
        monitor.on_departure(*departure_args(third), 15.0)
        monitor.finalize()
        assert monitor.intervals[0] == (0, [100.0, 50.0])
        assert monitor.intervals[1] == (1, [25.0, 0.0])

    def test_rates(self):
        monitor = ThroughputMonitor(1, tau=5.0)
        monitor.on_departure(*departure_args(make_packet(0, size=50.0)), 1.0)
        monitor.finalize()
        assert monitor.rates().tolist() == [[10.0]]

    def test_warmup(self):
        monitor = ThroughputMonitor(1, tau=1.0, warmup=100.0)
        monitor.on_departure(*departure_args(make_packet(0, size=10.0)), 5.0)
        monitor.finalize()
        assert monitor.intervals == []

    def test_invalid_tau(self):
        with pytest.raises(ConfigurationError):
            ThroughputMonitor(1, tau=0.0)

    def test_empty_rates_shape(self):
        monitor = ThroughputMonitor(3, tau=1.0)
        monitor.finalize()
        assert monitor.rates().shape == (0, 3)

    def test_bpr_rates_shift_with_backlog(self):
        """BPR gives a bursting class more short-run bandwidth; the
        throughput monitor makes that visible."""
        sim = Simulator()
        monitor = ThroughputMonitor(2, tau=20.0)
        link = Link(sim, BPRScheduler((1.0, 2.0)), capacity=1.0,
                    target=PacketSink())
        link.add_monitor(monitor)
        # Steady class-1 backlog, then a class-2 burst at t=40.
        for k in range(80):
            sim.schedule(0.0, link.receive,
                         make_packet(k, class_id=0, size=1.0))
        for k in range(30):
            sim.schedule(40.0, link.receive,
                         make_packet(1000 + k, class_id=1, size=1.0))
        sim.run()
        monitor.finalize()
        rates = monitor.rates()
        # Before the burst class 2 gets nothing; after it, plenty.
        assert rates[0, 1] == 0.0
        post_burst = rates[2:, 1]
        assert post_burst.max() > 0.5


class TestBacklogSampler:
    def test_samples_on_schedule(self):
        sim = Simulator()
        link = Link(sim, FCFSScheduler(1), capacity=1.0)
        sampler = BacklogSampler(period=1.0, horizon=5.0)
        sampler.attach(sim, link)
        for k in range(4):
            sim.schedule(0.0, link.receive, make_packet(k, size=2.0))
        sim.run(until=5.0)
        assert sampler.times == [1.0, 2.0, 3.0, 4.0, 5.0]
        matrix = sampler.as_array()
        assert matrix.shape == (5, 1)
        # Backlog decreases as the queue drains (one 2-byte packet per
        # 2 time units; in-service packet is not in the queue).
        assert matrix[0, 0] >= matrix[-1, 0]

    def test_bpr_backlogs_drain_toward_simultaneous_empty(self):
        """Sampled BPR backlog trajectories show both classes shrinking
        together (the fluid Proposition-1 shape, packetized)."""
        sim = Simulator()
        scheduler = BPRScheduler((1.0, 2.0))
        link = Link(sim, scheduler, capacity=1.0, target=PacketSink())
        sampler = BacklogSampler(period=5.0, horizon=60.0)
        sampler.attach(sim, link)
        for k in range(30):
            sim.schedule(0.0, link.receive, make_packet(k, 0, size=1.0))
        for k in range(20):
            sim.schedule(0.0, link.receive, make_packet(100 + k, 1, size=1.0))
        sim.run(until=60.0)
        matrix = sampler.as_array()
        # At t=25 (halfway through the 50-unit busy period) BOTH classes
        # must still be backlogged -- strict priority would have already
        # emptied one of them.
        halfway = matrix[4]  # sample at t=25
        assert halfway[0] > 0 and halfway[1] > 0

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            BacklogSampler(period=0.0, horizon=1.0)
