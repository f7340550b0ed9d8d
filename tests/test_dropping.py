"""Tests for the loss-differentiation extension (PLR droppers)."""

from __future__ import annotations

import math

import pytest

from repro.dropping import PLRDropper, TailDropPolicy, validate_ldps
from repro.errors import ConfigurationError
from repro.schedulers import WTPScheduler
from repro.sim import Link, PacketSink, Simulator
from repro.sim.queues import ClassQueueSet
from repro.traffic import (
    ConstantInterarrivals,
    FixedPacketSize,
    PacketIdAllocator,
    PoissonInterarrivals,
    TrafficSource,
)
from repro.sim.rng import RandomStreams

from .conftest import make_packet


class TestValidateLdps:
    def test_valid(self):
        assert validate_ldps([4.0, 2.0, 1.0]) == (4.0, 2.0, 1.0)

    def test_must_be_decreasing(self):
        with pytest.raises(ConfigurationError):
            validate_ldps([1.0, 2.0])

    def test_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            validate_ldps([1.0, 0.0])


class TestTailDrop:
    def test_always_drops_arriving(self):
        policy = TailDropPolicy()
        queues = ClassQueueSet(2)
        queues.push(make_packet(0, class_id=0))
        assert policy.choose_victim(queues, 1, 0.0) is None


class TestPLRUnit:
    def test_victim_is_least_normalized_loss(self):
        dropper = PLRDropper((4.0, 1.0))
        queues = ClassQueueSet(2)
        queues.push(make_packet(0, class_id=0))
        queues.push(make_packet(1, class_id=1))
        # Seed history: class 1 already lost heavily relative to sigma.
        for _ in range(10):
            dropper.on_arrival(0, 0.0)
            dropper.on_arrival(1, 0.0)
        for _ in range(8):
            dropper.on_drop(0, 0.0)
        # class 1 fraction 0.8 / 4 = 0.2; class 2 fraction 0 -> victim 2.
        assert dropper.choose_victim(queues, 0, 0.0) == 1

    def test_victim_must_be_backlogged(self):
        dropper = PLRDropper((4.0, 1.0))
        queues = ClassQueueSet(2)
        queues.push(make_packet(0, class_id=0))
        dropper.on_arrival(0, 0.0)
        dropper.on_arrival(1, 0.0)
        assert dropper.choose_victim(queues, 1, 0.0) == 0

    def test_loss_fraction_infinite_window(self):
        dropper = PLRDropper((2.0, 1.0))
        for _ in range(4):
            dropper.on_arrival(0, 0.0)
        dropper.on_drop(0, 0.0)
        assert dropper.loss_fraction(0) == pytest.approx(0.25)
        assert dropper.loss_fraction(1) == 0.0

    def test_windowed_fraction_forgets_old_history(self):
        dropper = PLRDropper((2.0, 1.0), window=4)
        for _ in range(4):
            dropper.on_arrival(0, 0.0)
        dropper.on_drop(0, 0.0)
        assert dropper.loss_fraction(0) == pytest.approx(0.25)
        # Four fresh arrivals push the dropped one out of the window.
        for _ in range(4):
            dropper.on_arrival(0, 0.0)
        assert dropper.loss_fraction(0) == 0.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            PLRDropper((2.0, 1.0), window=0)

    def test_loss_ratios_nan_when_no_arrivals(self):
        ratios = PLRDropper((2.0, 1.0)).loss_ratios()
        assert math.isnan(ratios[0])


class TestPLRIntegration:
    def overload_link(self, dropper, horizon=4e4, seed=3):
        sim = Simulator()
        streams = RandomStreams(seed)
        link = Link(
            sim,
            WTPScheduler((1.0, 2.0)),
            capacity=1.0,
            buffer_packets=20,
            drop_policy=dropper,
            target=PacketSink(),
        )
        ids = PacketIdAllocator()
        for cid in range(2):
            TrafficSource(
                sim, link, cid,
                PoissonInterarrivals(1.4, streams.generator()),  # rho ~ 1.43
                FixedPacketSize(1.0), ids=ids,
            ).start()
        sim.run(until=horizon)
        return link

    def test_loss_ratio_tracks_ldps(self):
        dropper = PLRDropper((3.0, 1.0))
        link = self.overload_link(dropper)
        assert link.drops > 100
        ratios = dropper.loss_ratios()
        assert ratios[0] == pytest.approx(3.0, rel=0.25)

    def test_windowed_variant_also_differentiates(self):
        dropper = PLRDropper((3.0, 1.0), window=500)
        link = self.overload_link(dropper)
        assert link.drops > 100
        fractions = [dropper.drops[c] / dropper.arrivals[c] for c in range(2)]
        assert fractions[0] > 1.8 * fractions[1]

    def test_no_loss_when_buffer_large_enough(self):
        sim = Simulator()
        dropper = PLRDropper((2.0, 1.0))
        link = Link(
            sim, WTPScheduler((1.0, 2.0)), capacity=1.0,
            buffer_packets=1000, drop_policy=dropper,
        )
        source = TrafficSource(
            sim, link, 0, ConstantInterarrivals(2.0), FixedPacketSize(1.0),
            stop_time=100.0,
        )
        source.start()
        sim.run()
        assert link.drops == 0
