"""Tests for the Link server (work conservation, accounting, buffers)."""

from __future__ import annotations

import pytest

from repro.dropping import PLRDropper, TailDropPolicy
from repro.errors import ConfigurationError
from repro.schedulers import FCFSScheduler, WTPScheduler
from repro.sim import Link, PacketSink, Simulator

from .conftest import make_packet


def send(sim: Simulator, link: Link, packet, at: float) -> None:
    sim.schedule(at, link.receive, packet)


class TestTransmission:
    def test_single_packet_latency(self, sim):
        link = Link(sim, FCFSScheduler(1), capacity=10.0,
                    target=PacketSink(keep_packets=True))
        packet = make_packet(size=50.0)
        send(sim, link, packet, 1.0)
        sim.run()
        assert packet.service_start == 1.0
        assert packet.departed_at == pytest.approx(6.0)  # 50 / 10
        assert packet.hop_delays == [0.0]

    def test_back_to_back_packets_queue(self, sim):
        link = Link(sim, FCFSScheduler(1), capacity=1.0)
        first = make_packet(0, size=10.0)
        second = make_packet(1, size=10.0)
        send(sim, link, first, 0.0)
        send(sim, link, second, 0.0)
        sim.run()
        assert first.service_start == 0.0
        assert second.service_start == 10.0
        assert second.queueing_delay == 10.0

    def test_departures_forwarded_to_target(self, sim):
        sink = PacketSink(keep_packets=True)
        link = Link(sim, FCFSScheduler(1), capacity=1.0, target=sink)
        send(sim, link, make_packet(0, size=1.0), 0.0)
        send(sim, link, make_packet(1, size=1.0), 0.5)
        sim.run()
        assert sink.received == 2
        assert [p.packet_id for p in sink.packets] == [0, 1]

    def test_counters(self, sim):
        link = Link(sim, FCFSScheduler(1), capacity=2.0)
        for i in range(3):
            send(sim, link, make_packet(i, size=4.0), float(i))
        sim.run()
        assert link.arrivals == 3
        assert link.departures == 3
        assert link.bytes_sent == 12.0
        assert link.drops == 0

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            Link(sim, FCFSScheduler(1), capacity=0.0)


class TestWorkConservation:
    def test_server_never_idles_with_backlog(self, sim):
        """Busy time equals total service demand when arrivals overlap."""
        link = Link(sim, FCFSScheduler(2), capacity=1.0)
        sizes = [5.0, 3.0, 7.0]
        for i, size in enumerate(sizes):
            send(sim, link, make_packet(i, class_id=i % 2, size=size), 0.0)
        sim.run()
        assert link.busy_time == pytest.approx(sum(sizes))
        assert sim.now == pytest.approx(sum(sizes))

    def test_idle_gap_splits_busy_periods(self, sim):
        link = Link(sim, FCFSScheduler(1), capacity=1.0)
        send(sim, link, make_packet(0, size=2.0), 0.0)
        send(sim, link, make_packet(1, size=2.0), 10.0)
        sim.run()
        assert link.busy_time == pytest.approx(4.0)
        assert link.utilization(horizon=12.0) == pytest.approx(4.0 / 12.0)

    def test_utilization_counts_open_busy_period(self, sim):
        link = Link(sim, FCFSScheduler(1), capacity=1.0)
        send(sim, link, make_packet(0, size=100.0), 0.0)
        sim.run(until=50.0)
        assert link.utilization() == pytest.approx(1.0)


class TestBoundedBuffer:
    def test_tail_drop_when_full(self, sim):
        link = Link(
            sim,
            FCFSScheduler(1),
            capacity=1.0,
            buffer_packets=2,
            drop_policy=TailDropPolicy(),
        )
        # One in service + two queued fills the buffer; the fourth drops.
        for i in range(4):
            send(sim, link, make_packet(i, size=100.0), float(i))
        sim.run(until=10.0)
        assert link.drops == 1
        assert link.drops_per_class == [1]

    def test_unbounded_buffer_never_drops(self, sim):
        link = Link(sim, FCFSScheduler(1), capacity=0.001)
        for i in range(100):
            send(sim, link, make_packet(i, size=100.0), 0.0)
        sim.run(until=1.0)
        assert link.drops == 0

    def test_default_drop_without_policy_is_tail_drop(self, sim):
        link = Link(sim, FCFSScheduler(1), capacity=1.0, buffer_packets=1)
        for i in range(3):
            send(sim, link, make_packet(i, size=100.0), float(i))
        sim.run(until=5.0)
        assert link.drops == 1

    def test_drop_policy_requires_buffer_limit(self, sim):
        with pytest.raises(ConfigurationError):
            Link(sim, FCFSScheduler(1), capacity=1.0, drop_policy=TailDropPolicy())

    def test_plr_drops_from_low_class_first(self, sim):
        """With equal arrivals, PLR pushes drops toward high-sigma class 1."""
        dropper = PLRDropper((4.0, 1.0))
        link = Link(
            sim,
            WTPScheduler((1.0, 2.0)),
            capacity=1.0,
            buffer_packets=2,
            drop_policy=dropper,
        )
        # Overload both classes equally.
        for i in range(10):
            send(sim, link, make_packet(i, class_id=i % 2, size=50.0), float(i))
        sim.run(until=20.0)
        assert link.drops > 0
        assert link.drops_per_class[0] >= link.drops_per_class[1]


class TestMonitors:
    def test_monitor_sees_every_departure(self, sim):
        events = []

        class Probe:
            def on_departure(
                self, packet_id, class_id, size, flow_id, delay, now
            ):
                events.append((packet_id, now))

        link = Link(sim, FCFSScheduler(1), capacity=1.0)
        link.add_monitor(Probe())
        send(sim, link, make_packet(0, size=2.0), 0.0)
        send(sim, link, make_packet(1, size=2.0), 0.0)
        sim.run()
        assert events == [(0, 2.0), (1, 4.0)]

    def test_add_monitor_rejects_non_observers(self, sim):
        """An object without the six-scalar ``on_departure`` is refused
        when attached, not at its first departure mid-drain."""

        class PacketProtocol:
            def on_departure(self, packet, now):
                pass

        link = Link(sim, FCFSScheduler(1), capacity=1.0)
        for monitor in (PacketProtocol(), object()):
            with pytest.raises(ConfigurationError, match="packet_id"):
                link.add_monitor(monitor)
        assert link.monitors == []

    def test_bpr_capacity_bound_by_link(self, sim):
        from repro.schedulers import BPRScheduler

        scheduler = BPRScheduler((1.0, 2.0))
        assert scheduler.capacity is None
        Link(sim, scheduler, capacity=39.375)
        assert scheduler.capacity == 39.375

    def test_bpr_explicit_capacity_not_overridden(self, sim):
        from repro.schedulers import BPRScheduler

        scheduler = BPRScheduler((1.0, 2.0), capacity=5.0)
        Link(sim, scheduler, capacity=39.375)
        assert scheduler.capacity == 5.0
