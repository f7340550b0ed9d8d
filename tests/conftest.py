"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.sim import DelayMonitor, Link, PacketSink, Simulator
from repro.sim.packet import Packet
from repro.sim.rng import RandomStreams
from repro.traffic import (
    FixedPacketSize,
    PacketIdAllocator,
    PoissonInterarrivals,
    TrafficSource,
)


#: The one seed shared by every deterministic fixture in the suite.
#: Tests needing their own streams should still take an explicit seed
#: argument so a failure reproduces from the test id alone.
GLOBAL_TEST_SEED = 12345

# Property tests must not flake between runs: derandomize Hypothesis so
# example generation is a pure function of each test, independent of
# wall clock and process entropy (CI and local runs explore identical
# examples).
hypothesis_settings.register_profile("deterministic", derandomize=True)
hypothesis_settings.load_profile("deterministic")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(GLOBAL_TEST_SEED)


def make_packet(
    packet_id: int = 0,
    class_id: int = 0,
    size: float = 100.0,
    created_at: float = 0.0,
    flow_id: int | None = None,
) -> Packet:
    """Packet factory with sensible defaults."""
    return Packet(packet_id, class_id, size, created_at, flow_id)


def departure_args(packet: Packet) -> tuple:
    """The scalars a link passes its observers for ``packet``'s
    departure, ``now`` excluded: ``(packet_id, class_id, size,
    flow_id, delay)``, where ``delay`` is the queueing delay at the
    hop (the observer protocol in :mod:`repro.sim.monitor`)."""
    return (
        packet.packet_id,
        packet.class_id,
        packet.size,
        packet.flow_id,
        packet.service_start - packet.arrived_at,
    )


def scalar_entries(queues) -> int:
    """Queued entries of a :class:`~repro.sim.queues.ClassQueueSet`
    whose meta is not (yet) a :class:`Packet`: the object-free backlog
    a drain left behind."""
    return sum(
        1
        for col, head in zip(queues.cols, queues.col_heads)
        for meta in col[head + 2 :: 3]
        if type(meta) is not Packet
    )


def count_packets(monkeypatch) -> list[int]:
    """Count :class:`Packet` constructions from now on; the count is
    the returned list's only element."""
    built = [0]
    original = Packet.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Packet, "__init__", counting)
    return built


def run_poisson_link(
    scheduler,
    rates,
    horizon: float = 5e4,
    capacity: float = 1.0,
    packet_size: float = 1.0,
    seed: int = 0,
    warmup_fraction: float = 0.05,
):
    """Drive a scheduler with per-class Poisson traffic; return
    (mean delays per class, link).  Used across scheduler tests."""
    simulator = Simulator()
    streams = RandomStreams(seed)
    link = Link(simulator, scheduler, capacity, target=PacketSink())
    monitor = DelayMonitor(
        scheduler.num_classes, warmup=horizon * warmup_fraction
    )
    link.add_monitor(monitor)
    ids = PacketIdAllocator()
    for class_id, rate in enumerate(rates):
        TrafficSource(
            simulator,
            link,
            class_id,
            PoissonInterarrivals(1.0 / rate, streams.generator()),
            FixedPacketSize(packet_size),
            ids=ids,
        ).start()
    simulator.run(until=horizon)
    return monitor.mean_delays(), link
