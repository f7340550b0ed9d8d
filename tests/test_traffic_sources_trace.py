"""Tests for TrafficSource, ArrivalTrace, and TraceSource."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.schedulers import make_scheduler
from repro.sim import Link, PacketSink, Simulator
from repro.traffic import (
    ConstantInterarrivals,
    FixedPacketSize,
    PacketIdAllocator,
    PoissonInterarrivals,
    TrafficSource,
)
from repro.traffic.trace import (
    ArrivalTrace,
    TraceSource,
    build_class_trace,
    merge_traces,
)


class TestTrafficSource:
    def test_constant_source_emits_on_schedule(self, sim):
        sink = PacketSink(keep_packets=True)
        source = TrafficSource(
            sim, sink, class_id=2,
            interarrivals=ConstantInterarrivals(5.0),
            sizes=FixedPacketSize(100.0),
            stop_time=26.0,
        )
        source.start()
        sim.run()
        times = [p.created_at for p in sink.packets]
        assert times == [5.0, 10.0, 15.0, 20.0, 25.0]
        assert all(p.class_id == 2 for p in sink.packets)
        assert source.packets_emitted == 5
        assert source.bytes_emitted == 500.0

    def test_start_is_idempotent(self, sim):
        sink = PacketSink()
        source = TrafficSource(
            sim, sink, 0, ConstantInterarrivals(1.0), FixedPacketSize(1.0),
            stop_time=3.5,
        )
        source.start()
        source.start()
        sim.run()
        assert sink.received == 3

    def test_shared_id_allocator_gives_unique_ids(self, sim):
        sink = PacketSink(keep_packets=True)
        ids = PacketIdAllocator()
        for cid in range(3):
            TrafficSource(
                sim, sink, cid, ConstantInterarrivals(1.0 + cid * 0.1),
                FixedPacketSize(1.0), ids=ids, stop_time=10.0,
            ).start()
        sim.run()
        packet_ids = [p.packet_id for p in sink.packets]
        assert len(packet_ids) == len(set(packet_ids))

    def test_offered_rate(self, sim):
        source = TrafficSource(
            sim, PacketSink(), 0, ConstantInterarrivals(2.0),
            FixedPacketSize(100.0),
        )
        assert source.offered_rate_bytes == pytest.approx(50.0)

    def test_invalid_stop_time_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            TrafficSource(
                sim, PacketSink(), 0, ConstantInterarrivals(1.0),
                FixedPacketSize(1.0), start_time=5.0, stop_time=5.0,
            )


class TestArrivalTrace:
    def build(self):
        return ArrivalTrace(
            times=np.array([1.0, 2.0, 3.0, 4.0]),
            class_ids=np.array([0, 1, 0, 2]),
            sizes=np.array([10.0, 20.0, 30.0, 40.0]),
        )

    def test_length_and_classes(self):
        trace = self.build()
        assert len(trace) == 4
        assert trace.num_classes == 3

    def test_filter_classes(self):
        trace = self.build().filter_classes([0])
        assert trace.times.tolist() == [1.0, 3.0]
        assert trace.sizes.tolist() == [10.0, 30.0]

    def test_filter_preserves_order_for_multiple_classes(self):
        trace = self.build().filter_classes([0, 2])
        assert trace.times.tolist() == [1.0, 3.0, 4.0]

    def test_class_rates(self):
        rates = self.build().class_rates(horizon=4.0)
        assert rates == pytest.approx([0.5, 0.25, 0.25])

    def test_class_rates_cover_classes_without_arrivals(self):
        rates = self.build().class_rates(horizon=4.0, num_classes=5)
        assert rates == pytest.approx([0.5, 0.25, 0.25, 0.0, 0.0])

    def test_offered_load(self):
        trace = self.build()
        assert trace.offered_load(capacity=10.0, horizon=10.0) == pytest.approx(1.0)

    def test_unsorted_times_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalTrace(
                np.array([2.0, 1.0]), np.array([0, 0]), np.array([1.0, 1.0])
            )

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalTrace(np.array([1.0]), np.array([0, 1]), np.array([1.0]))


class TestBuildAndMerge:
    def test_build_class_trace_horizon(self, rng):
        trace = build_class_trace(
            1, PoissonInterarrivals(1.0, rng), FixedPacketSize(10.0),
            horizon=100.0,
        )
        assert np.all(trace.times < 100.0)
        assert np.all(trace.class_ids == 1)
        assert len(trace) > 50  # ~100 expected

    def test_merge_sorts_globally(self, rng):
        a = build_class_trace(
            0, PoissonInterarrivals(1.0, rng), FixedPacketSize(1.0), 50.0
        )
        b = build_class_trace(
            1, PoissonInterarrivals(2.0, rng), FixedPacketSize(1.0), 50.0
        )
        merged = merge_traces([a, b])
        assert len(merged) == len(a) + len(b)
        assert np.all(np.diff(merged.times) >= 0)

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_traces([])


class TestTraceSource:
    def test_replay_reproduces_arrivals(self, sim):
        trace = ArrivalTrace(
            np.array([1.0, 2.5, 4.0]),
            np.array([0, 1, 0]),
            np.array([10.0, 20.0, 30.0]),
        )
        sink = PacketSink(keep_packets=True)
        TraceSource(sim, sink, trace).start()
        sim.run()
        assert [p.created_at for p in sink.packets] == [1.0, 2.5, 4.0]
        assert [p.class_id for p in sink.packets] == [0, 1, 0]
        assert [p.size for p in sink.packets] == [10.0, 20.0, 30.0]

    def test_replay_determinism_across_runs(self, rng):
        trace = build_class_trace(
            0, PoissonInterarrivals(1.0, rng), FixedPacketSize(1.0), 100.0
        )
        outputs = []
        for _ in range(2):
            simulator = Simulator()
            sink = PacketSink(keep_packets=True)
            TraceSource(simulator, sink, trace).start()
            simulator.run()
            outputs.append([p.created_at for p in sink.packets])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("drain", [False, True], ids=["evented", "drained"])
    def test_exhausted_source_holds_no_per_packet_list(
        self, sim, drain, monkeypatch
    ):
        """A finished cell's source can stay reachable through a
        reference cycle until the cyclic collector runs; once its last
        arrival is out it holds none of its per-packet lists.  The last
        arrival leaves through ``_emit`` on an evented link and through
        ``pull_col`` when the drain kernel pulls it inline."""
        pulls = []
        original_pull = TraceSource.pull_col

        def pull_col(source, now):
            pulls.append(now)
            return original_pull(source, now)

        monkeypatch.setattr(TraceSource, "pull_col", pull_col)
        # The drain enters at the first completion (3.0) and pulls the
        # arrivals at 3.5 and 4.0 inline.
        trace = ArrivalTrace(
            np.array([1.0, 2.0, 3.5, 4.0]),
            np.array([0, 1, 0, 1]),
            np.array([2.0, 2.0, 2.0, 1.0]),
        )
        link = Link(
            sim, make_scheduler("wtp", (1.0, 2.0)), capacity=1.0,
            target=PacketSink(), drain=drain,
        )
        source = TraceSource(sim, link, trace)
        source.start()
        sim.run()
        assert link.departures == 4
        assert len(pulls) == (2 if drain else 0)
        assert (source._times, source._class_ids, source._sizes) == ([], [], [])
        source.start()  # still idempotent: nothing replays again
        sim.run()
        assert link.departures == 4
