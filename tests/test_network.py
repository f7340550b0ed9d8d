"""Tests for the multi-hop substrate: flows, demux, cross-traffic, runs."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.network import (
    FlowDemux,
    FlowRecorder,
    MixedClassSource,
    MultiHopConfig,
    UserFlow,
    run_multihop,
)
from repro.network.multihop import LINK_CAPACITY_BYTES_PER_MS
from repro.schedulers import WTPScheduler
from repro.sim import Link, PacketSink, Simulator
from repro.sim.rng import RandomStreams
from repro.traffic import ConstantInterarrivals

from .conftest import make_packet


class TestUserFlow:
    def test_emits_f_packets_at_period(self, sim):
        sink = PacketSink(keep_packets=True)
        flow = UserFlow(
            sim, sink, flow_id=7, class_id=2, num_packets=4,
            packet_size=500.0, period=10.0,
        )
        flow.launch(100.0)
        sim.run()
        assert flow.finished
        times = [p.created_at for p in sink.packets]
        assert times == [100.0, 110.0, 120.0, 130.0]
        assert all(p.flow_id == 7 and p.class_id == 2 for p in sink.packets)

    def test_invalid_parameters_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            UserFlow(sim, PacketSink(), 0, 0, num_packets=0,
                     packet_size=500.0, period=1.0)
        with pytest.raises(ConfigurationError):
            UserFlow(sim, PacketSink(), 0, 0, num_packets=1,
                     packet_size=500.0, period=0.0)


class TestFlowRecorder:
    def test_records_total_queueing_delay(self):
        recorder = FlowRecorder()
        packet = make_packet(flow_id=3)
        packet.hop_delays.extend([1.0, 2.0])
        recorder.receive(packet)
        assert recorder.flow_delays(3) == [3.0]
        assert recorder.hops_seen[3] == 2

    def test_ignores_cross_traffic(self):
        recorder = FlowRecorder()
        recorder.receive(make_packet(flow_id=None))
        assert recorder.delays == {}

    def test_packet_count(self):
        recorder = FlowRecorder()
        for _ in range(3):
            packet = make_packet(flow_id=1)
            packet.hop_delays.append(0.5)
            recorder.receive(packet)
        assert recorder.packet_count(1) == 3
        assert recorder.packet_count(99) == 0


class TestFlowDemux:
    def test_routing(self):
        downstream = PacketSink(keep_packets=True)
        cross = PacketSink(keep_packets=True)
        demux = FlowDemux(downstream, cross)
        demux.receive(make_packet(0, flow_id=1))
        demux.receive(make_packet(1, flow_id=None))
        assert downstream.received == 1
        assert cross.received == 1
        assert demux.user_packets == 1
        assert demux.cross_packets == 1

    def test_default_cross_sink(self):
        demux = FlowDemux(PacketSink())
        demux.receive(make_packet(0, flow_id=None))
        assert demux.cross_packets == 1

    def test_downstream_required(self):
        with pytest.raises(TopologyError):
            FlowDemux(None)


class TestMixedClassSource:
    def test_class_mix_is_respected(self, sim):
        streams = RandomStreams(0)
        sink = PacketSink(keep_packets=True)
        source = MixedClassSource(
            sim, sink, ConstantInterarrivals(1.0),
            class_probabilities=(0.4, 0.3, 0.2, 0.1),
            packet_size=500.0, rng=streams.generator(),
        )
        source.start()
        sim.run(until=20_000.0)
        counts = [0] * 4
        for packet in sink.packets:
            counts[packet.class_id] += 1
        total = sum(counts)
        shares = [c / total for c in counts]
        assert shares == pytest.approx([0.4, 0.3, 0.2, 0.1], abs=0.02)

    def test_invalid_mix_rejected(self, sim):
        streams = RandomStreams(0)
        with pytest.raises(ConfigurationError):
            MixedClassSource(
                sim, PacketSink(), ConstantInterarrivals(1.0),
                (0.5, 0.4), 500.0, streams.generator(),
            )

    def test_start_idempotent(self, sim):
        streams = RandomStreams(0)
        sink = PacketSink()
        source = MixedClassSource(
            sim, sink, ConstantInterarrivals(1.0), (1.0,), 500.0,
            streams.generator(),
        )
        source.start()
        source.start()
        sim.run(until=5.5)
        assert sink.received == 5


class TestMultiHopConfig:
    def test_flow_period_realizes_rate(self):
        config = MultiHopConfig(flow_rate_kbps=50.0)
        # 500 B at 50 kbps -> 80 ms between packets.
        assert config.flow_period == pytest.approx(80.0)

    def test_cross_rate_fills_to_utilization(self):
        config = MultiHopConfig(utilization=0.85)
        total = (
            config.cross_byte_rate_per_source * config.cross_sources_per_hop
            + config.user_byte_rate
        )
        assert total == pytest.approx(0.85 * LINK_CAPACITY_BYTES_PER_MS)

    def test_overcommitted_user_load_rejected(self):
        config = MultiHopConfig(
            utilization=0.85, flow_packets=100000, experiment_period=10.0
        )
        with pytest.raises(ConfigurationError):
            _ = config.cross_byte_rate_per_source

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MultiHopConfig(hops=0)
        with pytest.raises(ConfigurationError):
            MultiHopConfig(utilization=1.2)
        with pytest.raises(ConfigurationError):
            MultiHopConfig(sdps=(1.0, 2.0))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("experiments", 0),
            ("experiments", -2),
            ("experiment_period", 0.0),
            ("experiment_period", -50.0),
            ("warmup", -100.0),
            ("cross_sources_per_hop", 0),
            ("cross_sources_per_hop", -1),
        ],
    )
    def test_experiment_shape_rejected(self, name, value):
        """A shape with no last experiment (or none that launches
        forward in time, or no cross traffic to size) is refused at
        construction, not left to return nan, run backwards or divide
        by zero."""
        with pytest.raises(ConfigurationError, match=name):
            MultiHopConfig(hops=2, utilization=0.8, **{name: value})


class TestRunMultihop:
    def small_config(self, **overrides):
        defaults = dict(
            hops=2, utilization=0.80, flow_packets=5, flow_rate_kbps=200.0,
            experiments=4, warmup=2000.0, experiment_period=500.0,
            drain=3000.0, seed=2,
        )
        defaults.update(overrides)
        return MultiHopConfig(**defaults)

    def test_all_experiments_complete(self):
        result = run_multihop(self.small_config())
        assert len(result.comparisons) == 4

    def test_rd_in_plausible_band(self):
        result = run_multihop(self.small_config())
        assert 1.0 < result.rd < 4.0

    def test_flows_traverse_all_hops(self):
        """End-to-end delay must aggregate one waiting time per hop."""
        config = self.small_config(hops=3)
        sim_result = run_multihop(config)
        assert sim_result.comparisons  # flows made it through 3 hops

    def test_deterministic_given_seed(self):
        a = run_multihop(self.small_config())
        b = run_multihop(self.small_config())
        assert a.rd == pytest.approx(b.rd)

    def test_higher_class_flow_gets_lower_delays_in_heavy_load(self):
        result = run_multihop(
            self.small_config(utilization=0.95, experiments=6)
        )
        matrix = result.comparisons[0].percentile_matrix
        # Median (column 4) ordered low class worst.
        medians = matrix[:, 4]
        assert medians[0] > medians[-1]
