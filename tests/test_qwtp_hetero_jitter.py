"""Tests for quantized WTP, heterogeneous multi-hop paths, and jitter."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.network import MultiHopConfig, run_multihop
from repro.schedulers import QuantizedWTPScheduler, WTPScheduler, make_scheduler
from repro.sim.monitor import DelayMonitor, PacketTap

from .conftest import departure_args, make_packet, run_poisson_link


class TestQuantizedWTP:
    def test_epoch_validated(self):
        with pytest.raises(ConfigurationError):
            QuantizedWTPScheduler((1.0, 2.0), epoch=0.0)

    def test_fine_epoch_matches_wtp_selection(self):
        """With an epoch far below any waiting time, decisions match WTP."""
        quantized = QuantizedWTPScheduler((1.0, 2.0), epoch=1e-6)
        plain = WTPScheduler((1.0, 2.0))
        for scheduler in (quantized, plain):
            scheduler.enqueue(make_packet(0, class_id=0, created_at=0.0), 0.0)
            scheduler.enqueue(make_packet(1, class_id=1, created_at=8.0), 8.0)
        assert quantized.select(10.0).packet_id == plain.select(10.0).packet_id

    def test_coarse_epoch_degrades_to_class_order(self):
        """If nobody has aged a full epoch, priorities are all zero and
        the tie-break serves the higher class -- static priority-ish."""
        scheduler = QuantizedWTPScheduler((1.0, 2.0), epoch=1e6)
        old_low = make_packet(0, class_id=0, created_at=0.0)
        young_high = make_packet(1, class_id=1, created_at=9.0)
        scheduler.enqueue(old_low, 0.0)
        scheduler.enqueue(young_high, 9.0)
        # Plain WTP would serve the old low packet (priority 10 > 2).
        assert scheduler.select(10.0) is young_high

    def test_heavy_load_ratios_with_reasonable_epoch(self):
        """One-p-unit quantization barely moves the long-run ratios."""
        rho = 0.95
        rates = [rho * s for s in (0.4, 0.3, 0.2, 0.1)]
        delays, _ = run_poisson_link(
            QuantizedWTPScheduler((1.0, 2.0, 4.0, 8.0), epoch=1.0),
            rates, horizon=2e5,
        )
        for i in range(3):
            assert delays[i] / delays[i + 1] == pytest.approx(2.0, rel=0.2)

    @pytest.mark.slow
    def test_accuracy_degrades_with_epoch(self):
        """Coarser epochs => worse ratio accuracy (the trade-off)."""
        rho = 0.95
        rates = [rho * s for s in (0.4, 0.3, 0.2, 0.1)]
        errors = {}
        for epoch in (1.0, 50.0):
            delays, _ = run_poisson_link(
                QuantizedWTPScheduler((1.0, 2.0, 4.0, 8.0), epoch=epoch),
                rates, horizon=2e5, seed=5,
            )
            errors[epoch] = max(
                abs(delays[i] / delays[i + 1] - 2.0) for i in range(3)
            )
        assert errors[50.0] > errors[1.0]

    def test_registry(self):
        scheduler = make_scheduler("qwtp", (1.0, 2.0))
        assert scheduler.name == "qwtp"
        assert scheduler.epoch == pytest.approx(11.2)


class TestHeterogeneousPath:
    def base(self, **overrides):
        defaults = dict(
            hops=3, utilization=0.7, flow_packets=5, flow_rate_kbps=200.0,
            experiments=4, warmup=2000.0, experiment_period=500.0,
            drain=3000.0, seed=6,
        )
        defaults.update(overrides)
        return MultiHopConfig(**defaults)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.base(hop_utilizations=(0.9, 0.9))  # wrong length
        with pytest.raises(ConfigurationError):
            self.base(hop_utilizations=(0.9, 1.2, 0.9))

    def test_utilization_of_hop(self):
        config = self.base(hop_utilizations=(0.5, 0.95, 0.5))
        assert config.utilization_of_hop(1) == 0.95
        assert self.base().utilization_of_hop(2) == 0.7

    def test_single_bottleneck_still_differentiates(self):
        """Only the middle hop is congested; end-to-end differentiation
        must still hold (it is created at the bottleneck)."""
        config = self.base(hop_utilizations=(0.3, 0.95, 0.3), experiments=6)
        result = run_multihop(config)
        assert len(result.comparisons) == 6
        assert result.rd > 1.3  # clear differentiation from one hop

    def test_uniform_equals_default_behaviour(self):
        explicit = run_multihop(self.base(hop_utilizations=(0.7, 0.7, 0.7)))
        implicit = run_multihop(self.base())
        assert explicit.rd == pytest.approx(implicit.rd)


class TestJitterMetrics:
    def test_delay_monitor_jitter(self):
        monitor = DelayMonitor(1)
        for delay in (1.0, 3.0, 5.0):
            packet = make_packet(class_id=0, created_at=0.0)
            packet.arrived_at = 0.0
            packet.service_start = delay
            monitor.on_departure(*departure_args(packet), delay)
        expected_std = math.sqrt(8.0 / 3.0)
        assert monitor.jitter(0) == pytest.approx(expected_std)

    def test_jitter_nan_when_idle(self):
        assert math.isnan(DelayMonitor(2).jitter(1))

    def test_packet_tap_ipdv(self):
        tap = PacketTap(1, 0.0, 100.0)
        for t, delay in ((1.0, 2.0), (2.0, 5.0), (3.0, 4.0)):
            packet = make_packet(class_id=0, created_at=0.0)
            packet.arrived_at = 0.0
            packet.service_start = delay
            tap.on_departure(*departure_args(packet), t)
        assert tap.ipdv(0) == pytest.approx((3.0 + 1.0) / 2.0)

    def test_ipdv_needs_two_samples(self):
        tap = PacketTap(1, 0.0, 100.0)
        assert math.isnan(tap.ipdv(0))

    def test_bpr_jitter_exceeds_wtp_on_same_traffic(self):
        """The sawtooth as a jitter statement: identical Pareto traffic,
        higher class-3 jitter under BPR than under WTP."""
        from repro.experiments import (
            SingleHopConfig,
            generate_trace,
            replay_through_scheduler,
        )
        from repro.traffic.mix import ClassLoadDistribution

        config = SingleHopConfig(
            sdps=(1.0, 2.0, 4.0),
            loads=ClassLoadDistribution((0.5, 0.3, 0.2)),
            utilization=0.95, horizon=1.5e5, warmup=7.5e3, seed=12,
        )
        trace = generate_trace(config)
        jitters = {}
        for name in ("bpr", "wtp"):
            result = replay_through_scheduler(
                trace, make_scheduler(name, config.sdps), config
            )
            # Normalize by the mean so scale differences don't dominate.
            jitters[name] = (
                result.monitor.jitter(2) / result.monitor.mean_delay(2)
            )
        assert jitters["bpr"] > jitters["wtp"]
