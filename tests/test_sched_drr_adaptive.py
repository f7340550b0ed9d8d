"""Tests for the DRR baseline and the adaptive-WTP extension."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.invariants import InvariantChecker
from repro.schedulers import AdaptiveWTPScheduler, DRRScheduler, WTPScheduler
from repro.sim import Link, PacketSink, Simulator

from .conftest import make_packet, run_poisson_link


class TestDRR:
    def test_weights_validated(self):
        with pytest.raises(ConfigurationError):
            DRRScheduler(())
        with pytest.raises(ConfigurationError):
            DRRScheduler((1.0, -1.0))
        with pytest.raises(ConfigurationError):
            DRRScheduler((1.0,), quantum_scale=0.0)

    def test_bandwidth_shares_follow_weights(self):
        """Persistent backlogs split the link ~1:3 with weights (1, 3)."""
        sim = Simulator()
        sink = PacketSink(keep_packets=True)
        link = Link(sim, DRRScheduler((1.0, 3.0)), capacity=1.0, target=sink)
        for i in range(400):
            sim.schedule(0.0, link.receive, make_packet(i, class_id=0, size=100.0))
            sim.schedule(0.0, link.receive, make_packet(1000 + i, class_id=1, size=100.0))
        sim.run(until=20_000.0)
        served = [0, 0]
        for packet in sink.packets:
            served[packet.class_id] += 1
        assert served[1] / served[0] == pytest.approx(3.0, rel=0.15)

    def test_single_class_round_trips(self):
        sim = Simulator()
        sink = PacketSink(keep_packets=True)
        link = Link(sim, DRRScheduler((1.0,)), capacity=1.0, target=sink)
        for i in range(5):
            sim.schedule(float(i), link.receive, make_packet(i, size=2.0))
        sim.run()
        assert sink.received == 5
        assert [p.packet_id for p in sink.packets] == list(range(5))

    def test_large_packets_accumulate_deficit(self):
        """A class whose quantum is below its packet size still gets
        served after enough rounds (no permanent starvation)."""
        sim = Simulator()
        sink = PacketSink(keep_packets=True)
        scheduler = DRRScheduler((1.0, 8.0), quantum_scale=800.0)
        link = Link(sim, scheduler, capacity=100.0, target=sink)
        # Class 1 quantum = 100 bytes; its packets are 700 bytes.
        for i in range(3):
            sim.schedule(0.0, link.receive, make_packet(i, class_id=0, size=700.0))
        for i in range(30):
            sim.schedule(0.0, link.receive, make_packet(100 + i, class_id=1, size=700.0))
        sim.run()
        assert sink.received == 33
        low_served = [p.packet_id for p in sink.packets if p.class_id == 0]
        assert low_served == [0, 1, 2]

    @pytest.mark.parametrize("checked", [False, True])
    def test_packet_needing_hundreds_of_rounds_is_served(self, checked):
        """Under the ratio-4 SDPs class 0's quantum is 1500/64 B, so a
        9000 B packet needs 384 rounds: legal input for DRR, served
        with and without the round-order oracle watching."""
        sim = Simulator()
        sink = PacketSink(keep_packets=True)
        scheduler = DRRScheduler((1.0, 4.0, 16.0, 64.0))
        link = Link(sim, scheduler, capacity=1000.0, target=sink)
        if checked:
            InvariantChecker(link).attach()
        sim.schedule(0.0, link.receive, make_packet(0, class_id=0, size=9000.0))
        sim.schedule(0.0, link.receive, make_packet(1, class_id=3, size=1500.0))
        sim.schedule(0.0, link.receive, make_packet(2, class_id=0, size=40.0))
        if checked:
            sim.run_checked()
        else:
            sim.run()
        assert [p.packet_id for p in sink.packets] == [0, 1, 2]
        assert sink.packets[-1].departed_at == pytest.approx(10.54)

    def test_delay_ratio_drifts_with_load_split(self):
        """Capacity differentiation: DRR's delay ratio moves with the
        class load split (the Section 2.1 critique), unlike WTP."""
        ratios = {}
        for label, split in (("even", (0.5, 0.5)), ("skewed", (0.8, 0.2))):
            rates = [0.9 * split[0], 0.9 * split[1]]
            delays, _ = run_poisson_link(
                DRRScheduler((1.0, 2.0)), rates, horizon=1e5, seed=7
            )
            ratios[label] = delays[0] / delays[1]
        assert abs(ratios["even"] - ratios["skewed"]) / ratios["even"] > 0.4


class TestAdaptiveWTP:
    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError):
            AdaptiveWTPScheduler((1.0, 2.0), gain=1.5)
        with pytest.raises(ConfigurationError):
            AdaptiveWTPScheduler((1.0, 2.0), adjustment_period=0)
        with pytest.raises(ConfigurationError):
            AdaptiveWTPScheduler((1.0, 2.0), ewma_alpha=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveWTPScheduler((1.0, 2.0), max_drift=0.5)

    def test_zero_gain_is_plain_wtp(self):
        rates = [0.85 * s for s in (0.5, 0.5)]
        adaptive, _ = run_poisson_link(
            AdaptiveWTPScheduler((1.0, 4.0), gain=0.0), rates,
            horizon=1e5, seed=3,
        )
        plain, _ = run_poisson_link(
            WTPScheduler((1.0, 4.0)), rates, horizon=1e5, seed=3
        )
        assert adaptive == pytest.approx(plain)

    @pytest.mark.slow
    def test_moderate_load_ratio_corrected(self):
        """The headline: at rho=0.75 plain WTP undershoots the target
        ratio 4; the adaptive variant lands much closer."""
        rates = [0.75 * s for s in (0.5, 0.5)]
        target = 4.0
        plain, _ = run_poisson_link(
            WTPScheduler((1.0, 4.0)), rates, horizon=4e5, seed=5
        )
        adaptive, _ = run_poisson_link(
            AdaptiveWTPScheduler((1.0, 4.0)), rates, horizon=4e5, seed=5
        )
        plain_error = abs(plain[0] / plain[1] - target)
        adaptive_error = abs(adaptive[0] / adaptive[1] - target)
        assert plain_error > 0.4          # documented undershoot exists
        assert adaptive_error < 0.6 * plain_error

    def test_drift_is_bounded(self):
        rates = [0.8 * s for s in (0.5, 0.5)]
        scheduler = AdaptiveWTPScheduler((1.0, 2.0), max_drift=2.0)
        run_poisson_link(scheduler, rates, horizon=1e5, seed=1)
        for cid in range(2):
            assert 0.5 <= scheduler.drift(cid) <= 2.0

    def test_heavy_load_stays_on_target(self):
        """Adaptation must not break the regime where WTP already works."""
        rates = [0.97 * s for s in (0.4, 0.3, 0.2, 0.1)]
        delays, _ = run_poisson_link(
            AdaptiveWTPScheduler((1.0, 2.0, 4.0, 8.0)), rates,
            horizon=3e5, seed=2,
        )
        for i in range(3):
            assert delays[i] / delays[i + 1] == pytest.approx(2.0, rel=0.2)

    def test_registry_name(self):
        from repro.schedulers import make_scheduler

        scheduler = make_scheduler("adaptive-wtp", (1.0, 2.0))
        assert scheduler.name == "adaptive-wtp"
