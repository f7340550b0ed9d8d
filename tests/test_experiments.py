"""Tests for the experiment harnesses (scaled-down runs of every
figure/table pipeline) and the single-hop common machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    MicroscopicConfig,
    SingleHopConfig,
    FigureOneConfig,
    FigureThreeConfig,
    FigureTwoConfig,
    format_figure1,
    format_figure2,
    format_figure3,
    format_figure45,
    format_table1,
    generate_trace,
    replay_through_scheduler,
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure45,
    run_single_hop,
    TableOneConfig,
    run_table1,
)
from repro.experiments.figure1 import SDP_RATIO_2
from repro.schedulers import make_scheduler
from repro.traffic.mix import ClassLoadDistribution


QUICK = dict(horizon=6e4, warmup=3e3)


class TestSingleHopCommon:
    def test_trace_hits_requested_utilization(self):
        config = SingleHopConfig(utilization=0.9, **QUICK)
        trace = generate_trace(config)
        load = trace.offered_load(config.capacity, config.horizon)
        assert load == pytest.approx(0.9, rel=0.15)  # Pareto is bursty

    def test_same_seed_same_trace(self):
        config = SingleHopConfig(seed=5, **QUICK)
        a, b = generate_trace(config), generate_trace(config)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.sizes, b.sizes)

    def test_different_seed_different_trace(self):
        a = generate_trace(SingleHopConfig(seed=1, **QUICK))
        b = generate_trace(SingleHopConfig(seed=2, **QUICK))
        assert len(a) != len(b) or not np.array_equal(a.times, b.times)

    def test_run_produces_ordered_delays(self):
        result = run_single_hop(SingleHopConfig(utilization=0.95, **QUICK))
        delays = result.mean_delays
        assert delays[0] > delays[1] > delays[2] > delays[3]

    def test_replay_same_trace_two_schedulers(self):
        config = SingleHopConfig(utilization=0.95, **QUICK)
        trace = generate_trace(config)
        wtp = replay_through_scheduler(trace, make_scheduler("wtp", config.sdps), config)
        bpr = replay_through_scheduler(trace, make_scheduler("bpr", config.sdps), config)
        assert wtp.monitor.counts() != [0, 0, 0, 0]
        # Both runs saw the same arrivals; departures can differ only by
        # the packets still in the queue when the horizon cuts the run.
        total_wtp, total_bpr = sum(wtp.monitor.counts()), sum(bpr.monitor.counts())
        assert abs(total_wtp - total_bpr) < 0.01 * total_wtp

    def test_conservation_residual_small(self):
        result = run_single_hop(SingleHopConfig(utilization=0.9, **QUICK))
        assert abs(result.conservation_residual()) < 0.10

    def test_feasibility_report_at_default_point(self):
        result = run_single_hop(SingleHopConfig(utilization=0.95, **QUICK))
        assert result.feasibility_report().feasible

    def test_target_ratios(self):
        result = run_single_hop(SingleHopConfig(**QUICK))
        assert result.target_ratios() == pytest.approx([2.0, 2.0, 2.0])

    def test_sdp_class_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SingleHopConfig(sdps=(1.0, 2.0), **QUICK)

    def test_warmup_must_precede_horizon(self):
        with pytest.raises(ConfigurationError):
            SingleHopConfig(horizon=1e3, warmup=1e4)

    @pytest.mark.parametrize(
        "shares, empty",
        [((0.4, 0.3, 0.299, 0.001), 3), ((0.001, 0.4, 0.3, 0.299), 0)],
        ids=["top", "bottom"],
    )
    def test_class_without_arrivals_audits_alike_at_either_end(
        self, shares, empty
    ):
        """A class that drew no arrivals has rate 0 wherever its id
        falls, and every audit ranges over the other three: the checked
        run's Eq 5 residual and the unchecked one agree, and Eq 7
        checks the 6 proper subsets of the classes that drew arrivals,
        named by class id."""
        config = SingleHopConfig(
            loads=ClassLoadDistribution(shares), utilization=0.5,
            horizon=3_000.0, warmup=1_000.0, seed=1,
        )
        result = run_single_hop(config, check_invariants=True)
        counts = np.bincount(result.trace.class_ids, minlength=4)
        assert counts[empty] == 0 and len(counts) == 4
        residual = result.conservation_residual()
        assert math.isfinite(residual)
        assert residual == result.invariants.conservation_residual
        report = result.feasibility_report()
        assert report.feasible
        assert len(report.margins) == 6
        assert not any(empty in subset for subset in report.margins)
        assert math.isfinite(report.conservation_residual)


class TestFigure1Pipeline:
    def test_points_and_convergence_trend(self):
        config = FigureOneConfig(
            utilizations=(0.75, 0.97),
            seeds=(1, 2),
            horizon=6e4,
            warmup=3e3,
        )
        points = run_figure1(config)
        assert len(points) == 4  # 2 rhos x 2 schedulers
        wtp = {p.utilization: p for p in points if p.scheduler == "wtp"}
        # Heavier load -> closer to the target ratio 2 (paper's shape).
        assert wtp[0.97].worst_relative_error < wtp[0.75].worst_relative_error
        assert all(p.feasible for p in points)

    def test_scaled_reduces_work(self):
        config = FigureOneConfig().scaled(0.1)
        assert config.horizon == pytest.approx(1e5)
        assert len(config.seeds) == 1

    def test_format_contains_rows(self):
        config = FigureOneConfig(
            utilizations=(0.9,), seeds=(1,), horizon=5e4, warmup=2e3,
            check_feasibility=False,
        )
        text = format_figure1(run_figure1(config))
        assert "wtp" in text and "bpr" in text and "0.900" in text


class TestFigure2Pipeline:
    def test_wtp_insensitive_bpr_biased(self):
        distributions = (
            ClassLoadDistribution((0.7, 0.1, 0.1, 0.1)),
            ClassLoadDistribution((0.1, 0.1, 0.1, 0.7)),
        )
        config = FigureTwoConfig(
            distributions=distributions, seeds=(1, 2), horizon=8e4,
            warmup=4e3, check_feasibility=False,
        )
        points = run_figure2(config)
        wtp_errors = [
            p.worst_relative_error for p in points if p.scheduler == "wtp"
        ]
        assert max(wtp_errors) < 0.45
        text = format_figure2(points)
        assert "70/10/10/10" in text

    def test_point_count(self):
        config = FigureTwoConfig(
            distributions=(ClassLoadDistribution((0.25, 0.25, 0.25, 0.25)),),
            seeds=(1,), horizon=5e4, warmup=2e3, check_feasibility=False,
        )
        assert len(run_figure2(config)) == 2


class TestFigure3Pipeline:
    def test_boxes_tighten_with_tau(self):
        config = FigureThreeConfig(
            taus_p_units=(10.0, 1000.0), horizon=2e5, warmup=5e3,
        )
        boxes = run_figure3(config)
        assert len(boxes) == 4
        for scheduler in ("wtp", "bpr"):
            spread = {
                b.tau_p_units: b.summary.p95 - b.summary.p5
                for b in boxes
                if b.scheduler == scheduler
            }
            assert spread[1000.0] < spread[10.0]

    def test_format(self):
        config = FigureThreeConfig(
            schedulers=("wtp",), taus_p_units=(100.0,), horizon=6e4,
            warmup=3e3,
        )
        text = format_figure3(run_figure3(config))
        assert "median" in text and "wtp" in text


class TestFigure45Pipeline:
    def test_bpr_noisier_than_wtp(self):
        config = MicroscopicConfig(horizon=1.5e5, warmup=1e4)
        views = run_figure45(config)
        bpr_scores = [
            s for s in views["bpr"].sawtooth_scores() if not math.isnan(s)
        ]
        wtp_scores = [
            s for s in views["wtp"].sawtooth_scores() if not math.isnan(s)
        ]
        assert bpr_scores and wtp_scores
        # The BPR sawtooth artifact: larger packet-to-packet jumps.
        assert np.mean(bpr_scores) > np.mean(wtp_scores)

    def test_views_have_data_and_format(self):
        config = MicroscopicConfig(horizon=1e5, warmup=5e3)
        views = run_figure45(config)
        for view in views.values():
            assert view.interval_means.shape[1] == 3
            assert any(len(s) for s in view.packet_samples)
        assert "sawtooth" in format_figure45(views)


class TestTable1Pipeline:
    def test_single_cell_grid(self):
        config = TableOneConfig(
            hops_values=(2,), utilizations=(0.8,),
            flow_packets_values=(5,), flow_rates_kbps=(200.0,),
            experiments=4, warmup=2000.0,
        )
        cells = run_table1(config)
        assert len(cells) == 1
        assert 1.0 < cells[0].rd < 4.0
        text = format_table1(cells)
        assert "K=2" in text and "F=5" in text

    def test_scaled(self):
        config = TableOneConfig().scaled(0.1)
        assert config.experiments == 10
        assert config.warmup == pytest.approx(10_000.0)
