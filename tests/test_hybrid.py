"""Hybrid fluid/packet engine: maps, planner, handoffs, wiring.

Covers the fluid edge-case guards in :mod:`repro.schedulers.bpr`, the
load-shape modulators and rate envelopes feeding the planner, the Eq 5
exactness of the fluid per-class split, the packet<->fluid handoff
seams on :class:`~repro.sim.link.Link`, and the end-to-end controller:
``epsilon = 0`` short-circuits to a run bit-identical to the evented
path, and ``epsilon > 0`` holds the DDP fidelity of a steady cell
within the knob.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.hybrid as hybrid_mod
from repro.core.conservation import fcfs_waiting_times
from repro.errors import ConfigurationError
from repro.schedulers.bpr import (
    FluidBPRTracker,
    fluid_backlogs,
    fluid_clearing_time,
)
from repro.scenarios.city import (
    CityScenarioConfig,
    CityTask,
    city_summary,
    compile_city_traces,
    trace_group_key,
)
from repro.scenarios.generators import LoadShape
from repro.sim.hybrid import (
    HybridConfig,
    HybridController,
    Segment,
    _strict_subset_delays,
    fluid_split,
    plan_segments,
    run_hybrid_city,
)
from repro.traffic.compile import RateEnvelope
from repro.traffic.trace import ArrivalTrace

SDPS = (1.0, 2.0, 4.0, 8.0)


# ----------------------------------------------------------------------
# Fluid edge-case guards (repro.schedulers.bpr)
# ----------------------------------------------------------------------
class TestFluidGuards:
    def test_all_empty_system_stays_empty(self):
        assert fluid_backlogs([0.0, 0.0], (1.0, 2.0), 5.0, 123.0) == [0.0, 0.0]
        assert fluid_backlogs([0.0], (1.0,), 5.0, 0.0) == [0.0]

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ConfigurationError, match="elapsed"):
            fluid_backlogs([1.0, 1.0], (1.0, 2.0), 5.0, -0.1)

    def test_nonempty_system_past_clearing_rejected(self):
        # Total 10 bytes at R=5 clears at t=2; asking for t=3 raises.
        with pytest.raises(ConfigurationError, match="empties"):
            fluid_backlogs([4.0, 6.0], (1.0, 2.0), 5.0, 3.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            fluid_backlogs([1.0], (1.0,), 0.0, 1.0)
        with pytest.raises(ConfigurationError, match="capacity"):
            fluid_clearing_time([1.0], 0.0)

    def test_clearing_time_checks_each_element(self):
        # Sum is positive, but one element is negative: must raise.
        with pytest.raises(ConfigurationError, match="non-negative"):
            fluid_clearing_time([5.0, -1.0], 2.0)

    def test_tracker_add_fluid_bounds(self):
        tracker = FluidBPRTracker((1.0, 2.0), 4.0)
        with pytest.raises(ConfigurationError, match="class_id"):
            tracker.add_fluid(2, 1.0)
        with pytest.raises(ConfigurationError, match="class_id"):
            tracker.add_fluid(-1, 1.0)
        with pytest.raises(ConfigurationError, match="amount"):
            tracker.add_fluid(0, -1.0)

    @pytest.mark.property
    @settings(max_examples=50, deadline=None)
    @given(
        q=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=4
        ),
        frac=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_fluid_drain_conserves_work(self, q, frac):
        """sum q_i(t) = Q(0) - R*t and each class only drains."""
        sdps = tuple(float(2**i) for i in range(len(q)))
        capacity = 3.0
        total = sum(q)
        elapsed = frac * total / capacity
        after = fluid_backlogs(q, sdps, capacity, elapsed)
        assert sum(after) == pytest.approx(
            total - capacity * elapsed, rel=1e-6, abs=1e-6
        )
        for before_i, after_i in zip(q, after):
            assert -1e-9 <= after_i <= before_i + 1e-9

    @pytest.mark.property
    @settings(max_examples=50, deadline=None)
    @given(
        q=st.lists(
            st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=4
        ),
        frac=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_higher_sdp_drains_faster(self, q, frac):
        """Relative survival q_i(t)/q_i(0) is monotone in the SDP."""
        sdps = tuple(float(2**i) for i in range(len(q)))
        capacity = 3.0
        elapsed = frac * sum(q) / capacity
        after = fluid_backlogs(q, sdps, capacity, elapsed)
        survival = [a / b for a, b in zip(after, q)]
        for left, right in zip(survival, survival[1:]):
            assert right <= left + 1e-9


# ----------------------------------------------------------------------
# Load shapes (satellite: diurnal + flash crowd)
# ----------------------------------------------------------------------
class TestLoadShape:
    def test_flat_is_identity(self):
        shape = LoadShape()
        assert shape.flat
        times = np.array([0.0, 1.5, 7.0])
        assert np.array_equal(shape.warp_times(times), times)
        assert shape.internal_horizon(100.0) == 100.0
        assert shape.transient_edges(100.0) == ()

    def test_zero_amplitude_and_unit_factor_are_flat(self):
        assert LoadShape(kind="diurnal", amplitude=0.0).flat
        assert LoadShape(kind="flash_crowd", duration=0.0).flat
        assert LoadShape(
            kind="flash_crowd", start=1.0, duration=5.0, factor=1.0
        ).flat

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadShape(kind="square")
        with pytest.raises(ConfigurationError):
            LoadShape(kind="diurnal", amplitude=1.0)
        with pytest.raises(ConfigurationError):
            LoadShape(kind="diurnal", period=0.0)
        with pytest.raises(ConfigurationError):
            LoadShape(kind="flash_crowd", factor=0.0)
        with pytest.raises(ConfigurationError):
            LoadShape(kind="flash_crowd", start=-1.0)

    def test_flash_crowd_cumulative_and_edges(self):
        shape = LoadShape(
            kind="flash_crowd", start=10.0, duration=5.0, factor=3.0
        )
        # Lambda gains (factor-1)*duration over the crowd window.
        assert shape.cumulative(np.array([10.0]))[0] == pytest.approx(10.0)
        assert shape.cumulative(np.array([15.0]))[0] == pytest.approx(25.0)
        assert shape.cumulative(np.array([20.0]))[0] == pytest.approx(30.0)
        assert shape.internal_horizon(100.0) == pytest.approx(110.0)
        assert shape.transient_edges(100.0) == (10.0, 15.0)
        # Edges outside (0, horizon) are dropped.
        assert shape.transient_edges(12.0) == (10.0,)

    def test_diurnal_multiplier_mean_is_one(self):
        shape = LoadShape(kind="diurnal", amplitude=0.5, period=100.0)
        t = np.linspace(0.0, 100.0, 10_001)
        assert float(shape.multiplier(t).mean()) == pytest.approx(1.0, abs=1e-3)
        # Lambda over a whole period equals the period (mass preserved).
        assert shape.cumulative(np.array([100.0]))[0] == pytest.approx(100.0)

    @pytest.mark.property
    @settings(max_examples=30, deadline=None)
    @given(
        amplitude=st.floats(min_value=0.0, max_value=0.9),
        u=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=20
        ),
    )
    def test_diurnal_warp_inverts_cumulative(self, amplitude, u):
        shape = LoadShape(kind="diurnal", amplitude=amplitude, period=90.0)
        internal = np.sort(np.asarray(u))
        warped = shape.warp_times(internal)
        assert np.all(np.diff(warped) >= -1e-9)  # monotone
        roundtrip = shape.cumulative(warped)
        np.testing.assert_allclose(roundtrip, internal, rtol=1e-7, atol=1e-7)

    @pytest.mark.property
    @settings(max_examples=30, deadline=None)
    @given(
        factor=st.floats(min_value=1.1, max_value=5.0),
        u=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=20
        ),
    )
    def test_flash_warp_inverts_cumulative(self, factor, u):
        shape = LoadShape(
            kind="flash_crowd", start=50.0, duration=30.0, factor=factor
        )
        internal = np.sort(np.asarray(u))
        warped = shape.warp_times(internal)
        roundtrip = shape.cumulative(warped)
        np.testing.assert_allclose(roundtrip, internal, rtol=1e-9, atol=1e-9)

    def test_city_traces_flash_crowd_boosts_window(self):
        base = CityScenarioConfig(flows=120, horizon=12_000.0, warmup=500.0)
        crowd = dataclasses.replace(
            base,
            load_shape=LoadShape(
                kind="flash_crowd", start=4_000.0, duration=2_000.0, factor=3.0
            ),
        )
        flat_times = np.concatenate(
            [t.times for t in compile_city_traces(base)]
        )
        crowd_times = np.concatenate(
            [t.times for t in compile_city_traces(crowd)]
        )

        def rate(times, lo, hi):
            return ((times >= lo) & (times < hi)).sum() / (hi - lo)

        # Inside the crowd window the arrival rate is ~factor times the
        # pre-crowd rate; before the window the two compiles agree.
        before = rate(crowd_times, 0.0, 4_000.0)
        inside = rate(crowd_times, 4_000.0, 6_000.0)
        assert inside / before == pytest.approx(3.0, rel=0.15)
        assert rate(flat_times, 0.0, 4_000.0) == pytest.approx(
            before, rel=1e-12
        )
        # Distinct trace-group identity: modulated cells never share
        # compiled traces with flat ones.
        assert trace_group_key(base) != trace_group_key(crowd)


# ----------------------------------------------------------------------
# Rate envelopes (repro.traffic.compile)
# ----------------------------------------------------------------------
class TestRateEnvelope:
    def test_from_arrays_bins_bytes(self):
        times = np.array([0.5, 1.5, 2.5, 2.75])
        class_ids = np.array([0, 1, 0, 1])
        sizes = np.array([100.0, 200.0, 300.0, 400.0])
        env = RateEnvelope.from_arrays(times, class_ids, sizes, 3.0, 1.0)
        assert env.num_classes == 2
        assert env.bins == 3
        np.testing.assert_allclose(env.byte_rates[0], [100.0, 0.0, 300.0])
        np.testing.assert_allclose(env.byte_rates[1], [0.0, 200.0, 400.0])
        np.testing.assert_allclose(
            env.aggregate_byte_rates(), [100.0, 200.0, 700.0]
        )

    def test_change_points_flag_jumps_only(self):
        times = np.arange(0.0, 100.0, 0.5)
        sizes = np.where(times < 50.0, 10.0, 100.0)
        env = RateEnvelope.from_arrays(
            times, np.zeros(len(times), dtype=np.int64), sizes, 100.0, 10.0
        )
        points = env.change_points(rel_jump=0.25)
        assert list(points) == [50.0]
        flat = RateEnvelope.from_arrays(
            times,
            np.zeros(len(times), dtype=np.int64),
            np.full(len(times), 10.0),
            100.0,
            10.0,
        )
        assert len(flat.change_points(rel_jump=0.25)) == 0


# ----------------------------------------------------------------------
# Fluid split (Eq 5)
# ----------------------------------------------------------------------
def _split(scheduler, counts, d_agg, calibration=None):
    """``fluid_split`` at a nominal operating point (the maps under
    test here do not read it)."""
    return fluid_split(
        scheduler, SDPS, counts, d_agg, calibration,
        class_bytes=[float(n) for n in counts], span=100.0, capacity=1.0,
    )


class TestFluidSplit:
    def test_conservation_exact(self):
        counts = [40, 30, 20, 10]
        d_agg = 3.7
        for scheduler in ("fcfs", "wtp", "bpr"):
            delays = _split(scheduler, counts, d_agg)
            weighted = sum(n * d for n, d in zip(counts, delays))
            assert weighted == pytest.approx(sum(counts) * d_agg, rel=1e-12)

    def test_fcfs_is_uniform_wtp_is_inverse_sdp(self):
        counts = [10, 10, 10, 10]
        fcfs = _split("fcfs", counts, 2.0)
        assert fcfs == pytest.approx([2.0] * 4)
        wtp = _split("wtp", counts, 2.0)
        for i in range(3):
            assert wtp[i] / wtp[i + 1] == pytest.approx(
                SDPS[i + 1] / SDPS[i], rel=1e-12
            )

    def test_calibration_overrides_analytic(self):
        counts = [10, 10, 10, 10]
        measured = [8.0, 4.0, 2.0, 1.0]
        delays = _split("wtp", counts, 3.0, calibration=measured)
        # Shape follows the measurement; level satisfies Eq 5.
        assert delays[0] / delays[3] == pytest.approx(8.0, rel=1e-12)
        assert sum(n * d for n, d in zip(counts, delays)) == pytest.approx(
            40 * 3.0, rel=1e-12
        )

    def test_strict_and_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match="successive-subset"):
            _split("strict", [1, 1, 1, 1], 1.0)
        # qwtp is a registered *scheduler* but has no fluid map: the
        # error must name the supported set.
        with pytest.raises(ConfigurationError, match="no fluid map"):
            _split("qwtp", [1, 1, 1, 1], 1.0)
        with pytest.raises(ConfigurationError, match="calibration"):
            _split("wtp", [1, 1, 1, 1], 1.0, calibration=[1.0, 0.0, 1.0, 1.0])

    def test_empty_window_is_nan(self):
        delays = _split("wtp", [0, 0, 0, 0], 1.0)
        assert all(math.isnan(d) for d in delays)


# ----------------------------------------------------------------------
# Fluid windows: the controller's per-link Lindley replay, network cut
# and carried backlogs on a one-branch, one-hop cell
# ----------------------------------------------------------------------
def _uniform_window(n=400, gap=1.0, size=0.8, capacity=1.0):
    times = np.arange(n) * gap
    class_ids = np.arange(n) % 4
    sizes = np.full(n, size)
    return times, class_ids, sizes, capacity


def _window_controller(trace: ArrivalTrace) -> HybridController:
    """An edge link into the hub, fed ``trace`` on its one branch."""
    config = CityScenarioConfig(
        branches=1,
        hops_per_branch=1,
        flows=4,
        horizon=10_000.0,
        warmup=0.0,
        hybrid=HybridConfig(epsilon=0.5),
    )
    return HybridController(config, [trace])


def _paced_trace() -> ArrivalTrace:
    """100-byte packets every 50 ms, classes cycling."""
    times = np.arange(0.0, 10_000.0, 50.0)
    return ArrivalTrace(
        times, np.arange(len(times)) % 4, np.full(len(times), 100.0)
    )


def _empty_trace() -> ArrivalTrace:
    return ArrivalTrace(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))


class TestFluidWindow:
    def test_aggregate_matches_lindley(self):
        controller = _window_controller(_paced_trace())
        fluxes, _ = controller._evaluate_links(1000.0, 3000.0)
        edge, hub = fluxes
        # The edge link's departures inside the window are the hub's
        # arrivals, and the hub's waits are their Lindley walk at the
        # hub capacity.
        inside = edge.departures < 3000.0
        assert np.array_equal(hub.times, edge.departures[inside])
        expected = fcfs_waiting_times(
            edge.departures[inside], edge.sizes[inside], controller.capacity
        )
        assert np.array_equal(hub.waits, expected)

    def test_carried_backlog_enters_as_virtual_arrival(self):
        empty = _window_controller(_paced_trace())
        loaded = _window_controller(_paced_trace())
        backlog = 5.0 * loaded.capacity
        loaded._carried[loaded.hub_index] = [backlog, 0.0, 0.0, 0.0]
        hub_empty = empty._evaluate_links(1000.0, 3000.0)[0][-1]
        hub_loaded = loaded._evaluate_links(1000.0, 3000.0)[0][-1]
        assert hub_loaded.lindley_times[0] == 1000.0
        assert hub_loaded.lindley_sizes[0] == backlog
        assert hub_loaded.waits.mean() > hub_empty.waits.mean()

    def test_empty_window_drains_carried(self):
        controller = _window_controller(_empty_trace())
        capacity = controller.capacity
        hub = controller.hub_index
        controller._carried[hub] = [10.0 * capacity, 0.0, 0.0, 5.0 * capacity]
        assert controller._run_fluid(0.0, 8.0) == 8.0
        # An arrival-free stretch drains the exact total at link
        # capacity and keeps the carried class proportions.
        left = controller._carried[hub]
        assert sum(left) == 7.0 * capacity
        assert left[0] == 2.0 * left[3]
        assert left[1] == left[2] == 0.0
        controller._run_fluid(8.0, 100.0)
        assert controller._carried[hub] == [0.0] * 4

    def test_regeneration_prefers_idle_boundary(self):
        # Sparse arrivals: every arrival meets an idle network, so the
        # last external arrival in the regeneration window is the cut.
        controller = _window_controller(_paced_trace())
        fluxes, ext_times = controller._evaluate_links(1000.0, 3000.0)
        cut = controller._find_network_cut(fluxes, ext_times, 1000.0, 3000.0)
        assert cut == 2950.0
        assert controller._run_fluid(1000.0, 3000.0) == 2950.0
        record = controller.timeline[-1]
        assert record["regenerated"] and record["deferred"] == 1
        assert all(sum(q) == 0.0 for q in controller._carried)

    def test_strict_subset_delays_telescope(self):
        times, class_ids, sizes, capacity = _uniform_window()
        delays = _strict_subset_delays(
            times, class_ids, sizes, 4, capacity, 0.0, [0.0] * 4
        )
        counts = np.bincount(class_ids, minlength=4)
        d_agg = float(fcfs_waiting_times(times, sizes, capacity).mean())
        # Eq 5 conservation holds through the subset telescope.
        weighted = sum(n * d for n, d in zip(counts, delays))
        assert weighted == pytest.approx(400 * d_agg, rel=1e-9)
        # Higher class id = higher priority here: delays decrease.
        for left, right in zip(delays, delays[1:]):
            assert right <= left + 1e-9


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_epsilon_zero_is_single_packet_segment(self):
        plan = plan_segments(
            1e4, 1e3, HybridConfig(epsilon=0.0), [5e3], lambda a, b: 0.0
        )
        assert plan == [Segment(0.0, 1e4, "packet")]

    def test_forced_prefix_and_guards(self, monkeypatch):
        monkeypatch.setattr(hybrid_mod, "SPINUP", 1e3)
        monkeypatch.setattr(hybrid_mod, "GUARD", 500.0)
        monkeypatch.setattr(hybrid_mod, "MIN_FLUID", 1e3)
        hybrid = HybridConfig(epsilon=0.5)
        plan = plan_segments(20e3, 1e3, hybrid, [10e3], lambda a, b: 0.0)
        assert plan[0] == Segment(0.0, 2e3, "packet")
        modes = {(s.start, s.end): s.mode for s in plan}
        assert modes[(2e3, 9.5e3)] == "fluid"
        assert modes[(9.5e3, 10.5e3)] == "packet"
        assert modes[(10.5e3, 20e3)] == "fluid"
        # Contiguity: segments tile [0, horizon) exactly.
        assert plan[0].start == 0.0
        assert plan[-1].end == 20e3
        for a, b in zip(plan, plan[1:]):
            assert a.end == b.start

    def test_high_predicted_error_stays_packet(self, monkeypatch):
        monkeypatch.setattr(hybrid_mod, "SPINUP", 1e3)
        monkeypatch.setattr(hybrid_mod, "MIN_FLUID", 1e3)
        hybrid = HybridConfig(epsilon=0.05)
        plan = plan_segments(20e3, 1e3, hybrid, [], lambda a, b: 0.2)
        assert plan == [Segment(0.0, 20e3, "packet")]

    def test_short_gaps_not_worth_switching(self, monkeypatch):
        monkeypatch.setattr(hybrid_mod, "SPINUP", 1e3)
        monkeypatch.setattr(hybrid_mod, "GUARD", 500.0)
        monkeypatch.setattr(hybrid_mod, "MIN_FLUID", 5e3)
        hybrid = HybridConfig(epsilon=0.5)
        # Transients every 2k: every gap is under min_fluid.
        plan = plan_segments(
            10e3, 1e3, hybrid, [2e3, 4e3, 6e3, 8e3], lambda a, b: 0.0
        )
        assert all(s.mode == "packet" for s in plan)

    def test_knob_validation(self):
        with pytest.raises(ConfigurationError):
            HybridConfig(epsilon=-0.1)


# ----------------------------------------------------------------------
# Controller wiring
# ----------------------------------------------------------------------
def _small_cell(**overrides) -> CityScenarioConfig:
    defaults = dict(flows=80, horizon=8_000.0, warmup=500.0, seed=3)
    defaults.update(overrides)
    return CityScenarioConfig(**defaults)


class TestController:
    def test_epsilon_zero_bit_identical_to_evented(self):
        config = _small_cell(hybrid=HybridConfig(epsilon=0.0))
        traces = compile_city_traces(config)
        controller = HybridController(config, traces)
        assert [s.mode for s in controller.plan(config.horizon)] == ["packet"]
        controller.run()
        reference = city_summary(
            CityTask(dataclasses.replace(config, hybrid=None))
        )
        assert controller.monitor.mean_delays() == reference["mean_delays"]
        assert controller.monitor.counts() == reference["class_counts"]
        assert controller.packet_departures == reference["hub_departures"]

    def test_fluid_segments_run_and_monitor_credits(self, monkeypatch):
        monkeypatch.setattr(hybrid_mod, "SPINUP", 500.0)
        monkeypatch.setattr(hybrid_mod, "MIN_FLUID", 500.0)
        config = _small_cell(hybrid=HybridConfig(epsilon=0.5))
        summary = city_summary(CityTask(config))
        hybrid = summary["hybrid"]
        assert hybrid["fluid_time_fraction"] > 0.5
        assert hybrid["fluid_credited"] > 0
        assert any(t["mode"] == "fluid" for t in hybrid["timeline"])
        total = hybrid["fluid_credited"] + summary["hub_departures"]
        assert sum(summary["class_counts"]) <= total

    @pytest.mark.integration
    def test_fidelity_within_epsilon_on_steady_cell(self):
        epsilon = 0.05
        config = _small_cell(
            flows=200, horizon=60_000.0, warmup=1_000.0,
            hybrid=HybridConfig(epsilon=epsilon),
        )
        hybrid = city_summary(CityTask(config))
        pure = city_summary(
            CityTask(dataclasses.replace(config, hybrid=None))
        )
        errors = [
            abs(h - p) / p
            for h, p in zip(hybrid["mean_delays"], pure["mean_delays"])
        ]
        assert sum(errors) / len(errors) <= epsilon, errors
        assert hybrid["hybrid"]["fluid_time_fraction"] > 0.8

    def test_unsupported_scheduler_rejected(self):
        # qwtp has no registered fluid map (drr/scfq/pad/hpd now do).
        config = _small_cell(
            scheduler="qwtp", hybrid=HybridConfig(epsilon=0.1)
        )
        with pytest.raises(ConfigurationError, match="no fluid map"):
            HybridController(config, compile_city_traces(config))

    def test_epsilon_zero_allows_any_scheduler(self):
        config = _small_cell(scheduler="qwtp", hybrid=HybridConfig(epsilon=0.0))
        controller = run_hybrid_city(config, compile_city_traces(config))
        assert controller.packet_departures > 0

    def test_invariants_and_hybrid_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="pure packet"):
            _small_cell(hybrid=HybridConfig(), check_invariants=True)

    def test_seeded_handoffs_keep_class_means_finite(self, monkeypatch):
        # No regeneration search: every fluid->packet switch carries the
        # terminal fluid backlog into the packet segment as seeds.
        monkeypatch.setattr(hybrid_mod, "REGEN_WINDOW", 0.0)
        monkeypatch.setattr(hybrid_mod, "SPINUP", 500.0)
        monkeypatch.setattr(hybrid_mod, "MIN_FLUID", 500.0)
        config = _small_cell(hybrid=HybridConfig(epsilon=0.5))
        controller = run_hybrid_city(config, compile_city_traces(config))
        assert controller.seeded_packets > 0
        means = controller.monitor.mean_delays()
        assert all(math.isfinite(m) and m > 0 for m in means), means


class TestSeededHandoff:
    def test_seed_backlog_preserves_backdated_ages(self):
        from repro.schedulers import make_scheduler
        from repro.sim import Link, PacketSink, Simulator
        from repro.sim.packet import Packet

        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(),
            name="seeded",
        )
        seeds = [
            Packet(packet_id=i, class_id=i % 2, size=2.0, created_at=-3.0 + i)
            for i in range(3)
        ]
        sim.schedule(0.0, link.seed_backlog, seeds)
        sim.run(until=10.0)
        assert link.departures == 3
        assert link.arrivals == 3

    def test_backlog_snapshot_reads_queue_and_remnant(self):
        from repro.schedulers import make_scheduler
        from repro.sim import Link, PacketSink, Simulator
        from repro.traffic.trace import ArrivalTrace, TraceSource

        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("fcfs", SDPS),
            capacity=1.0,
            target=PacketSink(),
            name="snap",
        )
        trace = ArrivalTrace(
            np.array([0.0, 0.0, 0.0]),
            np.array([0, 1, 2], dtype=np.int64),
            np.array([4.0, 3.0, 2.0]),
        )
        TraceSource(sim, link, trace).start()
        sim.run(until=1.0)
        snapshot = link.backlog_snapshot()
        # 9 bytes arrived, 1 byte-time served: 8 bytes remain, with the
        # in-service remnant attributed to the serving class.
        assert sum(snapshot) == pytest.approx(8.0)
        assert snapshot[0] == pytest.approx(3.0)


class TestDelayCurveCrossCheck:
    """The fluid aggregate is the same d(lambda) the paper's delay-curve
    estimator computes: both run the exact O(n) FCFS recursion, so at
    the measured operating point (keep fraction 1.0) they must agree
    to the last bit."""

    def test_fluid_aggregate_matches_delay_curve_operating_point(self):
        from repro.core.delay_curve import estimate_delay_curve

        config = CityScenarioConfig(
            flows=32, horizon=8_000.0, warmup=0.0,
            hybrid=HybridConfig(epsilon=0.5),
        )
        controller = HybridController(config, compile_city_traces(config))
        fluxes, _ = controller._evaluate_links(0.0, config.horizon)
        hub = fluxes[controller.hub_index]
        arrivals = ArrivalTrace(hub.times, hub.class_ids, hub.sizes)
        curve = estimate_delay_curve(
            arrivals, controller.capacity, fractions=(0.5, 1.0)
        )
        measured_rate = len(arrivals) / float(arrivals.times[-1])
        assert float(hub.waits.mean()) == curve(measured_rate)
