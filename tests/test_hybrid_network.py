"""Network-wide hybrid engine: fluid maps, envelopes, multihop fidelity.

Property tests for the per-scheduler fluid split maps added with the
network-wide engine (drr/scfq rate-guarantee congestion model, pad/hpd
normalized-delay model), the analytic envelope demotion path, the
per-link topology graph used for fluid planning, and the end-to-end
multihop fidelity contracts.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import repro.sim.hybrid as hybrid_mod
from repro.errors import ConfigurationError
from repro.scenarios.city import (
    CityScenarioConfig,
    CityTask,
    city_summary,
    compile_city_traces,
)
from repro.scenarios.generators import (
    build_city_topology,
    city_link_graph,
)
from repro.sim.engine import Simulator
from repro.sim.hybrid import (
    HybridConfig,
    HybridController,
    check_fluid_envelopes,
    fluid_split,
    plan_segments,
)

SDPS = (1.0, 2.0, 4.0, 8.0)
COUNTS = (400, 300, 200, 100)
CLASS_BYTES = (40_000.0, 30_000.0, 20_000.0, 10_000.0)

#: The four maps added with the network-wide engine (wfq aliases scfq).
NEW_MAPS = ("drr", "scfq", "wfq", "pad", "hpd")


def _split(scheduler, d_agg=5.0, calibration=None, sdps=SDPS, counts=COUNTS):
    return fluid_split(
        scheduler,
        sdps,
        counts,
        d_agg,
        calibration,
        class_bytes=CLASS_BYTES[: len(sdps)],
        span=10_000.0,
        capacity=12.0,
    )


# ----------------------------------------------------------------------
# Eq 5 conservation + shape properties of the new maps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", NEW_MAPS)
def test_eq5_conservation_exact(scheduler):
    d_agg = 7.25
    delays = _split(scheduler, d_agg=d_agg)
    assert all(math.isfinite(d) and d >= 0 for d in delays)
    total = sum(COUNTS)
    assert sum(n * d for n, d in zip(COUNTS, delays)) == pytest.approx(
        total * d_agg, rel=1e-12
    )


@pytest.mark.parametrize("scheduler", ("pad", "hpd"))
def test_pad_hpd_monotone_in_sdp(scheduler):
    # Higher SDP => proportionally lower delay, strictly (Eq 3 model).
    delays = _split(scheduler)
    for higher, lower in zip(delays, delays[1:]):
        assert lower < higher
    # The proportional model is exact: s_i * d_i constant.
    products = [s * d for s, d in zip(SDPS, delays)]
    for p in products[1:]:
        assert p == pytest.approx(products[0], rel=1e-12)


@pytest.mark.parametrize("scheduler", ("pad", "hpd"))
def test_pad_hpd_monotone_under_calibration_blend(scheduler):
    # A flat (undifferentiated) measured split must not destroy the
    # ordering: pad shrinks hard toward the analytic prior, hpd trusts
    # the measurement -- but a *flat* measurement keeps Eq 5, so both
    # stay monotone-or-flat and conservation is exact.
    d_agg = 4.0
    delays = _split(scheduler, d_agg=d_agg, calibration=[1.0, 1.0, 1.0, 1.0])
    total = sum(COUNTS)
    assert sum(n * d for n, d in zip(COUNTS, delays)) == pytest.approx(
        total * d_agg, rel=1e-12
    )
    for higher, lower in zip(delays, delays[1:]):
        assert lower <= higher
    if scheduler == "pad":
        # Calibration weight 0.25: the blended shape keeps most of the
        # analytic differentiation (strictly monotone, ratio > 2 across
        # the SDP range) instead of collapsing to the flat measurement.
        assert delays[0] / delays[-1] > 2.0


def test_rate_maps_track_load_imbalance():
    # Push most of the bytes into class 0 at a fixed weight vector: its
    # GPS share saturates and the drr/scfq congestion model must give
    # it a relatively *larger* delay coefficient than under a balanced
    # load (rho/(1-rho) grows with utilization of the guaranteed rate).
    balanced = fluid_split(
        "drr",
        SDPS,
        COUNTS,
        1.0,
        class_bytes=(25_000.0, 25_000.0, 25_000.0, 25_000.0),
        span=10_000.0,
        capacity=12.0,
    )
    skewed = fluid_split(
        "drr",
        SDPS,
        COUNTS,
        1.0,
        class_bytes=(70_000.0, 10_000.0, 10_000.0, 10_000.0),
        span=10_000.0,
        capacity=12.0,
    )
    assert skewed[0] / skewed[1] > balanced[0] / balanced[1]


def test_unknown_scheduler_names_the_registry():
    with pytest.raises(ConfigurationError, match="no fluid map.*supported"):
        _split("no-such-sched")


# ----------------------------------------------------------------------
# Envelope cross-checks and demotion
# ----------------------------------------------------------------------
def _window_arrays(n=512, capacity=2.0, span=1000.0, seed=3):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, span, n))
    class_ids = rng.integers(0, 4, n)
    sizes = np.full(n, 1.0)
    waits = rng.uniform(0.0, 2.0, n)
    return times, class_ids, sizes, waits, capacity, span


@pytest.mark.parametrize("scheduler", ("wtp", "drr"))
def test_envelopes_pass_physical_delays(scheduler):
    times, class_ids, sizes, waits, capacity, span = _window_arrays()
    delays = [1.5, 1.0, 0.7, 0.5]
    counts = [int((class_ids == c).sum()) for c in range(4)]
    verdict = check_fluid_envelopes(
        scheduler, SDPS, delays, counts, waits, times, class_ids,
        sizes, capacity, span,
    )
    assert verdict is None


@pytest.mark.parametrize("scheduler", ("wtp", "drr"))
def test_envelopes_flag_impossible_delays(scheduler):
    # A per-class mean far above the worst aggregate backlog the window
    # ever built is physically impossible under any work-conserving
    # discipline -- the FIFO bound must flag it.
    times, class_ids, sizes, waits, capacity, span = _window_arrays()
    delays = [1e6, 1.0, 0.7, 0.5]
    counts = [int((class_ids == c).sum()) for c in range(4)]
    verdict = check_fluid_envelopes(
        scheduler, SDPS, delays, counts, waits, times, class_ids,
        sizes, capacity, span,
    )
    assert verdict is not None


def test_controller_demotes_on_envelope_violation(monkeypatch):
    # Squeeze the slack to zero headroom: every fluid window violates
    # its envelope and the controller must re-run those spans in packet
    # mode, recording each demotion, while still finishing the horizon.
    monkeypatch.setattr(hybrid_mod, "ENVELOPE_SLACK", 1e-9)
    monkeypatch.setattr(hybrid_mod, "SPINUP", 500.0)
    monkeypatch.setattr(hybrid_mod, "MIN_FLUID", 500.0)
    config = CityScenarioConfig(
        topology="star_of_chains",
        branches=2,
        hops_per_branch=2,
        flows=48,
        horizon=20_000.0,
        warmup=1_000.0,
        seed=11,
        hybrid=HybridConfig(epsilon=0.5),
    )
    controller = HybridController(config, compile_city_traces(config))
    plan = controller.plan(config.horizon)
    assert any(seg.mode == "fluid" for seg in plan)
    controller.run()
    assert controller.demotions, "expected every fluid window to demote"
    summary = controller.summary()
    assert summary["demotions"] == controller.demotions
    assert all(d["reason"] for d in summary["demotions"])
    means = controller.monitor.mean_delays()
    assert all(math.isfinite(m) and m > 0 for m in means)


# ----------------------------------------------------------------------
# Fluid planning graph <-> packet topology lockstep
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(topology="star_of_chains", branches=3, hops_per_branch=2),
        dict(topology="star_of_chains", branches=2, hops_per_branch=1),
        dict(topology="fat_tree_lite", branches=4, aggregation=2),
    ],
)
def test_city_link_graph_matches_built_topology(kwargs):
    config = CityScenarioConfig(flows=8, horizon=5_000.0, warmup=0.0, **kwargs)
    graph = city_link_graph(config)
    sim = Simulator()
    entries, links, hub = build_city_topology(sim, config)
    by_name = {link.name: link for link in links}
    assert {spec.name for spec in graph} == set(by_name)
    for spec in graph:
        assert spec.capacity == pytest.approx(by_name[spec.name].capacity)
    # Topological order with the hub last; downstream edges stay inside
    # the graph and point strictly forward (no cycles).
    assert graph[-1].name == hub.name
    assert graph[-1].downstream is None
    for i, spec in enumerate(graph[:-1]):
        assert spec.downstream is not None
        assert i < spec.downstream < len(graph)
    # Every branch's trace enters exactly one link.
    fed = [b for spec in graph for b in spec.branches]
    assert sorted(fed) == list(range(config.branches))


# ----------------------------------------------------------------------
# Multihop fidelity and planner reporting
# ----------------------------------------------------------------------
def test_multihop_hybrid_fidelity_within_epsilon():
    # A >= 3-hop star cell: the hybrid per-class means at epsilon=0.05
    # must track the pure packet run (mean relative error well inside
    # the knob; measured ~0.02 on this cell, asserted at 0.05).
    base = dict(
        topology="star_of_chains",
        branches=2,
        hops_per_branch=3,
        flows=120,
        flow_gap=60.0,
        horizon=60_000.0,
        warmup=2_000.0,
        seed=7,
    )
    pure = city_summary(
        CityTask(CityScenarioConfig(scheduler="wtp", **base))
    )["mean_delays"]
    hyb = city_summary(
        CityTask(
            CityScenarioConfig(
                scheduler="wtp", hybrid=HybridConfig(epsilon=0.05), **base
            )
        )
    )["mean_delays"]
    errors = [abs(h - p) / p for h, p in zip(hyb, pure)]
    assert sum(errors) / len(errors) <= 0.05


@pytest.mark.parametrize("scheduler", ("drr", "scfq"))
def test_rate_map_splits_match_packet_measured(scheduler):
    # The calibrated drr/scfq splits must land near the packet-measured
    # per-class means on a seeded multihop run.  The congestion model
    # plus calibration carries a known bias on short packet spans
    # (documented in docs/performance.md); the contract asserted here
    # is mean relative error <= 0.15 and per-class <= 0.25.
    base = dict(
        topology="star_of_chains",
        branches=2,
        hops_per_branch=3,
        flows=120,
        flow_gap=60.0,
        horizon=60_000.0,
        warmup=2_000.0,
        seed=7,
    )
    pure = city_summary(
        CityTask(CityScenarioConfig(scheduler=scheduler, **base))
    )["mean_delays"]
    hyb = city_summary(
        CityTask(
            CityScenarioConfig(
                scheduler=scheduler,
                hybrid=HybridConfig(epsilon=0.05),
                **base,
            )
        )
    )["mean_delays"]
    errors = [abs(h - p) / p for h, p in zip(hyb, pure)]
    assert sum(errors) / len(errors) <= 0.15
    assert max(errors) <= 0.25
    # Ordering must survive: the hybrid split keeps the measured
    # differentiation direction (class 0 slowest ... class 3 fastest).
    assert all(a > b for a, b in zip(hyb, hyb[1:]))


def test_plan_segments_reports_blocked_gaps(monkeypatch):
    monkeypatch.setattr(hybrid_mod, "MIN_FLUID", 5_000.0)
    monkeypatch.setattr(hybrid_mod, "SPINUP", 500.0)
    monkeypatch.setattr(hybrid_mod, "GUARD", 200.0)
    cfg = HybridConfig(epsilon=0.01)
    report: list[dict] = []
    plan_segments(
        20_000.0,
        1_000.0,
        cfg,
        transients=[4_000.0, 6_000.0, 9_000.0, 12_000.0],
        predicted_error=lambda t0, t1: 1.0,
        report=report,
    )
    assert report, "every candidate gap must be reported"
    assert all(not entry["accepted"] for entry in report)
    reasons = " ".join(entry["reason"] for entry in report)
    assert "min_fluid" in reasons or "predicted error" in reasons


# ----------------------------------------------------------------------
# Fidelity curve (the CLI's --fidelity-curve sweep), stubbed runner
# ----------------------------------------------------------------------
class _StubRunner:
    """Returns canned summaries; hybrid cells report +2% delays."""

    def __init__(self) -> None:
        self.tasks: list = []

    def map(self, fn, tasks, shared_traces=None):
        self.tasks = list(tasks)
        out = []
        for task in self.tasks:
            is_hybrid = task.config.hybrid is not None
            delays = [8.0, 4.0, 2.0, 1.0]
            if is_hybrid:
                delays = [d * 1.02 for d in delays]
            out.append(
                {
                    "mean_delays": delays,
                    "fidelity_error": 0.09 if is_hybrid else 0.10,
                    "packets": 1_000,
                    "hybrid": (
                        {"fluid_time_fraction": 0.8} if is_hybrid else None
                    ),
                }
            )
        return out


def test_fidelity_curve_rows_and_exports(tmp_path):
    from repro.scenarios.city import (
        fidelity_curve,
        fidelity_curve_base,
        fidelity_curve_svg,
        fidelity_curve_to_csv,
        format_fidelity_curve,
    )

    runner = _StubRunner()
    rows = fidelity_curve(
        base=fidelity_curve_base(0.5),
        utilizations=(0.7, 0.9),
        epsilon=0.04,
        runner=runner,
    )
    # Cells interleave pure/hybrid per rho, in grid order.
    assert [t.config.hybrid is None for t in runner.tasks] == [
        True, False, True, False,
    ]
    assert runner.tasks[2].config.utilization == pytest.approx(0.9)
    assert runner.tasks[3].config.hybrid.epsilon == pytest.approx(0.04)
    assert len(rows) == 2
    for row in rows:
        assert row["fidelity_error_vs_pure"] == pytest.approx(0.02)
        assert row["max_error_vs_pure"] == pytest.approx(0.02)
        assert row["fluid_time_fraction"] == pytest.approx(0.8)
        assert row["epsilon"] == pytest.approx(0.04)
        assert row["pure_ddp_error"] == pytest.approx(0.10)
        assert row["hybrid_ddp_error"] == pytest.approx(0.09)

    text = format_fidelity_curve(rows)
    assert "rho" in text and "0.70" in text and "80.0%" in text

    csv_path = fidelity_curve_to_csv(rows, tmp_path / "curve.csv")
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("utilization,")

    svg_path = fidelity_curve_svg(rows, tmp_path / "curve.svg")
    assert svg_path.read_text().lstrip().startswith("<svg")


def test_fidelity_curve_rejects_bad_inputs():
    from repro.scenarios.city import fidelity_curve, fidelity_curve_base

    hybrid_base = dataclasses.replace(
        fidelity_curve_base(0.5), hybrid=HybridConfig(epsilon=0.05)
    )
    with pytest.raises(ConfigurationError, match="pure base"):
        fidelity_curve(base=hybrid_base)
    with pytest.raises(ConfigurationError, match="epsilon"):
        fidelity_curve(base=fidelity_curve_base(0.5), epsilon=0.0)
    with pytest.raises(ConfigurationError, match="scale"):
        fidelity_curve_base(0.0)
