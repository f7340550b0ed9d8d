"""Chain-fused drain equivalence over multi-hop paths.

The chain-fused drain kernel (``repro.sim.link``, module docstring)
hands completed packets to downstream coupled links inline and advances
the whole path in one fused loop.  These tests pin its hard guarantee:
flow delays, per-hop link state, and calendar interleaving are
bit-identical -- no tolerances -- to the classic evented run, for every
scheduler named in the Table 1 reproduction, including

* user flows launching (and emitting) at the exact instant a chain
  drain is mid-busy-period -- the launch is a foreign calendar event
  whose key precedes the drain's next virtual event, so the drain must
  park and resume without disturbing a single timestamp;
* an :class:`InvariantChecker` attached to a *middle* hop, which must
  disable chain fusion across the whole walk (the checker's hooks see
  every event) while the cursor-fed entry runs evented;
* a monitor attached mid-run to a hop holding columnar backlog, which
  keeps draining columnar and hands the monitor scalars;
* the routed-network topology (``RouteDemux`` resolution instead of
  ``FlowDemux``), under its own ``drain`` flag;
* the ``truncated_experiments`` diagnostic surfaced by
  :func:`~repro.network.multihop.run_multihop`;
* its stop rule: the run ends within one flow period of the last
  recorded user packet, at the same point in drained, evented,
  scalar-source and checked runs, whatever ``drain`` allows.
"""

from __future__ import annotations

import warnings

import pytest

from repro.invariants import InvariantChecker
from repro.network.flows import FlowRecorder, UserFlow
from repro.network.multihop import MultiHopConfig, run_multihop
from repro.network.routed import RoutedNetwork
from repro.network.topology import FlowDemux
from repro.schedulers import make_scheduler
from repro.sim import DelayMonitor, Link, PacketSink, Simulator
from repro.sim.rng import RandomStreams
from repro.traffic import (
    ArrivalCursor,
    CompiledMixedSource,
    ConstantInterarrivals,
    PacketIdAllocator,
    ParetoInterarrivals,
)

from .conftest import scalar_entries

SDPS = (1.0, 2.0, 4.0, 8.0)
MIX = (0.4, 0.3, 0.2, 0.1)

#: The schedulers the Table 1 reproduction sweeps over.
CHAIN_SCHEDULERS = ("wtp", "qwtp", "fcfs", "strict", "bpr")


def link_state(link: Link) -> tuple:
    queues = link.scheduler.queues
    return (
        link.arrivals,
        link.departures,
        link.bytes_sent,
        link.busy_time,
        link.busy,
        queues.total_packets,
        tuple(queues.head_arrivals),
        tuple(queues.bytes_backlog),
    )


def build_chain(
    sim,
    scheduler_name: str,
    hops: int,
    drain: bool,
):
    """hops x (Link -> FlowDemux) ending at a FlowRecorder, as in
    run_multihop: cross-traffic exits at each hop's demux sink."""
    recorder = FlowRecorder()
    links: list[Link] = []
    downstream = recorder
    for hop in range(hops - 1, -1, -1):
        demux = FlowDemux(downstream, PacketSink())
        link = Link(
            sim,
            make_scheduler(scheduler_name, SDPS),
            capacity=1.0,
            target=demux,
            name=f"hop{hop}",
            drain=drain,
        )
        links.append(link)
        downstream = link
    links.reverse()
    return links, recorder


def run_chain(
    scheduler_name: str,
    drain: bool,
    hops: int = 3,
    flow_starts: tuple[float, ...] = (40.0, 40.0 + 1.0 / 3.0, 97.625),
    checker_hop: int | None = None,
    checker_at: float | None = None,
    monitor_hop: int | None = None,
    monitor_at: float = 0.0,
    horizon: float = 400.0,
    seed: int = 9,
):
    """One run; returns (sim, links, per-flow delays, per-hop state,
    checker).  Pareto cross-traffic at roughly 0.77 load per hop plus
    bursty user flows keeps every hop in long multi-packet busy periods
    so the fused loop, parking, and resumption all engage.

    ``checker_at`` delays the checker attach to a scheduled calendar
    event mid-run (``checker.capture`` records the hop's object-free
    backlog at the attach); ``None`` attaches before the run.
    ``monitor_hop`` gets a :class:`DelayMonitor` from a calendar event
    at ``monitor_at``; the monitor records the hop's object-free backlog
    at that instant in its ``cols_at_attach`` attribute.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    ids = PacketIdAllocator()
    links, recorder = build_chain(sim, scheduler_name, hops, drain)
    cursor = ArrivalCursor(sim)
    for link in links:
        for _ in range(2):
            cursor.add(
                CompiledMixedSource(
                    link,
                    ParetoInterarrivals(2.6, 1.9, streams.generator()),
                    MIX,
                    1.0,
                    streams.generator(),
                    ids=ids,
                )
            )
    cursor.start()
    nflows = 0
    for start in flow_starts:
        for class_id in range(3, -1, -1):
            UserFlow(
                sim,
                links[0],
                flow_id=nflows,
                class_id=class_id,
                num_packets=5,
                packet_size=1.0,
                period=2.0,
                first_packet_id=1_000_000 + nflows * 1_000,
            ).launch(start)
            nflows += 1
    checker = None
    if checker_hop is not None:
        checker = InvariantChecker(links[checker_hop])
        checker.capture = {}
        if checker_at is None:
            checker.attach()
        else:
            hop_link = links[checker_hop]
            capture = checker.capture

            def attach_mid_run():
                capture["cols"] = scalar_entries(hop_link.scheduler.queues)
                capture["busy"] = hop_link.busy
                checker.attach()

            sim.schedule(checker_at, attach_mid_run)
    if monitor_hop is not None:
        monitored = links[monitor_hop]
        monitor = DelayMonitor(len(SDPS))

        def attach_monitor():
            queues = monitored.scheduler.queues
            monitor.cols_at_attach = scalar_entries(queues)
            monitored.add_monitor(monitor)

        sim.schedule(monitor_at, attach_monitor)
    sim.run(until=horizon)
    delays = {
        fid: tuple(recorder.flow_delays(fid)) for fid in range(nflows)
    }
    return sim, links, delays, [link_state(link) for link in links], checker


@pytest.mark.parametrize("name", CHAIN_SCHEDULERS)
def test_chain_bit_identical_all_schedulers(name):
    sim_d, links_d, delays_d, state_d, _ = run_chain(name, drain=True)
    sim_e, _, delays_e, state_e, _ = run_chain(name, drain=False)
    assert delays_d == delays_e
    assert state_d == state_e
    assert sim_d.now == sim_e.now
    # Sanity: the drained run really did fuse the chain (the entry's
    # cached decision survived the run) and every flow delivered.
    assert links_d[0]._chain_fuse is True
    assert all(len(d) == 5 for d in delays_d.values())


def test_chain_member_checked_mid_run():
    """A checker attached to the middle hop by a calendar event landing
    mid-run, over the hop's object-free backlog: the entry's cached
    chain walk must fail its guards and rebuild as blocked, the backlog
    stays scalar until a check peeks at it or it is popped, and the
    rest of the run must match an evented run with the checker attached
    at the same instant."""
    sim_c, links_c, delays_c, state_c, checker_c = run_chain(
        "wtp", drain=True, checker_hop=1, checker_at=200.0
    )
    sim_e, _, delays_e, state_e, checker_e = run_chain(
        "wtp", drain=False, checker_hop=1, checker_at=200.0
    )
    assert delays_c == delays_e
    assert state_c == state_e
    # The boundary was genuinely crossed: the member held object-free
    # backlog when the checker appeared.
    assert checker_c.capture["cols"] > 0
    assert checker_e.capture["cols"] == 0
    # The entry saw the hooked member and disabled fusion for the rest
    # of the run.
    assert links_c[0]._chain_fuse is False
    report_c = checker_c.finalize()
    report_e = checker_e.finalize()
    assert report_c.departures == report_e.departures > 0
    assert report_c.busy_periods == report_e.busy_periods


@pytest.mark.parametrize("name", ["wtp", "bpr", "scfq", "drr"])
def test_monitor_attached_mid_run_to_chain_member(name):
    """A monitor attached by a calendar event to the middle hop while
    it holds columnar backlog: the member keeps draining columnar, its
    leftover column entries included, hands the monitor each
    departure's scalars, and the run stays bit-identical to an evented
    run with the same attach."""
    sim_c, links_c, delays_c, state_c, _ = run_chain(
        name, drain=True, monitor_hop=1, monitor_at=200.0
    )
    sim_e, links_e, delays_e, state_e, _ = run_chain(
        name, drain=False, monitor_hop=1, monitor_at=200.0
    )
    monitor_c = links_c[1].monitors[0]
    monitor_e = links_e[1].monitors[0]
    assert monitor_c.cols_at_attach > 0
    assert monitor_e.cols_at_attach == 0
    assert delays_c == delays_e
    assert state_c == state_e
    assert sim_c.now == sim_e.now
    assert monitor_c.counts() == monitor_e.counts()
    assert monitor_c.mean_delays() == monitor_e.mean_delays()
    assert sum(monitor_c.counts()) > 0
    assert links_c[0]._chain_fuse is True


def test_flow_launch_at_exact_drain_instant():
    """Deterministic CBR cross-traffic: arrivals on a 1.25 ms grid, so
    flows launched at grid instants land exactly on cursor arrivals
    (and, with unit service, on departure timestamps) while a chain
    drain is mid-busy-period.  The drain must park on the equal-or-
    preceding foreign key and resume bit-identically."""

    def run(drain: bool):
        sim = Simulator()
        ids = PacketIdAllocator()
        links, recorder = build_chain(sim, "wtp", hops=2, drain=drain)
        cursor = ArrivalCursor(sim)
        for link in links:
            for offset in (0.0, 0.6):
                cursor.add(
                    CompiledMixedSource(
                        link,
                        ConstantInterarrivals(1.25),
                        MIX,
                        1.0,
                        RandomStreams(3).generator(),
                        ids=ids,
                        start_time=offset,
                    )
                )
        cursor.start()
        # 5.0 and 10.0 are cursor-arrival instants (4 x 1.25, 8 x 1.25)
        # inside busy periods; 6.0 additionally collides with a unit-
        # service departure timestamp.  Flow periods then re-collide
        # every 2.5 ms.
        nflows = 0
        for start in (5.0, 6.0, 10.0):
            for class_id in (3, 1):
                UserFlow(
                    sim,
                    links[0],
                    flow_id=nflows,
                    class_id=class_id,
                    num_packets=4,
                    packet_size=1.0,
                    period=2.5,
                    first_packet_id=2_000_000 + nflows * 1_000,
                ).launch(start)
                nflows += 1
        sim.run(until=120.0)
        delays = {
            fid: tuple(recorder.flow_delays(fid)) for fid in range(nflows)
        }
        return sim, delays, [link_state(link) for link in links]

    sim_d, delays_d, state_d = run(True)
    sim_e, delays_e, state_e = run(False)
    assert delays_d == delays_e
    assert state_d == state_e
    assert all(delays_d.values())


def test_checker_mid_chain_disables_fusion_only():
    """A checker attached to the middle hop must force the entry's walk
    to report blocked (its hooks would be bypassed by a fused drain)
    without breaking equivalence -- the cursor-fed entry falls back to
    evented completions, which hand off through plain ``receive``."""
    sim_d, links_d, delays_d, state_d, checker_d = run_chain(
        "wtp", drain=True, checker_hop=1
    )
    sim_e, _, delays_e, state_e, checker_e = run_chain(
        "wtp", drain=False, checker_hop=1
    )
    assert delays_d == delays_e
    assert state_d == state_e
    # The entry built a chain, saw the checked member, and disabled
    # fusion for the whole walk.
    assert links_d[0]._chain_cache is not None
    assert links_d[0]._chain_cache.blocked is True
    assert links_d[0]._chain_fuse is False
    # The checker verified every event on its hop in both runs.
    report_d = checker_d.finalize()
    report_e = checker_e.finalize()
    assert report_d.departures == report_e.departures > 0
    assert report_d.busy_periods == report_e.busy_periods


def test_chain_fusion_collapses_calendar_events():
    """The fused drain's reason to exist: one resumption event per
    still-busy link instead of one calendar event per departure."""
    sim_d, *_ = run_chain("wtp", drain=True)
    sim_e, *_ = run_chain("wtp", drain=False)
    assert sim_d.events_processed < sim_e.events_processed / 2


def test_routed_network_drain_flag_parity():
    """RoutedNetwork's drain flag: chain-drained routed paths (RouteDemux
    resolution, not FlowDemux) must match the evented run exactly."""

    def run(drain: bool):
        sim = Simulator()
        ids = PacketIdAllocator()
        net = RoutedNetwork(sim, drain=drain)
        for node in "ABCD":
            net.add_node(node)
        edges = [("A", "B"), ("B", "C"), ("C", "D")]
        for src, dst in edges:
            net.add_link(src, dst, make_scheduler("wtp", SDPS), capacity=1.0)
        recorder = FlowRecorder()
        net.add_route(7, ["A", "B", "C", "D"], terminal=recorder)
        cursor = ArrivalCursor(sim)
        for src, dst in edges:
            cursor.add(
                CompiledMixedSource(
                    net.edge_link(src, dst),
                    ParetoInterarrivals(1.3, 1.9, RandomStreams(4).generator()),
                    MIX,
                    1.0,
                    RandomStreams(5).generator(),
                    ids=ids,
                )
            )
        cursor.start()
        UserFlow(
            sim,
            net.ingress(7),
            flow_id=7,
            class_id=2,
            num_packets=20,
            packet_size=1.0,
            period=3.0,
            first_packet_id=3_000_000,
        ).launch(25.0)
        sim.run(until=300.0)
        states = [link_state(net.edge_link(s, d)) for s, d in edges]
        return sim, tuple(recorder.flow_delays(7)), states

    sim_d, delays_d, state_d = run(True)
    sim_e, delays_e, state_e = run(False)
    assert delays_d == delays_e
    assert state_d == state_e
    assert len(delays_d) == 20
    assert sim_d.events_processed < sim_e.events_processed


def test_truncated_experiments_surfaced_and_warned():
    """A too-short drain settle window must be reported, not silently
    folded into the Table 1 aggregates.  The horizon always covers the
    last experiment's full emission window plus one experiment period,
    so a deliberately negative ``drain`` is the deterministic way to
    leave the final flows' packets in flight at the cutoff."""
    config = MultiHopConfig(
        hops=2,
        utilization=0.9,
        experiments=3,
        warmup=300.0,
        experiment_period=150.0,
        drain=-229.9,
        seed=3,
    )
    with pytest.warns(RuntimeWarning, match="truncated"):
        result = run_multihop(config)
    assert result.truncated_experiments >= 1
    assert (
        len(result.comparisons)
        == config.experiments - result.truncated_experiments
    )


#: The benchmark's smoke cell; its flows finish well inside a 600 ms
#: drain.
STOP_CELL = dict(
    hops=3,
    utilization=0.8,
    experiments=2,
    warmup=500.0,
    experiment_period=300.0,
    seed=7,
)


def test_multihop_smoke_cell_drained_vs_evented():
    """End-to-end: the benchmark's own smoke cell, drained vs evented,
    compared field-for-field (delay percentiles are float arrays --
    equality must be exact)."""
    import dataclasses

    import numpy as np

    base = dict(STOP_CELL, drain=600.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        drained = run_multihop(MultiHopConfig(**base))
        evented = run_multihop(MultiHopConfig(**base, drain_kernel=False))
        scalar = run_multihop(MultiHopConfig(**base), compiled_arrivals=False)
    assert drained.hop_departures == evented.hop_departures
    assert drained.hop_departures == scalar.hop_departures
    assert drained.truncated_experiments == evented.truncated_experiments
    for lhs, rhs in ((drained, evented), (drained, scalar)):
        assert len(lhs.comparisons) == len(rhs.comparisons) > 0
        for c1, c2 in zip(lhs.comparisons, rhs.comparisons):
            for field in dataclasses.fields(c1):
                v1 = getattr(c1, field.name)
                v2 = getattr(c2, field.name)
                if isinstance(v1, np.ndarray):
                    assert v1.shape == v2.shape
                    assert (v1 == v2).all()
                else:
                    assert v1 == v2


#: Drained, evented, scalar-source and checked runs of one config:
#: (config fields, ``run_multihop`` keywords).
RUN_MODES = {
    "drained": ({}, {}),
    "evented": ({"drain_kernel": False}, {}),
    "scalar": ({}, {"compiled_arrivals": False}),
    "checked": ({}, {"check_invariants": True}),
}


def horizon_of(config: MultiHopConfig) -> float:
    return (
        config.warmup
        + config.experiments * config.experiment_period
        + config.flow_packets * config.flow_period
        + config.drain
    )


@pytest.fixture
def run_clock(monkeypatch):
    """Wraps ``FlowRecorder.receive`` and both run loops from outside:
    ``last`` is the latest departure recorded at the terminal sink,
    ``ends`` the clock after each run call."""
    clock = {"last": 0.0, "ends": []}
    receive = FlowRecorder.receive

    def recording(self, packet):
        if packet.flow_id is not None:
            clock["last"] = max(clock["last"], packet.departed_at)
        receive(self, packet)

    monkeypatch.setattr(FlowRecorder, "receive", recording)
    for name in ("run", "run_checked"):
        loop = getattr(Simulator, name)

        def timed(self, *args, _loop=loop, **kwargs):
            _loop(self, *args, **kwargs)
            clock["ends"].append(self.now)

        monkeypatch.setattr(Simulator, name, timed)
    return clock


@pytest.mark.parametrize("mode", sorted(RUN_MODES))
def test_longer_drain_changes_nothing_once_flows_finish(mode):
    """The run ends when the last flow has recorded its F packets, not
    at the horizon: a drain ten times longer than the flows need leaves
    the comparisons and every hop's departure count unchanged."""
    config_fields, run_kwargs = RUN_MODES[mode]
    short, long = (
        run_multihop(
            MultiHopConfig(**STOP_CELL, **config_fields, drain=drain),
            **run_kwargs,
        )
        for drain in (600.0, 6000.0)
    )
    assert short.truncated_experiments == long.truncated_experiments == 0
    assert short.hop_departures == long.hop_departures
    assert len(short.comparisons) == len(long.comparisons) == 2
    for c1, c2 in zip(short.comparisons, long.comparisons):
        assert (c1.percentile_matrix == c2.percentile_matrix).all()
        assert c1.inconsistencies == c2.inconsistencies
        assert c1.rd == c2.rd


@pytest.mark.parametrize("mode", sorted(RUN_MODES))
def test_clock_stops_one_flow_period_after_last_record(run_clock, mode):
    config_fields, run_kwargs = RUN_MODES[mode]
    config = MultiHopConfig(**STOP_CELL, **config_fields, drain=600.0)
    result = run_multihop(config, **run_kwargs)
    end = run_clock["ends"][-1]
    assert not result.truncated_experiments
    assert run_clock["last"] <= end <= run_clock["last"] + config.flow_period
    assert end < horizon_of(config)


def test_checked_run_reports_the_departures_it_stopped_at():
    """A checked run stops at the same poll as an unchecked one, and
    every hop report counts the departures ``hop_departures`` reports."""
    config = MultiHopConfig(**STOP_CELL, drain=600.0)
    checked = run_multihop(config, check_invariants=True)
    assert [r.departures for r in checked.invariants] == checked.hop_departures
    assert checked.hop_departures == run_multihop(config).hop_departures
