"""Drain-vs-evented equivalence: the busy-period drain kernel must be
bit-identical to the classic one-event-per-departure path.

Every registered scheduler is replayed over the same trace with the
drain kernel on and off; departure sequences (ids, classes, timestamps,
per-hop delays) and monitor series must match *exactly* -- no
tolerances.  Boundary cases pin the tie-breaking rules: arrivals landing
exactly on a departure timestamp, duplicate arrival instants, foreign
calendar events (a ``BacklogSampler``) forcing mid-busy-period parks,
and bounded ``run(until=...)`` horizons splitting a busy period.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.traffic.compile as compiled_arrivals
from repro.dropping import PLRDropper, TailDropPolicy
from repro.invariants import InvariantChecker
from repro.schedulers import available_schedulers, make_scheduler
from repro.sim import (
    BacklogSampler,
    DelayMonitor,
    IntervalDelayMonitor,
    Link,
    PacketSink,
    PacketTap,
    Simulator,
    ThroughputMonitor,
)
from repro.sim.packet import Packet
from repro.sim.rng import RandomStreams
from repro.traffic import (
    PAPER_DEFAULT_LOADS,
    ArrivalCursor,
    CompiledMixedSource,
    FixedPacketSize,
    PacketIdAllocator,
    ParetoInterarrivals,
    PoissonInterarrivals,
    TrafficSource,
    paper_trimodal_sizes,
)
from repro.traffic.trace import ArrivalTrace, TraceSource
from repro.units import PAPER_LINK_CAPACITY

from .conftest import count_packets, scalar_entries
from .differential import (
    MIX,
    HORIZON,
    _capture,
    _cross_traffic,
    build_single,
    differential_cell,
    run_cell,
)

SDPS = (1.0, 2.0, 4.0, 8.0)


def random_trace(
    n: int = 600, seed: int = 11, gap: float = 1.05
) -> ArrivalTrace:
    rng = np.random.default_rng(seed)
    return ArrivalTrace(
        times=np.cumsum(rng.exponential(gap, size=n)),
        class_ids=rng.integers(0, 4, size=n),
        sizes=rng.choice([0.5, 1.0, 2.0], size=n),
    )


def boundary_trace() -> ArrivalTrace:
    """Integer arrival times with unit sizes at capacity 1.0: every
    departure lands exactly on later arrival timestamps, including
    duplicate arrival instants, so tie-breaking is fully exercised."""
    times = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0, 8.0, 9.0, 9.0, 10.0, 15.0]
    classes = [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]
    return ArrivalTrace(
        times=np.asarray(times),
        class_ids=np.asarray(classes),
        sizes=np.ones(len(times)),
    )


def packet_fingerprint(sink: PacketSink) -> list[tuple]:
    return [
        (
            p.packet_id,
            p.class_id,
            p.size,
            p.arrived_at,
            p.service_start,
            p.departed_at,
            tuple(p.hop_delays),
        )
        for p in sink.packets
    ]


def replay(
    trace: ArrivalTrace,
    scheduler_name: str,
    drain: bool,
    keep: bool = True,
    monitor: bool = False,
    sampler_period: float | None = None,
    until: float | None = None,
):
    sim = Simulator()
    scheduler = make_scheduler(scheduler_name, SDPS)
    link = Link(
        sim,
        scheduler,
        capacity=1.0,
        target=PacketSink(keep_packets=keep),
        drain=drain,
    )
    delay_monitor = None
    if monitor:
        delay_monitor = DelayMonitor(4, keep_samples=True)
        link.add_monitor(delay_monitor)
    sampler = None
    if sampler_period is not None:
        sampler = BacklogSampler(
            period=sampler_period, horizon=float(trace.times[-1])
        )
        sampler.attach(sim, link)
    TraceSource(sim, link, trace).start()
    if until is None:
        sim.run()
    else:
        sim.run(until=until)
        sim.run()  # finish the remainder: drains must resume cleanly
    return sim, link, delay_monitor, sampler


def link_state(sim: Simulator, link: Link) -> tuple:
    queues = link.scheduler.queues
    return (
        sim.now,
        link.arrivals,
        link.departures,
        link.bytes_sent,
        link.busy_time,
        link.busy,
        link.target.received,
        queues.total_packets,
        tuple(queues.head_arrivals),
        tuple(queues.bytes_backlog),
    )


@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_departures_bit_identical_all_schedulers(name):
    trace = random_trace()
    sim_d, link_d, _, _ = replay(trace, name, drain=True)
    sim_e, link_e, _, _ = replay(trace, name, drain=False)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_boundary_arrival_at_departure_timestamp(name):
    trace = boundary_trace()
    sim_d, link_d, _, _ = replay(trace, name, drain=True)
    sim_e, link_e, _, _ = replay(trace, name, drain=False)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


@pytest.mark.parametrize("variant", ["monitored", "lossy"])
@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_tie_at_idle_member_reopened_by_drain(name, variant):
    """The link idles at 1.0 inside a drain and class 3 reopens it at
    2.0; class 3's next arrival lands exactly on that packet's
    completion at 3.0 while a class-0 packet waits.  The evented run
    schedules the completion (inside ``receive``) before the source
    schedules its next arrival, so the completion wins the tie and
    selects before the class-3 packet joins.  A drain pulling the
    arrival inline must reserve the two sequence numbers in that order
    (both the monitored and the lossy link drain in the single-link
    loop)."""

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler(name, SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
            buffer_packets=8 if variant == "lossy" else None,
        )
        if variant == "monitored":
            link.add_monitor(DelayMonitor(4))
        for class_id, times in ((3, [0.0, 2.0, 3.0]), (0, [2.5])):
            trace = ArrivalTrace(
                times=np.asarray(times),
                class_ids=np.full(len(times), class_id),
                sizes=np.ones(len(times)),
            )
            source = TraceSource(
                sim, link, trace, first_packet_id=100 * class_id
            )
            source.start()
        sim.run()
        return sim, link

    sim_d, link_d = run(True)
    sim_e, link_e = run(False)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_columnar_vs_evented_bit_identical_all_schedulers(name):
    """The columnar drain (lazy Packet materialization) against the
    classic one-event-per-departure path."""
    trace = random_trace(seed=29)
    sim_c, link_c, _, _ = replay(trace, name, drain=True)
    sim_e, link_e, _, _ = replay(trace, name, drain=False)
    assert packet_fingerprint(link_c.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_c, link_c) == link_state(sim_e, link_e)


@pytest.mark.parametrize("name", ["wtp", "bpr", "fcfs"])
def test_monitor_series_identical(name):
    trace = random_trace(seed=23)
    _, link_d, mon_d, _ = replay(trace, name, drain=True, monitor=True)
    _, link_e, mon_e, _ = replay(trace, name, drain=False, monitor=True)
    for series_d, series_e in zip(mon_d.samples, mon_e.samples):
        assert np.array_equal(series_d, series_e)
    assert [s.count for s in mon_d.stats] == [s.count for s in mon_e.stats]
    assert [s.mean for s in mon_d.stats] == [s.mean for s in mon_e.stats]


@pytest.mark.parametrize("name", ["wtp", "strict"])
def test_foreign_events_force_identical_parks(name):
    """A BacklogSampler's periodic ticks interleave with the drain; the
    sampled backlog trajectory must match the evented run exactly."""
    trace = random_trace(seed=5)
    _, link_d, _, samp_d = replay(trace, name, drain=True, sampler_period=2.5)
    _, link_e, _, samp_e = replay(trace, name, drain=False, sampler_period=2.5)
    assert samp_d.times == samp_e.times
    assert samp_d.samples == samp_e.samples
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )


def test_bounded_run_splits_busy_period_identically():
    trace = random_trace(seed=7)
    mid = float(trace.times[len(trace) // 2])
    sim_d, link_d, _, _ = replay(trace, "wtp", drain=True, until=mid)
    sim_e, link_e, _, _ = replay(trace, "wtp", drain=False, until=mid)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


def test_multi_source_fused_identical():
    """Several fused TrafficSources (the multi-feeder drain loop, each
    pulled as scalars via ``pull_col``) match the evented run packet
    for packet."""

    def run(drain: bool):
        sim = Simulator()
        streams = RandomStreams(3)
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
        )
        ids = PacketIdAllocator()
        for class_id in range(4):
            TrafficSource(
                sim,
                link,
                class_id,
                PoissonInterarrivals(4.0 / 0.9, streams.generator()),
                FixedPacketSize(1.0),
                ids=ids,
            ).start()
        sim.run(until=800.0)
        return sim, link

    sim_d, link_d = run(True)
    sim_e, link_e = run(False)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


def test_drain_actually_engages():
    """Sanity: the drain collapses per-packet calendar events, so the
    equivalence above is not vacuous."""
    trace = random_trace()
    sim_d, link_d, _, _ = replay(trace, "wtp", drain=True, keep=False)
    sim_e, link_e, _, _ = replay(trace, "wtp", drain=False, keep=False)
    assert link_d.departures == link_e.departures == len(trace)
    assert sim_d.events_processed < sim_e.events_processed / 10


def test_cursor_fed_single_link_absorbs_cursor_inline():
    """A drained single link fed only by an ArrivalCursor (the
    differential harness's single-hop shape) fuses as a walked chain of
    one member that absorbs the cursor's calendar event: the whole run
    costs a couple of real dispatches instead of one per arrival and
    completion, with the evented run's exact outputs."""

    def run(drain: bool):
        sim = Simulator()
        links, _, recorder = build_single(
            sim, "wtp", drain, RandomStreams(9), PacketIdAllocator()
        )
        sim.run(until=HORIZON)
        link = links[0]
        demux = link.target
        return sim, link, (
            _capture(sim, links, recorder, 0),
            demux.cross_packets,
            demux.cross_sink.received,
        )

    sim_d, link_d, outputs_d = run(True)
    sim_e, _, outputs_e = run(False)
    assert outputs_d == outputs_e
    assert link_d._chain_fuse is True
    assert len(link_d._chain_cache.members) == 1
    assert outputs_d[1] > 100
    assert sim_e.events_processed > 400
    assert sim_d.events_processed <= 10


def test_invariant_checker_suspends_drain():
    """Attaching the checker falls back to the evented path and still
    produces identical results."""
    trace = random_trace(seed=31)
    sim = Simulator()
    link = Link(
        sim,
        make_scheduler("wtp", SDPS),
        capacity=1.0,
        target=PacketSink(keep_packets=True),
        drain=True,
    )
    checker = InvariantChecker(link).attach()
    TraceSource(sim, link, trace).start()
    assert link._feeders == []  # suspended before any event fired
    sim.run()
    report = checker.finalize()
    assert report.departures == len(trace)
    assert report.busy_periods > 0
    _, link_e, _, _ = replay(trace, "wtp", drain=False)
    assert packet_fingerprint(link.target) == packet_fingerprint(
        link_e.target
    )


def test_monitor_attached_mid_drain_bit_identical():
    """A DelayMonitor attached by a calendar event landing inside a
    busy period: the single-link loop must park on the foreign key, and
    every later drain entry (``monitors`` now non-empty) keeps the
    queued column entries columnar and hands the monitor scalars.
    Post-attach monitor series and the full departure fingerprint must
    match the evented run exactly."""
    trace = random_trace(seed=41)
    attach_at = float(trace.times[len(trace) // 2]) + 0.25

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
        )
        monitor = DelayMonitor(4, keep_samples=True)
        seen = {}

        def attach():
            seen["busy"] = link.busy
            seen["cols"] = scalar_entries(link.scheduler.queues)
            link.add_monitor(monitor)

        sim.schedule(attach_at, attach)
        TraceSource(sim, link, trace).start()
        sim.run()
        return link, monitor, seen

    link_c, mon_c, seen_c = run(True)
    link_e, mon_e, seen_e = run(False)
    # The boundary was genuinely exercised: the link was mid-busy-period
    # with object-free columnar backlog when the monitor appeared.
    assert seen_c["busy"] and seen_e["busy"]
    assert seen_c["cols"] > 0
    assert seen_e["cols"] == 0
    assert packet_fingerprint(link_c.target) == packet_fingerprint(
        link_e.target
    )
    for series_c, series_e in zip(mon_c.samples, mon_e.samples):
        assert np.array_equal(series_c, series_e)
    assert [s.count for s in mon_c.stats] == [s.count for s in mon_e.stats]
    assert [s.mean for s in mon_c.stats] == [s.mean for s in mon_e.stats]


@pytest.mark.parametrize("name", ["wtp", "bpr", "drr", "scfq"])
def test_monitored_link_builds_no_packet_per_arrival(name, monkeypatch):
    """Observers take scalars, so a monitored drained link keeps its
    packets columnar: a 20,000-arrival trace through all four
    departure monitors builds a handful of Packets, not one per
    arrival, and every monitor series and link counter matches the
    evented run."""
    rng = np.random.default_rng(43)
    n = 20_000
    trace = ArrivalTrace(
        times=np.cumsum(rng.exponential(1.3, size=n)),
        class_ids=rng.integers(0, 4, size=n),
        sizes=rng.choice([0.5, 1.0, 2.0], size=n),
    )

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler(name, SDPS),
            capacity=1.0,
            target=PacketSink(),
            drain=drain,
        )
        delay = DelayMonitor(4, keep_samples=True)
        interval = IntervalDelayMonitor(4, tau=100.0)
        throughput = ThroughputMonitor(4, tau=100.0)
        tap = PacketTap(4, start=1_000.0, end=5_000.0)
        for monitor in (delay, interval, throughput, tap):
            link.add_monitor(monitor)
        TraceSource(sim, link, trace).start()
        sim.run()
        interval.finalize()
        throughput.finalize()
        series = (
            [s.tolist() for s in delay.samples],
            [(s.count, s.total, s.min, s.max) for s in delay.stats],
            interval.intervals,
            throughput.intervals,
            tap.samples,
        )
        return link_state(sim, link), series

    evented = run(False)
    built = count_packets(monkeypatch)
    drained = run(True)
    assert built[0] <= 10, built[0]
    assert drained == evented
    assert sum(len(s) for s in drained[1][0]) == n


def _tail_drop_trace(sim, scheduler, drain):
    """A trace replayed into a tail-drop buffer of six packets."""
    link = Link(
        sim,
        make_scheduler(scheduler, SDPS),
        capacity=1.0,
        target=PacketSink(keep_packets=True),
        drain=drain,
        buffer_packets=6,
        drop_policy=TailDropPolicy(),
    )
    TraceSource(sim, link, random_trace(seed=13)).start()
    return link, None, None


def _lossy_sweep_point(sim, scheduler, drain, keep=True):
    """The ``experiments/lossy.py`` shape past saturation: a PLR
    push-out dropper on a bounded buffer, a delay monitor, and one
    Pareto source per class with the paper's size mix."""
    streams = RandomStreams(29)
    dropper = PLRDropper((8.0, 4.0, 2.0, 1.0))
    link = Link(
        sim,
        make_scheduler(scheduler, SDPS),
        capacity=PAPER_LINK_CAPACITY,
        target=PacketSink(keep_packets=keep),
        drain=drain,
        buffer_packets=20,
        drop_policy=dropper,
    )
    monitor = DelayMonitor(4, warmup=500.0, keep_samples=True)
    link.add_monitor(monitor)
    ids = PacketIdAllocator()
    sizes_mean = paper_trimodal_sizes().mean
    gaps = PAPER_DEFAULT_LOADS.mean_gaps(1.2, PAPER_LINK_CAPACITY, sizes_mean)
    for class_id, gap in enumerate(gaps):
        TrafficSource(
            sim,
            link,
            class_id,
            ParetoInterarrivals(gap, rng=streams.generator()),
            paper_trimodal_sizes(streams.generator()),
            ids=ids,
        ).start()
    return link, monitor, 2e4


@pytest.mark.parametrize(
    "build, scheduler",
    [(_tail_drop_trace, "wtp")]
    + [(_lossy_sweep_point, name) for name in sorted(available_schedulers())],
    ids=["tail-drop-trace-wtp"]
    + [f"lossy-plr-{name}" for name in sorted(available_schedulers())],
)
def test_drop_policy_applies_in_single_link_loop(
    build, scheduler, monkeypatch
):
    """A lossy link drains in the single-link loop, never the chain
    kernel, under every scheduler: its drop policy decides on the
    arrival's class id where ``receive`` does, push-out victims
    included, and the drain matches the evented run drop for drop --
    drops per class, dropper counters, monitor series and link
    state."""

    def run(drain: bool):
        sim = Simulator()
        link, monitor, until = build(sim, scheduler, drain)
        sim.run(until=until)
        return sim, link, monitor

    sim_e, link_e, mon_e = run(False)
    chain = _count_calls(monkeypatch, "_drain_chain")
    single = _count_calls(monkeypatch, "_drain_single")
    sim_d, link_d, mon_d = run(True)
    assert chain[0] == 0
    assert single[0] > 0
    assert link_d.drops == link_e.drops > 0
    assert link_d.drops_per_class == link_e.drops_per_class
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)
    if mon_d is not None:
        policy_d, policy_e = link_d.drop_policy, link_e.drop_policy
        assert policy_d.drops == policy_e.drops
        assert policy_d.arrivals == policy_e.arrivals
        assert [s.count for s in mon_d.stats] == [s.count for s in mon_e.stats]
        assert mon_d.mean_delays() == mon_e.mean_delays()
        for series_d, series_e in zip(mon_d.samples, mon_e.samples):
            assert np.array_equal(series_d, series_e)


@pytest.mark.parametrize("name", ["wtp", "bpr"])
def test_lossy_link_builds_no_packet_per_arrival(name, monkeypatch):
    """Drop policies take class ids, so a drained lossy link queues its
    arrivals as columns: behind a bare sink, the PLR push-out cell
    builds a Packet only for each push-out victim (``pop_tail`` returns
    one) and at a handful of parks, not one per arrival."""
    built = count_packets(monkeypatch)
    sim = Simulator()
    link, _, until = _lossy_sweep_point(sim, name, True, keep=False)
    sim.run(until=until)
    assert link.drops > 0
    assert link.arrivals > 5 * link.drops
    assert built[0] <= link.drops + 10, (built[0], link.drops)


@pytest.mark.parametrize("scheduler", ["wtp", "drr", "bpr"])
def test_cursor_fed_chain_crosses_merged_windows(monkeypatch, scheduler):
    """The differential 3-hop chain's cursor never fills one default
    window; shrunk to five arrivals, it refills dozens of times, inside
    chain-drain batches and evented firings alike.  Drained must still
    equal evented, and both must equal the default-window run."""
    default, _ = run_cell(scheduler, "chain", "evented")
    monkeypatch.setattr(compiled_arrivals, "WINDOW_ARRIVALS", 5)
    refills = [0]
    original = ArrivalCursor._refill

    def refill(self):
        refills[0] += 1
        return original(self)

    monkeypatch.setattr(ArrivalCursor, "_refill", refill)
    assert differential_cell(scheduler, "chain") == default
    assert refills[0] > 100


def test_cursor_fed_lossy_link_completes_evented(monkeypatch):
    """Cursor batches run only in the chain kernel, and a lossy link
    is never a chain member, so a cursor-fed lossy link completes
    evented -- nothing to detach, as the cursor's event is a real
    calendar event -- and matches the evented run drop for drop."""

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
            buffer_packets=4,
            drop_policy=PLRDropper((8.0, 4.0, 2.0, 1.0)),
        )
        streams = RandomStreams(9)
        ids = PacketIdAllocator()
        cursor = ArrivalCursor(sim)
        for _ in range(3):
            _cross_traffic(cursor, link, streams, ids)
        cursor.start()
        sim.run(until=HORIZON)
        return sim, link

    sim_e, link_e = run(False)
    chain = _count_calls(monkeypatch, "_drain_chain")
    single = _count_calls(monkeypatch, "_drain_single")
    evented = _count_calls(monkeypatch, "_complete_service_evented")
    sim_d, link_d = run(True)
    assert chain[0] == single[0] == 0
    assert evented[0] == link_d.departures > 0
    assert link_d.drops == link_e.drops > 0
    assert link_d.drops_per_class == link_e.drops_per_class
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


def test_exhausted_cursor_leaves_the_evented_path(monkeypatch):
    """A cursor-fed lossy link completes evented only while its cursor
    can still inject: once the cursor's streams are exhausted the link
    drops it and drains in the single-link loop, still matching the
    evented run drop for drop."""
    stop = 100.0

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
            buffer_packets=4,
            drop_policy=PLRDropper((8.0, 4.0, 2.0, 1.0)),
        )
        monitor = DelayMonitor(4, keep_samples=True)
        link.add_monitor(monitor)
        streams = RandomStreams(9)
        ids = PacketIdAllocator()
        cursor = ArrivalCursor(sim)
        cursor.add(
            CompiledMixedSource(
                link,
                ParetoInterarrivals(1.2, 1.9, streams.generator()),
                MIX,
                1.0,
                streams.generator(),
                ids=ids,
                stop_time=stop,
            )
        )
        cursor.start()
        for class_id in (0, 2):
            TrafficSource(
                sim,
                link,
                class_id,
                PoissonInterarrivals(2.2, streams.generator()),
                FixedPacketSize(1.0),
                ids=ids,
            ).start()
        sim.run(until=2000.0)
        return sim, link, monitor, cursor

    sim_e, link_e, mon_e, _ = run(False)
    entries: list[float] = []
    original = Link._drain_single

    def recording(self, packet):
        entries.append(self.sim.now)
        return original(self, packet)

    monkeypatch.setattr(Link, "_drain_single", recording)
    sim_d, link_d, mon_d, cursor = run(True)
    assert cursor.pending_sources == 0 and not link_d._cursors
    assert entries and max(entries) > stop
    assert link_d.drops == link_e.drops > 0
    assert link_d.drops_per_class == link_e.drops_per_class
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)
    assert [s.count for s in mon_d.stats] == [s.count for s in mon_e.stats]
    assert mon_d.mean_delays() == mon_e.mean_delays()
    for series_d, series_e in zip(mon_d.samples, mon_e.samples):
        assert np.array_equal(series_d, series_e)


def test_checker_attached_mid_run_over_scalar_backlog():
    """An InvariantChecker attached mid-run (between events, scalar
    column backlog queued; each entry is materialized when a check
    peeks at it or it is popped) verifies the rest of the run
    bit-identically to an evented run with the checker attached at the
    same instant."""
    trace = random_trace(seed=37)
    attach_at = float(trace.times[len(trace) // 2]) + 0.25

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
        )
        checker = InvariantChecker(link)
        seen = {}

        def attach():
            seen["cols"] = scalar_entries(link.scheduler.queues)
            checker.attach()

        sim.schedule(attach_at, attach)
        TraceSource(sim, link, trace).start()
        sim.run()
        return link, checker, seen

    link_c, checker_c, seen_c = run(True)
    link_e, checker_e, seen_e = run(False)
    # The attach really crossed the boundary: object-free backlog was
    # queued when the hooks appeared.
    assert seen_c["cols"] > 0
    assert packet_fingerprint(link_c.target) == packet_fingerprint(
        link_e.target
    )
    report_c = checker_c.finalize()
    report_e = checker_e.finalize()
    assert report_c.departures == report_e.departures > 0
    assert report_c.busy_periods == report_e.busy_periods


class _Recorder:
    """A plain receiver: neither a ``PacketSink`` nor a ``Link``."""

    def __init__(self) -> None:
        self.packets: list[Packet] = []

    @property
    def received(self) -> int:
        return len(self.packets)

    def receive(self, packet: Packet) -> None:
        self.packets.append(packet)


def _reshaped_replay(trace, drain: bool, reshape, capacity: float = 1.0):
    """A wtp link built with a ``PacketSink`` target and a
    ``TraceSource``, then reshaped by ``reshape(link)`` before the
    run."""
    sim = Simulator()
    link = Link(
        sim,
        make_scheduler("wtp", SDPS),
        capacity=capacity,
        target=PacketSink(keep_packets=True),
        drain=drain,
    )
    TraceSource(sim, link, trace).start()
    reshape(link)
    sim.run()
    return sim, link


def test_target_rebound_after_construction():
    """Routing reads the link's shape at each completion, not at
    construction: a link built with a sink and rebound to a plain
    receiver hands that receiver every departure as a stamped Packet,
    exactly as the evented run does."""
    trace = random_trace(seed=43)

    def rebind(link):
        link.target = _Recorder()

    sim_d, link_d = _reshaped_replay(trace, True, rebind)
    sim_e, link_e = _reshaped_replay(trace, False, rebind)
    assert link_d.target.received == len(trace)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


@pytest.mark.parametrize("name", ["bpr", "drr", "pad", "scfq"])
def test_scheduler_replaced_after_construction(name):
    """A wtp link whose scheduler is replaced by one with hooks before
    the run drains with the new scheduler's hooks: on a 20,000-arrival
    trace every departure matches the evented run.  Sizes are in
    bytes, on the scale of DRR's quanta, so its deficit hook matters."""
    base = random_trace(n=20_000, seed=43, gap=1.3)
    trace = ArrivalTrace(
        times=base.times, class_ids=base.class_ids, sizes=base.sizes * 500.0
    )

    def replace(link):
        scheduler = make_scheduler(name, SDPS)
        bind = getattr(scheduler, "bind_capacity", None)
        if bind is not None:
            bind(link.capacity)
        link.scheduler = scheduler

    sim_d, link_d = _reshaped_replay(trace, True, replace, 500.0)
    sim_e, link_e = _reshaped_replay(trace, False, replace, 500.0)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


def test_packets_received_mid_run_are_stamped():
    """Packets that enter a drained link through ``receive`` (here
    three, injected by calendar events into a trace-fed link with a
    non-keeping sink) leave with the evented run's ``service_start``,
    ``departed_at`` and ``hop_delays``, though the sink keeps none."""
    trace = random_trace(seed=47, gap=1.3)
    times = [float(trace.times[k]) + 0.25 for k in (50, 300, 550)]

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(),
            drain=drain,
        )
        injected = [
            Packet(10_000 + k, k % 4, 1.0, t) for k, t in enumerate(times)
        ]
        for packet, t in zip(injected, times):
            sim.schedule(t, link.receive, packet)
        TraceSource(sim, link, trace).start()
        sim.run()
        stamps = [
            (p.service_start, p.departed_at, tuple(p.hop_delays))
            for p in injected
        ]
        return link_state(sim, link), stamps

    drained = run(True)
    evented = run(False)
    assert all(departed >= 0.0 for _, departed, _ in drained[1])
    assert drained == evented


class _StateObserver:
    """Records the link state an observer can read at each departure."""

    def __init__(self, sim: Simulator, link: Link) -> None:
        self.sim = sim
        self.link = link
        self.rows: list[tuple] = []

    def on_departure(self, packet_id, class_id, size, flow_id, delay, now):
        link = self.link
        self.rows.append(
            (
                packet_id,
                link.departures,
                link.arrivals,
                link.bytes_sent,
                link.backlog_packets,
                link.busy,
                link.busy_time,
                link.in_service is None,
                link.target.received,
                self.sim.now,
                now,
            )
        )


@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_observers_see_evented_link_state(name):
    """At every ``on_departure`` an observer reads the link's counters,
    backlog, busy state, in-service slot, its sink's count and the
    clock exactly as the evented run publishes them -- also at the
    first departure after each park a ``BacklogSampler`` forces."""
    trace = random_trace(n=5_000, seed=53, gap=1.3)

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler(name, SDPS),
            capacity=1.0,
            target=PacketSink(),
            drain=drain,
        )
        observer = _StateObserver(sim, link)
        link.add_monitor(observer)
        BacklogSampler(
            period=97.0, horizon=float(trace.times[-1])
        ).attach(sim, link)
        TraceSource(sim, link, trace).start()
        sim.run()
        return observer.rows, link_state(sim, link)

    drained = run(True)
    evented = run(False)
    assert len(drained[0]) == len(trace)
    assert drained == evented


def _count_calls(monkeypatch, method: str) -> list[int]:
    """Count calls of ``Link.<method>`` from now on; the count is the
    returned list's only element."""
    calls = [0]
    original = getattr(Link, method)

    def counting(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(Link, method, counting)
    return calls


@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_paper_link_shape_takes_single_link_loop(name, monkeypatch):
    """The paper's single-link study shape -- a trace-fed link under
    delay, interval and per-packet monitors -- drains in the
    single-link loop, never the chain kernel, under every scheduler,
    with the evented run's monitor series and link state."""
    trace = random_trace(n=3_000, seed=59, gap=1.3)

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler(name, SDPS),
            capacity=1.0,
            target=PacketSink(),
            drain=drain,
        )
        delay = DelayMonitor(4, keep_samples=True)
        interval = IntervalDelayMonitor(4, tau=100.0)
        tap = PacketTap(4, start=500.0, end=1_500.0)
        for monitor in (delay, interval, tap):
            link.add_monitor(monitor)
        TraceSource(sim, link, trace).start()
        sim.run()
        interval.finalize()
        series = (
            [s.tolist() for s in delay.samples],
            interval.intervals,
            tap.samples,
        )
        return link_state(sim, link), series

    evented = run(False)
    chain = _count_calls(monkeypatch, "_drain_chain")
    single = _count_calls(monkeypatch, "_drain_single")
    drained = run(True)
    assert chain[0] == 0
    assert single[0] > 0
    assert drained == evented


def test_utilization_horizon_clamps_in_progress_service():
    """A service still running at the horizon cutoff contributes only
    its pre-horizon portion (regression test for the open-busy-period
    overcount)."""
    sim = Simulator()
    link = Link(
        sim,
        make_scheduler("fcfs", SDPS),
        capacity=1.0,
        target=PacketSink(),
        drain=True,
    )
    trace = ArrivalTrace(
        times=np.asarray([1.0]),
        class_ids=np.asarray([0]),
        sizes=np.asarray([10.0]),
    )
    TraceSource(sim, link, trace).start()
    sim.run(until=6.0)
    assert link.busy
    # Busy on [1, 6] so far; horizon 4 must clamp the open segment.
    assert link.utilization(horizon=4.0) == pytest.approx(3.0 / 4.0)
    assert link.utilization(horizon=6.0) == pytest.approx(5.0 / 6.0)
    assert link.utilization() == pytest.approx(5.0 / 6.0)
    sim.run()
    # Service ended at 11; a horizon past the end sees the full 10.
    assert link.utilization(horizon=20.0) == pytest.approx(10.0 / 20.0)
