"""Fan-in fusion: merge ordering and stale-cache invalidation.

The chain walk's upstream fixpoint (``Link._build_chain``) lets a
drain entry absorb *sibling* upstream links feeding the same server,
so a whole fan-in merge runs in one fused loop.  Two hard properties
are pinned here:

* **Merge ordering** (hypothesis): when two upstream links complete at
  the exact same timestamp, the merge server must receive their
  packets in ``(time, seq)`` calendar order -- bit-identically fused
  vs evented.  The traces force collisions by giving both upstreams
  identical integer arrival times and sizes on equal-capacity links,
  so every busy period produces simultaneous completions.

* **Stale-fusion invalidation** (regression): a cached chain used to
  revalidate only through its *members'* guards, so upstream-side
  topology edits after the first drain -- a new sibling link built
  mid-run, a target rebound, a route added -- could leave a stale
  walk (and a stale ``_chain_fuse`` decision) in place forever.  The
  simulator-wide ``_topo_version`` stamp closes this; these tests
  mutate the topology mid-run and require both a rebuild and exact
  fused-vs-evented equivalence across the edit.  A member made lossy
  mid-run is caught by the member guard itself, so its arrivals never
  bypass the drop policy.

* **Hooked-scheduler subclasses stay columnar**: a subclass of a
  scheduler with ``on_select``/``on_enqueue`` hooks runs the same
  column-native code as its base class, so a whole fan-in merge
  builds no per-packet objects for either.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dropping import PLRDropper
from repro.network.flows import FlowRecorder, UserFlow
from repro.network.routed import RoutedNetwork
from repro.network.topology import FlowDemux
from repro.schedulers import BPRScheduler, SCFQScheduler, make_scheduler
from repro.sim import Link, PacketSink, Simulator
from repro.sim.rng import RandomStreams
from repro.traffic import (
    ArrivalCursor,
    CompiledMixedSource,
    PacketIdAllocator,
    ParetoInterarrivals,
)
from repro.traffic.trace import ArrivalTrace, TraceSource

from .conftest import count_packets

SDPS = (1.0, 2.0, 4.0, 8.0)
MIX = (0.4, 0.3, 0.2, 0.1)


class OrderSink:
    """Terminal recording exact hand-off order (the property under test)."""

    def __init__(self) -> None:
        self.seen: list[tuple] = []

    def receive(self, packet) -> None:
        self.seen.append(
            (packet.packet_id, packet.class_id, packet.departed_at)
        )


def _trace(times, cids, sizes) -> ArrivalTrace:
    return ArrivalTrace(
        np.asarray(times, dtype=np.float64),
        np.asarray(cids, dtype=np.int64),
        np.asarray(sizes, dtype=np.float64),
    )


def _run_merge(entries, scheduler: str, drain: bool):
    """Two equal-capacity upstreams replaying colliding traces into one
    merge server; returns (hand-off order, per-link counters)."""
    sim = Simulator()
    sink = OrderSink()
    merge = Link(
        sim,
        make_scheduler(scheduler, SDPS),
        capacity=1.0,
        target=FlowDemux(PacketSink(), cross_sink=sink),
        name="merge",
        drain=drain,
    )
    times, sizes = [], []
    t = 0.0
    for gap, _, _, size in entries:
        t += gap
        times.append(t)
        sizes.append(size)
    for index, cid_field in ((0, 1), (1, 2)):
        upstream = Link(
            sim,
            make_scheduler(scheduler, SDPS),
            capacity=1.0,
            target=merge,
            name=f"up{index}",
            drain=drain,
        )
        cids = [entry[cid_field] for entry in entries]
        TraceSource(
            sim, upstream, _trace(times, cids, sizes),
            first_packet_id=index * 10_000,
        ).start()
    sim.run()  # to full drain: every packet delivered
    counters = (merge.arrivals, merge.departures, merge.bytes_sent,
                merge.busy_time)
    return tuple(sink.seen), counters


#: (gap, class at upstream 0, class at upstream 1, size) per arrival --
#: integer gaps and sizes on unit-capacity links make upstream
#: completions land on integer instants, colliding across upstreams.
_ENTRIES = st.lists(
    st.tuples(
        st.integers(1, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from((1.0, 2.0)),
    ),
    min_size=1,
    max_size=24,
)


@pytest.mark.parametrize("scheduler", ("wtp", "drr"))
@given(entries=_ENTRIES)
@settings(max_examples=25, deadline=None)
def test_simultaneous_merge_handoff_order(scheduler: str, entries) -> None:
    fused_order, fused_counters = _run_merge(entries, scheduler, drain=True)
    event_order, event_counters = _run_merge(entries, scheduler, drain=False)
    assert fused_order == event_order
    assert fused_counters == event_counters
    assert len(fused_order) == 2 * len(entries)


def test_colliding_completions_really_collide() -> None:
    """The strategy above is only meaningful if simultaneous upstream
    completions actually occur; pin that on a deterministic example."""
    entries = [(1, 3, 0, 1.0), (1, 2, 1, 1.0), (1, 1, 2, 1.0)]
    order, counters = _run_merge(entries, "wtp", drain=True)
    assert len(order) == 6
    # Both upstreams complete at t=2,3,4: the merge receives pairs with
    # equal upstream departure instants, so its hand-off order must
    # interleave the two packet-id ranges (ties broken by the calendar
    # seq of the colliding completions, not by link identity).
    assert any(a[0] < 10_000 <= b[0] for a, b in zip(order, order[1:]))
    assert counters[0] == counters[1] == 6


# ----------------------------------------------------------------------
# Stale-fusion invalidation
# ----------------------------------------------------------------------
def _cross(sim, target, first_packet_id: int) -> None:
    """Fused-feeder cross traffic (class 0) spanning the whole run --
    an inline arrival source is what makes a chain *fuse* rather than
    park on every foreign calendar event."""
    times = [1.0 + 2.0 * k for k in range(60)]
    TraceSource(
        sim, target, _trace(times, [0] * 60, [0.5] * 60),
        first_packet_id=first_packet_id,
    ).start()


def _merge_with_flows(sim, drain: bool):
    recorder = FlowRecorder()
    merge = Link(
        sim,
        make_scheduler("wtp", SDPS),
        capacity=2.0,
        target=FlowDemux(recorder, PacketSink()),
        name="merge",
        drain=drain,
    )
    entry = Link(
        sim, make_scheduler("wtp", SDPS), capacity=1.0, target=merge,
        name="up0", drain=drain,
    )
    UserFlow(
        sim, entry, flow_id=0, class_id=3, num_packets=40,
        packet_size=1.0, period=1.5, first_packet_id=0,
    ).launch(0.5)
    _cross(sim, entry, first_packet_id=100_000)
    return entry, merge, recorder


def test_new_upstream_link_mid_run_rediscovered() -> None:
    """A sibling upstream built *after* the entry's chain was cached
    must be discovered: building a Link bumps ``_topo_version``, so the
    entry's next drain rebuilds its walk and absorbs the sibling."""

    def run(drain: bool):
        sim = Simulator()
        entry, merge, recorder = _merge_with_flows(sim, drain)
        state: dict = {}

        def add_sibling() -> None:
            state["cache_before"] = entry._chain_cache
            sibling = Link(
                sim, make_scheduler("wtp", SDPS), capacity=1.0,
                target=merge, name="up1", drain=drain,
            )
            UserFlow(
                sim, sibling, flow_id=1, class_id=1, num_packets=30,
                packet_size=1.0, period=1.5, first_packet_id=5_000,
            ).launch(sim.now + 0.25)

        sim.schedule(20.0, add_sibling)
        sim.run(until=150.0)
        delays = (
            tuple(recorder.flow_delays(0)),
            tuple(recorder.flow_delays(1)),
        )
        return sim, entry, state, delays

    sim_d, entry_d, state_d, delays_d = run(True)
    sim_e, _, _, delays_e = run(False)
    assert delays_d == delays_e
    assert len(delays_d[0]) == 40 and len(delays_d[1]) == 30
    # The entry had drained (and cached a two-member walk) before the
    # sibling existed, then rebuilt: the cache object was replaced and
    # the rebuilt walk fused all three members.
    assert state_d["cache_before"] is not None
    assert len(state_d["cache_before"].members) == 2
    rebuilt = entry_d._chain_cache
    assert rebuilt is not state_d["cache_before"]
    assert len(rebuilt.members) == 3
    assert entry_d._chain_fuse is True


def test_target_rebind_mid_run_invalidates_chain() -> None:
    """Rebinding ``link.target`` mid-run is an upstream-side edit the
    old guards never saw; the setter must invalidate and the next drain
    must deliver to the new target -- identically fused vs evented."""

    def run(drain: bool):
        sim = Simulator()
        first, second = FlowRecorder(), FlowRecorder()
        tail = Link(
            sim, make_scheduler("wtp", SDPS), capacity=2.0,
            target=FlowDemux(first, PacketSink()), name="tail", drain=drain,
        )
        entry = Link(
            sim, make_scheduler("wtp", SDPS), capacity=1.0, target=tail,
            name="entry", drain=drain,
        )
        UserFlow(
            sim, entry, flow_id=0, class_id=3, num_packets=60,
            packet_size=1.0, period=1.25, first_packet_id=0,
        ).launch(0.5)

        def rewire() -> None:
            tail.target = FlowDemux(second, PacketSink())

        sim.schedule(30.0, rewire)
        sim.run(until=200.0)
        return (
            tuple(first.flow_delays(0)),
            tuple(second.flow_delays(0)),
            (tail.arrivals, tail.departures, tail.bytes_sent,
             tail.busy_time),
        )

    fused = run(True)
    evented = run(False)
    assert fused == evented
    before, after, _ = fused
    assert len(before) > 0 and len(after) > 0
    assert len(before) + len(after) == 60


def test_route_added_mid_run_rediscovered() -> None:
    """Satellite regression: a route added mid-run both redirects new
    flows and forces cached chains (whose walks predate the route) to
    rebuild through the simulator-wide topology stamp."""

    def run(drain: bool):
        sim = Simulator()
        net = RoutedNetwork(sim, drain=drain)
        for node in "ABCD":
            net.add_node(node)
        for src, dst in (("A", "B"), ("B", "C"), ("B", "D")):
            net.add_link(src, dst, make_scheduler("wtp", SDPS), capacity=1.5)
        recorder_c, recorder_d = FlowRecorder(), FlowRecorder()
        net.add_route(0, ["A", "B", "C"], terminal=recorder_c)
        UserFlow(
            sim, net.ingress(0), flow_id=0, class_id=3, num_packets=50,
            packet_size=1.0, period=1.0, first_packet_id=0,
        ).launch(0.5)

        def add_route_and_flow() -> None:
            net.add_route(1, ["A", "B", "D"], terminal=recorder_d)
            UserFlow(
                sim, net.ingress(1), flow_id=1, class_id=1,
                num_packets=25, packet_size=1.0, period=1.0,
                first_packet_id=9_000,
            ).launch(sim.now + 0.125)

        sim.schedule(15.0, add_route_and_flow)
        sim.run(until=150.0)
        states = tuple(
            (link.arrivals, link.departures, link.bytes_sent,
             link.busy_time)
            for link in net.links.values()
        )
        return (
            tuple(recorder_c.flow_delays(0)),
            tuple(recorder_d.flow_delays(1)),
            states,
        )

    fused = run(True)
    evented = run(False)
    assert fused == evented
    assert len(fused[0]) == 50 and len(fused[1]) == 25


def test_member_made_lossy_mid_run_leaves_chain() -> None:
    """A chain member given a bounded buffer and a drop policy mid-run
    is no longer couplable: the upstream's cached walk fails its member
    guard and rebuilds without it, so every arrival there passes the
    drop policy -- identically fused vs evented.  No-op calendar events
    force parks, so the upstream caches its two-member walk before the
    edit."""

    def run(drain: bool):
        sim = Simulator()
        streams = RandomStreams(9)
        ids = PacketIdAllocator()
        down = Link(
            sim, make_scheduler("wtp", SDPS), capacity=1.0,
            target=PacketSink(), name="down", drain=drain,
        )
        up = Link(
            sim, make_scheduler("wtp", SDPS), capacity=1.0, target=down,
            name="up", drain=drain,
        )
        cursor = ArrivalCursor(sim)
        for link in (up, down):
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
        for k in range(1, 400):
            sim.schedule(0.5 * k + 0.013, lambda: None)
        state: dict = {}

        def make_lossy() -> None:
            state["walk_before"] = up._chain_cache
            down.buffer_packets = 3
            down.drop_policy = PLRDropper((8.0, 4.0, 2.0, 1.0))

        sim.schedule(100.0, make_lossy)
        sim.run(until=400.0)
        links = tuple(
            (link.arrivals, link.departures, link.drops,
             tuple(link.drops_per_class), link.bytes_sent, link.busy_time,
             link.scheduler.queues.total_packets)
            for link in (up, down)
        )
        return state, up, links

    state_d, up_d, fused = run(True)
    _, _, evented = run(False)
    assert fused == evented
    assert fused[1][2] > 0
    assert len(state_d["walk_before"].members) == 2
    assert len(up_d._chain_cache.members) == 1


# ----------------------------------------------------------------------
# Hooked-scheduler subclasses
# ----------------------------------------------------------------------
def _compiled_fanin(factory, horizon: float = 5e3) -> tuple:
    """Two upstream links plus merge-point cross traffic feeding one
    double-capacity server, every source compiled onto one
    ``ArrivalCursor`` (the ``bench_engine.run_fanin_cell`` shape);
    returns every link's counters and queue state."""
    sim = Simulator()
    streams = RandomStreams(5)
    ids = PacketIdAllocator()
    merge = Link(
        sim, factory(), capacity=2.0, target=PacketSink(), name="merge"
    )
    links = [merge]
    cursor = ArrivalCursor(sim)
    for i in range(2):
        upstream = Link(
            sim, factory(), capacity=1.0, target=merge, name=f"up{i}"
        )
        links.append(upstream)
        cursor.add(
            CompiledMixedSource(
                upstream,
                ParetoInterarrivals(2.6, 1.9, streams.generator()),
                MIX, 1.0, streams.generator(), ids=ids,
            )
        )
    cursor.add(
        CompiledMixedSource(
            merge,
            ParetoInterarrivals(2.6, 1.9, streams.generator()),
            MIX, 1.0, streams.generator(), ids=ids,
        )
    )
    cursor.start()
    sim.run(until=horizon)
    return sim.now, tuple(
        (
            link.arrivals,
            link.departures,
            link.bytes_sent,
            link.busy_time,
            tuple(link.scheduler.queues.head_arrivals),
            tuple(link.scheduler.queues.bytes_backlog),
        )
        for link in links
    )


@pytest.mark.parametrize("base", [BPRScheduler, SCFQScheduler])
def test_hooked_scheduler_subclass_runs_columnar(base, monkeypatch) -> None:
    """A trivial subclass of a hooked scheduler drains exactly like its
    base class, and neither builds ``Packet`` objects per packet: only
    the few in-service packets materialized when the run parks."""
    subclass = type(f"Trivial{base.__name__}", (base,), {})
    built = count_packets(monkeypatch)
    runs = {}
    for cls in (base, subclass):
        built[0] = 0
        runs[cls] = _compiled_fanin(lambda: cls(SDPS))
        assert built[0] <= 10, (cls.__name__, built[0])
    assert runs[subclass] == runs[base]
    assert sum(state[1] for state in runs[base][1]) > 5_000
