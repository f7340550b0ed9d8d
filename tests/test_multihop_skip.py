"""Table 1 skips the cross traffic no user packet meets.

``run_multihop`` drops each hop's cross arrivals before the hop's last
idle instant ahead of the next launch -- across the warm-up and every
user-free gap between experiments -- and credits them to the hop's
counters instead of simulating them (its docstring gives the three
facts that make this exact).  These tests pin

* the skip against the two references that simulate every packet:
  the scalar-source run (``compiled_arrivals=False``) and the checked
  run (``check_invariants=True``), over many seeds and shapes, for
  every scheduler the skip admits, and the gate for all the others;
* each exactness fact on its own: user flows are the only traffic
  between hops and none is in flight at a skip; the idle scan's
  chained floats are the kernel's completion times, whatever the
  service order; and a hook-free scheduler keeps no state between
  decisions;
* the idle scan and :meth:`ArrivalCursor.drop_before` as units.
"""

from __future__ import annotations

import copy
import random
import warnings

import numpy as np
import pytest

import repro.traffic.compile as compiled_arrivals
from repro.errors import SchedulingError
from repro.network.flows import FlowRecorder, UserFlow
from repro.network.multihop import (
    MultiHopConfig,
    _busy_until,
    _idle_scan,
    run_multihop,
)
from repro.schedulers import draingen, make_scheduler
from repro.schedulers.registry import available_schedulers
from repro.sim import Link, PacketSink, Simulator
from repro.sim.packet import Packet
from repro.traffic import (
    ArrivalCursor,
    CompiledSource,
    ConstantInterarrivals,
    FixedPacketSize,
    ParetoInterarrivals,
)

SDPS = (1.0, 2.0, 4.0, 8.0)

#: The schedulers whose hooks are both the base no-ops: the skip's gate.
HOOK_FREE = ("additive", "fcfs", "qwtp", "strict", "wtp")
HOOKED = tuple(n for n in available_schedulers() if n not in HOOK_FREE)

#: Small cells on a 2.5 Mbps link (a 1.6 ms service time), so each
#: run stays short.  Together they cover K = 1-4, rho 0.85 and 0.95,
#: F = 2-10 at 50 and 200 kbps, overlapping experiments, a drain short
#: enough to truncate, and heterogeneous hop utilizations.
SHAPES = {
    "k1-rho85-f2-200k": dict(
        hops=1, utilization=0.85, flow_packets=2, flow_rate_kbps=200.0,
        experiments=4, experiment_period=300.0, warmup=400.0,
    ),
    "k2-rho95-f10-50k": dict(
        hops=2, utilization=0.95, flow_packets=10, flow_rate_kbps=50.0,
        experiments=3, experiment_period=1000.0, warmup=300.0,
    ),
    "k3-overlapping": dict(
        hops=3, utilization=0.85, flow_packets=5, flow_rate_kbps=200.0,
        experiments=4, experiment_period=60.0, warmup=400.0,
    ),
    "k4-heterogeneous": dict(
        hops=4, utilization=0.9, hop_utilizations=(0.95, 0.85, 0.9, 0.8),
        flow_packets=3, flow_rate_kbps=50.0,
        experiments=3, experiment_period=400.0, warmup=300.0,
    ),
    "k2-truncating": dict(
        hops=2, utilization=0.9, flow_packets=4, flow_rate_kbps=200.0,
        experiments=4, experiment_period=150.0, warmup=300.0, drain=-229.9,
    ),
}
CAPACITY = 312.5

#: Four seeds per shape: 20 seeds in all, none shared between shapes.
SEEDS_PER_SHAPE = 4


def shape_seeds(shape: str) -> range:
    first = 1 + SEEDS_PER_SHAPE * list(SHAPES).index(shape)
    return range(first, first + SEEDS_PER_SHAPE)


def run(config: MultiHopConfig, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_multihop(config, **kwargs)


def outcome(result) -> tuple:
    """What a Table 1 cell reports, plus the link departures."""
    return (
        [
            (c.percentile_matrix.tolist(), c.inconsistencies, c.rd)
            for c in result.comparisons
        ],
        result.truncated_experiments,
        result.hop_departures,
    )


# ----------------------------------------------------------------------
# The skip against the references
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("scheduler", HOOK_FREE)
def test_skipping_run_equals_both_references(scheduler, shape):
    for seed in shape_seeds(shape):
        config = MultiHopConfig(
            **SHAPES[shape], scheduler=scheduler, capacity=CAPACITY, seed=seed
        )
        skipping = run(config)
        scalar = run(config, compiled_arrivals=False)
        checked = run(config, check_invariants=True)
        assert sum(skipping.hop_skipped) > 0, seed
        assert scalar.hop_skipped == checked.hop_skipped == [0] * config.hops
        assert outcome(skipping) == outcome(scalar) == outcome(checked), seed


@pytest.mark.parametrize("scheduler", HOOKED)
def test_hooked_schedulers_simulate_every_packet(scheduler):
    for seed in (21, 22):
        config = MultiHopConfig(
            **SHAPES["k2-rho95-f10-50k"], scheduler=scheduler,
            capacity=CAPACITY, seed=seed,
        )
        compiled = run(config)
        reference = run(config, compiled_arrivals=False)
        assert outcome(compiled) == outcome(reference)
        assert compiled.hop_skipped == [0] * config.hops


def test_paper_operating_point_skips_most_cross_traffic():
    """The e2e Table 1 cells at seed 1: two thirds of the cross
    arrivals are credited, and the departures equal the reference's."""
    config = MultiHopConfig(
        hops=4, utilization=0.95, flow_packets=10, flow_rate_kbps=200.0,
        experiments=2, warmup=500.0, seed=1,
    )
    skipping = run(config)
    assert sum(skipping.hop_skipped) == 27_439
    assert sum(skipping.hop_departures) == 40_338
    assert outcome(skipping) == outcome(run(config, compiled_arrivals=False))


# ----------------------------------------------------------------------
# Fact 1: user flows are the only traffic between hops
# ----------------------------------------------------------------------
def test_no_user_packet_in_flight_and_only_user_traffic_between_hops(
    monkeypatch,
):
    """At every skip each flow that has emitted has recorded its F
    packets, so no user packet is in flight; and each hop past the
    first receives exactly its own cross traffic plus the user packets
    of the hop before it, so cross traffic leaves after one hop."""
    config = MultiHopConfig(
        **SHAPES["k4-heterogeneous"], capacity=CAPACITY, seed=5
    )
    recorders: list[FlowRecorder] = []
    flows: list[UserFlow] = []
    cursors: list[ArrivalCursor] = []
    skips = [0]

    def keep(cls, instances):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            instances.append(self)

        monkeypatch.setattr(cls, "__init__", init)

    keep(FlowRecorder, recorders)
    keep(UserFlow, flows)
    keep(ArrivalCursor, cursors)
    drop_before = ArrivalCursor.drop_before

    def checked_drop_before(self, end, cutoffs):
        (recorder,) = recorders
        for flow in flows:
            if flow.emitted:
                assert recorder.packet_count(flow.flow_id) == flow.num_packets
        skips[0] += 1
        return drop_before(self, end, cutoffs)

    monkeypatch.setattr(ArrivalCursor, "drop_before", checked_drop_before)
    result = run(config)
    assert skips[0] == config.experiments  # the warm-up and every gap
    (cursor,) = cursors
    links = cursor.sim._links[::-1]  # the chain is built back to front
    cross = list(result.hop_skipped)
    for stream in cursor._streams:
        cross[links.index(stream.target)] += stream.packets_emitted
    user = len(flows) * config.flow_packets
    for hop, link in enumerate(links):
        demux = link.target
        assert demux.cross_packets == demux.cross_sink.received
        assert link.arrivals == cross[hop] + user
        user = demux.user_packets
    assert user == len(flows) * config.flow_packets


# ----------------------------------------------------------------------
# Fact 2: one packet size, so completion times ignore service order
# ----------------------------------------------------------------------
class ArrivalTimes:
    def __init__(self) -> None:
        self.times: list[float] = []

    def receive(self, packet) -> None:
        self.times.append(packet.created_at)


class DepartureTimes:
    def __init__(self) -> None:
        self.times: list[float] = []

    def on_departure(self, packet_id, class_id, size, flow_id, delay, now):
        self.times.append(now)


def feed(make_target) -> None:
    """Four Pareto classes into ``make_target(sim)`` at about 0.91 load
    of a 3125 B/ms link, run to exhaustion."""
    sim = Simulator()
    target = make_target(sim)
    cursor = ArrivalCursor(sim)
    for class_id in range(4):
        cursor.add(
            CompiledSource(
                target, class_id,
                ParetoInterarrivals(
                    0.7, 1.9, np.random.default_rng(10 + class_id)
                ),
                FixedPacketSize(500.0), stop_time=2_000.0,
            )
        )
    cursor.start()
    sim.run()


@pytest.mark.parametrize("scheduler", ("wtp", "strict", "fcfs", "additive"))
def test_idle_scan_floats_are_the_kernels_completion_times(scheduler):
    """Chaining ``busy = a + d if a > busy else busy + d`` over one
    hop's arrivals gives, float for float, the departure instants the
    drain kernel produces, whatever order the scheduler serves in."""
    arrivals = ArrivalTimes()
    feed(lambda sim: arrivals)
    monitor = DepartureTimes()

    def link(sim):
        link = Link(sim, make_scheduler(scheduler, SDPS), capacity=3125.0)
        link.add_monitor(monitor)
        return link

    feed(link)
    service = 500.0 / 3125.0
    busy = 0.0
    completions = []
    for a in arrivals.times:
        busy = a + service if a > busy else busy + service
        completions.append(busy)
    assert len(completions) > 8_000
    assert monitor.times == completions


# ----------------------------------------------------------------------
# Fact 3: a hook-free scheduler keeps no state between decisions
# ----------------------------------------------------------------------
def hook_free(name: str) -> bool:
    scheduler = make_scheduler(name, SDPS)
    return draingen.generated_drain_pair(scheduler) == (None, None)


def scheduler_state(scheduler) -> dict:
    """Deep snapshot of ``vars(scheduler)``, its queue set and the
    packets in its columns included."""

    def frozen(value):
        if isinstance(value, Packet):
            return tuple(frozen(getattr(value, s)) for s in Packet.__slots__)
        if isinstance(value, (list, tuple)):
            return [frozen(item) for item in value]
        if hasattr(value, "__slots__"):  # the ClassQueueSet
            return {s: frozen(getattr(value, s)) for s in value.__slots__}
        return copy.deepcopy(value)

    return {key: frozen(value) for key, value in vars(scheduler).items()}


def test_hook_free_names_are_the_gate():
    names = {n for n in available_schedulers() if hook_free(n)}
    assert names == set(HOOK_FREE)


def test_hook_free_choose_class_reads_only_queues_and_constants():
    """For random column states, every hook-free scheduler's
    ``choose_class`` leaves ``vars(scheduler)`` unchanged and returns
    the same class twice: it keeps no state between decisions."""
    names = [n for n in available_schedulers() if hook_free(n)]
    assert names
    for name in names:
        rng = random.Random(name)
        for trial in range(200):
            scheduler = make_scheduler(name, SDPS)
            now = rng.uniform(0.0, 100.0)
            pid = 0
            for class_id in range(len(SDPS)):
                for _ in range(rng.choice((0, 0, 1, 2, 5))):
                    arrived = rng.uniform(0.0, now)
                    packet = Packet(pid, class_id, 500.0, arrived)
                    packet.arrived_at = packet.created_at
                    pid += 1
                    scheduler.enqueue(packet, now)
            if not scheduler.backlogged:
                continue
            before = scheduler_state(scheduler)
            first = scheduler.choose_class(now)
            assert scheduler_state(scheduler) == before, (name, trial)
            assert scheduler.choose_class(now) == first, (name, trial)
            assert scheduler_state(scheduler) == before, (name, trial)


# ----------------------------------------------------------------------
# The idle scan
# ----------------------------------------------------------------------
def test_arrival_at_busy_until_is_not_a_resume_point():
    scan = _idle_scan(10.0, 1.0)
    assert scan([10.0]) is None  # ties the last completion: still busy
    assert scan([11.0]) is None  # the tie pushed busy-until to 11.0
    assert scan([12.5]) == 12.5


def test_simultaneous_arrivals_resume_at_the_first():
    scan = _idle_scan(0.0, 1.0)
    # The first of three arrivals at 2.0 finds the hop idle; the other
    # two queue behind it, and 4.5 joins the busy period (until 6.0).
    assert scan([2.0, 2.0, 2.0, 4.5]) == 2.0
    assert scan([6.0]) is None
    assert scan([7.0 + 1e-9]) == 7.0 + 1e-9


def test_stretch_with_no_idle_arrival():
    scan = _idle_scan(10.0, 1.0)
    assert scan([3.0, 9.0, 10.5, 12.0, 13.0]) is None  # busy until 15.0
    assert scan([15.0]) is None
    assert scan([]) is None


def test_busy_until_adds_one_service_per_queued_packet():
    sim = Simulator()
    link = Link(sim, make_scheduler("wtp", SDPS), capacity=3125.0)
    assert _busy_until(link, 7.0, 0.16) == 7.0  # idle: the stretch start
    for pid in range(4):
        sim.schedule(0.5, link.receive, Packet(pid, pid % 4, 500.0, 0.5))
    sim.run(until=0.55)
    assert link.busy and link.backlog_packets == 3
    expected = link._pending_key[0]
    for _ in range(3):
        expected += 0.16
    assert _busy_until(link, 0.55, 0.16) == expected
    link._pending_key = None
    assert _busy_until(link, 0.55, 0.16) is None  # unknown: no skip


# ----------------------------------------------------------------------
# ArrivalCursor.drop_before
# ----------------------------------------------------------------------
class Recorder:
    def __init__(self) -> None:
        self.packets: list[tuple] = []

    def receive(self, packet) -> None:
        self.packets.append((packet.created_at, packet.class_id, packet.size))


def cursor_run(cutoffs=None, end=None, stop=None, until=None):
    """Three Pareto streams into two recorders (the first feeds one
    with two streams, one of them stopping at ``stop``); optionally
    drop before ``cutoffs`` (per recorder index) at ``until``."""
    sim = Simulator()
    targets = (Recorder(), Recorder())
    cursor = ArrivalCursor(sim)
    for order, (target, stop_time) in enumerate(
        ((0, stop), (0, None), (1, None))
    ):
        cursor.add(
            CompiledSource(
                targets[target], order,
                ParetoInterarrivals(
                    0.5, 1.9, np.random.default_rng(40 + order)
                ),
                FixedPacketSize(100.0), stop_time=stop_time,
            )
        )
    cursor.start()
    dropped = None
    if cutoffs is not None:
        sim.run(until=until)
        fixed = {
            targets[t]: (lambda times, c=c: c) for t, c in cutoffs.items()
        }
        dropped = cursor.drop_before(end, fixed)
    return sim, cursor, targets, dropped


@pytest.mark.parametrize(
    "cutoff, end, window",
    [(30.0, 60.0, None), (30.0, 60.0, 7), (80.0, 50.0, None)],
)
def test_drop_before_drops_exactly_the_span_and_keeps_the_rest(
    monkeypatch, cutoff, end, window
):
    """After a run to 10.0, the listed target loses exactly its arrivals
    before the cutoff, or before ``end`` when the cutoff lies past it;
    every other arrival is injected as in the undisturbed run, also
    when a 7-arrival window makes the drop cross many windows."""
    if window is not None:
        monkeypatch.setattr(compiled_arrivals, "WINDOW_ARRIVALS", window)
    sim, cursor, (full0, full1), _ = cursor_run()
    sim.run(until=100.0)
    sim, cursor, (cut0, cut1), dropped = cursor_run(
        cutoffs={0: cutoff}, end=end, until=10.0
    )
    sim.run(until=100.0)
    stop = min(cutoff, end)
    gone = [p for p in full0.packets if 10.0 < p[0] < stop]
    assert dropped == {cut0: len(gone)} and gone
    assert cut0.packets == [p for p in full0.packets if p not in gone]
    assert cut1.packets == full1.packets
    total = len(full0.packets) + len(full1.packets)
    assert cursor.packets_injected == total - len(gone)


def test_stream_stopping_inside_a_dropped_span():
    """A stream whose ``stop_time`` falls inside the dropped span is
    exhausted by the drop: it no longer counts as a pending source."""
    sim, cursor, (full0, _), _ = cursor_run(stop=20.0)
    sim.run(until=100.0)
    sim, cursor, (cut0, _), dropped = cursor_run(
        cutoffs={0: 30.0}, end=40.0, until=5.0, stop=20.0
    )
    assert cursor.pending_sources == 2  # the stopped stream is done
    sim.run(until=100.0)
    assert not any(p[1] == 0 and p[0] > 5.0 for p in cut0.packets)
    assert cut0.packets == [p for p in full0.packets if not 5.0 < p[0] < 30.0]
    assert dropped[cut0] == sum(1 for p in full0.packets if 5.0 < p[0] < 30.0)


def test_drop_before_rearms_one_event_at_the_first_kept_arrival():
    sim, cursor, (full0, full1), _ = cursor_run()
    sim.run(until=100.0)
    kept = [p[0] for p in full0.packets if p[0] > 30.0]
    kept += [p[0] for p in full1.packets if p[0] > 10.0]
    sim, cursor, _, _ = cursor_run(cutoffs={0: 30.0}, end=60.0, until=10.0)
    assert cursor.pending_sources == 3
    assert len(sim._heap) == 1
    time, seq, callback, payload = sim._heap[0]
    assert (time, seq) == (cursor.next_time, cursor.next_seq)
    assert time == min(kept)
    assert seq == sim._seq - 1  # a fresh sequence number
    assert callback == cursor._fire and payload is None


def test_every_arrival_dropped_and_empty_stretch():
    """Dropping a whole stream set leaves no pending source; a stretch
    with no arrival before ``end`` drops nothing and re-arms the same
    next arrival."""
    sim = Simulator()
    sink = Recorder()
    cursor = ArrivalCursor(sim)
    cursor.add(
        CompiledSource(
            sink, 0, ConstantInterarrivals(10.0), FixedPacketSize(1.0),
            stop_time=45.0,
        )
    )
    cursor.start()
    assert cursor.drop_before(5.0, {sink: lambda times: 5.0}) == {sink: 0}
    assert cursor.next_time == 10.0
    assert cursor.drop_before(50.0, {sink: lambda times: 50.0}) == {sink: 4}
    assert cursor.pending_sources == 0 and cursor.next_time is None
    assert sim._heap == []
    sim.run()
    assert sink.packets == []


def test_drop_before_refuses_a_running_calendar():
    sim = Simulator()
    cursor = ArrivalCursor(sim)
    sink = PacketSink()
    cursor.add(
        CompiledSource(
            sink, 0, ConstantInterarrivals(1.0), FixedPacketSize(1.0)
        )
    )
    with pytest.raises(SchedulingError, match="at rest"):
        cursor.drop_before(5.0, {})  # not started
    cursor.start()
    failures = []

    def inside():
        try:
            cursor.drop_before(5.0, {})
        except SchedulingError as exc:
            failures.append(exc)

    sim.schedule(0.5, inside)
    sim.run(until=2.0)
    assert len(failures) == 1 and "at rest" in str(failures[0])
    assert sink.received == 2  # the cursor ran on untouched
