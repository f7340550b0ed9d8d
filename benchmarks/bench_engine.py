"""Microbenchmarks of the simulation substrate itself.

These are true pytest-benchmark measurements (multiple rounds): kernel
event throughput, per-scheduler packet forwarding cost, and the Lindley
FCFS recursion, so regressions in the hot paths are visible.
"""

from __future__ import annotations

import numpy as np

from repro.core.conservation import fcfs_waiting_times
from repro.schedulers import make_scheduler
from repro.sim import Link, PacketSink, Simulator
from repro.sim.rng import RandomStreams
from repro.traffic import (
    FixedPacketSize,
    PacketIdAllocator,
    PoissonInterarrivals,
    TrafficSource,
)


def run_kernel_events(num_events: int) -> int:
    sim = Simulator()

    def chain(remaining: int) -> None:
        if remaining:
            sim.schedule_after(1.0, chain, remaining - 1)

    sim.schedule(0.0, chain, num_events)
    sim.run()
    return sim.events_processed


def test_kernel_event_throughput(benchmark):
    processed = benchmark(run_kernel_events, 20_000)
    assert processed == 20_001


def forward_packets(scheduler_name: str, horizon: float = 5e3) -> int:
    """Single-link forwarding into a bare sink."""
    sim = Simulator()
    streams = RandomStreams(0)
    scheduler = make_scheduler(scheduler_name, (1.0, 2.0, 4.0, 8.0))
    link = Link(sim, scheduler, capacity=1.0, target=PacketSink())
    ids = PacketIdAllocator()
    for class_id in range(4):
        TrafficSource(
            sim, link, class_id,
            PoissonInterarrivals(4.0 / 0.95, streams.generator()),
            FixedPacketSize(1.0), ids=ids,
        ).start()
    sim.run(until=horizon)
    return link.departures


def test_wtp_forwarding_throughput(benchmark):
    departures = benchmark(forward_packets, "wtp")
    assert departures > 3000


def test_bpr_forwarding_throughput(benchmark):
    departures = benchmark(forward_packets, "bpr")
    assert departures > 3000


def test_fcfs_forwarding_throughput(benchmark):
    departures = benchmark(forward_packets, "fcfs")
    assert departures > 3000


def test_lindley_recursion_throughput(benchmark):
    rng = np.random.default_rng(1)
    times = np.cumsum(rng.exponential(1.05, size=100_000))
    sizes = np.ones(100_000)
    waits = benchmark(fcfs_waiting_times, times, sizes, 1.0)
    assert len(waits) == 100_000


def run_cancellable_events(num_events: int) -> int:
    """Handle-based scheduling: the slow path the tuple heap avoids."""
    sim = Simulator()

    def chain(remaining: int) -> None:
        if remaining:
            sim.schedule_cancellable(sim.now + 1.0, chain, remaining - 1)

    sim.schedule_cancellable(0.0, chain, num_events)
    sim.run()
    return sim.events_processed


def test_cancellable_event_throughput(benchmark):
    processed = benchmark(run_cancellable_events, 20_000)
    assert processed == 20_001


def replay_trace(num_packets: int) -> int:
    """TraceSource replay throughput (batched numpy -> list conversion)."""
    from repro.traffic.trace import ArrivalTrace, TraceSource

    rng = np.random.default_rng(3)
    trace = ArrivalTrace(
        times=np.cumsum(rng.exponential(1.1, size=num_packets)),
        class_ids=rng.integers(0, 4, size=num_packets),
        sizes=np.ones(num_packets),
    )
    sim = Simulator()
    scheduler = make_scheduler("wtp", (1.0, 2.0, 4.0, 8.0))
    link = Link(sim, scheduler, capacity=1.0, target=PacketSink())
    TraceSource(sim, link, trace).start()
    sim.run()
    return link.departures


def test_trace_replay_throughput(benchmark):
    departures = benchmark(replay_trace, 20_000)
    assert departures == 20_000


def run_multihop_cell(scheduler: str = "wtp") -> int:
    """Table 1 smoke cell (4 hops, rho=0.85, compiled arrivals).

    The chain-fused drain kernel's guarded workload: every hop is a
    coupled server behind a ``FlowDemux`` and all cross-traffic rides
    one ``ArrivalCursor``, so this cell collapses to a handful of
    calendar events per busy period when chain fusion engages -- and
    reverts to roughly the evented rate when it does not.  Schedulers
    with hooks (``drr`` et al.) run their own ``choose_class`` and
    bound ``on_select``/``on_enqueue`` inside the fused loop, on the
    same columnar path as the rest.  Returns total departures across
    all hops (the throughput work unit).

    The run ends once the last user flow has recorded its packets, one
    flow duration after the last launch, so the warm-up sets the cell's
    length: 3.5 s of it makes 5.8 s of simulated time and 121,373
    departures.
    """
    import warnings

    from repro.network.multihop import MultiHopConfig, run_multihop

    config = MultiHopConfig(
        hops=4,
        utilization=0.85,
        scheduler=scheduler,
        experiments=4,
        warmup=3500.0,
        experiment_period=500.0,
        drain=1000.0,
        seed=7,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_multihop(config)
    return sum(result.hop_departures)


def test_multihop_cell_throughput(benchmark):
    departures = benchmark(run_multihop_cell, "wtp")
    assert departures > 100_000


def test_multihop_drr_cell_throughput(benchmark):
    departures = benchmark(run_multihop_cell, "drr")
    assert departures > 100_000


def run_fanin_cell(scheduler: str = "wtp", horizon: float = 5e3) -> int:
    """Fan-in merge cell: two upstream links plus merge-point cross
    traffic feeding one double-capacity server, all sources compiled
    onto one ``ArrivalCursor``.

    Guards the chain walk's upstream fan-in fixpoint: the whole merge
    fuses into one drain only when each entry discovers its sibling
    upstream, so this cell's throughput collapses toward the evented
    rate if fan-in discovery stops engaging.  Returns total departures
    across all three links.
    """
    from repro.traffic import (
        ArrivalCursor,
        CompiledMixedSource,
        ParetoInterarrivals,
    )

    sim = Simulator()
    streams = RandomStreams(5)
    ids = PacketIdAllocator()
    sdps = (1.0, 2.0, 4.0, 8.0)
    mix = (0.4, 0.3, 0.2, 0.1)
    merge = Link(
        sim, make_scheduler(scheduler, sdps), capacity=2.0,
        target=PacketSink(), name="merge",
    )
    links = [merge]
    cursor = ArrivalCursor(sim)
    for i in range(2):
        upstream = Link(
            sim, make_scheduler(scheduler, sdps), capacity=1.0,
            target=merge, name=f"up{i}",
        )
        links.append(upstream)
        cursor.add(
            CompiledMixedSource(
                upstream,
                ParetoInterarrivals(2.6, 1.9, streams.generator()),
                mix, 1.0, streams.generator(), ids=ids,
            )
        )
    cursor.add(
        CompiledMixedSource(
            merge,
            ParetoInterarrivals(2.6, 1.9, streams.generator()),
            mix, 1.0, streams.generator(), ids=ids,
        )
    )
    cursor.start()
    sim.run(until=horizon)
    return sum(link.departures for link in links)


def test_fanin_cell_throughput(benchmark):
    departures = benchmark(run_fanin_cell, "wtp")
    assert departures > 5_000


def run_small_sweep(jobs: int) -> int:
    """SweepRunner overhead on a small cache-less single-hop sweep."""
    from repro.experiments.common import SingleHopConfig
    from repro.runner import SingleHopTask, SweepRunner, single_hop_summary

    runner = SweepRunner(jobs=jobs, cache=None)
    tasks = [
        SingleHopTask(
            config=SingleHopConfig(
                scheduler="wtp", utilization=0.9, horizon=2e3,
                warmup=100.0, seed=seed,
            )
        )
        for seed in range(1, 5)
    ]
    summaries = runner.map(single_hop_summary, tasks)
    return len(summaries)


def test_sweep_runner_serial_throughput(benchmark):
    completed = benchmark(run_small_sweep, 1)
    assert completed == 4
