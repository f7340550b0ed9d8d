"""The multi-hop user-perspective simulation (Section 6 / Table 1).

Builds Figure 6's configuration on the event kernel:

* K hops, each a 25 Mbps link running a WTP scheduler (the paper uses
  WTP everywhere here "since it performs better than BPR"; the
  scheduler is pluggable for ablations).
* Per hop, C cross-traffic sources (Pareto interarrivals, fixed 500-B
  packets, classes drawn 40/30/20/10), sized so each link runs at the
  requested utilization once the user flows are added.  Cross-traffic
  exits after its hop via a :class:`FlowDemux`.
* Every ``experiment_period`` an experiment launches N identical user
  flows, one per class (F packets of 500 B at average rate R_u), whose
  end-to-end queueing delays are recorded at the terminal sink.
* After each experiment's emission window the calendar advances one
  flow period at a time until the terminal sink holds every launched
  flow's F packets, or the next launch comes.  After the last
  experiment the run ends there, or at the horizon (``drain`` past
  that window plus one experiment period), where experiments still in
  flight are truncated.
* No user packet is in flight during the warm-up, nor between the
  moment every launched flow is recorded and the next launch, so no
  comparison reads those stretches.  There each hop's cross arrivals
  up to its last idle instant are drawn and credited to the hop's
  counters, but never simulated (:func:`run_multihop`).

Time unit: milliseconds.  Only queueing delays are measured; propagation
and transmission delays are excluded as in the paper.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..core.metrics import EndToEndComparison, compare_flow_percentiles
from ..errors import ConfigurationError
from ..sim.engine import Simulator
from ..sim.link import Link, PacketSink
from ..sim.rng import RandomStreams
from ..schedulers import draingen
from ..schedulers.registry import make_scheduler
from ..traffic.compile import ArrivalCursor, CompiledMixedSource
from ..traffic.pareto import ParetoInterarrivals
from ..traffic.source import PacketIdAllocator
from .crosstraffic import MixedClassSource
from .flows import FlowRecorder, UserFlow
from .topology import FlowDemux

if TYPE_CHECKING:
    from ..invariants import InvariantReport

__all__ = ["MultiHopConfig", "MultiHopResult", "run_multihop"]

#: 25 Mbps expressed in bytes per millisecond.
LINK_CAPACITY_BYTES_PER_MS = 25e6 / 8.0 / 1000.0  # 3125.0


@dataclass(frozen=True)
class MultiHopConfig:
    """Parameters of one Table 1 cell (paper defaults pre-filled)."""

    hops: int = 4                       # K
    utilization: float = 0.85           # rho per link
    flow_packets: int = 10              # F
    flow_rate_kbps: float = 50.0        # R_u
    num_classes: int = 4
    sdps: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    scheduler: str = "wtp"
    cross_sources_per_hop: int = 8      # C
    class_mix: tuple[float, ...] = (0.4, 0.3, 0.2, 0.1)
    packet_size: float = 500.0          # bytes
    pareto_shape: float = 1.9
    capacity: float = LINK_CAPACITY_BYTES_PER_MS
    experiments: int = 100              # M
    experiment_period: float = 1000.0   # ms between experiment launches
    warmup: float = 100_000.0           # ms (paper: 100 s)
    #: Longest the run waits (ms) for the last flows to finish, past the
    #: last experiment's emission window plus one experiment period; the
    #: run ends earlier once every flow has recorded its F packets.
    drain: float = 2000.0
    seed: int = 1
    #: ``False`` runs every hop's link evented: the reference the
    #: drain kernels are tested against (see :mod:`repro.sim.link`).
    #: Distinct from ``drain``, the end-of-run settle window above.
    drain_kernel: bool = True
    #: Optional per-hop utilizations (length == hops); overrides
    #: ``utilization`` so heterogeneous paths (e.g. one bottleneck hop)
    #: can be studied.  ``None`` = every hop at ``utilization``.
    hop_utilizations: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ConfigurationError("need at least one hop")
        if not 0 < self.utilization < 1:
            raise ConfigurationError("utilization must be in (0, 1)")
        if len(self.sdps) != self.num_classes:
            raise ConfigurationError("one SDP per class required")
        if len(self.class_mix) != self.num_classes:
            raise ConfigurationError("one mix share per class required")
        if self.flow_rate_kbps <= 0 or self.flow_packets < 1:
            raise ConfigurationError("invalid user-flow parameters")
        # The stop rule polls from the last experiment's launch.
        if self.experiments < 1:
            raise ConfigurationError("experiments must be >= 1")
        if self.experiment_period <= 0:
            raise ConfigurationError("experiment_period must be positive")
        if self.warmup < 0:
            raise ConfigurationError("warmup must be non-negative")
        if self.cross_sources_per_hop < 1:
            raise ConfigurationError("cross_sources_per_hop must be >= 1")
        if self.hop_utilizations is not None:
            if len(self.hop_utilizations) != self.hops:
                raise ConfigurationError(
                    "hop_utilizations must have one entry per hop"
                )
            if any(not 0 < rho < 1 for rho in self.hop_utilizations):
                raise ConfigurationError(
                    "every hop utilization must be in (0, 1)"
                )

    def utilization_of_hop(self, hop: int) -> float:
        """Target utilization of a specific hop (0-based)."""
        if self.hop_utilizations is not None:
            return self.hop_utilizations[hop]
        return self.utilization

    @property
    def flow_period(self) -> float:
        """Inter-packet period (ms) realizing R_u kbps with 500-B packets."""
        bytes_per_ms = self.flow_rate_kbps * 1000.0 / 8.0 / 1000.0
        return self.packet_size / bytes_per_ms

    @property
    def user_byte_rate(self) -> float:
        """Steady-state user-flow load on every link (bytes/ms)."""
        per_experiment = self.num_classes * self.flow_packets * self.packet_size
        return per_experiment / self.experiment_period

    @property
    def cross_byte_rate_per_source(self) -> float:
        """Cross-traffic load per source per hop (bytes/ms), at the
        default (homogeneous) utilization."""
        return self.cross_byte_rate_per_source_at(self.utilization)

    def cross_byte_rate_per_source_at(self, utilization: float) -> float:
        """Cross-traffic load per source for a hop at ``utilization``."""
        total = utilization * self.capacity - self.user_byte_rate
        if total <= 0:
            raise ConfigurationError(
                "user flows alone exceed the target utilization"
            )
        return total / self.cross_sources_per_hop


@dataclass
class MultiHopResult:
    """All user experiments of one run plus the Table 1 aggregates."""

    config: MultiHopConfig
    comparisons: list[EndToEndComparison] = field(default_factory=list)
    #: One report per hop when the run executed under the invariant
    #: checker (``None`` for an unchecked run).
    invariants: list[InvariantReport] | None = None
    #: Experiments excluded from ``comparisons`` because at least one
    #: of their flows had fewer than ``flow_packets`` recorded delays
    #: at the horizon -- i.e. the ``drain`` settle window was too short.
    truncated_experiments: int = 0
    #: Departures per hop up to the end of the run: the first poll that
    #: finds every flow complete, or the horizon (diagnostics /
    #: benchmarking).  Includes the credited ``hop_skipped``.
    hop_departures: list[int] = field(default_factory=list)
    #: Cross arrivals per hop dropped before its last idle instant and
    #: credited without simulation (see :func:`run_multihop`); included
    #: in ``hop_departures``, and all 0 when the run simulates every
    #: packet.
    hop_skipped: list[int] = field(default_factory=list)

    @property
    def rd(self) -> float:
        """The Table 1 metric: mean normalized end-to-end delay ratio."""
        values = [c.rd for c in self.comparisons]
        return sum(values) / len(values) if values else float("nan")

    @property
    def inconsistent_experiments(self) -> int:
        """Experiments with >= 1 inconsistent (pair, percentile) cell."""
        return sum(1 for c in self.comparisons if not c.consistent)

    @property
    def inconsistent_cells(self) -> int:
        """Total inconsistent cells across all experiments."""
        return sum(c.inconsistencies for c in self.comparisons)


def _busy_until(link: Link, now: float, service: float) -> float | None:
    """When ``link`` finishes its present work, adding one ``service``
    per queued packet as its drain does; ``None`` when a busy link's
    pending completion is unknown."""
    if not link.busy:
        return now
    key = link._pending_key
    if key is None:
        return None
    busy = key[0]
    for _ in range(link.backlog_packets):
        busy += service
    return busy


def _idle_scan(busy: float, service: float):
    """Cutoff callable for :meth:`ArrivalCursor.drop_before`: the
    latest arrival that finds the hop idle (``a > busy``, strictly)
    when every packet takes ``service``, starting from ``busy``."""

    def scan(times: list) -> float | None:
        nonlocal busy
        resume = None
        for a in times:
            if a > busy:
                resume = a
                busy = a + service
            else:
                busy += service
        return resume

    return scan


def run_multihop(
    config: MultiHopConfig,
    check_invariants: bool = False,
    compiled_arrivals: bool = True,
) -> MultiHopResult:
    """Simulate one Table 1 cell and return its user-experiment results.

    With ``check_invariants`` every hop's link carries its own
    :class:`~repro.invariants.InvariantChecker` (per-class FIFO,
    causality, work conservation, losslessness, and the WTP dispatch
    oracle at each hop) and the kernel runs through
    :meth:`~repro.sim.engine.Simulator.run_checked`.

    ``compiled_arrivals`` (default) drives all cross-traffic through one
    block-drawing :class:`~repro.traffic.compile.ArrivalCursor` -- the
    same gap/class draws as the scalar sources, but a single pending
    calendar entry for all K*C sources instead of one each.  A single
    cursor spans every hop so the shared packet-id allocator hands out
    ids in the same global arrival order as the scalar path.
    ``compiled_arrivals=False`` keeps per-source scalar emission.

    Only the user flows are measured, so the run stops as soon as every
    flow has recorded its F packets.  After each experiment's emission
    window (its launch plus F flow periods) the calendar advances one
    flow period per :meth:`~repro.sim.engine.Simulator.run` call, and
    the recorder is checked between calls, until every launched flow is
    recorded or the next launch comes.  After the last experiment an
    experiment still unfinished at the horizon is truncated.  Splitting
    the run is exact: at every run horizon the drain kernels and the
    cursor park with the calendar an evented run would hold (the
    re-entry contract in :mod:`repro.sim.engine`), so the stop point,
    the comparisons and ``hop_departures`` are the same in drained,
    evented and scalar-source runs.

    Idle-instant skips.  A *stretch* opens at the warm-up (time 0,
    every hop empty) and at each poll that finds every launched flow
    recorded before the next launch; it ends at that launch.  Each hop
    scans its cross arrivals ``a`` in the stretch in time order from
    its busy-until (the stretch start when idle, else its pending
    completion plus one service time ``d = packet_size / capacity``
    per queued packet): ``busy = a + d if a > busy else busy + d``.
    The last arrival with ``a > busy`` is the hop's resume instant, and
    :meth:`~repro.traffic.compile.ArrivalCursor.drop_before` drops the
    hop's arrivals before it.  Each dropped arrival departs its hop
    before the resume instant in the full run, so it is credited where
    that run counts it: the link's ``arrivals``, ``departures`` and
    ``bytes_sent``, one ``d`` of ``busy_time``, and the hop's
    ``FlowDemux.cross_packets`` and cross sink.  ``hop_departures``
    therefore equals the full run's, and ``hop_skipped`` reports the
    credited arrivals per hop.  The skip is exact by three facts:

    1. Cross traffic leaves after one hop (:class:`FlowDemux` to the
       cross sink), so user flows are the only traffic between hops,
       and none is in flight during a stretch.
    2. Every packet has ``config.packet_size``, so each completion is
       the previous completion, or the arrival that opened the busy
       period, plus the same ``d``, whatever the service order.  The
       scan's chained floats are therefore the kernel's, and with the
       strict test an arrival that ties the hop's last completion is
       never a resume instant.
    3. At the resume instant the hop is empty in both runs, because
       the skipping run holds a subset of the work, and a scheduler
       whose choices read only its queues evolves from there on its
       arrivals alone.  The cursor's one pending event reserves its
       sequence number at other points once arrivals are dropped, which
       can only reorder an exact float tie between a Pareto-drawn cross
       arrival and another event: the tie class the cursor already
       accepts against the scalar sources.

    The skip runs only where all three hold: cross traffic is compiled,
    the run is unchecked, and every hop's scheduler keeps both hooks as
    the base no-ops (``draingen.generated_drain_pair`` returns ``(None,
    None)``; see :mod:`repro.schedulers.base`).  The scalar-source and
    checked runs simulate every packet: they are the references the
    skip is tested against.  Dropped arrivals take no packet id, so
    later cross-traffic ids shift; no Table 1 output reads them.
    User-flow ids do not change.
    """
    sim = Simulator()
    streams = RandomStreams(config.seed)
    ids = PacketIdAllocator()
    recorder = FlowRecorder()

    # Build the chain back to front so each link knows its downstream.
    links: list[Link] = []
    downstream = recorder
    for hop in range(config.hops - 1, -1, -1):
        scheduler = make_scheduler(config.scheduler, config.sdps)
        demux = FlowDemux(downstream, PacketSink())
        link = Link(
            sim,
            scheduler,
            capacity=config.capacity,
            target=demux,
            name=f"hop{hop}",
            drain=config.drain_kernel,
        )
        links.append(link)
        downstream = link
    links.reverse()
    first_hop = links[0]

    # Cross-traffic: C sources per hop, each with Pareto gaps; rates
    # sized per hop so each link hits its own target utilization.
    cursor = ArrivalCursor(sim) if compiled_arrivals else None
    for hop, link in enumerate(links):
        gap = config.packet_size / config.cross_byte_rate_per_source_at(
            config.utilization_of_hop(hop)
        )
        for _ in range(config.cross_sources_per_hop):
            if cursor is not None:
                stream = CompiledMixedSource(
                    link,
                    ParetoInterarrivals(
                        gap, config.pareto_shape, streams.generator()
                    ),
                    config.class_mix,
                    config.packet_size,
                    streams.generator(),
                    ids=ids,
                )
                cursor.add(stream)
            else:
                source = MixedClassSource(
                    sim,
                    link,
                    ParetoInterarrivals(
                        gap, config.pareto_shape, streams.generator()
                    ),
                    config.class_mix,
                    config.packet_size,
                    streams.generator(),
                    ids=ids,
                )
                source.start()
    if cursor is not None:
        cursor.start()

    # User experiments: every experiment_period after warm-up, one flow
    # per class enters at the first hop simultaneously.
    launches = [
        config.warmup + experiment * config.experiment_period
        for experiment in range(config.experiments)
    ]
    flow_counter = 0
    experiment_flows: list[tuple[int, ...]] = []
    for start in launches:
        flow_ids = [0] * config.num_classes
        # Launch the higher class first: the flows' packets arrive at
        # identical instants, and same-instant events fire in insertion
        # order, so whoever is first grabs an idle server.  Every
        # scheduler here resolves same-waiting-time ties in favour of
        # the higher class; the launch order must not invert that.
        for class_id in range(config.num_classes - 1, -1, -1):
            flow = UserFlow(
                sim,
                first_hop,
                flow_id=flow_counter,
                class_id=class_id,
                num_packets=config.flow_packets,
                packet_size=config.packet_size,
                period=config.flow_period,
                first_packet_id=10_000_000 + flow_counter * 100_000,
            )
            flow.launch(start)
            flow_ids[class_id] = flow_counter
            flow_counter += 1
        experiment_flows.append(tuple(flow_ids))

    flow_duration = config.flow_packets * config.flow_period
    horizon = (
        config.warmup
        + config.experiments * config.experiment_period
        + flow_duration
        + config.drain
    )
    checkers = None
    run = sim.run
    if check_invariants:
        from ..invariants import InvariantChecker

        checkers = [InvariantChecker(link).attach() for link in links]
        run = sim.run_checked
    hop_skipped = [0] * config.hops
    skipping = (
        cursor is not None
        and checkers is None
        and all(
            draingen.generated_drain_pair(link.scheduler) == (None, None)
            for link in links
        )
    )
    service = config.packet_size / config.capacity

    def skip_to(end: float) -> None:
        """Drop every hop's cross arrivals before its last idle instant
        before ``end`` and credit them to the hop's counters."""
        scans = {}
        for link in links:
            busy = _busy_until(link, sim.now, service)
            if busy is not None:
                scans[link] = _idle_scan(busy, service)
        dropped = cursor.drop_before(end, scans)
        for hop, link in enumerate(links):
            n = dropped.get(link, 0)
            link.arrivals += n
            link.departures += n
            link.bytes_sent += n * config.packet_size
            link.busy_time += n * service
            link.target.cross_packets += n
            link.target.cross_sink.received += n
            hop_skipped[hop] += n

    if skipping and config.warmup > 0:
        skip_to(launches[0])  # the warm-up: every hop is empty at 0
    unfinished: list[int] = []
    for experiment, launch in enumerate(launches):
        unfinished += experiment_flows[experiment]
        last = experiment + 1 == config.experiments
        limit = horizon if last else launches[experiment + 1]
        # Poll from one flow period after the experiment's final
        # emission until every launched flow is recorded or ``limit``.
        until = launch + flow_duration
        while unfinished and until < limit:
            run(until=until)
            unfinished = [
                fid
                for fid in unfinished
                if recorder.packet_count(fid) < config.flow_packets
            ]
            until += config.flow_period
        if last:
            if unfinished:
                run(until=horizon)
        elif skipping and not unfinished:
            skip_to(limit)

    result = MultiHopResult(config=config)
    result.hop_departures = [link.departures for link in links]
    result.hop_skipped = hop_skipped
    if checkers is not None:
        result.invariants = [checker.finalize() for checker in checkers]
    for flow_ids in experiment_flows:
        delays = [recorder.flow_delays(fid) for fid in flow_ids]
        if any(len(d) < config.flow_packets for d in delays):
            # The drain window was too short for this experiment; skip it
            # rather than comparing truncated flows.
            result.truncated_experiments += 1
            continue
        result.comparisons.append(compare_flow_percentiles(delays))
    if result.truncated_experiments:
        warnings.warn(
            f"{result.truncated_experiments} of {config.experiments} user "
            f"experiments were truncated by the drain settle window "
            f"(drain={config.drain} ms) and excluded from the comparisons; "
            f"increase MultiHopConfig.drain to keep them",
            RuntimeWarning,
            stacklevel=2,
        )
    return result
