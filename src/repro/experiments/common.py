"""Shared single-hop experiment harness (Simulation Study A, Section 5).

One :class:`SingleHopConfig` describes a run: N classes of Pareto
traffic with the paper's trimodal packet sizes multiplexed onto one
link under a chosen scheduler.  :func:`run_single_hop` executes it and
returns measured per-class delays plus any requested interval monitors
and packet taps.

The harness generates the arrival *trace* first and replays it, for the
two reasons the paper's methodology needs: different schedulers can be
compared on identical arrivals (Figures 4/5), and the trace's FCFS
subset delays feed the Eq 7 feasibility verification that Section 3
prescribes for Figures 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.conservation import (
    conservation_residual,
    fcfs_mean_delay,
    subset_delay_function,
)
from ..core.ddp import ddps_from_sdps
from ..core.feasibility import FeasibilityReport, check_feasibility
from ..core.model import ProportionalDelayModel
from ..errors import ConfigurationError
from ..runner.hashing import fingerprint
from ..schedulers.base import Scheduler
from ..schedulers.registry import make_scheduler
from ..sim.engine import Simulator
from ..sim.link import Link, PacketSink
from ..sim.monitor import DelayMonitor, IntervalDelayMonitor, PacketTap
from ..sim.rng import RandomStreams
from ..traffic.mix import ClassLoadDistribution
from ..traffic.pareto import ParetoInterarrivals
from ..traffic.sizes import paper_trimodal_sizes
from ..traffic.trace import ArrivalTrace, TraceSource, build_class_trace, merge_traces
from ..units import PAPER_LINK_CAPACITY, PAPER_P_UNIT

if TYPE_CHECKING:
    from ..invariants import InvariantReport

__all__ = ["SingleHopConfig", "SingleHopResult", "generate_trace", "trace_key",
           "run_single_hop", "replay_through_scheduler"]


@dataclass(frozen=True)
class SingleHopConfig:
    """One single-link simulation run (paper defaults pre-filled)."""

    scheduler: str = "wtp"
    sdps: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    utilization: float = 0.95
    loads: ClassLoadDistribution = field(
        default_factory=lambda: ClassLoadDistribution((0.4, 0.3, 0.2, 0.1))
    )
    horizon: float = 1e6            # simulation time units (paper: 10^6)
    warmup: float = 5e4             # discarded start-up interval
    seed: int = 1
    capacity: float = PAPER_LINK_CAPACITY
    pareto_shape: float = 1.9
    #: Monitoring timescales tau, in time units, for interval monitors.
    interval_taus: tuple[float, ...] = ()
    #: (start, end) windows for per-packet taps.
    tap_windows: tuple[tuple[float, float], ...] = ()
    keep_samples: bool = False

    def __post_init__(self) -> None:
        if len(self.sdps) != self.loads.num_classes:
            raise ConfigurationError("one SDP per class required")
        if self.warmup >= self.horizon:
            raise ConfigurationError("warmup must be below the horizon")

    @property
    def num_classes(self) -> int:
        return self.loads.num_classes

    @property
    def p_unit(self) -> float:
        """Average packet transmission time on this link (time units)."""
        return paper_trimodal_sizes().mean / self.capacity


@dataclass
class SingleHopResult:
    """Measurements of one single-hop run."""

    config: SingleHopConfig
    trace: ArrivalTrace
    monitor: DelayMonitor
    interval_monitors: dict[float, IntervalDelayMonitor]
    taps: list[PacketTap]
    link_utilization: float
    #: What the runtime invariant checker verified (``None`` when the
    #: run executed unchecked).
    invariants: Optional[InvariantReport] = None

    @property
    def mean_delays(self) -> list[float]:
        return self.monitor.mean_delays()

    @property
    def successive_ratios(self) -> list[float]:
        """Measured d_i / d_{i+1} (the paper's Figure 1/2 points)."""
        return self.monitor.successive_ratios()

    def target_ratios(self) -> list[float]:
        """Ideal successive ratios s_{i+1} / s_i (Eq 13)."""
        sdps = self.config.sdps
        return [sdps[i + 1] / sdps[i] for i in range(len(sdps) - 1)]

    # ------------------------------------------------------------------
    # Paper-methodology audits
    # ------------------------------------------------------------------
    def fcfs_aggregate_delay(self) -> float:
        """d(lambda): FCFS mean delay of this very trace."""
        return fcfs_mean_delay(
            self.trace, self.config.capacity, self.config.warmup
        )

    def _active_classes(self) -> tuple[list[float], list[int]]:
        """Every class's arrival rate, and the ids of the classes that
        drew arrivals.  A class that drew none holds no backlog and adds
        nothing to either side of Eq 5 or Eq 7, so the audits range over
        the others, as ``verify_conservation_law`` does."""
        rates = self.trace.class_rates(
            self.config.horizon, self.config.num_classes
        )
        return rates, [cid for cid, rate in enumerate(rates) if rate > 0]

    def conservation_residual(self) -> float:
        """Relative Eq 5 residual of the measured class delays."""
        rates, active = self._active_classes()
        delays = self.mean_delays
        return conservation_residual(
            [rates[cid] for cid in active],
            [delays[cid] for cid in active],
            self.fcfs_aggregate_delay(),
        )

    def feasibility_report(
        self, relative_tolerance: float = 0.05
    ) -> FeasibilityReport:
        """Eq 7 check of this run's DDP target at this run's traffic.

        The tolerance is loose because subset delays are *measured*; the
        paper performs the identical check by simulating the FCFS
        server.  Eq 6 gives the classes that drew arrivals the same
        delays with or without the others; the report names subsets by
        class id.
        """
        ddps = ddps_from_sdps(self.config.sdps)
        rates, active = self._active_classes()
        subset_delay = subset_delay_function(
            self.trace, self.config.capacity, self.config.warmup
        )

        def ids(subset: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(active[i] for i in subset)

        delays = ProportionalDelayModel(ddps).class_delays(
            rates, subset_delay(tuple(active))
        )
        report = check_feasibility(
            [rates[cid] for cid in active],
            [delays[cid] for cid in active],
            lambda subset: subset_delay(ids(subset)),
            relative_tolerance,
        )
        report.margins = {ids(s): m for s, m in report.margins.items()}
        report.violations = [(ids(s), *sides) for s, *sides in report.violations]
        return report


#: The :class:`SingleHopConfig` fields :func:`generate_trace` reads.
_TRACE_FIELDS = (
    "seed", "utilization", "loads", "horizon", "capacity", "pareto_shape",
)


def trace_key(config: SingleHopConfig) -> str:
    """Identity of a config's generated arrival trace (short digest).

    Configs that differ only in fields :func:`generate_trace` never
    reads (scheduler, SDPs, warm-up, monitors, taps) share one key, so
    a sweep runner compiles their trace once
    (:func:`~repro.runner.runner.shared_trace`).
    """
    return fingerprint(
        {name: getattr(config, name) for name in _TRACE_FIELDS}
    )[:16]


def generate_trace(
    config: SingleHopConfig, compiled: bool = True
) -> ArrivalTrace:
    """Draw the per-class Pareto arrival trace for a config.

    The trace depends on exactly the :func:`trace_key` fields: seed,
    utilization, loads, horizon, capacity and pareto_shape.
    ``compiled`` selects block-drawn trace compilation (the default;
    bit-identical to the scalar loop, several times faster) or the
    scalar per-packet path for A/B comparison.
    """
    streams = RandomStreams(config.seed)
    sizes_mean = paper_trimodal_sizes().mean
    gaps = config.loads.mean_gaps(
        config.utilization, config.capacity, sizes_mean
    )
    per_class = []
    for class_id, gap in enumerate(gaps):
        interarrivals = ParetoInterarrivals(
            gap, config.pareto_shape, streams.generator()
        )
        sizes = paper_trimodal_sizes(streams.generator())
        per_class.append(
            build_class_trace(
                class_id, interarrivals, sizes, config.horizon,
                compiled=compiled,
            )
        )
    return merge_traces(per_class)


def replay_through_scheduler(
    trace: ArrivalTrace,
    scheduler: Scheduler,
    config: SingleHopConfig,
    check_invariants: bool = False,
    conservation_tolerance: float = 0.25,
) -> SingleHopResult:
    """Replay a trace through a scheduler and collect all measurements.

    With ``check_invariants`` the run is self-verifying: an
    :class:`~repro.invariants.InvariantChecker` attaches to the link,
    the kernel executes through
    :meth:`~repro.sim.engine.Simulator.run_checked`, and Kleinrock's
    conservation law (Eq 5) is checked post-run against the trace's
    FCFS reference delay within ``conservation_tolerance``.  Any
    violation raises :class:`~repro.errors.InvariantViolation`.
    """
    sim = Simulator()
    link = Link(sim, scheduler, config.capacity, target=PacketSink())
    monitor = DelayMonitor(
        config.num_classes, warmup=config.warmup, keep_samples=config.keep_samples
    )
    link.add_monitor(monitor)
    interval_monitors: dict[float, IntervalDelayMonitor] = {}
    for tau in config.interval_taus:
        interval = IntervalDelayMonitor(
            config.num_classes, tau=tau, warmup=config.warmup
        )
        interval_monitors[tau] = interval
        link.add_monitor(interval)
    taps = []
    for start, end in config.tap_windows:
        tap = PacketTap(config.num_classes, start, end)
        taps.append(tap)
        link.add_monitor(tap)

    source = TraceSource(sim, link, trace)
    source.start()
    checker = None
    if check_invariants:
        from ..invariants import InvariantChecker

        checker = InvariantChecker(link).attach()
        sim.run_checked(until=config.horizon)
    else:
        sim.run(until=config.horizon)
    for interval in interval_monitors.values():
        interval.finalize()
    invariants = None
    if checker is not None:
        from ..invariants import verify_conservation_law

        invariants = checker.finalize()
        invariants.conservation_residual = verify_conservation_law(
            trace.class_rates(config.horizon, config.num_classes),
            monitor.mean_delays(),
            fcfs_mean_delay(trace, config.capacity, config.warmup),
            tolerance=conservation_tolerance,
            sim_time=sim.now,
        )
    return SingleHopResult(
        config=config,
        trace=trace,
        monitor=monitor,
        interval_monitors=interval_monitors,
        taps=taps,
        link_utilization=link.utilization(config.horizon),
        invariants=invariants,
    )


def run_single_hop(
    config: SingleHopConfig,
    trace: Optional[ArrivalTrace] = None,
    check_invariants: bool = False,
) -> SingleHopResult:
    """Generate (or reuse) a trace and run it under ``config.scheduler``."""
    if trace is None:
        trace = generate_trace(config)
    scheduler = make_scheduler(config.scheduler, config.sdps)
    return replay_through_scheduler(
        trace, scheduler, config, check_invariants=check_invariants
    )
