"""Hybrid fluid/packet engine: fluid fast-forward between transients.

The paper's steady-state results describe exactly the regimes where
packet-by-packet simulation is the wrong altitude.  During a "boring"
interval -- no source onsets/offsets, no load-shape edges, no sustained
rate jump -- each link's *aggregate* behaviour is fully determined by
its arrival trace through the FCFS workload process, and the per-class
split is pinned by the conservation law:

    sum_i lambda_i * d_i = lambda * d(lambda)                    (Eq 5)

so a fluid segment needs no event loop at all.  One engine does this:
:class:`HybridController`, which drives a whole city cell through
alternating packet and fluid segments.

* **Aggregate (exact).**  The mean aggregate queueing delay over the
  segment is the Lindley recursion over the segment's arrivals
  (:func:`~repro.core.conservation.fcfs_waiting_times`) -- a vectorized
  O(n) numpy pass instead of ~n heap events, which is where the >=10x
  wall-clock comes from.  Carried-in backlog enters as one virtual
  arrival of the backlog's total bytes at the segment start, so the
  workload trajectory (including its terminal value, the carried-out
  backlog) is exact, not an ODE discretization.
* **Network-wide.**  A fluid segment covers *every* link of the cell's
  topology, walked in topological order: each link's departure
  process -- arrival time plus Lindley wait plus transmission time,
  exact for any work-conserving discipline because the aggregate
  workload process is discipline-independent -- becomes the arrival
  process of its downstream link, so one segment fast-forwards whole
  FlowDemux chains and fan-in DAGs in a single numpy pass per link.
  Carried backlogs are tracked per link and re-seeded per link at the
  fluid->packet handoff.
* **Per-class (model).**  The hub's aggregate mean is distributed
  across classes by a scheduler's *split map*, scaled so it satisfies
  Eq 5 exactly.  The maps form one closed table (``_SPLIT_MAPS``):
  equal delays for FCFS, inverse-SDP proportional delays for
  WTP/BPR/PAD/HPD (Eq 6, and the normalized-delay fixed point of Eq
  2/3), and GPS rate-guarantee congestion for DRR/SCFQ/WFQ
  (water-filled per-class service rates; see
  :func:`repro.schedulers.wfq.gps_fluid_rates`).  Strict priority uses
  the successive-subset decomposition (class-filtered Lindley replays,
  the Eq 7 telescope).  Once the run has packet-measured per-class
  means (the calibration spin-up), every map switches to *measured*
  split coefficients projected back onto Eq 5 -- self-calibrating to
  the scheduler's actual differentiation at the operating point.
* **Envelopes.**  Each fluid window's per-class means are cross-checked
  at the segment boundary against two analytic envelopes before being
  credited: the Multiclass-FIFO delay bound (Jiang & Misra: no class
  mean can exceed the worst aggregate wait plus a transmission, up to
  slack) and, for the rate-guarantee schedulers, the DRR/SCFQ
  guaranteed-rate bound (Mukherjee et al.: a class's mean cannot exceed
  its dedicated-rate Lindley mean plus one round, up to slack).  A
  violation *demotes* the segment: it re-runs in packet mode and the
  demotion is recorded in the controller timeline.
* **Arrival-free stretches** drain through the same Lindley replay: a
  link's carried backlog is its one virtual arrival, so the remaining
  total is exact at link capacity, and the carried class proportions
  are kept.

Packet mode runs the ordinary drain-kernel simulation on the real
topology around every transient: startup + warm-up + calibration,
guard bands at each envelope change point and load-shape edge, and any
stretch whose *predicted fluid error* -- the coefficient of variation
of the binned aggregate rate, a direct stationarity measure -- exceeds
the error-bound knob ``epsilon``.  ``epsilon = 0`` therefore forces
packet mode everywhere and the controller short-circuits to the
unmodified pure-packet path (bit-identical to an evented run by
construction; asserted in :mod:`tests.differential` for every
registered scheduler, single-hop and multihop).  ``epsilon`` is the
engine's one knob; the planner's timings are the module constants
below.

Handoff contract (see DESIGN.md):

* **packet -> fluid** happens at a *regeneration point*: the packet
  segment is extended past its planned boundary until every link goes
  idle (at rho < 1 busy periods end quickly), so the fluid segment
  starts from zero backlog network-wide -- an exact handoff.  If no
  idle instant appears within :data:`REGEN_WINDOW` (sustained
  overload), the per-class backlog of *each link* is read via
  :meth:`~repro.sim.link.Link.backlog_snapshot` and carried into the
  per-link fluid state.
* **fluid -> packet** symmetrically prefers a *network-wide* idle cut:
  the last external arrival instant near the boundary at which every
  link's Lindley walk has fully drained (all departures at or before
  the cut).  Arrivals from the cut on are deferred to the following
  packet segment, which then starts from genuinely empty queues.
  Without such a cut, each link's terminal fluid backlog is
  materialized as synthetic packets with backdated arrivals and
  injected through :meth:`~repro.sim.link.Link.seed_backlog` on that
  link.

Wiring: :func:`run_hybrid_city` runs one cell through a
:class:`HybridController`; :func:`repro.scenarios.city.city_summary`
calls it when the cell config carries a :class:`HybridConfig` with
``epsilon > 0``; ``repro.cli city --hybrid`` and the sweep runner flow
through that config field (which also lands in the runner cache
fingerprint automatically -- hybrid and pure cells never collide).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

# NOTE: repro.core.conservation and repro.schedulers.* are imported
# lazily inside the functions that use them: repro.core pulls in
# repro.traffic, which pulls in this package's __init__ -- a top-level
# import here would close that cycle during interpreter start-up.
from ..errors import ConfigurationError
from .engine import Simulator
from .monitor import DelayMonitor
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.city import CityScenarioConfig
    from ..traffic.trace import ArrivalTrace

__all__ = [
    "FLUID_SCHEDULERS",
    "ENVELOPE_SLACK",
    "HybridConfig",
    "Segment",
    "FluidSplitContext",
    "fluid_split",
    "check_fluid_envelopes",
    "plan_segments",
    "HybridController",
    "run_hybrid_city",
]

#: Packet-measured samples per class required before the calibrated
#: (measured-split) fluid map replaces the analytic one.
_CALIBRATION_SAMPLES = 50

#: Multiplicative slack on the analytic fluid-segment envelopes: the
#: bounds certify the *model*, not the sample path, so they only need
#: to catch split maps that have drifted wildly off the conservation
#: law, not shave the last factor of two.
ENVELOPE_SLACK = 4.0

#: Schedulers whose fluid map rests on a per-class rate guarantee and
#: therefore gets the DRR/SCFQ guaranteed-rate envelope check.
_RATE_GUARANTEE_SCHEDULERS = ("drr", "scfq", "wfq")

# Planner timings, in the scenario's time unit (ms).
#: Envelope bin width for rate estimation and transient detection.
BIN_WIDTH = 250.0
#: Relative aggregate-rate jump flagged as a transient.
RATE_JUMP = 0.25
#: Packet-mode guard band on each side of every transient.
GUARD = 500.0
#: Packet-mode calibration span after warm-up (measures the per-class
#: split the calibrated fluid map projects onto Eq 5).
SPINUP = 2000.0
#: Minimum span worth switching to fluid for.
MIN_FLUID = 2000.0
#: How far past a boundary to search for an idle regeneration instant
#: before falling back to backlog seeding.
REGEN_WINDOW = 500.0


@dataclass(frozen=True)
class HybridConfig:
    """The hybrid engine's one knob.

    ``epsilon`` is the error bound: a candidate fluid stretch runs in
    fluid mode only when its predicted error -- the coefficient of
    variation of the binned aggregate arrival rate, a stationarity
    proxy validated against full packet-level golden runs -- stays at
    or below ``epsilon``.  ``epsilon = 0`` rejects every stretch and
    the run short-circuits to the unmodified pure-packet path.
    """

    epsilon: float = 0.05

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ConfigurationError(
                f"epsilon must be non-negative: {self.epsilon}"
            )


@dataclass(frozen=True)
class Segment:
    """One planned interval of the run, in one mode."""

    start: float
    end: float
    mode: str  # "packet" | "fluid"

    @property
    def span(self) -> float:
        return self.end - self.start


# ----------------------------------------------------------------------
# Fluid split maps (Eq 5)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FluidSplitContext:
    """What a fluid split map conditions on for one window: the SDPs,
    the per-class offered byte mass, the window's span and the link
    capacity."""

    sdps: tuple[float, ...]
    class_bytes: tuple[float, ...]
    span: float
    capacity: float


def _uniform_map(ctx: FluidSplitContext) -> list[float]:
    """FCFS: one shared queueing delay."""
    return [1.0] * len(ctx.sdps)


def _inverse_sdp_map(ctx: FluidSplitContext) -> list[float]:
    """Eq 6's proportional model: d_i proportional to 1/s_i."""
    return [1.0 / s for s in ctx.sdps]


def _gps_congestion_map(ctx: FluidSplitContext) -> list[float]:
    """Capacity differentiation (DRR/SCFQ/WFQ) has no delay knob
    (Section 2.1), so the split follows from the rate guarantee alone:
    class ``i`` is an M/G/1-like server at its GPS water-filled rate
    ``r_i``, whose congestion ``rho_i / (1 - rho_i)`` with
    ``rho_i = lambda_i / r_i`` sets the *relative* delay."""
    from ..schedulers.wfq import gps_fluid_rates

    weights = ctx.sdps
    if sum(ctx.class_bytes) <= 0:
        return [1.0] * len(weights)
    demands = [b / ctx.span for b in ctx.class_bytes]
    rates = gps_fluid_rates(weights, demands, ctx.capacity)
    coeffs = []
    for lam, rate in zip(demands, rates):
        if lam <= 0 or rate <= 0:
            coeffs.append(0.0)
            continue
        rho = min(lam / rate, 0.97)
        coeffs.append(rho / (1.0 - rho))
    return coeffs


#: Scheduler name -> (split map, calibration weight).  A map returns one
#: non-negative relative delay coefficient per class; the weight in
#: ``[0, 1]`` is how far packet-measured splits override the map once
#: calibration samples exist (see :func:`fluid_split`).
#:
#: * WTP approaches the proportional model in heavy load and BPR hits
#:   it exactly in the fluid limit (Proposition 1).
#: * PAD's feedback loop drives every class's normalized average delay
#:   ``s_i * d_i`` (Eq 2's form of the Eq 3 target) to a common value,
#:   so its stationary fixed point is the proportional model at every
#:   load, not just in heavy load.  Its packet-mode calibration
#:   samples are taken while its running averages re-converge after
#:   each fresh packet segment, which biases them: weight 0.25 keeps
#:   the measurement a refinement of the model, not a replacement.
#: * HPD blends WTP's head-wait metric and PAD's normalized average;
#:   both target the same fixed point, so the blend ``g`` only shapes
#:   transients.
#: * DRR's byte quanta are proportional to the weights, so in the fluid
#:   limit its shares coincide with GPS water-filling, like SCFQ's
#:   (Shreedhar & Varghese, tightened by Mukherjee et al.): the round
#:   granularity moves the delay *bound* by one round, not the rate a
#:   backlogged class sustains.  The congestion model is only a cold
#:   start, so the measurement replaces it outright.
_SPLIT_MAPS: dict[str, tuple[Callable[[FluidSplitContext], list], float]] = {
    "fcfs": (_uniform_map, 1.0),
    "wtp": (_inverse_sdp_map, 1.0),
    "bpr": (_inverse_sdp_map, 1.0),
    "pad": (_inverse_sdp_map, 0.25),
    "hpd": (_inverse_sdp_map, 1.0),
    "drr": (_gps_congestion_map, 1.0),
    "scfq": (_gps_congestion_map, 1.0),
    "wfq": (_gps_congestion_map, 1.0),
}

#: Scheduler names that can take fluid segments: every split map, plus
#: strict priority's successive-subset decomposition.
FLUID_SCHEDULERS = tuple(sorted([*_SPLIT_MAPS, "strict"]))


def fluid_split(
    scheduler: str,
    sdps: Sequence[float],
    counts: Sequence[int],
    d_agg: float,
    calibration: Optional[Sequence[float]] = None,
    *,
    class_bytes: Sequence[float],
    span: float,
    capacity: float,
) -> list[float]:
    """Per-class mean delays satisfying Eq 5 for a stationary window.

    The aggregate mean ``d_agg`` (exact, from the Lindley replay) is
    split as ``d_i = c_i * K`` with ``K`` chosen so that
    ``sum_i n_i d_i = n * d_agg`` holds exactly.  The split
    coefficients ``c_i`` are the *measured* per-class means when a
    calibration vector is supplied (projecting the scheduler's actual
    differentiation onto the conservation law), else come from the
    scheduler's split map in ``_SPLIT_MAPS``.

    A calibration weight below 1 shrinks the measured coefficients
    toward the map's analytic shape; 1 trusts the measurement outright.

    Strict priority has no rate-free split; the controller handles it
    with successive subsets (``_strict_subset_delays``).
    """
    if scheduler == "strict":
        raise ConfigurationError(
            "strict priority needs the successive-subset map, not a "
            "split coefficient vector"
        )
    entry = _SPLIT_MAPS.get(scheduler.lower())
    if entry is None:
        raise ConfigurationError(
            f"no fluid map for scheduler {scheduler!r}; "
            f"supported: {FLUID_SCHEDULERS}"
        )
    if len(counts) != len(sdps):
        raise ConfigurationError("one arrival count per class required")
    split_map, weight = entry
    ctx = FluidSplitContext(
        sdps=tuple(float(s) for s in sdps),
        class_bytes=tuple(float(b) for b in class_bytes),
        span=span,
        capacity=capacity,
    )
    if calibration is not None:
        coeffs = [float(c) for c in calibration]
        if len(coeffs) != len(sdps) or any(
            not math.isfinite(c) or c <= 0 for c in coeffs
        ):
            raise ConfigurationError(
                f"calibration must be positive and finite per class: {coeffs}"
            )
        if weight < 1.0:
            # Shrink the measured shape toward the analytic prior.  Both
            # vectors are normalized to a count-weighted mean of one so
            # the blend mixes *shapes*; the absolute scale is re-imposed
            # by Eq 5 below either way.
            analytic = split_map(ctx)
            total = sum(counts)
            m_norm = sum(n * c for n, c in zip(counts, coeffs))
            a_norm = sum(n * c for n, c in zip(counts, analytic))
            if total > 0 and m_norm > 0 and a_norm > 0:
                coeffs = [
                    weight * (c * total / m_norm)
                    + (1.0 - weight) * (a * total / a_norm)
                    for c, a in zip(coeffs, analytic)
                ]
    else:
        coeffs = split_map(ctx)
    weighted = sum(n * c for n, c in zip(counts, coeffs))
    total = sum(counts)
    if total == 0 or weighted <= 0:
        return [math.nan] * len(sdps)
    scale = total * d_agg / weighted
    return [c * scale for c in coeffs]


# ----------------------------------------------------------------------
# Envelope cross-checks (fluid-segment sanity bounds)
# ----------------------------------------------------------------------
def check_fluid_envelopes(
    scheduler: str,
    sdps: Sequence[float],
    delays: Sequence[float],
    counts: Sequence[int],
    waits: np.ndarray,
    times: np.ndarray,
    class_ids: np.ndarray,
    sizes: np.ndarray,
    capacity: float,
    span: float,
) -> Optional[str]:
    """Cross-check a fluid window's per-class means against analytic
    delay envelopes; return a violation description or ``None``.

    Two bounds, both with :data:`ENVELOPE_SLACK` headroom:

    * **Multiclass-FIFO delay bound** (Jiang & Misra): under any
      work-conserving discipline no class's queueing delay can exceed
      the worst aggregate backlog the window ever built, i.e.
      ``d_i <= max_k W_k + S_max / C``.  A split map whose
      differentiated mean escapes that certifies a broken coefficient
      vector, not heavy load.
    * **Rate-guarantee bound** (Mukherjee et al., DRR/SCFQ): a class
      served at a guaranteed rate ``r_i`` (GPS water-filled share,
      which is what DRR's quanta and SCFQ's weights implement) waits no
      more than its own dedicated-rate Lindley mean plus one service
      round.  Checked only for the rate-guarantee schedulers.

    Both are *model* checks at the segment boundary: a violation means
    the analytic split drifted off the physically possible region, and
    the caller demotes the segment to packet mode.
    """
    from ..core.conservation import fcfs_waiting_times

    live = [
        (cid, float(d))
        for cid, (d, n) in enumerate(zip(delays, counts))
        if n and math.isfinite(d)
    ]
    if not live or not len(waits):
        return None
    max_service = float(sizes.max()) / capacity if len(sizes) else 0.0
    fifo_bound = ENVELOPE_SLACK * (float(waits.max()) + max_service)
    worst_cid, worst = max(live, key=lambda item: item[1])
    if fifo_bound > 0 and worst > fifo_bound:
        return (
            f"multiclass-fifo bound: class {worst_cid} mean {worst:.4g} "
            f"> {fifo_bound:.4g} (slack x (max wait + max service))"
        )
    if scheduler.lower() in _RATE_GUARANTEE_SCHEDULERS and span > 0:
        from ..schedulers.wfq import gps_fluid_rates

        demands = [
            float(sizes[class_ids == cid].sum()) / span
            for cid in range(len(sdps))
        ]
        rates = gps_fluid_rates(sdps, demands, capacity)
        round_time = len(sdps) * max_service
        for cid, d in live:
            rate = rates[cid]
            if rate <= 0:
                continue
            mask = class_ids == cid
            dedicated = fcfs_waiting_times(times[mask], sizes[mask], rate)
            bound = ENVELOPE_SLACK * (
                float(dedicated.mean()) + round_time + max_service
            )
            if bound > 0 and d > bound:
                return (
                    f"rate-guarantee bound: class {cid} mean {d:.4g} "
                    f"> {bound:.4g} (slack x (dedicated-rate Lindley mean "
                    f"+ round))"
                )
    return None


# ----------------------------------------------------------------------
# Fluid window evaluation
# ----------------------------------------------------------------------
def _terminal_workload(
    times: np.ndarray, sizes: np.ndarray, capacity: float, end: float
) -> float:
    """Unfinished work (time units) of a FCFS server at ``end``.

    ``V(end) = max(0, max_k (sum_{j>=k} S_j / C - (end - t_k)))`` --
    the reversed-cumsum dual of the Lindley walk, exact for any
    work-conserving discipline (the workload process is
    discipline-independent).
    """
    if not len(times):
        return 0.0
    tail_work = np.cumsum((sizes / capacity)[::-1])[::-1]
    return float(max(0.0, (tail_work - (end - times)).max()))


def _strict_subset_delays(
    times: np.ndarray,
    class_ids: np.ndarray,
    sizes: np.ndarray,
    num_classes: int,
    capacity: float,
    start: float,
    carried: Sequence[float],
) -> list[float]:
    """Strict-priority per-class means via successive subsets (Eq 7).

    Higher class id preempts lower (non-preemptively) here, so class
    ``i`` sees exactly the FCFS system of classes ``>= i``:
    ``n_i d_i = R_{>=i} - R_{>i}`` with ``R_{>=i}`` the total wait of
    the subset replay -- Eq 5 holds per subset, so the per-class
    telescope is conservation-exact by construction.
    """
    from ..core.conservation import fcfs_waiting_times

    totals = [0.0] * (num_classes + 1)
    for lowest in range(num_classes - 1, -1, -1):
        mask = class_ids >= lowest
        sub_times = times[mask]
        sub_sizes = sizes[mask]
        carried_sub = sum(carried[lowest:])
        if carried_sub > 0:
            sub_times = np.concatenate(([start], sub_times))
            sub_sizes = np.concatenate(([carried_sub], sub_sizes))
            waits = fcfs_waiting_times(sub_times, sub_sizes, capacity)[1:]
        else:
            waits = fcfs_waiting_times(sub_times, sub_sizes, capacity)
        totals[lowest] = float(waits.sum())
    counts = np.bincount(class_ids, minlength=num_classes)
    delays = []
    for cid in range(num_classes):
        if counts[cid]:
            # Clamp: subset totals are each exact but their difference
            # can go slightly negative on near-empty classes.
            delays.append(max(totals[cid] - totals[cid + 1], 0.0) / counts[cid])
        else:
            delays.append(math.nan)
    return delays


def _split_backlog(
    total_bytes: float,
    counts: Sequence[int],
    sizes: np.ndarray,
    class_ids: np.ndarray,
    delays: Sequence[float],
    carried: Sequence[float],
    num_classes: int,
) -> list[float]:
    """Per-class composition of a terminal backlog (Little's-law split:
    waiting bytes of class i scale with its byte rate times its delay;
    falls back to the carried proportions, then uniform)."""
    if total_bytes <= 0:
        return [0.0] * num_classes
    weights = []
    for cid in range(num_classes):
        byte_mass = float(sizes[class_ids == cid].sum()) if counts[cid] else 0.0
        d = delays[cid]
        weights.append(byte_mass * d if byte_mass and math.isfinite(d) else 0.0)
    if sum(weights) <= 0:
        weights = [float(q) for q in carried]
    if sum(weights) <= 0:
        weights = [1.0] * num_classes
    scale = total_bytes / sum(weights)
    return [w * scale for w in weights]


# ----------------------------------------------------------------------
# Segment planner
# ----------------------------------------------------------------------
def plan_segments(
    horizon: float,
    warmup: float,
    hybrid: HybridConfig,
    transients: Sequence[float],
    predicted_error: Callable[[float, float], float],
    report: Optional[list[dict]] = None,
) -> list[Segment]:
    """Alternating packet/fluid plan for ``[0, horizon)``.

    Packet mode is forced on ``[0, warmup + SPINUP]`` (startup +
    warm-up edge + calibration) and on ``GUARD``-wide bands around
    every transient; the gaps between forced intervals become fluid
    *candidates*, accepted only when they span at least ``MIN_FLUID``
    and ``predicted_error(t0, t1) <= epsilon``.  With ``epsilon = 0``
    the single returned segment is pure packet.

    When ``report`` is a list, one dict per candidate gap is appended
    describing its verdict -- ``accepted`` plus, for rejections, the
    ``reason`` (too short vs ``min_fluid``, or predicted error above
    ``epsilon``); the controller's summary carries it as ``gaps``.
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive: {horizon}")
    whole = [Segment(0.0, horizon, "packet")]
    if hybrid.epsilon <= 0:
        return whole
    forced: list[tuple[float, float]] = [
        (0.0, min(horizon, warmup + SPINUP))
    ]
    for t in sorted(transients):
        if 0.0 < t < horizon:
            forced.append((max(0.0, t - GUARD), min(horizon, t + GUARD)))
    forced.sort()
    merged = [list(forced[0])]
    for lo, hi in forced[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])

    segments: list[Segment] = []
    cursor = 0.0
    boundaries = merged + [[horizon, horizon]]
    for lo, hi in boundaries:
        if cursor < lo:  # gap between forced intervals: fluid candidate
            span = lo - cursor
            if span < MIN_FLUID:
                accept = False
                reason = (
                    f"gap [{cursor:g}, {lo:g}) spans {span:g} "
                    f"< min_fluid {MIN_FLUID:g}"
                )
            else:
                err = predicted_error(cursor, lo)
                accept = err <= hybrid.epsilon
                reason = (
                    ""
                    if accept
                    else (
                        f"gap [{cursor:g}, {lo:g}) predicted error "
                        f"{err:.4f} > epsilon {hybrid.epsilon:g}"
                    )
                )
            if report is not None:
                report.append(
                    {
                        "start": cursor,
                        "end": lo,
                        "span": span,
                        "accepted": accept,
                        "reason": reason,
                    }
                )
            segments.append(Segment(cursor, lo, "fluid" if accept else "packet"))
        cursor = max(cursor, min(hi, horizon))
        if cursor < horizon and hi >= lo and lo < horizon:
            start = max(lo, segments[-1].end if segments else 0.0)
            if start < cursor:
                segments.append(Segment(start, cursor, "packet"))
        if cursor >= horizon:
            break
    if not segments or segments[-1].end < horizon:
        segments.append(
            Segment(segments[-1].end if segments else 0.0, horizon, "packet")
        )
    # Coalesce adjacent same-mode segments.
    out: list[Segment] = []
    for seg in segments:
        if seg.span <= 0:
            continue
        if out and out[-1].mode == seg.mode and out[-1].end == seg.start:
            out[-1] = Segment(out[-1].start, seg.end, seg.mode)
        else:
            out.append(seg)
    return out or whole


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
@dataclass
class _LinkFlux:
    """One link's evaluated fluid state within a window."""

    times: np.ndarray
    class_ids: np.ndarray
    sizes: np.ndarray
    phantom: np.ndarray  # True for carried-backlog bytes relayed downstream
    waits: np.ndarray
    departures: np.ndarray
    lindley_times: np.ndarray
    lindley_sizes: np.ndarray
    carried_total: float


class HybridController:
    """Drives one city cell through alternating packet/fluid segments.

    Network-wide: fluid segments cover *every* link of the topology
    (:func:`repro.scenarios.generators.city_link_graph`), propagating
    each link's fluid departure process into its downstream link, with
    per-link carried backlogs at the handoffs.  Owns the run's single
    :class:`DelayMonitor`: packet segments build a fresh topology (so
    no stale calendar state crosses a handoff) and attach it to the
    hub; fluid segments credit the hub's Eq 5 class means into the
    same streaming stats.
    """

    def __init__(
        self,
        config: "CityScenarioConfig",
        traces: Sequence["ArrivalTrace"],
    ) -> None:
        from ..scenarios.generators import city_link_graph

        hybrid = config.hybrid
        if hybrid is None:
            raise ConfigurationError("config.hybrid must be set")
        name = config.scheduler
        if hybrid.epsilon > 0 and name != "strict" and (
            name.lower() not in _SPLIT_MAPS
        ):
            raise ConfigurationError(
                f"no fluid map for scheduler {name!r}; supported: "
                f"{FLUID_SCHEDULERS}; set epsilon=0 for pure packet"
            )
        self.config = config
        self.hybrid = hybrid
        self.traces = list(traces)
        self.graph = city_link_graph(config)
        self.hub_index = len(self.graph) - 1
        self.capacity = self.graph[self.hub_index].capacity
        self.monitor = DelayMonitor(config.num_classes, warmup=config.warmup)
        self.timeline: list[dict] = []
        self.demotions: list[dict] = []
        self.gap_reports: list[dict] = []
        self.packet_departures = 0
        self.fluid_credited = 0
        self.seeded_packets = 0
        self._carried: list[list[float]] = [
            [0.0] * config.num_classes for _ in self.graph
        ]
        # Packet-measured-only accumulators: calibration must come from
        # real departures, not from earlier fluid credits (which would
        # make the split model self-referential).
        self._packet_counts = [0] * config.num_classes
        self._packet_totals = [0.0] * config.num_classes
        self._last_delays: list[float] = [math.nan] * config.num_classes
        self._hub_trace: Optional["ArrivalTrace"] = None
        self._seed_serial = 0

    # -- derived inputs -------------------------------------------------
    @property
    def hub_trace(self) -> "ArrivalTrace":
        """All branch traces merged: the cell's offered arrival stream."""
        if self._hub_trace is None:
            from ..traffic.trace import ArrivalTrace, merge_traces

            live = [t for t in self.traces if len(t)]
            if live:
                self._hub_trace = merge_traces(live)
            else:
                empty = np.empty(0)
                self._hub_trace = ArrivalTrace(
                    empty, np.empty(0, dtype=np.int64), empty.copy()
                )
        return self._hub_trace

    def plan(self, horizon: float) -> list[Segment]:
        """The segment plan for this cell (envelope-driven)."""
        from ..traffic.compile import RateEnvelope

        trace = self.hub_trace
        envelope = RateEnvelope.from_arrays(
            trace.times, trace.class_ids, trace.sizes,
            horizon, BIN_WIDTH, self.config.num_classes,
        )
        agg = envelope.aggregate_byte_rates()
        edges = envelope.edges

        def predicted_error(t0: float, t1: float) -> float:
            # Coefficient of variation of the window's aggregate byte
            # rate over ~8 coarse chunks.  Coarse on purpose: the
            # aggregate inside a fluid window is an *exact* Lindley
            # replay, so fine-timescale burstiness costs nothing --
            # only macroscopic rate drift (non-stationarity) degrades
            # the per-class split model, and that is what chunk-scale
            # CV measures, independent of the envelope bin width.
            lo = bisect_right(edges.tolist(), t0) - 1
            hi = max(lo + 1, bisect_left(edges.tolist(), t1))
            window = agg[max(lo, 0) : hi]
            if not len(window):
                return 0.0  # an idle stretch drains analytically
            chunks = np.array_split(window, min(8, len(window)))
            means = np.array([float(chunk.mean()) for chunk in chunks])
            grand = float(means.mean())
            if grand <= 0:
                return 0.0
            return float(means.std()) / grand

        transients = list(envelope.change_points(RATE_JUMP))
        transients.extend(self.config.load_shape.transient_edges(horizon))
        report: list[dict] = []
        segments = plan_segments(
            horizon, self.config.warmup, self.hybrid, transients,
            predicted_error, report=report,
        )
        self.gap_reports = report
        return segments

    # -- run ------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> "HybridController":
        """Execute the plan up to ``until`` (default: the horizon)."""
        horizon = self.config.horizon if until is None else min(
            until, self.config.horizon
        )
        plan = self.plan(horizon)
        cursor = 0.0
        for index, segment in enumerate(plan):
            if cursor >= segment.end:
                continue
            start = max(cursor, segment.start)
            next_is_fluid = (
                index + 1 < len(plan) and plan[index + 1].mode == "fluid"
            )
            if segment.mode == "fluid":
                handoff = self._run_fluid(start, segment.end)
                if handoff is None:  # envelope demotion
                    cursor = self._run_packet(start, segment.end, next_is_fluid)
                else:
                    cursor = handoff
            else:
                cursor = self._run_packet(start, segment.end, next_is_fluid)
        return self

    # -- packet segments ------------------------------------------------
    def _run_packet(self, start: float, end: float, seek_regen: bool) -> float:
        """One packet-mode segment on a fresh topology; returns the
        actual handoff time (``end``, or the idle instant past it)."""
        from ..scenarios.generators import build_city_topology
        from ..traffic.trace import ArrivalTrace, TraceSource

        config = self.config
        sim = Simulator()
        entries, links, hub = build_city_topology(sim, config)
        hub.add_monitor(self.monitor)

        for idx, spec in enumerate(self.graph):
            carried = self._carried[idx]
            if sum(carried) <= 0:
                continue
            hints = (
                self._last_delays
                if idx == self.hub_index
                else [sum(carried) / spec.capacity] * config.num_classes
            )
            seeds = self._build_seeds(start, carried, hints, spec.capacity)
            if seeds:
                sim.schedule(start, links[idx].seed_backlog, seeds)
        # Feed each branch its slice; extend past the boundary by the
        # regeneration search window so the handoff has live traffic.
        feed_end = end + (REGEN_WINDOW if seek_regen else 0.0)
        fed = 0
        for branch, trace in enumerate(self.traces):
            lo = int(np.searchsorted(trace.times, start, side="left"))
            hi = int(np.searchsorted(trace.times, feed_end, side="left"))
            if hi <= lo:
                continue
            piece = ArrivalTrace(
                trace.times[lo:hi], trace.class_ids[lo:hi], trace.sizes[lo:hi]
            )
            TraceSource(
                sim, entries[branch], piece,
                first_packet_id=branch * 10_000_000,
            ).start()
            fed += hi - lo

        departures_before = hub.departures
        stats_before = [
            (s.count, s.total) for s in self.monitor.stats
        ]
        sim.run(until=end)
        handoff = end
        self._carried = [[0.0] * config.num_classes for _ in self.graph]
        if seek_regen:
            deadline = end + REGEN_WINDOW
            while any(link.busy for link in links):
                key = sim.peek_key()
                if key is None or key[0] > deadline:
                    break
                sim.step()
            if any(link.busy for link in links):
                # No regeneration point: read each link's backlog out.
                handoff = max(sim.now, end)
                for idx, link in enumerate(links):
                    self._carried[idx] = list(link.backlog_snapshot(handoff))
            else:
                handoff = max(sim.now, end)
        self.packet_departures += hub.departures - departures_before
        for cid, (count0, total0) in enumerate(stats_before):
            stats = self.monitor.stats[cid]
            self._packet_counts[cid] += stats.count - count0
            self._packet_totals[cid] += stats.total - total0
        self.timeline.append(
            {
                "mode": "packet",
                "start": start,
                "end": handoff,
                "arrivals": fed,
                "seeded": self._seed_serial,
            }
        )
        return handoff

    def _build_seeds(
        self,
        start: float,
        carried: Sequence[float],
        delay_hints: Sequence[float],
        capacity: float,
    ) -> list[Packet]:
        """Materialize one link's carried fluid backlog as synthetic
        packets.

        Per class, the backlog becomes ``round(q / mean_size)`` equal
        packets whose arrival stamps are backdated over the class's
        estimated delay -- the age profile a FIFO queue in steady state
        would show -- so head-age schedulers resume with sane
        priorities and the seeds' measured delays reproduce the fluid
        estimate they came from.
        """
        trace = self.hub_trace
        packets: list[Packet] = []
        for cid, backlog in enumerate(carried):
            if backlog <= 0:
                continue
            class_sizes = trace.sizes[trace.class_ids == cid]
            mean_size = float(class_sizes.mean()) if len(class_sizes) else 1000.0
            count = max(1, int(round(backlog / mean_size)))
            size = backlog / count
            est = delay_hints[cid]
            if not math.isfinite(est) or est <= 0:
                est = backlog / capacity
            for k in range(count):
                arrived = start - est + est * (k + 1.0) / (count + 1.0)
                packet = Packet(
                    packet_id=990_000_000 + self._seed_serial,
                    class_id=cid,
                    size=size,
                    created_at=arrived,
                )
                self._seed_serial += 1
                packets.append(packet)
        packets.sort(key=lambda p: p.arrived_at)
        self.seeded_packets += len(packets)
        return packets

    # -- fluid segments -------------------------------------------------
    def _calibration(self) -> Optional[list[float]]:
        """Measured per-class means, once every class has enough
        packet-mode samples to trust.  Only *packet-measured*
        departures count: folding earlier fluid credits back in would
        calibrate the split model against itself."""
        if all(n >= _CALIBRATION_SAMPLES for n in self._packet_counts):
            means = [
                total / n
                for total, n in zip(self._packet_totals, self._packet_counts)
            ]
            if all(math.isfinite(m) and m > 0 for m in means):
                return means
        return None

    def _evaluate_links(
        self, start: float, end: float
    ) -> tuple[list[_LinkFlux], np.ndarray]:
        """Walk the link graph in topological order, turning each
        link's Lindley departure process into its downstream link's
        arrival process.  Returns per-link flux plus the merged
        external arrival times (the regeneration-cut candidates).

        Bytes are conserved across the walk: departures at or after
        ``end`` stay in the upstream link's terminal backlog (they have
        not reached the next queue yet), and carried-in backlog drains
        downstream as *phantom* arrivals -- real bytes that must load
        the downstream Lindley walk but were already credited (or
        seeded) in an earlier segment, so the hub excludes them from
        the per-class delay statistics.
        """
        from ..core.conservation import fcfs_waiting_times

        span = end - start
        pieces: list[list[tuple]] = [[] for _ in self.graph]
        ext_times: list[np.ndarray] = []
        for idx, spec in enumerate(self.graph):
            for b in spec.branches:
                tr = self.traces[b]
                lo = int(np.searchsorted(tr.times, start, side="left"))
                hi = int(np.searchsorted(tr.times, end, side="left"))
                if hi > lo:
                    pieces[idx].append(
                        (
                            tr.times[lo:hi],
                            tr.class_ids[lo:hi],
                            tr.sizes[lo:hi],
                            None,
                        )
                    )
                    ext_times.append(tr.times[lo:hi])

        fluxes: list[_LinkFlux] = []
        for idx, spec in enumerate(self.graph):
            parts = pieces[idx]
            if parts:
                times = np.concatenate([p[0] for p in parts])
                cids = np.concatenate([p[1] for p in parts])
                sizes = np.concatenate([p[2] for p in parts])
                phantom = np.concatenate(
                    [
                        p[3]
                        if p[3] is not None
                        else np.zeros(len(p[0]), dtype=bool)
                        for p in parts
                    ]
                )
                if len(parts) > 1:
                    order = np.argsort(times, kind="stable")
                    times = times[order]
                    cids = cids[order]
                    sizes = sizes[order]
                    phantom = phantom[order]
            else:
                times = np.empty(0)
                cids = np.empty(0, dtype=np.int64)
                sizes = np.empty(0)
                phantom = np.empty(0, dtype=bool)

            carried = self._carried[idx]
            carried_total = float(sum(carried))
            if carried_total > 0:
                lt = np.concatenate(([start], times))
                ls = np.concatenate(([carried_total], sizes))
                offset = 1
            else:
                lt = times
                ls = sizes
                offset = 0
            waits_all = (
                fcfs_waiting_times(lt, ls, spec.capacity)
                if len(lt)
                else np.empty(0)
            )
            waits = waits_all[offset:]
            deps = (
                times + waits + sizes / spec.capacity
                if len(times)
                else np.empty(0)
            )
            fluxes.append(
                _LinkFlux(
                    times=times,
                    class_ids=cids,
                    sizes=sizes,
                    phantom=phantom,
                    waits=waits,
                    departures=deps,
                    lindley_times=lt,
                    lindley_sizes=ls,
                    carried_total=carried_total,
                )
            )
            if spec.downstream is None:
                continue
            # Departures within the window feed the downstream link;
            # later ones remain in this link's terminal backlog.
            if len(times):
                mask = deps < end
                if mask.any():
                    pieces[spec.downstream].append(
                        (deps[mask], cids[mask], sizes[mask], phantom[mask])
                    )
            if carried_total > 0:
                # Carried bytes sit at the head of the FCFS order, so
                # exactly min(carried, span * C) of them drain into the
                # downstream link during the window.
                drained = min(carried_total, span * spec.capacity)
                if drained > 0:
                    vdep = min(
                        start + carried_total / spec.capacity,
                        np.nextafter(end, start),
                    )
                    frac = drained / carried_total
                    pt, pc, ps = [], [], []
                    for cid, q in enumerate(carried):
                        if q > 0:
                            pt.append(vdep)
                            pc.append(cid)
                            ps.append(q * frac)
                    pieces[spec.downstream].append(
                        (
                            np.asarray(pt),
                            np.asarray(pc, dtype=np.int64),
                            np.asarray(ps),
                            np.ones(len(pt), dtype=bool),
                        )
                    )
        merged_ext = (
            np.sort(np.concatenate(ext_times)) if ext_times else np.empty(0)
        )
        return fluxes, merged_ext

    def _find_network_cut(
        self, fluxes: list[_LinkFlux], ext_times: np.ndarray,
        start: float, end: float,
    ) -> Optional[float]:
        """Latest external arrival in the regeneration window at which
        the *whole network* is idle (every link's prior departures have
        completed) -- the exact fluid->packet handoff."""
        if REGEN_WINDOW <= 0 or not len(ext_times):
            return None
        lo = int(np.searchsorted(ext_times, end - REGEN_WINDOW, side="left"))
        candidates = ext_times[lo:]
        for t in candidates[::-1][:128]:
            t = float(t)
            idle = True
            for spec, flux in zip(self.graph, fluxes):
                if flux.carried_total > 0:
                    vdep = start + flux.carried_total / spec.capacity
                    if vdep > t:
                        idle = False
                        break
                k = int(np.searchsorted(flux.times, t, side="left")) - 1
                if k >= 0 and float(flux.departures[k]) > t:
                    idle = False
                    break
            if idle:
                return t
        return None

    def _run_fluid(self, start: float, end: float) -> Optional[float]:
        """One network-wide fluid segment; returns the actual handoff
        time, or ``None`` when an envelope violation demotes the
        segment back to packet mode."""
        config = self.config
        num_classes = config.num_classes
        hub_idx = self.hub_index
        fluxes, ext_times = self._evaluate_links(start, end)
        cut = self._find_network_cut(fluxes, ext_times, start, end)

        hub = fluxes[hub_idx]
        hub_stop = (
            int(np.searchsorted(hub.times, cut, side="left"))
            if cut is not None
            else len(hub.times)
        )
        real = ~hub.phantom[:hub_stop]
        htimes = hub.times[:hub_stop][real]
        hcids = hub.class_ids[:hub_stop][real]
        hsizes = hub.sizes[:hub_stop][real]
        hwaits = hub.waits[:hub_stop][real]
        counts = np.bincount(hcids, minlength=num_classes).tolist()
        d_agg = float(hwaits.mean()) if len(hwaits) else math.nan
        span = (cut if cut is not None else end) - start

        if config.scheduler == "strict":
            delays = _strict_subset_delays(
                htimes, hcids, hsizes, num_classes, self.capacity,
                start, self._carried[hub_idx],
            )
        else:
            class_bytes = np.bincount(
                hcids, weights=hsizes, minlength=num_classes
            ).tolist()
            delays = fluid_split(
                config.scheduler, config.sdps, counts, d_agg,
                calibration=self._calibration(),
                class_bytes=class_bytes, span=span, capacity=self.capacity,
            )

        violation = check_fluid_envelopes(
            config.scheduler, config.sdps, delays, counts,
            hwaits, htimes, hcids, hsizes, self.capacity, span,
        )
        if violation is not None:
            self.demotions.append(
                {"start": start, "end": end, "reason": violation}
            )
            return None

        credited = 0
        for cid, (n, d) in enumerate(zip(counts, delays)):
            if n and math.isfinite(d):
                stats = self.monitor.stats[cid]
                stats.count += n
                stats.total += n * d
                stats.total_sq += n * d * d
                if d < stats.min:
                    stats.min = d
                if d > stats.max:
                    stats.max = d
                credited += n
                self._last_delays[cid] = d

        if cut is not None:
            handoff = cut
            deferred = int(len(ext_times) - np.searchsorted(ext_times, cut))
            self._carried = [[0.0] * num_classes for _ in self.graph]
            regenerated = True
        else:
            handoff = end
            deferred = 0
            regenerated = False
            for idx, (spec, flux) in enumerate(zip(self.graph, fluxes)):
                terminal = _terminal_workload(
                    flux.lindley_times, flux.lindley_sizes,
                    spec.capacity, end,
                ) * spec.capacity
                link_counts = np.bincount(
                    flux.class_ids, minlength=num_classes
                ).tolist()
                weight_delays = delays if idx == hub_idx else [1.0] * num_classes
                self._carried[idx] = _split_backlog(
                    terminal, link_counts, flux.sizes, flux.class_ids,
                    weight_delays, self._carried[idx], num_classes,
                )

        self.fluid_credited += credited
        self.timeline.append(
            {
                "mode": "fluid",
                "start": start,
                "end": handoff,
                "arrivals": credited,
                "deferred": deferred,
                "regenerated": regenerated,
                "d_agg": d_agg,
                "links": len(self.graph),
            }
        )
        return handoff

    # -- reporting ------------------------------------------------------
    def summary(self) -> dict:
        """Mode-timeline roll-up for the cell summary."""
        fluid_span = sum(
            t["end"] - t["start"] for t in self.timeline if t["mode"] == "fluid"
        )
        total_span = self.timeline[-1]["end"] if self.timeline else 0.0
        return {
            "epsilon": self.hybrid.epsilon,
            "segments": len(self.timeline),
            "fluid_time_fraction": (
                fluid_span / total_span if total_span else 0.0
            ),
            "packet_departures": self.packet_departures,
            "fluid_credited": self.fluid_credited,
            "seeded_packets": self.seeded_packets,
            "links": len(self.graph),
            "demotions": list(self.demotions),
            "gaps": list(self.gap_reports),
            "timeline": self.timeline,
        }


def run_hybrid_city(
    config: "CityScenarioConfig", traces: Sequence["ArrivalTrace"]
) -> HybridController:
    """Run one city cell through the hybrid engine; returns the finished
    controller.  :func:`repro.scenarios.city.city_summary` calls this
    when a cell carries a :class:`HybridConfig` with ``epsilon > 0``.
    """
    return HybridController(config, traces).run()
