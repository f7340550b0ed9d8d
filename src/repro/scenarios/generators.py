"""Traffic and topology generators for the city scenarios.

Three deterministic building blocks:

* **Flow population.**  ``flows`` Pareto on/off-like flows are
  apportioned to the service classes by largest-remainder on the class
  mix (so a 1000-flow 40/30/20/10 mix gets exactly 400/300/200/100
  flows) and dealt round-robin to the branches.  Both assignments are
  pure functions of the config -- a worker and the coordinator always
  agree on which flow lives where.
* **Packet sizes.**  A heavier-than-the-paper mix spanning 40 B ACKs to
  9000 B jumbo frames; the tail probabilities are small but carry a
  third of the bytes, which is what makes city links bursty at every
  timescale.
* **Topology.**  ``star_of_chains`` -- per-branch chains of congested
  hops converging (fan-in) on one hub link, the PR 7 fused-drain shape
  at scale; ``fat_tree_lite`` -- edge links into an aggregation layer
  into one core link, the classic three-tier metro shape.  Capacities
  are derived from the offered load so the hub runs at the configured
  utilization and every edge at ``edge_utilization``, independent of
  flow count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..schedulers.registry import make_scheduler
from ..sim.link import Link, PacketSink
from ..traffic.sizes import DiscretePacketSizes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Simulator
    from .city import CityScenarioConfig

__all__ = [
    "CITY_SIZES",
    "CITY_SIZE_PROBS",
    "TOPOLOGIES",
    "LOAD_SHAPES",
    "LoadShape",
    "FluidLinkSpec",
    "heavy_tail_sizes",
    "city_size_mean",
    "flow_classes",
    "branch_flow_counts",
    "branch_byte_rate",
    "total_byte_rate",
    "build_city_topology",
    "city_link_graph",
]

#: Packet-size mix (bytes): ACKs, default-MTU data, full Ethernet
#: frames, and a jumbo tail.  Mean ~= 1038.6 B.
CITY_SIZES = (40.0, 576.0, 1500.0, 4380.0, 9000.0)
CITY_SIZE_PROBS = (0.45, 0.25, 0.2, 0.07, 0.03)

TOPOLOGIES = ("star_of_chains", "fat_tree_lite")

LOAD_SHAPES = ("flat", "diurnal", "flash_crowd")


@dataclass(frozen=True)
class LoadShape:
    """Deterministic long-horizon load modulator ``m(t)``.

    Modulates the stationary Pareto flow population by *time-warping*
    arrival timestamps: a base trace generated on the "internal"
    timeline ``u`` (stationary unit-multiplier rate) maps to the
    modulated timeline through ``t = Lambda^{-1}(u)`` where
    ``Lambda(t) = integral_0^t m(s) ds`` -- the classic inhomogeneous
    thinning-free time change.  Warping is monotone, so per-flow and
    merged traces stay time-sorted, and the same seeded base draws
    produce the modulated workload bit-deterministically.

    Kinds:

    * ``flat`` -- ``m(t) = 1`` (identity; the default, and the only
      shape that leaves traces untouched).
    * ``diurnal`` -- ``m(t) = 1 + amplitude * sin(2*pi*t/period)``,
      the sinusoidal day/night swing (``0 <= amplitude < 1`` keeps the
      rate positive and ``Lambda`` invertible).
    * ``flash_crowd`` -- ``m(t) = factor`` on ``[start, start +
      duration)`` and 1 elsewhere: a step overload whose onset and
      offset are exactly the transients the hybrid engine must bracket
      in packet mode (:meth:`transient_edges`).
    """

    kind: str = "flat"
    #: Diurnal swing: relative amplitude and period (time units).
    amplitude: float = 0.5
    period: float = 20_000.0
    #: Flash crowd: onset, length, and rate multiplier of the step.
    start: float = 0.0
    duration: float = 0.0
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in LOAD_SHAPES:
            raise ConfigurationError(
                f"unknown load shape {self.kind!r}; choose from {LOAD_SHAPES}"
            )
        if self.kind == "diurnal":
            if not 0 <= self.amplitude < 1:
                raise ConfigurationError(
                    f"diurnal amplitude must be in [0, 1): {self.amplitude}"
                )
            if self.period <= 0:
                raise ConfigurationError(
                    f"diurnal period must be positive: {self.period}"
                )
        if self.kind == "flash_crowd":
            if self.start < 0 or self.duration < 0:
                raise ConfigurationError(
                    "flash crowd start and duration must be non-negative"
                )
            if self.factor <= 0:
                raise ConfigurationError(
                    f"flash crowd factor must be positive: {self.factor}"
                )

    @property
    def flat(self) -> bool:
        """True when the shape is the identity (no warping needed)."""
        return self.kind == "flat" or (
            self.kind == "diurnal" and self.amplitude == 0.0
        ) or (
            self.kind == "flash_crowd"
            and (self.duration == 0.0 or self.factor == 1.0)
        )

    def multiplier(self, t):
        """``m(t)`` -- the instantaneous rate multiplier (vectorized)."""
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "diurnal":
            return 1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period)
        if self.kind == "flash_crowd":
            inside = (t >= self.start) & (t < self.start + self.duration)
            return np.where(inside, self.factor, 1.0)
        return np.ones_like(t)

    def cumulative(self, t):
        """``Lambda(t) = integral_0^t m(s) ds`` in closed form."""
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "diurnal":
            w = 2.0 * np.pi / self.period
            return t + self.amplitude / w * (1.0 - np.cos(w * t))
        if self.kind == "flash_crowd":
            burst = np.clip(t - self.start, 0.0, self.duration)
            return t + (self.factor - 1.0) * burst
        return t

    def internal_horizon(self, horizon: float) -> float:
        """Length of base (internal-time) trace needed to cover
        ``[0, horizon)`` after warping."""
        return float(self.cumulative(horizon))

    def warp_times(self, internal_times: np.ndarray) -> np.ndarray:
        """Map internal-timeline arrivals ``u`` to ``Lambda^{-1}(u)``."""
        u = np.asarray(internal_times, dtype=np.float64)
        if self.flat:
            return u
        if self.kind == "flash_crowd":
            s, d, f = self.start, self.duration, self.factor
            knots_t = np.array([0.0, s, s + d])
            knots_u = self.cumulative(knots_t)
            t = np.interp(u, knots_u, knots_t)
            tail = u > knots_u[-1]
            if np.any(tail):
                t = np.where(tail, knots_t[-1] + (u - knots_u[-1]), t)
            return t
        # Diurnal: Lambda is smooth with slope m(t) >= 1 - amplitude > 0;
        # Newton from t = u converges in a handful of iterations and is
        # fully deterministic (fixed iteration count + tolerance).
        t = u.copy()
        for _ in range(12):
            residual = self.cumulative(t) - u
            if float(np.abs(residual).max(initial=0.0)) < 1e-10:
                break
            t -= residual / self.multiplier(t)
        return t

    def transient_edges(self, horizon: float) -> tuple[float, ...]:
        """Times where ``m`` is discontinuous -- hybrid packet anchors."""
        if self.kind != "flash_crowd" or self.flat:
            return ()
        return tuple(
            t for t in (self.start, self.start + self.duration) if 0.0 < t < horizon
        )


def heavy_tail_sizes(rng: np.random.Generator | None = None) -> DiscretePacketSizes:
    """The city packet-size sampler (one per flow, own stream)."""
    return DiscretePacketSizes(CITY_SIZES, CITY_SIZE_PROBS, rng=rng)


def city_size_mean() -> float:
    """Mean packet size of the city mix (for capacity sizing)."""
    return float(np.dot(CITY_SIZES, CITY_SIZE_PROBS))


# ----------------------------------------------------------------------
# Flow population
# ----------------------------------------------------------------------
def flow_classes(flows: int, class_mix: Sequence[float]) -> list[int]:
    """Per-flow class ids: largest-remainder apportionment of the mix.

    Flow ``i``'s class is ``flow_classes(...)[i]``; combined with the
    round-robin branch deal (``i % branches``) every class lands on
    every branch once ``flows`` is a few times ``branches``.
    """
    if flows < 1:
        raise ConfigurationError(f"flows must be >= 1: {flows}")
    quotas = [flows * share for share in class_mix]
    counts = [int(q) for q in quotas]
    shortfall = flows - sum(counts)
    # Largest fractional remainders get the leftover flows; ties break
    # toward the lower class id (deterministic).
    order = sorted(
        range(len(quotas)), key=lambda c: (counts[c] - quotas[c], c)
    )
    for c in order[:shortfall]:
        counts[c] += 1
    classes: list[int] = []
    for class_id, count in enumerate(counts):
        classes.extend([class_id] * count)
    return classes


def branch_flow_counts(flows: int, branches: int) -> list[int]:
    """Flows per branch under the round-robin deal (``i % branches``)."""
    base, extra = divmod(flows, branches)
    return [base + (1 if b < extra else 0) for b in range(branches)]


def branch_byte_rate(config: "CityScenarioConfig", branch: int) -> float:
    """Mean offered bytes/ms entering one branch."""
    count = branch_flow_counts(config.flows, config.branches)[branch]
    return count * city_size_mean() / config.flow_gap


def total_byte_rate(config: "CityScenarioConfig") -> float:
    """Mean offered bytes/ms crossing the hub (all flows)."""
    return config.flows * city_size_mean() / config.flow_gap


# ----------------------------------------------------------------------
# Topology builders
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FluidLinkSpec:
    """Pure-data description of one link of a city topology.

    :func:`city_link_graph` lists one per link; :func:`build_city_topology`
    builds the packet links from that list, and the hybrid fluid
    controller walks it without building a simulator.  ``downstream``
    indexes into the spec list (``None`` for the sink side of the
    monitored link); ``branches`` lists which external branch traces
    enter at this link.
    """

    name: str
    capacity: float
    downstream: int | None
    branches: tuple[int, ...] = ()


def city_link_graph(config: "CityScenarioConfig") -> list[FluidLinkSpec]:
    """The cell's link graph in topological order (hub/core last).

    Every spec's ``downstream`` index points *later* in the list, so a
    single forward pass propagates each link's fluid departure process
    into its downstream arrival process, and a backward pass builds
    each link after its downstream one.
    """
    if config.topology == "star_of_chains":
        hops = config.hops_per_branch
        specs: list[FluidLinkSpec] = []
        hub_index = config.branches * hops
        for b in range(config.branches):
            capacity = branch_byte_rate(config, b) / config.edge_utilization
            base = b * hops
            for hop in range(hops):
                specs.append(
                    FluidLinkSpec(
                        name=f"b{b}h{hop}",
                        capacity=capacity,
                        downstream=base + hop + 1 if hop + 1 < hops else hub_index,
                        branches=(b,) if hop == 0 else (),
                    )
                )
        specs.append(
            FluidLinkSpec(
                name="hub",
                capacity=total_byte_rate(config) / config.utilization,
                downstream=None,
            )
        )
        return specs
    if config.topology == "fat_tree_lite":
        specs = []
        core_index = config.branches + config.aggregation
        for b in range(config.branches):
            specs.append(
                FluidLinkSpec(
                    name=f"edge{b}",
                    capacity=(
                        branch_byte_rate(config, b) / config.edge_utilization
                    ),
                    downstream=config.branches + (b % config.aggregation),
                    branches=(b,),
                )
            )
        for a in range(config.aggregation):
            rate = sum(
                branch_byte_rate(config, b)
                for b in range(config.branches)
                if b % config.aggregation == a
            )
            specs.append(
                FluidLinkSpec(
                    name=f"agg{a}",
                    # An idle aggregation link (more aggs than branches)
                    # still needs a positive capacity to construct.
                    capacity=max(rate, 1e-9) / config.utilization,
                    downstream=core_index,
                )
            )
        specs.append(
            FluidLinkSpec(
                name="core",
                capacity=total_byte_rate(config) / config.utilization,
                downstream=None,
            )
        )
        return specs
    raise ConfigurationError(
        f"unknown topology {config.topology!r}; choose from {TOPOLOGIES}"
    )


def build_city_topology(
    sim: "Simulator", config: "CityScenarioConfig"
) -> tuple[list[Link], list[Link], Link]:
    """Build the configured topology; ``(entries, all_links, hub)``.

    One :class:`Link` per :func:`city_link_graph` spec, in the graph's
    order (``all_links[i]`` is spec ``i``; hub last).  ``entries[b]`` is
    the link whose spec lists branch ``b``, where its trace is replayed
    into; ``hub`` is the converged link whose :class:`DelayMonitor`
    measures the DDP fidelity.  Links are created back to front so
    every link knows its downstream at construction, which is what lets
    the drain kernel fuse the chains (star) or the whole tree path (fat
    tree).
    """
    graph = city_link_graph(config)
    links: list[Link] = [None] * len(graph)  # type: ignore[list-item]
    entries: list[Link] = [None] * config.branches  # type: ignore[list-item]
    for idx in range(len(graph) - 1, -1, -1):
        spec = graph[idx]
        link = links[idx] = Link(
            sim,
            make_scheduler(config.scheduler, config.sdps),
            capacity=spec.capacity,
            target=(
                PacketSink()
                if spec.downstream is None
                else links[spec.downstream]
            ),
            name=spec.name,
        )
        for b in spec.branches:
            entries[b] = link
    return entries, links, links[-1]
