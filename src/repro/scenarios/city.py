"""City-scale scenario cells, grids, and their sweep driver.

One *cell* (:class:`CityTask`) replays a fixed many-flow arrival
workload through a metro topology and measures, at the converged hub
link, how faithfully the scheduler holds the paper's proportional
delay model at scale: the successive per-class delay ratios
``d_i / d_{i+1}`` against the SDP targets ``s_{i+1} / s_i`` (Eq 13),
summarized as a mean relative *fidelity error*.

A *grid* (:class:`CityGridConfig`) sweeps scheduler x SDP vector x
utilization x seed.  The expensive part of a cell -- compiling
thousands of per-flow Pareto arrival streams into per-branch traces --
depends only on the traffic side of the config, so every cell sharing
a :func:`trace_group_key` reuses one compiled trace set.
:func:`city_summary` looks its group up in the sweep runner's trace
table by that key (:func:`~repro.runner.runner.shared_trace`), as
single-hop cells look theirs up by
:func:`~repro.experiments.common.trace_key`: the first cell of a
runner compiles the group, later cells replay it, and a direct call
compiles its own.  In a pool, :func:`run_city` and
:func:`fidelity_curve` have the coordinator compile the groups of each
shard's cells, once per runner, and send them with the shard; a warm
re-run compiles nothing.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..runner.hashing import fingerprint
from ..sim.engine import Simulator
from ..sim.monitor import DelayMonitor
from ..sim.rng import RandomStreams
from ..traffic.pareto import ParetoInterarrivals
from ..traffic.trace import ArrivalTrace, TraceSource, build_class_trace, merge_traces
from ..sim.hybrid import HybridConfig
from .generators import (
    TOPOLOGIES,
    LoadShape,
    build_city_topology,
    flow_classes,
    heavy_tail_sizes,
)

__all__ = [
    "CityScenarioConfig",
    "CityGridConfig",
    "CityTask",
    "trace_group_key",
    "compile_city_traces",
    "city_tasks",
    "city_summary",
    "run_city",
    "format_city",
    "city_to_csv",
    "FIDELITY_CURVE_RHOS",
    "fidelity_curve",
    "fidelity_curve_base",
    "format_fidelity_curve",
    "fidelity_curve_to_csv",
    "fidelity_curve_svg",
]


@dataclass(frozen=True)
class CityScenarioConfig:
    """One city cell.  Time unit: milliseconds; sizes in bytes."""

    topology: str = "star_of_chains"
    branches: int = 8
    hops_per_branch: int = 1
    #: Aggregation links (fat_tree_lite only; ignored by the star).
    aggregation: int = 2
    #: Total long-lived flows across all branches.
    flows: int = 1200
    #: Mean per-flow Pareto interarrival gap (ms).
    flow_gap: float = 60.0
    scheduler: str = "wtp"
    sdps: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    class_mix: tuple[float, ...] = (0.4, 0.3, 0.2, 0.1)
    #: Hub (and aggregation/core) target utilization.
    utilization: float = 0.9
    #: Per-branch edge/chain-hop target utilization.
    edge_utilization: float = 0.5
    horizon: float = 4e4
    warmup: float = 2e3
    seed: int = 1
    pareto_shape: float = 1.9
    check_invariants: bool = False
    #: Long-timescale load modulation applied to every flow's arrival
    #: process (diurnal swing, flash crowd).  Part of the trace
    #: identity: cells with different shapes never share traces.
    load_shape: LoadShape = LoadShape()
    #: Hybrid fluid/packet engine knobs; ``None`` (and ``epsilon=0``)
    #: run the ordinary pure-packet path.  Flows into the runner cache
    #: fingerprint like every other config field, so hybrid and pure
    #: results never collide in the cache.
    hybrid: Optional[HybridConfig] = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}"
            )
        if self.branches < 1 or self.hops_per_branch < 1 or self.aggregation < 1:
            raise ConfigurationError("topology dimensions must be >= 1")
        if self.flows < 1:
            raise ConfigurationError(f"flows must be >= 1: {self.flows}")
        if self.flow_gap <= 0:
            raise ConfigurationError(f"flow_gap must be positive: {self.flow_gap}")
        if len(self.sdps) != len(self.class_mix):
            raise ConfigurationError("one SDP per class-mix share required")
        if abs(sum(self.class_mix) - 1.0) > 1e-9:
            raise ConfigurationError("class_mix must sum to 1")
        for rho in (self.utilization, self.edge_utilization):
            if not 0 < rho < 1:
                raise ConfigurationError(f"utilizations must be in (0, 1): {rho}")
        if not 0 <= self.warmup < self.horizon:
            raise ConfigurationError("need 0 <= warmup < horizon")
        if self.hybrid is not None and self.check_invariants:
            raise ConfigurationError(
                "invariant checking requires the pure packet path; "
                "drop hybrid= or check_invariants"
            )

    @property
    def num_classes(self) -> int:
        return len(self.class_mix)

    def target_ratios(self) -> list[float]:
        """Ideal successive ratios s_{i+1} / s_i (Eq 13)."""
        return [
            self.sdps[i + 1] / self.sdps[i] for i in range(len(self.sdps) - 1)
        ]


@dataclass(frozen=True)
class CityTask:
    """Sweep-task wrapper: what a worker receives for one cell."""

    config: CityScenarioConfig


#: Config fields the compiled traces depend on.  Scheduler, SDPs and
#: utilizations are deliberately absent: they shape *capacities and
#: service order*, never the arrival streams, so every cell of an
#: S x D x U sweep at one seed shares a single compiled trace set.
_TRACE_FIELDS = (
    "branches",
    "flows",
    "flow_gap",
    "class_mix",
    "horizon",
    "seed",
    "pareto_shape",
    "load_shape",
)


def trace_group_key(config: CityScenarioConfig) -> str:
    """Identity of a cell's compiled arrival traces (short digest)."""
    return fingerprint(
        {name: getattr(config, name) for name in _TRACE_FIELDS}
    )[:16]


def compile_city_traces(config: CityScenarioConfig) -> list[ArrivalTrace]:
    """Per-branch merged arrival traces, deterministically seeded.

    One gap generator and one size generator per flow, spawned in
    global flow order from ``RandomStreams(seed)`` -- the spawn order
    is the determinism contract, so coordinator and workers compile
    bit-identical traces from the same config.
    """
    streams = RandomStreams(config.seed)
    classes = flow_classes(config.flows, config.class_mix)
    shape = config.load_shape
    # Load-shape modulation is a time warp: generate each flow as a
    # *stationary* process over the internal horizon Lambda(horizon),
    # then map arrival instants through Lambda^{-1}.  Instantaneous
    # rate scales by the multiplier m(t) while per-flow burst structure
    # (Pareto gaps, size marks) is preserved, and a flat shape is the
    # identity -- bit-identical to the unmodulated compile.
    build_horizon = shape.internal_horizon(config.horizon)
    per_branch: list[list[ArrivalTrace]] = [[] for _ in range(config.branches)]
    for index, class_id in enumerate(classes):
        gap_rng = streams.generator()
        size_rng = streams.generator()
        trace = build_class_trace(
            class_id,
            ParetoInterarrivals(config.flow_gap, config.pareto_shape, gap_rng),
            heavy_tail_sizes(size_rng),
            build_horizon,
        )
        if not shape.flat and len(trace):
            warped = shape.warp_times(trace.times)
            keep = int(np.searchsorted(warped, config.horizon, side="left"))
            trace = ArrivalTrace(
                warped[:keep], trace.class_ids[:keep], trace.sizes[:keep]
            )
        per_branch[index % config.branches].append(trace)
    empty = np.empty(0, dtype=np.float64)
    return [
        merge_traces(traces)
        if any(len(t) for t in traces)
        else ArrivalTrace(empty, np.empty(0, dtype=np.int64), empty.copy())
        for traces in per_branch
    ]


def _cell_traces(config: CityScenarioConfig) -> list[ArrivalTrace]:
    """A cell's trace group, from the runner's trace table."""
    from ..runner.runner import shared_trace

    return shared_trace(
        trace_group_key(config), partial(compile_city_traces, config)
    )


def city_summary(task: CityTask) -> dict:
    """Worker: simulate one city cell; JSON-able summary.

    The cell's per-branch traces come from the sweep runner's trace
    table under its :func:`trace_group_key`, compiled on a miss -- the
    same seeded code wherever it runs, so bit-identical arrays.
    """
    config = task.config
    traces = _cell_traces(config)

    hybrid_summary: Optional[dict] = None
    if config.hybrid is not None and config.hybrid.epsilon > 0:
        from ..sim.hybrid import run_hybrid_city

        controller = run_hybrid_city(config, traces)
        monitor = controller.monitor
        hub_departures = controller.packet_departures
        hybrid_summary = controller.summary()
    else:
        sim = Simulator()
        entries, links, hub = build_city_topology(sim, config)
        monitor = DelayMonitor(config.num_classes, warmup=config.warmup)
        hub.add_monitor(monitor)
        for branch, trace in enumerate(traces):
            if len(trace):
                TraceSource(
                    sim, entries[branch], trace,
                    first_packet_id=branch * 10_000_000,
                ).start()

        if config.check_invariants:
            from ..invariants import InvariantChecker

            checkers = [InvariantChecker(link).attach() for link in links]
            sim.run_checked(until=config.horizon)
            for checker in checkers:
                checker.finalize()
        else:
            sim.run(until=config.horizon)
        hub_departures = hub.departures

    means = monitor.mean_delays()
    ratios = monitor.successive_ratios()
    targets = config.target_ratios()
    errors = [
        abs(ratio - target) / target
        for ratio, target in zip(ratios, targets)
        if math.isfinite(ratio)
    ]
    return {
        "topology": config.topology,
        "scheduler": config.scheduler,
        "sdps": list(config.sdps),
        "utilization": config.utilization,
        "seed": config.seed,
        "packets": int(sum(len(trace) for trace in traces)),
        "mean_delays": means,
        "ratios": ratios,
        "target_ratios": targets,
        "fidelity_error": (
            sum(errors) / len(errors) if errors else float("nan")
        ),
        "hub_departures": hub_departures,
        "class_counts": monitor.counts(),
        "checked": config.check_invariants,
        "hybrid": hybrid_summary,
    }


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CityGridConfig:
    """A scheduler x SDP x utilization x seed sweep over one base cell."""

    base: CityScenarioConfig = CityScenarioConfig()
    schedulers: tuple[str, ...] = ("wtp", "bpr")
    sdp_grid: tuple[tuple[float, ...], ...] = (
        (1.0, 2.0, 4.0, 8.0),
        (1.0, 4.0, 16.0, 64.0),
    )
    utilizations: tuple[float, ...] = (0.8, 0.9)
    seeds: tuple[int, ...] = (1, 2)

    def cells(self) -> list[CityScenarioConfig]:
        """All cell configs, in deterministic sweep order.

        Seed is the *outer* loop so consecutive cells share a trace
        group: every scheduler/SDP/utilization variant of one seed is
        adjacent, which keeps the shared-trace working set at one group
        no matter how wide the grid is.
        """
        return [
            dataclasses.replace(
                self.base,
                scheduler=scheduler,
                sdps=sdps,
                utilization=utilization,
                seed=seed,
            )
            for seed in self.seeds
            for scheduler in self.schedulers
            for sdps in self.sdp_grid
            for utilization in self.utilizations
        ]

    def scaled(self, factor: float) -> "CityGridConfig":
        """Smoke-test version: fewer flows, shorter horizon, one seed
        per ``factor`` step (mirrors the figure configs' ``scaled``)."""
        if not 0 < factor <= 1.0:
            raise ConfigurationError(f"factor must be in (0, 1]: {factor}")
        keep = max(1, round(len(self.seeds) * factor))
        base = dataclasses.replace(
            self.base,
            flows=max(self.base.branches, int(self.base.flows * factor)),
            horizon=max(2_000.0, self.base.horizon * factor),
            warmup=max(100.0, self.base.warmup * factor),
        )
        return dataclasses.replace(self, base=base, seeds=self.seeds[:keep])


def city_tasks(grid: CityGridConfig) -> list[CityTask]:
    """The grid's tasks, in deterministic sweep order."""
    return [CityTask(config=config) for config in grid.cells()]


def _group_traces(tasks: Sequence[CityTask]) -> dict[str, list[ArrivalTrace]]:
    """The trace group of every cell in ``tasks``, by :func:`trace_group_key`.

    The sweep runner calls this for each pool shard against its own
    trace table, so a group compiles once per runner and travels only
    with the shards whose cells replay it.
    """
    return {
        trace_group_key(task.config): _cell_traces(task.config)
        for task in tasks
    }


def _map_cells(tasks: list[CityTask], runner) -> list[dict]:
    """Per-cell summaries in task order, each trace group compiled once."""
    if runner is None:
        from ..runner import serial_runner

        runner = serial_runner()
    return runner.map(city_summary, tasks, shared_traces=_group_traces)


def run_city(grid: CityGridConfig, runner=None) -> list[dict]:
    """Run a city grid; per-cell summaries in sweep order."""
    return _map_cells(city_tasks(grid), runner)


def _hybrid_columns(point: dict) -> tuple:
    """(fluid time fraction, segments, demotions) of a hybrid cell."""
    summary = point.get("hybrid")
    if summary is None:
        return (0.0, 0, 0)
    return (
        summary["fluid_time_fraction"],
        summary["segments"],
        len(summary["demotions"]),
    )


def format_city(points: Sequence[dict]) -> str:
    """Plain-text DDP fidelity table, one row per cell.

    A grid whose cells ran the hybrid engine adds what the engine did
    per cell: the fraction of simulated time served fluid, the mode
    timeline's segment count and the demotion count.
    """
    hybrid = any(p.get("hybrid") is not None for p in points)
    header = (
        f"{'topology':<14} {'sched':<6} {'sdps':<20} {'rho':>4} "
        f"{'seed':>4} {'packets':>9} {'fidelity err':>12}"
    )
    if hybrid:
        header += f" {'fluid frac':>10} {'segments':>8} {'demotions':>9}"
    lines = [header]
    for p in points:
        sdps = "x".join(f"{s:g}" for s in p["sdps"])
        line = (
            f"{p['topology']:<14} {p['scheduler']:<6} {sdps:<20} "
            f"{p['utilization']:>4.2f} {p['seed']:>4} {p['packets']:>9} "
            f"{p['fidelity_error']:>12.4f}"
        )
        if hybrid:
            fluid, segments, demotions = _hybrid_columns(p)
            line += f" {fluid:>10.4f} {segments:>8} {demotions:>9}"
        lines.append(line)
    return "\n".join(lines)


def city_to_csv(points: Sequence[dict], path: str | Path) -> Path:
    """Write the fidelity curve data (CSV, one row per cell); hybrid
    grids add the :func:`format_city` engine columns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    hybrid = any(p.get("hybrid") is not None for p in points)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        header = (
            "topology", "scheduler", "sdps", "utilization", "seed",
            "packets", "fidelity_error", "mean_delays", "ratios",
        )
        if hybrid:
            header += ("fluid_time_fraction", "segments", "demotions")
        writer.writerow(header)
        for p in points:
            row = (
                p["topology"],
                p["scheduler"],
                "x".join(f"{s:g}" for s in p["sdps"]),
                p["utilization"],
                p["seed"],
                p["packets"],
                repr(p["fidelity_error"]),
                " ".join(repr(d) for d in p["mean_delays"]),
                " ".join(repr(r) for r in p["ratios"]),
            )
            if hybrid:
                fluid, segments, demotions = _hybrid_columns(p)
                row += (repr(fluid), segments, demotions)
            writer.writerow(row)
    return path


# ----------------------------------------------------------------------
# Hybrid fidelity-vs-load curve (one multihop topology, fine rho grid)
# ----------------------------------------------------------------------
#: Default load grid: coarse at light load, finer toward saturation
#: where fluid windows get scarcer and the error model is stressed.
FIDELITY_CURVE_RHOS: tuple[float, ...] = (
    0.60, 0.70, 0.75, 0.80, 0.84, 0.88, 0.90, 0.92, 0.94,
)


def fidelity_curve_base(scale: float = 1.0) -> CityScenarioConfig:
    """The curve's reference cell: a 4-branch, 3-hops-per-branch star.

    ``scale`` shrinks flows/horizon the same way the CLI's ``--scale``
    shrinks grids, keeping the cell multihop (>= 3 hops to the hub).
    """
    if not 0 < scale <= 1.0:
        raise ConfigurationError(f"scale must be in (0, 1]: {scale}")
    return CityScenarioConfig(
        topology="star_of_chains",
        branches=4,
        hops_per_branch=3,
        flows=max(4, int(200 * scale)),
        flow_gap=60.0,
        horizon=max(8_000.0, 120_000.0 * scale),
        warmup=2_000.0,
        seed=7,
    )


def fidelity_curve(
    base: Optional[CityScenarioConfig] = None,
    utilizations: Sequence[float] = FIDELITY_CURVE_RHOS,
    epsilon: float = 0.05,
    runner=None,
) -> list[dict]:
    """Hybrid-vs-pure DDP fidelity error across a fine load grid.

    For each utilization the base multihop cell runs twice -- pure
    packet and hybrid at ``epsilon`` -- and the row records the mean
    and max relative per-class mean-delay error of the hybrid run
    against its pure reference (the bench's fidelity metric), both
    cells' own DDP fidelity error against the Eq 13 targets, and the
    fraction of simulated time the hybrid run spent in fluid mode.
    """
    if base is None:
        base = fidelity_curve_base()
    if base.hybrid is not None:
        raise ConfigurationError(
            "pass a pure base cell; fidelity_curve adds the hybrid knob"
        )
    if epsilon <= 0:
        raise ConfigurationError(
            f"epsilon must be positive for a fidelity curve: {epsilon}"
        )
    cells: list[CityScenarioConfig] = []
    for rho in utilizations:
        pure = dataclasses.replace(base, utilization=rho)
        cells.append(pure)
        cells.append(
            dataclasses.replace(pure, hybrid=HybridConfig(epsilon=epsilon))
        )
    summaries = _map_cells([CityTask(config=c) for c in cells], runner)
    rows: list[dict] = []
    for i, rho in enumerate(utilizations):
        pure, hybrid = summaries[2 * i], summaries[2 * i + 1]
        errors = [
            abs(h - p) / p
            for h, p in zip(hybrid["mean_delays"], pure["mean_delays"])
        ]
        rows.append(
            {
                "utilization": float(rho),
                "epsilon": float(epsilon),
                "fidelity_error_vs_pure": sum(errors) / len(errors),
                "max_error_vs_pure": max(errors),
                "pure_ddp_error": pure["fidelity_error"],
                "hybrid_ddp_error": hybrid["fidelity_error"],
                "fluid_time_fraction": (
                    hybrid["hybrid"]["fluid_time_fraction"]
                    if hybrid.get("hybrid")
                    else 0.0
                ),
                "packets": pure["packets"],
            }
        )
    return rows


def format_fidelity_curve(rows: Sequence[dict]) -> str:
    """Plain-text fidelity-vs-load table, one row per utilization."""
    lines = [
        f"{'rho':>5} {'err vs pure':>12} {'max err':>9} "
        f"{'pure DDP':>9} {'hyb DDP':>9} {'fluid %':>8}"
    ]
    for r in rows:
        lines.append(
            f"{r['utilization']:>5.2f} {r['fidelity_error_vs_pure']:>12.4f} "
            f"{r['max_error_vs_pure']:>9.4f} {r['pure_ddp_error']:>9.4f} "
            f"{r['hybrid_ddp_error']:>9.4f} "
            f"{100.0 * r['fluid_time_fraction']:>7.1f}%"
        )
    return "\n".join(lines)


def fidelity_curve_to_csv(rows: Sequence[dict], path: str | Path) -> Path:
    """Write the fidelity-error-vs-rho data (CSV, one row per rho)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = (
        "utilization", "epsilon", "fidelity_error_vs_pure",
        "max_error_vs_pure", "pure_ddp_error", "hybrid_ddp_error",
        "fluid_time_fraction", "packets",
    )
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for r in rows:
            writer.writerow([repr(r[f]) for f in fields])
    return path


def fidelity_curve_svg(rows: Sequence[dict], path: str | Path) -> Path:
    """Render fidelity error vs load as an SVG line chart."""
    from ..analysis.svg_plot import LineSeries, line_chart

    epsilon = rows[0]["epsilon"] if rows else 0.05
    series = [
        LineSeries(
            label="mean error vs pure",
            points=tuple(
                (r["utilization"], r["fidelity_error_vs_pure"]) for r in rows
            ),
        ),
        LineSeries(
            label="max error vs pure",
            points=tuple(
                (r["utilization"], r["max_error_vs_pure"]) for r in rows
            ),
        ),
        LineSeries(
            label="fluid time fraction",
            points=tuple(
                (r["utilization"], r["fluid_time_fraction"]) for r in rows
            ),
        ),
    ]
    canvas = line_chart(
        series,
        title=f"Hybrid multihop fidelity vs load (epsilon {epsilon:g})",
        x_label="hub utilization",
        y_label="relative error / fraction",
        y_reference=epsilon,
    )
    return canvas.save(path)
