"""Figure 1: average-delay ratios between successive classes vs load.

The paper sweeps the aggregate utilization from 0.70 to ~0.999 for WTP
and BPR with SDP ratios 2 (Fig 1a: s = 1,2,4,8) and 4 (Fig 1b: s =
1,4,16,64), class loads 40/30/20/10 %, averaging ten seeded runs of
10^6 time units each.  Expected shape: both schedulers rise toward the
target ratio as rho -> 1; WTP converges essentially exactly, BPR lands
slightly off; at rho = 0.70 the measured ratio is ~1.5 (target 2) and
~1.7-2.3 (target 4).

``FigureOneConfig.scale`` shrinks horizon and seed count proportionally
so the benchmark harness can regenerate the series quickly; the CLI
runs full scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..runner import SingleHopTask, SweepRunner, serial_runner, single_hop_summary
from ..traffic.mix import PAPER_DEFAULT_LOADS, ClassLoadDistribution
from .common import SingleHopConfig

__all__ = [
    "FigureOneConfig",
    "FigureOnePoint",
    "run_figure1",
    "PAPER_FIGURE1_UTILIZATIONS",
    "SDP_RATIO_2",
    "SDP_RATIO_4",
]

#: Utilization grid of Figure 1 (the last point is the paper's 99.9%).
PAPER_FIGURE1_UTILIZATIONS = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.999)

SDP_RATIO_2 = (1.0, 2.0, 4.0, 8.0)
SDP_RATIO_4 = (1.0, 4.0, 16.0, 64.0)


@dataclass(frozen=True)
class FigureOneConfig:
    """Sweep parameters; defaults reproduce the paper's setup."""

    schedulers: tuple[str, ...] = ("wtp", "bpr")
    sdps: tuple[float, ...] = SDP_RATIO_2
    utilizations: tuple[float, ...] = PAPER_FIGURE1_UTILIZATIONS
    loads: ClassLoadDistribution = field(
        default_factory=lambda: PAPER_DEFAULT_LOADS
    )
    seeds: tuple[int, ...] = tuple(range(1, 11))
    horizon: float = 1e6
    warmup: float = 5e4
    check_feasibility: bool = True
    #: Run every point under the runtime invariant checker.
    check_invariants: bool = False

    def scaled(self, factor: float) -> "FigureOneConfig":
        """Shrink run length and seed count by ``factor`` (0 < f <= 1)."""
        seeds = self.seeds[: max(1, round(len(self.seeds) * factor))]
        return FigureOneConfig(
            schedulers=self.schedulers,
            sdps=self.sdps,
            utilizations=self.utilizations,
            loads=self.loads,
            seeds=seeds,
            horizon=max(5e4, self.horizon * factor),
            warmup=max(2e3, self.warmup * factor),
            check_feasibility=self.check_feasibility,
            check_invariants=self.check_invariants,
        )


@dataclass
class FigureOnePoint:
    """One (scheduler, utilization) point: seed-averaged ratios."""

    scheduler: str
    utilization: float
    #: Mean over seeds of d_i / d_{i+1}, one entry per successive pair.
    ratios: list[float]
    target_ratios: list[float]
    feasible: bool

    @property
    def mean_ratio(self) -> float:
        return sum(self.ratios) / len(self.ratios)

    @property
    def worst_relative_error(self) -> float:
        return max(
            abs(r - t) / t for r, t in zip(self.ratios, self.target_ratios)
        )


def figure1_tasks(config: FigureOneConfig) -> list[SingleHopTask]:
    """The sweep grid, flattened in deterministic (rho, sched, seed) order."""
    tasks = []
    for utilization in config.utilizations:
        for scheduler in config.schedulers:
            for seed_index, seed in enumerate(config.seeds):
                tasks.append(
                    SingleHopTask(
                        config=SingleHopConfig(
                            scheduler=scheduler,
                            sdps=config.sdps,
                            utilization=utilization,
                            loads=config.loads,
                            horizon=config.horizon,
                            warmup=config.warmup,
                            seed=seed,
                        ),
                        # The paper verifies Figures 1-2 operate at feasible
                        # DDPs (Section 3); checking one seed per point
                        # suffices.
                        compute_feasibility=(
                            config.check_feasibility and seed_index == 0
                        ),
                        check_invariants=config.check_invariants,
                    )
                )
    return tasks


def run_figure1(
    config: FigureOneConfig, runner: Optional[SweepRunner] = None
) -> list[FigureOnePoint]:
    """Regenerate the Figure 1 series (one point per scheduler x rho).

    All (scheduler, rho, seed) runs are independent; they fan out over
    ``runner`` (inline/serial when omitted) and are aggregated here in
    fixed order, so parallel results equal serial ones exactly.
    """
    if runner is None:
        runner = serial_runner()
    summaries = runner.map(single_hop_summary, figure1_tasks(config))

    points = []
    cursor = 0
    count = len(config.seeds)
    for utilization in config.utilizations:
        for scheduler in config.schedulers:
            per_pair_sums = [0.0] * (len(config.sdps) - 1)
            feasible = True
            target = None
            for seed_index in range(count):
                summary = summaries[cursor]
                cursor += 1
                target = summary["target_ratios"]
                for i, ratio in enumerate(summary["ratios"]):
                    per_pair_sums[i] += ratio
                if "feasible" in summary and seed_index == 0:
                    feasible = summary["feasible"]
            ratios = [s / count for s in per_pair_sums]
            if any(math.isnan(r) for r in ratios):
                raise RuntimeError(
                    f"no departures for some class at rho={utilization}"
                )
            points.append(
                FigureOnePoint(
                    scheduler=scheduler,
                    utilization=utilization,
                    ratios=ratios,
                    target_ratios=list(target),
                    feasible=feasible,
                )
            )
    return points


def format_figure1(points: Sequence[FigureOnePoint]) -> str:
    """ASCII rendering of the Figure 1 series (one row per point)."""
    if not points:
        return "Figure 1: no points"
    target = points[0].target_ratios[0]
    pairs = len(points[0].ratios)
    lines = [
        f"Figure 1: desired average-delay ratio = {target:g}",
        f"{'sched':>6} {'rho':>6} "
        + " ".join(f"{'d%d/d%d' % (i + 1, i + 2):>8}" for i in range(pairs))
        + f" {'feasible':>9}",
    ]
    for p in points:
        lines.append(
            f"{p.scheduler:>6} {p.utilization:>6.3f} "
            + " ".join(f"{r:>8.3f}" for r in p.ratios)
            + f" {str(p.feasible):>9}"
        )
    return "\n".join(lines)
