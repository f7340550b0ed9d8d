"""Figure 2: delay ratios vs class load distribution at 95% utilization.

Seven class-load distributions are swept at rho = 0.95 for WTP and BPR
with SDP ratios 2 (Fig 2a) and 4 (Fig 2b).  Expected shape: WTP hits
the target ratio regardless of the distribution; BPR is accurate only
when class loads are balanced, and heavily loaded classes receive
*larger* delays than their SDPs specify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..runner import SingleHopTask, SweepRunner, serial_runner, single_hop_summary
from ..traffic.mix import FIGURE2_LOAD_DISTRIBUTIONS, ClassLoadDistribution
from .common import SingleHopConfig
from .figure1 import SDP_RATIO_2

__all__ = ["FigureTwoConfig", "FigureTwoPoint", "run_figure2", "format_figure2"]


@dataclass(frozen=True)
class FigureTwoConfig:
    """Sweep parameters; defaults reproduce the paper's setup."""

    schedulers: tuple[str, ...] = ("wtp", "bpr")
    sdps: tuple[float, ...] = SDP_RATIO_2
    distributions: tuple[ClassLoadDistribution, ...] = FIGURE2_LOAD_DISTRIBUTIONS
    utilization: float = 0.95
    seeds: tuple[int, ...] = tuple(range(1, 11))
    horizon: float = 1e6
    warmup: float = 5e4
    check_feasibility: bool = True
    #: Run every point under the runtime invariant checker.
    check_invariants: bool = False

    def scaled(self, factor: float) -> "FigureTwoConfig":
        seeds = self.seeds[: max(1, round(len(self.seeds) * factor))]
        return FigureTwoConfig(
            schedulers=self.schedulers,
            sdps=self.sdps,
            distributions=self.distributions,
            utilization=self.utilization,
            seeds=seeds,
            horizon=max(5e4, self.horizon * factor),
            warmup=max(2e3, self.warmup * factor),
            check_feasibility=self.check_feasibility,
            check_invariants=self.check_invariants,
        )


@dataclass
class FigureTwoPoint:
    """One (scheduler, load distribution) bar of Figure 2."""

    scheduler: str
    loads: ClassLoadDistribution
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


def figure2_tasks(config: FigureTwoConfig) -> list[SingleHopTask]:
    """The sweep grid, flattened in deterministic (loads, sched, seed) order."""
    tasks = []
    for loads in config.distributions:
        for scheduler in config.schedulers:
            for seed_index, seed in enumerate(config.seeds):
                tasks.append(
                    SingleHopTask(
                        config=SingleHopConfig(
                            scheduler=scheduler,
                            sdps=config.sdps,
                            utilization=config.utilization,
                            loads=loads,
                            horizon=config.horizon,
                            warmup=config.warmup,
                            seed=seed,
                        ),
                        compute_feasibility=(
                            config.check_feasibility and seed_index == 0
                        ),
                        check_invariants=config.check_invariants,
                    )
                )
    return tasks


def run_figure2(
    config: FigureTwoConfig, runner: Optional[SweepRunner] = None
) -> list[FigureTwoPoint]:
    """Regenerate the Figure 2 bars (fanned out over ``runner``)."""
    if runner is None:
        runner = serial_runner()
    summaries = runner.map(single_hop_summary, figure2_tasks(config))

    points = []
    cursor = 0
    count = len(config.seeds)
    for loads in config.distributions:
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
                raise RuntimeError(f"no departures for some class: {loads}")
            points.append(
                FigureTwoPoint(
                    scheduler=scheduler,
                    loads=loads,
                    ratios=ratios,
                    target_ratios=list(target),
                    feasible=feasible,
                )
            )
    return points


def format_figure2(points: Sequence[FigureTwoPoint]) -> str:
    """ASCII rendering of the Figure 2 bars."""
    if not points:
        return "Figure 2: no points"
    target = points[0].target_ratios[0]
    pairs = len(points[0].ratios)
    lines = [
        f"Figure 2: desired average-delay ratio = {target:g} (rho = 0.95)",
        f"{'sched':>6} {'loads':>16} "
        + " ".join(f"{'d%d/d%d' % (i + 1, i + 2):>8}" for i in range(pairs))
        + f" {'feasible':>9}",
    ]
    for p in points:
        lines.append(
            f"{p.scheduler:>6} {p.loads.label():>16} "
            + " ".join(f"{r:>8.3f}" for r in p.ratios)
            + f" {str(p.feasible):>9}"
        )
    return "\n".join(lines)
