"""Figure 3: short-timescale behaviour -- percentiles of R_D vs tau.

At rho = 0.95 with SDP ratio 2, the run is cut into consecutive
monitoring intervals of length tau in {10, 100, 1000, 10000} p-units.
Per interval, R_D averages the normalized delay ratios of successive
active classes; the figure plots the 5/25/50/75/95 percentiles of the
R_D distribution.  Expected shape: both schedulers tighten around the
target (2.0) as tau grows; at small tau WTP's inter-quartile range is
already near the target while BPR's spread is much wider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.metrics import PercentileSummary
from ..runner import SingleHopTask, SweepRunner, serial_runner, single_hop_summary
from ..traffic.mix import PAPER_DEFAULT_LOADS, ClassLoadDistribution
from ..units import PAPER_P_UNIT
from .common import SingleHopConfig
from .figure1 import SDP_RATIO_2

__all__ = ["FigureThreeConfig", "FigureThreeBox", "run_figure3", "format_figure3"]

#: Monitoring timescales of Figure 3, in p-units.
PAPER_FIGURE3_TAUS_P_UNITS = (10.0, 100.0, 1000.0, 10000.0)


@dataclass(frozen=True)
class FigureThreeConfig:
    """Sweep parameters; defaults reproduce the paper's setup."""

    schedulers: tuple[str, ...] = ("wtp", "bpr")
    sdps: tuple[float, ...] = SDP_RATIO_2
    taus_p_units: tuple[float, ...] = PAPER_FIGURE3_TAUS_P_UNITS
    utilization: float = 0.95
    loads: ClassLoadDistribution = field(
        default_factory=lambda: PAPER_DEFAULT_LOADS
    )
    seed: int = 1
    horizon: float = 1e6
    warmup: float = 5e4
    #: Run every point under the runtime invariant checker.
    check_invariants: bool = False

    def scaled(self, factor: float) -> "FigureThreeConfig":
        return FigureThreeConfig(
            schedulers=self.schedulers,
            sdps=self.sdps,
            taus_p_units=self.taus_p_units,
            utilization=self.utilization,
            loads=self.loads,
            seed=self.seed,
            horizon=max(1e5, self.horizon * factor),
            warmup=max(2e3, self.warmup * factor),
            check_invariants=self.check_invariants,
        )


@dataclass
class FigureThreeBox:
    """One box of Figure 3: R_D percentiles for (scheduler, tau)."""

    scheduler: str
    tau_p_units: float
    summary: PercentileSummary


def run_figure3(
    config: FigureThreeConfig, runner: Optional[SweepRunner] = None
) -> list[FigureThreeBox]:
    """Regenerate the Figure 3 boxes.

    All taus are monitored in a single run per scheduler (the paper's
    measurement is a post-processing of the same departure stream); the
    per-scheduler runs fan out over ``runner``.
    """
    if runner is None:
        runner = serial_runner()
    taus_time_units = tuple(t * PAPER_P_UNIT for t in config.taus_p_units)
    tasks = [
        SingleHopTask(
            config=SingleHopConfig(
                scheduler=scheduler,
                sdps=config.sdps,
                utilization=config.utilization,
                loads=config.loads,
                horizon=config.horizon,
                warmup=config.warmup,
                seed=config.seed,
                interval_taus=taus_time_units,
            ),
            check_invariants=config.check_invariants,
        )
        for scheduler in config.schedulers
    ]
    summaries = runner.map(single_hop_summary, tasks)

    boxes = []
    for scheduler, summary in zip(config.schedulers, summaries):
        by_tau = {tau: stats for tau, stats in summary["interval_rd"]}
        for tau_p, tau in zip(config.taus_p_units, taus_time_units):
            stats = by_tau[tau]
            boxes.append(
                FigureThreeBox(
                    scheduler=scheduler,
                    tau_p_units=tau_p,
                    summary=PercentileSummary(
                        p5=stats["p5"],
                        p25=stats["p25"],
                        median=stats["median"],
                        p75=stats["p75"],
                        p95=stats["p95"],
                        count=stats["count"],
                    ),
                )
            )
    return boxes


def format_figure3(boxes: Sequence[FigureThreeBox]) -> str:
    """ASCII rendering of the Figure 3 percentile boxes."""
    lines = [
        "Figure 3: percentiles of R_D per monitoring timescale tau",
        f"{'sched':>6} {'tau(p)':>8} {'p5':>7} {'p25':>7} {'median':>7} "
        f"{'p75':>7} {'p95':>7} {'n':>7}",
    ]
    for box in boxes:
        s = box.summary
        lines.append(
            f"{box.scheduler:>6} {box.tau_p_units:>8g} {s.p5:>7.3f} "
            f"{s.p25:>7.3f} {s.median:>7.3f} {s.p75:>7.3f} {s.p95:>7.3f} "
            f"{s.count:>7d}"
        )
    return "\n".join(lines)
