"""Figures 4 and 5: microscopic views of BPR and WTP.

Three classes (s = 1, 2, 4) at rho = 0.95.  The *same* arrival streams
are replayed through BPR (Figure 4) and WTP (Figure 5), producing two
views each:

* View I: per-class average queueing delay in consecutive 30-p-unit
  intervals over a ~15,000-p-unit window.
* View II: per-packet queueing delay at departure over a ~1,000-p-unit
  window inside an overloaded stretch.

Expected shape: BPR's view II shows the sawtooth artifact (delays of
consecutive packets ramp up and collapse on new arrivals -- the
Proposition 1 pathology); WTP tracks proportional bands far more
smoothly.  :func:`sawtooth_score` quantifies the contrast: the mean
absolute delay change between consecutive departures of the same class,
normalized by the mean delay (higher = noisier).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..runner import MicroscopicTask, SweepRunner, microscopic_summary, serial_runner
from ..traffic.mix import ClassLoadDistribution
from ..units import PAPER_P_UNIT
from .common import SingleHopConfig

__all__ = [
    "MicroscopicConfig",
    "MicroscopicViews",
    "run_figure45",
    "sawtooth_score",
    "format_figure45",
]

#: 3-class load split used for the microscopic views (the paper keeps
#: the default skew, reduced to three classes).
THREE_CLASS_LOADS = ClassLoadDistribution((0.5, 0.3, 0.2))


@dataclass(frozen=True)
class MicroscopicConfig:
    """Microscopic-view run; defaults reproduce the paper's setup."""

    sdps: tuple[float, ...] = (1.0, 2.0, 4.0)
    utilization: float = 0.95
    loads: ClassLoadDistribution = field(
        default_factory=lambda: THREE_CLASS_LOADS
    )
    seed: int = 7
    horizon: float = 4e5
    warmup: float = 2e4
    #: View I: interval averages of this many p-units...
    view1_tau_p_units: float = 30.0
    #: ...over a window this long (p-units).
    view1_window_p_units: float = 15000.0
    #: View II: per-packet samples over a window this long (p-units).
    view2_window_p_units: float = 1000.0
    #: Run both replays under the runtime invariant checker.
    check_invariants: bool = False

    def scaled(self, factor: float) -> "MicroscopicConfig":
        return MicroscopicConfig(
            sdps=self.sdps,
            utilization=self.utilization,
            loads=self.loads,
            seed=self.seed,
            horizon=max(1e5, self.horizon * factor),
            warmup=max(5e3, self.warmup * factor),
            view1_tau_p_units=self.view1_tau_p_units,
            view1_window_p_units=self.view1_window_p_units,
            view2_window_p_units=self.view2_window_p_units,
            check_invariants=self.check_invariants,
        )


@dataclass
class MicroscopicViews:
    """Views I and II for one scheduler."""

    scheduler: str
    #: View I: (num_intervals, num_classes) mean-delay matrix.
    interval_means: np.ndarray
    #: View II: per class, (departure_time, delay) samples.
    packet_samples: list[list[tuple[float, float]]]

    def sawtooth_scores(self) -> list[float]:
        """Per-class sawtooth score from the view II samples."""
        return [sawtooth_score(samples) for samples in self.packet_samples]


def sawtooth_score(samples: Sequence[tuple[float, float]]) -> float:
    """Mean |delay step| between consecutive departures / mean delay."""
    if len(samples) < 2:
        return float("nan")
    delays = np.asarray([delay for _, delay in samples])
    mean = float(delays.mean())
    if mean <= 0:
        return float("nan")
    return float(np.abs(np.diff(delays)).mean()) / mean


def run_figure45(
    config: MicroscopicConfig,
    schedulers: tuple[str, str] = ("bpr", "wtp"),
    runner: Optional[SweepRunner] = None,
) -> dict[str, MicroscopicViews]:
    """Replay one trace through both schedulers; return both view sets.

    Each worker regenerates the identical trace from the shared seed, so
    both schedulers still see "the same arriving packet streams" while
    the two replays run in parallel.
    """
    if runner is None:
        runner = serial_runner()
    view1_tau = config.view1_tau_p_units * PAPER_P_UNIT
    # Both windows start after warm-up, inside the steady-state region.
    view1_start = config.warmup + 0.25 * (config.horizon - config.warmup)
    view1_end = view1_start + config.view1_window_p_units * PAPER_P_UNIT
    view2_start = view1_start
    view2_end = view2_start + config.view2_window_p_units * PAPER_P_UNIT

    tasks = [
        MicroscopicTask(
            config=SingleHopConfig(
                scheduler=name,
                sdps=config.sdps,
                utilization=config.utilization,
                loads=config.loads,
                horizon=config.horizon,
                warmup=config.warmup,
                seed=config.seed,
                interval_taus=(view1_tau,),
                tap_windows=((view2_start, view2_end),),
            ),
            scheduler=name,
            view1_tau=view1_tau,
            view1_start=view1_start,
            view1_end=view1_end,
            check_invariants=config.check_invariants,
        )
        for name in schedulers
    ]
    summaries = runner.map(microscopic_summary, tasks)

    views = {}
    for name, summary in zip(schedulers, summaries):
        num_classes = len(config.sdps)
        rows = summary["interval_means"]
        means = (
            np.asarray(rows, dtype=float)
            if rows
            else np.empty((0, num_classes))
        )
        views[name] = MicroscopicViews(
            scheduler=name,
            interval_means=means,
            packet_samples=[
                [(t, d) for t, d in samples]
                for samples in summary["packet_samples"]
            ],
        )
    return views


def format_figure45(views: dict[str, MicroscopicViews]) -> str:
    """ASCII summary: per-class mean delays and sawtooth scores."""
    lines = ["Figures 4-5: microscopic views (same arrivals, both schedulers)"]
    for name, view in views.items():
        scores = view.sawtooth_scores()
        with np.errstate(invalid="ignore"):
            means = np.nanmean(view.interval_means, axis=0)
        lines.append(
            f"  {name}: view-I class means = "
            + ", ".join(f"{m:.1f}" for m in means)
            + " | view-II sawtooth scores = "
            + ", ".join(f"{s:.3f}" for s in scores)
        )
    return "\n".join(lines)
