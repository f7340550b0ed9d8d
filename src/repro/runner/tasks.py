"""Sweep task descriptions and their module-level workers.

A *task* is a small frozen dataclass describing one independent
simulation; a *worker* is a module-level function (picklable, so it can
cross a ``ProcessPoolExecutor`` boundary) that executes the task and
returns a JSON-able summary dict.  Workers return summaries rather than
full :class:`~repro.experiments.common.SingleHopResult` objects for two
reasons: inter-process transfer stays cheap, and the summary is exactly
what the content-addressed cache stores -- a cached payload and a fresh
one are indistinguishable (Python floats round-trip JSON exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

__all__ = [
    "SingleHopTask",
    "MicroscopicTask",
    "MultiHopTask",
    "single_hop_summary",
    "microscopic_summary",
    "multihop_summary",
]


@dataclass(frozen=True)
class SingleHopTask:
    """One single-hop run, optionally with a scheduler override.

    ``scheduler``/``sdps`` default to the config's own; an override lets
    ablations replay the *same* trace (same config seed) through a
    different discipline or SDP vector.  ``epoch`` selects the
    quantized-WTP scheduler with that aging epoch instead of a registry
    name.  ``compute_feasibility`` additionally runs the Eq 7 audit.

    ``check_invariants`` runs the simulation under the runtime invariant
    checker (:mod:`repro.invariants`) and records the verification
    report in the summary.  The flag is part of the task, hence part of
    its cache fingerprint: a cached result remembers whether it was
    produced by a validated run, and checked/unchecked sweeps never
    serve each other's entries.
    """

    config: "SingleHopConfig"  # noqa: F821 - imported lazily below
    scheduler: Optional[str] = None
    sdps: Optional[tuple[float, ...]] = None
    epoch: Optional[float] = None
    compute_feasibility: bool = False
    check_invariants: bool = False


@dataclass(frozen=True)
class MicroscopicTask:
    """One Figure 4/5 run: windowed interval means plus packet taps."""

    config: "SingleHopConfig"  # noqa: F821
    scheduler: str
    view1_tau: float
    view1_start: float
    view1_end: float
    check_invariants: bool = False


@dataclass(frozen=True)
class MultiHopTask:
    """One Table 1 cell (a full multi-hop user-experiment run)."""

    config: "MultiHopConfig"  # noqa: F821
    check_invariants: bool = False


# ----------------------------------------------------------------------
# Workers (module-level so ProcessPoolExecutor can pickle them)
# ----------------------------------------------------------------------
def _cell_trace(config: "SingleHopConfig"):  # noqa: F821
    """A single-hop cell's arrival trace, from its shard's trace table.

    Cells whose configs share a
    :func:`~repro.experiments.common.trace_key` replay one compiled
    trace (:func:`~repro.runner.runner.shared_trace`): across a
    runner's in-process shards, or within one pool shard.  A worker
    called outside any runner compiles its own.
    """
    from ..experiments.common import generate_trace, trace_key
    from .runner import shared_trace

    return shared_trace(trace_key(config), partial(generate_trace, config))


def single_hop_summary(task: SingleHopTask) -> dict:
    """Execute one single-hop run and summarize it (JSON-able)."""
    from ..core.metrics import summarize_rd
    from ..experiments.common import replay_through_scheduler
    from ..schedulers.quantized_wtp import QuantizedWTPScheduler
    from ..schedulers.registry import make_scheduler

    config = task.config
    sdps = task.sdps if task.sdps is not None else config.sdps
    if task.epoch is not None:
        scheduler = QuantizedWTPScheduler(sdps, epoch=task.epoch)
    else:
        name = task.scheduler if task.scheduler is not None else config.scheduler
        scheduler = make_scheduler(name, sdps)
    result = replay_through_scheduler(
        _cell_trace(config), scheduler, config,
        check_invariants=task.check_invariants,
    )

    summary: dict = {
        "mean_delays": result.mean_delays,
        "ratios": result.successive_ratios,
        "target_ratios": result.target_ratios(),
        "link_utilization": result.link_utilization,
    }
    if result.invariants is not None:
        summary["invariants"] = result.invariants.to_dict()
    if task.compute_feasibility:
        summary["feasible"] = bool(result.feasibility_report().feasible)
    if config.interval_taus:
        interval_rd = []
        for tau in config.interval_taus:
            box = summarize_rd(result.interval_monitors[tau].interval_means())
            interval_rd.append(
                [
                    tau,
                    {
                        "p5": box.p5,
                        "p25": box.p25,
                        "median": box.median,
                        "p75": box.p75,
                        "p95": box.p95,
                        "count": box.count,
                    },
                ]
            )
        summary["interval_rd"] = interval_rd
    return summary


def microscopic_summary(task: MicroscopicTask) -> dict:
    """Execute one Figure 4/5 replay; return windowed views (JSON-able)."""
    from ..experiments.common import replay_through_scheduler
    from ..schedulers.registry import make_scheduler

    config = task.config
    result = replay_through_scheduler(
        _cell_trace(config),
        make_scheduler(task.scheduler, config.sdps),
        config,
        check_invariants=task.check_invariants,
    )
    interval_monitor = result.interval_monitors[task.view1_tau]
    means = interval_monitor.interval_means()
    indices = interval_monitor.interval_indices()
    if len(indices):
        mask = (indices * task.view1_tau >= task.view1_start) & (
            indices * task.view1_tau < task.view1_end
        )
        window_means = means[mask]
    else:
        window_means = means
    tap = result.taps[0]
    # NaNs (inactive class in an interval) survive JSON via Python's
    # permissive encoder; keep them -- the views expect NaN markers.
    summary = {
        "interval_means": window_means.tolist(),
        "packet_samples": [
            tap.samples_array(class_id).tolist()
            for class_id in range(tap.num_classes)
        ],
    }
    if result.invariants is not None:
        summary["invariants"] = result.invariants.to_dict()
    return summary


def multihop_summary(task: MultiHopTask) -> dict:
    """Execute one Table 1 cell; return its per-experiment comparisons."""
    from ..network.multihop import run_multihop

    result = run_multihop(task.config, check_invariants=task.check_invariants)
    # NaN rd values survive JSON round-trips (Python's encoder emits
    # bare NaN tokens and the decoder restores them), so the cached and
    # fresh payloads stay bit-identical.
    summary = {
        "comparisons": [
            {
                "percentile_matrix": [list(row) for row in c.percentile_matrix],
                "inconsistencies": c.inconsistencies,
                "rd": c.rd,
            }
            for c in result.comparisons
        ],
    }
    if result.invariants is not None:
        summary["invariants"] = [report.to_dict() for report in result.invariants]
    return summary
