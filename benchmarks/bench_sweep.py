"""Sweep-runner benchmarks: a shared-trace city grid, and RSS bounds.

Two workloads:

* ``BENCH_GRID`` -- a small city grid (8 cells, one trace group of 4000
  Pareto flows) through ``run_city_shard``: the coordinator compiles
  the trace group once and pickles it with each shard it sends to 4
  pool workers, which run the cells in shards.  Its cells/sec is
  ``sweep_cells_per_sec``.
* ``run_tiny_sweep`` -- N thousand near-trivial single-hop cells
  through the runner's streaming consume path.  Its report's
  ``coordinator_peak_rss_mb`` is what bounds the coordinator: each
  shard's results come back as one list and stream through ``consume``
  in task order, so peak RSS must stay flat as the grid grows
  (recorded alongside the rate by ``record_bench``).

Both entry points return the cell count so ``best_rate`` can turn
wall-clock into cells/sec.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.common import SingleHopConfig  # noqa: E402
from repro.runner import SingleHopTask, SweepRunner  # noqa: E402
from repro.scenarios import CityGridConfig, CityScenarioConfig, run_city  # noqa: E402

#: One trace group (single seed) swept over scheduler x SDP x rho.
#: The traffic shape is the city regime the tier targets: thousands of
#: slow long-lived flows, so trace compilation (per-flow RNG streams)
#: dominates a cell and the runner's compile-once sharing is what is
#: being measured.
BENCH_GRID = CityGridConfig(
    base=CityScenarioConfig(
        flows=4000, branches=16, flow_gap=1200.0, horizon=3000.0,
        warmup=200.0,
    ),
    schedulers=("wtp", "bpr"),
    sdp_grid=((1.0, 2.0, 4.0, 8.0), (1.0, 4.0, 16.0, 64.0)),
    utilizations=(0.8, 0.9),
    seeds=(1,),
)

BENCH_JOBS = 4


def run_city_shard(jobs: int = BENCH_JOBS) -> int:
    """The bench grid through the runner (seeded shard traces, shards)."""
    with SweepRunner(jobs=jobs, cache=None) as runner:
        points = run_city(BENCH_GRID, runner=runner)
    return len(points)


def tiny_tasks(cells: int) -> list[SingleHopTask]:
    """N near-trivial single-hop cells (distinct seeds, no caching)."""
    return [
        SingleHopTask(
            config=SingleHopConfig(
                scheduler="wtp", utilization=0.95, horizon=1500.0,
                warmup=100.0, seed=seed,
            )
        )
        for seed in range(cells)
    ]


def tiny_cell_summary(task: SingleHopTask) -> dict:
    """Raw per-class mean delays of one tiny cell.

    Unlike :func:`single_hop_summary` this records no delay *ratios*:
    at a 1500-unit horizon the occasional seed leaves a class with zero
    mean delay and the ratio would divide by zero.  The runner-overhead
    benchmark only needs a small JSON payload per cell.
    """
    from repro.experiments.common import generate_trace, replay_through_scheduler
    from repro.schedulers.registry import make_scheduler

    config = task.config
    trace = generate_trace(config)
    result = replay_through_scheduler(
        trace, make_scheduler(config.scheduler, config.sdps), config
    )
    return {
        "mean_delays": result.monitor.mean_delays(),
        "counts": result.monitor.counts(),
    }


def run_tiny_sweep(cells: int, jobs: int = BENCH_JOBS) -> tuple[int, float]:
    """``cells`` tiny cells, streamed; ``(count, peak_rss_mb)``.

    Results stream through ``consume`` into a constant-size aggregate
    (per-class delay sums), never a list -- the coordinator-RSS shape
    of a real 10^4-cell sweep.
    """
    totals = [0.0, 0.0, 0.0, 0.0]
    done = 0

    def consume(index: int, payload: dict) -> None:
        nonlocal done
        done += 1
        for i, d in enumerate(payload["mean_delays"]):
            if d == d:  # skip NaN (idle class in a tiny cell)
                totals[i] += d

    with SweepRunner(jobs=jobs, cache=None) as runner:
        runner.map(tiny_cell_summary, tiny_tasks(cells), consume=consume)
        report = runner.last_report
    assert done == cells, f"streamed {done} of {cells} cells"
    return cells, report.coordinator_peak_rss_mb


if __name__ == "__main__":
    import time

    start = time.perf_counter()
    count = run_city_shard()
    print(f"city grid: {count / (time.perf_counter() - start):.2f} cells/sec")
