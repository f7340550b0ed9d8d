"""Record kernel and sweep throughput to a dated JSON file.

Runs the headline benchmarks (no pytest-benchmark machinery, just
best-of-N wall-clock timing) and dumps the numbers to
``BENCH_<YYYY-MM-DD>.json`` in the repository root, so successive
optimization PRs leave a comparable paper trail:

    PYTHONPATH=src python benchmarks/record_bench.py
    PYTHONPATH=src python benchmarks/record_bench.py --baseline BENCH_old.json

Recorded metrics (events or packets per second, higher is better):

* ``kernel_events_per_sec``       -- plain tuple-heap event chain
* ``cancellable_events_per_sec``  -- handle-based (cancellable) chain
* ``trace_replay_packets_per_sec`` -- TraceSource -> WTP link replay
* ``wtp_forwarded_packets_per_sec`` -- single WTP link forwarding
* ``columnar_forwarded_packets_per_sec`` -- the same cell with the
  columnar hot path requested explicitly
* ``multihop_packets_per_sec``    -- Table 1 smoke cell (4 hops,
  rho=0.85, WTP, compiled arrivals): the chain-fused drain kernel's
  guarded workload
* ``multihop_drr_packets_per_sec`` -- the same cell under DRR: the
  guarded workload of a scheduler with hooks, whose own
  ``choose_class``/``on_select`` run inside the chain-fused drain
* ``fanin_packets_per_sec``       -- fan-in merge cell (two upstreams
  + merge-point cross traffic): the chain walk's upstream fan-in
  fixpoint's guarded workload
* ``sweep_runs_per_sec``          -- SweepRunner over a small single-hop
  sweep (serial, cache disabled): runner dispatch overhead + simulation
* ``sweep_cells_per_sec``         -- the 8-cell city bench grid through
  SweepRunner (4 jobs, traces compiled once and shared zero-copy)
* ``sweep10k_cells_per_sec``      -- 10^4 tiny cells streamed through
  the SweepRunner consume path (one shot, not best-of-N)
* ``hybrid_horizon_speedup``      -- pure-packet / hybrid wall-clock on
  the long-horizon city cell from :mod:`bench_hybrid` (300 flows over
  600 s, shared precompiled traces, one shot each)
* ``hybrid_ddp_fidelity_error``   -- mean relative per-class mean-delay
  error of that hybrid run against the pure run (lower is better;
  gated absolutely against the epsilon knob, excluded from
  ``vs_baseline``)
* ``hybrid_multihop_speedup``     -- the same pure/hybrid comparison on
  the network-wide headline cell (a 4-branch star with 3 hops per
  branch, 200 flows over 120 s): per-link fluid segments with Lindley
  departure propagation across every hop of the DAG
* ``hybrid_multihop_ddp_fidelity_error`` -- that multihop run's error
  vs its pure replay (absolute-gated like the single-hub figure); the
  record's ``hybrid_multihop`` detail section carries the full
  comparison plus the all-scheduler epsilon=0 bit-identity verdict
* ``<process>_{scalar,compiled}_{arrivals,events}_per_sec`` -- source
  microbenchmarks from :mod:`bench_sources`

A separate ``sweep_streaming`` section records the coordinator's peak
RSS at 10^3 and 10^4 streamed cells (results go to shard files and
stream back one record at a time, so the two figures must stay within
a few tens of MB of each other -- that flatness IS the O(shard) memory
claim, checked by eye in the record and by gate in
:mod:`check_regression`).

plus the end-to-end figure-1 smoke sweep, in seconds (lower is better):

* ``figure1_smoke_compiled_sec`` -- the 14-cell sweep (block-drawn
  trace compilation; the scalar-vs-compiled comparison per arrival
  process is in :mod:`bench_sources`)

``--baseline`` embeds a ``vs_baseline`` map of per-metric improvement
factors against an earlier record (``*_sec`` metrics are inverted so
every factor reads "x times faster").
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_hybrid  # noqa: E402
import bench_sources  # noqa: E402
import bench_sweep  # noqa: E402
from bench_engine import (  # noqa: E402
    forward_packets,
    replay_trace,
    run_cancellable_events,
    run_fanin_cell,
    run_kernel_events,
    run_multihop_cell,
    run_small_sweep,
)


def best_rate(fn, arg, work_units: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` throughput of ``fn(arg)`` in units/second."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return work_units / best


def figure1_smoke_seconds(repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock of the 14-cell figure-1 smoke sweep."""
    from repro.experiments.figure1 import FigureOneConfig, run_figure1

    best = float("inf")
    for _ in range(repeats):
        config = FigureOneConfig(check_feasibility=False).scaled(0.05)
        start = time.perf_counter()
        run_figure1(config)
        best = min(best, time.perf_counter() - start)
    return best


def collect(repeats: int) -> dict:
    def forward_columnar(name: str) -> int:
        return forward_packets(name, columnar=True)

    kernel_events = 100_000
    trace_packets = 50_000
    sweep_runs = 4
    metrics = {
        "kernel_events_per_sec": best_rate(
            run_kernel_events, kernel_events, kernel_events, repeats
        ),
        "cancellable_events_per_sec": best_rate(
            run_cancellable_events, kernel_events, kernel_events, repeats
        ),
        "trace_replay_packets_per_sec": best_rate(
            replay_trace, trace_packets, trace_packets, repeats
        ),
        "wtp_forwarded_packets_per_sec": best_rate(
            forward_packets, "wtp", forward_packets("wtp"), repeats
        ),
        "columnar_forwarded_packets_per_sec": best_rate(
            forward_columnar, "wtp", forward_columnar("wtp"), repeats
        ),
        "multihop_packets_per_sec": best_rate(
            run_multihop_cell, "wtp", run_multihop_cell("wtp"), repeats
        ),
        "multihop_drr_packets_per_sec": best_rate(
            run_multihop_cell, "drr", run_multihop_cell("drr"), repeats
        ),
        "fanin_packets_per_sec": best_rate(
            run_fanin_cell, "wtp", run_fanin_cell("wtp"), repeats
        ),
        "sweep_runs_per_sec": best_rate(
            run_small_sweep, 1, sweep_runs, repeats
        ),
    }
    grid_cells = len(list(bench_sweep.BENCH_GRID.cells()))
    metrics["sweep_cells_per_sec"] = best_rate(
        bench_sweep.run_city_shard, bench_sweep.BENCH_JOBS, grid_cells, repeats
    )
    # Streaming-store scaling: one shot each (a 10^4-cell sweep is too
    # long to best-of-N) -- the point is the RSS pair, not the rate.
    sweep_streaming = {}
    for cells in (1_000, 10_000):
        start = time.perf_counter()
        count, rss_mb = bench_sweep.run_tiny_sweep(cells)
        elapsed = time.perf_counter() - start
        sweep_streaming[str(cells)] = {
            "cells_per_sec": round(count / elapsed, 1),
            "coordinator_peak_rss_mb": round(rss_mb, 1),
        }
    metrics["sweep10k_cells_per_sec"] = sweep_streaming["10000"][
        "cells_per_sec"
    ]
    metrics.update(bench_sources.collect(repeats))
    metrics["figure1_smoke_compiled_sec"] = figure1_smoke_seconds(repeats)
    # Hooked-scheduler cost check: single-hop vs 4-hop multihop packet
    # rates for schedulers with on_select/on_enqueue hooks, which run
    # their own methods inside the chain-fused drain.  The recorded
    # ratio is single/multihop -- multihop per-packet cost stays within
    # ~1.5x of single-hop when the chain-fused drains engage.
    multihop_vs_single = {}
    for name in ("bpr", "drr", "wfq"):
        single = best_rate(
            forward_packets, name, forward_packets(name), repeats
        )
        multihop = best_rate(
            run_multihop_cell, name, run_multihop_cell(name), repeats
        )
        multihop_vs_single[name] = {
            "single_hop_packets_per_sec": round(single, 1),
            "multihop_packets_per_sec": round(multihop, 1),
            "single_over_multihop": round(single / multihop, 4),
        }
    # Hybrid fluid/packet engine: one shot (the pure-packet side of the
    # long-horizon cell takes tens of seconds).  The detail section
    # records the full comparison including the epsilon=0 bit-identity
    # verdict -- the planner contract the differential harness pins.
    hybrid = bench_hybrid.collect()
    metrics.update(hybrid["metrics"])
    return {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "metrics": {k: round(v, 4) for k, v in metrics.items()},
        "multihop_vs_single_hop": multihop_vs_single,
        "sweep_streaming": sweep_streaming,
        "hybrid": hybrid["detail"],
        "hybrid_multihop": hybrid["multihop_detail"],
    }


#: Metrics where lower is better on an *absolute* scale (error rates):
#: a ratio against an older record reads backwards, so they stay out
#: of ``vs_baseline``.
ABSOLUTE_METRICS = (
    "hybrid_ddp_fidelity_error",
    "hybrid_multihop_ddp_fidelity_error",
)


def improvement(name: str, new: float, old: float) -> float:
    """Per-metric speedup factor; duration metrics invert (lower wins)."""
    if old <= 0 or new <= 0:
        return float("nan")
    is_duration = name.endswith("_sec") and not name.endswith("_per_sec")
    return old / new if is_duration else new / old


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path (default: BENCH_<date>.json in the repo root)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per metric"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="earlier BENCH_*.json to embed per-metric speedups against",
    )
    args = parser.parse_args(argv)
    if args.baseline is not None and not args.baseline.exists():
        parser.error(f"baseline not found: {args.baseline}")

    record = collect(args.repeats)
    if args.baseline is not None:
        old = json.loads(args.baseline.read_text())["metrics"]
        record["baseline"] = args.baseline.name
        record["vs_baseline"] = {
            name: round(improvement(name, value, old[name]), 3)
            for name, value in record["metrics"].items()
            if name in old and name not in ABSOLUTE_METRICS
        }
    out = args.out
    if out is None:
        out = REPO_ROOT / f"BENCH_{record['date']}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for name, value in record["metrics"].items():
        ratio = record.get("vs_baseline", {}).get(name)
        suffix = f"  ({ratio:.2f}x vs baseline)" if ratio is not None else ""
        print(f"{name:>36}: {value:>14,.1f}{suffix}")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
