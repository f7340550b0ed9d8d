"""Perf smoke check: compare fresh microbenchmarks to the committed baseline.

Runs the engine and source microbenchmark collectors and compares every
metric present in both the fresh run and the baseline.  When
``--baseline`` is omitted the canonical committed baseline
(``benchmarks/baseline.json``) is used, falling back to the newest
``BENCH_*.json`` in the repository root if the canonical file is
missing.

Most regressions beyond the threshold print a ``::warning::`` line
(rendered as an annotation by GitHub Actions) but do not fail the job --
shared CI runners are far too noisy for a tight hard gate.  The
throughput metrics guarded by the drain kernels
(``trace_replay_packets_per_sec``, ``wtp_forwarded_packets_per_sec``,
``multihop_packets_per_sec`` guarding the *chain-fused* drain across
coupled hops, ``multihop_drr_packets_per_sec`` guarding it for a
scheduler with hooks (DRR), and ``fanin_packets_per_sec`` guarding the
chain walk's upstream fan-in fixpoint) are the exception: a regression
beyond ``--hard-threshold`` (default 35%) means a drain kernel stopped
engaging, which no runner noise explains, so the check exits non-zero
with a ``::error::`` annotation.

Because bench records travel between hosts (committed BENCH_*.json
files were recorded on whatever machine ran that PR), every comparison
also prints **host-normalized context**: the fresh-to-baseline ratio of
``kernel_events_per_sec`` -- the pure event-kernel metric that no
scheduler or drain change in this repo moves -- is taken as the speed
ratio of *this host* to the *baseline host*.  A warning whose raw
factor matches the host factor is a slower machine, not a regression;
each warn/fail line therefore also shows its host-normalized factor
(raw factor divided by host factor), and the context is embedded in
the ``--out`` JSON.

Two sweep-runner numbers ride along: ``sweep_cells_per_sec`` (the city
bench grid through the runner with shared traces, compared to baseline
like any throughput metric) and ``sweep1k_coordinator_peak_rss_mb``
(peak coordinator RSS while streaming 10^3 tiny cells through the
runner's shard store; gated on an absolute ceiling via ``--rss-gate``
-- the coordinator holds O(shard) results, so blowing the ceiling
means results are accumulating in RAM again).

The hybrid fluid/packet engine contributes absolute hard gates (from
:mod:`bench_hybrid`'s smoke cells): the DDP fidelity error of a hybrid
run against its pure-packet replay must stay within the epsilon knob
(``--fidelity-gate``) on both the single-hub smoke cell and the
multihop (2 branches x 3 hops) smoke cell, an ``epsilon=0`` run must
be bit-identical to the pure path, and the multihop ``epsilon=0``
sweep must be bit-identical for *every* registered scheduler.  All are
correctness contracts, not throughput numbers, so neither baseline age
nor host speed excuses them.  The smoke cells' pure/hybrid speedups
ride along as ordinary baseline-compared metrics
(``hybrid_smoke_speedup``, ``hybrid_multihop_smoke_speedup``).

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --out perf.json

The fresh metrics are written to ``--out`` (default ``perf_smoke.json``)
as ``{"metrics": {...}, "host_context": {...}}`` so CI can upload them
as an artifact -- the same shape as a BENCH_*.json record, so an
uploaded ``perf_smoke.json`` is itself usable as a ``--baseline``.
"""

from __future__ import annotations

import argparse
import json
import sys
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
)
from record_bench import best_rate, improvement  # noqa: E402

#: Warn when a metric lands below (1 - threshold) of the baseline.
DEFAULT_THRESHOLD = 0.20

#: Canonical committed baseline used when ``--baseline`` is omitted.
CANONICAL_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"

#: Metrics that FAIL the job (exit 1) past ``--hard-threshold``: each
#: collapses by far more than that if its drain kernel stops engaging
#: (the multihop cell guards the chain-fused drain across coupled
#: hops), and runner noise has never approached it.
HARD_FAIL_METRICS = (
    "trace_replay_packets_per_sec",
    "wtp_forwarded_packets_per_sec",
    "multihop_packets_per_sec",
    "multihop_drr_packets_per_sec",
    "fanin_packets_per_sec",
)

#: Relative slowdown on a HARD_FAIL_METRICS entry that fails the job.
DEFAULT_HARD_THRESHOLD = 0.35

#: Packet allocations per forwarded packet on the unobserved fused WTP
#: cell.  The columnar hot path allocates only at busy-period opens and
#: drain parks (~0.05 in practice); a per-packet object regression sits
#: at >= 1.0, so the gate has a wide noise margin while still hard-
#: failing the moment the fused path starts building Packets again.
DEFAULT_ALLOCATION_GATE = 0.25

#: Max coordinator peak RSS (MB) while streaming 10^3 tiny cells
#: through the shard store.  The measured figure is ~45 MB (interpreter
#: + numpy + per-cell keys); the store keeps result payloads on disk,
#: so comfortably clearing this ceiling at 10^3 cells is what certifies
#: the O(shard) coordinator-memory claim on CI.
DEFAULT_RSS_GATE_MB = 256.0

#: Metrics gated on absolute value (lower is better), excluded from the
#: baseline speedup comparison -- ``improvement()`` reads throughput
#: semantics into anything not named ``*_sec``.
ABSOLUTE_GATED_METRICS = (
    "packets_allocated_per_forwarded_packet",
    "sweep1k_coordinator_peak_rss_mb",
    "hybrid_ddp_fidelity_error",
    "hybrid_eps0_bit_identical",
    "hybrid_multihop_ddp_fidelity_error",
    "hybrid_multihop_eps0_bit_identical",
)

#: Max mean relative per-class mean-delay error of the hybrid smoke
#: cell against its pure-packet replay.  The hybrid engine's whole
#: contract is "fluid fast-forward within the epsilon knob", so error
#: beyond epsilon is a correctness failure, not a perf regression --
#: it hard-fails regardless of baseline or host speed.
DEFAULT_FIDELITY_GATE = bench_hybrid.BENCH_EPSILON


def measure_packet_allocations() -> dict[str, float]:
    """Packet allocations per forwarded packet on the fused WTP cell.

    Primary counter: every ``Packet.__init__`` call during an
    unobserved ``forward_packets('wtp')`` run (counted via a temporary
    wrapper, restored in ``finally``).  tracemalloc runs alongside as a
    cross-check that the columnar path is not hiding equivalent churn
    in some other per-packet object -- its peak-bytes-per-packet figure
    is reported but not gated (the event calendar and gap buffers
    legitimately hold transient memory).
    """
    import tracemalloc

    from repro.sim.packet import Packet

    count = 0
    original_init = Packet.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal count
        count += 1
        original_init(self, *args, **kwargs)

    Packet.__init__ = counting_init
    tracemalloc.start()
    try:
        forwarded = forward_packets("wtp", columnar=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        Packet.__init__ = original_init
    return {
        "packets_allocated_per_forwarded_packet": count / forwarded,
        "tracemalloc_peak_bytes_per_forwarded_packet": peak / forwarded,
    }


def compare_metrics(
    metrics: dict[str, float],
    baseline: dict[str, float],
    threshold: float,
    hard_threshold: float,
    host_factor: float = 1.0,
) -> list[tuple[str, str, str]]:
    """Compare EVERY shared metric; never stops at the first failure.

    Returns ``(level, name, message)`` findings -- ``level`` is
    ``"ok"``, ``"warn"``, or ``"fail"`` -- one per metric present in
    both dicts, in metric order, so the caller (and CI logs) always see
    the whole picture before the exit code is decided.  ``host_factor``
    is this host's speed relative to the baseline host (the
    kernel-events ratio); warn/fail lines include the host-normalized
    factor so a uniformly slower machine reads as ~1.00x normalized.
    """
    findings: list[tuple[str, str, str]] = []
    for name, value in metrics.items():
        if name not in baseline or name in ABSOLUTE_GATED_METRICS:
            continue
        factor = improvement(name, value, baseline[name])
        detail = f"{factor:.2f}x of baseline ({value:,.1f} vs {baseline[name]:,.1f})"
        if host_factor > 0 and abs(host_factor - 1.0) > 1e-9:
            detail += f", {factor / host_factor:.2f}x host-normalized"
        if name in HARD_FAIL_METRICS and factor < 1.0 - hard_threshold:
            findings.append(
                (
                    "fail",
                    name,
                    f"{detail} -- beyond the hard threshold; the drain "
                    "kernel has likely stopped engaging",
                )
            )
        elif factor < 1.0 - threshold:
            findings.append(("warn", name, detail))
        else:
            findings.append(("ok", name, f"{factor:.2f}x of baseline"))
    return findings


def collect(repeats: int) -> dict[str, float]:
    """Engine + source metrics, keyed compatibly with BENCH_*.json."""
    kernel_events = 100_000
    trace_packets = 50_000
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
            _forward_columnar, "wtp", _forward_columnar("wtp"), repeats
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
    }
    metrics["sweep_cells_per_sec"] = best_rate(
        bench_sweep.run_city_shard,
        bench_sweep.BENCH_JOBS,
        len(list(bench_sweep.BENCH_GRID.cells())),
        repeats,
    )
    metrics.update(bench_sources.collect(repeats))
    return metrics


def measure_sweep_rss(cells: int = 1_000) -> float:
    """Coordinator peak RSS (MB) streaming ``cells`` tiny shard cells."""
    _, rss_mb = bench_sweep.run_tiny_sweep(cells)
    return rss_mb


def _forward_columnar(name: str) -> int:
    return forward_packets(name, columnar=True)


def latest_baseline() -> Path | None:
    """Newest committed ``BENCH_*.json`` by date in the file name."""
    candidates = sorted(REPO_ROOT.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "perf_smoke.json",
        help="where to write the fresh metrics JSON",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=(
            "baseline JSON (default: benchmarks/baseline.json, falling "
            "back to the newest BENCH_*.json in the repo root)"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative slowdown that triggers a warning (default 0.20)",
    )
    parser.add_argument(
        "--hard-threshold",
        type=float,
        default=DEFAULT_HARD_THRESHOLD,
        help=(
            "relative slowdown on the replay throughput metrics "
            f"({', '.join(HARD_FAIL_METRICS)}) that fails the job "
            "(default 0.35)"
        ),
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per metric"
    )
    parser.add_argument(
        "--allocation-gate",
        type=float,
        default=DEFAULT_ALLOCATION_GATE,
        help=(
            "max Packet allocations per forwarded packet on the "
            "unobserved fused WTP cell before the job fails "
            f"(default {DEFAULT_ALLOCATION_GATE}; per-packet object "
            "churn measures >= 1.0)"
        ),
    )
    parser.add_argument(
        "--fidelity-gate",
        type=float,
        default=DEFAULT_FIDELITY_GATE,
        help=(
            "max DDP fidelity error of the hybrid smoke cell vs its "
            f"pure-packet replay (default {DEFAULT_FIDELITY_GATE:g}, "
            "the epsilon knob of the run itself; exceeding it means "
            "the fluid segments drifted beyond their error bound)"
        ),
    )
    parser.add_argument(
        "--rss-gate",
        type=float,
        default=DEFAULT_RSS_GATE_MB,
        help=(
            "max coordinator peak RSS in MB while streaming 10^3 tiny "
            f"cells through the shard store (default {DEFAULT_RSS_GATE_MB:g}; "
            "measured ~45 MB -- blowing this means results accumulate "
            "in coordinator RAM again)"
        ),
    )
    args = parser.parse_args(argv)

    # Resolve the baseline before the (slow) collection so a bad path
    # fails in milliseconds, not after the full benchmark run.
    baseline_path = args.baseline
    if baseline_path is None:
        if CANONICAL_BASELINE.exists():
            baseline_path = CANONICAL_BASELINE
            print(
                "--baseline omitted; using canonical committed baseline "
                f"{baseline_path.relative_to(REPO_ROOT)}"
            )
        else:
            baseline_path = latest_baseline()
            if baseline_path is not None:
                print(
                    "--baseline omitted and benchmarks/baseline.json "
                    f"missing; falling back to {baseline_path.name}"
                )
    if baseline_path is not None and not baseline_path.exists():
        parser.error(f"baseline not found: {baseline_path}")

    metrics = collect(args.repeats)
    allocations = measure_packet_allocations()
    metrics.update(allocations)
    metrics["sweep1k_coordinator_peak_rss_mb"] = measure_sweep_rss()
    hybrid = bench_hybrid.smoke()
    metrics["hybrid_smoke_speedup"] = hybrid["speedup"]
    metrics["hybrid_ddp_fidelity_error"] = hybrid["fidelity_error"]
    metrics["hybrid_eps0_bit_identical"] = float(
        hybrid["epsilon0_bit_identical"]
    )
    multihop = bench_hybrid.multihop_smoke()
    metrics["hybrid_multihop_smoke_speedup"] = multihop["speedup"]
    metrics["hybrid_multihop_ddp_fidelity_error"] = multihop[
        "fidelity_error"
    ]
    metrics["hybrid_multihop_eps0_bit_identical"] = float(
        multihop["epsilon0_bit_identical_all_schedulers"]
    )

    baseline = None
    if baseline_path is not None:
        baseline = json.loads(baseline_path.read_text())["metrics"]

    # Host-normalized context: the event kernel exercises no scheduler
    # or drain code, so its fresh/baseline ratio is the speed of this
    # host relative to the one that recorded the baseline.  Read every
    # raw warning against it before calling something a regression.
    host_context = None
    reference = "kernel_events_per_sec"
    if baseline and reference in metrics and baseline.get(reference, 0) > 0:
        host_factor = metrics[reference] / baseline[reference]
        host_context = {
            "reference_metric": reference,
            "this_host": round(metrics[reference], 1),
            "baseline_host": round(baseline[reference], 1),
            "host_factor": round(host_factor, 4),
            "baseline": baseline_path.name,
        }
    else:
        host_factor = 1.0

    args.out.write_text(
        json.dumps(
            {
                "metrics": {k: round(v, 4) for k, v in metrics.items()},
                "host_context": host_context,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"fresh metrics written to {args.out}")

    # The allocation gate is absolute (no baseline needed): the
    # unobserved fused path must stay object-free.
    failed = 0
    alloc_rate = allocations["packets_allocated_per_forwarded_packet"]
    peak = allocations["tracemalloc_peak_bytes_per_forwarded_packet"]
    if alloc_rate > args.allocation_gate:
        failed += 1
        print(
            f"::error::allocation gate: {alloc_rate:.3f} Packet "
            f"allocations per forwarded packet (gate "
            f"{args.allocation_gate}) -- the unobserved fused path is "
            "building per-packet objects again"
        )
    else:
        print(
            f"{'packet_allocations_per_forwarded':>36}: {alloc_rate:.3f} "
            f"(gate {args.allocation_gate}; tracemalloc peak "
            f"{peak:,.0f} B/pkt)"
        )

    # The RSS gate is also absolute: streaming 10^3 cells must not
    # accumulate result payloads in the coordinator.
    rss_mb = metrics["sweep1k_coordinator_peak_rss_mb"]
    if rss_mb > args.rss_gate:
        failed += 1
        print(
            f"::error::coordinator RSS gate: {rss_mb:.1f} MB peak while "
            f"streaming 10^3 shard cells (gate {args.rss_gate:g} MB) -- "
            "sweep results are accumulating in coordinator RAM"
        )
    else:
        print(
            f"{'sweep1k_coordinator_peak_rss_mb':>36}: {rss_mb:.1f} "
            f"(gate {args.rss_gate:g} MB)"
        )

    # Two hybrid-engine gates, both absolute: the fluid segments must
    # stay within the epsilon error bound, and epsilon=0 must reproduce
    # the pure packet path bit-for-bit.
    fidelity = metrics["hybrid_ddp_fidelity_error"]
    if fidelity > args.fidelity_gate:
        failed += 1
        print(
            f"::error::hybrid fidelity gate: DDP error {fidelity:.4f} "
            f"vs the pure-packet replay (gate {args.fidelity_gate:g}) "
            "-- the fluid segments drifted beyond their error bound"
        )
    else:
        print(
            f"{'hybrid_ddp_fidelity_error':>36}: {fidelity:.4f} "
            f"(gate {args.fidelity_gate:g}; smoke speedup "
            f"{hybrid['speedup']:.2f}x, fluid fraction "
            f"{hybrid['fluid_time_fraction']:.2f})"
        )
    if not hybrid["epsilon0_bit_identical"]:
        failed += 1
        print(
            "::error::hybrid epsilon=0 run is not bit-identical to the "
            "pure packet path -- the planner's pure-packet contract broke"
        )
    else:
        print(f"{'hybrid_eps0_bit_identical':>36}: True")

    # The network-wide engine repeats both contracts on a multihop
    # cell: per-link fluid segments with departure propagation must
    # stay within epsilon, and the epsilon=0 sweep must be
    # bit-identical for every registered scheduler.
    multihop_fidelity = metrics["hybrid_multihop_ddp_fidelity_error"]
    if multihop_fidelity > args.fidelity_gate:
        failed += 1
        print(
            f"::error::hybrid multihop fidelity gate: DDP error "
            f"{multihop_fidelity:.4f} vs the pure-packet replay (gate "
            f"{args.fidelity_gate:g}) -- the per-link fluid segments "
            "drifted beyond their error bound"
        )
    else:
        print(
            f"{'hybrid_multihop_ddp_fidelity_error':>36}: "
            f"{multihop_fidelity:.4f} (gate {args.fidelity_gate:g}; "
            f"smoke speedup {multihop['speedup']:.2f}x, fluid fraction "
            f"{multihop['fluid_time_fraction']:.2f})"
        )
    if not multihop["epsilon0_bit_identical_all_schedulers"]:
        failed += 1
        print(
            "::error::hybrid multihop epsilon=0 run is not bit-identical "
            "to the pure packet path for: "
            + ", ".join(multihop["eps0_broken_schedulers"])
        )
    else:
        print(f"{'hybrid_multihop_eps0_bit_identical':>36}: True")

    if baseline is None:
        print("no committed BENCH_*.json baseline; skipping comparison")
        return 1 if failed else 0

    if host_context is not None:
        print(
            f"host context: {reference} at {host_factor:.2f}x the "
            f"baseline host ({host_context['this_host']:,.0f} vs "
            f"{host_context['baseline_host']:,.0f} events/sec); raw "
            "factors below that scale are host speed, not regressions"
        )

    findings = compare_metrics(
        metrics, baseline, args.threshold, args.hard_threshold, host_factor
    )
    warned = 0
    for level, name, message in findings:
        if level == "fail":
            failed += 1
            print(f"::error::perf regression: {name} at {message}")
        elif level == "warn":
            warned += 1
            print(f"::warning::perf regression: {name} at {message}")
        else:
            print(f"{name:>36}: {message}")
    print(
        f"compared {len(findings)} metrics vs {baseline_path.name}: "
        f"{warned} regression warning(s), {failed} hard failure(s)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
