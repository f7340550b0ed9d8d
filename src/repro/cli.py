"""Command-line interface: regenerate any paper figure/table.

Examples
--------
Full-scale reproduction of Figure 1a (ten seeds, 10^6-unit runs):

    repro-pdd figure1

Quick versions (scaled-down horizons/seeds) of everything, using all
cores and the on-disk result cache:

    repro-pdd all --scale 0.05 --jobs 0

``--jobs 0`` (the default) means "one worker per CPU"; ``--jobs 1``
forces serial execution.  Re-running an identical sweep is served from
the content-addressed cache under ``--cache-dir`` (default
``.repro-cache/``), and so is every shard a killed sweep finished, so
its rerun executes only the rest; pass ``--no-cache`` to disable it.

Each subcommand imports its drivers (and exporters) when it runs, so
``--help`` loads no simulation code and one figure loads only its own.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

from .runner import DEFAULT_CACHE_DIR

if TYPE_CHECKING:
    from .runner import SweepRunner

__all__ = ["main"]


def _figure1(
    scale: float,
    export_dir: Optional[Path],
    runner: SweepRunner,
    checked: bool,
) -> str:
    from .experiments.figure1 import (
        SDP_RATIO_2,
        SDP_RATIO_4,
        FigureOneConfig,
        format_figure1,
        run_figure1,
    )

    parts = []
    for sdps, label in ((SDP_RATIO_2, "1a"), (SDP_RATIO_4, "1b")):
        config = FigureOneConfig(
            sdps=sdps, check_invariants=checked,
        ).scaled(scale)
        points = run_figure1(config, runner=runner)
        parts.append(f"--- Figure {label} ---")
        parts.append(format_figure1(points))
        if export_dir is not None:
            from .experiments.export import figure1_to_csv
            from .experiments.figures_svg import figure1_svg, save_figures

            figure1_to_csv(points, export_dir / f"figure{label}.csv")
            save_figures({f"figure{label}": figure1_svg(points)}, export_dir)
    return "\n".join(parts)


def _figure2(
    scale: float,
    export_dir: Optional[Path],
    runner: SweepRunner,
    checked: bool,
) -> str:
    from .experiments.figure1 import SDP_RATIO_2, SDP_RATIO_4
    from .experiments.figure2 import FigureTwoConfig, format_figure2, run_figure2

    parts = []
    for sdps, label in ((SDP_RATIO_2, "2a"), (SDP_RATIO_4, "2b")):
        config = FigureTwoConfig(
            sdps=sdps, check_invariants=checked,
        ).scaled(scale)
        points = run_figure2(config, runner=runner)
        parts.append(f"--- Figure {label} ---")
        parts.append(format_figure2(points))
        if export_dir is not None:
            from .experiments.export import figure2_to_csv
            from .experiments.figures_svg import figure2_svg, save_figures

            figure2_to_csv(points, export_dir / f"figure{label}.csv")
            save_figures({f"figure{label}": figure2_svg(points)}, export_dir)
    return "\n".join(parts)


def _figure3(
    scale: float,
    export_dir: Optional[Path],
    runner: SweepRunner,
    checked: bool,
) -> str:
    from .experiments.figure3 import FigureThreeConfig, format_figure3, run_figure3

    config = FigureThreeConfig(check_invariants=checked).scaled(scale)
    boxes = run_figure3(config, runner=runner)
    if export_dir is not None:
        from .experiments.export import figure3_to_csv
        from .experiments.figures_svg import figure3_svg, save_figures

        figure3_to_csv(boxes, export_dir / "figure3.csv")
        save_figures({"figure3": figure3_svg(boxes)}, export_dir)
    return format_figure3(boxes)


def _figure45(
    scale: float,
    export_dir: Optional[Path],
    runner: SweepRunner,
    checked: bool,
) -> str:
    from .experiments.figure45 import (
        MicroscopicConfig,
        format_figure45,
        run_figure45,
    )

    config = MicroscopicConfig(check_invariants=checked).scaled(scale)
    views = run_figure45(config, runner=runner)
    if export_dir is not None:
        from .experiments.export import figure45_to_json
        from .experiments.figures_svg import figure45_svg, save_figures

        figure45_to_json(views, export_dir / "figure45.json")
        charts = figure45_svg(views)
        save_figures(
            {("figure4" if k == "bpr" else "figure5"): v
             for k, v in charts.items()},
            export_dir,
        )
    return format_figure45(views)


def _table1(
    scale: float,
    export_dir: Optional[Path],
    runner: SweepRunner,
    checked: bool,
) -> str:
    from .experiments.table1 import TableOneConfig, format_table1, run_table1

    config = TableOneConfig(check_invariants=checked).scaled(scale)
    cells = run_table1(config, runner=runner)
    if export_dir is not None:
        from .experiments.export import table1_to_csv
        from .experiments.figures_svg import save_figures, table1_svg

        table1_to_csv(cells, export_dir / "table1.csv")
        save_figures({"table1": table1_svg(cells)}, export_dir)
    return format_table1(cells)


def _selfcheck(
    scale: float,
    export_dir: Optional[Path],
    runner: SweepRunner,
    checked: bool,
) -> str:
    del scale, export_dir, runner, checked
    from .validation import format_selfcheck, run_selfcheck

    return format_selfcheck(run_selfcheck())


def _ablations(
    scale: float,
    export_dir: Optional[Path],
    runner: SweepRunner,
    checked: bool,
) -> str:
    del export_dir  # nothing tabular worth exporting
    del scale, checked  # ablations are already laptop-sized
    from .experiments.ablations import (
        absolute_vs_relative,
        adaptive_wtp_correction,
        additive_convergence,
        plr_demo,
        quantization_sweep,
        scheduler_comparison,
        sdp_ratio_sweep,
        wtp_starvation_demo,
    )
    from .experiments.reporting import format_ablation_rows

    parts = [
        format_ablation_rows(
            sdp_ratio_sweep(runner=runner), "SDP-ratio sweep (worst rel. error)"
        ),
        format_ablation_rows(
            scheduler_comparison(runner=runner), "Scheduler comparison"
        ),
        format_ablation_rows(additive_convergence(), "Additive model convergence"),
        format_ablation_rows(
            adaptive_wtp_correction(runner=runner),
            "Adaptive WTP vs WTP (mean |ratio error| vs target)",
        ),
        format_ablation_rows(
            quantization_sweep(runner=runner),
            "Quantized WTP (worst ratio error vs aging-epoch size)",
        ),
        format_ablation_rows([wtp_starvation_demo()], "WTP starvation (Prop 2)"),
        format_ablation_rows([plr_demo()], "PLR loss differentiation"),
        format_ablation_rows(
            absolute_vs_relative(),
            "Absolute (Premium, policed) vs relative (WTP) under surges",
        ),
    ]
    return "\n\n".join(parts)


def _city(
    scale: float,
    export_dir: Optional[Path],
    runner: SweepRunner,
    checked: bool,
    hybrid=None,
    fidelity_curve_epsilon: Optional[float] = None,
) -> str:
    import dataclasses

    from .scenarios import CityGridConfig, city_to_csv, format_city, run_city

    if fidelity_curve_epsilon is not None:
        from .scenarios import (
            fidelity_curve,
            fidelity_curve_base,
            fidelity_curve_svg,
            fidelity_curve_to_csv,
            format_fidelity_curve,
        )

        rows = fidelity_curve(
            base=fidelity_curve_base(scale),
            epsilon=fidelity_curve_epsilon,
            runner=runner,
        )
        if export_dir is not None:
            fidelity_curve_to_csv(rows, export_dir / "fidelity_curve.csv")
            fidelity_curve_svg(rows, export_dir / "fidelity_curve.svg")
        return format_fidelity_curve(rows)

    grid = CityGridConfig()
    grid = dataclasses.replace(
        grid,
        base=dataclasses.replace(
            grid.base, check_invariants=checked, hybrid=hybrid
        ),
    ).scaled(scale)
    points = run_city(grid, runner=runner)
    if export_dir is not None:
        city_to_csv(points, export_dir / "city.csv")
    return format_city(points)


_COMMANDS: dict[str, Callable[..., str]] = {
    "figure1": _figure1,
    "figure2": _figure2,
    "figure3": _figure3,
    "figure45": _figure45,
    "table1": _table1,
    "ablations": _ablations,
    "selfcheck": _selfcheck,
    "city": _city,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (installed as ``repro-pdd``)."""
    parser = argparse.ArgumentParser(
        prog="repro-pdd",
        description=(
            "Reproduce the evaluation of 'Proportional Differentiated "
            "Services: Delay Differentiation and Packet Scheduling' "
            "(SIGCOMM 1999)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*_COMMANDS, "all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale factor for run length / seed count (1.0 = paper scale)",
    )
    parser.add_argument(
        "--export-dir",
        type=Path,
        default=None,
        help=(
            "also write the result series (CSV/JSON) and rendered SVG "
            "charts into this directory"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help=(
            "worker processes for independent simulation runs "
            "(0 = one per CPU, 1 = serial; default: 0)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(DEFAULT_CACHE_DIR),
        help=(
            "directory of the content-addressed result cache; a killed "
            "sweep rerun with it executes only the cells it had not "
            f"finished (default: {DEFAULT_CACHE_DIR})"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache entirely",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help=(
            "run every simulation under the runtime invariant checker "
            "(per-class FIFO, causality, work conservation, "
            "losslessness, scheduler dispatch oracles, Eq 5); checked "
            "results are cached separately from unchecked ones"
        ),
    )
    parser.add_argument(
        "--hybrid",
        action="store_true",
        help=(
            "city only: run each cell through the hybrid fluid/packet "
            "engine -- fluid fast-forward between transients, packet "
            "simulation around them (cached separately via the config "
            "fingerprint)"
        ),
    )
    parser.add_argument(
        "--hybrid-epsilon",
        type=float,
        default=0.05,
        help=(
            "error-bound knob for --hybrid: a stretch runs in fluid "
            "mode only when its predicted error stays within this "
            "bound; 0 forces pure packet mode (default: 0.05)"
        ),
    )
    parser.add_argument(
        "--fidelity-curve",
        action="store_true",
        help=(
            "city only: instead of the scheduler grid, sweep hub "
            "utilization finely on one multihop topology and report the "
            "hybrid engine's DDP fidelity error against the pure packet "
            "run at each load (--hybrid-epsilon sets the knob; with "
            "--export-dir also writes fidelity_curve.csv and .svg)"
        ),
    )
    parser.add_argument(
        "--explain-cache",
        action="store_true",
        help=(
            "after each sweep, report why each cell hit or missed the "
            "cache -- new task, or code change, naming the modules "
            "whose edits invalidated it"
        ),
    )
    args = parser.parse_args(argv)
    if not 0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.explain_cache and args.no_cache:
        parser.error("--explain-cache needs the cache; drop --no-cache")
    if args.hybrid_epsilon < 0:
        parser.error("--hybrid-epsilon must be >= 0")
    hybrid_config = None
    if args.hybrid:
        if args.experiment != "city":
            parser.error("--hybrid applies to the city experiment only")
        if args.check_invariants:
            parser.error(
                "--hybrid and --check-invariants are mutually exclusive "
                "(invariant checking needs the pure packet path)"
            )
        from .sim.hybrid import HybridConfig

        hybrid_config = HybridConfig(epsilon=args.hybrid_epsilon)
    fidelity_curve_epsilon = None
    if args.fidelity_curve:
        if args.experiment != "city":
            parser.error("--fidelity-curve applies to the city experiment only")
        if args.check_invariants:
            parser.error(
                "--fidelity-curve and --check-invariants are mutually "
                "exclusive (the curve's hybrid cells need the pure "
                "packet path)"
            )
        if args.hybrid_epsilon <= 0:
            parser.error("--fidelity-curve needs --hybrid-epsilon > 0")
        fidelity_curve_epsilon = args.hybrid_epsilon

    from .runner import ResultCache, SweepRunner

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = SweepRunner(jobs=jobs, cache=cache, explain=args.explain_cache)

    # "all" reproduces the paper's figures/tables; the city-scale grid
    # is opt-in (it is this library's extension, not a paper artifact).
    names = (
        [name for name in _COMMANDS if name != "city"]
        if args.experiment == "all"
        else [args.experiment]
    )
    try:
        for name in names:
            start = time.perf_counter()
            first_report = len(runner.reports)
            first_explanation = len(runner.explanations)
            output = _COMMANDS[name](
                args.scale,
                args.export_dir,
                runner,
                args.check_invariants,
                **(
                    {
                        "hybrid": hybrid_config,
                        "fidelity_curve_epsilon": fidelity_curve_epsilon,
                    }
                    if name == "city"
                    else {}
                ),
            )
            elapsed = time.perf_counter() - start
            print(output)
            for report in runner.reports[first_report:]:
                print(f"[sweep] {report.summary()}")
            for explanation in runner.explanations[first_explanation:]:
                print(explanation.summary())
            print(f"[{name} finished in {elapsed:.1f}s]\n")
    finally:
        runner.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
