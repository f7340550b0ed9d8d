"""Table 1: end-to-end R_D over the (F, R_u) x (K, rho) grid.

Sixteen cells: user-flow length F in {10, 100} packets, user-flow rate
R_u in {50, 200} kbps, path length K in {4, 8} hops, link utilization
rho in {0.85, 0.95}.  Each cell runs M user experiments and reports the
averaged end-to-end delay ratio R_D (ideal 2.0 for SDP ratio 2) plus
the count of inconsistent experiments (paper: zero everywhere; R_D
between 2.0 and 2.3, improving with K and rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.metrics import EndToEndComparison
from ..network.multihop import MultiHopConfig, MultiHopResult
from ..runner import MultiHopTask, SweepRunner, multihop_summary, serial_runner

__all__ = ["TableOneConfig", "TableOneCell", "run_table1", "format_table1"]


@dataclass(frozen=True)
class TableOneConfig:
    """Grid plus per-cell simulation scale (paper defaults)."""

    hops_values: tuple[int, ...] = (4, 8)
    utilizations: tuple[float, ...] = (0.85, 0.95)
    flow_packets_values: tuple[int, ...] = (10, 100)
    flow_rates_kbps: tuple[float, ...] = (50.0, 200.0)
    experiments: int = 100
    warmup: float = 100_000.0
    seed: int = 1
    #: Run every cell under the runtime invariant checker (one per hop).
    check_invariants: bool = False

    def scaled(self, factor: float) -> "TableOneConfig":
        return TableOneConfig(
            hops_values=self.hops_values,
            utilizations=self.utilizations,
            flow_packets_values=self.flow_packets_values,
            flow_rates_kbps=self.flow_rates_kbps,
            experiments=max(5, round(self.experiments * factor)),
            warmup=max(5_000.0, self.warmup * factor),
            seed=self.seed,
            check_invariants=self.check_invariants,
        )


@dataclass
class TableOneCell:
    """One Table 1 cell and its measured outcome."""

    hops: int
    utilization: float
    flow_packets: int
    flow_rate_kbps: float
    result: MultiHopResult

    @property
    def rd(self) -> float:
        return self.result.rd

    @property
    def inconsistent(self) -> int:
        return self.result.inconsistent_experiments


def table1_tasks(config: TableOneConfig) -> list[MultiHopTask]:
    """The sixteen-cell grid, flattened in the paper's row-major order."""
    tasks = []
    for hops in config.hops_values:
        for rho in config.utilizations:
            for flow_packets in config.flow_packets_values:
                for rate in config.flow_rates_kbps:
                    tasks.append(
                        MultiHopTask(
                            config=MultiHopConfig(
                                hops=hops,
                                utilization=rho,
                                flow_packets=flow_packets,
                                flow_rate_kbps=rate,
                                experiments=config.experiments,
                                warmup=config.warmup,
                                seed=config.seed,
                            ),
                            check_invariants=config.check_invariants,
                        )
                    )
    return tasks


def run_table1(
    config: TableOneConfig, runner: Optional[SweepRunner] = None
) -> list[TableOneCell]:
    """Run every cell of the Table 1 grid (cells fan out over ``runner``)."""
    if runner is None:
        runner = serial_runner()
    tasks = table1_tasks(config)
    summaries = runner.map(multihop_summary, tasks)

    cells = []
    for task, summary in zip(tasks, summaries):
        mh_config = task.config
        result = MultiHopResult(
            config=mh_config,
            comparisons=[
                EndToEndComparison(
                    percentile_matrix=np.asarray(
                        c["percentile_matrix"], dtype=float
                    ),
                    inconsistencies=c["inconsistencies"],
                    rd=c["rd"],
                )
                for c in summary["comparisons"]
            ],
        )
        cells.append(
            TableOneCell(
                hops=mh_config.hops,
                utilization=mh_config.utilization,
                flow_packets=mh_config.flow_packets,
                flow_rate_kbps=mh_config.flow_rate_kbps,
                result=result,
            )
        )
    return cells


def format_table1(cells: Sequence[TableOneCell]) -> str:
    """Render the measured grid in the paper's row/column layout."""
    if not cells:
        return "Table 1: no cells"
    columns = sorted(
        {(c.flow_packets, c.flow_rate_kbps) for c in cells}
    )
    rows = sorted({(c.hops, c.utilization) for c in cells})
    by_key = {
        (c.hops, c.utilization, c.flow_packets, c.flow_rate_kbps): c
        for c in cells
    }
    header = f"{'':>14}" + "".join(
        f"{'F=%d,Ru=%g' % col:>16}" for col in columns
    )
    lines = [
        "Table 1: end-to-end R_D (ideal 2.00); '!' marks inconsistent runs",
        header,
    ]
    for hops, rho in rows:
        row_label = f"K={hops}, rho={rho:g}"
        entries = []
        for flow_packets, rate in columns:
            cell = by_key.get((hops, rho, flow_packets, rate))
            if cell is None:
                entries.append(f"{'--':>16}")
            else:
                mark = "!" if cell.inconsistent else ""
                entries.append(f"{cell.rd:>15.2f}{mark or ' '}")
        lines.append(f"{row_label:>14}" + "".join(entries))
    total_inconsistent = sum(c.inconsistent for c in cells)
    lines.append(f"inconsistent experiments across all cells: {total_inconsistent}")
    return "\n".join(lines)
