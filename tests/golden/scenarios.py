"""The golden scenarios: small fixed-seed runs with committed outputs.

Each scenario is exactly one runner task executed through its
module-level worker -- the same code path the sweep runner and the
result cache use -- so a golden mismatch means the *pipeline's* output
changed, not merely some internal quantity.  All scenarios run under
the invariant checker: every golden regression test is simultaneously
an invariant-checked run of a Figure 1/2-style configuration.

Scenario sizes are chosen so the whole corpus replays in a few seconds:
long enough that every class departs thousands of packets (no NaN
ratios), short enough for the tier-1 suite.

Tolerances: the simulation is deterministic and JSON round-trips Python
floats exactly, so reproduction on the same platform matches to the
last bit; the comparison still uses explicit tolerances (relative 1e-9,
absolute 1e-12) to absorb harmless cross-platform libm differences.
Integers (packet counts, busy periods, inconsistency counts) must match
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.experiments.common import SingleHopConfig
from repro.network.multihop import MultiHopConfig
from repro.runner import (
    MultiHopTask,
    SingleHopTask,
    multihop_summary,
    single_hop_summary,
)
from repro.scenarios.city import CityScenarioConfig, CityTask, city_summary
from repro.sim.hybrid import HybridConfig

__all__ = ["GOLDEN_DIR", "GoldenScenario", "golden_scenarios"]

GOLDEN_DIR = Path(__file__).resolve().parent

#: Default float tolerances recorded in every golden file.
RELATIVE_TOLERANCE = 1e-9
ABSOLUTE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GoldenScenario:
    """One corpus entry: a named task plus the worker that runs it."""

    name: str
    description: str
    worker: Callable[[Any], dict]
    task: Any

    @property
    def path(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.json"

    def run(self) -> dict:
        """Execute the scenario and return its summary."""
        return self.worker(self.task)


@dataclass(frozen=True)
class DifferentialTask:
    """A differential-harness cell frozen into the corpus."""

    scheduler: str
    shape: str
    seed: int = 9


def differential_summary(task: DifferentialTask) -> dict:
    """Run one differential-harness cell and summarize it (JSON-able).

    The cell runs evented under the invariant checker -- the harness's
    own grid already proves the fused mode bit-identical to this one,
    so pinning the oracle-checked reference pins both.
    """
    from ..differential import run_cell

    capture, _ = run_cell(
        task.scheduler,
        task.shape,
        kernel="evented",
        seed=task.seed,
        check_invariants=True,
    )
    return {
        "flow_delays": [list(delays) for delays in capture.delays],
        "links": [
            [
                state[0],  # arrivals
                state[1],  # departures
                state[2],  # bytes_sent
                state[3],  # busy_time
                state[4],  # busy
                state[5],  # queued packets
                list(state[6]),  # head arrivals
                list(state[7]),  # byte backlogs
            ]
            for state in capture.links
        ],
        "now": capture.now,
        "invariants": capture.invariants,
    }


def _single_hop(scheduler: str) -> SingleHopTask:
    return SingleHopTask(
        config=SingleHopConfig(
            scheduler=scheduler,
            sdps=(1.0, 2.0, 4.0, 8.0),
            utilization=0.9,
            horizon=3e4,
            warmup=2e3,
            seed=42,
        ),
        check_invariants=True,
    )


def golden_scenarios() -> list[GoldenScenario]:
    """The corpus, in a fixed order (file names derive from `name`)."""
    scenarios = [
        GoldenScenario(
            name=f"single_hop_{scheduler}",
            description=(
                f"{scheduler.upper()} single hop, SDP ratio 2, rho=0.9, "
                "seed 42, invariant-checked"
            ),
            worker=single_hop_summary,
            task=_single_hop(scheduler),
        )
        for scheduler in ("wtp", "bpr", "fcfs")
    ]
    scenarios.append(
        GoldenScenario(
            name="multihop_wtp",
            description=(
                "Two-hop WTP path with cross traffic, three user "
                "experiments, rho=0.85, seed 11, invariant-checked"
            ),
            worker=multihop_summary,
            task=MultiHopTask(
                config=MultiHopConfig(
                    hops=2,
                    utilization=0.85,
                    flow_packets=10,
                    flow_rate_kbps=50.0,
                    experiments=3,
                    experiment_period=500.0,
                    warmup=1000.0,
                    drain=1500.0,
                    seed=11,
                ),
                check_invariants=True,
            ),
        )
    )
    for scheduler in ("bpr", "drr"):
        scenarios.append(
            GoldenScenario(
                name=f"fanin_{scheduler}",
                description=(
                    f"{scheduler.upper()} fan-in merge (two upstreams + "
                    "cross traffic into one server), differential-harness "
                    "cell, seed 9, invariant-checked"
                ),
                worker=differential_summary,
                task=DifferentialTask(scheduler=scheduler, shape="fanin"),
            )
        )
    scenarios.append(
        GoldenScenario(
            name="hybrid_city_wtp",
            description=(
                "Hybrid fluid/packet long-horizon city cell: WTP star "
                "hub, 100 flows over 40k ms, epsilon=0.05 -- pins the "
                "segment plan, the fluid-credited class means, and the "
                "packet/fluid handoff bookkeeping (runs unchecked: the "
                "fluid segments have no event stream to check)"
            ),
            worker=city_summary,
            task=CityTask(
                config=CityScenarioConfig(
                    flows=100,
                    horizon=40_000.0,
                    warmup=1_000.0,
                    seed=7,
                    hybrid=HybridConfig(epsilon=0.05),
                )
            ),
        )
    )
    for scheduler in ("bpr", "drr"):
        scenarios.append(
            GoldenScenario(
                name=f"routed_dag_{scheduler}",
                description=(
                    f"{scheduler.upper()} routed diamond DAG (RouteDemux "
                    "merge over the shared tail edge), differential-"
                    "harness cell, seed 9, invariant-checked"
                ),
                worker=differential_summary,
                task=DifferentialTask(scheduler=scheduler, shape="routed"),
            )
        )
    return scenarios
