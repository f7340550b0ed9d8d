"""The four end-to-end workloads: inputs, timed body, output checks.

Each workload is built from ``(seed, smoke)`` alone: ``seed`` shifts
every config seed by ``seed - 1`` (seed 1 reproduces the CLI's
defaults), ``smoke`` shrinks the grids so a whole run takes seconds.
The program under test only ever receives these generated configs and
traces, through its public entry points.

A workload has three phases, timed differently by :mod:`child`:

* :meth:`Workload.setup` -- input construction (city trace compilation)
  -- counts toward ``setup_s``;
* :meth:`Workload.run` -- one timed pass; every unit (a figure driver
  call or a city cell) runs even if an earlier one raised;
* :meth:`Workload.finish` -- untimed: canonical outputs for the digest,
  failed-cell accounting and output checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

#: The ``paper_table1`` pass: Table 1's 4- and 8-hop rows at rho 0.95
#: on the F = 10 packets, R_u = 200 kbps column, M = 2 user experiments
#: after a 0.5 s warm-up.  The full 16-cell grid at the CLI's smallest
#: scale takes ~36 s, more than a whole benchmark run may measure.
TABLE1_PASS = dict(
    hops_values=(4, 8),
    utilizations=(0.95,),
    flow_packets_values=(10,),
    flow_rates_kbps=(200.0,),
    experiments=2,
    warmup=500.0,
)
TABLE1_SMOKE = dict(TABLE1_PASS, hops_values=(4,), utilizations=(0.85,))

#: Scale (the CLI's ``--scale``) of every single-hop figure.  At this
#: scale Figure 3's 10^4 p-unit timescale is longer than the run, so
#: Figure 3 monitors the three shorter ones only.
FIGURES_SCALE = 0.05
FIGURE3_TAUS = (10.0, 100.0, 1000.0)

#: Error-bound knob of every hybrid run.
HYBRID_EPSILON = 0.05

#: A hybrid cell whose mean relative per-class delay error against the
#: pure replay exceeds this is an incorrect output.  It is a gross-break
#: gate (5x epsilon), not the epsilon contract: at these short horizons
#: the worst cell reads 0.04-0.11 over seeds 1-10, and the long-horizon
#: 4x3-hop bpr cell reads 0.076 > epsilon.
FIDELITY_LIMIT = 0.25


@dataclass
class PassOutput:
    """What one pass produced, after the untimed checks."""

    canonical: list
    cells: int
    failed: int
    packet_hops: int
    problems: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _run_units(units: list[tuple[str, Callable[[], Any]]]) -> list:
    """Run every unit; a raising unit yields its exception."""
    results = []
    for _, fn in units:
        try:
            results.append(fn())
        except Exception as exc:  # a failed cell is counted, not fatal
            results.append(exc)
    return results


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        if seed < 0:
            raise ValueError(f"seed must be >= 0: {seed}")
        self.seed = seed
        self.smoke = smoke

    def shift(self, seed: int) -> int:
        return seed + self.seed - 1

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, work_dir: str) -> list:
        raise NotImplementedError

    def finish(self, raw: list, departures: int) -> PassOutput:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Paper artifacts
# ----------------------------------------------------------------------
class PaperSingleHop(Workload):
    """Figures 1a/1b, 2a/2b, 3 and 4/5 at the CLI's ``--scale 0.05``."""

    name = "paper_singlehop"

    def setup(self) -> None:
        from repro.experiments.figure1 import (
            SDP_RATIO_2, SDP_RATIO_4, FigureOneConfig, run_figure1,
        )
        from repro.experiments.figure2 import FigureTwoConfig, run_figure2
        from repro.experiments.figure3 import FigureThreeConfig, run_figure3
        from repro.experiments.figure45 import MicroscopicConfig, run_figure45

        if self.smoke:
            fig1 = dict(utilizations=(0.8, 0.95), horizon=2e4, warmup=2e3)
            fig2 = dict(horizon=2e4, warmup=2e3)
            fig3 = FigureThreeConfig(
                taus_p_units=(10.0, 100.0), horizon=2e4, warmup=2e3
            )
            fig45 = MicroscopicConfig(
                horizon=3e4, warmup=2e3,
                view1_window_p_units=500.0, view2_window_p_units=200.0,
            )
        else:
            fig1 = fig2 = {}
            fig3 = dataclasses.replace(
                FigureThreeConfig().scaled(FIGURES_SCALE), taus_p_units=FIGURE3_TAUS
            )
            fig45 = MicroscopicConfig().scaled(FIGURES_SCALE)
        self.units = []
        for sdps, label in ((SDP_RATIO_2, "a"), (SDP_RATIO_4, "b")):
            config = FigureOneConfig(sdps=sdps).scaled(FIGURES_SCALE)
            config = dataclasses.replace(
                config, seeds=tuple(map(self.shift, config.seeds)), **fig1
            )
            self.units.append((f"figure1{label}", run_figure1, config))
        for sdps, label in ((SDP_RATIO_2, "a"), (SDP_RATIO_4, "b")):
            config = FigureTwoConfig(sdps=sdps).scaled(FIGURES_SCALE)
            if self.smoke:
                config = dataclasses.replace(
                    config, distributions=config.distributions[:2]
                )
            config = dataclasses.replace(
                config, seeds=tuple(map(self.shift, config.seeds)), **fig2
            )
            self.units.append((f"figure2{label}", run_figure2, config))
        self.units.append(
            ("figure3", run_figure3,
             dataclasses.replace(fig3, seed=self.shift(fig3.seed)))
        )
        self.units.append(
            ("figure45", run_figure45,
             dataclasses.replace(fig45, seed=self.shift(fig45.seed)))
        )

    def run(self, work_dir: str) -> list:
        from repro.runner import ResultCache, SweepRunner

        runner = SweepRunner(jobs=1, cache=ResultCache(work_dir))
        return _run_units(
            [(label, lambda d=driver, c=config: d(c, runner=runner))
             for label, driver, config in self.units]
        )

    @staticmethod
    def _cells(label: str, config) -> int:
        if label.startswith("figure1"):
            return len(config.utilizations) * len(config.schedulers) * len(config.seeds)
        if label.startswith("figure2"):
            return len(config.distributions) * len(config.schedulers) * len(config.seeds)
        if label == "figure3":
            return len(config.schedulers)
        return 2  # figure45: one replay per scheduler

    def finish(self, raw: list, departures: int) -> PassOutput:
        out = PassOutput(canonical=[], cells=0, failed=0, packet_hops=departures)
        for (label, _, config), result in zip(self.units, raw):
            cells = self._cells(label, config)
            out.cells += cells
            if isinstance(result, Exception):
                out.failed += cells
                out.problems.append(f"{label}: {result!r}")
                out.canonical.append([label, "error"])
                continue
            if label.startswith(("figure1", "figure2")):
                per_point = len(config.seeds)
                rows = []
                for p in result:
                    key = p.utilization if label.startswith("figure1") else p.loads.label()
                    rows.append([p.scheduler, key, p.ratios, p.target_ratios, p.feasible])
                    if not _finite(p.ratios):
                        out.failed += per_point
                out.canonical.append([label, rows])
            elif label == "figure3":
                rows, bad = [], set()
                for box in result:
                    s = box.summary
                    values = [s.p5, s.p25, s.median, s.p75, s.p95]
                    rows.append([box.scheduler, box.tau_p_units, *values, s.count])
                    if s.count == 0 or not _finite(values):
                        bad.add(box.scheduler)
                out.failed += len(bad)
                out.canonical.append([label, rows])
            else:
                rows = []
                for name, view in sorted(result.items()):
                    rows.append([name, view.interval_means.tolist(), view.packet_samples])
                    if not view.interval_means.size or not any(view.packet_samples):
                        out.failed += 1
                out.canonical.append([label, rows])
        return out


class PaperTable1(Workload):
    """Table 1's (K, rho) rows on one (F, R_u) column; see TABLE1_PASS."""

    name = "paper_table1"

    def setup(self) -> None:
        from repro.experiments.table1 import TableOneConfig

        shape = TABLE1_SMOKE if self.smoke else TABLE1_PASS
        self.config = TableOneConfig(**shape, seed=self.shift(1))

    def run(self, work_dir: str) -> list:
        from repro.experiments.table1 import run_table1
        from repro.runner import ResultCache, SweepRunner

        runner = SweepRunner(jobs=1, cache=ResultCache(work_dir))
        return _run_units([("table1", lambda: run_table1(self.config, runner=runner))])

    def finish(self, raw: list, departures: int) -> PassOutput:
        config = self.config
        cells = (len(config.hops_values) * len(config.utilizations)
                 * len(config.flow_packets_values) * len(config.flow_rates_kbps))
        out = PassOutput(canonical=[], cells=cells, failed=0, packet_hops=departures)
        result = raw[0]
        if isinstance(result, Exception):
            out.failed = cells
            out.problems.append(f"table1: {result!r}")
            out.canonical.append("error")
            return out
        for cell in result:
            comparisons = cell.result.comparisons
            rds = [c.rd for c in comparisons]
            out.canonical.append([
                cell.hops, cell.utilization, cell.flow_packets,
                cell.flow_rate_kbps, cell.rd, cell.inconsistent,
                [c.percentile_matrix.tolist() for c in comparisons],
            ])
            truncated = len(comparisons) < config.experiments
            if truncated or not _finite([cell.rd, *rds]):
                out.failed += 1
        return out


# ----------------------------------------------------------------------
# City cells
# ----------------------------------------------------------------------
def city_cells(seed_shift: Callable[[int], int], smoke: bool) -> list:
    """``[(label, config)]`` of the two city cells (pure-packet configs).

    ``hub``: star_of_chains 8x1, 300 flows over 12 s, rho 0.9, wtp;
    ``chain3``: 4 branches x 3 hops, 300 flows over 9 s, bpr; both after
    a 1 s warm-up.  They are short so that one run holds many passes.
    chain3 carries 300 flows, not the 200 of the long-horizon hybrid
    cell: at a short horizon the burstier 200-flow aggregate makes the
    hybrid planner take 1 to 4 segments depending on the seed, so
    hybrid cost would swing with the inputs rather than with the code.
    """
    from repro.scenarios.city import CityScenarioConfig

    if smoke:  # the hub cell still takes a fluid segment
        hub = dict(flows=300, horizon=8_000.0, warmup=500.0)
        chain = dict(flows=200, horizon=6_000.0, warmup=500.0)
    else:
        hub = dict(flows=300, horizon=12_000.0, warmup=1_000.0)
        chain = dict(flows=300, horizon=9_000.0, warmup=1_000.0)
    return [
        ("hub", CityScenarioConfig(
            topology="star_of_chains", branches=8, hops_per_branch=1,
            utilization=0.9, scheduler="wtp", seed=seed_shift(3), **hub)),
        ("chain3", CityScenarioConfig(
            topology="star_of_chains", branches=4, hops_per_branch=3,
            utilization=0.9, scheduler="bpr", seed=seed_shift(7), **chain)),
    ]


def replay_packet(config, traces) -> tuple[list[float], int]:
    """Pure packet replay of one city cell: ``(class means, hub departures)``.

    The same body as ``city_summary``'s packet branch, over traces
    compiled beforehand.
    """
    from repro.scenarios import generators
    from repro.sim.engine import Simulator
    from repro.sim.monitor import DelayMonitor
    from repro.traffic.trace import TraceSource

    sim = Simulator()
    entries, _, hub = generators.build_city_topology(sim, config)
    monitor = DelayMonitor(config.num_classes, warmup=config.warmup)
    hub.add_monitor(monitor)
    for branch, trace in enumerate(traces):
        if len(trace):
            TraceSource(
                sim, entries[branch], trace, first_packet_id=branch * 10_000_000
            ).start()
    sim.run(until=config.horizon)
    return monitor.mean_delays(), hub.departures


class _City(Workload):
    def setup(self) -> None:
        from repro.scenarios import city

        self.cells = city_cells(self.shift, self.smoke)
        self.traces = [city.compile_city_traces(config) for _, config in self.cells]
        # Every arrival crosses its branch's chain hops, then the hub.
        self.offered_hops = sum(
            len(trace) * (config.hops_per_branch + 1)
            for (_, config), traces in zip(self.cells, self.traces)
            for trace in traces
        )

    def _check_means(self, out: PassOutput, label: str, means: list[float]) -> bool:
        if not _finite(means) or min(means) <= 0:
            out.problems.append(f"{label}: class means {means}")
            return False
        return True


class CityPacket(_City):
    """Both city cells replayed pure-packet."""

    name = "city_packet"

    def run(self, work_dir: str) -> list:
        return _run_units(
            [(label, lambda c=config, t=traces: replay_packet(c, t))
             for (label, config), traces in zip(self.cells, self.traces)]
        )

    def finish(self, raw: list, departures: int) -> PassOutput:
        out = PassOutput(canonical=[], cells=len(self.cells), failed=0,
                         packet_hops=self.offered_hops)
        for (label, _), result in zip(self.cells, raw):
            if isinstance(result, Exception):
                out.failed += 1
                out.problems.append(f"{label}: {result!r}")
                out.canonical.append([label, "error"])
                continue
            means, hub_departures = result
            out.canonical.append([label, means, hub_departures])
            if not self._check_means(out, label, means):
                out.failed += 1
        # Conservation: every offered packet-hop departs by the horizon,
        # up to the packets still queued there.
        if not 0.99 * self.offered_hops <= departures <= self.offered_hops:
            out.problems.append(
                f"link departures {departures} vs offered packet-hops "
                f"{self.offered_hops}"
            )
        return out


class CityHybrid(_City):
    """Both city cells through ``run_hybrid_city`` at epsilon 0.05."""

    name = "city_hybrid"

    def setup(self) -> None:
        super().setup()
        from repro.sim.hybrid import HybridConfig

        self.hybrid_cells = [
            (label, dataclasses.replace(
                config, hybrid=HybridConfig(epsilon=HYBRID_EPSILON)))
            for label, config in self.cells
        ]

    def run(self, work_dir: str) -> list:
        from repro.sim import hybrid

        return _run_units(
            [(label, lambda c=config, t=traces: hybrid.run_hybrid_city(c, t))
             for (label, config), traces in zip(self.hybrid_cells, self.traces)]
        )

    def finish(self, raw: list, departures: int) -> PassOutput:
        # pkts_per_s charges the hybrid run with the pure run's work, so
        # city_hybrid / city_packet pkts_per_s is the hybrid speedup.
        out = PassOutput(canonical=[], cells=len(self.cells), failed=0,
                         packet_hops=self.offered_hops)
        fractions, segments, demotions = [], 0, 0
        self.last_means = []
        for (label, _), result in zip(self.cells, raw):
            if isinstance(result, Exception):
                out.failed += 1
                out.problems.append(f"{label}: {result!r}")
                out.canonical.append([label, "error"])
                self.last_means.append(None)
                continue
            summary = result.summary()
            means = result.monitor.mean_delays()
            self.last_means.append(means)
            out.canonical.append([
                label, means, summary["packet_departures"],
                summary["fluid_credited"], summary["segments"],
            ])
            fractions.append(summary["fluid_time_fraction"])
            segments += summary["segments"]
            demotions += len(summary["demotions"])
            if not self._check_means(out, label, means):
                out.failed += 1
        out.extras = {
            "fluid_fraction": sum(fractions) / len(fractions) if fractions else 0.0,
            "segments": segments,
            "demotions": demotions,
        }
        return out

    def fidelity(self) -> float | None:
        """Worst cell's mean relative per-class mean-delay error of the
        last pass against one untimed pure replay of the same cell
        (``None`` when a hybrid cell failed)."""
        worst = 0.0
        for (_, config), traces, means in zip(
            self.cells, self.traces, self.last_means
        ):
            if means is None:
                return None
            pure, _ = replay_packet(config, traces)
            errors = [abs(h - p) / p for h, p in zip(means, pure)]
            worst = max(worst, sum(errors) / len(errors))
        return worst


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperSingleHop, PaperTable1, CityPacket, CityHybrid)
}
