"""Outside-in span tracer for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  :class:`Tracer`
replaces the public entry points of each ``repro`` layer *at the
attribute the caller looks up* (a module global for lazily imported
functions, a class attribute for methods) with a wrapper that records a
span, and puts every original object back on :meth:`Tracer.uninstall`.
Wrappers use :func:`functools.wraps`, so sweep-cache keys (built from a
worker's ``__module__``/``__qualname__``) do not change.

A span is ``(name, start, end, parent, cell)``.  Spans nest strictly
(one thread), so a span's *self time* is its duration minus the
durations of its direct children, and the self times of every span
under one root add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Any, Callable, Optional

#: Span name -> the ``repro`` layer its self time is charged to.
SPAN_LAYERS = {
    "runner.map": "runner",
    "runner.cell": "runner",
    "runner.cache": "runner",
    "runner.code_version": "runner",
    "traffic.compile": "traffic",
    "sim.run": "sim",
    "monitor.finalize": "monitor",
    "core.feasibility": "core",
    "core.lindley": "core",
    "core.rd": "core",
    "network.build": "network",
    "network.compare": "network",
    "schedulers.draingen": "schedulers",
    "scenarios.build": "scenarios",
    "hybrid.controller": "hybrid",
    "hybrid.packet": "hybrid",
    "hybrid.plan": "hybrid",
    "hybrid.lindley": "hybrid",
    "hybrid.envelope": "hybrid",
    "hybrid.handoff": "hybrid",
}

LAYERS = tuple(dict.fromkeys(SPAN_LAYERS.values()))

#: Root span of one timed pass; its self time is ``unattributed_s``.
PASS_SPAN = "harness.pass"
#: Root span of the child's input construction (traced runs only).
SETUP_SPAN = "harness.setup"


class _Patches:
    """Attribute replacements that can all be undone, in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class LinkRegistry:
    """Records every ``Link`` built while installed (no spans).

    The only hook an untraced pass carries: summing ``departures`` over
    the registered links gives the pass's packet-hop count.  It costs
    one wrapper call per link *built*, never per packet.
    """

    def __init__(self) -> None:
        self.links: list = []
        self._patches = _Patches()

    def install(self) -> "LinkRegistry":
        from repro.sim.link import Link

        links = self.links

        def make(original):
            @functools.wraps(original)
            def __init__(self, *args, **kwargs):
                original(self, *args, **kwargs)
                links.append(self)

            return __init__

        self._patches.replace(Link, "__init__", make)
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    @property
    def departures(self) -> int:
        return sum(link.departures for link in self.links)


class Tracer:
    """Span recorder plus counters, attached by attribute replacement."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, cell]`` lists, in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cell: Optional[int] = None
        self._cells = 0
        self._controller_depth = 0
        self.arrivals = 0
        self.packets = 0
        self.draingen_calls = 0
        self.sims: list = []
        self.links = LinkRegistry()
        self._patches = _Patches()

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._cell])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: {popped} != {index}")

    def _traced(self, name: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    # -- install / uninstall --------------------------------------------
    def install(self) -> "Tracer":
        import repro.core.conservation as conservation
        import repro.core.metrics as metrics
        import repro.experiments.common as common
        import repro.network.multihop as multihop
        import repro.runner.cache as cache
        import repro.runner.runner as runner
        import repro.scenarios.city as city
        import repro.scenarios.generators as generators
        import repro.schedulers.draingen as draingen
        import repro.sim.engine as engine
        import repro.sim.hybrid as hybrid
        import repro.sim.link as link
        import repro.sim.monitor as monitor
        import repro.sim.packet as packet

        patch = self._patches.replace
        traced = self._traced

        def simple(owner, attr, name):
            patch(owner, attr, lambda original: traced(name, original))

        # runner: the worker each driver hands to SweepRunner.map runs
        # as one "cell" span per task.
        def make_map(original):
            @functools.wraps(original)
            def map(runner_self, worker, tasks):
                cell_worker = self._cell_worker(worker)
                index = self.open("runner.map")
                try:
                    return original(runner_self, cell_worker, tasks)
                finally:
                    self.close(index)

            return map

        patch(runner.SweepRunner, "map", make_map)
        for attr in ("get", "put", "put_index"):
            simple(cache.ResultCache, attr, "runner.cache")
        simple(runner, "worker_code_version", "runner.code_version")

        # traffic: arrival compilation, counting the arrivals produced.
        def counting(original):
            @functools.wraps(original)
            def compile_(*args, **kwargs):
                index = self.open("traffic.compile")
                try:
                    out = original(*args, **kwargs)
                finally:
                    self.close(index)
                traces = out if isinstance(out, list) else [out]
                self.arrivals += sum(len(trace) for trace in traces)
                return out

            return compile_

        patch(common, "generate_trace", counting)
        patch(city, "compile_city_traces", counting)

        # sim: the engine loop, split by whether a hybrid controller
        # drives it; simulators and links are registered for counts.
        def make_run(original):
            @functools.wraps(original)
            def run(sim_self, until=None, hybrid=None):
                if hybrid is not None:  # delegation to the controller
                    return original(sim_self, until, hybrid)
                name = "hybrid.packet" if self._controller_depth else "sim.run"
                index = self.open(name)
                try:
                    return original(sim_self, until)
                finally:
                    self.close(index)

            return run

        patch(engine.Simulator, "run", make_run)

        def make_sim_init(original):
            @functools.wraps(original)
            def __init__(sim_self, *args, **kwargs):
                original(sim_self, *args, **kwargs)
                self.sims.append(sim_self)

            return __init__

        patch(engine.Simulator, "__init__", make_sim_init)
        self.links.install()

        def make_packet_init(original):
            @functools.wraps(original)
            def __init__(*args, **kwargs):
                self.packets += 1
                original(*args, **kwargs)

            return __init__

        patch(packet.Packet, "__init__", make_packet_init)

        # sim.monitor
        simple(monitor.IntervalDelayMonitor, "finalize", "monitor.finalize")
        simple(monitor.IntervalDelayMonitor, "interval_means", "monitor.finalize")
        simple(monitor.PacketTap, "samples_array", "monitor.finalize")

        # core: the Lindley recursion is charged to the hybrid engine
        # when a controller called it.
        simple(common.SingleHopResult, "feasibility_report", "core.feasibility")

        def make_lindley(original):
            core_fn = traced("core.lindley", original)
            hybrid_fn = traced("hybrid.lindley", original)

            @functools.wraps(original)
            def fcfs_waiting_times(*args, **kwargs):
                fn = hybrid_fn if self._controller_depth else core_fn
                return fn(*args, **kwargs)

            return fcfs_waiting_times

        patch(conservation, "fcfs_waiting_times", make_lindley)
        simple(metrics, "summarize_rd", "core.rd")

        # network
        simple(multihop, "run_multihop", "network.build")
        simple(multihop, "compare_flow_percentiles", "network.compare")

        # schedulers: generated drain bodies (first call per class runs
        # bind-time verification).
        def make_draingen(original):
            inner = traced("schedulers.draingen", original)

            @functools.wraps(original)
            def generated_drain_pair(*args, **kwargs):
                self.draingen_calls += 1
                return inner(*args, **kwargs)

            return generated_drain_pair

        patch(draingen, "generated_drain_pair", make_draingen)

        # scenarios: city.py imports the topology builder at module level, the
        # hybrid controller looks it up in generators at call time.
        simple(generators, "build_city_topology", "scenarios.build")
        simple(city, "build_city_topology", "scenarios.build")

        # sim.hybrid
        def make_controller_run(original):
            @functools.wraps(original)
            def run(*args, **kwargs):
                self._controller_depth += 1
                index = self.open("hybrid.controller")
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(index)
                    self._controller_depth -= 1

            return run

        patch(hybrid.HybridController, "run", make_controller_run)
        simple(hybrid.HybridController, "plan", "hybrid.plan")
        simple(hybrid, "check_fluid_envelopes", "hybrid.envelope")
        simple(link.Link, "backlog_snapshot", "hybrid.handoff")
        simple(link.Link, "seed_backlog", "hybrid.handoff")
        return self

    def _cell_worker(self, worker: Callable) -> Callable:
        @functools.wraps(worker)
        def cell(task):
            previous = self._cell
            self._cell = self._cells
            self._cells += 1
            index = self.open("runner.cell")
            try:
                return worker(task)
            finally:
                self.close(index)
                self._cell = previous

        return cell

    def uninstall(self) -> None:
        self.links.uninstall()
        self._patches.restore()


def span_times(spans: list[list], indices: list[int]) -> tuple[dict, dict]:
    """``(total, self)`` seconds per span name over ``indices``."""
    child_time = {index: 0.0 for index in indices}
    for index in indices:
        name, start, end, parent, _ = spans[index]
        if parent in child_time:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    for index in indices:
        name, start, end, _, _ = spans[index]
        totals[name] = totals.get(name, 0.0) + (end - start)
        selfs[name] = selfs.get(name, 0.0) + (end - start - child_time[index])
    return totals, selfs


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); NaN if empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def layer_metrics(
    tracer: Tracer,
    setup_tracer: Tracer,
    cells: list[float],
    pass_counts: dict,
    scale: float = 1.0,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``tracer`` recorded the pass (its first span is the pass root);
    ``setup_tracer`` the child's input construction, whose arrival
    compilation is charged to ``traffic.*`` as well; ``cells`` the
    ``runner.cell`` durations pooled over every traced pass of the run,
    for the percentiles; ``pass_counts`` the counters read at the end
    of the pass (departures, events, packets, arrivals, draingen calls,
    hybrid roll-ups); ``scale`` converts span seconds to the unit of
    the reported times, which ``cells`` are in already.
    """
    spans = tracer.spans
    indices = list(range(len(spans)))
    totals, selfs = span_times(spans, indices)
    setup_totals, _ = span_times(
        setup_tracer.spans, list(range(len(setup_tracer.spans)))
    )
    for times in (totals, selfs, setup_totals):
        for name in times:
            times[name] *= scale
    wall = totals[PASS_SPAN]
    arrivals = pass_counts["arrivals"] + setup_tracer.arrivals
    compile_s = totals.get("traffic.compile", 0.0) + setup_totals.get(
        "traffic.compile", 0.0
    )
    n_cells = sum(1 for span in spans if span[0] == "runner.cell")
    departures = pass_counts["departures"]
    engine_s = totals.get("sim.run", 0.0) + totals.get("hybrid.packet", 0.0)
    controller_s = totals.get("hybrid.controller", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "runner.cells": n_cells,
        "runner.cell_p50_s": percentile(cells, 50) if cells else 0.0,
        "runner.cell_p90_s": percentile(cells, 90) if cells else 0.0,
        "runner.cache_s": totals.get("runner.cache", 0.0),
        "runner.code_version_s": totals.get("runner.code_version", 0.0),
        "traffic.compile_s": compile_s,
        "traffic.arrivals": arrivals,
        "traffic.ns_per_arrival": ratio(compile_s * 1e9, arrivals),
        "sim.run_s": totals.get("sim.run", 0.0),
        "sim.departures": departures,
        "sim.events": pass_counts["events"],
        "sim.events_per_departure": ratio(pass_counts["events"], departures),
        "sim.ns_per_departure": ratio(engine_s * 1e9, departures),
        "sim.packets_per_departure": ratio(pass_counts["packets"], departures),
        "monitor.finalize_s": totals.get("monitor.finalize", 0.0),
        "core.feasibility_s": totals.get("core.feasibility", 0.0),
        "core.lindley_s": totals.get("core.lindley", 0.0),
        "core.rd_s": totals.get("core.rd", 0.0),
        "network.build_s": selfs.get("network.build", 0.0),
        "network.compare_s": totals.get("network.compare", 0.0),
        "schedulers.draingen_s": totals.get("schedulers.draingen", 0.0),
        "schedulers.draingen_calls": pass_counts["draingen_calls"],
        "scenarios.build_s": totals.get("scenarios.build", 0.0),
        "hybrid.packet_s": totals.get("hybrid.packet", 0.0),
        "hybrid.fluid_s": selfs.get("hybrid.controller", 0.0),
        "hybrid.plan_s": totals.get("hybrid.plan", 0.0),
        "hybrid.lindley_s": totals.get("hybrid.lindley", 0.0),
        "hybrid.envelope_s": totals.get("hybrid.envelope", 0.0),
        "hybrid.handoff_s": totals.get("hybrid.handoff", 0.0),
        "hybrid.fluid_fraction": pass_counts.get("fluid_fraction", 0.0),
        "hybrid.packet_share": ratio(totals.get("hybrid.packet", 0.0), controller_s),
        "hybrid.segments": pass_counts.get("segments", 0),
        "hybrid.demotions": pass_counts.get("demotions", 0),
        "unattributed_s": selfs[PASS_SPAN],
        "traced_wall_s": wall,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            seconds for name, seconds in selfs.items()
            if SPAN_LAYERS.get(name) == layer
        )
    return out
