"""One benchmark process (spawned by ``run.py``).

Usage: ``child.py WORKLOAD SEED SMOKE TRACE WORK_DIR COUNTER_FILE`` with
``src`` on ``PYTHONPATH``.  The child constructs the workload's inputs,
prints ``{"ready": true, "ticks": T}`` and then serves one stdin command
per line, each answered by one JSON line on stdout:

* ``quit`` -- exit (a set-up-only sample);
* ``pass 0`` / ``pass 1`` -- run one untraced / traced pass and answer
  ``{"pass": {...}}``; the first pass is the warm-up;
* ``done`` -- answer ``{"result": {...}}`` and exit.

Costs are read from the calibrator's counter (``calibrator.py``):
``ticks`` is its count when the child is ready, a pass reports the
ticks it took as well as its wall seconds, and every time in the result
is in reference seconds (ticks x ``calibrator.TICK_S``).

A traced child also traces its input construction and writes every
span to ``WORK_DIR/trace-<workload>.json``.  Anything the program
prints goes to stderr; stdout carries only the protocol.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import calibrator
import tracer as tracing
import workloads


def _emit(channel, obj: dict) -> None:
    channel.write(json.dumps(obj) + "\n")
    channel.flush()


def _one_pass(workload, work_dir: Path, traced: bool, counter):
    """``(wall seconds, ticks, PassOutput, tracer or None)`` of one timed
    pass."""
    gc.collect()
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
    try:
        if traced:
            hooks = tracing.Tracer().install()
            root = hooks.open(tracing.PASS_SPAN)
        else:
            hooks = tracing.LinkRegistry().install()
        try:
            start, first = time.perf_counter(), counter()
            raw = workload.run(cache_dir)
            wall, ticks = time.perf_counter() - start, counter() - first
        finally:
            if traced:
                hooks.close(root)
            hooks.uninstall()
        registry = hooks.links if traced else hooks
        out = workload.finish(raw, registry.departures)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return wall, ticks, out, (hooks if traced else None)


def _pass_counts(hooks: tracing.Tracer, out) -> dict:
    return {
        "departures": hooks.links.departures,
        "events": sum(sim.events_processed for sim in hooks.sims),
        "packets": hooks.packets,
        "arrivals": hooks.arrivals,
        "draingen_calls": hooks.draingen_calls,
        **out.extras,
    }


def _spans_json(hooks: tracing.Tracer) -> list:
    origin = hooks.spans[0][1] if hooks.spans else 0.0
    return [
        [name, start - origin, end - origin, parent, cell]
        for name, start, end, parent, cell in hooks.spans
    ]


class Session:
    """The passes of one measuring child and what they add up to.

    The warm-up pass pays the per-process lazy set-up (code-version
    hashing, draingen verification, first-touch imports) that every
    CLI invocation pays once; it is checked like any pass but is not a
    steady pass, and its excess over the cheapest steady untraced pass
    is ``first_pass_excess_s``.  Costs are in reference seconds.
    """

    def __init__(self, workload, work_dir: Path, setup_hooks, counter) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.setup_hooks = setup_hooks
        self.counter = counter
        self.warmup_cost = None
        self.costs = {False: [], True: []}
        self.traced = []  # (cost, wall, tracer, counts) per traced pass

    def run_pass(self, traced: bool) -> dict:
        warmup = self.warmup_cost is None
        wall, ticks, out, hooks = _one_pass(
            self.workload, self.work_dir, traced, self.counter
        )
        cost = ticks * calibrator.TICK_S
        if warmup:
            self.warmup_cost = cost
        else:
            self.costs[traced].append(cost)
        if hooks is not None:
            self.traced.append((cost, wall, hooks, _pass_counts(hooks, out)))
        return {
            "warmup": warmup, "traced": traced, "wall": wall, "ticks": ticks,
            "digest": out.digest, "packet_hops": out.packet_hops,
            "cells": out.cells, "failed": out.failed, "problems": out.problems,
        }

    def result(self) -> dict:
        cheapest = min(self.costs[False])
        result = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "first_pass_excess_s": self.warmup_cost - cheapest,
        }
        if isinstance(self.workload, workloads.CityHybrid):
            result["fidelity_err"] = self.workload.fidelity()
        if self.traced:
            result["layers"] = self._layers(cheapest, result)
        return result

    def _layers(self, cheapest: float, result: dict) -> dict:
        # Per-layer numbers come from the cheapest traced pass; runner.cell
        # percentiles pool the cells of every traced pass.  Spans are
        # timed in seconds and converted to reference seconds by their
        # pass's cost over its wall time.
        cost, wall, hooks, counts = min(self.traced, key=lambda item: item[0])
        cells = [
            (end - start) * other_cost / other_wall
            for other_cost, other_wall, other, _ in self.traced
            for name, start, end, _, _ in other.spans
            if name == "runner.cell"
        ]
        layers = tracing.layer_metrics(
            hooks, self.setup_hooks, cells, counts, scale=cost / wall
        )
        layers["trace_overhead"] = min(self.costs[True]) / cheapest - 1.0
        layers["first_pass_excess_s"] = result["first_pass_excess_s"]
        layers["hybrid.fidelity_err"] = result.get("fidelity_err") or 0.0
        trace_file = self.work_dir / f"trace-{self.workload.name}.json"
        trace_file.write_text(json.dumps({
            "workload": self.workload.name,
            "seed": self.workload.seed,
            "setup": _spans_json(self.setup_hooks),
            "passes": [
                {"wall": other_wall, "cost": other_cost, "spans": _spans_json(other)}
                for other_cost, other_wall, other, _ in self.traced
            ],
        }))
        return layers


def main(argv: list[str]) -> int:
    name, seed, smoke, trace, work_dir, counter_file = argv
    channel, sys.stdout = sys.stdout, sys.stderr
    counter = calibrator.Counter(Path(counter_file))
    workload = workloads.WORKLOADS[name](int(seed), smoke == "1")
    setup_hooks = None
    if trace == "1":
        setup_hooks = tracing.Tracer().install()
        root = setup_hooks.open(tracing.SETUP_SPAN)
    try:
        workload.setup()
    finally:
        if setup_hooks is not None:
            setup_hooks.close(root)
            setup_hooks.uninstall()
    _emit(channel, {"ready": True, "ticks": counter()})

    session = Session(workload, Path(work_dir), setup_hooks, counter)
    for line in sys.stdin:
        command = line.split()
        if command[:1] == ["pass"]:
            _emit(channel, {"pass": session.run_pass(command[1] == "1")})
        elif command == ["done"]:
            _emit(channel, {"result": session.result()})
            break
        else:  # "quit", or the parent went away
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
