"""Differential test harness: every scheduler x topology x execution mode.

The drain kernels promise *bit-identical* behaviour to the classic
evented run -- same departures, same per-hop link state, same clock,
same residual calendar keys -- for every registered scheduler, on every
topology shape the chain walk supports.  This module is the reusable
fixture layer that proves it exhaustively:

* :data:`SCHEDULERS` -- all registry names (including the ``wfq``
  alias, which must behave identically to ``scfq``);
* :data:`SHAPES` -- topology builders: single hop, a 3-hop chain, a
  fan-in merge (two upstream links plus cross-traffic feeding one
  server -- exercises the chain walk's upstream fixpoint), and a
  routed diamond DAG through :class:`~repro.network.routed.RouteDemux`
  (two flows sharing the tail edge);
* :func:`run_cell` -- one (scheduler, shape) simulation in a chosen
  execution mode, returning a :class:`RunCapture`;
* :func:`differential_cell` -- runs all four execution modes
  (fused/evented x columnar/object) and asserts exact equality
  against the evented-object reference.

Execution modes
---------------
``fused``    drain kernels on (single-link + chain-fused) -- the
             production default;
``evented``  one calendar event per arrival/departure, wrapper calls
             everywhere -- the semantics oracle.
``columnar`` packets live as columns until an observation boundary;
``object``   every packet is a real :class:`Packet` throughout.

The module doubles as a CLI for the CI matrix job::

    python -m tests.differential --check-invariants --out table.md

runs the full grid, additionally replays one evented run per cell
under :class:`~repro.invariants.InvariantChecker` (every dispatch
validated by the scheduler's registered oracle), and emits a
per-scheduler pass/fail table; exit status 1 on any failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.invariants import InvariantChecker
from repro.network.flows import FlowRecorder, UserFlow
from repro.network.routed import RoutedNetwork
from repro.network.topology import FlowDemux
from repro.schedulers import make_scheduler
from repro.schedulers.registry import available_schedulers
from repro.sim import Link, PacketSink, Simulator
from repro.sim.engine import _CANCELLABLE
from repro.sim.rng import RandomStreams
from repro.traffic import (
    ArrivalCursor,
    CompiledMixedSource,
    PacketIdAllocator,
    ParetoInterarrivals,
)

SDPS = (1.0, 2.0, 4.0, 8.0)
MIX = (0.4, 0.3, 0.2, 0.1)
HORIZON = 320.0
FLOW_STARTS = (40.0, 40.0 + 1.0 / 3.0, 97.625)

#: Every name the scheduler registry accepts (12: wtp, qwtp, fcfs,
#: strict, bpr, pad, hpd, adaptive-wtp, scfq, wfq, drr, additive).
SCHEDULERS: tuple[str, ...] = available_schedulers()

MODES = (
    ("fused", "columnar"),
    ("fused", "object"),
    ("evented", "columnar"),
    ("evented", "object"),
)


@dataclass(frozen=True)
class RunCapture:
    """Everything one run exposes to exact-equality comparison."""

    #: flow_id -> end-to-end queueing delays, in delivery order.
    delays: tuple
    #: One :func:`link_state` tuple per link, in topology order.
    links: tuple
    now: float
    #: Residual live calendar keys ``(time, seq)`` past the horizon --
    #: the drain contract says the heap must end bit-identical too.
    calendar: tuple
    #: :meth:`InvariantReport.to_dict` of a checked run (``None``
    #: otherwise); excluded from equality so checked and unchecked
    #: captures of the same run still compare equal.
    invariants: Optional[dict] = field(default=None, compare=False)


def link_state(link: Link) -> tuple:
    queues = link.scheduler.queues
    return (
        link.arrivals,
        link.departures,
        link.bytes_sent,
        link.busy_time,
        link.busy,
        queues.total_packets,
        tuple(queues.head_arrivals),
        tuple(queues.bytes_backlog),
    )


def _capture(sim: Simulator, links, recorder: FlowRecorder, nflows: int) -> RunCapture:
    return RunCapture(
        delays=tuple(
            tuple(recorder.flow_delays(fid)) for fid in range(nflows)
        ),
        links=tuple(link_state(link) for link in links),
        now=sim.now,
        calendar=tuple(
            sorted(
                (entry[0], entry[1])
                for entry in sim._heap
                if not (entry[2] is _CANCELLABLE and entry[3].callback is None)
            )
        ),
    )


# ----------------------------------------------------------------------
# Topology shapes
# ----------------------------------------------------------------------
def _cross_traffic(cursor, link, streams, ids) -> None:
    cursor.add(
        CompiledMixedSource(
            link,
            ParetoInterarrivals(2.6, 1.9, streams.generator()),
            MIX,
            1.0,
            streams.generator(),
            ids=ids,
        )
    )


def _launch_flows(sim, entries) -> int:
    """Bursty user flows into each entry link; returns the flow count."""
    nflows = 0
    for start in FLOW_STARTS:
        for entry in entries:
            for class_id in (3, 1):
                UserFlow(
                    sim,
                    entry,
                    flow_id=nflows,
                    class_id=class_id,
                    num_packets=5,
                    packet_size=1.0,
                    period=2.0,
                    first_packet_id=1_000_000 + nflows * 1_000,
                ).launch(start)
                nflows += 1
    return nflows


def build_single(sim, name, drain, columnar, streams, ids):
    recorder = FlowRecorder()
    link = Link(
        sim,
        make_scheduler(name, SDPS),
        capacity=1.0,
        target=FlowDemux(recorder, PacketSink()),
        name="hop0",
        drain=drain,
        columnar=columnar,
    )
    cursor = ArrivalCursor(sim)
    for _ in range(2):
        _cross_traffic(cursor, link, streams, ids)
    cursor.start()
    return [link], [link], recorder


def build_chain(sim, name, drain, columnar, streams, ids, hops: int = 3):
    recorder = FlowRecorder()
    links: list[Link] = []
    downstream = recorder
    for hop in range(hops - 1, -1, -1):
        link = Link(
            sim,
            make_scheduler(name, SDPS),
            capacity=1.0,
            target=FlowDemux(downstream, PacketSink()),
            name=f"hop{hop}",
            drain=drain,
            columnar=columnar,
        )
        links.append(link)
        downstream = link
    links.reverse()
    cursor = ArrivalCursor(sim)
    for link in links:
        _cross_traffic(cursor, link, streams, ids)
    cursor.start()
    return links, [links[0]], recorder


def build_fanin(sim, name, drain, columnar, streams, ids):
    """Two upstream links and cross-traffic merging into one server.

    The merge server is *behind* both upstreams, so the chain walk from
    either entry must discover the sibling via the upstream fan-in
    fixpoint for the whole merge to fuse.
    """
    recorder = FlowRecorder()
    merge = Link(
        sim,
        make_scheduler(name, SDPS),
        capacity=2.0,
        target=FlowDemux(recorder, PacketSink()),
        name="merge",
        drain=drain,
        columnar=columnar,
    )
    upstreams = [
        Link(
            sim,
            make_scheduler(name, SDPS),
            capacity=1.0,
            target=merge,
            name=f"up{i}",
            drain=drain,
            columnar=columnar,
        )
        for i in range(2)
    ]
    cursor = ArrivalCursor(sim)
    for link in upstreams:
        _cross_traffic(cursor, link, streams, ids)
    # Cross-traffic injected at the merge point itself.
    _cross_traffic(cursor, merge, streams, ids)
    cursor.start()
    return [*upstreams, merge], upstreams, recorder


def build_routed(sim, name, drain, columnar, streams, ids):
    """Diamond DAG: A->B->D and A->C->D, both continuing over D->E.

    Routes share the tail edge, so :class:`RouteDemux` resolution (not
    a static ``FlowDemux``) steers the merge; the D->E server is a
    fan-in point reached through routed demuxes on both sides.
    """
    recorder = FlowRecorder()
    net = RoutedNetwork(sim, drain=drain)
    for node in "ABCDE":
        net.add_node(node)
    edges = [("A", "B"), ("B", "D"), ("A", "C"), ("C", "D"), ("D", "E")]
    for src, dst in edges:
        link = net.add_link(
            src, dst, make_scheduler(name, SDPS), capacity=2.0
        )
        link.columnar = columnar if columnar is not None else link.columnar
    # One route per flow _launch_flows will create, alternating sides
    # of the diamond in the same (start, entry, class) launch order:
    # flow ids 0,1 enter A->B, 2,3 enter A->C, 4,5 A->B, ...
    total_flows = len(FLOW_STARTS) * 2 * 2
    for fid in range(total_flows):
        path = (
            ["A", "B", "D", "E"]
            if (fid // 2) % 2 == 0
            else ["A", "C", "D", "E"]
        )
        net.add_route(fid, path, terminal=recorder)
    links = [net.edge_link(s, d) for s, d in edges]
    cursor = ArrivalCursor(sim)
    for link in links:
        _cross_traffic(cursor, link, streams, ids)
    cursor.start()
    # Flows enter at their routed ingress (both A-edges).
    entries = [net.edge_link("A", "B"), net.edge_link("A", "C")]
    return links, entries, recorder


SHAPES: dict[str, Callable] = {
    "single": build_single,
    "chain": build_chain,
    "fanin": build_fanin,
    "routed": build_routed,
}


# ----------------------------------------------------------------------
# Cell runner
# ----------------------------------------------------------------------
def run_cell(
    scheduler: str,
    shape: str,
    kernel: str = "fused",
    storage: str = "columnar",
    seed: int = 9,
    check_invariants: bool = False,
    horizon: float = HORIZON,
):
    """One simulation; returns ``(capture, links)``.

    ``kernel`` is ``fused``/``evented``; ``storage`` is
    ``columnar``/``object``.  With ``check_invariants`` an
    :class:`InvariantChecker` attaches to the last link (the merge
    server for fan-in shapes) and the run finishes with its
    ``finalize`` -- any oracle violation raises.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    ids = PacketIdAllocator()
    drain = kernel == "fused"
    columnar = storage == "columnar"
    links, entries, recorder = SHAPES[shape](
        sim, scheduler, drain, columnar, streams, ids
    )
    nflows = _launch_flows(sim, entries)
    report = None
    if check_invariants:
        checker = InvariantChecker(links[-1])
        checker.attach()
        sim.run_checked(until=horizon)
        report = checker.finalize()
        assert report.departures > 0
    else:
        sim.run(until=horizon)
    for fid in range(nflows):
        assert recorder.packet_count(fid) == 5, (
            f"{scheduler}/{shape}/{kernel}/{storage}: flow {fid} "
            f"delivered {recorder.packet_count(fid)}/5 packets"
        )
    capture = _capture(sim, links, recorder, nflows)
    if report is not None:
        capture = RunCapture(
            delays=capture.delays,
            links=capture.links,
            now=capture.now,
            calendar=capture.calendar,
            invariants=report.to_dict(),
        )
    return capture, links


def differential_cell(scheduler: str, shape: str, seed: int = 9) -> RunCapture:
    """All four execution modes of one cell must capture identically.

    Returns the reference capture (evented/object) for further
    inspection.  Also asserts the fused run really fused on fusable
    shapes -- a silent fallback to the wrapper path would make the
    equality vacuous.
    """
    captures = {}
    fused_links = None
    for kernel, storage in MODES:
        captures[(kernel, storage)], links = run_cell(
            scheduler, shape, kernel, storage, seed
        )
        if (kernel, storage) == ("fused", "columnar"):
            fused_links = links
    reference = captures[("evented", "object")]
    for mode, capture in captures.items():
        assert capture == reference, (
            f"{scheduler}/{shape}: mode {mode} diverged from the "
            f"evented/object reference"
        )
    # Fusion sanity: on multi-link shapes the entry must really have
    # fused a chain of more than one member -- a silent fallback to the
    # wrapper path would make the equality above vacuous.  (A single
    # hop's walk finds no coupled successor and leaves fusion off; it
    # drains as a chain of one instead.)
    entry = fused_links[0]
    if shape != "single":
        assert entry._chain_fuse is True, (
            f"{scheduler}/{shape}: fused run fell back to the evented path"
        )
        assert len(entry._chain_cache.members) > 1, (
            f"{scheduler}/{shape}: chain walk found no coupled members"
        )
    return reference


# ----------------------------------------------------------------------
# Hybrid engine mode
# ----------------------------------------------------------------------
def hybrid_epsilon_zero_cell(seed: int = 5) -> None:
    """``epsilon = 0`` must short-circuit to the pure packet path.

    The contract (DESIGN.md, hybrid handoff note): with the error
    bound at zero the planner emits exactly one packet segment, and the
    controller's run is *bit-identical* to the plain evented city path
    -- same per-class delay sums, counts, and hub departures, compared
    with ``==`` (no tolerance).  This pins the structural guarantee the
    fidelity bounds build on: fluid mode is a pure optimization layer
    that can always be turned off.
    """
    import dataclasses

    from repro.scenarios.city import (
        CityScenarioConfig,
        CityTask,
        city_summary,
        compile_city_traces,
    )
    from repro.sim.hybrid import HybridConfig, HybridController

    config = CityScenarioConfig(
        flows=48,
        horizon=6_000.0,
        warmup=400.0,
        seed=seed,
        hybrid=HybridConfig(epsilon=0.0),
    )
    controller = HybridController(config, compile_city_traces(config))
    plan = controller.plan(config.horizon)
    assert [segment.mode for segment in plan] == ["packet"], plan
    controller.run()
    reference = city_summary(
        CityTask(dataclasses.replace(config, hybrid=None))
    )
    assert controller.monitor.mean_delays() == reference["mean_delays"]
    assert controller.monitor.counts() == reference["class_counts"]
    assert controller.packet_departures == reference["hub_departures"]


def hybrid_multihop_epsilon_zero_cell(scheduler: str, seed: int = 5) -> None:
    """``epsilon = 0`` on a *multihop* cell, for any registry scheduler.

    The network-wide extension of :func:`hybrid_epsilon_zero_cell`: on
    a 2-branch, 2-hops-per-branch star the planner must emit exactly
    one packet segment and the controller run must be bit-identical to
    the plain evented multihop city path -- per-class delay means,
    counts, and hub departures compared with ``==``.  Holding for every
    registered scheduler (including those *without* a fluid map, which
    the ``epsilon = 0`` path must accept) pins that the network-wide
    fluid layer is a pure optimization that can always be turned off.
    """
    import dataclasses

    from repro.scenarios.city import (
        CityScenarioConfig,
        CityTask,
        city_summary,
        compile_city_traces,
    )
    from repro.sim.hybrid import HybridConfig, HybridController

    config = CityScenarioConfig(
        scheduler=scheduler,
        topology="star_of_chains",
        branches=2,
        hops_per_branch=2,
        flows=32,
        horizon=6_000.0,
        warmup=400.0,
        seed=seed,
        hybrid=HybridConfig(epsilon=0.0),
    )
    controller = HybridController(config, compile_city_traces(config))
    plan = controller.plan(config.horizon)
    assert [segment.mode for segment in plan] == ["packet"], plan
    controller.run()
    reference = city_summary(
        CityTask(dataclasses.replace(config, hybrid=None))
    )
    assert controller.monitor.mean_delays() == reference["mean_delays"]
    assert controller.monitor.counts() == reference["class_counts"]
    assert controller.packet_departures == reference["hub_departures"]


# ----------------------------------------------------------------------
# CLI (CI matrix job)
# ----------------------------------------------------------------------
def _run_matrix(check_invariants: bool) -> tuple[list[tuple], bool]:
    rows = []
    all_ok = True
    for scheduler in SCHEDULERS:
        cells = {}
        for shape in SHAPES:
            try:
                differential_cell(scheduler, shape)
                if check_invariants:
                    run_cell(
                        scheduler,
                        shape,
                        kernel="evented",
                        storage="object",
                        check_invariants=True,
                    )
                cells[shape] = "pass"
            except Exception as exc:  # noqa: BLE001 - table, not control flow
                cells[shape] = f"FAIL: {type(exc).__name__}: {exc}"
                all_ok = False
        rows.append((scheduler, cells))
    try:
        hybrid_epsilon_zero_cell()
        rows.append(("hybrid:eps0", {"verify": "pass"}))
    except Exception as exc:  # noqa: BLE001 - table, not control flow
        rows.append(("hybrid:eps0", {"verify": f"FAIL: {type(exc).__name__}: {exc}"}))
        all_ok = False
    for scheduler in SCHEDULERS:
        row = f"hybrid-multihop:eps0:{scheduler}"
        try:
            hybrid_multihop_epsilon_zero_cell(scheduler)
            rows.append((row, {"verify": "pass"}))
        except Exception as exc:  # noqa: BLE001 - table, not control flow
            rows.append(
                (row, {"verify": f"FAIL: {type(exc).__name__}: {exc}"})
            )
            all_ok = False
    return rows, all_ok


def _format_table(rows, check_invariants: bool) -> str:
    shapes = list(SHAPES)
    lines = [
        "# Differential harness results",
        "",
        f"Modes per cell: {' '.join('/'.join(m) for m in MODES)}"
        + (" + oracle-checked evented replay" if check_invariants else ""),
        "",
        "| scheduler | " + " | ".join(shapes) + " |",
        "|---|" + "---|" * len(shapes),
    ]
    for scheduler, cells in rows:
        if set(cells) == {"verify"}:
            lines.append(
                f"| {scheduler} | " + f"{cells['verify']} |" * len(shapes)
            )
            continue
        lines.append(
            f"| {scheduler} | "
            + " | ".join(cells.get(shape, "-") for shape in shapes)
            + " |"
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the scheduler x topology differential matrix."
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="additionally replay each cell evented under the "
        "InvariantChecker (every dispatch oracle-validated)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the pass/fail table to this file as well as stdout",
    )
    args = parser.parse_args(argv)
    rows, all_ok = _run_matrix(args.check_invariants)
    table = _format_table(rows, args.check_invariants)
    sys.stdout.write(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
