"""General routed topologies -- beyond the paper's chain.

The Section 6 study uses a single chain (Figure 6); a downstream user
will want arbitrary topologies.  :class:`RoutedNetwork` provides them
on the same substrate: named nodes, one scheduler-equipped output link
per directed edge, and explicit per-flow routes (source routing -- the
paper's setting assumes no dynamic routing anyway).

Packets carry no route themselves; each link's demultiplexer looks up
the packet's ``flow_id`` and forwards it along the flow's remaining
path, so two flows can share links while following different routes.
Cross-traffic is attached per edge, exactly as in the chain study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..errors import TopologyError
from ..sim.engine import Simulator
from ..sim.link import Link, PacketSink, Receiver
from ..sim.packet import Packet
from ..schedulers.base import Scheduler

__all__ = ["RoutedNetwork", "RouteDemux"]


class RouteDemux:
    """Per-link output: forwards each flow to its next hop.

    Routes are static per flow (source routing), so the next receiver
    is memoized per ``flow_id`` -- both the evented path and the
    chain-fused drain then resolve a hop in one dict hit instead of
    re-scanning the route's edge list per packet.  The cache is
    cleared whenever the network's route table changes
    (:attr:`RoutedNetwork._route_version`).

    Packets without a flow (cross-traffic), or at the end of their
    route, go to the local sink.  Implements the drain-demux protocol
    (:mod:`repro.sim.link`) so chains of drain-enabled links fuse
    across shared edges.
    """

    def __init__(self, network: "RoutedNetwork", edge: tuple[str, str]) -> None:
        self.network = network
        self.edge = edge
        self.local_sink = PacketSink()
        self._cache: dict = {}

    def receive(self, packet: Packet) -> None:
        self.drain_resolve(packet).receive(packet)

    # -- drain-demux protocol ------------------------------------------
    def drain_resolve(self, packet: Packet) -> Receiver:
        """Next receiver for ``packet``, memoized per flow_id."""
        fid = packet.flow_id
        try:
            return self._cache[fid]
        except KeyError:
            target = self.network._next_hop(packet, self.edge)
            receiver = self.local_sink if target is None else target
            self._cache[fid] = receiver
            return receiver

    def drain_successors(self) -> list[Receiver]:
        """Every receiver reachable from this edge under current routes."""
        successors: list[Receiver] = []
        network = self.network
        for route in network._routes.values():
            edges = route.edges
            for index, edge in enumerate(edges):
                if edge == self.edge:
                    if index + 1 < len(edges):
                        successors.append(network.links[edges[index + 1]])
                    else:
                        successors.append(route.terminal)
        successors.append(self.local_sink)
        return successors

    def drain_guard(self):
        """Closure that is True while the route table is unchanged."""
        network = self.network
        version = network._route_version
        return lambda: network._route_version == version


@dataclass
class _FlowRoute:
    edges: tuple[tuple[str, str], ...]
    terminal: Receiver


class RoutedNetwork:
    """Nodes, scheduler-equipped directed edges, and per-flow routes."""

    def __init__(self, sim: Simulator, drain: bool = True) -> None:
        self.sim = sim
        self.nodes: set[str] = set()
        self.links: dict[tuple[str, str], Link] = {}
        self._routes: dict[int, _FlowRoute] = {}
        #: Default for :meth:`add_link`'s ``drain`` flag -- the routed
        #: path's equivalent of ``MultiHopConfig.drain_kernel``; False
        #: builds the evented reference the drain paths are tested
        #: against.
        self.drain = drain
        #: Bumped on every route-table change; RouteDemux resolution
        #: caches and cached drain chains revalidate against it.
        self._route_version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> None:
        """Declare a node.  Idempotent."""
        self.nodes.add(name)

    def add_link(
        self,
        src: str,
        dst: str,
        scheduler: Scheduler,
        capacity: float,
        drain: Optional[bool] = None,
    ) -> Link:
        """Create the directed edge src -> dst with its output link.

        ``drain`` overrides the network-level default for this link's
        busy-period drain kernel (``None`` inherits it); with the
        kernel enabled, consecutive drain-enabled links along static
        routes additionally fuse into chain drains.
        """
        if src not in self.nodes or dst not in self.nodes:
            raise TopologyError(f"unknown node in edge {src!r} -> {dst!r}")
        edge = (src, dst)
        if edge in self.links:
            raise TopologyError(f"duplicate edge {src!r} -> {dst!r}")
        link = Link(
            self.sim,
            scheduler,
            capacity,
            target=RouteDemux(self, edge),
            name=f"{src}->{dst}",
            drain=self.drain if drain is None else drain,
        )
        self.links[edge] = link
        return link

    def shortest_path(
        self,
        src: str,
        dst: str,
        weight: Optional[Callable[[str, str, Link], float]] = None,
    ) -> list[str]:
        """Shortest src -> dst node path over the existing edges.

        ``weight`` maps (src, dst, link) to an edge cost; the default is
        hop count.  Uses networkx's Dijkstra under the hood.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        for (edge_src, edge_dst), link in self.links.items():
            cost = weight(edge_src, edge_dst, link) if weight else 1.0
            graph.add_edge(edge_src, edge_dst, weight=cost)
        try:
            return list(
                nx.shortest_path(graph, src, dst, weight="weight")
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise TopologyError(f"no path {src!r} -> {dst!r}: {exc}") from None

    def add_auto_route(
        self,
        flow_id: int,
        src: str,
        dst: str,
        terminal: Optional[Receiver] = None,
        weight: Optional[Callable[[str, str, Link], float]] = None,
    ) -> list[str]:
        """Route a flow along the shortest path; returns the chosen path."""
        path = self.shortest_path(src, dst, weight)
        self.add_route(flow_id, path, terminal)
        return path

    def add_route(
        self,
        flow_id: int,
        path: Sequence[str],
        terminal: Optional[Receiver] = None,
    ) -> None:
        """Register a flow's path (a node sequence); every consecutive
        node pair must be an existing edge.  Packets of ``flow_id``
        injected via :meth:`ingress` traverse the path and end at
        ``terminal`` (default: a fresh sink)."""
        if flow_id in self._routes:
            raise TopologyError(f"flow {flow_id} already routed")
        if len(path) < 2:
            raise TopologyError("a route needs at least two nodes")
        edges = tuple(zip(path, path[1:]))
        for edge in edges:
            if edge not in self.links:
                raise TopologyError(f"route uses missing edge {edge}")
        self._routes[flow_id] = _FlowRoute(
            edges=edges,
            terminal=terminal if terminal is not None else PacketSink(),
        )
        # New routes change next-hop resolution: invalidate the per-demux
        # memos (an unrouted flow may have been cached to a local sink)
        # and any drain chains guarding on the route version.
        self._route_version += 1
        # A rewired route is a topology edit: links whose cached chains
        # merely *contain* an affected edge (fan-in members upstream of
        # it) revalidate through the simulator-wide version stamp.
        self.sim._topo_version += 1
        for link in self.links.values():
            target = link.target
            if type(target) is RouteDemux:
                target._cache.clear()
            # A new route can create couplings (or sources) a cached
            # non-fusing decision never re-checks; force a rebuild.
            link._chain_cache = None

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def ingress(self, flow_id: int) -> Receiver:
        """The receiver where packets of ``flow_id`` enter the network."""
        route = self._route_for(flow_id)
        return self.links[route.edges[0]]

    def edge_link(self, src: str, dst: str) -> Link:
        """The link of an edge (for attaching cross-traffic/monitors)."""
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no edge {src!r} -> {dst!r}") from None

    def terminal(self, flow_id: int) -> Receiver:
        """The flow's terminal receiver (e.g. a FlowRecorder)."""
        return self._route_for(flow_id).terminal

    # ------------------------------------------------------------------
    def _route_for(self, flow_id: int) -> _FlowRoute:
        try:
            return self._routes[flow_id]
        except KeyError:
            raise TopologyError(f"flow {flow_id} has no route") from None

    def _next_hop(
        self, packet: Packet, edge: tuple[str, str]
    ) -> Optional[Receiver]:
        """Where a packet leaving ``edge`` goes next (None = local sink)."""
        if packet.flow_id is None:
            return None
        route = self._routes.get(packet.flow_id)
        if route is None:
            return None
        try:
            index = route.edges.index(edge)
        except ValueError:
            return None  # stray packet; swallow at the local sink
        if index + 1 < len(route.edges):
            return self.links[route.edges[index + 1]]
        return route.terminal
