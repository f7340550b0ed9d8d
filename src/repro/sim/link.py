"""Output link: a work-conserving server driving a scheduler.

The link is the paper's forwarding engine for one hop: packets arrive
(from sources or an upstream node), join the scheduler's per-class
FIFOs, and are transmitted one at a time at ``capacity`` bytes per time
unit.  By default the link is lossless (unbounded buffers), matching the
paper's stable ECN-regulated operating assumption (Section 3); an
optional packet-count buffer limit plus a drop policy turn it into a
lossy multiplexer for the loss-differentiation extension.

Departed packets are handed to ``target.receive(packet)`` (next hop or
sink) and reported to the attached monitors, as scalars (the observer
protocol in :mod:`repro.sim.monitor`).

The runtime invariant checker (:mod:`repro.invariants`) attaches to a
link by *replacing bound methods on the instance* (``receive`` and
``_complete_service``), so an unchecked link runs the exact original
code with no hook branches; ``_start_service`` deliberately looks up
``self._complete_service`` at call time so the per-instance override
takes effect.

Completion paths
----------------
Every completion event enters :meth:`Link._complete_service`, which
routes it by the link's shape at that moment to one of three paths.
The two drain paths run a whole stretch of completions and arrivals in
one loop, without the event calendar, and leave the calendar
bit-identical to the evented path's whenever control is back in the
run loop:

===========================  =============================  ==============
link shape                   completion path                representation
===========================  =============================  ==============
``drain=False``, invariant-  ``_complete_service_evented``  objects
checker hooks attached, a    (the reference: one
scheduler class that         calendar event per
overrides ``select`` or      departure)
``enqueue``, or a link fed
by a live cursor that its
chain cannot take

a lossless link whose        ``_drain_chain`` over the      columns
walked chain fuses: an       whole chain
arrival cursor, or coupled
members with an inline
arrival source; no hooks
in the walk

any other cursor-free link,  ``_drain_single``, the         columns
lossless or lossy: any       single-link loop
scheduler, observers and
target, fused feeders or
none
===========================  =============================  ==============

Every drain runs the scheduler's own methods: ``choose_class`` and the
bound ``on_select``/``on_enqueue`` hooks around an inlined queue
pop/push, one path for all schedulers (the column-native contract in
:mod:`repro.schedulers.base`).

Mirror protocol.  A fused feeder (a source registered through
:meth:`Link.attach_feeder`) and an
:class:`~repro.traffic.compile.ArrivalCursor` keep scheduling their
real arrival event exactly as an unfused source would, while mirroring
its ``(time, seq)`` key in ``next_time`` / ``next_seq``; a busy link
mirrors its completion's key in :attr:`Link._pending_key`.  A drain
processes an event inline only when its key is the global calendar
minimum and within the run horizon (:attr:`Simulator._run_until`),
absorbing -- popping -- a mirrored calendar event at that moment.
Later arrivals and completions reserve their sequence numbers at
exactly the points the evented path would allocate them.  When a
foreign event precedes the next fused one (a monitor tick, another
link's completion, the horizon) the drain *parks*: every virtual
feeder and cursor re-pushes its reserved event and every busy member
pushes its pending completion with its reserved key, so the calendar
is the evented run's.  Only :attr:`Simulator.events_processed`, which
counts real calendar dispatches, tells the paths apart.

Chains.  :meth:`Link._build_chain` walks the target graph -- direct
``Link`` targets and demultiplexers implementing the drain-demux
protocol (``drain_resolve(packet)`` / ``drain_successors()`` /
``drain_guard()``, see :class:`~repro.network.topology.FlowDemux` and
:class:`~repro.network.routed.RouteDemux`) -- then adopts upstream
fan-in links by a fixpoint over the simulator's link registry.
Members must be drain-enabled, lossless, hook-free and use the stock
``Link`` method bodies.  The fused loop keeps one local ``(time,
seq)``-keyed heap over every member's pending completion, fused feeder
arrivals and cursor keys; a departure whose receiver is a member is
enqueued there inline, any other receiver gets a plain ``receive``
call whose scheduled events the loop parks on.  An invariant checker
on any link the walk reaches *blocks* fusion, so hooked links only
ever see plain ``receive`` calls.  A lone cursor-fed link fuses as a
walked chain of one member: cursor batches
(:meth:`~repro.traffic.compile.ArrivalCursor.drain_batch`) run only in
the chain kernel; a link drops a cursor whose streams are exhausted at
its next completion outside that kernel, and is cursor-free from then
on.  A link that drains on its own, lossy or not, keeps its state in
locals in the single-link loop and reaches every other link through
``receive``; a lossy link's arrivals apply its drop policy
(:meth:`Link._admit`, which takes a class id) where ``receive`` does.

Columns.  Every class FIFO is one column: a link's packets live in
the scheduler's :class:`~repro.sim.queues.ClassQueueSet` as flat
per-class column entries ``(arrived_at, size, meta)``, and the drain
kernels select, transmit, hand between chain members and count them as
scalars.  A ``Packet`` that is queued already built -- by an evented
arrival (``receive``), a seeded backlog, a user-flow packet handed to a
chain member, or one materialized for routing -- is its own column
meta.  Monitors observe departures as scalars, feeders supply arrivals
as scalars (``pull_col``) and drop policies decide on class ids, so
none of them forces objects.  A real ``Packet`` -- bit-identical to
the evented path's -- is built
(:func:`~repro.sim.queues.materialize_entry`) only at an observation
boundary: a receiver other than a ``Link`` or a non-keeping
``PacketSink``, routing that inspects the packet, a push-out victim
(``pop_tail`` returns it), a peek at a class head (the invariant
checker's oracles read ``heads()``), an evented ``select``, and a park
(the pending completion becomes a calendar payload).
``tests/test_drain_equivalence.py``,
``tests/test_multihop_drain_equivalence.py`` and
``tests/differential.py`` pin every path bit-identical to the evented
reference.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush, heapreplace
from inspect import signature
from math import inf
from typing import Optional, Protocol, Sequence, TYPE_CHECKING

from ..errors import ConfigurationError, SchedulingError
from .engine import Simulator
from .packet import Packet
from .queues import _COL_COMPACT, materialize_entry, meta_packet_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..dropping.base import DropPolicy
    from ..schedulers.base import Scheduler

__all__ = ["Link", "PacketSink", "Receiver"]


class Receiver(Protocol):
    """Anything that can accept a departed packet (next hop, sink...)."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class PacketSink:
    """Terminal receiver: counts packets and optionally keeps them."""

    def __init__(self, keep_packets: bool = False) -> None:
        self.received = 0
        self.keep_packets = keep_packets
        self.packets: list[Packet] = []

    def receive(self, packet: Packet) -> None:
        self.received += 1
        if self.keep_packets:
            self.packets.append(packet)


@lru_cache(maxsize=None)
def _wrapper_overridden(cls: type) -> bool:
    """True when scheduler class ``cls`` overrides the ``select`` or
    ``enqueue`` wrapper, whose body the drain kernels inline."""
    from ..schedulers.base import Scheduler  # deferred: import cycle

    return (
        cls.select is not Scheduler.select
        or cls.enqueue is not Scheduler.enqueue
    )


def _hooked(link: "Link") -> bool:
    """True while invariant-checker hooks replace ``link``'s methods,
    or when its scheduler's class overrides a wrapper: such a link runs
    evented, so no drain ever bypasses the override."""
    scheduler = link.scheduler
    return (
        "_complete_service" in link.__dict__
        or "receive" in link.__dict__
        or "select" in scheduler.__dict__
        or _wrapper_overridden(type(scheduler))
    )


def _couplable(link: "Link", sim: Simulator) -> bool:
    """True when a chain on ``sim`` may adopt ``link`` as a member:
    drain-enabled, lossless, and running the stock ``Link`` method
    bodies (hooks are tested separately, by :func:`_hooked`)."""
    cls = type(link)
    return (
        link.drain
        and link.sim is sim
        and link.buffer_packets is None
        and cls.receive is Link.receive
        and cls._complete_service is Link._complete_service
        and cls._start_service is Link._start_service
    )


class _ChainLink:
    """Per-member state for one coupled server in a chain drain.

    The ``pend_*`` scalars / ``t_c`` / ``s_c`` / ``virtual`` describe
    the member's in-flight completion *within the current drain entry*:
    the packet in service (as columnar scalars -- ``pend_meta`` may be
    a real :class:`Packet` or an unmaterialized meta, see
    :mod:`repro.sim.queues`), its reserved ``(time, seq)`` heap key,
    and whether that key is virtual (reserved inline) or mirrors a real
    calendar event that predates the drain entry.  They are reset on
    every entry.  Members are lossless, and their arrivals are queued
    as column entries.
    """

    __slots__ = (
        "link",
        "queues",
        "monitors",
        "capacity",
        "direct_target",
        "direct_dcl",
        "resolve",
        "split",
        "flow_rcv",
        "cross_rcv",
        "flow_dcl",
        "cross_dcl",
        "choose",
        "on_select",
        "on_enqueue",
        "heads",
        "backlog",
        "nclasses",
        "ccols",
        "cheads",
        "pend_meta",
        "pend_cid",
        "pend_arr",
        "pend_size",
        "pend_sstart",
        "t_c",
        "s_c",
        "virtual",
    )

    def __init__(self, link: "Link") -> None:
        scheduler = link.scheduler
        queues = scheduler.queues
        self.link = link
        self.queues = queues
        self.monitors = link.monitors
        self.capacity = link.capacity
        self.direct_target: Optional[Receiver] = None
        #: Coupled member behind ``direct_target`` (resolved post-walk).
        self.direct_dcl: Optional["_ChainLink"] = None
        self.resolve = None
        #: The demux itself when the target declared a pure
        #: flow-id split (``drain_flow_split``); departures then branch
        #: inline on ``packet.flow_id`` instead of calling ``resolve``.
        self.split = None
        self.flow_rcv: Optional[Receiver] = None
        self.cross_rcv: Optional[Receiver] = None
        self.flow_dcl: Optional["_ChainLink"] = None
        self.cross_dcl: Optional["_ChainLink"] = None
        self.choose = scheduler.choose_class
        # The scheduler's bound hooks, None where its class keeps the
        # base no-op.  Looked up through the module at bind time (see
        # its docstring for why it keeps its name).
        from ..schedulers import draingen  # deferred: import cycle

        self.on_select, self.on_enqueue = draingen.generated_drain_pair(
            scheduler
        )
        self.heads = queues.head_arrivals
        self.backlog = queues.bytes_backlog
        self.nclasses = queues.num_classes
        self.ccols = queues.cols
        self.cheads = queues.col_heads
        #: In-service representation (None == idle): real Packet, int
        #: packet id, or (pid, flow_id, created_at, hop_history) tuple.
        self.pend_meta = None
        self.pend_cid = 0
        self.pend_arr = 0.0
        self.pend_size = 0.0
        self.pend_sstart = 0.0
        self.t_c = 0.0
        self.s_c = 0
        self.virtual = False


class _Chain:
    """Validated snapshot of the drain-couplable graph below a link.

    Rebuilt lazily whenever :meth:`valid` fails; the guard list makes
    revalidation cheap (a handful of identity/attribute checks per
    drain entry) while still catching every event that can change the
    chain shape: target rewiring, scheduler replacement, invariant
    checker attach/detach, drain-flag flips, a member given a bounded
    buffer, demux rebinding, and new routes in a
    :class:`~repro.network.routed.RoutedNetwork`.
    """

    __slots__ = ("members", "coupled", "blocked", "sources", "guards")

    def __init__(
        self,
        members: list[_ChainLink],
        coupled: dict,
        blocked: bool,
        sources: bool,
        guards: list,
    ) -> None:
        #: The entry link's member first.
        self.members = members
        #: id(link) -> _ChainLink for every member.
        self.coupled = coupled
        #: True when an invariant checker is attached somewhere in the
        #: couplable graph: chain fusion is disabled (the entry link
        #: drains on its own, or evented when cursor-fed, and its
        #: departures reach every other link through plain ``receive``
        #: and so never bypass hooks).
        self.blocked = blocked
        #: True when some member had fused feeders or an arrival cursor
        #: at build time.  Without inline arrival sources every arrival
        #: is a foreign calendar event, so a chain drain would park
        #: once per arrival and its setup would dominate; the entry
        #: then drains on its own.  (A source attached later
        #: clears the link's chain cache, refreshing this.)
        self.sources = sources
        self.guards = guards

    def valid(self) -> bool:
        for g in self.guards:
            if g.__class__ is tuple:
                L = g[1]
                if g[0] == 0:
                    # Member guard: same target/scheduler, still
                    # drain-enabled, lossless and hook-free.
                    if (
                        L.target is not g[2]
                        or L.scheduler is not g[3]
                        or not L.drain
                        or L.buffer_packets is not None
                        or _hooked(L)
                    ):
                        return False
                elif not _hooked(L):
                    # Blocked guard: the chain stays blocked only while
                    # the checker hooks remain attached.
                    return False
            elif not g():
                # Demux guard closure (drain_guard protocol).
                return False
        return True


def _materialize_pending(cl: _ChainLink, now: float) -> Packet:
    """Real, fully-stamped Packet for a member's *departing* columnar
    entry -- the observation boundary is crossed at departure time, so
    the object carries exactly the stamps the evented path would have
    written by this point."""
    packet = materialize_entry(
        cl.pend_cid, cl.pend_arr, cl.pend_size, cl.pend_meta
    )
    sstart = cl.pend_sstart
    packet.service_start = sstart
    packet.departed_at = now
    packet.hop_delays.append(sstart - cl.pend_arr)
    return packet


def _chain_select(cl: _ChainLink, now: float, sim):
    """Start the next service at a member and return its fused-heap
    item, reserving the completion's sequence number exactly where the
    evented path would have called ``sim.schedule``.

    ``Scheduler.select`` inlined: the member's ``choose_class``, then
    ``ClassQueueSet.pop`` over the class column (identical float ops
    and mutation order), then the bound ``on_select`` hook.  The head
    stays in the representation it was queued in: a scalar meta is
    held unmaterialized in ``pend_meta``.  NOTE: the body is duplicated
    inline in ``_chain_complete`` (the per-departure hot path); keep
    the two in sync.
    """
    cid = cl.choose(now)
    col = cl.ccols[cid]
    h = cl.cheads[cid]
    arr = col[h]
    size = col[h + 1]
    meta = col[h + 2]
    h += 3
    if h == len(col):
        col.clear()
        cl.cheads[cid] = 0
        cl.backlog[cid] = 0.0
        cl.heads[cid] = inf
    else:
        if h >= _COL_COMPACT:
            del col[:h]
            h = 0
        cl.cheads[cid] = h
        cl.backlog[cid] -= size
        cl.heads[cid] = col[h]
    cl.queues.total_packets -= 1
    if cl.on_select is not None:
        cl.on_select(cid, arr, size, meta, now)
    s = sim._seq
    sim._seq = s + 1
    cl.pend_meta = meta
    cl.pend_cid = cid
    cl.pend_arr = arr
    cl.pend_size = size
    cl.pend_sstart = now
    t_c = now + size / cl.capacity
    cl.t_c = t_c
    cl.s_c = s
    cl.virtual = True
    return (t_c, s, 0, cl)


def _chain_arrival(
    cl: _ChainLink, cid: int, size: float, meta, now: float, sim, fheap
) -> None:
    """Arrival at a chain member, queued as a column entry:
    ``Link.receive`` without a Packet.

    ``Scheduler.enqueue`` is inlined: the push, then the bound
    ``on_enqueue`` hook (identical float ops and mutation order; only
    the call layers disappear).  An idle member starts service, and the
    completion's sequence number is reserved exactly where ``receive ->
    _start_service`` would have called ``sim.schedule``.
    """
    L = cl.link
    L.arrivals += 1
    if not 0 <= cid < cl.nclasses:
        raise SchedulingError(
            f"packet class {cid} out of range [0, {cl.nclasses})"
        )
    if cl.heads[cid] == inf:
        cl.heads[cid] = now
    cl.ccols[cid].extend((now, size, meta))
    cl.backlog[cid] += size
    cl.queues.total_packets += 1
    if cl.on_enqueue is not None:
        cl.on_enqueue(cid, size, meta, now)
    if not L.busy:
        L.busy = True
        L._busy_since = now
        heappush(fheap, _chain_select(cl, now, sim))


def _chain_complete(cl: _ChainLink, now: float, sim, fheap, coupled):
    """Departure at a coupled member, mirroring the evented path's
    exact ordering: stamps/counters, monitors, hand-off, then the next
    service's sequence reservation.  The departing packet is
    ``cl.pend_meta`` (+ scalars): a real Packet when it was queued as
    one, else an unmaterialized meta; monitors get the scalars either
    way.

    Returns the fused-heap item for the next completion (or ``None``
    when the busy period closes) instead of pushing it, so the drain
    loop can ``heapreplace`` the event it is handling -- one sift
    instead of a pop plus a push."""
    L = cl.link
    meta = cl.pend_meta
    size = cl.pend_size
    sstart = cl.pend_sstart
    L.departures += 1
    L.bytes_sent += size
    if type(meta) is Packet:
        packet = meta
        packet.service_start = sstart
        packet.departed_at = now
        packet.hop_delays.append(sstart - cl.pend_arr)
        flow = packet.flow_id
    else:
        packet = None
        flow = None if type(meta) is int else meta[1]
    if cl.monitors:
        pid = meta_packet_id(meta)
        cid = cl.pend_cid
        delay = sstart - cl.pend_arr
        for monitor in cl.monitors:
            monitor.on_departure(pid, cid, size, flow, delay, now)
    dmx = cl.split
    if dmx is not None:
        # Pure flow-id demux (drain_flow_split): branch inline and keep
        # the demux counters exactly as drain_resolve would have.
        if flow is None:
            dmx.cross_packets += 1
            dcl = cl.cross_dcl
            rcv = cl.cross_rcv
        else:
            dmx.user_packets += 1
            dcl = cl.flow_dcl
            rcv = cl.flow_rcv
    else:
        rcv = cl.direct_target
        if rcv is None:
            if packet is None:
                # Routing inspects the packet: materialize for resolve.
                packet = _materialize_pending(cl, now)
            rcv = cl.resolve(packet)
            dcl = coupled.get(id(rcv))
        else:
            dcl = cl.direct_dcl
    if dcl is not None:
        # Hop hand-off, pushed downstream as column scalars (an inline
        # copy of _chain_arrival): a column meta gains this hop's
        # queueing delay in its hop history; a stamped Packet (a
        # user-flow packet, or one materialized for resolve) is its own
        # meta.
        if packet is None:
            delay = sstart - cl.pend_arr
            if type(meta) is int:
                meta = (meta, None, cl.pend_arr, (delay,))
            else:
                meta = (meta[0], meta[1], meta[2], meta[3] + (delay,))
        else:
            packet.arrived_at = now
            meta = packet
        down = dcl.link
        down.arrivals += 1
        cid = cl.pend_cid
        if not 0 <= cid < dcl.nclasses:
            raise SchedulingError(
                f"packet class {cid} out of range [0, {dcl.nclasses})"
            )
        if dcl.heads[cid] == inf:
            dcl.heads[cid] = now
        dcl.ccols[cid].extend((now, size, meta))
        dcl.backlog[cid] += size
        dcl.queues.total_packets += 1
        if dcl.on_enqueue is not None:
            dcl.on_enqueue(cid, size, meta, now)
        if not down.busy:
            down.busy = True
            down._busy_since = now
            heappush(fheap, _chain_select(dcl, now, sim))
    elif packet is not None:
        rcv.receive(packet)
    elif type(rcv) is PacketSink and not rcv.keep_packets:
        # Unobserved terminal sink: the packet's only externally
        # visible trace is the count -- no object is ever built.
        rcv.received += 1
    else:
        rcv.receive(_materialize_pending(cl, now))
    if cl.queues.total_packets:
        # Next service: inline copy of _chain_select (keep in sync),
        # returning the item for the caller's heapreplace.
        cid = cl.choose(now)
        col = cl.ccols[cid]
        h = cl.cheads[cid]
        arr = col[h]
        size = col[h + 1]
        meta = col[h + 2]
        h += 3
        if h == len(col):
            col.clear()
            cl.cheads[cid] = 0
            cl.backlog[cid] = 0.0
            cl.heads[cid] = inf
        else:
            if h >= _COL_COMPACT:
                del col[:h]
                h = 0
            cl.cheads[cid] = h
            cl.backlog[cid] -= size
            cl.heads[cid] = col[h]
        cl.queues.total_packets -= 1
        if cl.on_select is not None:
            cl.on_select(cid, arr, size, meta, now)
        s = sim._seq
        sim._seq = s + 1
        cl.pend_meta = meta
        cl.pend_cid = cid
        cl.pend_arr = arr
        cl.pend_size = size
        cl.pend_sstart = now
        t_c = now + size / cl.capacity
        cl.t_c = t_c
        cl.s_c = s
        cl.virtual = True
        return (t_c, s, 0, cl)
    cl.pend_meta = None
    L.busy = False
    L._in_service = None
    L.busy_time += now - L._busy_since
    return None


class Link:
    """Single-server transmission link with pluggable scheduler."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: "Scheduler",
        capacity: float,
        target: Optional[Receiver] = None,
        name: str = "link",
        buffer_packets: Optional[int] = None,
        drop_policy: Optional["DropPolicy"] = None,
        drain: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"link capacity must be positive: {capacity}")
        if buffer_packets is not None and buffer_packets < 1:
            raise ConfigurationError("buffer_packets must be >= 1 when set")
        if drop_policy is not None and buffer_packets is None:
            raise ConfigurationError("a drop policy requires buffer_packets")
        self.sim = sim
        self.scheduler = scheduler
        self.capacity = capacity
        # Schedulers that need the link rate (e.g. BPR's Eq 9) expose
        # bind_capacity; bind it unless the caller already fixed one.
        bind = getattr(scheduler, "bind_capacity", None)
        if bind is not None and getattr(scheduler, "capacity", None) is None:
            bind(capacity)
        self._target: Receiver = target if target is not None else PacketSink()
        self.name = name
        self.buffer_packets = buffer_packets
        self.drop_policy = drop_policy
        self.monitors: list = []
        #: ``False`` runs every completion evented: the reference the
        #: drain paths are tested against (module docstring).
        self.drain = drain
        self._feeders: list = []
        self._cursors: list = []
        #: ``(time, seq)`` heap key of the scheduled completion event
        #: for the packet in service, mirrored so a chain drain can
        #: couple this link mid-busy-period and absorb the real event.
        #: Maintained at every point control leaves the link with a
        #: completion scheduled; ``None`` means "unknown", which merely
        #: keeps the link uncoupled until it parks again.
        self._pending_key: Optional[tuple] = None
        self._chain_cache: Optional[_Chain] = None
        #: Simulator topology revision the cached chain was built at.
        #: A moved version forces a rebuild even when ``_chain_fuse``
        #: is False -- upstream-side edits (a new fan-in link, a feeder
        #: attaching to a *member*, a route rewire) are invisible to a
        #: non-fusing entry's own guards.
        self._chain_topo = -1
        #: Cached routing decision: True only when the cached chain can
        #: fuse (not blocked, and this link is cursor-fed or the chain
        #: has coupled members and arrival sources).  When False,
        #: completions skip chain validation entirely -- the cache is
        #: cleared (forcing recomputation) whenever a feeder or cursor
        #: attaches, a checker detaches, or routes change.
        self._chain_fuse = False

        self.busy = False
        self._in_service: Optional[Packet] = None
        # Counters (arrivals/departures are per link; drops only with a
        # bounded buffer).
        self.arrivals = 0
        self.departures = 0
        self.drops = 0
        self.drops_per_class = [0] * scheduler.num_classes
        self.bytes_sent = 0.0
        self.busy_time = 0.0
        self._busy_since = 0.0
        # Register on the simulator: the chain walk scans this to find
        # upstream fan-in members, and the version bump invalidates any
        # cached chain the new link might belong to.
        sim._links.append(self)
        sim._topo_version += 1

    @property
    def target(self) -> Receiver:
        """Downstream receiver; rebinding it is a topology edit."""
        return self._target

    @target.setter
    def target(self, value: Receiver) -> None:
        self._target = value
        self._chain_cache = None
        self.sim._topo_version += 1

    # ------------------------------------------------------------------
    def add_monitor(self, monitor) -> None:
        """Attach an observer: ``monitor.on_departure(packet_id,
        class_id, size, flow_id, delay, now)`` runs after every
        departure (the observer protocol in :mod:`repro.sim.monitor`).
        Raises :class:`~repro.errors.ConfigurationError` here, not
        mid-run, when ``on_departure`` cannot take those arguments."""
        hook = getattr(monitor, "on_departure", None)
        try:
            signature(hook).bind(0, 0, 0.0, None, 0.0, 0.0)
        except TypeError:
            raise ConfigurationError(
                f"{type(monitor).__name__} is not a link observer: it "
                "needs on_departure(packet_id, class_id, size, flow_id, "
                "delay, now)"
            ) from None
        self.monitors.append(monitor)

    def attach_feeder(self, feeder) -> bool:
        """Register a source for inline arrival fusion during drains.

        ``feeder`` must follow the feeder protocol: ``next_time`` /
        ``next_seq`` attributes mirroring its scheduled arrival event's
        heap key (``next_time is None`` when nothing is pending), a
        ``_virtual`` flag owned by the drain, the ``flow_id`` its
        packets carry, ``pull_col(now)`` -- the pending arrival's
        ``(packet_id, class_id, size)``, reserving the next arrival's
        key -- and ``park(heap)``
        (:class:`~repro.traffic.trace.TraceSource` and
        :class:`~repro.traffic.source.TrafficSource` implement it).

        Returns ``False`` -- and registers nothing -- when the drain
        kernel is disabled or instrumentation hooks are already
        attached, in which case the source simply runs evented.
        """
        if not self.drain or _hooked(self):
            return False
        self._feeders.append(feeder)
        # A new inline arrival source may flip the cached chain-fusion
        # decision (see _complete_service); recompute on next entry --
        # for every chain this link is a member of, not just our own.
        self._chain_cache = None
        self.sim._topo_version += 1
        return True

    def _attach_cursor(self, cursor) -> None:
        """Register an :class:`~repro.traffic.compile.ArrivalCursor`.

        Called by the cursor itself at ``start()`` for every distinct
        link its compiled streams inject into.  Chain drains absorb the
        cursor's single pending calendar event through the same mirror
        protocol as fused feeders (see module docstring).  Registration
        is unconditional and idempotent -- chain eligibility is
        re-checked at every drain entry, so an ineligible link simply
        never uses the registration.
        """
        for c in self._cursors:
            if c is cursor:
                return
        self._cursors.append(cursor)
        self._chain_cache = None  # refresh the cached fusion decision
        self.sim._topo_version += 1

    def suspend_drain(self) -> None:
        """Permanently detach all fused feeders from this link.

        Safe at any point between events: a fused feeder's pending
        arrival is always a *real* calendar event (the mirror protocol),
        so detaching merely stops the drain from pulling its arrivals
        inline -- the source keeps running evented, bit-identically.
        The invariant checker calls this when attaching hooks.
        """
        self._feeders = []
        self.sim._topo_version += 1

    @property
    def backlog_packets(self) -> int:
        """Queued packets, excluding the one in service."""
        return self.scheduler.queues.total_packets

    @property
    def in_service(self) -> Optional[Packet]:
        """The packet currently being transmitted, if any.

        Exposed read-only for instrumentation (monitors, the invariant
        checker); the link alone mutates the underlying slot.
        """
        return self._in_service

    @property
    def busy_since(self) -> float:
        """Start time of the current busy period (valid while ``busy``)."""
        return self._busy_since

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Packet arrival at this hop."""
        now = self.sim.now
        packet.arrived_at = now
        self.arrivals += 1
        if self.buffer_packets is not None and not self._admit(
            packet.class_id, now
        ):
            return  # arriving packet itself was dropped
        self.scheduler.enqueue(packet, now)
        if not self.busy:
            self._begin_busy_period(now)
            self._start_service()

    def seed_backlog(self, packets: Sequence[Packet]) -> None:
        """Inject pre-built backlog packets at the current instant.

        The fluid->packet handoff seam of the hybrid engine
        (:mod:`repro.sim.hybrid`): unlike :meth:`receive`, the packets'
        possibly *backdated* ``arrived_at`` stamps are preserved, so the
        seeded queue state carries the age profile implied by the fluid
        delay estimates (head-age schedulers like WTP resume with
        plausible priorities, and the seeds' own measured delays match
        the fluid estimate they were derived from).  Packets must be
        pre-sorted by ``arrived_at`` per class (FIFO) and the call must
        come from inside a scheduled event -- the hybrid controller
        schedules it at the packet segment's start instant.  Service
        begins immediately when the link was idle.

        On a multihop topology *every* link is seeded independently
        with its own carried backlog: the hub's seeds are backdated by
        the fluid per-class delay estimates, upstream hops' by a
        uniform drain-time estimate (their per-class fluid state is
        aggregate-only).  Byte totals per link are exact either way;
        the age profile is the modeled part of the handoff contract
        (see ``DESIGN.md``, "Fluid/packet handoff contract").
        """
        now = self.sim.now
        scheduler = self.scheduler
        for packet in packets:
            self.arrivals += 1
            scheduler.enqueue(packet, packet.arrived_at)
        if not self.busy and scheduler.queues.total_packets:
            self._begin_busy_period(now)
            self._start_service()

    def backlog_snapshot(self, now: Optional[float] = None) -> list[float]:
        """Per-class backlog bytes, including the in-service remnant.

        The packet->fluid handoff read-out: queued bytes per class plus
        the unserved remainder of the packet in service (when the link
        is busy and its pending completion is visible; a columnar
        chain-fused drain may leave at most one in-flight packet
        unaccounted, which the hybrid's guard bands absorb).  Call only
        while the calendar is at rest (between ``run`` invocations).
        The network-wide hybrid controller reads every link's snapshot
        at a packet segment's end and threads each into that link's
        carried backlog for the next fluid segment.
        """
        if now is None:
            now = self.sim.now
        backlogs = list(self.scheduler.queues.bytes_backlog)
        packet = self._in_service
        if self.busy and packet is not None and self._pending_key is not None:
            remaining = (self._pending_key[0] - now) * self.capacity
            backlogs[packet.class_id] += min(max(remaining, 0.0), packet.size)
        return backlogs

    def _admit(self, class_id: int, now: float) -> bool:
        """Buffer management for an arrival of class ``class_id`` at a
        lossy link, before it is queued.

        Reports the arrival to the drop policy, then makes room when
        the buffer is full; returns False if the arrival itself was
        dropped.
        """
        policy = self.drop_policy
        if policy is not None:
            policy.on_arrival(class_id, now)
        queues = self.scheduler.queues
        if queues.total_packets < self.buffer_packets:
            return True
        if policy is None:
            # Plain tail drop of the arriving packet.
            self.drops += 1
            self.drops_per_class[class_id] += 1
            return False
        victim_class = policy.choose_victim(queues, class_id, now)
        if victim_class is None:
            self.drops += 1
            self.drops_per_class[class_id] += 1
            policy.on_drop(class_id, now)
            return False
        queues.pop_tail(victim_class)
        self.drops += 1
        self.drops_per_class[victim_class] += 1
        policy.on_drop(victim_class, now)
        return True

    # ------------------------------------------------------------------
    def _begin_busy_period(self, now: float) -> None:
        self.busy = True
        self._busy_since = now

    def _start_service(self) -> None:
        sim = self.sim
        now = sim.now
        packet = self.scheduler.select(now)
        packet.service_start = now
        self._in_service = packet
        t_c = now + packet.size / self.capacity
        self._pending_key = (t_c, sim._seq)
        sim.schedule(t_c, self._complete_service, packet)

    def _complete_service(self, packet: Packet) -> None:
        """Service completion: route to one of the three completion
        paths (module docstring) by the link's shape at this moment, so
        a link reshaped after construction routes by its new shape.

        Entry point for every completion event.  Routes to the evented
        path when the drain kernel is off or per-instance hooks (the
        invariant checker) are attached -- hooks replace this method on
        the *instance*, so reaching the class method with an instance
        override present means we were called from inside a hook
        wrapper and must not drain underneath it.
        """
        if not self.drain or _hooked(self):
            if self._feeders:
                self.suspend_drain()
            self._complete_service_evented(packet)
            return
        if self.buffer_packets is None:
            sim = self.sim
            chain = self._chain_cache
            # Guards are only checked on fusing entries -- once per
            # chain entry, not per completion; the topology stamp
            # catches the upstream edits a non-fusing entry's guards
            # could not see.
            if (
                chain is None
                or self._chain_topo != sim._topo_version
                or (self._chain_fuse and not chain.valid())
            ):
                chain = self._chain_cache = self._build_chain()
                self._chain_topo = sim._topo_version
                self._chain_fuse = not chain.blocked and (
                    bool(self._cursors)
                    or (len(chain.members) > 1 and chain.sources)
                )
            if self._chain_fuse and self._drain_chain(packet, chain):
                return
        if self._cursors and self._live_cursors():
            # Cursor batches run only in the chain kernel.  The
            # cursor's pending event is always a real calendar event,
            # so nothing needs detaching to run evented.
            self._complete_service_evented(packet)
        else:
            self._drain_single(packet)

    def _live_cursors(self) -> bool:
        """Drop exhausted cursors; True while any cursor can still
        inject.  An exhausted cursor has no pending event, so the link
        may leave the evented path; the topology stamp makes every
        chain it belongs to re-read its sources."""
        live = [c for c in self._cursors if c.pending_sources]
        if len(live) < len(self._cursors):
            self._cursors = live
            self._chain_cache = None
            self.sim._topo_version += 1
        return bool(live)

    def _drain_single(self, packet: Packet) -> None:
        """Drain loop of one link that no chain fuses and no cursor
        feeds (module docstring), lossless or lossy, whatever its
        scheduler, observers and target.

        ``packet`` departs at ``sim.now``.  The link's pending
        completion ``(t_c, s_c)`` and the packet in service live in
        locals, and the fused feeders' pending arrivals in a local
        ``(time, seq, feeder)`` heap keyed exactly like the calendar
        (seq uniqueness means the feeder itself is never compared).
        Each step takes the earlier of the two: an arrival is pulled
        with ``pull_col``, passes a lossy link's :meth:`_admit` (which
        may drop it or push out a queued tail), and is pushed onto its
        class column, then ``on_enqueue``; a departure stamps a queued
        ``Packet``, hands observers the scalars and the target its
        packet (a bare :class:`PacketSink` only counts, so no object is
        built), and reserves the next completion's sequence number.  One select
        block serves both a departure with backlog and an arrival that
        reopens the idle link: the scheduler's ``choose_class``, the
        inlined queue pop, then its bound ``on_select`` -- the
        evented path's float expressions and mutation order, without
        its call layers or its ``Packet``.

        Link and queue counters accumulate in locals.  They are
        published, with ``sim.now``, before the observers and the
        target run and on every exit (the ``finally`` block, errors
        included); ``queues.total_packets`` is also published before
        every scheduler call, and the link counters, queue counters and
        clock before every drop-policy call.  A target's ``receive`` may
        reach this link again, and a push-out removes a queued entry, so
        the queue counters (and ``arrivals``, after ``receive``) are
        re-read after either.  ``_in_service`` is ``None`` throughout, as the
        evented path leaves it while observers and targets run.
        """
        from ..schedulers import draingen  # deferred: import cycle

        sim = self.sim
        heap = sim._heap
        until = sim._run_until
        capacity = self.capacity
        scheduler = self.scheduler
        choose = scheduler.choose_class
        # Looked up through the module: see its docstring.
        on_select, on_enqueue = draingen.generated_drain_pair(scheduler)
        queues = scheduler.queues
        cols = queues.cols
        cheads = queues.col_heads
        heads = queues.head_arrivals
        backlog_bytes = queues.bytes_backlog
        num_classes = queues.num_classes
        buffer = self.buffer_packets
        monitors = self.monitors
        target = self.target
        sink = (
            target
            if type(target) is PacketSink and not target.keep_packets
            else None
        )
        # Whether a departure runs foreign code.  Only observers and a
        # target's receive could attach an observer mid-drain, so an
        # unobserved entry stays unobserved.
        observed = bool(monitors) or sink is None
        feeders = self._feeders
        complete = self._complete_service
        fheap = [
            (f.next_time, f.next_seq, f)
            for f in feeders
            if f.next_time is not None
        ]
        heapify(fheap)
        now = sim.now
        total = queues.total_packets
        arrivals = self.arrivals
        departures = self.departures
        nbytes = self.bytes_sent
        received = 0 if sink is None else sink.received
        self._in_service = None
        self._pending_key = None
        # The packet in service.  The entry completion was popped off
        # the calendar ahead of every fused arrival, so seq -1 orders
        # it first.
        smeta = packet
        scid = packet.class_id
        sarr = packet.arrived_at
        ssize = packet.size
        sstart = packet.service_start
        t_c = now
        s_c = -1
        try:
            while True:
                if smeta is None and total:
                    # -- next service, at a departure or an idle reopen
                    queues.total_packets = total
                    cid = choose(now)
                    col = cols[cid]
                    h = cheads[cid]
                    sarr = col[h]
                    ssize = col[h + 1]
                    smeta = col[h + 2]
                    h += 3
                    if h == len(col):
                        col.clear()
                        cheads[cid] = 0
                        backlog_bytes[cid] = 0.0
                        heads[cid] = inf
                    else:
                        if h >= _COL_COMPACT:
                            del col[:h]
                            h = 0
                        cheads[cid] = h
                        backlog_bytes[cid] -= ssize
                        heads[cid] = col[h]
                    total -= 1
                    scid = cid
                    if on_select is not None:
                        queues.total_packets = total
                        on_select(cid, sarr, ssize, smeta, now)
                    sstart = now
                    t_c = now + ssize / capacity
                if fheap:
                    entry = fheap[0]
                    ft = entry[0]
                    fs = entry[1]
                    if smeta is None or ft < t_c or (ft == t_c and fs < s_c):
                        # -- fused arrival at ft
                        if ft > until:
                            break
                        if heap:
                            head = heap[0]
                            ht = head[0]
                            if ht < ft or (ht == ft and head[1] < fs):
                                break
                            if ht == ft and head[1] == fs:
                                heappop(heap)
                                entry[2]._virtual = True
                        feeder = entry[2]
                        now = ft
                        if smeta is None:
                            # Evented order: the completion's seq
                            # (inside receive) precedes the next
                            # arrival's, which pull_col reserves.
                            s_c = sim._seq
                            sim._seq = s_c + 1
                            self.busy = True
                            self._busy_since = ft
                        pid, cid, size = feeder.pull_col(ft)
                        nt = feeder.next_time
                        if nt is None:
                            heappop(fheap)
                        else:
                            heapreplace(fheap, (nt, feeder.next_seq, feeder))
                        arrivals += 1
                        if not 0 <= cid < num_classes:
                            raise SchedulingError(
                                f"packet class {cid} out of range "
                                f"[0, {num_classes})"
                            )
                        if buffer is not None:
                            # A lossy link's drop policy, run where
                            # receive runs it, reads published counters.
                            # An idle reopen never drops: its queue is
                            # empty and buffer_packets >= 1.
                            self.arrivals = arrivals
                            self.departures = departures
                            self.bytes_sent = nbytes
                            queues.total_packets = total
                            sim.now = ft
                            admitted = self._admit(cid, ft)
                            total = queues.total_packets
                            if not admitted:
                                continue
                        if heads[cid] == inf:
                            heads[cid] = ft
                        fid = feeder.flow_id
                        meta = pid if fid is None else (pid, fid, ft, ())
                        cols[cid].extend((ft, size, meta))
                        backlog_bytes[cid] += size
                        total += 1
                        if on_enqueue is not None:
                            queues.total_packets = total
                            on_enqueue(cid, size, meta, ft)
                        continue
                elif smeta is None:
                    return  # idle, every feeder exhausted
                # -- departure at t_c
                if t_c > until or (
                    heap
                    and (
                        heap[0][0] < t_c
                        or (heap[0][0] == t_c and heap[0][1] < s_c)
                    )
                ):
                    break
                now = t_c
                departures += 1
                nbytes += ssize
                if sink is None and type(smeta) is not Packet:
                    smeta = materialize_entry(scid, sarr, ssize, smeta)
                if type(smeta) is Packet:
                    smeta.service_start = sstart
                    smeta.departed_at = now
                    smeta.hop_delays.append(sstart - sarr)
                if observed:
                    self.arrivals = arrivals
                    self.departures = departures
                    self.bytes_sent = nbytes
                    queues.total_packets = total
                    if sink is not None:
                        sink.received = received
                    sim.now = now
                    if monitors:
                        kind = type(smeta)
                        if kind is int:
                            pid = smeta
                            fid = None
                        elif kind is Packet:
                            pid = smeta.packet_id
                            fid = smeta.flow_id
                        else:
                            pid = smeta[0]
                            fid = smeta[1]
                        delay = sstart - sarr
                        for monitor in monitors:
                            monitor.on_departure(
                                pid, scid, ssize, fid, delay, now
                            )
                    if sink is None:
                        target.receive(smeta)
                        arrivals = self.arrivals
                        total = queues.total_packets
                    else:
                        received += 1
                else:
                    received += 1
                smeta = None
                if total:
                    s_c = sim._seq
                    sim._seq = s_c + 1
                else:
                    self.busy = False
                    self.busy_time += now - self._busy_since
            # Park: the feeders' and the pending completion's reserved
            # events go back onto the calendar with their keys.
            for f in feeders:
                f.park(heap)
            if smeta is not None:
                if type(smeta) is not Packet:
                    smeta = materialize_entry(scid, sarr, ssize, smeta)
                smeta.service_start = sstart
                heappush(heap, (t_c, s_c, complete, smeta))
                self._in_service = smeta
                self._pending_key = (t_c, s_c)
        finally:
            self.arrivals = arrivals
            self.departures = departures
            self.bytes_sent = nbytes
            queues.total_packets = total
            if sink is not None:
                sink.received = received
            sim.now = now

    def _complete_service_evented(self, packet: Packet) -> None:
        now = self.sim.now
        packet.departed_at = now
        delay = packet.service_start - packet.arrived_at
        packet.hop_delays.append(delay)
        self.departures += 1
        self.bytes_sent += packet.size
        self._in_service = None
        scheduler = self.scheduler
        for monitor in self.monitors:
            monitor.on_departure(
                packet.packet_id,
                packet.class_id,
                packet.size,
                packet.flow_id,
                delay,
                now,
            )
        self.target.receive(packet)
        if scheduler.queues.total_packets:
            # Inlined _start_service (one departure-to-service handoff
            # per transmitted packet makes this the hottest link path).
            # ``scheduler.select`` and ``self._complete_service`` stay
            # call-time lookups so per-instance overrides (the invariant
            # checker) keep intercepting both.
            nxt = scheduler.select(now)
            nxt.service_start = now
            self._in_service = nxt
            sim = self.sim
            t_c = now + nxt.size / self.capacity
            self._pending_key = (t_c, sim._seq)
            sim.schedule(t_c, self._complete_service, nxt)
        else:
            self.busy = False
            self.busy_time += now - self._busy_since

    # ------------------------------------------------------------------
    def _build_chain(self) -> _Chain:
        """Walk the target graph and snapshot the couplable chain.

        Breadth-first from this link through direct ``Link`` targets
        and demuxes implementing the drain-demux protocol.  Couplable
        successors (:func:`_couplable` and not :func:`_hooked`) become
        chain members; a hooked successor (invariant checker) marks the
        chain *blocked*; anything else is a chain boundary reached via
        plain ``receive``.  Every object examined contributes a guard
        so :meth:`_Chain.valid` detects any change that could alter the
        walk's outcome.

        After the downstream walk, a fan-in fixpoint scans the
        simulator's link registry for *upstream* members: couplable
        links whose target (or demux successor set) resolves into an
        already-walked member.  Those merge into the same chain, so
        multiple feeder-driven upstream links converging on one server
        -- and routed DAGs converging through ``RouteDemux`` -- drain
        in one fused loop.  A hooked or lossy upstream candidate is
        simply left out (it keeps draining on its own; its departures
        reach the member as foreign calendar events the drain parks
        on), and upstream edits that no guard can see are caught by
        the simulator's ``_topo_version`` stamp instead.  The entry
        link itself must be lossless; :meth:`_complete_service` never
        builds a chain for a lossy one.
        """
        guards: list = []
        members: list[_ChainLink] = []
        by_id: dict[int, _ChainLink] = {}
        blocked = False
        sim = self.sim
        pending: list[Link] = [self]
        seen = {id(self)}
        while True:
            while pending:
                L = pending.pop(0)
                tgt = L.target
                cl = _ChainLink(L)
                members.append(cl)
                by_id[id(L)] = cl
                guards.append((0, L, tgt, L.scheduler))
                if isinstance(tgt, Link):
                    cl.direct_target = tgt
                    succs: tuple = (tgt,)
                else:
                    resolve = getattr(tgt, "drain_resolve", None)
                    if resolve is None:
                        cl.direct_target = tgt
                        succs = ()
                    else:
                        cl.resolve = resolve
                        split = getattr(tgt, "drain_flow_split", None)
                        if split is not None:
                            cl.split = tgt
                            cl.flow_rcv, cl.cross_rcv = split()
                        guards.append(tgt.drain_guard())
                        succs = tuple(tgt.drain_successors())
                for r in succs:
                    if not isinstance(r, Link) or id(r) in seen:
                        continue
                    seen.add(id(r))
                    if _hooked(r):
                        blocked = True
                        guards.append((1, r))
                    elif _couplable(r, sim):
                        pending.append(r)
            # Fan-in fixpoint: adopt couplable registered links that
            # feed a current member.  Repeats (via the outer loop) until
            # no new upstream link qualifies, so grandparent feeders of
            # a merge point join too.
            grew = False
            for r in sim._links:
                if id(r) in seen or _hooked(r) or not _couplable(r, sim):
                    continue
                rt = r.target
                if isinstance(rt, Link):
                    succs = (rt,)
                else:
                    ds = getattr(rt, "drain_successors", None)
                    if ds is None:
                        continue
                    succs = tuple(ds())
                if any(id(s) in by_id for s in succs):
                    seen.add(id(r))
                    pending.append(r)
                    grew = True
            if not grew:
                break
        sources = any(
            cl.link._feeders or cl.link._cursors for cl in members
        )
        # Pre-resolve each member's receivers to coupled members so the
        # hot departure path never touches the dict.
        for cl in members:
            if cl.direct_target is not None:
                cl.direct_dcl = by_id.get(id(cl.direct_target))
            elif cl.split is not None:
                cl.flow_dcl = by_id.get(id(cl.flow_rcv))
                cl.cross_dcl = by_id.get(id(cl.cross_rcv))
        return _Chain(members, by_id, blocked, sources, guards)

    def _drain_chain(self, first: Packet, chain: _Chain) -> bool:
        """Fused drain over the whole coupled chain (module docstring).

        Returns ``False`` -- with no state touched -- when a member is
        busy mid-period with an unknown completion key (its event was
        scheduled while the chain shape was different); the entry then
        drains on its own, or runs evented when cursor-fed, until that
        member parks with a mirrored key again.  A chain of one member
        always returns ``True``.
        """
        members = chain.members
        sim = self.sim
        fheap: list = []
        for cl in members[1:]:
            L = cl.link
            if L.busy:
                key = L._pending_key
                p = L._in_service
                if key is None or p is None:
                    return False
                cl.pend_meta = p
                cl.pend_cid = p.class_id
                cl.pend_arr = p.arrived_at
                cl.pend_size = p.size
                cl.pend_sstart = p.service_start
                cl.t_c, cl.s_c = key
                cl.virtual = False
                fheap.append((cl.t_c, cl.s_c, 0, cl))
            else:
                cl.pend_meta = None
                cl.virtual = False
        heap = sim._heap
        until = sim._run_until
        coupled = chain.coupled
        entry = members[0]
        entry.virtual = False
        feeders: list = []
        cursors: list = []
        seen_cursors: set = set()
        for cl in members:
            L = cl.link
            for f in L._feeders:
                feeders.append(f)
                ft = f.next_time
                if ft is not None:
                    fheap.append((ft, f.next_seq, 1, (f, cl)))
            for c in L._cursors:
                cid = id(c)
                if cid not in seen_cursors:
                    seen_cursors.add(cid)
                    cursors.append(c)
                    ct = c.next_time
                    if ct is not None:
                        fheap.append((ct, c.next_seq, 2, c))
        heapify(fheap)
        entry.pend_meta = first
        entry.pend_cid = first.class_id
        entry.pend_arr = first.arrived_at
        entry.pend_size = first.size
        entry.pend_sstart = first.service_start
        item = _chain_complete(entry, sim.now, sim, fheap, coupled)
        if item is not None:
            heappush(fheap, item)
        while fheap:
            head = fheap[0]
            t = head[0]
            s = head[1]
            if t > until:
                break
            if heap:
                h = heap[0]
                ht = h[0]
                if ht < t or (ht == t and h[1] < s):
                    break  # foreign calendar event precedes: park
                if ht == t and h[1] == s:
                    # The fused event's own mirrored calendar entry is
                    # the heap minimum: absorb it and go virtual.
                    heappop(heap)
                    kind = head[2]
                    if kind == 0:
                        head[3].virtual = True
                    elif kind == 1:
                        head[3][0]._virtual = True
                    else:
                        head[3]._virtual = True
            sim.now = t
            kind = head[2]
            obj = head[3]
            # Kinds 0/1 leave the handled event at the heap root and
            # heapreplace it with its successor (one sift); kind 2 must
            # pop first because drain_batch reads fheap[0] to find the
            # batch boundary.
            if kind == 0:
                item = _chain_complete(obj, t, sim, fheap, coupled)
                if item is not None:
                    heapreplace(fheap, item)
                else:
                    heappop(fheap)
            elif kind == 1:
                f, cl = obj
                idle = not cl.link.busy
                if idle:
                    # Evented order: the completion's seq (inside
                    # receive) precedes the next arrival's, which
                    # pull_col reserves; _chain_select takes it below.
                    seq = sim._seq
                    sim._seq = seq + 1
                pid, cid, size = f.pull_col(t)
                if idle:
                    seq, sim._seq = sim._seq, seq
                fid = f.flow_id
                meta = pid if fid is None else (pid, fid, t, ())
                _chain_arrival(cl, cid, size, meta, t, sim, fheap)
                if idle:
                    sim._seq = seq
                nt = f.next_time
                if nt is not None:
                    heapreplace(fheap, (nt, f.next_seq, 1, obj))
                else:
                    heappop(fheap)
            else:
                heappop(fheap)
                if obj.drain_batch(t, until, heap, fheap, coupled):
                    heappush(fheap, (obj.next_time, obj.next_seq, 2, obj))
        # Park: restore the exact calendar an evented run would have at
        # this instant.  Never-absorbed (non-virtual) events are still
        # in the heap and must not be re-pushed.
        for f in feeders:
            f.park(heap)
        for c in cursors:
            c.park(heap)
        for cl in members:
            meta = cl.pend_meta
            if meta is not None:
                L = cl.link
                if type(meta) is not Packet:
                    # Park boundary: the pending completion becomes a
                    # real calendar payload / visible in-service packet.
                    meta = materialize_entry(
                        cl.pend_cid, cl.pend_arr, cl.pend_size, meta
                    )
                    cl.pend_meta = meta
                # service_start is deferred to pend_sstart while fused;
                # the evented completion reads it off the packet.
                meta.service_start = cl.pend_sstart
                L._in_service = meta
                L._pending_key = (cl.t_c, cl.s_c)
                if cl.virtual:
                    cl.virtual = False
                    heappush(
                        heap, (cl.t_c, cl.s_c, L._complete_service, meta)
                    )
        return True

    # ------------------------------------------------------------------
    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time the server was transmitting.

        If the link is busy at the end of the run the open busy period
        is counted up to ``now`` -- clamped to ``horizon`` when one is
        given, so a service still in progress at the cutoff contributes
        only its pre-horizon portion.  ``horizon`` defaults to the
        current clock.
        """
        total = self.busy_time
        if self.busy:
            end = (
                self.sim.now
                if horizon is None
                else min(self.sim.now, horizon)
            )
            if end > self._busy_since:
                total += end - self._busy_since
        span = horizon if horizon is not None else self.sim.now
        return total / span if span > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Link({self.name!r}, capacity={self.capacity}, "
            f"scheduler={self.scheduler.name})"
        )
