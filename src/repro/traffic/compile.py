"""Compiled arrival streams: block-drawn traffic behind one cursor.

The scalar source path (:class:`~repro.traffic.source.TrafficSource`)
pays, per packet: a Generator method call for the gap, another for the
size, a Python callback dispatch, and a heap push/pop on the global
event calendar.  At the paper's operating point -- heavy-tailed sources
at 80-95% utilization -- arrivals are roughly half of all heap traffic,
so this module compiles them instead:

* Each source pre-draws interarrival gaps and packet sizes in numpy
  blocks (:meth:`~repro.traffic.base.InterarrivalProcess.draw_gaps` /
  :meth:`~repro.traffic.base.PacketSizeSampler.draw_sizes`), converts
  gaps to absolute timestamps with a carry-folded cumulative sum, and
  materializes one bounded chunk at a time, so memory stays O(chunk)
  per source regardless of horizon.
* All compiled streams aimed at a link feed one
  :class:`ArrivalCursor`, which keeps exactly *one* outstanding event
  on the simulator heap (the globally next arrival) instead of one
  pending event per source.

Equivalence contract
--------------------
The compiled path is bit-identical to the scalar path: block draws
consume each source's private random stream exactly like scalar draws
(see :mod:`repro.traffic.base`), and the carry-folded cumsum performs
the same left-to-right float additions as the scalar ``t += gap``
accumulation.  Two caveats, both satisfied by every in-repo call site
and by the :class:`~repro.sim.rng.RandomStreams` discipline:

* A source's interarrival process and size sampler must draw from
  *independent* generators (block drawing changes how their draws
  interleave, which is only invisible when the streams are separate).
* Sources whose arrivals collide at the exact same float timestamp are
  ordered by registration order on the cursor, whereas the scalar path
  orders them by event-scheduling sequence.  With continuous
  interarrival distributions exact collisions have probability zero.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, SchedulingError
from ..sim.engine import Simulator
from ..sim.link import Receiver, _chain_arrival
from ..sim.packet import Packet
from .base import InterarrivalProcess, PacketSizeSampler
from .source import PacketIdAllocator

__all__ = [
    "DEFAULT_CHUNK",
    "RateEnvelope",
    "CompiledSource",
    "CompiledMixedSource",
    "ArrivalCursor",
]


@dataclass(frozen=True)
class RateEnvelope:
    """Piecewise-constant per-class offered-rate envelope on a time grid.

    ``edges`` are ``bins + 1`` ascending bin edges; ``byte_rates`` is a
    ``(num_classes, bins)`` array of mean offered bytes per time unit
    within each bin.  The hybrid engine (:mod:`repro.sim.hybrid`) bins
    a recorded trace with :meth:`from_arrays`, measures each candidate
    fluid stretch's stationarity on the aggregate rate, and derives its
    transient boundaries from :meth:`change_points`.
    """

    edges: np.ndarray
    byte_rates: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.float64)
        if edges.ndim != 1 or len(edges) < 2:
            raise ConfigurationError("edges must be a 1-D array of >= 2 edges")
        if np.any(np.diff(edges) <= 0):
            raise ConfigurationError("edges must be strictly increasing")
        rates = self.byte_rates
        if rates.ndim != 2 or rates.shape[1] != len(edges) - 1:
            raise ConfigurationError(
                "byte_rates must be (num_classes, bins) with "
                "bins == len(edges) - 1"
            )
        if np.any(rates < 0):
            raise ConfigurationError("byte_rates must be non-negative")

    @property
    def num_classes(self) -> int:
        return int(self.byte_rates.shape[0])

    @property
    def bins(self) -> int:
        return int(self.byte_rates.shape[1])

    def aggregate_byte_rates(self) -> np.ndarray:
        """Per-bin offered bytes/unit summed over classes."""
        return self.byte_rates.sum(axis=0)

    def change_points(self, rel_jump: float = 0.25) -> list[float]:
        """Interior edges where the aggregate rate jumps.

        A bin boundary is a transient when the aggregate byte rate
        changes by more than ``rel_jump`` relative to the envelope's
        overall mean rate -- the normalization that keeps near-idle
        bins from flagging spurious transients.
        """
        if rel_jump <= 0:
            raise ConfigurationError(f"rel_jump must be positive: {rel_jump}")
        agg = self.aggregate_byte_rates()
        scale = float(agg.mean())
        if scale <= 0:
            return []
        jumps = np.abs(np.diff(agg)) > rel_jump * scale
        return [float(t) for t in self.edges[1:-1][jumps]]

    @classmethod
    def from_arrays(
        cls,
        times: np.ndarray,
        class_ids: np.ndarray,
        sizes: np.ndarray,
        horizon: float,
        bin_width: float,
        num_classes: Optional[int] = None,
    ) -> "RateEnvelope":
        """Binned empirical envelope of a recorded arrival stream."""
        if horizon <= 0 or bin_width <= 0:
            raise ConfigurationError("horizon and bin_width must be positive")
        bins = max(1, int(np.ceil(horizon / bin_width)))
        edges = np.linspace(0.0, bins * bin_width, bins + 1)
        if num_classes is None:
            num_classes = int(class_ids.max()) + 1 if len(class_ids) else 1
        byte_rates = np.zeros((num_classes, bins))
        for cid in range(num_classes):
            mask = class_ids == cid
            if not np.any(mask):
                continue
            byte_rates[cid], _ = np.histogram(
                times[mask], bins=edges, weights=sizes[mask]
            )
        byte_rates /= bin_width
        return cls(edges, byte_rates)

#: Gaps/sizes materialized per block: 16 Ki doubles = 128 KiB per array,
#: small enough that dozens of sources stay cache-friendly, large enough
#: that the per-block numpy overhead amortizes to a few ns per arrival.
DEFAULT_CHUNK = 16384


class _CompiledStream:
    """Chunked absolute-timestamp timeline of one source (base class).

    Subclasses fill ``_class_ids``/``_sizes`` for each block via
    :meth:`_draw_block_payload`.  The timeline itself is shared logic:
    draw a block of gaps, fold the running carry into the first gap, and
    cumulative-sum -- which performs exactly the scalar path's
    left-to-right ``t += gap`` additions -- then truncate strictly below
    ``stop_time`` (the scalar sources' ``next_time < stop_time`` rule).
    """

    def __init__(
        self,
        target: Receiver,
        interarrivals: InterarrivalProcess,
        ids: Optional[PacketIdAllocator] = None,
        flow_id: Optional[int] = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        if stop_time is not None and stop_time <= start_time:
            raise ConfigurationError("stop_time must exceed start_time")
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1: {chunk}")
        self.target = target
        self.interarrivals = interarrivals
        self.ids = ids if ids is not None else PacketIdAllocator()
        self.flow_id = flow_id
        self.start_time = start_time
        self.stop_time = stop_time
        self.chunk = chunk
        self.packets_emitted = 0
        self.bytes_emitted = 0.0
        self._carry = start_time
        self._exhausted = False
        self._times: list[float] = []
        self._class_ids: list[int] = []
        self._sizes: list[float] = []
        self._head = 0
        #: Coupled chain member behind ``target`` during an active
        #: chain-fused drain; cached per chain epoch by the drain entry
        #: (see :meth:`ArrivalCursor.drain_batch`), ``None`` otherwise.
        self._chain_dcl = None

    # -- block materialization -----------------------------------------
    def _draw_block_payload(self, count: int) -> None:
        """Fill ``_class_ids`` and ``_sizes`` for ``count`` arrivals."""
        raise NotImplementedError

    def _load_block(self) -> bool:
        """Materialize the next chunk; False when the stream is done."""
        if self._exhausted:
            return False
        chunk = self.chunk
        stop = self.stop_time
        if stop is not None:
            # Size the block to the expected remaining arrivals (+10%
            # headroom), capped at ``chunk``.  Block size never changes
            # the emitted stream -- draws are consumed in sequence
            # either way -- it only bounds how many surplus draws are
            # discarded past ``stop_time``.  Unbounded streams keep the
            # fixed chunk: every draw is eventually used.
            want = int((stop - self._carry) / self.interarrivals.mean * 1.1) + 8
            if want < chunk:
                chunk = want
        gaps = self.interarrivals.draw_gaps(chunk)
        gaps[0] += self._carry
        times = np.cumsum(gaps)
        if stop is not None and times[-1] >= stop:
            times = times[: int(np.searchsorted(times, stop, side="left"))]
            self._exhausted = True
            if not len(times):
                self._times = []
                self._head = 0
                return False
        self._carry = float(times[-1])
        self._times = times.tolist()
        self._head = 0
        self._draw_block_payload(len(times))
        return True

    # -- cursor interface ----------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending arrival, or None when done."""
        if self._head >= len(self._times) and not self._load_block():
            return None
        return self._times[self._head]

    def emit(self) -> Packet:
        """Materialize the head arrival as a Packet and advance."""
        head = self._head
        self._head = head + 1
        packet = Packet(
            packet_id=self.ids.next_id(),
            class_id=self._class_ids[head],
            size=self._sizes[head],
            created_at=self._times[head],
            flow_id=self.flow_id,
        )
        self.packets_emitted += 1
        self.bytes_emitted += packet.size
        return packet


class CompiledSource(_CompiledStream):
    """Block-drawn equivalent of :class:`~repro.traffic.source.TrafficSource`.

    One class, gaps from ``interarrivals``, sizes from ``sizes`` --
    producing the identical packet sequence (ids, times, sizes) when
    registered on an :class:`ArrivalCursor` as the scalar source
    produces through its per-arrival callbacks.
    """

    def __init__(
        self,
        target: Receiver,
        class_id: int,
        interarrivals: InterarrivalProcess,
        sizes: PacketSizeSampler,
        ids: Optional[PacketIdAllocator] = None,
        flow_id: Optional[int] = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        if class_id < 0:
            raise ConfigurationError(f"class_id must be >= 0: {class_id}")
        super().__init__(
            target, interarrivals, ids, flow_id, start_time, stop_time, chunk
        )
        self.class_id = class_id
        self.sizes = sizes

    def _draw_block_payload(self, count: int) -> None:
        self._class_ids = [self.class_id] * count
        self._sizes = self.sizes.draw_sizes(count).tolist()

    @property
    def offered_rate_bytes(self) -> float:
        """Analytic offered load in bytes per time unit."""
        return self.sizes.mean / self.interarrivals.mean


class CompiledMixedSource(_CompiledStream):
    """Block-drawn equivalent of
    :class:`~repro.network.crosstraffic.MixedClassSource`: fixed packet
    size, per-packet class drawn from a finite distribution.
    """

    def __init__(
        self,
        target: Receiver,
        interarrivals: InterarrivalProcess,
        class_probabilities: Sequence[float],
        packet_size: float,
        rng: np.random.Generator,
        ids: Optional[PacketIdAllocator] = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        probs = np.asarray(class_probabilities, dtype=float)
        if probs.ndim != 1 or not len(probs):
            raise ConfigurationError("class_probabilities must be a 1-D sequence")
        if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"class probabilities must be non-negative and sum to 1: {probs}"
            )
        if packet_size <= 0:
            raise ConfigurationError(f"packet_size must be positive: {packet_size}")
        super().__init__(
            target, interarrivals, ids, None, start_time, stop_time, chunk
        )
        self._cum = np.cumsum(probs)
        self.packet_size = float(packet_size)
        self._rng = rng

    def _draw_block_payload(self, count: int) -> None:
        # Same uniforms, edges and clamp as MixedClassSource._emit.
        u = self._rng.random(count)
        indices = np.searchsorted(self._cum, u, side="right")
        np.minimum(indices, len(self._cum) - 1, out=indices)
        self._class_ids = indices.tolist()
        self._sizes = [self.packet_size] * count


class ArrivalCursor:
    """Merged injection cursor over compiled streams.

    Holds a small private heap of (head timestamp, registration order,
    stream) entries and keeps exactly one pending event on the simulator
    calendar: the globally next arrival across all registered streams.

    Each calendar firing injects a *batch*: after emitting the due
    arrival it keeps going -- advancing ``sim.now`` itself -- for as
    long as the next merged arrival stays within the run horizon and
    strictly before every pending calendar event, and only then
    reschedules one event for the next arrival.  For closely spaced
    streams (small-gap CBR/on-off) this removes the per-arrival
    calendar push/pop and run-loop dispatch that used to make the
    compiled path *slower* than scalar sources; a single-stream cursor
    also skips the private-heap replace entirely.  Ties with a calendar
    event defer to the calendar (the cursor reschedules and the run
    loop interleaves by sequence number, exactly as before).

    Mirror protocol (chain drains)
    ------------------------------
    The cursor mirrors its single pending calendar event's ``(time,
    seq)`` key in ``next_time`` / ``next_seq`` -- the same contract as
    fused feeders (see :mod:`repro.sim.link`) -- and registers itself
    on every distinct target link at :meth:`start`.  A chain-fused
    drain absorbs the event when it is the global heap minimum and
    then calls :meth:`drain_batch`, which runs the batch-injection
    loop inline against an *emulated* calendar minimum so batch
    boundaries (and therefore sequence-number consumption) stay
    bit-identical to an evented run; :meth:`park` restores the real
    event with the identical key.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._streams: list[_CompiledStream] = []
        self._heap: list[tuple[float, int, _CompiledStream]] = []
        self._started = False
        self.packets_injected = 0
        #: Heap key of the pending calendar event (feeder mirror
        #: protocol); ``next_time is None`` means nothing is pending.
        self.next_time: Optional[float] = None
        self.next_seq = 0
        self._virtual = False
        #: Chain-epoch marker: the ``coupled`` dict the streams'
        #: ``_chain_dcl`` caches were resolved against.
        self._dcl_for = None

    def add(self, stream: _CompiledStream) -> _CompiledStream:
        """Register a compiled stream.  Returns it for chaining."""
        if self._started:
            raise ConfigurationError(
                "cannot add streams after the cursor started"
            )
        self._streams.append(stream)
        return stream

    def start(self) -> None:
        """Schedule the first merged arrival.  Idempotent."""
        if self._started:
            return
        self._started = True
        for order, stream in enumerate(self._streams):
            first = stream.peek_time()
            if first is not None:
                self._heap.append((first, order, stream))
            # Register with the target for chain-drain absorption;
            # plain receivers (sinks, demuxes) have no _attach_cursor.
            attach = getattr(stream.target, "_attach_cursor", None)
            if attach is not None:
                attach(self)
        heapq.heapify(self._heap)
        if self._heap:
            sim = self.sim
            first = self._heap[0][0]
            self.next_time = first
            self.next_seq = sim._seq
            sim.schedule(first, self._fire)

    def _fire(self) -> None:
        sim = self.sim
        heap = self._heap
        sim_heap = sim._heap
        until = sim._run_until
        injected = 0
        while True:
            _, order, stream = heap[0]
            packet = stream.emit()
            injected += 1
            stream.target.receive(packet)
            next_time = stream.peek_time()
            if next_time is None:
                heapq.heappop(heap)
                if not heap:
                    self.next_time = None
                    break
            elif len(heap) == 1:
                heap[0] = (next_time, order, stream)
            else:
                heapq.heapreplace(heap, (next_time, order, stream))
            nxt = heap[0][0]
            if nxt > until or (sim_heap and sim_heap[0][0] <= nxt):
                self.next_time = nxt
                self.next_seq = sim._seq
                sim.schedule(nxt, self._fire)
                break
            sim.now = nxt
        self.packets_injected += injected

    def park(self, heap: list) -> None:
        """Re-push the pending arrival event after virtual absorption.

        The pushed entry is bit-identical to the one an evented run
        would hold (same time, same reserved sequence number, same
        callback), so the calendar state after a chain-drain park is
        indistinguishable from the evented path's.  No-op unless the
        cursor's event was absorbed (``_virtual``).
        """
        if self._virtual:
            self._virtual = False
            if self.next_time is not None:
                heapq.heappush(
                    heap, (self.next_time, self.next_seq, self._fire, None)
                )

    def drain_batch(self, now, until, sim_heap, fused_heap, coupled) -> bool:
        """Inline one :meth:`_fire` batch from a chain-fused drain.

        ``now`` is the absorbed event's timestamp (``sim.now`` is
        already there); ``fused_heap`` holds the drain's pending
        ``(time, seq, ...)`` events, which together with ``sim_heap``
        reproduce exactly the calendar an evented run would consult --
        so the batch boundary test (and hence every ``sim._seq``
        consumption) is bit-identical to :meth:`_fire`.  Emissions
        whose target is a coupled chain member (``coupled``, the
        drain's id -> member map) enter its class column as scalars,
        with no Packet built (inline enqueue, or
        :func:`~repro.sim.link._chain_arrival` when the member must
        start service); all others get a Packet through plain
        ``receive``.
        Returns True when a next arrival was reserved (mirror updated,
        virtual); False when the cursor is exhausted.
        """
        sim = self.sim
        heap = self._heap
        injected = 0
        reserved = True
        if self._dcl_for is not coupled:
            # New chain epoch: re-resolve each stream's target against
            # this chain's coupled-member map once, so the per-packet
            # path below is a single attribute load.
            self._dcl_for = coupled
            for s in self._streams:
                s._chain_dcl = coupled.get(id(s.target))
        # The earliest foreign event bounds the batch.  Neither heap
        # can change under the inline-enqueue fast path below, so the
        # bound is hoisted and recomputed only after a dispatch that
        # may schedule (receive) or push a fused completion
        # (_chain_arrival).
        m = sim_heap[0][0] if sim_heap else inf
        if fused_heap and fused_heap[0][0] < m:
            m = fused_heap[0][0]
        while True:
            entry = heap[0]
            order = entry[1]
            stream = entry[2]
            head = stream._head
            dcl = stream._chain_dcl
            if dcl is not None:
                # -- columnar emit: the arrival enters the member's
                # per-class column as scalars; no Packet is built.  The
                # heap key equals _times[head], so created == arrived
                # == now and an int meta (flow-less) loses nothing.
                pid = next(stream.ids._counter)
                cid = stream._class_ids[head]
                size = stream._sizes[head]
                fid = stream.flow_id
                stream._head = head + 1
                stream.packets_emitted += 1
                stream.bytes_emitted += size
                injected += 1
                meta = pid if fid is None else (pid, fid, now, ())
                L = dcl.link
                if L.busy:
                    # Busy member: inline columnar enqueue (the
                    # dominant case at high utilization).
                    L.arrivals += 1
                    if not 0 <= cid < dcl.nclasses:
                        raise SchedulingError(
                            f"packet class {cid} out of range "
                            f"[0, {dcl.nclasses})"
                        )
                    if dcl.heads[cid] == inf:
                        dcl.heads[cid] = now
                    dcl.ccols[cid].extend((now, size, meta))
                    queues = dcl.queues
                    queues.col_count += 1
                    dcl.backlog[cid] += size
                    queues.total_packets += 1
                    if dcl.on_enqueue is not None:
                        dcl.on_enqueue(cid, size, meta, now)
                else:
                    _chain_arrival(dcl, cid, size, meta, now, sim, fused_heap)
                    m = sim_heap[0][0] if sim_heap else inf
                    if fused_heap and fused_heap[0][0] < m:
                        m = fused_heap[0][0]
            else:
                # -- stream.emit() inlined (identical field order/values)
                packet = Packet(
                    next(stream.ids._counter),
                    stream._class_ids[head],
                    stream._sizes[head],
                    stream._times[head],
                    stream.flow_id,
                )
                stream._head = head + 1
                stream.packets_emitted += 1
                stream.bytes_emitted += packet.size
                injected += 1
                stream.target.receive(packet)
                m = sim_heap[0][0] if sim_heap else inf
                if fused_heap and fused_heap[0][0] < m:
                    m = fused_heap[0][0]
            # -- stream.peek_time() inlined (block reload on exhaustion)
            times = stream._times
            if stream._head < len(times):
                next_time = times[stream._head]
            else:
                next_time = stream.peek_time()
            if next_time is None:
                heapq.heappop(heap)
                if not heap:
                    self.next_time = None
                    reserved = False
                    break
            elif len(heap) == 1:
                heap[0] = (next_time, order, stream)
            else:
                heapq.heapreplace(heap, (next_time, order, stream))
            nxt = heap[0][0]
            if nxt > until or m <= nxt:
                s = sim._seq
                sim._seq = s + 1
                self.next_time = nxt
                self.next_seq = s
                self._virtual = True
                break
            now = nxt
            sim.now = nxt
        self.packets_injected += injected
        return reserved

    @property
    def pending_sources(self) -> int:
        """Streams that still have arrivals to inject."""
        return len(self._heap) if self._started else len(self._streams)
