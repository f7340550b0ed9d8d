"""Traffic sources: bind an interarrival process and a size sampler to a
class and feed packets into a receiver (usually a link).

A :class:`TrafficSource` schedules its own arrival events on the
simulator, one at a time, so arbitrarily many sources multiplex onto the
same event calendar.  ``packet_id`` values are unique per source via a
(source_id, counter) pairing flattened into one integer namespace by the
:class:`PacketIdAllocator`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from ..errors import ConfigurationError
from ..sim.engine import Simulator
from ..sim.link import Receiver
from ..sim.packet import Packet
from .base import InterarrivalProcess, PacketSizeSampler

__all__ = ["TrafficSource", "PacketIdAllocator"]


class PacketIdAllocator:
    """Monotonically increasing packet ids shared across sources."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def next_id(self) -> int:
        return next(self._counter)


class TrafficSource:
    """Open-loop packet source for one class.

    Implements the link feeder protocol (see
    :meth:`~repro.sim.link.Link.attach_feeder`): each scheduled arrival
    event's heap key is mirrored in ``next_time`` / ``next_seq`` so a
    drain-enabled target link can absorb the event and pull subsequent
    arrivals inline.  Random draws happen in exactly the evented order
    (packet size at emission, then the next gap), so fused and evented
    runs consume the generators identically.
    """

    def __init__(
        self,
        sim: Simulator,
        target: Receiver,
        class_id: int,
        interarrivals: InterarrivalProcess,
        sizes: PacketSizeSampler,
        ids: Optional[PacketIdAllocator] = None,
        flow_id: Optional[int] = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
    ) -> None:
        if class_id < 0:
            raise ConfigurationError(f"class_id must be >= 0: {class_id}")
        if stop_time is not None and stop_time <= start_time:
            raise ConfigurationError("stop_time must exceed start_time")
        self.sim = sim
        self.target = target
        self.class_id = class_id
        self.interarrivals = interarrivals
        self.sizes = sizes
        self.ids = ids if ids is not None else PacketIdAllocator()
        self.flow_id = flow_id
        self.stop_time = stop_time
        self.packets_emitted = 0
        self.bytes_emitted = 0.0
        self._started = False
        self._start_time = start_time
        # Feeder-protocol state: heap-key mirror of the pending arrival
        # event, and whether the drain currently holds it virtually.
        self.next_time: Optional[float] = None
        self.next_seq = 0
        self._virtual = False
        # Gap buffering (enabled only when fused to a drain-enabled
        # link): gaps are drawn in blocks via ``draw_gaps``, which every
        # interarrival process implements with the same stream
        # consumption as repeated scalar draws, so buffered and scalar
        # runs see bit-identical gap sequences.  This does require the
        # interarrival and size samplers to own independent generators
        # (the RandomStreams discipline, same constraint the compiled
        # arrival path documents) because block drawing reorders draws
        # *across* streams, never within one.
        self._buffered = False
        self._gap_buffer: list[float] = []
        self._gap_index = 0
        # Size draws are block-buffered under the same discipline (and
        # the same caveat): ``draw_sizes`` consumes the size stream
        # exactly like repeated ``next_size`` calls, so buffered and
        # scalar runs see bit-identical size sequences.
        self._size_buffer: list[float] = []
        self._size_index = 0

    def start(self) -> None:
        """Schedule the first arrival.  Idempotent."""
        if self._started:
            return
        self._started = True
        attach = getattr(self.target, "attach_feeder", None)
        if attach is not None and attach(self):
            self._buffered = True
        first = self._start_time + self._next_gap()
        if self.stop_time is None or first < self.stop_time:
            self.next_time = first
            self.next_seq = self.sim._seq
            self.sim.schedule(first, self._emit)

    _GAP_BLOCK = 512

    def _next_gap(self) -> float:
        """One interarrival gap, via the block buffer when fused."""
        if not self._buffered:
            return self.interarrivals.next_gap()
        i = self._gap_index
        buffer = self._gap_buffer
        if i == len(buffer):
            buffer = self.interarrivals.draw_gaps(self._GAP_BLOCK).tolist()
            self._gap_buffer = buffer
            i = 0
        self._gap_index = i + 1
        return buffer[i]

    def _next_size(self) -> float:
        """One packet size, via the block buffer when fused."""
        if not self._buffered:
            return self.sizes.next_size()
        i = self._size_index
        buffer = self._size_buffer
        if i == len(buffer):
            buffer = self.sizes.draw_sizes(self._GAP_BLOCK).tolist()
            self._size_buffer = buffer
            i = 0
        self._size_index = i + 1
        return buffer[i]

    def _emit(self) -> None:
        now = self.sim.now
        packet = Packet(
            packet_id=self.ids.next_id(),
            class_id=self.class_id,
            size=self._next_size(),
            created_at=now,
            flow_id=self.flow_id,
        )
        self.packets_emitted += 1
        self.bytes_emitted += packet.size
        self.target.receive(packet)
        next_time = now + self._next_gap()
        if self.stop_time is None or next_time < self.stop_time:
            self.next_time = next_time
            self.next_seq = self.sim._seq
            self.sim.schedule(next_time, self._emit)
        else:
            self.next_time = None

    # -- feeder protocol (drain kernel) --------------------------------
    def pull_col(self, now: float) -> tuple:
        """Drain-inline counterpart of :meth:`_emit`, without the Packet.

        Returns ``(packet_id, class_id, size)`` for the pending arrival
        and advances to the next one in a single call; the drain loops
        store the scalars directly in a
        :class:`~repro.sim.queues.ClassQueueSet` column.  Draw order
        (size at emission, then the next gap) matches the evented path
        exactly.  Because the call reserves the *next arrival's*
        sequence number, a caller opening an idle busy period must
        reserve the completion's sequence number *before* calling (the
        evented path schedules the completion inside ``receive``, ahead
        of the next arrival) -- the drain loops do.
        """
        i = self._size_index
        buffer = self._size_buffer
        if i == len(buffer):
            buffer = self.sizes.draw_sizes(self._GAP_BLOCK).tolist()
            self._size_buffer = buffer
            i = 0
        self._size_index = i + 1
        size = buffer[i]
        self.packets_emitted += 1
        self.bytes_emitted += size
        pid = next(self.ids._counter)
        i = self._gap_index
        buffer = self._gap_buffer
        if i == len(buffer):
            buffer = self.interarrivals.draw_gaps(self._GAP_BLOCK).tolist()
            self._gap_buffer = buffer
            i = 0
        self._gap_index = i + 1
        next_time = now + buffer[i]
        if self.stop_time is None or next_time < self.stop_time:
            sim = self.sim
            self.next_time = next_time
            self.next_seq = sim._seq
            sim._seq += 1
        else:
            self.next_time = None
        return pid, self.class_id, size

    def park(self, heap: list) -> None:
        """Push the virtually-held arrival back onto the calendar."""
        if self._virtual:
            self._virtual = False
            if self.next_time is not None:
                heapq.heappush(
                    heap, (self.next_time, self.next_seq, self._emit, None)
                )

    @property
    def offered_rate_bytes(self) -> float:
        """Analytic offered load in bytes per time unit."""
        return self.sizes.mean / self.interarrivals.mean
