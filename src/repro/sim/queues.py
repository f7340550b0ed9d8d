"""Per-class FIFO queues.

Schedulers in this library never reorder packets *within* a class (the
paper's model is one FIFO per class); they only choose which class to
serve next.  :class:`ClassQueueSet` owns one FIFO per class plus the
byte/packet counters every scheduler needs.

Columnar storage
----------------
The drain kernels (:mod:`repro.sim.link`) carry unobserved packets as
*columns* instead of objects: each class owns a flat interleaved list
``cols[cid] = [arrived_at, size, meta, arrived_at, size, meta, ...]``
consumed through an element cursor ``col_heads[cid]`` (always a
multiple of 3).  ``meta`` is the lazily-materializable identity of the
packet:

* a real :class:`~repro.sim.packet.Packet` (already materialized --
  e.g. pushed by an evented arrival while columns were live),
* a bare ``int`` packet id (``flow_id is None``, ``created_at ==
  arrived_at``, no prior hops -- the common case for fresh arrivals),
* a tuple ``(packet_id, flow_id, created_at, hop_delay_history)`` for
  anything richer (flow-tagged packets, packets that already crossed
  hops in a fused chain).

A class FIFO is therefore a *hybrid*: the deque holds the oldest
packets (all real objects), the column holds the newest.  Push lands in
the column only when the column already has live entries, so order is
never interleaved; pops take the deque first.  :func:`materialize_entry`
rebuilds the real ``Packet`` -- bit-identical to the one the evented
path would have carried -- whenever an entry crosses an observation
boundary (``pop``/``head``/``heads``/``pop_tail``/:meth:`demote`).
``col_count`` (total live column entries across classes) gates every
column branch, so a run that never uses columns pays one integer test.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Iterator, Optional

from ..errors import SchedulingError
from .packet import Packet

__all__ = ["ClassQueueSet"]

#: Consumed-prefix length (in elements) at which a column is compacted.
#: Columns are append-only between compactions, so the consumed prefix
#: is dropped in one ``del col[:h]`` slice well before it can dominate
#: the list's footprint.
_COL_COMPACT = 3 * 1024


def materialize_entry(
    class_id: int, arrived_at: float, size: float, meta
) -> Packet:
    """Build the real :class:`Packet` for one columnar entry.

    ``meta`` is an ``int`` packet id or a ``(packet_id, flow_id,
    created_at, hop_delay_history)`` tuple (see module docstring); the
    result is field-for-field identical to the object the evented path
    would have carried to the same point.
    """
    if type(meta) is int:
        return Packet(meta, class_id, size, arrived_at)
    packet = Packet(meta[0], class_id, size, meta[2], meta[1])
    packet.arrived_at = arrived_at
    hist = meta[3]
    if hist:
        packet.hop_delays = list(hist)
    return packet


def meta_packet_id(meta) -> int:
    """Packet id of a queued entry's ``meta`` -- a real
    :class:`Packet`, an ``int`` id or a richer tuple (module docstring)
    -- without materializing it."""
    if type(meta) is int:
        return meta
    if type(meta) is Packet:
        return meta.packet_id
    return meta[0]


class ClassQueueSet:
    """N per-class FIFO queues with byte and packet accounting.

    Besides the byte/packet counters, the set maintains
    :attr:`head_arrivals` -- each class's head-packet arrival timestamp
    (``+inf`` for an empty queue) -- updated incrementally on every
    push/pop.  Head-of-line timestamps are the *only* queue state the
    waiting-time schedulers (WTP, quantized WTP, FCFS, strict,
    additive) need per selection, and a flat float list scan is several
    times cheaper than touching each deque and packet object.
    Maintaining the keys here rather than in scheduler hooks keeps them
    correct on paths that bypass the scheduler, such as drop policies
    calling :meth:`pop_tail` -- and it is what lets the columnar drain
    kernels schedule packets that were never objects to begin with (see
    module docstring).
    """

    __slots__ = (
        "num_classes",
        "queues",
        "bytes_backlog",
        "total_packets",
        "head_arrivals",
        "cols",
        "col_heads",
        "col_count",
    )

    def __init__(self, num_classes: int) -> None:
        if num_classes < 1:
            raise SchedulingError("need at least one class")
        self.num_classes = num_classes
        self.queues: list[deque[Packet]] = [deque() for _ in range(num_classes)]
        #: Backlog of each class in bytes.
        self.bytes_backlog: list[float] = [0.0] * num_classes
        #: Packets queued across all classes.  A plain attribute, not a
        #: property: it is read once per select/enqueue on the hot path.
        self.total_packets = 0
        #: Arrival time of each class's head packet (``+inf`` if empty).
        self.head_arrivals: list[float] = [inf] * num_classes
        #: Columnar suffix of each class FIFO (module docstring).
        self.cols: list[list] = [[] for _ in range(num_classes)]
        #: Element cursor of each column's live head (multiple of 3).
        self.col_heads: list[int] = [0] * num_classes
        #: Live columnar entries across all classes (0 == pure objects).
        self.col_count = 0

    # ------------------------------------------------------------------
    def push(self, packet: Packet) -> None:
        """Append ``packet`` to its class queue."""
        cid = packet.class_id
        if not 0 <= cid < self.num_classes:
            raise SchedulingError(
                f"packet class {cid} out of range [0, {self.num_classes})"
            )
        if self.col_count:
            col = self.cols[cid]
            if len(col) != self.col_heads[cid]:
                # The class tail lives in the column: append there (as a
                # pre-materialized meta) so FIFO order is preserved.
                col.extend((packet.arrived_at, packet.size, packet))
                self.col_count += 1
                self.bytes_backlog[cid] += packet.size
                self.total_packets += 1
                return
        queue = self.queues[cid]
        if not queue:
            self.head_arrivals[cid] = packet.arrived_at
        queue.append(packet)
        self.bytes_backlog[cid] += packet.size
        self.total_packets += 1

    def push_col(self, class_id: int, arrived_at: float, size: float, meta) -> None:
        """Append one columnar entry (see module docstring) to a class."""
        if not 0 <= class_id < self.num_classes:
            raise SchedulingError(
                f"packet class {class_id} out of range [0, {self.num_classes})"
            )
        if self.head_arrivals[class_id] == inf:
            self.head_arrivals[class_id] = arrived_at
        self.cols[class_id].extend((arrived_at, size, meta))
        self.col_count += 1
        self.bytes_backlog[class_id] += size
        self.total_packets += 1

    def pop(self, class_id: int) -> Packet:
        """Remove and return the head packet of ``class_id``."""
        queue = self.queues[class_id]
        if queue:
            packet = queue.popleft()
            # Snap to zero on empty so float residue never leaks into
            # backlog-driven schedulers (BPR rates) or totals.
            if queue:
                self.bytes_backlog[class_id] -= packet.size
                self.head_arrivals[class_id] = queue[0].arrived_at
            else:
                col = self.cols[class_id]
                h = self.col_heads[class_id]
                if h < len(col):
                    self.bytes_backlog[class_id] -= packet.size
                    self.head_arrivals[class_id] = col[h]
                else:
                    self.bytes_backlog[class_id] = 0.0
                    self.head_arrivals[class_id] = inf
            self.total_packets -= 1
            return packet
        col = self.cols[class_id]
        h = self.col_heads[class_id]
        if h >= len(col):
            raise SchedulingError(f"pop from empty class queue {class_id}")
        arrived = col[h]
        size = col[h + 1]
        meta = col[h + 2]
        packet = (
            meta
            if type(meta) is Packet
            else materialize_entry(class_id, arrived, size, meta)
        )
        h += 3
        self.col_count -= 1
        if h == len(col):
            col.clear()
            self.col_heads[class_id] = 0
            self.bytes_backlog[class_id] = 0.0
            self.head_arrivals[class_id] = inf
        else:
            if h >= _COL_COMPACT:
                del col[:h]
                h = 0
            self.col_heads[class_id] = h
            self.bytes_backlog[class_id] -= size
            self.head_arrivals[class_id] = col[h]
        self.total_packets -= 1
        return packet

    def pop_tail(self, class_id: int) -> Packet:
        """Remove and return the *tail* packet (used by drop policies)."""
        col = self.cols[class_id]
        h = self.col_heads[class_id]
        if len(col) > h:
            # Newest entries live in the column: its tail is the class
            # tail.
            meta = col.pop()
            size = col.pop()
            arrived = col.pop()
            packet = (
                meta
                if type(meta) is Packet
                else materialize_entry(class_id, arrived, size, meta)
            )
            self.col_count -= 1
            if len(col) == h:
                col.clear()
                self.col_heads[class_id] = 0
                if self.queues[class_id]:
                    self.bytes_backlog[class_id] -= size
                else:
                    self.bytes_backlog[class_id] = 0.0
                    self.head_arrivals[class_id] = inf
            else:
                self.bytes_backlog[class_id] -= size
            self.total_packets -= 1
            return packet
        queue = self.queues[class_id]
        if not queue:
            raise SchedulingError(f"pop_tail from empty class queue {class_id}")
        packet = queue.pop()
        self.bytes_backlog[class_id] = (
            self.bytes_backlog[class_id] - packet.size if queue else 0.0
        )
        if not queue:
            self.head_arrivals[class_id] = inf
        self.total_packets -= 1
        return packet

    def demote(self) -> None:
        """Materialize every live columnar entry into its class deque.

        Called at observation boundaries that need direct object access
        to whole queues (invariant checker attach, hook fallback).
        Counters and :attr:`head_arrivals` are already exact, so only
        the storage representation changes.
        """
        if not self.col_count:
            return
        for cid in range(self.num_classes):
            col = self.cols[cid]
            h = self.col_heads[cid]
            n = len(col)
            if h < n:
                queue = self.queues[cid]
                while h < n:
                    meta = col[h + 2]
                    queue.append(
                        meta
                        if type(meta) is Packet
                        else materialize_entry(cid, col[h], col[h + 1], meta)
                    )
                    h += 3
            if n:
                col.clear()
            self.col_heads[cid] = 0
        self.col_count = 0

    # ------------------------------------------------------------------
    def head(self, class_id: int) -> Optional[Packet]:
        """Head packet of ``class_id`` without removing it, or ``None``.

        A columnar head is materialized in place (promoted into the
        deque prefix) so repeated peeks return the same object.
        """
        queue = self.queues[class_id]
        if queue:
            return queue[0]
        col = self.cols[class_id]
        h = self.col_heads[class_id]
        if h >= len(col):
            return None
        meta = col[h + 2]
        packet = (
            meta
            if type(meta) is Packet
            else materialize_entry(class_id, col[h], col[h + 1], meta)
        )
        queue.append(packet)
        h += 3
        self.col_count -= 1
        if h == len(col):
            col.clear()
            h = 0
        elif h >= _COL_COMPACT:
            del col[:h]
            h = 0
        self.col_heads[class_id] = h
        return packet

    def backlog_packets(self, class_id: int) -> int:
        """Number of packets queued in ``class_id``."""
        return len(self.queues[class_id]) + (
            (len(self.cols[class_id]) - self.col_heads[class_id]) // 3
        )

    def backlog_bytes(self, class_id: int) -> float:
        """Bytes queued in ``class_id``."""
        return self.bytes_backlog[class_id]

    @property
    def total_bytes(self) -> float:
        """Bytes queued across all classes."""
        return sum(self.bytes_backlog)

    def is_empty(self) -> bool:
        """True when no class has a queued packet."""
        return self.total_packets == 0

    def heads(self) -> list[Optional[Packet]]:
        """Head packet of every class (``None`` for empty queues).

        Used by the invariant checker to snapshot the dispatch
        candidates before a scheduler's ``select`` pops one of them.
        """
        return [self.head(cid) for cid in range(self.num_classes)]

    def backlogged_classes(self) -> Iterator[int]:
        """Yield the indices of classes with at least one queued packet."""
        for cid in range(self.num_classes):
            if self.queues[cid] or len(self.cols[cid]) > self.col_heads[cid]:
                yield cid

    def __len__(self) -> int:
        return self.total_packets
