"""Per-class FIFO queues.

Schedulers in this library never reorder packets *within* a class (the
paper's model is one FIFO per class); they only choose which class to
serve next.  :class:`ClassQueueSet` owns one FIFO per class plus the
byte/packet counters every scheduler needs.

Columnar storage
----------------
Each class FIFO is one flat interleaved list ``cols[cid] = [arrived_at,
size, meta, arrived_at, size, meta, ...]`` consumed through an element
cursor ``col_heads[cid]`` (always a multiple of 3).  ``meta`` is the
lazily-materializable identity of the packet:

* a real :class:`~repro.sim.packet.Packet` (already built -- pushed by
  :meth:`ClassQueueSet.push`, handed to a chain member as an object (a
  user-flow packet, or one materialized for routing), or materialized
  in place by a peek),
* a bare ``int`` packet id (``flow_id is None``, ``created_at ==
  arrived_at``, no prior hops -- the common case for fresh arrivals),
* a tuple ``(packet_id, flow_id, created_at, hop_delay_history)`` for
  anything richer (flow-tagged packets, packets that already crossed
  hops in a fused chain).

The drain kernels (:mod:`repro.sim.link`) push and pop scalar entries
inline; :meth:`ClassQueueSet.push` appends a ``Packet`` as its own
meta.  :func:`materialize_entry` rebuilds the real ``Packet`` --
bit-identical to the one the evented path would have carried --
whenever a scalar entry crosses an observation boundary:
:meth:`~ClassQueueSet.pop` and :meth:`~ClassQueueSet.pop_tail` return
one, and :meth:`~ClassQueueSet.head` writes it back into the column so
repeated peeks return the same object.
"""

from __future__ import annotations

from math import inf
from typing import Iterator, Optional

from ..errors import SchedulingError
from .packet import Packet

__all__ = ["ClassQueueSet"]

#: Consumed-prefix length (in elements) at which a column is compacted,
#: here and in the drain loops of :mod:`repro.sim.link`.  Columns are
#: append-only between compactions, so the consumed prefix is dropped in
#: one ``del col[:h]`` slice well before it can dominate the list's
#: footprint.
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
    times cheaper than touching each column head.  Maintaining the keys
    here rather than in scheduler hooks keeps them correct on paths
    that bypass the scheduler, such as drop policies calling
    :meth:`pop_tail` -- and it is what lets the columnar drain kernels
    schedule packets that were never objects to begin with (see module
    docstring).
    """

    __slots__ = (
        "num_classes",
        "bytes_backlog",
        "total_packets",
        "head_arrivals",
        "cols",
        "col_heads",
    )

    def __init__(self, num_classes: int) -> None:
        if num_classes < 1:
            raise SchedulingError("need at least one class")
        self.num_classes = num_classes
        #: Backlog of each class in bytes.
        self.bytes_backlog: list[float] = [0.0] * num_classes
        #: Packets queued across all classes.  A plain attribute, not a
        #: property: it is read once per select/enqueue on the hot path.
        self.total_packets = 0
        #: Arrival time of each class's head packet (``+inf`` if empty).
        self.head_arrivals: list[float] = [inf] * num_classes
        #: Each class FIFO as one column (module docstring).
        self.cols: list[list] = [[] for _ in range(num_classes)]
        #: Element cursor of each column's live head (multiple of 3).
        self.col_heads: list[int] = [0] * num_classes

    # ------------------------------------------------------------------
    def push(self, packet: Packet) -> None:
        """Append ``packet`` to its class queue (as its own meta)."""
        cid = packet.class_id
        if not 0 <= cid < self.num_classes:
            raise SchedulingError(
                f"packet class {cid} out of range [0, {self.num_classes})"
            )
        arrived = packet.arrived_at
        size = packet.size
        if self.head_arrivals[cid] == inf:
            self.head_arrivals[cid] = arrived
        self.cols[cid].extend((arrived, size, packet))
        self.bytes_backlog[cid] += size
        self.total_packets += 1

    def pop(self, class_id: int) -> Packet:
        """Remove and return the head packet of ``class_id``."""
        col = self.cols[class_id]
        h = self.col_heads[class_id]
        if h >= len(col):
            raise SchedulingError(f"pop from empty class queue {class_id}")
        size = col[h + 1]
        meta = col[h + 2]
        packet = (
            meta
            if type(meta) is Packet
            else materialize_entry(class_id, col[h], size, meta)
        )
        h += 3
        if h == len(col):
            # Snap to zero on empty so float residue never leaks into
            # backlog-driven schedulers (BPR rates) or totals.
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
        if len(col) <= h:
            raise SchedulingError(f"pop_tail from empty class queue {class_id}")
        meta = col.pop()
        size = col.pop()
        arrived = col.pop()
        packet = (
            meta
            if type(meta) is Packet
            else materialize_entry(class_id, arrived, size, meta)
        )
        if len(col) == h:
            col.clear()
            self.col_heads[class_id] = 0
            self.bytes_backlog[class_id] = 0.0
            self.head_arrivals[class_id] = inf
        else:
            self.bytes_backlog[class_id] -= size
        self.total_packets -= 1
        return packet

    # ------------------------------------------------------------------
    def head(self, class_id: int) -> Optional[Packet]:
        """Head packet of ``class_id`` without removing it, or ``None``.

        A scalar head is materialized in place (written back into the
        column as its own meta) so repeated peeks return the same
        object.
        """
        col = self.cols[class_id]
        h = self.col_heads[class_id]
        if h >= len(col):
            return None
        meta = col[h + 2]
        if type(meta) is Packet:
            return meta
        packet = materialize_entry(class_id, col[h], col[h + 1], meta)
        col[h + 2] = packet
        return packet

    def backlog_packets(self, class_id: int) -> int:
        """Number of packets queued in ``class_id``."""
        return (len(self.cols[class_id]) - self.col_heads[class_id]) // 3

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

        Used by the invariant checker to hand the dispatch oracles the
        post-pop candidates of every class, once per checked dispatch,
        so :meth:`head` is inlined: a scalar head is materialized and
        written back in place.
        """
        heads: list[Optional[Packet]] = []
        col_heads = self.col_heads
        for cid, col in enumerate(self.cols):
            h = col_heads[cid]
            if h < len(col):
                meta = col[h + 2]
                if type(meta) is not Packet:
                    meta = materialize_entry(cid, col[h], col[h + 1], meta)
                    col[h + 2] = meta
                heads.append(meta)
            else:
                heads.append(None)
        return heads

    def backlogged_classes(self) -> Iterator[int]:
        """Yield the indices of classes with at least one queued packet."""
        cols = self.cols
        heads = self.col_heads
        for cid in range(self.num_classes):
            if len(cols[cid]) > heads[cid]:
                yield cid

    def __len__(self) -> int:
        return self.total_packets
