"""Scheduler interface.

A scheduler owns one FIFO per class (:class:`~repro.sim.queues.ClassQueueSet`)
and decides, whenever the output link becomes free, which class to serve
next.  Packets are never reordered within a class.

The contract with :class:`~repro.sim.link.Link`:

* ``enqueue(packet, now)`` -- a packet arrived at the queueing point.
* ``select(now)`` -- the link is idle and at least one packet is queued;
  pop and return the packet to transmit next.

Subclasses implement :meth:`choose_class`; ``select`` handles the pop and
bookkeeping.  ``num_classes`` follows the paper's convention: index 0 is
paper class 1, the *lowest* class (largest delay target).

Drain-kernel contract: every scheduler is *column-native*, so each
dispatch rule is written exactly once, in its class.  Each class FIFO
is one column of ``(arrived_at, size, meta)`` entries whose ``meta`` is
a ``Packet`` or an unmaterialized scalar identity (see
:mod:`repro.sim.queues`), and the link's drain kernels
(:mod:`repro.sim.link`) push and pop them inline, so:

* ``choose_class`` reads only state that is exact for any meta: the
  incrementally-maintained
  :attr:`~repro.sim.queues.ClassQueueSet.head_arrivals` keys (``+inf``
  for an empty class) and, where needed, ``bytes_backlog``.  A rule
  that needs more of the head packet reads it from the column head in
  place -- BPR and DRR the head size, SCFQ the packet id
  (:func:`~repro.sim.queues.meta_packet_id`).
* The hooks take scalars: ``on_enqueue(cid, size, meta, now)`` after a
  push and ``on_select(cid, arrived_at, size, meta, now)`` after a pop,
  where ``meta`` is a real ``Packet`` on the object path and a column
  meta otherwise.  ``enqueue``/``select`` (the evented reference) call
  them with the popped or pushed packet; the drain kernels inline the
  push/pop and call the same bound hooks, skipping a hook the class
  leaves as the base no-op.
* ``now`` is the event time the evented path would have used, and no
  scheduler may read ``Simulator.now`` or the link directly.

Float expressions and mutation order are therefore identical on every
path: golden runs and the drain-vs-event tests pin exact float
equality.  A class that overrides ``select`` or ``enqueue`` itself
opts out of the contract; its links run evented, like a link with the
invariant checker attached.

A scheduler that keeps both hooks as the base no-ops (WTP, quantized
WTP, FCFS, strict priority, additive) keeps no state between
decisions: its ``choose_class`` reads only the queues and constructor
constants.  At an empty queue set it is therefore in the same state
however it got there, which Table 1's idle-instant skip relies on
(:func:`~repro.network.multihop.run_multihop`).  A scheduler whose
decisions carry history (BPR's credits, PAD's and HPD's delay sums,
adaptive WTP's delay averages, DRR's deficits, SCFQ's finish tags)
updates it in a hook, and the skip leaves its runs alone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from ..errors import ConfigurationError, SchedulingError
from ..sim.packet import Packet
from ..sim.queues import ClassQueueSet

__all__ = ["Scheduler", "validate_sdps"]


def validate_sdps(sdps: Sequence[float]) -> tuple[float, ...]:
    """Validate scheduler differentiation parameters s1 < s2 < ... < sN.

    The paper orders SDPs strictly increasing with the class index
    (higher class => faster-growing priority / larger weight).  Returns
    the SDPs as an immutable tuple.
    """
    values = tuple(float(s) for s in sdps)
    if len(values) < 1:
        raise ConfigurationError("need at least one SDP")
    if any(s <= 0 for s in values):
        raise ConfigurationError(f"SDPs must be positive: {values}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigurationError(
            f"SDPs must be strictly increasing (s1 < ... < sN): {values}"
        )
    return values


class Scheduler(ABC):
    """Base class for all per-class packet schedulers."""

    #: Short machine-readable name, overridden by subclasses.
    name = "abstract"

    def __init__(self, num_classes: int) -> None:
        if num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        self.num_classes = num_classes
        self.queues = ClassQueueSet(num_classes)

    # ------------------------------------------------------------------
    # Link-facing API
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> None:
        """Accept an arriving packet into its class FIFO."""
        self.queues.push(packet)
        self.on_enqueue(packet.class_id, packet.size, packet, now)

    def select(self, now: float) -> Packet:
        """Pop and return the next packet to transmit."""
        queues = self.queues
        if not queues.total_packets:
            raise SchedulingError(f"{self.name}: select() with empty backlog")
        packet = queues.pop(self.choose_class(now))
        self.on_select(
            packet.class_id, packet.arrived_at, packet.size, packet, now
        )
        return packet

    @property
    def backlogged(self) -> bool:
        """True when at least one packet is queued."""
        return self.queues.total_packets != 0

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def choose_class(self, now: float) -> int:
        """Return the index of the backlogged class to serve next."""

    def on_enqueue(self, cid: int, size: float, meta, now: float) -> None:
        """Hook: called after a packet joined queue ``cid``."""

    def on_select(
        self, cid: int, arrived_at: float, size: float, meta, now: float
    ) -> None:
        """Hook: called after the head of queue ``cid`` was popped for
        service."""

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(num_classes={self.num_classes})"
