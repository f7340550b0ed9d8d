"""Drop-policy interface for lossy links (extension).

The paper's schedulers run lossless (Section 3's ECN-stable regime);
coupled delay *and loss* differentiation is explicitly left as future
work.  This subpackage builds that direction: a :class:`DropPolicy`
decides, when a bounded buffer overflows, which class loses a packet.

Contract with :class:`repro.sim.link.Link`, in scalars -- a policy
never sees a ``Packet``, so a drained link queues its arrivals as
columns whether it is lossy or not:

* ``on_arrival(class_id, now)`` -- every arrival (kept or not), so the
  policy can maintain per-class loss *fractions*.
* ``choose_victim(queues, class_id, now)`` -- buffer is full for an
  arrival of ``class_id``; return the class to drop from (its queue
  tail is removed) or ``None`` to drop the arriving packet itself.
  ``queues`` is the link's :class:`~repro.sim.queues.ClassQueueSet`,
  with its counters current.
* ``on_drop(class_id, now)`` -- a packet of that class was dropped.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ..sim.queues import ClassQueueSet

__all__ = ["DropPolicy"]


class DropPolicy(ABC):
    """Chooses loss victims when a bounded buffer overflows."""

    def on_arrival(self, class_id: int, now: float) -> None:
        """Hook: a packet of ``class_id`` arrived at the link."""

    @abstractmethod
    def choose_victim(
        self, queues: ClassQueueSet, class_id: int, now: float
    ) -> Optional[int]:
        """Class to drop from (must be backlogged), or ``None`` for the
        arriving packet, of class ``class_id``."""

    def on_drop(self, class_id: int, now: float) -> None:
        """Hook: a packet of ``class_id`` was dropped."""
