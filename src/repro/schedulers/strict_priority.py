"""Strict (static) priority scheduler -- Section 2.1's first alternative.

The highest backlogged class is always served first.  Differentiation is
predictable (higher classes never do worse) but *not controllable*:
there is no knob to set the quality spacing, and low classes can starve
under sustained high-class load.  Included as the baseline the
proportional model is defined against, and for the Cobham-formula
cross-checks in :mod:`repro.theory.priority`.
"""

from __future__ import annotations

from math import inf

from .base import Scheduler

__all__ = ["StrictPriorityScheduler"]


class StrictPriorityScheduler(Scheduler):
    """Always serve the highest backlogged class."""

    name = "strict"

    def choose_class(self, now: float) -> int:
        # Occupancy is read off head_arrivals (inf == empty), one flat
        # list the queue set keeps exact on every push and pop, rather
        # than the class columns.
        heads = self.queues.head_arrivals
        for cid in range(self.num_classes - 1, -1, -1):
            if heads[cid] != inf:
                return cid
        return -1  # unreachable: select() guards against empty backlog
