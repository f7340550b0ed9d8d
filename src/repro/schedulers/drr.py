"""Deficit Round Robin over classes -- second capacity baseline.

DRR (Shreedhar & Varghese 1995) serves backlogged classes in rounds;
each round a class's *deficit counter* grows by its quantum and it may
send packets while the counter covers them.  Long-run bandwidth shares
are proportional to the quanta, making DRR -- like SCFQ -- a
"capacity differentiation" discipline in the paper's Section 2.1
taxonomy: controllable bandwidth, uncontrollable delay.  It is included
because it is the cheapest (O(1)) fair queueing variant a router would
actually deploy, so it is the practically-relevant capacity baseline
for the scheduler shoot-out ablation.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError
from .base import Scheduler

__all__ = ["DRRScheduler"]


class DRRScheduler(Scheduler):
    """Deficit round robin with byte quanta proportional to weights."""

    name = "drr"

    def __init__(
        self, weights: Sequence[float], quantum_scale: float = 1500.0
    ) -> None:
        values = tuple(float(w) for w in weights)
        if not values:
            raise ConfigurationError("need at least one weight")
        if any(w <= 0 for w in values):
            raise ConfigurationError(f"weights must be positive: {values}")
        if quantum_scale <= 0:
            raise ConfigurationError(
                f"quantum_scale must be positive: {quantum_scale}"
            )
        self.weights = values
        super().__init__(len(values))
        # Quantum per round: scale the weights so the smallest class
        # still clears a maximum-size packet per round eventually.
        max_weight = max(values)
        self.quanta = tuple(w / max_weight * quantum_scale for w in values)
        self._deficits = [0.0] * self.num_classes
        self._round_cursor = 0
        #: Class currently holding the round (keeps its deficit while it
        #: still has coverable packets), or None between turns.
        self._active: int | None = None

    def choose_class(self, now: float) -> int:
        queues = self.queues
        cols = queues.cols
        cheads = queues.col_heads
        deficits = self._deficits
        # Continue the active class while its deficit covers its head.
        active = self._active
        if active is not None:
            # Head size, read in place from the class column, or None
            # for an emptied queue.
            col = cols[active]
            h = cheads[active]
            size = col[h + 1] if h < len(col) else None
            if size is not None and size <= deficits[active]:
                return active
            if size is None:
                # Served queue emptied: per DRR, its deficit resets.
                deficits[active] = 0.0
            self._active = None
        # Advance the round until some backlogged class can send.  With
        # a backlog (``select`` refuses an empty one) this terminates:
        # each round adds a positive quantum to every backlogged class,
        # so a head of any size is covered after ceil(size / quantum)
        # rounds.
        quanta = self.quanta
        num_classes = self.num_classes
        while True:
            cid = self._round_cursor
            self._round_cursor = (cid + 1) % num_classes
            col = cols[cid]
            h = cheads[cid]
            if h >= len(col):
                deficits[cid] = 0.0
                continue
            size = col[h + 1]
            deficits[cid] += quanta[cid]
            if size <= deficits[cid]:
                self._active = cid
                return cid

    def on_select(
        self, cid: int, arrived_at: float, size: float, meta, now: float
    ) -> None:
        self._deficits[cid] -= size
