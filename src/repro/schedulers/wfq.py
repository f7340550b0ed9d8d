"""Class-based fair queueing -- the "capacity differentiation" baseline.

Section 2.1 argues that WFQ-style static bandwidth shares give
controllable *bandwidth* differentiation but not controllable *delay*
differentiation: delays at a bandwidth server depend on each class's
load and burstiness, so fixed weights cannot track load fluctuations.
This module provides that baseline so the claim can be demonstrated
(see the ablation benchmarks).

The implementation is Self-Clocked Fair Queueing (SCFQ, Golestani 1994)
over classes: packet k of class i gets the finish tag

    F_i^k = max(F_i^{k-1}, V(a)) + L / w_i

where V(a) is the finish tag of the packet in service when k arrives
(the "self-clocked" approximation of GPS virtual time), and the smallest
finish tag is served first.  SCFQ avoids the iterated-deletion machinery
of exact GPS virtual time while keeping the long-run weighted shares,
which is all this baseline must exhibit.  We name the class
``SCFQScheduler`` and alias it ``WFQScheduler`` with this caveat
documented.
"""

from __future__ import annotations

from math import inf
from typing import Sequence

from ..errors import ConfigurationError
from ..sim.queues import meta_packet_id
from .base import Scheduler

__all__ = [
    "SCFQScheduler",
    "WFQScheduler",
    "gps_fluid_rates",
]


class SCFQScheduler(Scheduler):
    """Self-clocked fair queueing across classes with static weights."""

    name = "scfq"

    def __init__(self, weights: Sequence[float]) -> None:
        values = tuple(float(w) for w in weights)
        if not values:
            raise ConfigurationError("need at least one weight")
        if any(w <= 0 for w in values):
            raise ConfigurationError(f"weights must be positive: {values}")
        self.weights = values
        super().__init__(len(values))
        self._finish_tags: dict[int, float] = {}
        self._last_class_finish = [0.0] * self.num_classes
        self._virtual_now = 0.0

    # ------------------------------------------------------------------
    def on_enqueue(self, cid: int, size: float, meta, now: float) -> None:
        start = max(self._last_class_finish[cid], self._virtual_now)
        finish = start + size / self.weights[cid]
        self._finish_tags[meta_packet_id(meta)] = finish
        self._last_class_finish[cid] = finish

    def choose_class(self, now: float) -> int:
        best_class = -1
        best_tag = inf
        queues = self.queues
        cols = queues.cols
        cheads = queues.col_heads
        tags = self._finish_tags
        for cid in range(self.num_classes - 1, -1, -1):
            # Head packet id, read in place from the class column.
            col = cols[cid]
            h = cheads[cid]
            if h >= len(col):
                continue
            tag = tags[meta_packet_id(col[h + 2])]
            if tag < best_tag:
                best_tag = tag
                best_class = cid
        return best_class

    def on_select(
        self, cid: int, arrived_at: float, size: float, meta, now: float
    ) -> None:
        # Self-clocking: virtual time jumps to the tag of the packet
        # entering service.
        self._virtual_now = self._finish_tags.pop(meta_packet_id(meta))
        if self.queues.is_empty():
            # System drained: reset virtual time so a new busy period
            # starts fresh (standard SCFQ housekeeping).
            self._virtual_now = 0.0
            self._last_class_finish = [0.0] * self.num_classes


#: Alias: this library's "WFQ" baseline is SCFQ over classes (see module
#: docstring for why the self-clocked variant suffices here).
WFQScheduler = SCFQScheduler


# ----------------------------------------------------------------------
# Fluid model (hybrid engine)
# ----------------------------------------------------------------------
def gps_fluid_rates(
    weights: Sequence[float],
    demands: Sequence[float],
    capacity: float,
) -> list[float]:
    """Per-class service rates of the fluid GPS server (water-filling).

    In the fluid limit every weighted fair queueing variant (GPS, and
    its packetized approximations SCFQ and DRR via quanta) serves a
    *backlogged* class at its weight share of the capacity left over by
    the classes that need less than their share.  The classic
    water-filling: repeatedly satisfy every class whose demand fits
    under its current share, remove it (consuming only its demand), and
    re-share the remainder among the rest.  The returned rate for a
    satisfied class is the share it held when it was satisfied (the
    rate *available* to it while briefly backlogged); for a saturated
    class it is its final share -- the rate guarantee of Mukherjee et
    al.'s DRR analysis.
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive: {capacity}")
    if len(weights) != len(demands):
        raise ConfigurationError("one demand per weight required")
    rates = [0.0] * len(weights)
    active = [i for i in range(len(weights)) if weights[i] > 0]
    cap = float(capacity)
    while active:
        total_w = sum(weights[i] for i in active)
        shares = {i: cap * weights[i] / total_w for i in active}
        satisfied = [i for i in active if demands[i] < shares[i]]
        if not satisfied:
            for i in active:
                rates[i] = shares[i]
            break
        for i in satisfied:
            rates[i] = shares[i]
            cap -= demands[i]
        active = [i for i in active if i not in satisfied]
    return rates
