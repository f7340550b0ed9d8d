"""Waiting-Time Priority (WTP) scheduler -- Section 4.2.

Kleinrock's Time-Dependent-Priorities discipline (1964): the priority of
the head packet of class i at time t is

    p_i(t) = w_i(t) * s_i                                   (Eq 11)

where w_i(t) is the packet's waiting time at this hop and s_i is the
class's Scheduler Differentiation Parameter, s_1 < s_2 < ... < s_N.  The
backlogged class with the highest priority is served; ties go to the
higher class.

The paper's central empirical result is that in heavy load WTP
approximates proportional delay differentiation with DDP ratios equal to
the *inverse* SDP ratios, d_i/d_j -> s_j/s_i (Eq 13), and that it does so
even over monitoring timescales of tens of packet transmission times.

Complexity per selection is O(N); packets must be timestamped on
arrival (the simulator timestamps every packet anyway).
"""

from __future__ import annotations

from typing import Sequence

from .base import Scheduler, validate_sdps

__all__ = ["WTPScheduler"]


class WTPScheduler(Scheduler):
    """Waiting-time priority over per-class FIFOs."""

    name = "wtp"

    def __init__(self, sdps: Sequence[float]) -> None:
        self.sdps = validate_sdps(sdps)
        super().__init__(len(self.sdps))
        # High-class -> low-class (class id, SDP) pairs, precomputed so
        # the selection loop needs one list index per class.
        self._scan = tuple(
            (cid, self.sdps[cid])
            for cid in range(len(self.sdps) - 1, -1, -1)
        )
        # The paper's canonical configuration is four classes; unroll
        # that scan into straight-line code (same float expressions,
        # same comparison order, so selections stay bit-identical) --
        # choose_class runs once per departure and dominates the
        # columnar drain's remaining per-packet cost.
        self._four = len(self.sdps) == 4
        if self._four:
            self._s0, self._s1, self._s2, self._s3 = self.sdps

    def choose_class(self, now: float) -> int:
        # Scan the incrementally-maintained head-arrival keys instead of
        # dereferencing column heads: same float expression, so
        # selections are bit-identical to the per-packet form.  An empty
        # class has ``head == +inf`` and yields ``-inf``, which never
        # beats a real priority (``>= 0``).  High class -> low class so
        # ties resolve to the higher class with a strict comparison.
        heads = self.queues.head_arrivals
        if self._four:
            best_class = -1
            best_priority = -1.0
            priority = (now - heads[3]) * self._s3
            if priority > best_priority:
                best_priority = priority
                best_class = 3
            priority = (now - heads[2]) * self._s2
            if priority > best_priority:
                best_priority = priority
                best_class = 2
            priority = (now - heads[1]) * self._s1
            if priority > best_priority:
                best_priority = priority
                best_class = 1
            if (now - heads[0]) * self._s0 > best_priority:
                best_class = 0
            return best_class
        best_class = -1
        best_priority = -1.0
        for cid, sdp in self._scan:
            priority = (now - heads[cid]) * sdp
            if priority > best_priority:
                best_priority = priority
                best_class = cid
        return best_class
