"""Additive delay differentiation scheduler -- Section 2.1, Eq 3.

A priority scheduler whose head-of-line priority is

    p_i(t) = w_i(t) + s_i

with constant offsets 0 <= s_1 < s_2 < ... < s_N.  In heavy load it
tends to *additive* spacing between class average delays,

    d_i - d_j -> D_ij = s_j - s_i      (i < j),

the alternative relative-differentiation model the paper mentions as
deserving further study (citing [15, 16]).  Implemented here so the
additive-vs-proportional comparison can be run as an ablation.
"""

from __future__ import annotations

from math import inf
from typing import Sequence

from ..errors import ConfigurationError
from .base import Scheduler

__all__ = ["AdditiveDelayScheduler"]


class AdditiveDelayScheduler(Scheduler):
    """Head-of-line priority w_i(t) + s_i with constant class offsets."""

    name = "additive"

    def __init__(self, offsets: Sequence[float]) -> None:
        values = tuple(float(s) for s in offsets)
        if not values:
            raise ConfigurationError("need at least one offset")
        if any(s < 0 for s in values):
            raise ConfigurationError(f"offsets must be non-negative: {values}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigurationError(
                f"offsets must be strictly increasing: {values}"
            )
        self.offsets = values
        super().__init__(len(values))

    def choose_class(self, now: float) -> int:
        best_class = -1
        best_priority = float("-inf")
        # Head waiting times come from the incrementally-maintained
        # head_arrivals timestamps (inf == empty class), never the
        # column entries, so scalar and Packet metas schedule
        # identically.
        heads = self.queues.head_arrivals
        offsets = self.offsets
        for cid in range(self.num_classes - 1, -1, -1):
            arrived = heads[cid]
            if arrived == inf:
                continue
            priority = (now - arrived) + offsets[cid]
            if priority > best_priority:
                best_priority = priority
                best_class = cid
        return best_class
