"""Proportional Average Delay (PAD) scheduler -- extension.

The paper closes asking for the form of an "optimal proportional
differentiation scheduler" that tracks the model whenever it is
feasible.  The authors' follow-on work answered with PAD: serve the
backlogged class whose *measured* normalized average delay lags most
behind its target, i.e. the class maximizing

    m_i(t) = (S_i + w_i(t)) / (n_i + 1) * s_i

where S_i / n_i is the running sum/count of queueing delays of class-i
packets already served at this hop, w_i(t) is the current head packet's
waiting time, and s_i = 1 / delta_i is the inverse DDP.  Because it
feeds back long-run averages, PAD keeps the long-term ratios on target
across *all* loads (including moderate ones where WTP undershoots), at
the cost of worse short-timescale behaviour -- a trade-off exercised in
the ablation benchmarks.
"""

from __future__ import annotations

from math import inf
from typing import Sequence

from .base import Scheduler, validate_sdps

__all__ = ["PADScheduler"]


class PADScheduler(Scheduler):
    """Serve the class with the largest normalized average delay."""

    name = "pad"

    def __init__(self, sdps: Sequence[float]) -> None:
        self.sdps = validate_sdps(sdps)
        super().__init__(len(self.sdps))
        self._delay_sums = [0.0] * self.num_classes
        self._delay_counts = [0] * self.num_classes

    def choose_class(self, now: float) -> int:
        best_class = -1
        best_metric = -inf
        heads = self.queues.head_arrivals
        sdps = self.sdps
        sums = self._delay_sums
        counts = self._delay_counts
        for cid in range(self.num_classes - 1, -1, -1):
            arrived = heads[cid]
            if arrived == inf:
                continue
            head_wait = now - arrived
            metric = (sums[cid] + head_wait) / (counts[cid] + 1) * sdps[cid]
            if metric > best_metric:
                best_metric = metric
                best_class = cid
        return best_class

    def on_select(
        self, cid: int, arrived_at: float, size: float, meta, now: float
    ) -> None:
        self._delay_sums[cid] += now - arrived_at
        self._delay_counts[cid] += 1

    def normalized_average(self, class_id: int) -> float:
        """Measured s_i * d_i so far (NaN before any departure)."""
        count = self._delay_counts[class_id]
        if not count:
            return float("nan")
        return self._delay_sums[class_id] / count * self.sdps[class_id]
