"""Proportional Loss Rate (PLR) droppers -- the future-work extension.

The proportional differentiation model applied to the *loss* metric:
with Loss Differentiation Parameters sigma_1 > sigma_2 > ... > sigma_N
(class 1 loses most), the target is

    l_i / l_j = sigma_i / sigma_j

for the class loss fractions l_i.  When a drop is needed, the dropper
removes a packet from the backlogged class whose *normalized* loss
fraction (l_i / sigma_i) is currently smallest -- the class furthest
below its proportional share -- which steers the ratios toward the
target, the loss-domain mirror of WTP's delay feedback.

Two estimators of l_i, following the authors' follow-on work:

* PLR(inf): loss fraction measured over the whole run
  (drops_i / arrivals_i since t=0).
* PLR(M): loss fraction over a sliding window of the last M arrivals,
  adapting to class-load changes at the cost of noisier estimates.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from ..errors import ConfigurationError
from ..sim.queues import ClassQueueSet
from .base import DropPolicy

__all__ = ["PLRDropper", "validate_ldps"]


def validate_ldps(ldps: Sequence[float]) -> tuple[float, ...]:
    """Validate loss differentiation parameters sigma_1 > ... > sigma_N > 0."""
    values = tuple(float(s) for s in ldps)
    if len(values) < 1:
        raise ConfigurationError("need at least one LDP")
    if any(s <= 0 for s in values):
        raise ConfigurationError(f"LDPs must be positive: {values}")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ConfigurationError(
            f"LDPs must be strictly decreasing (class 1 loses most): {values}"
        )
    return values


class PLRDropper(DropPolicy):
    """Drop from the class with the smallest normalized loss fraction.

    ``window`` selects the estimator: ``None`` gives PLR(inf); an
    integer M gives PLR(M) over the last M arrivals.
    """

    def __init__(self, ldps: Sequence[float], window: Optional[int] = None) -> None:
        self.ldps = validate_ldps(ldps)
        if window is not None and window < 1:
            raise ConfigurationError(f"window must be >= 1 when set: {window}")
        self.window = window
        num = len(self.ldps)
        self.arrivals = [0] * num
        self.drops = [0] * num
        # Sliding-window bookkeeping for PLR(M): (class_id, was_dropped).
        self._history: deque[list] = deque()
        self._win_arrivals = [0] * num
        self._win_drops = [0] * num

    # ------------------------------------------------------------------
    def on_arrival(self, class_id: int, now: float) -> None:
        self.arrivals[class_id] += 1
        if self.window is None:
            return
        record = [class_id, False]
        self._history.append(record)
        self._win_arrivals[class_id] += 1
        if len(self._history) > self.window:
            old_class, old_dropped = self._history.popleft()
            self._win_arrivals[old_class] -= 1
            if old_dropped:
                self._win_drops[old_class] -= 1

    def on_drop(self, class_id: int, now: float) -> None:
        self.drops[class_id] += 1
        if self.window is None:
            return
        # Attribute the drop to that class's most recent windowed arrival
        # not yet marked dropped (the victim is always a recent arrival).
        self._win_drops[class_id] += 1
        for record in reversed(self._history):
            if record[0] == class_id and not record[1]:
                record[1] = True
                break
        else:
            # Victim's arrival already slid out of the window; undo the
            # windowed count to keep it consistent.
            self._win_drops[class_id] -= 1

    # ------------------------------------------------------------------
    def loss_fraction(self, class_id: int) -> float:
        """Current loss-fraction estimate for a class (0 if no arrivals)."""
        if self.window is None:
            arrivals, drops = self.arrivals[class_id], self.drops[class_id]
        else:
            arrivals = self._win_arrivals[class_id]
            drops = self._win_drops[class_id]
        return drops / arrivals if arrivals else 0.0

    def choose_victim(
        self, queues: ClassQueueSet, class_id: int, now: float
    ) -> Optional[int]:
        best_class: Optional[int] = None
        best_metric = float("inf")
        for cid in queues.backlogged_classes():
            metric = self.loss_fraction(cid) / self.ldps[cid]
            if metric < best_metric:
                best_metric = metric
                best_class = cid
        # All queues empty (only possible if buffer limit < 1 packet of
        # backlog, i.e. never in practice): drop the arriving packet.
        return best_class

    def loss_ratios(self) -> list[float]:
        """l_i / l_{i+1} for successive classes (NaN when undefined)."""
        fractions = [
            self.drops[c] / self.arrivals[c] if self.arrivals[c] else float("nan")
            for c in range(len(self.ldps))
        ]
        out = []
        for a, b in zip(fractions, fractions[1:]):
            out.append(a / b if b else float("nan"))
        return out
