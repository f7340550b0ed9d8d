"""Adaptive WTP: feedback-controlled SDPs -- extension.

Plain WTP only *tends to* the proportional model as rho -> 1; at
moderate load the paper measures ratios of ~1.5 against a target of 2
(Figure 1).  Section 7 asks what an "optimal proportional
differentiation scheduler" would look like; one practical answer from
the follow-on literature is to close the loop: keep WTP's head-of-line
rule (its short-timescale behaviour is the best of the lot) but *adapt*
the effective SDPs so the measured long-run ratios land on target.

Controller: every ``adjustment_period`` served packets, compare each
class's measured normalized delay m_i = d_i / delta_i to the across-
class geometric mean m*.  Classes lagging their target (m_i > m*) get
their effective SDP raised multiplicatively, classes ahead get it
lowered:

    s_i  <-  s_i * (m_i / m*) ** gain,

clamped to ``max_drift`` around the nominal SDPs so a pathological
interval cannot destabilize the ordering.  With gain = 0 this is
exactly WTP.  Measured delays use an exponentially-weighted average so
the controller tracks load changes.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import ConfigurationError
from .base import Scheduler, validate_sdps

__all__ = ["AdaptiveWTPScheduler"]


class AdaptiveWTPScheduler(Scheduler):
    """WTP with multiplicative SDP feedback toward the DDP targets."""

    name = "adaptive-wtp"

    def __init__(
        self,
        sdps: Sequence[float],
        gain: float = 0.4,
        adjustment_period: int = 200,
        ewma_alpha: float = 0.02,
        max_drift: float = 8.0,
    ) -> None:
        self.nominal_sdps = validate_sdps(sdps)
        if not 0.0 <= gain <= 1.0:
            raise ConfigurationError(f"gain must be in [0, 1]: {gain}")
        if adjustment_period < 1:
            raise ConfigurationError("adjustment_period must be >= 1")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigurationError(f"ewma_alpha must be in (0, 1]: {ewma_alpha}")
        if max_drift < 1.0:
            raise ConfigurationError(f"max_drift must be >= 1: {max_drift}")
        super().__init__(len(self.nominal_sdps))
        self.gain = float(gain)
        self.adjustment_period = int(adjustment_period)
        self.ewma_alpha = float(ewma_alpha)
        self.max_drift = float(max_drift)
        self.effective_sdps = list(self.nominal_sdps)
        # Targets: delta_i proportional to 1 / s_i (Eq 13).
        self._inv_deltas = list(self.nominal_sdps)
        self._ewma_delay = [math.nan] * self.num_classes
        self._served_since_adjust = 0

    # ------------------------------------------------------------------
    def choose_class(self, now: float) -> int:
        best_class = -1
        best_priority = -1.0
        heads = self.queues.head_arrivals
        sdps = self.effective_sdps
        inf = math.inf
        for cid in range(self.num_classes - 1, -1, -1):
            arrived = heads[cid]
            if arrived == inf:
                continue
            priority = (now - arrived) * sdps[cid]
            if priority > best_priority:
                best_priority = priority
                best_class = cid
        return best_class

    def on_select(
        self, cid: int, arrived_at: float, size: float, meta, now: float
    ) -> None:
        delay = now - arrived_at
        previous = self._ewma_delay[cid]
        if math.isnan(previous):
            self._ewma_delay[cid] = delay
        else:
            alpha = self.ewma_alpha
            self._ewma_delay[cid] = (1.0 - alpha) * previous + alpha * delay
        self._served_since_adjust += 1
        if self._served_since_adjust >= self.adjustment_period:
            self._served_since_adjust = 0
            self._adjust()

    # ------------------------------------------------------------------
    def _adjust(self) -> None:
        """One controller step (see module docstring)."""
        normalized = []
        for cid in range(self.num_classes):
            delay = self._ewma_delay[cid]
            if math.isnan(delay) or delay <= 0.0:
                return  # not every class observed yet: hold
            normalized.append(delay * self._inv_deltas[cid])
        log_mean = sum(math.log(m) for m in normalized) / len(normalized)
        for cid, m in enumerate(normalized):
            factor = math.exp(self.gain * (math.log(m) - log_mean))
            proposed = self.effective_sdps[cid] * factor
            nominal = self.nominal_sdps[cid]
            low, high = nominal / self.max_drift, nominal * self.max_drift
            self.effective_sdps[cid] = min(max(proposed, low), high)

    def drift(self, class_id: int) -> float:
        """Effective / nominal SDP ratio (1.0 = no adaptation yet)."""
        return self.effective_sdps[class_id] / self.nominal_sdps[class_id]
