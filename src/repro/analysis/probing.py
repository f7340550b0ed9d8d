"""Active probing: estimate class delays the way a user would.

Section 6 frames evaluation from the user's side: inject your own
packets and look at what they experience.  :class:`ProbeInjector`
does this at a queueing point: one low-rate periodic probe stream per
class, tagged with reserved flow ids, whose measured delays estimate
the class delays *without access to the router's internal monitors*.
This is the practical tool behind the paper's "user experiments", and
the probe-vs-ground-truth comparison quantifies how well low-rate
active measurement tracks the true differentiation.

The probe load is real load; keep the probe period large relative to
the packet transmission time so the estimate does not perturb what it
measures (the default adds well under 1% load).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..errors import ConfigurationError
from ..sim.engine import Simulator
from ..sim.link import Receiver
from ..sim.packet import Packet

__all__ = ["ProbeInjector"]

#: Flow-id namespace for probes (kept away from user flows).
PROBE_FLOW_BASE = 900_000_000


class ProbeInjector:
    """Periodic per-class probes plus a delay estimator over them."""

    def __init__(
        self,
        sim: Simulator,
        target: Receiver,
        num_classes: int,
        period: float,
        probe_size: float = 40.0,
        start_time: float = 0.0,
        stagger: Optional[float] = None,
    ) -> None:
        if num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        if period <= 0 or probe_size <= 0:
            raise ConfigurationError("period and probe_size must be positive")
        self.sim = sim
        self.target = target
        self.num_classes = num_classes
        self.period = period
        self.probe_size = probe_size
        self.start_time = start_time
        #: Offset between successive classes' probes (avoids aligned
        #: bursts of probes); defaults to an even spread over the period.
        self.stagger = (
            stagger if stagger is not None else period / num_classes
        )
        self._sent = 0
        #: Per class: list of probe queueing delays, appended by
        #: :meth:`on_departure` (attach the injector as a link monitor).
        self.probe_delays: list[list[float]] = [[] for _ in range(num_classes)]
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first probe of every class.  Idempotent."""
        if self._started:
            return
        self._started = True
        for class_id in range(self.num_classes):
            self.sim.schedule(
                self.start_time + self.period + class_id * self.stagger,
                self._emit,
                class_id,
            )

    def _emit(self, class_id: int) -> None:
        probe = Packet(
            packet_id=PROBE_FLOW_BASE + self._sent,
            class_id=class_id,
            size=self.probe_size,
            created_at=self.sim.now,
            flow_id=PROBE_FLOW_BASE + class_id,
        )
        self._sent += 1
        self.target.receive(probe)
        self.sim.schedule(self.sim.now + self.period, self._emit, class_id)

    # ------------------------------------------------------------------
    # Link-monitor interface: collect the probes' own delays.
    # ------------------------------------------------------------------
    def on_departure(
        self, packet_id, class_id, size, flow_id, delay, now
    ) -> None:
        if flow_id is None or not (
            PROBE_FLOW_BASE <= flow_id < PROBE_FLOW_BASE + self.num_classes
        ):
            return
        self.probe_delays[flow_id - PROBE_FLOW_BASE].append(delay)

    # ------------------------------------------------------------------
    def probes_sent(self) -> int:
        return self._sent

    def estimated_delays(self) -> list[float]:
        """Per-class mean probe delay (NaN for classes with no probes)."""
        return [
            sum(delays) / len(delays) if delays else math.nan
            for delays in self.probe_delays
        ]

    def estimated_ratios(self) -> list[float]:
        """Successive-class delay ratios as seen by the probes."""
        means = self.estimated_delays()
        out = []
        for a, b in zip(means, means[1:]):
            out.append(a / b if b and not math.isnan(b) else math.nan)
        return out

    def offered_probe_load(self) -> float:
        """Probe bytes per time unit added to the link."""
        return self.num_classes * self.probe_size / self.period
