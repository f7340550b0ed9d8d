"""ECN-reactive rate-adaptive source -- the paper's stability assumption.

Section 3 justifies the lossless, stable, high-utilization operating
regime by assuming "sources that react to the Explicit Congestion
Notification (ECN) bit, without requiring loss-induced congestion
control".  This module implements that closed loop so the assumption
can be *exercised* rather than postulated:

* :class:`ECNMarker` -- attached to a link, it marks departures whose
  hop experienced a queue above a threshold (packets queued at service
  start), the standard instantaneous-queue ECN policy.
* :class:`ECNSource` -- an AIMD-paced packet source: rate is cut
  multiplicatively when a recent packet was marked, and increased
  additively otherwise, between configurable floor and ceiling rates.

With a population of ECN sources the link settles near a target
utilization with bounded queues and zero losses -- the operating point
of every experiment in the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..sim.engine import Simulator
from ..sim.link import Link, Receiver
from ..sim.packet import Packet
from ..traffic.base import PacketSizeSampler
from ..traffic.source import PacketIdAllocator

__all__ = ["ECNMarker", "ECNSource"]


class ECNMarker:
    """Marks packets that saw a congested queue at their hop.

    Attach to a link with ``link.add_monitor(marker)``.  A departure is
    marked when the link's backlog at the packet's *service start*
    exceeded ``threshold_packets``; since the monitor runs at departure
    time, the backlog right now (still excluding the departed packet)
    is the closest observable proxy and is what real ECN AQMs use.
    Sources poll :meth:`consume_mark`.
    """

    def __init__(self, link: Link, threshold_packets: int) -> None:
        if threshold_packets < 1:
            raise ConfigurationError("threshold_packets must be >= 1")
        self.link = link
        self.threshold_packets = threshold_packets
        self.marked = 0
        self.seen = 0
        #: Pending mark flags per flow_id (None key = unattributed).
        self._pending: dict[Optional[int], bool] = {}

    def on_departure(
        self, packet_id, class_id, size, flow_id, delay, now
    ) -> None:
        self.seen += 1
        congested = self.link.backlog_packets >= self.threshold_packets
        if congested:
            self.marked += 1
            self._pending[flow_id] = True

    def consume_mark(self, flow_id: Optional[int]) -> bool:
        """True once per congestion signal for this flow since last poll."""
        return self._pending.pop(flow_id, False)

    @property
    def mark_fraction(self) -> float:
        """Fraction of departures marked so far."""
        return self.marked / self.seen if self.seen else 0.0


class ECNSource:
    """AIMD-paced source reacting to ECN marks instead of losses."""

    def __init__(
        self,
        sim: Simulator,
        target: Receiver,
        marker: ECNMarker,
        class_id: int,
        sizes: PacketSizeSampler,
        initial_rate: float,
        min_rate: float,
        max_rate: float,
        additive_increase: float,
        multiplicative_decrease: float = 0.5,
        flow_id: Optional[int] = None,
        ids: Optional[PacketIdAllocator] = None,
        jitter_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0 < min_rate <= initial_rate <= max_rate:
            raise ConfigurationError(
                "need 0 < min_rate <= initial_rate <= max_rate"
            )
        if additive_increase <= 0:
            raise ConfigurationError("additive_increase must be positive")
        if not 0 < multiplicative_decrease < 1:
            raise ConfigurationError(
                "multiplicative_decrease must be in (0, 1)"
            )
        self.sim = sim
        self.target = target
        self.marker = marker
        self.class_id = class_id
        self.sizes = sizes
        self.rate = float(initial_rate)          # bytes per time unit
        self.min_rate = float(min_rate)
        self.max_rate = float(max_rate)
        self.additive_increase = float(additive_increase)
        self.multiplicative_decrease = float(multiplicative_decrease)
        self.flow_id = flow_id
        self.ids = ids if ids is not None else PacketIdAllocator()
        self._jitter = jitter_rng
        self.packets_emitted = 0
        self.rate_history: list[tuple[float, float]] = []
        self._started = False

    def start(self) -> None:
        """Schedule the first emission.  Idempotent."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.sim.now + self._gap(), self._emit)

    def _gap(self) -> float:
        gap = self.sizes.mean / self.rate
        if self._jitter is not None:
            gap *= 0.5 + self._jitter.random()  # +-50% pacing jitter
        return gap

    def _emit(self) -> None:
        now = self.sim.now
        packet = Packet(
            packet_id=self.ids.next_id(),
            class_id=self.class_id,
            size=self.sizes.next_size(),
            created_at=now,
            flow_id=self.flow_id,
        )
        self.packets_emitted += 1
        self.target.receive(packet)
        # AIMD update on the congestion signal accumulated since the
        # last emission.
        if self.marker.consume_mark(self.flow_id):
            self.rate = max(
                self.min_rate, self.rate * self.multiplicative_decrease
            )
        else:
            self.rate = min(self.max_rate, self.rate + self.additive_increase)
        self.rate_history.append((now, self.rate))
        self.sim.schedule(now + self._gap(), self._emit)
