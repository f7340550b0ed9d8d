"""RED and RIO queue management -- completing the Assured Service model.

The paper's reference [6] (Clark & Fang) realizes Assured Service with
*RIO*: RED with In/Out drop preference.  RED (Floyd & Jacobson) drops
arrivals probabilistically as the EWMA queue length climbs between two
thresholds, keeping queues short and de-synchronizing flows; RIO runs
two RED instances -- a lenient one for in-profile ("In") packets and an
aggressive one, driven by the *total* queue, for out-of-profile ("Out")
packets -- so violations feel congestion first.

These droppers plug into :class:`repro.sim.link.Link` like any
:class:`~repro.dropping.base.DropPolicy`, but act *probabilistically on
arrivals* (choose_victim returns ``None`` to drop the arriving packet)
rather than picking queued victims, matching how RED is deployed.  Use
them with ``buffer_packets`` as the hard limit behind the thresholds.

Out-of-profile classification: a packet is "Out" when its class is in
``out_classes`` (compose with
:class:`repro.policing.token_bucket.AssuredMarker`, which demotes
violators into a designated class).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sim.packet import Packet
from ..sim.queues import ClassQueueSet
from .base import DropPolicy

__all__ = ["REDDropper", "RIODropper"]


class _RedCurve:
    """One RED instance: EWMA queue average + drop probability ramp."""

    def __init__(
        self,
        min_threshold: float,
        max_threshold: float,
        max_probability: float,
        weight: float,
    ) -> None:
        if not 0 < min_threshold < max_threshold:
            raise ConfigurationError(
                "need 0 < min_threshold < max_threshold"
            )
        if not 0 < max_probability <= 1:
            raise ConfigurationError("max_probability must be in (0, 1]")
        if not 0 < weight <= 1:
            raise ConfigurationError("EWMA weight must be in (0, 1]")
        self.min_threshold = float(min_threshold)
        self.max_threshold = float(max_threshold)
        self.max_probability = float(max_probability)
        self.weight = float(weight)
        self.average = 0.0

    def update(self, instantaneous_queue: float) -> None:
        self.average = (
            (1.0 - self.weight) * self.average
            + self.weight * instantaneous_queue
        )

    def drop_probability(self) -> float:
        if self.average < self.min_threshold:
            return 0.0
        if self.average >= self.max_threshold:
            return 1.0
        span = self.max_threshold - self.min_threshold
        return self.max_probability * (self.average - self.min_threshold) / span


class REDDropper(DropPolicy):
    """Classic single-curve RED over the total queue length (packets).

    Attach as a Link drop policy *and* note that RED decides on every
    arrival: install it with a generous ``buffer_packets`` hard limit
    and call :meth:`should_drop` implicitly via the Link overflow path
    only as the last resort.  For early (pre-overflow) dropping, wrap
    the link with :meth:`gate` as the source target.
    """

    def __init__(
        self,
        min_threshold: float = 5.0,
        max_threshold: float = 15.0,
        max_probability: float = 0.1,
        weight: float = 0.002,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.curve = _RedCurve(min_threshold, max_threshold,
                               max_probability, weight)
        self._rng = rng if rng is not None else np.random.default_rng()
        self.early_drops = 0
        self.forced_drops = 0
        self._queues: Optional[ClassQueueSet] = None

    # ------------------------------------------------------------------
    def on_arrival(self, class_id: int, now: float) -> None:
        if self._queues is not None:
            self.curve.update(self._queues.total_packets)

    def should_drop(self, queues: ClassQueueSet, packet: Packet) -> bool:
        """RED early-drop decision for an arriving packet."""
        self._queues = queues
        self.curve.update(queues.total_packets)
        if self._rng.random() < self.curve.drop_probability():
            self.early_drops += 1
            return True
        return False

    def choose_victim(
        self, queues: ClassQueueSet, class_id: int, now: float
    ) -> Optional[int]:
        # Hard-limit overflow: RED always sacrifices the arrival.
        self.forced_drops += 1
        return None


class RIODropper(REDDropper):
    """RED with In/Out: Out packets face an aggressive curve driven by
    the total queue; In packets a lenient curve driven by the In queue.
    """

    def __init__(
        self,
        out_classes: Sequence[int],
        in_curve: tuple[float, float, float] = (10.0, 30.0, 0.05),
        out_curve: tuple[float, float, float] = (3.0, 12.0, 0.3),
        weight: float = 0.002,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(*in_curve, weight=weight, rng=rng)
        self.out_classes = frozenset(int(c) for c in out_classes)
        if not self.out_classes:
            raise ConfigurationError("need at least one Out class")
        self.out_curve_instance = _RedCurve(*out_curve, weight=weight)
        self.in_drops = 0
        self.out_drops = 0

    def should_drop(self, queues: ClassQueueSet, packet: Packet) -> bool:
        self._queues = queues
        total = queues.total_packets
        in_packets = total - sum(
            queues.backlog_packets(c)
            for c in self.out_classes
            if c < queues.num_classes
        )
        self.curve.update(in_packets)
        self.out_curve_instance.update(total)
        if packet.class_id in self.out_classes:
            probability = self.out_curve_instance.drop_probability()
        else:
            probability = self.curve.drop_probability()
        if self._rng.random() < probability:
            self.early_drops += 1
            if packet.class_id in self.out_classes:
                self.out_drops += 1
            else:
                self.in_drops += 1
            return True
        return False


class REDGate:
    """Receiver wrapper applying RED's early-drop before a link.

    RED drops *arrivals* even when the buffer is not full; the plain
    Link only consults its policy on overflow.  The gate closes that
    gap: ``source -> REDGate(dropper, link) -> link``.
    """

    def __init__(self, dropper: REDDropper, link) -> None:
        self.dropper = dropper
        self.link = link
        self.admitted = 0
        self.dropped = 0

    def receive(self, packet: Packet) -> None:
        if self.dropper.should_drop(self.link.scheduler.queues, packet):
            self.dropped += 1
            return
        self.admitted += 1
        self.link.receive(packet)


__all__.append("REDGate")
