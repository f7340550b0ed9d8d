"""The runtime invariant checker attached to one link.

See the package docstring for the invariant catalogue.  The checker
observes three points of the forwarding path by replacing bound methods
*on the checked instances only*:

* ``link.receive``       -- arrivals; work-conservation on enqueue and
  busy-period bookkeeping,
* ``scheduler.select``   -- dispatches; per-class FIFO order, causality,
  and the discipline-specific check from
  :mod:`~repro.invariants.scheduler_checks`,
* ``link._complete_service`` -- departures; transmission-time causality,
  packet-conservation accounting, and end-of-busy-period work
  conservation.

Because the hooks are per-instance attribute overrides, a link without
a checker runs byte-identical code: zero overhead when disabled.
Violations raise :class:`~repro.errors.InvariantViolation` immediately
(fail-fast at the first inconsistent event, with packet/class/time
attached); the checker keeps only O(num_classes) state, so checking a
million-packet run costs memory-independent constant space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import InvariantViolation, SimulationError
from .scheduler_checks import scheduler_check_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.link import Link

__all__ = ["InvariantChecker", "InvariantReport"]


@dataclass
class InvariantReport:
    """What one checked run verified (JSON-able via :meth:`to_dict`).

    The arrival/dispatch/departure totals are derived from the link's
    own counters in :meth:`InvariantChecker.finalize` (every one of
    those events passed its checks -- a failure would have raised), so
    the hot path never touches the report.
    """

    arrivals: int = 0
    dispatches: int = 0
    departures: int = 0
    busy_periods: int = 0
    #: Name of the discipline-specific check applied at each dispatch,
    #: or ``None`` when only the generic invariants were verified.
    scheduler_check: Optional[str] = None
    #: Relative Eq 5 residual measured post-run (set by the caller via
    #: :func:`~repro.invariants.verify_conservation_law`), if checked.
    conservation_residual: Optional[float] = None

    def to_dict(self) -> dict:
        """Plain-JSON form, stored in cached worker summaries."""
        return {
            "checked": True,
            "arrivals": self.arrivals,
            "dispatches": self.dispatches,
            "departures": self.departures,
            "busy_periods": self.busy_periods,
            "scheduler_check": self.scheduler_check,
            "conservation_residual": self.conservation_residual,
        }


class InvariantChecker:
    """Attach runtime invariant verification to one link.

    Parameters
    ----------
    link:
        The :class:`~repro.sim.link.Link` to verify.  Its scheduler is
        checked through the same attachment.
    tolerance:
        Relative tolerance for float accounting identities (busy-period
        work conservation, transmission times).  The checker replicates
        the kernel's arithmetic, so the default is tight.
    """

    def __init__(self, link: "Link", tolerance: float = 1e-9) -> None:
        self.link = link
        self.scheduler = link.scheduler
        self.tolerance = tolerance
        self._dispatch_check = scheduler_check_for(link.scheduler)
        self._attached = False
        self._originals: dict[str, object] = {}
        # Counter offsets so a checker can attach to a link that already
        # carried traffic.
        self._arrivals0 = link.arrivals
        self._departures0 = link.departures
        self._drops0 = link.drops
        self._period_bytes0 = link.bytes_sent
        self._busy_since_floor: float | None = None
        n = link.scheduler.num_classes
        self._last_dispatch_arrival = [-math.inf] * n
        self.report = InvariantReport(
            scheduler_check=(
                link.scheduler.name if self._dispatch_check is not None else None
            )
        )

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self) -> "InvariantChecker":
        """Install the hooks; returns ``self`` for chaining.

        The wrappers inline every hot-path comparison (locals captured
        once here) so a passing check costs a handful of attribute
        loads per event; only the *failing* paths call out to the cold
        ``_raise_*`` helpers.
        """
        if self._attached:
            raise SimulationError("invariant checker is already attached")
        link = self.link
        scheduler = self.scheduler
        if link.scheduler is not scheduler:
            raise SimulationError(
                "link scheduler changed since the checker was constructed"
            )
        # The busy-period drain kernel would bypass the per-event hooks
        # installed below, so force the link fully evented first.  The
        # drain's own entry check also detects instance overrides, but
        # detaching feeders here keeps every arrival a real calendar
        # event from the moment the checker attaches.
        suspend = getattr(link, "suspend_drain", None)
        if suspend is not None:
            suspend()
        # Chain-fused drains couple *downstream* links into an upstream
        # link's drain; a chain that walked through this link before
        # the hooks existed must revalidate (its member guards check
        # for exactly these instance overrides).  Dropping this link's
        # own cache is immediate; upstream caches fail their guards on
        # the next drain entry and rebuild as blocked.
        if hasattr(link, "_chain_cache"):
            link._chain_cache = None
        # Scalar column entries a drain left queued stay scalar: the
        # dispatch checks read class heads through ``queues.heads()``,
        # which materializes each head in place when it is observed.
        # Attaching mid-busy-period: the bytes already sent this period
        # were never observed, so the end-of-period conservation check
        # must cover only the portion from the attach onward.  The
        # packet in flight counts its whole size in ``bytes_sent`` when
        # it completes, so the observed window opens at its service
        # start, not at the attach instant.
        self._period_bytes0 = link.bytes_sent
        self._busy_since_floor = None
        if link.busy:
            inflight = link._in_service
            self._busy_since_floor = (
                inflight.service_start if inflight is not None else link.sim.now
            )
        self._originals = {
            "receive": link.receive,
            "select": scheduler.select,
            "_complete_service": link._complete_service,
        }
        original_receive = link.receive
        original_select = scheduler.select
        original_complete = link._complete_service

        sim = link.sim
        queues = scheduler.queues
        capacity = link.capacity
        inv_capacity = 1.0 / capacity
        tolerance = self.tolerance
        report = self.report
        dispatch_check = self._dispatch_check
        last_dispatch_arrival = self._last_dispatch_arrival
        unbounded = link.buffer_packets is None
        arrivals0 = self._arrivals0
        departures0 = self._departures0
        drops0 = self._drops0

        def checked_receive(packet) -> None:
            was_busy = link.busy
            original_receive(packet)
            if not link.busy:
                # Work conservation, enqueue side: the server must
                # never sit idle with work queued.
                if queues.total_packets > 0 or link._in_service is not None:
                    self._raise_idle_with_backlog(packet)
            elif not was_busy:
                # A new busy period began with this arrival.
                self._period_bytes0 = link.bytes_sent
                self._busy_since_floor = None

        def checked_select(now: float):
            packet = original_select(now)
            cid = packet.class_id
            arrived = packet.arrived_at
            # Event causality: no dispatch before arrival; per-class
            # FIFO: dispatches leave each class in arrival order, and
            # the post-pop head must not be older than the dispatched
            # packet (a FIFO pop can only expose younger packets).
            if arrived > now:
                self._raise_dispatch_before_arrival(packet, now)
            if arrived < last_dispatch_arrival[cid]:
                self._raise_out_of_order_dispatch(packet, now)
            last_dispatch_arrival[cid] = arrived
            heads = queues.heads()
            head = heads[cid]
            if head is not None and head.arrived_at < arrived:
                self._raise_non_head_dispatch(packet, head, now)
            if dispatch_check is not None:
                dispatch_check(heads, now, packet)
            return packet

        def checked_complete(packet) -> None:
            now = sim.now
            expected = packet.service_start + packet.size * inv_capacity
            # Event causality: completions fire exactly one
            # transmission time after service start.
            if abs(now - expected) > tolerance * (
                expected if expected > 1.0 else 1.0
            ):
                self._raise_bad_completion_time(packet, now, expected)
            original_complete(packet)
            # Losslessness: arrivals = departures + drops + stored.  On
            # the default unbounded link drops must stay zero, so a
            # single identity covers both: a dropped packet is neither
            # stored nor departed and trips the comparison, and the cold
            # path re-derives which invariant actually broke.
            stored = queues.total_packets + (
                1 if link._in_service is not None else 0
            )
            if unbounded:
                if link.arrivals - arrivals0 != link.departures - departures0 + stored:
                    self._check_packet_conservation(sim_time=sim.now)
            elif (
                link.arrivals - arrivals0
                != link.departures - departures0 + (link.drops - drops0) + stored
            ):
                self._check_packet_conservation(sim_time=sim.now)
            if not link.busy:
                # Busy period ended: it must have transmitted exactly
                # capacity x duration bytes (work conservation).
                report.busy_periods += 1
                sent = link.bytes_sent - self._period_bytes0
                start = link._busy_since
                if self._busy_since_floor is not None:
                    # Period already in progress at attach: check the
                    # observed portion only.
                    start = self._busy_since_floor
                    self._busy_since_floor = None
                expected_bytes = (now - start) * capacity
                if abs(sent - expected_bytes) > tolerance * (
                    sent if sent > 1.0 else 1.0
                ):
                    self._raise_non_conserving_period(
                        packet, now, sent, expected_bytes
                    )

        link.receive = checked_receive
        scheduler.select = checked_select
        link._complete_service = checked_complete
        self._attached = True
        return self

    def detach(self) -> None:
        """Restore the original methods (no-op when not attached)."""
        if not self._attached:
            return
        # The originals are bound methods; deleting the instance
        # attribute would equally re-expose them, but restoring
        # explicitly keeps detach idempotent and obvious.
        self.link.receive = self._originals["receive"]
        self.scheduler.select = self._originals["select"]
        self.link._complete_service = self._originals["_complete_service"]
        self._originals = {}
        self._attached = False
        link = self.link
        if hasattr(link, "_chain_cache"):
            # While hooked, completions were scheduled by the evented
            # path, which does maintain _pending_key -- but clear it
            # anyway so a chain can never couple this link against a
            # key the checker era might have left stale; the link is
            # simply not coupled until it parks with a fresh mirror.
            link._chain_cache = None
            link._pending_key = None

    @property
    def attached(self) -> bool:
        return self._attached

    # ------------------------------------------------------------------
    # Cold paths: only reached when an invariant already failed
    # ------------------------------------------------------------------
    def _raise_idle_with_backlog(self, packet) -> None:
        raise InvariantViolation(
            "work-conservation",
            f"server idle with {self.link.backlog_packets} queued packet(s)",
            packet_id=packet.packet_id,
            class_id=packet.class_id,
            sim_time=self.link.sim.now,
        )

    def _raise_dispatch_before_arrival(self, packet, now: float) -> None:
        raise InvariantViolation(
            "event-causality",
            f"dispatched before arrival: arrived_at={packet.arrived_at} "
            f"> now={now}",
            packet_id=packet.packet_id,
            class_id=packet.class_id,
            sim_time=now,
        )

    def _raise_non_head_dispatch(self, packet, head, now: float) -> None:
        raise InvariantViolation(
            "class-fifo",
            "dispatched a packet that was not its class head: packet "
            f"{head.packet_id} (arrived {head.arrived_at:.6g}) is still "
            f"queued ahead of it",
            packet_id=packet.packet_id,
            class_id=packet.class_id,
            sim_time=now,
        )

    def _raise_out_of_order_dispatch(self, packet, now: float) -> None:
        raise InvariantViolation(
            "class-fifo",
            f"class {packet.class_id} dispatched out of arrival order: "
            f"{packet.arrived_at} after "
            f"{self._last_dispatch_arrival[packet.class_id]}",
            packet_id=packet.packet_id,
            class_id=packet.class_id,
            sim_time=now,
        )

    def _raise_bad_completion_time(
        self, packet, now: float, expected: float
    ) -> None:
        raise InvariantViolation(
            "event-causality",
            f"service completed at {now} but started at "
            f"{packet.service_start} with transmission time "
            f"{packet.size / self.link.capacity:.9g} "
            f"(expected completion {expected:.9g})",
            packet_id=packet.packet_id,
            class_id=packet.class_id,
            sim_time=now,
        )

    def _raise_non_conserving_period(
        self, packet, now: float, sent: float, expected: float
    ) -> None:
        raise InvariantViolation(
            "work-conservation",
            f"busy period of {now - self.link.busy_since:.9g} time units "
            f"transmitted {sent:.9g} bytes; a work-conserving server at "
            f"rate {self.link.capacity:.9g} transmits {expected:.9g}",
            packet_id=packet.packet_id,
            class_id=packet.class_id,
            sim_time=now,
        )

    def _check_packet_conservation(self, sim_time: float) -> None:
        """Arrivals = departures + drops + queued + in service."""
        link = self.link
        arrivals = link.arrivals - self._arrivals0
        departures = link.departures - self._departures0
        drops = link.drops - self._drops0
        stored = link.backlog_packets + (1 if link.in_service is not None else 0)
        if link.buffer_packets is None and drops:
            raise InvariantViolation(
                "losslessness",
                f"unbounded-buffer link dropped {drops} packet(s)",
                sim_time=sim_time,
            )
        if arrivals != departures + drops + stored:
            raise InvariantViolation(
                "losslessness",
                f"packet conservation broken: {arrivals} arrivals != "
                f"{departures} departures + {drops} drops + {stored} stored",
                sim_time=sim_time,
            )

    # ------------------------------------------------------------------
    # Post-run
    # ------------------------------------------------------------------
    def finalize(self) -> InvariantReport:
        """End-of-run audit; returns the report of what was verified.

        Re-verifies packet conservation and cross-checks the queue
        accounting (packet counts and byte backlogs against the class
        columns' live entries -- an O(backlog) scan done once).
        """
        link = self.link
        report = self.report
        report.arrivals = link.arrivals - self._arrivals0
        report.departures = link.departures - self._departures0
        report.dispatches = report.departures + (
            1 if link.in_service is not None else 0
        )
        self._check_packet_conservation(sim_time=link.sim.now)
        queues = self.scheduler.queues
        # Each live entry is (arrived_at, size, meta): the recount reads
        # the columns, never the counters it checks.
        columns = [
            col[head:] for col, head in zip(queues.cols, queues.col_heads)
        ]
        actual_packets = sum(len(col) // 3 for col in columns)
        if actual_packets != queues.total_packets:
            raise InvariantViolation(
                "losslessness",
                f"queue accounting broken: counter says "
                f"{queues.total_packets} packets, queues hold "
                f"{actual_packets}",
                sim_time=link.sim.now,
            )
        for cid, col in enumerate(columns):
            actual_bytes = sum(col[1::3])
            recorded = queues.bytes_backlog[cid]
            if abs(recorded - actual_bytes) > max(1e-6, 1e-9 * actual_bytes):
                raise InvariantViolation(
                    "losslessness",
                    f"byte-backlog accounting broken for class {cid}: "
                    f"counter {recorded:.9g}, queue holds {actual_bytes:.9g}",
                    class_id=cid,
                    sim_time=link.sim.now,
                )
        return self.report
