"""Discrete-event simulation kernel.

A deliberately small, fast core: a binary-heap calendar of plain
``(time, seq, callback, payload)`` tuples and a run loop.  All
higher-level machinery (links, sources, monitors, network nodes) is
built out of callbacks scheduled here.

Design notes
------------
* Time is a ``float`` in arbitrary units (see :mod:`repro.units`).
* Events scheduled for the same instant fire in insertion order, which
  makes runs deterministic given deterministic callbacks and seeds.
* Heap entries are tuples, not objects: ``(time, seq)`` is unique per
  event, so heap comparisons stay in C and never reach the callback.
  This is the kernel's hottest path -- a simulation run is essentially
  one ``heappush``/``heappop`` pair per event.
* Cancellation needs identity, which tuples cannot give, so only
  :meth:`Simulator.schedule_cancellable` allocates an
  :class:`~repro.sim.events.EventHandle` facade; the heap entry then
  carries the handle in its payload slot behind a private sentinel.
  Cancellation stays lazy: cancelled handles remain in the heap and
  are skipped when popped, so cancel is O(1).
* Runtime verification lives in a *separate* loop,
  :meth:`Simulator.run_checked`, which the invariant subsystem
  (:mod:`repro.invariants`) drives; :meth:`Simulator.run` itself never
  pays for checks it does not perform.

Run-loop re-entry contract (inline fusion loops)
------------------------------------------------
A dispatched callback may itself process further events *inline*
without returning to the run loop: the link's busy-period drain (and
its chain-fused generalization over several coupled links, see
:mod:`repro.sim.link`) and the arrival cursor's batch injection
(:mod:`repro.traffic.compile`).  The contract such a loop must keep is
exactly what the run loop itself guarantees between dispatches:

* ``now`` only moves forward, and never past :attr:`_run_until`;
* an inline ("virtual") event may be processed only when its
  ``(time, seq)`` key precedes every live heap entry, and each
  ``_seq`` reservation happens exactly where an evented execution
  would have called :meth:`schedule`;
* on return, the heap holds precisely the events an evented execution
  would hold -- mirrored entries that were absorbed (popped at
  heap-min) are pushed back with identical keys when still pending.

Under that contract the calendar is bit-identical to an evented run at
every re-entry; the only observable difference is
:attr:`events_processed`, which counts real dispatches only.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from ..errors import InvariantViolation, SimulationError
from .events import EventHandle

__all__ = ["Simulator"]

#: Marks heap entries whose payload slot holds an :class:`EventHandle`
#: (the cancellable slow path) instead of a plain callback payload.
_CANCELLABLE: Any = object()


class Simulator:
    """Event calendar plus current-time clock.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, fired.append, "a")
    >>> sim.schedule(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    __slots__ = (
        "_heap",
        "_seq",
        "now",
        "_running",
        "_events_processed",
        "_run_until",
        "_links",
        "_topo_version",
    )

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any, Any]] = []
        self._seq = 0
        #: Current simulation time.
        self.now = 0.0
        self._running = False
        self._events_processed = 0
        #: Every :class:`~repro.sim.link.Link` built on this simulator,
        #: in construction order.  The chain-fused drain kernel scans it
        #: to discover *upstream* fan-in members (links whose target
        #: resolves into an already-walked chain member) -- a downstream
        #: BFS alone cannot see them.
        self._links: list[Any] = []
        #: Monotonic topology revision.  Bumped whenever the link graph
        #: changes shape in a way cached chain walks cannot observe
        #: through their own guards: a new link is built, a link's
        #: ``target`` is rebound, a feeder/cursor attaches or detaches,
        #: or a routed network rewires a route.  Links stamp the version
        #: into their cached chain and rebuild when it moves, closing
        #: the stale-fusion gap for *upstream-side* edits (a cached
        #: ``_chain_fuse=False`` decision used to never revalidate).
        self._topo_version = 0
        #: Horizon of the active :meth:`run`/:meth:`run_checked` call
        #: (``+inf`` outside a bounded run).  Inline event-fusion loops
        #: -- the link's busy-period drain kernel and the arrival
        #: cursor's batch injection -- read this so they never advance
        #: the clock past the horizon the caller asked for.
        self._run_until = math.inf

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        payload: Any = None,
    ) -> None:
        """Schedule ``callback`` at absolute ``time`` (fast path).

        ``payload`` (if not ``None``) is passed as the single positional
        argument.  The event cannot be cancelled; use
        :meth:`schedule_cancellable` when cancellation is needed.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback, payload))
        self._seq += 1

    def schedule_cancellable(
        self,
        time: float,
        callback: Callable[..., None],
        payload: Any = None,
    ) -> EventHandle:
        """Schedule ``callback`` at ``time``; returns a cancellable handle."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        handle = EventHandle(time, self._seq, callback, payload)
        heapq.heappush(self._heap, (time, self._seq, _CANCELLABLE, handle))
        self._seq += 1
        return handle

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        payload: Any = None,
    ) -> None:
        """Schedule ``callback`` after a relative ``delay >= 0``."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.schedule(self.now + delay, callback, payload)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _, callback, payload = heapq.heappop(heap)
            if callback is _CANCELLABLE:
                callback = payload.callback
                if callback is None:  # cancelled
                    continue
                payload = payload.payload
            self.now = time
            self._events_processed += 1
            if payload is None:
                callback()
            else:
                callback(payload)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or ``until`` is reached.

        When ``until`` is given, every event with ``time <= until`` is
        fired and the clock is left at ``until`` (even if the last event
        fired earlier), mirroring classic DES semantics so that
        rate/interval statistics cover the full horizon.  Running to a
        horizon already in the past is rejected.

        The hybrid fluid/packet engine (:mod:`repro.sim.hybrid`) does not
        come through here: its controller runs each packet segment on a
        fresh Simulator of its own.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run to a horizon in the past: {until} < now={self.now}"
            )
        self._running = True
        self._run_until = math.inf if until is None else until
        # The fired-event count accumulates in a local and is flushed
        # once on exit: one C-level integer add per event instead of a
        # slot load/store pair on the hottest loop in the codebase.
        processed = 0
        try:
            heap = self._heap
            pop = heapq.heappop
            if until is None:
                while heap:
                    time, _, callback, payload = pop(heap)
                    if callback is _CANCELLABLE:
                        callback = payload.callback
                        if callback is None:
                            continue
                        payload = payload.payload
                    self.now = time
                    processed += 1
                    if payload is None:
                        callback()
                    else:
                        callback(payload)
                return
            while heap:
                time = heap[0][0]
                if time > until:
                    break
                _, _, callback, payload = pop(heap)
                if callback is _CANCELLABLE:
                    callback = payload.callback
                    if callback is None:
                        continue
                    payload = payload.payload
                self.now = time
                processed += 1
                if payload is None:
                    callback()
                else:
                    callback(payload)
            if until > self.now:
                self.now = until
        finally:
            self._events_processed += processed
            self._running = False
            self._run_until = math.inf

    def run_checked(
        self,
        until: Optional[float] = None,
        on_event: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Like :meth:`run`, but with kernel-level invariant checks.

        The invariant-checking subsystem (:mod:`repro.invariants`) runs
        simulations through this entry point instead of :meth:`run`, so
        the unchecked hot loop carries *zero* extra work when checks are
        disabled.  Per event this loop additionally verifies event
        causality at the calendar level -- the clock never moves
        backwards, even if a callback tampered with ``now`` -- and
        reports each dispatch to the optional ``on_event(now)`` hook.

        Raises :class:`~repro.errors.InvariantViolation` on a time
        regression, with the offending event time attached.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run to a horizon in the past: {until} < now={self.now}"
            )
        self._running = True
        self._run_until = math.inf if until is None else until
        try:
            heap = self._heap
            pop = heapq.heappop
            while heap:
                time = heap[0][0]
                if until is not None and time > until:
                    break
                if time < self.now:
                    raise InvariantViolation(
                        "event-causality",
                        f"event calendar time regression: next event at "
                        f"{time} but clock already at {self.now}",
                        sim_time=self.now,
                    )
                _, _, callback, payload = pop(heap)
                if callback is _CANCELLABLE:
                    callback = payload.callback
                    if callback is None:
                        continue
                    payload = payload.payload
                self.now = time
                self._events_processed += 1
                if payload is None:
                    callback()
                else:
                    callback(payload)
                if on_event is not None:
                    on_event(time)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            self._run_until = math.inf

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of heap entries, including cancelled ones."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the heap is empty."""
        key = self.peek_key()
        return key[0] if key is not None else None

    def peek_key(self) -> Optional[tuple[float, int]]:
        """``(time, seq)`` of the next live event, or ``None`` if none.

        Events at the same instant fire in ``seq`` order, so this key is
        the calendar's full ordering: an inline event-fusion loop (the
        link drain kernel) may process any virtual event whose
        ``(time, seq)`` precedes it without reordering history.
        Cancelled heap heads are discarded as a side effect, exactly as
        the run loop would skip them.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is _CANCELLABLE and entry[3].callback is None:
                heapq.heappop(heap)
                continue
            return entry[0], entry[1]
        return None
