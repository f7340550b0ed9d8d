"""Runtime invariant checking: the simulator as its own test oracle.

The paper's claims are statistical, so a silently broken scheduler or
kernel can pass unit tests while skewing every figure.  This subsystem
makes a run *self-checking*: an :class:`InvariantChecker` attaches to a
:class:`~repro.sim.link.Link` (and its scheduler) and verifies, while
the simulation executes,

* per-class FIFO ordering (dispatches always take the class head, in
  arrival order),
* event causality (no packet is dispatched before it arrived; service
  completions fire exactly one transmission time after service start;
  the event calendar's clock never moves backwards),
* work conservation (the server is busy whenever packets are queued,
  and each busy period transmits exactly ``capacity x duration`` bytes),
* losslessness of the default (unbounded-buffer) link,
* discipline-specific properties via a pluggable registry
  (:mod:`~repro.invariants.scheduler_checks`): WTP's priority-order
  rule at each dispatch, BPR's backlog-proportional rate allocation
  (Eqs 8-9), FCFS's oldest-first rule, strict priority's order.

Post-run, :func:`verify_conservation_law` checks Kleinrock's
conservation law (Eq 5) on the measured per-class delays.

Design: attaching *wraps bound methods on the instances* being checked
(``link.receive``, ``scheduler.select``, ``link._complete_service``)
and checked runs go through :meth:`repro.sim.engine.Simulator.run_checked`;
an unchecked run executes the exact original code paths, so disabling
checks costs exactly nothing.  Violations raise the structured
:class:`~repro.errors.InvariantViolation` naming the packet, class, and
simulation time.
"""

from .. import _lazy_exports

_EXPORTS = {
    ".checker": ("InvariantChecker", "InvariantReport"),
    ".conservation": ("verify_conservation_law",),
    ".scheduler_checks": (
        "register_scheduler_check",
        "registered_scheduler_checks",
        "scheduler_check_for",
    ),
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
