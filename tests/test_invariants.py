"""Tests of the runtime invariant-checking subsystem.

Three angles:

* *Transparency*: a checked run produces bit-identical measurements to
  an unchecked run, and a link that never had a checker attached runs
  the original class methods (zero overhead when disabled).
* *Sensitivity*: deliberately broken schedulers (inverted WTP
  priorities, equal-split BPR rates, inverted strict priority) and
  tampered kernel state (stolen packets, forged byte counters, idle
  servers with backlog, calendar time regressions) each trigger
  :class:`~repro.errors.InvariantViolation` naming the violated
  invariant.
* *Unit behaviour*: the scheduler-check registry and the Eq 5
  conservation-law verifier.
"""

from __future__ import annotations

import heapq
import math

import pytest

from repro.errors import InvariantViolation, SimulationError
from repro.experiments.common import (
    SingleHopConfig,
    generate_trace,
    replay_through_scheduler,
)
from repro.invariants import (
    InvariantChecker,
    register_scheduler_check,
    registered_scheduler_checks,
    scheduler_check_for,
    verify_conservation_law,
)
from repro.invariants import scheduler_checks as _checks_module
from repro.schedulers import make_scheduler
from repro.schedulers.bpr import BPRScheduler
from repro.schedulers.strict_priority import StrictPriorityScheduler
from repro.schedulers.wtp import WTPScheduler
from repro.sim import Link, PacketSink, Simulator
from repro.traffic.trace import TraceSource

from .conftest import make_packet

SDPS = (1.0, 2.0, 4.0, 8.0)


def small_config(scheduler: str = "wtp", **overrides) -> SingleHopConfig:
    """A Figure 1/2-style run shrunk to tier-1 test size."""
    settings = dict(
        scheduler=scheduler,
        sdps=SDPS,
        utilization=0.9,
        horizon=3e4,
        warmup=2e3,
        seed=42,
    )
    settings.update(overrides)
    return SingleHopConfig(**settings)


# ----------------------------------------------------------------------
# Deliberately broken schedulers.  Each keeps its parent's ``name`` so
# the registry applies the real discipline's contract to the impostor.
# ----------------------------------------------------------------------
class InvertedWTP(WTPScheduler):
    """Serves the *minimum*-priority head instead of the maximum."""

    def choose_class(self, now: float) -> int:
        best_class = -1
        best_priority = math.inf
        for cid in range(self.num_classes):
            queue = self.queues.queues[cid]
            if not queue:
                continue
            priority = (now - queue[0].arrived_at) * self.sdps[cid]
            if priority < best_priority:
                best_priority = priority
                best_class = cid
        return best_class


class EqualSplitBPR(BPRScheduler):
    """Ignores backlogs: splits capacity evenly instead of Eq 8."""

    def _recompute_rates(self) -> None:
        share = self.capacity / self.num_classes
        for cid in range(self.num_classes):
            self._rates[cid] = share


class InvertedStrictPriority(StrictPriorityScheduler):
    """Serves the *lowest* backlogged class."""

    def choose_class(self, now: float) -> int:
        for cid in range(self.num_classes):
            if self.queues.queues[cid]:
                return cid
        return -1


class UnregisteredTailWTP(WTPScheduler):
    """WTP that pops queue *tails*, under a name with no dispatch check,
    so only the generic per-class FIFO invariant can catch it."""

    name = "tail-popping-wtp"

    def select(self, now: float):
        class_id = self.choose_class(now)
        packet = self.queues.pop_tail(class_id)
        self.on_select(
            class_id, packet.arrived_at, packet.size, packet, now
        )
        return packet


# ----------------------------------------------------------------------
# Transparency
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["wtp", "bpr", "fcfs", "strict", "qwtp", "drr"])
def test_checked_run_matches_unchecked(name: str) -> None:
    config = small_config(name)
    trace = generate_trace(config)
    plain = replay_through_scheduler(trace, make_scheduler(name, SDPS), config)
    checked = replay_through_scheduler(
        trace, make_scheduler(name, SDPS), config, check_invariants=True
    )
    # Bit-identical measurements: the hooks observe, never perturb.
    assert checked.mean_delays == plain.mean_delays
    assert checked.successive_ratios == plain.successive_ratios
    assert checked.link_utilization == plain.link_utilization
    assert plain.invariants is None
    report = checked.invariants
    assert report is not None
    assert report.arrivals > 0
    assert report.departures > 0
    assert report.dispatches >= report.departures
    assert report.busy_periods > 0
    assert report.conservation_residual is not None
    assert abs(report.conservation_residual) < 0.25
    if name in registered_scheduler_checks():
        assert report.scheduler_check == name
    else:
        assert report.scheduler_check is None
    payload = report.to_dict()
    assert payload["checked"] is True
    assert payload["arrivals"] == report.arrivals


def test_disabled_checker_leaves_class_methods() -> None:
    """Zero overhead when disabled: no per-instance hook attributes."""
    sim = Simulator()
    scheduler = WTPScheduler(SDPS)
    link = Link(sim, scheduler, capacity=1.0, target=PacketSink())
    assert "receive" not in link.__dict__
    assert "_complete_service" not in link.__dict__
    assert "select" not in scheduler.__dict__

    checker = InvariantChecker(link)
    assert not checker.attached
    checker.attach()
    assert checker.attached
    assert "receive" in link.__dict__
    assert "_complete_service" in link.__dict__
    assert "select" in scheduler.__dict__

    checker.detach()
    assert not checker.attached
    # The restored bound methods are the original class implementations.
    assert link.receive.__func__ is Link.receive
    assert link._complete_service.__func__ is Link._complete_service
    assert scheduler.select.__func__ is WTPScheduler.select
    checker.detach()  # idempotent


def test_double_attach_rejected() -> None:
    sim = Simulator()
    link = Link(sim, WTPScheduler(SDPS), capacity=1.0, target=PacketSink())
    checker = InvariantChecker(link).attach()
    with pytest.raises(SimulationError):
        checker.attach()
    checker.detach()
    checker.attach()  # fine again after detach
    checker.detach()


def test_attach_rejects_swapped_scheduler() -> None:
    sim = Simulator()
    link = Link(sim, WTPScheduler(SDPS), capacity=1.0, target=PacketSink())
    checker = InvariantChecker(link)
    link.scheduler = WTPScheduler(SDPS)
    with pytest.raises(SimulationError):
        checker.attach()


# ----------------------------------------------------------------------
# Sensitivity: broken schedulers
# ----------------------------------------------------------------------
def test_inverted_wtp_triggers_priority_order_violation() -> None:
    config = small_config("wtp")
    trace = generate_trace(config)
    with pytest.raises(InvariantViolation) as excinfo:
        replay_through_scheduler(
            trace, InvertedWTP(SDPS), config, check_invariants=True
        )
    violation = excinfo.value
    assert violation.invariant == "wtp-priority-order"
    assert violation.packet_id is not None
    assert violation.class_id is not None
    assert violation.sim_time is not None
    assert f"packet={violation.packet_id}" in str(violation)


def test_equal_split_bpr_triggers_rate_allocation_violation() -> None:
    config = small_config("bpr")
    trace = generate_trace(config)
    with pytest.raises(InvariantViolation) as excinfo:
        replay_through_scheduler(
            trace, EqualSplitBPR(SDPS), config, check_invariants=True
        )
    assert excinfo.value.invariant == "bpr-rate-allocation"


def test_inverted_strict_priority_triggers_violation() -> None:
    config = small_config("strict")
    trace = generate_trace(config)
    with pytest.raises(InvariantViolation) as excinfo:
        replay_through_scheduler(
            trace,
            InvertedStrictPriority(len(SDPS)),
            config,
            check_invariants=True,
        )
    assert excinfo.value.invariant == "strict-priority-order"


def test_tail_popping_scheduler_triggers_class_fifo_violation() -> None:
    config = small_config("wtp")
    trace = generate_trace(config)
    scheduler = UnregisteredTailWTP(SDPS)
    assert scheduler_check_for(scheduler) is None
    with pytest.raises(InvariantViolation) as excinfo:
        replay_through_scheduler(
            trace, scheduler, config, check_invariants=True
        )
    assert excinfo.value.invariant == "class-fifo"


def _unchecked_replay(scheduler, drain: bool) -> tuple:
    config = small_config("wtp")
    sim = Simulator()
    sink = PacketSink(keep_packets=True)
    link = Link(sim, scheduler, config.capacity, target=sink, drain=drain)
    TraceSource(sim, link, generate_trace(config)).start()
    sim.run(until=config.horizon)
    departures = [(p.packet_id, p.departed_at) for p in sink.packets]
    return departures, sim.events_processed


def test_select_override_runs_evented() -> None:
    """A scheduler class overriding ``select`` opts out of the drain
    kernels, which inline the base pop: its link runs evented even
    with the drain on, so the override is never skipped."""
    drained = _unchecked_replay(UnregisteredTailWTP(SDPS), drain=True)
    evented = _unchecked_replay(UnregisteredTailWTP(SDPS), drain=False)
    assert drained == evented
    head_popping, _ = _unchecked_replay(WTPScheduler(SDPS), drain=True)
    assert len(drained[0]) > 1000
    assert drained[0] != head_popping


# ----------------------------------------------------------------------
# Sensitivity: tampered kernel state (small hand-built scenarios)
# ----------------------------------------------------------------------
def _manual_link(scheduler=None, capacity: float = 1.0):
    sim = Simulator()
    scheduler = scheduler if scheduler is not None else WTPScheduler((1.0, 2.0))
    link = Link(sim, scheduler, capacity, target=PacketSink())
    return sim, link, scheduler


def test_stolen_packet_triggers_losslessness_violation() -> None:
    sim, link, scheduler = _manual_link()
    checker = InvariantChecker(link).attach()
    for i, t in enumerate((0.0, 1.0, 2.0)):
        sim.schedule(t, link.receive, make_packet(i, size=10.0, created_at=t))
    # Mid-run, a packet vanishes from the queue behind the link's back.
    sim.schedule(3.0, lambda _=None: scheduler.queues.pop(0))
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run_checked(until=50.0)
    assert excinfo.value.invariant == "losslessness"
    assert checker.attached


def test_forged_byte_counter_triggers_work_conservation_violation() -> None:
    sim, link, _ = _manual_link()

    def forge_bytes(_=None):
        link.bytes_sent += 3.0

    InvariantChecker(link).attach()
    sim.schedule(0.0, link.receive, make_packet(0, size=10.0))
    sim.schedule(5.0, forge_bytes)
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run_checked(until=50.0)
    assert excinfo.value.invariant == "work-conservation"


def test_tampered_service_start_triggers_causality_violation() -> None:
    sim, link, _ = _manual_link()

    def tamper(_=None):
        link.in_service.service_start = 3.0

    InvariantChecker(link).attach()
    sim.schedule(0.0, link.receive, make_packet(0, size=10.0))
    sim.schedule(5.0, tamper)
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run_checked(until=50.0)
    assert excinfo.value.invariant == "event-causality"


def test_idle_server_with_backlog_triggers_violation() -> None:
    sim, link, _ = _manual_link()
    InvariantChecker(link).attach()
    # A non-work-conserving server: it accepts work but never serves.
    link._begin_busy_period = lambda now: None
    link._start_service = lambda: None
    sim.schedule(1.0, link.receive, make_packet(0, size=10.0))
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run_checked(until=50.0)
    assert excinfo.value.invariant == "work-conservation"
    assert "idle" in excinfo.value.detail


def test_run_checked_catches_calendar_time_regression() -> None:
    sim = Simulator()

    def push_into_the_past(_=None):
        heapq.heappush(sim._heap, (2.0, 10**9, lambda: None, None))

    sim.schedule(5.0, push_into_the_past)
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run_checked()
    assert excinfo.value.invariant == "event-causality"
    assert excinfo.value.sim_time == 5.0


def test_finalize_catches_corrupted_queue_accounting() -> None:
    sim, link, scheduler = _manual_link()
    checker = InvariantChecker(link).attach()
    sim.schedule(0.0, link.receive, make_packet(0, size=10.0))
    sim.run_checked(until=50.0)
    scheduler.queues.bytes_backlog[0] = 50.0
    with pytest.raises(InvariantViolation) as excinfo:
        checker.finalize()
    assert excinfo.value.invariant == "losslessness"
    assert "byte-backlog" in excinfo.value.detail


def test_finalize_catches_corrupted_packet_counter() -> None:
    sim, link, scheduler = _manual_link()
    checker = InvariantChecker(link).attach()
    sim.schedule(0.0, link.receive, make_packet(0, size=10.0))
    sim.run_checked(until=50.0)
    scheduler.queues.total_packets += 1
    with pytest.raises(InvariantViolation) as excinfo:
        checker.finalize()
    assert excinfo.value.invariant == "losslessness"


def test_finalize_reports_clean_run() -> None:
    sim, link, _ = _manual_link()
    checker = InvariantChecker(link).attach()
    for i, t in enumerate((0.0, 1.0, 2.0)):
        sim.schedule(
            t, link.receive, make_packet(i, class_id=i % 2, size=5.0)
        )
    sim.run_checked(until=100.0)
    report = checker.finalize()
    assert report.arrivals == 3
    assert report.departures == 3
    assert report.dispatches == 3
    assert report.busy_periods == 1
    assert report.scheduler_check == "wtp"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_builtin_checks_registered() -> None:
    names = registered_scheduler_checks()
    assert {"wtp", "qwtp", "bpr", "fcfs", "strict"} <= set(names)
    assert names == tuple(sorted(names))


def test_unregistered_scheduler_has_no_check() -> None:
    # Every built-in discipline now ships an oracle; only a scheduler
    # with an unknown ``name`` falls outside the registry.
    class UnregisteredWTP(WTPScheduler):
        name = "no-such-discipline"

    assert scheduler_check_for(UnregisteredWTP(SDPS)) is None


def test_custom_check_registration() -> None:
    calls = []

    class CustomNamedWTP(WTPScheduler):
        name = "unit-test-discipline"

    def factory(scheduler):
        def check(queues, now, chosen):
            calls.append((now, chosen.packet_id))

        return check

    register_scheduler_check("unit-test-discipline", factory)
    try:
        scheduler = CustomNamedWTP(SDPS)
        assert "unit-test-discipline" in registered_scheduler_checks()
        sim, link, _ = _manual_link(scheduler)
        InvariantChecker(link).attach()
        sim.schedule(0.0, link.receive, make_packet(0, size=10.0))
        sim.run_checked(until=50.0)
        assert calls == [(0.0, 0)]
    finally:
        _checks_module._REGISTRY.pop("unit-test-discipline")


# ----------------------------------------------------------------------
# Conservation-law verifier
# ----------------------------------------------------------------------
def test_conservation_law_accepts_exact_identity() -> None:
    rates = [2.0, 1.0]
    delays = [3.0, 6.0]
    aggregate = (2.0 * 3.0 + 1.0 * 6.0) / 3.0
    residual = verify_conservation_law(rates, delays, aggregate)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_conservation_law_rejects_large_residual() -> None:
    with pytest.raises(InvariantViolation) as excinfo:
        verify_conservation_law([1.0, 1.0], [10.0, 10.0], 5.0, tolerance=0.25)
    assert excinfo.value.invariant == "conservation-law"


def test_conservation_law_rejects_nan_delay_for_active_class() -> None:
    with pytest.raises(InvariantViolation) as excinfo:
        verify_conservation_law([1.0, 1.0], [3.0, math.nan], 3.0)
    assert excinfo.value.invariant == "conservation-law"
    assert excinfo.value.class_id == 1


def test_conservation_law_ignores_nan_delay_for_silent_class() -> None:
    residual = verify_conservation_law([1.0, 0.0], [3.0, math.nan], 3.0)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_conservation_law_rejects_misaligned_inputs() -> None:
    with pytest.raises(InvariantViolation):
        verify_conservation_law([1.0, 1.0], [3.0], 3.0)


# ----------------------------------------------------------------------
# Error type
# ----------------------------------------------------------------------
def test_invariant_violation_carries_structured_fields() -> None:
    violation = InvariantViolation(
        "class-fifo", "demo", packet_id=7, class_id=2, sim_time=12.5
    )
    assert violation.invariant == "class-fifo"
    assert violation.detail == "demo"
    assert violation.packet_id == 7
    assert violation.class_id == 2
    assert violation.sim_time == 12.5
    message = str(violation)
    assert "class-fifo" in message
    assert "packet=7" in message
    assert "class=2" in message
    assert "t=12.5" in message
