"""Pluggable per-discipline dispatch invariants.

Each check is an *independent reference implementation* of one
scheduler's selection rule, deliberately written out again here instead
of calling into the scheduler: a bug in the production formula must not
silently validate itself.  Checks replicate the schedulers'
floating-point arithmetic operation for operation, so a correct
scheduler matches the reference *exactly* -- no tolerance is needed for
the priority comparisons -- while any deviation (inverted priorities,
wrong tie-break direction, stale state) raises
:class:`~repro.errors.InvariantViolation` at the first offending
dispatch.

The registry is keyed by the scheduler's ``name`` class attribute (the
same key :mod:`repro.schedulers.registry` uses), so subclasses that keep
the name are checked against the named discipline's contract, and new
disciplines can register their own check via
:func:`register_scheduler_check`.

Registered entries are *factories*: ``factory(scheduler)`` is called
once when a checker attaches and returns the bound per-dispatch check.
Binding at attach time lets a factory capture the scheduler's constant
state (SDPs, capacity, the in-place-mutated backlog list) in closure
locals, keeping the per-dispatch cost to the comparison itself.
The bound check runs immediately *after* ``select`` returned, against
the live post-pop class heads::

    check(heads, now, chosen)

where ``heads = queues.heads()`` holds class ``c``'s head packet at
``heads[c]`` (``None`` for an empty class), read from the class columns
themselves -- never from the ``head_arrivals`` keys the waiting-time
schedulers' ``choose_class`` reads -- and ``chosen`` is the packet the
scheduler picked.  Only the chosen packet's own queue changed since the
decision, so a check compares ``chosen`` against the heads of every
*other* class -- the argmax rule "chosen attains the maximum, ties to
the higher class" is equivalent to "no other class strictly beats
chosen, and no equal class sits above it", which needs no pre-pop
snapshot.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schedulers.base import Scheduler
    from ..sim.packet import Packet

__all__ = [
    "BoundDispatchCheck",
    "DispatchCheckFactory",
    "register_scheduler_check",
    "registered_scheduler_checks",
    "scheduler_check_for",
]

#: Post-pop head packet of every class (``None`` for an empty class).
Heads = Sequence[Optional["Packet"]]
#: The bound per-dispatch check: ``check(heads, now, chosen)``.
BoundDispatchCheck = Callable[[Heads, float, "Packet"], None]
#: What gets registered: binds a scheduler instance to its check.
DispatchCheckFactory = Callable[["Scheduler"], BoundDispatchCheck]

_REGISTRY: dict[str, DispatchCheckFactory] = {}


def register_scheduler_check(name: str, factory: DispatchCheckFactory) -> None:
    """Register (or replace) the dispatch-check factory for ``name``."""
    _REGISTRY[name] = factory


def registered_scheduler_checks() -> tuple[str, ...]:
    """Scheduler names with a registered dispatch check, sorted."""
    return tuple(sorted(_REGISTRY))


def scheduler_check_for(scheduler: "Scheduler") -> Optional[BoundDispatchCheck]:
    """The bound dispatch check for ``scheduler`` (by name), or ``None``."""
    factory = _REGISTRY.get(scheduler.name)
    return factory(scheduler) if factory is not None else None


def _violation(
    invariant: str, detail: str, chosen: "Packet", now: float
) -> InvariantViolation:
    return InvariantViolation(
        invariant,
        detail,
        packet_id=chosen.packet_id,
        class_id=chosen.class_id,
        sim_time=now,
    )


# ----------------------------------------------------------------------
# WTP family: priority-order property (paper Eq 11, ties to the higher
# class)
# ----------------------------------------------------------------------
def make_wtp_check(scheduler: "Scheduler") -> BoundDispatchCheck:
    """WTP must serve the backlogged head with maximal w_i(t) * s_i."""
    sdps = scheduler.sdps
    top = len(sdps) - 1

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        ccid = chosen.class_id
        chosen_priority = (now - chosen.arrived_at) * sdps[ccid]
        for cid in range(top, -1, -1):
            if cid == ccid:
                continue
            head = heads[cid]
            if head is None:
                continue
            priority = (now - head.arrived_at) * sdps[cid]
            if priority > chosen_priority or (
                priority == chosen_priority and cid > ccid
            ):
                raise _violation(
                    "wtp-priority-order",
                    f"served class {ccid} with priority "
                    f"{chosen_priority:.6g} but class {cid} held "
                    f"{priority:.6g} (ties go to the higher class)",
                    chosen,
                    now,
                )

    return check


def make_quantized_wtp_check(scheduler: "Scheduler") -> BoundDispatchCheck:
    """Quantized WTP: same rule with epoch-granular waiting times."""
    sdps = scheduler.sdps
    epoch = scheduler.epoch
    top = len(sdps) - 1

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        ccid = chosen.class_id
        now_epoch = int(now / epoch)
        chosen_priority = (
            now_epoch - int(chosen.arrived_at / epoch)
        ) * sdps[ccid]
        for cid in range(top, -1, -1):
            if cid == ccid:
                continue
            head = heads[cid]
            if head is None:
                continue
            priority = (
                now_epoch - int(head.arrived_at / epoch)
            ) * sdps[cid]
            if priority > chosen_priority or (
                priority == chosen_priority and cid > ccid
            ):
                raise _violation(
                    "qwtp-priority-order",
                    f"served class {ccid} with quantized priority "
                    f"{chosen_priority:.6g} but class {cid} held "
                    f"{priority:.6g} (ties go to the higher class)",
                    chosen,
                    now,
                )

    return check


# ----------------------------------------------------------------------
# BPR: backlog-proportional rate allocation (paper Eqs 8-9)
# ----------------------------------------------------------------------
def make_bpr_check(
    scheduler: "Scheduler", relative_tolerance: float = 1e-9
) -> BoundDispatchCheck:
    """After a BPR selection, rates must satisfy r_i = s_i q_i R / sum.

    ``on_select`` sets the rates from the post-pop backlogs; this reads
    them through ``current_rates`` and re-derives Eqs 8-9 from ``sdps``
    and the live backlog -- never from the scheduler's stored weights --
    requiring agreement within ``relative_tolerance`` (the scheduler and
    the reference perform the identical float operations, so real
    implementations match exactly).  Also enforces Eq 9: the rates of
    backlogged classes sum to the link capacity R, i.e. BPR never leaves
    capacity unallocated.
    """
    capacity = scheduler.capacity
    backlog = scheduler.queues.bytes_backlog
    sdps = scheduler.sdps
    num_classes = len(sdps)
    tolerance = relative_tolerance * capacity

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        rates = scheduler.current_rates
        weight_sum = 0.0
        for cid in range(num_classes):
            weight_sum += sdps[cid] * backlog[cid]
        scale = capacity / weight_sum if weight_sum > 0.0 else 0.0
        total = 0.0
        for cid in range(num_classes):
            rate = rates[cid]
            want = sdps[cid] * backlog[cid] * scale
            if abs(rate - want) > tolerance or rate != rate:  # NaN-safe
                raise _violation(
                    "bpr-rate-allocation",
                    f"Eq 8 violated for class {cid}: rate {rate:.9g} but "
                    f"s_i q_i R / sum(s_j q_j) = {want:.9g} "
                    f"(backlog={backlog[cid]:.9g} bytes)",
                    chosen,
                    now,
                )
            total += rate
        if weight_sum > 0.0 and abs(total - capacity) > tolerance:
            raise _violation(
                "bpr-rate-allocation",
                f"Eq 9 violated: allocated rates sum to {total:.9g} "
                f"instead of the link capacity {capacity:.9g}",
                chosen,
                now,
            )

    return check


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def make_fcfs_check(scheduler: "Scheduler") -> BoundDispatchCheck:
    """FCFS must serve the globally oldest head (ties to higher class)."""
    top = scheduler.num_classes - 1

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        ccid = chosen.class_id
        arrived = chosen.arrived_at
        for cid in range(top, -1, -1):
            if cid == ccid:
                continue
            head = heads[cid]
            if head is None:
                continue
            other = head.arrived_at
            if other < arrived or (other == arrived and cid > ccid):
                raise _violation(
                    "fcfs-order",
                    f"served class {ccid} (arrived {arrived:.6g}) but "
                    f"class {cid} held an older head "
                    f"(arrived {other:.6g})",
                    chosen,
                    now,
                )

    return check


def make_strict_priority_check(scheduler: "Scheduler") -> BoundDispatchCheck:
    """Strict priority must serve the highest backlogged class."""
    top = scheduler.num_classes - 1

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        for cid in range(top, chosen.class_id, -1):
            if heads[cid] is not None:
                raise _violation(
                    "strict-priority-order",
                    f"served class {chosen.class_id} while the higher "
                    f"class {cid} was backlogged",
                    chosen,
                    now,
                )

    return check


# ----------------------------------------------------------------------
# PAD / HPD: normalized-average-delay metrics
# ----------------------------------------------------------------------
def make_pad_check(scheduler: "Scheduler") -> BoundDispatchCheck:
    """PAD must serve the class maximizing (S_i + w_i)/(n_i + 1) * s_i.

    The chosen class's decision-time metric is recovered *exactly* from
    the post-select state: ``on_select`` performed ``S += w`` and
    ``n += 1`` with the very same floats, so
    ``(S_pre + w) / (n_pre + 1) == S_post / n_post`` bit for bit.
    """
    sdps = scheduler.sdps
    sums = scheduler._delay_sums
    counts = scheduler._delay_counts
    top = len(sdps) - 1

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        ccid = chosen.class_id
        chosen_metric = sums[ccid] / counts[ccid] * sdps[ccid]
        for cid in range(top, -1, -1):
            if cid == ccid:
                continue
            head = heads[cid]
            if head is None:
                continue
            metric = (
                (sums[cid] + (now - head.arrived_at))
                / (counts[cid] + 1)
                * sdps[cid]
            )
            if metric > chosen_metric or (
                metric == chosen_metric and cid > ccid
            ):
                raise _violation(
                    "pad-normalized-average-order",
                    f"served class {ccid} with metric "
                    f"{chosen_metric:.6g} but class {cid} held "
                    f"{metric:.6g} (ties go to the higher class)",
                    chosen,
                    now,
                )

    return check


def make_hpd_check(scheduler: "Scheduler") -> BoundDispatchCheck:
    """HPD: convex combination of WTP and PAD terms, shadow-normalized.

    The scheduler's running normalizers advance *inside* choose_class,
    before any check can observe them, so the reference carries its own
    shadow copies: seeded from the live values at attach time (between
    dispatches both equal the frozen scale the next decision will use)
    and advanced here with the same max-accumulation the scheduler
    performs -- the comparison stays exact, no tolerance.
    """
    sdps = scheduler.sdps
    sums = scheduler._delay_sums
    counts = scheduler._delay_counts
    g = scheduler.g
    top = len(sdps) - 1
    scales = [scheduler._wtp_scale, scheduler._pad_scale]

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        ccid = chosen.class_id
        inv_w = 1.0 / scales[0]
        inv_a = 1.0 / scales[1]
        max_wtp = scales[0]
        max_pad = scales[1]
        chosen_wait = now - chosen.arrived_at
        chosen_wtp = sdps[ccid] * chosen_wait
        # Decision-time PAD term, recovered exactly (see make_pad_check).
        chosen_pad = sums[ccid] / counts[ccid] * sdps[ccid]
        if chosen_wtp > max_wtp:
            max_wtp = chosen_wtp
        if chosen_pad > max_pad:
            max_pad = chosen_pad
        chosen_metric = g * chosen_wtp * inv_w + (1.0 - g) * chosen_pad * inv_a
        for cid in range(top, -1, -1):
            if cid == ccid:
                continue
            head = heads[cid]
            if head is None:
                continue
            head_wait = now - head.arrived_at
            wtp_term = sdps[cid] * head_wait
            pad_term = (
                (sums[cid] + head_wait) / (counts[cid] + 1) * sdps[cid]
            )
            if wtp_term > max_wtp:
                max_wtp = wtp_term
            if pad_term > max_pad:
                max_pad = pad_term
            metric = g * wtp_term * inv_w + (1.0 - g) * pad_term * inv_a
            if metric > chosen_metric or (
                metric == chosen_metric and cid > ccid
            ):
                raise _violation(
                    "hpd-hybrid-metric-order",
                    f"served class {ccid} with metric "
                    f"{chosen_metric:.6g} but class {cid} held "
                    f"{metric:.6g} (ties go to the higher class)",
                    chosen,
                    now,
                )
        scales[0] = max_wtp
        scales[1] = max_pad

    return check


# ----------------------------------------------------------------------
# Adaptive WTP: priority order under the feedback-controlled SDPs
# ----------------------------------------------------------------------
def make_adaptive_wtp_check(scheduler: "Scheduler") -> BoundDispatchCheck:
    """Adaptive WTP: WTP order under shadow-replicated effective SDPs.

    The controller mutates ``effective_sdps`` inside ``on_select`` --
    i.e. *between* the decision and this check at every adjustment
    boundary -- so the reference replicates the whole EWMA + geometric-
    mean controller on shadow state (seeded at attach time), validates
    each dispatch against the decision-time shadow SDPs, then steps the
    shadow and cross-checks it against the live controller exactly.
    """
    nominal = scheduler.nominal_sdps
    inv_deltas = tuple(scheduler._inv_deltas)
    gain = scheduler.gain
    period = scheduler.adjustment_period
    alpha = scheduler.ewma_alpha
    max_drift = scheduler.max_drift
    num_classes = scheduler.num_classes
    top = num_classes - 1
    esdps = list(scheduler.effective_sdps)
    ewma = list(scheduler._ewma_delay)
    counter = [scheduler._served_since_adjust]

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        ccid = chosen.class_id
        chosen_priority = (now - chosen.arrived_at) * esdps[ccid]
        for cid in range(top, -1, -1):
            if cid == ccid:
                continue
            head = heads[cid]
            if head is None:
                continue
            priority = (now - head.arrived_at) * esdps[cid]
            if priority > chosen_priority or (
                priority == chosen_priority and cid > ccid
            ):
                raise _violation(
                    "adaptive-wtp-priority-order",
                    f"served class {ccid} with priority "
                    f"{chosen_priority:.6g} but class {cid} held "
                    f"{priority:.6g} under the decision-time effective "
                    "SDPs (ties go to the higher class)",
                    chosen,
                    now,
                )
        # Shadow controller step (the reference re-derivation of
        # on_select), then an exact cross-check against the live state.
        delay = now - chosen.arrived_at
        previous = ewma[ccid]
        if math.isnan(previous):
            ewma[ccid] = delay
        else:
            ewma[ccid] = (1.0 - alpha) * previous + alpha * delay
        counter[0] += 1
        if counter[0] >= period:
            counter[0] = 0
            normalized = []
            held = False
            for cid in range(num_classes):
                d = ewma[cid]
                if math.isnan(d) or d <= 0.0:
                    held = True  # controller holds: not all observed
                    break
                normalized.append(d * inv_deltas[cid])
            if not held:
                log_mean = sum(math.log(m) for m in normalized) / len(
                    normalized
                )
                for cid, m in enumerate(normalized):
                    factor = math.exp(gain * (math.log(m) - log_mean))
                    proposed = esdps[cid] * factor
                    low = nominal[cid] / max_drift
                    high = nominal[cid] * max_drift
                    esdps[cid] = min(max(proposed, low), high)
        if esdps != scheduler.effective_sdps:
            raise _violation(
                "adaptive-wtp-controller",
                f"controller state diverged: effective SDPs "
                f"{scheduler.effective_sdps} but the reference "
                f"controller derives {esdps}",
                chosen,
                now,
            )

    return check


# ----------------------------------------------------------------------
# Capacity baselines: DRR rounds and SCFQ finish tags
# ----------------------------------------------------------------------
def make_drr_check(scheduler: "Scheduler") -> BoundDispatchCheck:
    """DRR: a full shadow round-robin reference predicts each dispatch.

    Deficits, the round cursor, and the active class are all mutated
    inside ``choose_class`` itself, so order cannot be verified from
    post-state alone: the reference replays the exact quantum
    arithmetic on shadow state (seeded at attach), demands the
    scheduler served the class the reference predicts, and cross-checks
    the shadow deficits against the live list exactly.
    """
    quanta = scheduler.quanta
    num_classes = scheduler.num_classes
    deficits = list(scheduler._deficits)
    cursor_active = [scheduler._round_cursor, scheduler._active]

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        ccid = chosen.class_id
        csize = chosen.size
        predicted = -1
        active = cursor_active[1]
        if active is not None:
            # Pre-pop head of the active class: the chosen packet when
            # the active class was served, the live head otherwise.
            if active == ccid:
                hsize = csize
            elif heads[active] is not None:
                hsize = heads[active].size
            else:
                hsize = None
            if hsize is not None and hsize <= deficits[active]:
                predicted = active
            else:
                if hsize is None:
                    deficits[active] = 0.0
                cursor_active[1] = None
        if predicted < 0:
            # Terminates: the chosen class is backlogged and gains a
            # positive quantum every round until it covers its head.
            while True:
                cid = cursor_active[0]
                cursor_active[0] = (cursor_active[0] + 1) % num_classes
                if cid != ccid and heads[cid] is None:
                    deficits[cid] = 0.0
                    continue
                deficits[cid] += quanta[cid]
                hsize = csize if cid == ccid else heads[cid].size
                if hsize <= deficits[cid]:
                    cursor_active[1] = cid
                    predicted = cid
                    break
        if predicted != ccid:
            raise _violation(
                "drr-round-order",
                f"served class {ccid} but the deficit round-robin "
                f"reference predicts class {predicted}",
                chosen,
                now,
            )
        deficits[ccid] -= csize  # on_select
        if deficits != scheduler._deficits:
            raise _violation(
                "drr-deficit-state",
                f"deficit counters diverged: live {scheduler._deficits} "
                f"vs reference {deficits}",
                chosen,
                now,
            )

    return check


def make_scfq_check(scheduler: "Scheduler") -> BoundDispatchCheck:
    """SCFQ must serve the backlogged head with the smallest finish tag.

    The chosen packet's tag was popped by ``on_select`` into
    ``_virtual_now`` (self-clocking), so it is read back from there;
    competitors' tags still sit in the live tag table.  When the system
    drained with this dispatch there were no competitors and the reset
    housekeeping wiped the tag -- nothing to verify.
    """
    tags = scheduler._finish_tags
    top = scheduler.num_classes - 1

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        ccid = chosen.class_id
        empty = True
        for head in heads:
            if head is not None:
                empty = False
                break
        if empty:
            return
        chosen_tag = scheduler._virtual_now
        for cid in range(top, -1, -1):
            if cid == ccid:
                continue
            head = heads[cid]
            if head is None:
                continue
            tag = tags[head.packet_id]
            if tag < chosen_tag or (tag == chosen_tag and cid > ccid):
                raise _violation(
                    "scfq-finish-tag-order",
                    f"served class {ccid} with finish tag "
                    f"{chosen_tag:.6g} but class {cid} held "
                    f"{tag:.6g} (ties go to the higher class)",
                    chosen,
                    now,
                )

    return check


def make_additive_check(scheduler: "Scheduler") -> BoundDispatchCheck:
    """Additive: serve the head maximizing w_i(t) + s_i (Eq 3)."""
    offsets = scheduler.offsets
    top = scheduler.num_classes - 1

    def check(heads: Heads, now: float, chosen: "Packet") -> None:
        ccid = chosen.class_id
        chosen_priority = (now - chosen.arrived_at) + offsets[ccid]
        for cid in range(top, -1, -1):
            if cid == ccid:
                continue
            head = heads[cid]
            if head is None:
                continue
            priority = (now - head.arrived_at) + offsets[cid]
            if priority > chosen_priority or (
                priority == chosen_priority and cid > ccid
            ):
                raise _violation(
                    "additive-priority-order",
                    f"served class {ccid} with priority "
                    f"{chosen_priority:.6g} but class {cid} held "
                    f"{priority:.6g} (ties go to the higher class)",
                    chosen,
                    now,
                )

    return check


register_scheduler_check("wtp", make_wtp_check)
register_scheduler_check("qwtp", make_quantized_wtp_check)
register_scheduler_check("bpr", make_bpr_check)
register_scheduler_check("fcfs", make_fcfs_check)
register_scheduler_check("strict", make_strict_priority_check)
register_scheduler_check("pad", make_pad_check)
register_scheduler_check("hpd", make_hpd_check)
register_scheduler_check("adaptive-wtp", make_adaptive_wtp_check)
register_scheduler_check("drr", make_drr_check)
register_scheduler_check("scfq", make_scfq_check)
register_scheduler_check("additive", make_additive_check)
