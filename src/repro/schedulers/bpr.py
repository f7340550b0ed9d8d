"""Backlog-Proportional Rate (BPR) scheduler -- Section 4.1 + Appendices.

Fluid model
-----------
BPR is a GPS-style fluid server whose class service rates are
continuously re-weighted by the instantaneous class backlogs:

    r_i(t) / r_j(t) = (s_i * q_i(t)) / (s_j * q_j(t))        (Eq 8)
    sum_i r_i(t) = R                                          (Eq 9)

for backlogged classes, where q_i(t) is the backlog in bytes and the
SDPs satisfy s_1 < s_2 < ... < s_N.  With no arrivals the fluid backlogs
obey dq_i/dt = -R s_i q_i / sum_j s_j q_j, whose solution is

    q_i(t) = q_i(0) * theta(t) ** s_i

with a common theta(t) in (0, 1] found from work conservation
sum_i q_i(t) = Q(0) - R t.  All queues therefore hit zero at the same
instant theta -> 0 -- Proposition 1's *simultaneous queue clearing*.
:func:`fluid_backlogs` evaluates this closed form (used as a reference
implementation and in the Proposition 1 tests).

Packetized model (Appendix 3)
-----------------------------
The implementable scheduler tracks a virtual service function v_i for
each queue, approximating the fluid service the head packet would have
received:

* After each departure (and when a busy period starts) the rates r_i are
  recomputed from Eqs 8-9 using the current byte backlogs and held
  constant until the next departure.
* At a departure at time t^k:  v_i(t^k) = 0 if the head of queue i
  arrived after the previous departure t^{k-1}, else
  v_i(t^k) = v_i(t^{k-1}) + r_i(t^{k-1}) * (t^k - t^{k-1}).
* The next packet comes from queue  argmin_i (L_i - v_i(t^k)),  ties
  broken in favour of the higher class.

Each selection makes one pass over the classes: ``on_select`` stores
the Eq 8 weights w_i = s_i * q_i of the post-pop backlogs and Eq 9's
``scale`` = R / sum_j w_j (0 when nothing is queued), and a rate is
derived where it is read, r_i = w_i * scale.  The sum is an explicit
left-to-right loop because float addition order is observable and
``sum()`` of floats is compensated from Python 3.12; a credit advances
by ``(w_i * scale) * dt``, never reassociated, so selections stay
bit-identical on every interpreter and every drain path.

Appendix 3 leaves one case unspecified: v_i of the queue that was just
served.  We subtract the transmitted length (clamped at zero), so the
new head keeps any excess virtual service but does not inherit the full
credit of its predecessor.  This choice reproduces the paper's observed
behaviour: convergence to proportional differentiation in heavy load,
plus the characteristic sawtooth/noisy short-timescale delays
(Figure 4), because a nearly drained queue receives a tiny rate and its
last packets age until fresh arrivals restore the backlog.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import ConfigurationError
from .base import Scheduler, validate_sdps

__all__ = [
    "BPRScheduler",
    "FluidBPRTracker",
    "fluid_backlogs",
    "fluid_clearing_time",
]


class BPRScheduler(Scheduler):
    """Packetized Backlog-Proportional Rate scheduler (Appendix 3)."""

    name = "bpr"

    def __init__(self, sdps: Sequence[float], capacity: float | None = None) -> None:
        self.sdps = validate_sdps(sdps)
        super().__init__(len(self.sdps))
        #: Output link rate R (bytes per time unit).  May also be bound
        #: later by the owning Link via :meth:`bind_capacity`.
        self.capacity = capacity
        self._last_decision = -math.inf  # no decision yet: credits reset
        self._virtual = [0.0] * self.num_classes
        #: Eq 8 weights s_i * q_i and Eq 9's R / sum(w) at the last
        #: selection; class i's rate is ``_weights[i] * _scale``.
        self._weights = [0.0] * self.num_classes
        self._scale = 0.0
        self._classes = tuple(enumerate(self.sdps))
        self._scan = tuple(range(self.num_classes - 1, -1, -1))

    def bind_capacity(self, capacity: float) -> None:
        """Set the link rate R used in Eq 9 (called by the Link)."""
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive: {capacity}")
        self.capacity = capacity

    # ------------------------------------------------------------------
    def choose_class(self, now: float) -> int:
        if self.capacity is None:
            raise ConfigurationError(
                "BPRScheduler needs the link capacity; pass capacity= or "
                "attach it to a Link"
            )
        queues = self.queues
        heads = queues.head_arrivals
        cols = queues.cols
        cheads = queues.col_heads
        last = self._last_decision
        virtual = self._virtual
        weights = self._weights
        scale = self._scale
        inf = math.inf
        # Update virtual service for the elapsed inter-departure interval.
        best_class = -1
        best_score = inf
        for cid in self._scan:
            arrived = heads[cid]
            if arrived == inf:
                virtual[cid] = 0.0
                continue
            if arrived > last:
                credit = 0.0
            else:
                credit = virtual[cid] + weights[cid] * scale * (now - last)
            virtual[cid] = credit
            # Head size, read in place from the class column.
            score = cols[cid][cheads[cid] + 1] - credit
            if score < best_score:
                best_score = score
                best_class = cid
        return best_class

    def on_select(
        self, cid: int, arrived_at: float, size: float, meta, now: float
    ) -> None:
        # Consume the served queue's virtual credit (Appendix 3 does not
        # specify this case; see module docstring).  The comparison
        # clamps zero, negative and NaN credit to +0.0, as max(0.0, x).
        virtual = self._virtual
        credit = virtual[cid] - size
        virtual[cid] = credit if credit > 0.0 else 0.0
        # Eqs 8-9 over the post-pop byte backlogs, summed left to right.
        backlog = self.queues.bytes_backlog
        weights = self._weights
        total = 0.0
        for i, sdp in self._classes:
            weight = weights[i] = sdp * backlog[i]
            total += weight
        self._scale = 0.0 if total <= 0.0 else self.capacity / total
        self._last_decision = now

    @property
    def current_rates(self) -> tuple[float, ...]:
        """Service rates assigned at the last decision (bytes/unit)."""
        scale = self._scale
        return tuple([weight * scale for weight in self._weights])


class FluidBPRTracker:
    """Exact backlog dynamics of the BPR *fluid* server under piecewise
    arrivals.

    Between fluid-arrival events the backlogs follow the closed form
    q_i(t) = q_i(t0) * theta^{s_i} (see module docstring), so the whole
    trajectory is computed analytically -- no time-stepping error.  Used
    to validate the packetized scheduler and to demonstrate
    Proposition 1 with arrivals present.

    Usage: ``advance(t)`` drains to time t, ``add_fluid(cid, bytes)``
    injects work at the current time.
    """

    def __init__(self, sdps: Sequence[float], capacity: float) -> None:
        self.sdps = validate_sdps(sdps)
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.now = 0.0
        self.backlogs = [0.0] * len(self.sdps)

    def add_fluid(self, class_id: int, amount: float) -> None:
        """Instantaneously add ``amount`` bytes to a class backlog."""
        if amount < 0:
            raise ConfigurationError(f"amount must be non-negative: {amount}")
        if not 0 <= class_id < len(self.sdps):
            raise ConfigurationError(
                f"class_id {class_id} out of range [0, {len(self.sdps)})"
            )
        self.backlogs[class_id] += amount

    def advance(self, until: float) -> None:
        """Drain the fluid server up to time ``until``."""
        if until < self.now:
            raise ConfigurationError(
                f"cannot advance backwards: {until} < {self.now}"
            )
        elapsed = until - self.now
        total = sum(self.backlogs)
        if total <= 0:
            self.now = until
            return
        clearing = total / self.capacity
        if elapsed >= clearing:
            # Proposition 1: all queues empty simultaneously.
            self.backlogs = [0.0] * len(self.sdps)
        else:
            self.backlogs = fluid_backlogs(
                self.backlogs, self.sdps, self.capacity, elapsed
            )
        self.now = until

    @property
    def empty(self) -> bool:
        return all(q <= 0 for q in self.backlogs)

    def clearing_time(self) -> float:
        """Absolute time at which all queues empty if no more arrivals."""
        return self.now + fluid_clearing_time(self.backlogs, self.capacity)


# ----------------------------------------------------------------------
# Fluid reference (Proposition 1)
# ----------------------------------------------------------------------
def fluid_backlogs(
    initial: Sequence[float],
    sdps: Sequence[float],
    capacity: float,
    elapsed: float,
    tolerance: float = 1e-12,
) -> list[float]:
    """Backlogs of the BPR *fluid* server after ``elapsed`` time units
    with no further arrivals.

    Solves  sum_i q_i(0) * theta**s_i = Q(0) - R*elapsed  for theta by
    bisection and returns q_i(0) * theta**s_i.  An all-empty system
    stays empty (zeros for any ``elapsed``); a *non-empty* system that
    would have emptied strictly before ``elapsed`` raises, as does a
    negative ``elapsed`` or non-positive ``capacity``.
    """
    q0 = [float(q) for q in initial]
    s = validate_sdps(sdps)
    if len(q0) != len(s):
        raise ConfigurationError("initial backlogs and SDPs must align")
    if any(q < 0 for q in q0):
        raise ConfigurationError(f"backlogs must be non-negative: {q0}")
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive: {capacity}")
    if elapsed < 0:
        raise ConfigurationError(f"elapsed must be non-negative: {elapsed}")
    total0 = sum(q0)
    if total0 == 0.0:
        # An all-empty system stays empty: theta is undefined (any value
        # satisfies the drain equation), but the trajectory is trivial.
        return [0.0] * len(q0)
    target = total0 - capacity * elapsed
    if target < -tolerance * max(total0, 1.0):
        raise ConfigurationError(
            f"system empties at t={total0 / capacity:.6g} < elapsed={elapsed}"
        )
    if target <= 0:
        return [0.0] * len(q0)

    def total_at(theta: float) -> float:
        return sum(q * theta**si for q, si in zip(q0, s))

    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if total_at(mid) < target:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return [q * theta**si for q, si in zip(q0, s)]


def fluid_clearing_time(initial: Sequence[float], capacity: float) -> float:
    """Instant at which *all* fluid BPR queues empty (Proposition 1)."""
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive: {capacity}")
    backlogs = [float(q) for q in initial]
    if any(q < 0 for q in backlogs):
        raise ConfigurationError(f"backlogs must be non-negative: {backlogs}")
    return sum(backlogs) / capacity
