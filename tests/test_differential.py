"""Pytest entry for the differential harness (``tests/differential.py``).

Covers the full (scheduler x topology) grid -- every cell runs all four
execution modes and must capture bit-identically -- plus sensitivity
tests showing the six newly-registered scheduler oracles (PAD, HPD,
adaptive WTP, DRR, SCFQ, additive) reject impostors instead of
vacuously passing.
"""

from __future__ import annotations

import pytest

from repro.errors import InvariantViolation
from repro.experiments.common import generate_trace, replay_through_scheduler
from repro.invariants import registered_scheduler_checks
from repro.schedulers.adaptive_wtp import AdaptiveWTPScheduler
from repro.schedulers.additive import AdditiveDelayScheduler
from repro.schedulers.drr import DRRScheduler
from repro.schedulers.hpd import HPDScheduler
from repro.schedulers.pad import PADScheduler
from repro.schedulers.registry import available_schedulers
from repro.schedulers.wfq import SCFQScheduler

from .differential import (
    SCHEDULERS,
    SHAPES,
    differential_cell,
    hybrid_epsilon_zero_cell,
    hybrid_multihop_epsilon_zero_cell,
    run_cell,
)
from .test_invariants import SDPS, small_config


# ----------------------------------------------------------------------
# The grid: 12 schedulers x 4 shapes x 4 execution modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", tuple(SHAPES))
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_differential_cell(scheduler: str, shape: str) -> None:
    differential_cell(scheduler, shape)


def test_hybrid_epsilon_zero_is_pure_packet() -> None:
    """Hybrid mode of the harness: epsilon=0 plans a single packet
    segment and reproduces the evented city run bit-for-bit."""
    hybrid_epsilon_zero_cell()


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_hybrid_multihop_epsilon_zero_is_pure_packet(scheduler: str) -> None:
    """Network-wide hybrid at epsilon=0: bit-identical to the evented
    multihop city run for every registry scheduler (fluid map or not)."""
    hybrid_multihop_epsilon_zero_cell(scheduler)


def test_every_registry_name_covered() -> None:
    """The grid really does sweep the whole registry (the ISSUE's 12)."""
    assert SCHEDULERS == available_schedulers()
    assert len(SCHEDULERS) == 12


def test_every_registry_name_has_an_oracle() -> None:
    """No scheduler gap: each registry name resolves to a registered
    dispatch check (``wfq`` through its ``scfq`` instance name)."""
    from repro.schedulers import make_scheduler

    registered = registered_scheduler_checks()
    for name in SCHEDULERS:
        assert make_scheduler(name, SDPS).name in registered


# ----------------------------------------------------------------------
# Oracle-checked replays (the --check-invariants CI leg, in miniature)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scheduler", ("pad", "hpd", "adaptive-wtp", "drr", "scfq", "additive")
)
def test_oracle_checked_replay(scheduler: str) -> None:
    run_cell(scheduler, "fanin", kernel="evented", storage="object",
             check_invariants=True)


# ----------------------------------------------------------------------
# Sensitivity: each new oracle rejects an impostor.  Every impostor
# keeps its parent's ``name`` so the registry applies the real
# discipline's contract.
# ----------------------------------------------------------------------
class InvertedPAD(PADScheduler):
    """Serves the *minimum* normalized-average-delay class."""

    def choose_class(self, now: float) -> int:
        best_class = -1
        best_metric = float("inf")
        for cid in range(self.num_classes):
            queue = self.queues.queues[cid]
            if not queue:
                continue
            head_wait = now - queue[0].arrived_at
            metric = (
                (self._delay_sums[cid] + head_wait)
                / (self._delay_counts[cid] + 1)
                * self.sdps[cid]
            )
            if metric < best_metric:
                best_metric = metric
                best_class = cid
        return best_class


class DriftingHPD(HPDScheduler):
    """Ignores the PAD half (g forced to 1 at decision time only)."""

    def choose_class(self, now: float) -> int:
        real_g = self.g
        self.g = 1.0
        try:
            return super().choose_class(now)
        finally:
            self.g = real_g


class FrozenAdaptiveWTP(AdaptiveWTPScheduler):
    """Never runs the controller step."""

    def _adjust(self) -> None:
        pass


class LeakyDRR(DRRScheduler):
    """Forgets to charge the served packet against its deficit."""

    def on_select(self, cid, arrived_at, size, meta, now: float) -> None:
        pass


class InvertedSCFQ(SCFQScheduler):
    """Serves the *largest* finish tag."""

    def choose_class(self, now: float) -> int:
        best_class = -1
        best_tag = float("-inf")
        for cid in range(self.num_classes):
            head = self.queues.head(cid)
            if head is None:
                continue
            tag = self._finish_tags[head.packet_id]
            if tag > best_tag:
                best_tag = tag
                best_class = cid
        return best_class


class InvertedAdditive(AdditiveDelayScheduler):
    """Serves the *minimum* offset-adjusted waiting time."""

    def choose_class(self, now: float) -> int:
        best_class = -1
        best_priority = float("inf")
        heads = self.queues.head_arrivals
        for cid in range(self.num_classes):
            if self.queues.queues[cid]:
                priority = (now - heads[cid]) + self.offsets[cid]
                if priority < best_priority:
                    best_priority = priority
                    best_class = cid
        return best_class


@pytest.mark.parametrize(
    "impostor, base_name, invariant",
    [
        (lambda: InvertedPAD(SDPS), "pad", "pad-normalized-average-order"),
        (lambda: DriftingHPD(SDPS), "hpd", "hpd-hybrid-metric-order"),
        (
            lambda: FrozenAdaptiveWTP(SDPS),
            "adaptive-wtp",
            "adaptive-wtp-controller",
        ),
        (lambda: LeakyDRR(SDPS), "drr", "drr-deficit-state"),
        (lambda: InvertedSCFQ(SDPS), "scfq", "scfq-finish-tag-order"),
        (
            lambda: InvertedAdditive([s - 1.0 for s in SDPS]),
            "additive",
            "additive-priority-order",
        ),
    ],
)
def test_impostor_triggers_violation(impostor, base_name, invariant) -> None:
    config = small_config(base_name)
    trace = generate_trace(config)
    with pytest.raises(InvariantViolation) as excinfo:
        replay_through_scheduler(
            trace, impostor(), config, check_invariants=True
        )
    assert excinfo.value.invariant == invariant
