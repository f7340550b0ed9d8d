"""Conservation law (Eq 5) and fast FCFS reference delays.

For any work-conserving discipline over traffic with one packet-length
distribution,

    sum_i lambda_i * d_i = lambda * d(lambda)                    (Eq 5)

where d(lambda) is the mean queueing delay of the aggregate through a
FCFS server of the same capacity.  This module provides:

* :func:`fcfs_waiting_times` -- the Lindley recursion, an O(n) exact
  FCFS simulation of an arrival trace (no event engine needed).
* :func:`subset_delay_function` -- the ``subset_delay`` callback that
  :mod:`repro.core.feasibility` expects, backed by FCFS replays of the
  trace filtered to each subset (memoized on the trace: Eq 7 touches
  2^N - 1 subsets, and every audit of one trace shares them).
* :func:`conservation_residual` -- the relative Eq 5 residual of a
  measured (rates, delays) outcome, used as a run-level audit in the
  experiment harnesses and property tests.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..traffic.trace import ArrivalTrace

__all__ = [
    "fcfs_waiting_times",
    "fcfs_mean_delay",
    "fcfs_mean_delay_per_class",
    "subset_delay_function",
    "conservation_residual",
]


def fcfs_waiting_times(
    times: np.ndarray, sizes: np.ndarray, capacity: float
) -> np.ndarray:
    """Waiting time of every packet in a FCFS server (Lindley recursion).

    W_1 = 0;  W_{k+1} = max(0, W_k + S_k - (t_{k+1} - t_k))  with
    S_k = sizes_k / capacity.  Arrival times must be sorted.

    Evaluated in vectorized form via the random-walk solution of the
    recursion: with X_k = S_k - gap_k and C_k = X_1 + ... + X_k
    (C_0 = 0),  W_{k+1} = C_k - min(C_0, ..., C_k),  so one ``cumsum``
    and one ``minimum.accumulate`` replace the Python loop.  The
    invariant subsystem runs this over every checked trace, so the O(n)
    loop constant matters.
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive: {capacity}")
    n = len(times)
    if len(sizes) != n:
        raise ConfigurationError("times and sizes must align")
    if not n:
        return np.empty(0)
    gaps = np.diff(times)
    if len(gaps) and gaps.min() < 0:
        raise ConfigurationError("arrival times must be sorted")
    walk = np.empty(n)
    walk[0] = 0.0
    np.cumsum(sizes[:-1] / capacity - gaps, out=walk[1:])
    return walk - np.minimum.accumulate(walk)


def fcfs_mean_delay(
    trace: ArrivalTrace, capacity: float, warmup: float = 0.0
) -> float:
    """Mean FCFS queueing delay of a trace (departure-agnostic warm-up
    cut on *arrival* time, adequate for long runs)."""
    waits = fcfs_waiting_times(trace.times, trace.sizes, capacity)
    if warmup > 0.0:
        mask = trace.times >= warmup
        waits = waits[mask]
    if not len(waits):
        return float("nan")
    return float(waits.mean())


def fcfs_mean_delay_per_class(
    trace: ArrivalTrace, capacity: float, warmup: float = 0.0
) -> list[float]:
    """Per-class mean FCFS delays of the *aggregate* trace."""
    waits = fcfs_waiting_times(trace.times, trace.sizes, capacity)
    class_ids = trace.class_ids
    if warmup > 0.0:
        mask = trace.times >= warmup
        waits = waits[mask]
        class_ids = class_ids[mask]
    means = []
    for cid in range(trace.num_classes):
        class_waits = waits[class_ids == cid]
        means.append(float(class_waits.mean()) if len(class_waits) else float("nan"))
    return means


def subset_delay_function(
    trace: ArrivalTrace, capacity: float, warmup: float = 0.0
) -> Callable[[tuple[int, ...]], float]:
    """Memoized  phi -> d(sum_{i in phi} lambda_i)  via FCFS replay.

    Each subset's sub-trace is the aggregate filtered through a boolean
    class table indexed by ``trace.class_ids`` -- the same arrivals, in
    the same order, as :meth:`~repro.traffic.trace.ArrivalTrace.filter_classes`
    keeps, so the value equals ``fcfs_mean_delay`` of that sub-trace.

    The memo lives on the trace object, keyed by ``(capacity, warmup)``:
    subset delays depend on the traffic alone, so every Eq 7 audit of
    one trace -- whichever scheduler or SDP vector asks -- shares one
    replay per subset.  Traces are never written in place (a sweep
    runner's shared ones are read-only), so the memo cannot go stale.
    It is not a dataclass field: the trace's equality and repr ignore it.
    """
    memos = vars(trace).setdefault("_subset_delays", {})
    cache: dict[tuple[int, ...], float] = memos.setdefault((capacity, warmup), {})
    times, class_ids, sizes = trace.times, trace.class_ids, trace.sizes
    num_classes = trace.num_classes

    def subset_delay(subset: tuple[int, ...]) -> float:
        key = tuple(sorted(subset))
        if key not in cache:
            table = np.zeros(num_classes, dtype=bool)
            for cid in key:
                if 0 <= cid < num_classes:
                    table[cid] = True
            mask = table[class_ids]
            sub_times = times[mask]
            waits = fcfs_waiting_times(sub_times, sizes[mask], capacity)
            if warmup > 0.0:
                waits = waits[sub_times >= warmup]
            cache[key] = float(waits.mean()) if len(waits) else float("nan")
        return cache[key]

    return subset_delay


def conservation_residual(
    rates: Sequence[float],
    delays: Sequence[float],
    aggregate_delay: float,
) -> float:
    """Relative residual of Eq 5: (sum lambda_i d_i - lambda d) / (lambda d)."""
    if len(rates) != len(delays):
        raise ConfigurationError("rates and delays must align")
    total_rate = sum(rates)
    if total_rate <= 0:
        raise ConfigurationError("aggregate rate must be positive")
    lhs = sum(r * d for r, d in zip(rates, delays))
    rhs = total_rate * aggregate_delay
    if rhs == 0:
        return 0.0 if lhs == 0 else float("inf")
    return (lhs - rhs) / rhs
