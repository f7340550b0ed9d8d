"""Arrival traces: precomputed (time, class, size) arrival streams.

Traces serve two purposes that mirror the paper's methodology:

* The *same* arrival stream can be replayed through different schedulers
  (the microscopic views in Figures 4 and 5 show BPR and WTP on "the
  same arriving packet streams in each class").
* Feasibility verification (Eq 7) needs the FCFS delay of every class
  *subset* of the very traffic being scheduled; filtering a trace by
  class and running the Lindley recursion gives exactly that.

A trace is three aligned numpy arrays sorted by arrival time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sim.engine import Simulator
from ..sim.link import Receiver
from ..sim.packet import Packet
from .base import InterarrivalProcess, PacketSizeSampler
from .compile import DEFAULT_CHUNK

__all__ = ["ArrivalTrace", "TraceSource", "build_class_trace", "merge_traces"]


@dataclass(frozen=True)
class ArrivalTrace:
    """Aligned arrays of arrival times, class ids and sizes (time-sorted)."""

    times: np.ndarray
    class_ids: np.ndarray
    sizes: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.class_ids) == len(self.sizes)):
            raise ConfigurationError("trace arrays must have equal length")
        if len(self.times) > 1 and np.any(np.diff(self.times) < 0):
            raise ConfigurationError("trace times must be sorted")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def num_classes(self) -> int:
        return int(self.class_ids.max()) + 1 if len(self) else 0

    def filter_classes(self, subset: Sequence[int]) -> "ArrivalTrace":
        """Sub-trace containing only the given classes (order kept)."""
        mask = np.isin(self.class_ids, np.asarray(subset, dtype=self.class_ids.dtype))
        return ArrivalTrace(
            self.times[mask], self.class_ids[mask], self.sizes[mask]
        )

    def class_rates(
        self, horizon: Optional[float] = None, num_classes: int = 0
    ) -> list[float]:
        """Empirical per-class packet arrival rates over the horizon.

        The list covers at least ``num_classes`` classes, so a class that
        drew no arrivals reads 0 wherever its id falls; by default it
        ends at the largest class id present.
        """
        if not len(self) and not num_classes:
            return []
        span = horizon if horizon is not None else float(self.times[-1])
        if span <= 0:
            raise ConfigurationError("horizon must be positive")
        counts = np.bincount(self.class_ids, minlength=num_classes)
        return [float(c) / span for c in counts]

    def offered_load(self, capacity: float, horizon: Optional[float] = None) -> float:
        """Empirical utilization: offered bytes / (capacity * horizon)."""
        if not len(self):
            return 0.0
        span = horizon if horizon is not None else float(self.times[-1])
        return float(self.sizes.sum()) / (capacity * span)


def build_class_trace(
    class_id: int,
    interarrivals: InterarrivalProcess,
    sizes: PacketSizeSampler,
    horizon: float,
    start_time: float = 0.0,
    compiled: bool = True,
    chunk: int = DEFAULT_CHUNK,
) -> ArrivalTrace:
    """Generate one class's arrivals on [start_time, horizon).

    ``compiled=True`` (the default) draws gaps and sizes in numpy blocks
    of ``chunk`` and converts gaps to timestamps with a carry-folded
    cumulative sum.  The output is bit-identical to the scalar loop:
    block draws consume each private random stream exactly like scalar
    draws, and folding the running time into the first gap before
    ``np.cumsum`` performs the same left-to-right float additions as the
    scalar ``t += gap`` accumulation.  (Gaps and sizes must come from
    independent generators -- the :class:`~repro.sim.rng.RandomStreams`
    discipline -- because block drawing reorders draws *across* the two
    streams, though never within one.)  Memory stays O(chunk) beyond the
    returned arrays.  ``compiled=False`` keeps the scalar loop for A/B
    comparison.
    """
    if horizon <= start_time:
        raise ConfigurationError("horizon must exceed start_time")
    if not compiled:
        times: list[float] = []
        t = start_time + interarrivals.next_gap()
        while t < horizon:
            times.append(t)
            t += interarrivals.next_gap()
        count = len(times)
        return ArrivalTrace(
            np.asarray(times),
            np.full(count, class_id, dtype=np.int64),
            np.asarray([sizes.next_size() for _ in range(count)]),
        )
    if chunk < 1:
        raise ConfigurationError(f"chunk must be >= 1: {chunk}")
    time_blocks: list[np.ndarray] = []
    size_blocks: list[np.ndarray] = []
    carry = start_time
    mean_gap = interarrivals.mean
    while True:
        # Size each block to the expected remaining arrivals (+10%
        # headroom), capped at ``chunk``.  Block size never changes the
        # output -- draws are consumed in sequence either way -- it only
        # bounds how many surplus draws are discarded past the horizon.
        want = int((horizon - carry) / mean_gap * 1.1) + 8
        gaps = interarrivals.draw_gaps(want if want < chunk else chunk)
        gaps[0] += carry
        block = np.cumsum(gaps)
        if block[-1] >= horizon:
            block = block[: int(np.searchsorted(block, horizon, side="left"))]
            if len(block):
                time_blocks.append(block)
                size_blocks.append(sizes.draw_sizes(len(block)))
            break
        carry = float(block[-1])
        time_blocks.append(block)
        size_blocks.append(sizes.draw_sizes(len(block)))
    if not time_blocks:
        empty = np.empty(0, dtype=np.float64)
        return ArrivalTrace(empty, np.empty(0, dtype=np.int64), empty.copy())
    times_arr = np.concatenate(time_blocks)
    return ArrivalTrace(
        times_arr,
        np.full(len(times_arr), class_id, dtype=np.int64),
        np.concatenate(size_blocks),
    )


def merge_traces(traces: Sequence[ArrivalTrace]) -> ArrivalTrace:
    """Merge per-class traces into one time-sorted aggregate trace."""
    non_empty = [t for t in traces if len(t)]
    if not non_empty:
        raise ConfigurationError("nothing to merge")
    times = np.concatenate([t.times for t in non_empty])
    class_ids = np.concatenate([t.class_ids for t in non_empty])
    sizes = np.concatenate([t.sizes for t in non_empty])
    order = np.argsort(times, kind="stable")
    return ArrivalTrace(times[order], class_ids[order], sizes[order])


class TraceSource:
    """Replays an :class:`ArrivalTrace` into a receiver via the kernel.

    The replay is lazy -- exactly one pending heap entry at a time, the
    next arrival -- so a million-packet trace never bloats the event
    calendar.  ``start`` batch-converts the numpy arrays to plain Python
    lists once (one C-level pass) so the per-packet hot path does no
    numpy scalar indexing, which costs an order of magnitude more than
    a list index.  The lists go once the last arrival is out: a
    finished cell's source may stay reachable through a reference cycle
    until the cyclic collector runs.

    The source implements the link's feeder protocol (see
    :meth:`~repro.sim.link.Link.attach_feeder`): every scheduled
    arrival's heap key is mirrored in ``next_time`` / ``next_seq`` so a
    target link's busy-period drain kernel can absorb the event and
    pull subsequent arrivals inline as scalars (:meth:`pull_col`).  The
    mirror is passive -- when the target is not a drain-enabled link the
    source behaves exactly as before.
    """

    def __init__(
        self,
        sim: Simulator,
        target: Receiver,
        trace: ArrivalTrace,
        first_packet_id: int = 0,
    ) -> None:
        self.sim = sim
        self.target = target
        self.trace = trace
        self.first_packet_id = first_packet_id
        #: Replayed packets carry no flow tag (read by columnar drains).
        self.flow_id: Optional[int] = None
        self._cursor = 0
        self._times: list[float] = []
        self._class_ids: list[int] = []
        self._sizes: list[float] = []
        self._count = 0
        # Feeder-protocol state: heap-key mirror of the pending arrival
        # event, and whether the drain currently holds it virtually
        # (popped off the calendar, to be re-parked on drain exit).
        self.next_time: Optional[float] = None
        self.next_seq = 0
        self._virtual = False

    def start(self) -> None:
        """Schedule the first replayed arrival.  Idempotent."""
        if self._cursor == 0 and not self._times and len(self.trace):
            self._times = self.trace.times.tolist()
            self._class_ids = self.trace.class_ids.tolist()
            self._sizes = self.trace.sizes.tolist()
            self._count = len(self._times)
            attach = getattr(self.target, "attach_feeder", None)
            if attach is not None:
                attach(self)
            self.next_time = self._times[0]
            self.next_seq = self.sim._seq
            self.sim.schedule(self._times[0], self._emit)

    def _emit(self) -> None:
        index = self._cursor
        times = self._times
        packet = Packet(
            self.first_packet_id + index,
            self._class_ids[index],
            self._sizes[index],
            times[index],
        )
        self._cursor = index = index + 1
        self.target.receive(packet)
        if index < len(times):
            self.next_time = times[index]
            self.next_seq = self.sim._seq
            self.sim.schedule(times[index], self._emit)
        else:
            self.next_time = None
            self._times = self._class_ids = self._sizes = []

    # -- feeder protocol (drain kernel) --------------------------------
    def pull_col(self, now: float) -> tuple:
        """Drain-inline counterpart of :meth:`_emit`, without the Packet.

        Returns ``(packet_id, class_id, size)`` for the pending arrival
        and reserves the next one's heap key where :meth:`_emit` would
        schedule it (see
        :meth:`~repro.traffic.source.TrafficSource.pull_col` for the
        idle-link ordering contract the drain loops uphold).
        """
        index = self._cursor
        pid = self.first_packet_id + index
        cid = self._class_ids[index]
        size = self._sizes[index]
        self._cursor = index = index + 1
        if index < self._count:
            sim = self.sim
            self.next_time = self._times[index]
            self.next_seq = sim._seq
            sim._seq += 1
        else:
            self.next_time = None
            self._times = self._class_ids = self._sizes = []
        return pid, cid, size

    def park(self, heap: list) -> None:
        """Push the virtually-held arrival back onto the calendar."""
        if self._virtual:
            self._virtual = False
            if self.next_time is not None:
                heapq.heappush(
                    heap, (self.next_time, self.next_seq, self._emit, None)
                )
