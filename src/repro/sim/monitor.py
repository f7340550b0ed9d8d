"""Measurement instruments attached to links.

Observer protocol.  Every completion path of a link calls
``on_departure(packet_id, class_id, size, flow_id, delay, now)`` with
scalars on each object attached by
:meth:`~repro.sim.link.Link.add_monitor`: ``delay`` is the queueing
delay at this hop (``service_start - arrived_at``) and ``flow_id`` is
``None`` for unflowed traffic.  No observer needs a ``Packet``, so
none forces the drain kernels to build one.

Three instruments cover everything the paper's evaluation needs:

* :class:`DelayMonitor` -- long-term per-class queueing-delay averages
  with a warm-up cutoff (Figures 1 and 2).
* :class:`IntervalDelayMonitor` -- per-class average delays in
  consecutive intervals of a fixed monitoring timescale tau
  (Figure 3's R_D distributions and the "microscopic view I" plots).
* :class:`PacketTap` -- raw (departure time, class, delay) samples in a
  time window (the "microscopic view II" per-packet plots).

All delays are *queueing* delays: arrival at the hop to start of
service, the quantity the paper plots throughout.

Storage discipline: per-departure state updates are streaming scalar
aggregation (constant work, no per-packet allocation); anything that
accumulates a *series* -- kept delay samples, finished intervals, tap
rows -- lands in a preallocated numpy buffer grown by amortized
doubling (:class:`_SampleBuffer`), so post-processing (percentiles,
interval means, IPDV) runs vectorized on contiguous arrays instead of
converting Python lists first.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "DelayMonitor",
    "IntervalDelayMonitor",
    "PacketTap",
    "ClassDelayStats",
    "BacklogSampler",
    "ThroughputMonitor",
]


class _SampleBuffer:
    """Preallocated numpy buffer grown by amortized doubling.

    1-D for scalar series (``columns=0``) or 2-D with a fixed row width.
    ``view()`` returns the filled prefix without copying.
    """

    __slots__ = ("data", "size")

    def __init__(
        self,
        columns: int = 0,
        capacity: int = 256,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        shape = (capacity, columns) if columns else capacity
        self.data = np.empty(shape, dtype=dtype)
        self.size = 0

    def append(self, value) -> None:
        """Append one scalar (1-D) or one row (2-D)."""
        size = self.size
        if size == len(self.data):
            self.data = np.concatenate([self.data, np.empty_like(self.data)])
        self.data[size] = value
        self.size = size + 1

    def view(self) -> np.ndarray:
        """The filled prefix (a no-copy view; do not resize while held)."""
        return self.data[: self.size]

    def __len__(self) -> int:
        return self.size


class ClassDelayStats:
    """Streaming summary of one class's queueing delays."""

    __slots__ = ("count", "total", "total_sq", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, delay: float) -> None:
        self.count += 1
        self.total += delay
        self.total_sq += delay * delay
        if delay < self.min:
            self.min = delay
        if delay > self.max:
            self.max = delay

    @property
    def mean(self) -> float:
        """Average delay; NaN when no packet departed yet."""
        return self.total / self.count if self.count else math.nan

    @property
    def variance(self) -> float:
        """Population variance; NaN when fewer than one sample."""
        if not self.count:
            return math.nan
        mean = self.total / self.count
        return max(self.total_sq / self.count - mean * mean, 0.0)


class DelayMonitor:
    """Long-term per-class average queueing delays with warm-up."""

    def __init__(
        self,
        num_classes: int,
        warmup: float = 0.0,
        keep_samples: bool = False,
    ) -> None:
        if num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        if warmup < 0:
            raise ConfigurationError("warmup must be non-negative")
        self.num_classes = num_classes
        self.warmup = warmup
        self.keep_samples = keep_samples
        self.stats = [ClassDelayStats() for _ in range(num_classes)]
        self._samples = [_SampleBuffer() for _ in range(num_classes)]

    def on_departure(
        self, packet_id, class_id, size, flow_id, delay, now
    ) -> None:
        if now < self.warmup:
            return
        self.stats[class_id].add(delay)
        if self.keep_samples:
            self._samples[class_id].append(delay)

    # ------------------------------------------------------------------
    @property
    def samples(self) -> list[np.ndarray]:
        """Per class, the kept delay samples as numpy views."""
        return [buf.view() for buf in self._samples]

    def mean_delay(self, class_id: int) -> float:
        """Long-term average queueing delay of a class (NaN if idle)."""
        return self.stats[class_id].mean

    def mean_delays(self) -> list[float]:
        """Average delay per class, in class order."""
        return [s.mean for s in self.stats]

    def counts(self) -> list[int]:
        """Departed-packet count per class (after warm-up)."""
        return [s.count for s in self.stats]

    def successive_ratios(self) -> list[float]:
        """d_i / d_{i+1} for each successive class pair (paper Figs 1-2).

        IEEE division: a class whose mean delay is exactly 0.0 (every
        packet found the link idle, common at very low load) gives
        ``+inf`` under a positive mean and ``nan`` under a zero one, and
        a ``nan`` mean (no departures) propagates.
        """
        means = np.array(self.mean_delays())
        with np.errstate(divide="ignore", invalid="ignore"):
            return (means[:-1] / means[1:]).tolist()

    def percentile(self, class_id: int, q: float) -> float:
        """Delay percentile (requires ``keep_samples=True``)."""
        if not self.keep_samples:
            raise ConfigurationError("percentile() needs keep_samples=True")
        data = self._samples[class_id].view()
        if not len(data):
            return math.nan
        return float(np.percentile(data, q))

    def jitter(self, class_id: int) -> float:
        """Delay standard deviation of a class (population; NaN if idle).

        Complements the mean-based proportional model: BPR's sawtooth
        shows up as per-class jitter even where its means look fine.
        """
        variance = self.stats[class_id].variance
        return math.sqrt(variance) if not math.isnan(variance) else math.nan


class IntervalDelayMonitor:
    """Per-class delay averages over consecutive intervals of length tau.

    Interval k covers departures in [k*tau, (k+1)*tau).  The open
    interval accumulates streaming per-class (sum, count) scalars;
    each finished interval is flushed as one row into numpy buffers, so
    :meth:`interval_means` is a single vectorized divide instead of a
    per-interval Python loop.
    """

    def __init__(self, num_classes: int, tau: float, warmup: float = 0.0) -> None:
        if tau <= 0:
            raise ConfigurationError("tau must be positive")
        if warmup < 0:
            raise ConfigurationError("warmup must be non-negative")
        self.num_classes = num_classes
        self.tau = tau
        self.warmup = warmup
        self._current_index: Optional[int] = None
        self._sums = [0.0] * num_classes
        self._counts = [0] * num_classes
        self._indices = _SampleBuffer(dtype=np.int64)
        self._interval_sums = _SampleBuffer(columns=num_classes)
        self._interval_counts = _SampleBuffer(columns=num_classes, dtype=np.int64)

    def on_departure(
        self, packet_id, class_id, size, flow_id, delay, now
    ) -> None:
        if now < self.warmup:
            return
        index = int(now // self.tau)
        if self._current_index is None:
            self._current_index = index
        elif index != self._current_index:
            self._flush()
            self._current_index = index
        self._sums[class_id] += delay
        self._counts[class_id] += 1

    def _flush(self) -> None:
        if self._current_index is not None and any(self._counts):
            self._indices.append(self._current_index)
            self._interval_sums.append(self._sums)
            self._interval_counts.append(self._counts)
            self._sums = [0.0] * self.num_classes
            self._counts = [0] * self.num_classes

    def finalize(self) -> None:
        """Flush the last open interval (call once, at end of run)."""
        self._flush()
        self._current_index = None

    @property
    def intervals(self) -> list[tuple[int, list[float], list[int]]]:
        """Finished intervals as (index, sums, counts) triples."""
        return [
            (int(index), list(sums), [int(c) for c in counts])
            for index, sums, counts in zip(
                self._indices.view(),
                self._interval_sums.view(),
                self._interval_counts.view(),
            )
        ]

    def interval_indices(self) -> np.ndarray:
        """Indices of the finished intervals (int64 view)."""
        return self._indices.view()

    def interval_means(self) -> np.ndarray:
        """(num_intervals, num_classes) array of means, NaN if inactive."""
        sums = self._interval_sums.view()
        if not len(sums):
            return np.empty((0, self.num_classes))
        counts = self._interval_counts.view()
        means = np.full(sums.shape, math.nan)
        np.divide(sums, counts, out=means, where=counts > 0)
        return means


class ThroughputMonitor:
    """Per-class departed bytes in consecutive intervals of length tau.

    The service-rate counterpart of :class:`IntervalDelayMonitor`: shows
    how a scheduler redistributes bandwidth across classes over time
    (e.g. BPR's backlog-proportional rates visibly tracking bursts).
    """

    def __init__(self, num_classes: int, tau: float, warmup: float = 0.0) -> None:
        if tau <= 0:
            raise ConfigurationError("tau must be positive")
        self.num_classes = num_classes
        self.tau = tau
        self.warmup = warmup
        self._current_index: Optional[int] = None
        self._bytes = [0.0] * num_classes
        self._indices = _SampleBuffer(dtype=np.int64)
        self._interval_bytes = _SampleBuffer(columns=num_classes)

    def on_departure(
        self, packet_id, class_id, size, flow_id, delay, now
    ) -> None:
        if now < self.warmup:
            return
        index = int(now // self.tau)
        if self._current_index is None:
            self._current_index = index
        elif index != self._current_index:
            self._flush()
            self._current_index = index
        self._bytes[class_id] += size

    def _flush(self) -> None:
        if self._current_index is not None and any(self._bytes):
            self._indices.append(self._current_index)
            self._interval_bytes.append(self._bytes)
            self._bytes = [0.0] * self.num_classes

    def finalize(self) -> None:
        """Flush the last open interval (call once, at end of run)."""
        self._flush()
        self._current_index = None

    @property
    def intervals(self) -> list[tuple[int, list[float]]]:
        """Finished intervals as (index, per-class bytes) pairs."""
        return [
            (int(index), list(row))
            for index, row in zip(
                self._indices.view(), self._interval_bytes.view()
            )
        ]

    def rates(self) -> np.ndarray:
        """(num_intervals, num_classes) byte-per-time-unit rates."""
        if not len(self._indices):
            return np.empty((0, self.num_classes))
        return self._interval_bytes.view() / self.tau


class BacklogSampler:
    """Samples per-class queue backlogs at a fixed period.

    Unlike the departure-driven monitors, this one polls the scheduler's
    queues on the simulator clock, capturing the backlog trajectory the
    BPR analysis (Proposition 1) is stated in terms of.  Attach with
    :meth:`attach`, which schedules the sampling loop.
    """

    def __init__(self, period: float, horizon: float) -> None:
        if period <= 0 or horizon <= 0:
            raise ConfigurationError("period and horizon must be positive")
        self.period = period
        self.horizon = horizon
        self.times: list[float] = []
        #: One row per sample: bytes queued per class.
        self.samples: list[list[float]] = []
        self._link = None
        self._sim = None

    def attach(self, sim, link) -> None:
        """Start sampling ``link``'s scheduler queues on ``sim``."""
        self._sim = sim
        self._link = link
        sim.schedule(sim.now + self.period, self._sample)

    def _sample(self) -> None:
        queues = self._link.scheduler.queues
        self.times.append(self._sim.now)
        self.samples.append(list(queues.bytes_backlog))
        next_time = self._sim.now + self.period
        if next_time <= self.horizon:
            self._sim.schedule(next_time, self._sample)

    def as_array(self) -> np.ndarray:
        """(num_samples, num_classes) backlog matrix."""
        if not self.samples:
            return np.empty((0, 0))
        return np.asarray(self.samples)


class PacketTap:
    """Raw per-packet samples inside a departure-time window."""

    def __init__(
        self,
        num_classes: int,
        start: float = 0.0,
        end: float = math.inf,
    ) -> None:
        if end <= start:
            raise ConfigurationError("tap window must have end > start")
        self.num_classes = num_classes
        self.start = start
        self.end = end
        self._buffers = [_SampleBuffer(columns=2) for _ in range(num_classes)]

    def on_departure(
        self, packet_id, class_id, size, flow_id, delay, now
    ) -> None:
        if self.start <= now < self.end:
            self._buffers[class_id].append((now, delay))

    @property
    def samples(self) -> list[list[tuple[float, float]]]:
        """Per class: list of (departure_time, queueing_delay) tuples."""
        return [
            [tuple(row) for row in buf.view().tolist()]
            for buf in self._buffers
        ]

    def samples_array(self, class_id: int) -> np.ndarray:
        """(n, 2) array of (departure_time, delay) rows (no copy)."""
        return self._buffers[class_id].view()

    def ipdv(self, class_id: int) -> float:
        """Inter-packet delay variation (RFC 3393 flavour): the mean
        absolute delay difference between consecutive departures of the
        class inside the tap window.  NaN with fewer than 2 samples."""
        rows = self._buffers[class_id].view()
        if len(rows) < 2:
            return math.nan
        return float(np.abs(np.diff(rows[:, 1])).mean())
