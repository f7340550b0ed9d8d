"""Compiled arrival streams: block-drawn traffic behind one cursor.

The scalar source path (:class:`~repro.traffic.source.TrafficSource`)
pays, per packet: a Generator method call for the gap, another for the
size, a Python callback dispatch, and a heap push/pop on the global
event calendar.  At the paper's operating point -- heavy-tailed sources
at 80-95% utilization -- arrivals are roughly half of all heap traffic,
so this module compiles them instead:

* Each source draws interarrival gaps and packet sizes in numpy
  blocks (:meth:`~repro.traffic.base.InterarrivalProcess.draw_gaps` /
  :meth:`~repro.traffic.base.PacketSizeSampler.draw_sizes`) of at most
  ``chunk`` and converts gaps to absolute timestamps with a
  carry-folded cumulative sum.
* Compiled streams feed one :class:`ArrivalCursor`, which merges them
  one time window at a time: every stream draws just past a common
  window end, and one stable sort orders the window's arrivals.  The
  cursor keeps exactly *one* outstanding event on the simulator heap
  (the globally next arrival) instead of one pending event per
  source, its memory is O(window) in total regardless of horizon or
  stream count, and a run draws about what it injects.

Equivalence contract
--------------------
The compiled path is bit-identical to the scalar path: block draws
consume each source's private random stream exactly like scalar draws
(see :mod:`repro.traffic.base`), and the carry-folded cumsum performs
the same left-to-right float additions as the scalar ``t += gap``
accumulation.  Two caveats, both satisfied by every in-repo call site
and by the :class:`~repro.sim.rng.RandomStreams` discipline:

* A source's interarrival process and size sampler must draw from
  *independent* generators (block drawing changes how their draws
  interleave, which is only invisible when the streams are separate).
* Sources whose arrivals collide at the exact same float timestamp are
  ordered by registration order on the cursor, whereas the scalar path
  orders them by event-scheduling sequence.  With continuous
  interarrival distributions exact collisions have probability zero.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf, nextafter
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, SchedulingError
from ..sim.engine import Simulator
from ..sim.link import Receiver, _chain_arrival
from ..sim.packet import Packet
from .base import InterarrivalProcess, PacketSizeSampler
from .source import PacketIdAllocator

__all__ = [
    "DEFAULT_CHUNK",
    "RateEnvelope",
    "CompiledSource",
    "CompiledMixedSource",
    "ArrivalCursor",
]


@dataclass(frozen=True)
class RateEnvelope:
    """Piecewise-constant per-class offered-rate envelope on a time grid.

    ``edges`` are ``bins + 1`` ascending bin edges; ``byte_rates`` is a
    ``(num_classes, bins)`` array of mean offered bytes per time unit
    within each bin.  The hybrid engine (:mod:`repro.sim.hybrid`) bins
    a recorded trace with :meth:`from_arrays`, measures each candidate
    fluid stretch's stationarity on the aggregate rate, and derives its
    transient boundaries from :meth:`change_points`.
    """

    edges: np.ndarray
    byte_rates: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.float64)
        if edges.ndim != 1 or len(edges) < 2:
            raise ConfigurationError("edges must be a 1-D array of >= 2 edges")
        if np.any(np.diff(edges) <= 0):
            raise ConfigurationError("edges must be strictly increasing")
        rates = self.byte_rates
        if rates.ndim != 2 or rates.shape[1] != len(edges) - 1:
            raise ConfigurationError(
                "byte_rates must be (num_classes, bins) with "
                "bins == len(edges) - 1"
            )
        if np.any(rates < 0):
            raise ConfigurationError("byte_rates must be non-negative")

    @property
    def num_classes(self) -> int:
        return int(self.byte_rates.shape[0])

    @property
    def bins(self) -> int:
        return int(self.byte_rates.shape[1])

    def aggregate_byte_rates(self) -> np.ndarray:
        """Per-bin offered bytes/unit summed over classes."""
        return self.byte_rates.sum(axis=0)

    def change_points(self, rel_jump: float = 0.25) -> list[float]:
        """Interior edges where the aggregate rate jumps.

        A bin boundary is a transient when the aggregate byte rate
        changes by more than ``rel_jump`` relative to the envelope's
        overall mean rate -- the normalization that keeps near-idle
        bins from flagging spurious transients.
        """
        if rel_jump <= 0:
            raise ConfigurationError(f"rel_jump must be positive: {rel_jump}")
        agg = self.aggregate_byte_rates()
        scale = float(agg.mean())
        if scale <= 0:
            return []
        jumps = np.abs(np.diff(agg)) > rel_jump * scale
        return [float(t) for t in self.edges[1:-1][jumps]]

    @classmethod
    def from_arrays(
        cls,
        times: np.ndarray,
        class_ids: np.ndarray,
        sizes: np.ndarray,
        horizon: float,
        bin_width: float,
        num_classes: Optional[int] = None,
    ) -> "RateEnvelope":
        """Binned empirical envelope of a recorded arrival stream."""
        if horizon <= 0 or bin_width <= 0:
            raise ConfigurationError("horizon and bin_width must be positive")
        bins = max(1, int(np.ceil(horizon / bin_width)))
        edges = np.linspace(0.0, bins * bin_width, bins + 1)
        if num_classes is None:
            num_classes = int(class_ids.max()) + 1 if len(class_ids) else 1
        byte_rates = np.zeros((num_classes, bins))
        for cid in range(num_classes):
            mask = class_ids == cid
            if not np.any(mask):
                continue
            byte_rates[cid], _ = np.histogram(
                times[mask], bins=edges, weights=sizes[mask]
            )
        byte_rates /= bin_width
        return cls(edges, byte_rates)

#: Gaps/sizes drawn per block at most: 16 Ki doubles = 128 KiB per
#: array, small enough that dozens of sources stay cache-friendly, large
#: enough that the per-block numpy overhead amortizes to a few ns per
#: arrival.
DEFAULT_CHUNK = 16384

#: Expected arrivals per merged window of an :class:`ArrivalCursor`,
#: summed over its streams.  Window size never changes the output; it
#: bounds the cursor's memory and the draws a run leaves unused.
WINDOW_ARRIVALS = DEFAULT_CHUNK


class _CompiledStream:
    """Block-drawn absolute-timestamp timeline of one source (base class).

    Subclasses draw each block's class ids and sizes in
    :meth:`_draw_payload`.  The timeline itself is shared logic: draw a
    block of gaps, fold the running carry into the first gap, and
    cumulative-sum -- which performs exactly the scalar path's
    left-to-right ``t += gap`` additions -- then truncate strictly below
    ``stop_time`` (the scalar sources' ``next_time < stop_time`` rule).
    An :class:`ArrivalCursor` takes the timeline one merged window at a
    time (:meth:`_take`); arrivals drawn past a window's end wait in
    ``_rest`` for the next window.
    """

    def __init__(
        self,
        target: Receiver,
        interarrivals: InterarrivalProcess,
        ids: Optional[PacketIdAllocator] = None,
        flow_id: Optional[int] = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        if stop_time is not None and stop_time <= start_time:
            raise ConfigurationError("stop_time must exceed start_time")
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1: {chunk}")
        self.target = target
        self.interarrivals = interarrivals
        self.ids = ids if ids is not None else PacketIdAllocator()
        self.flow_id = flow_id
        self.start_time = start_time
        self.stop_time = stop_time
        self.chunk = chunk
        self.packets_emitted = 0
        self.bytes_emitted = 0.0
        self._carry = start_time
        self._exhausted = False
        #: Drawn arrivals at or past the last window end, as one
        #: ``(times, class_ids, sizes)`` block, or ``None``.
        self._rest: Optional[tuple] = None
        #: Coupled chain member behind ``target`` during an active
        #: chain-fused drain; cached per chain epoch by the drain entry
        #: (see :meth:`ArrivalCursor.drain_batch`), ``None`` otherwise.
        self._chain_dcl = None

    # -- block draws ---------------------------------------------------
    def _draw_payload(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Class ids and sizes of the next ``count`` arrivals."""
        raise NotImplementedError

    def _draw(self, end: float) -> Optional[tuple]:
        """Draw the next block, sized to pass ``end``; ``None`` when the
        stream stops before its next arrival."""
        chunk = self.chunk
        stop = self.stop_time
        target = end if stop is None else min(end, stop)
        # Size the block to the expected arrivals before ``target``
        # (+10% headroom), capped at ``chunk``.  Block size never
        # changes the emitted stream -- draws are consumed in sequence
        # either way -- it only bounds the surplus drawn past ``end``.
        want = int((target - self._carry) / self.interarrivals.mean * 1.1) + 8
        if want < chunk:
            chunk = want
        gaps = self.interarrivals.draw_gaps(chunk)
        gaps[0] += self._carry
        times = np.cumsum(gaps)
        if stop is not None and times[-1] >= stop:
            times = times[: int(np.searchsorted(times, stop, side="left"))]
            self._exhausted = True
            if not len(times):
                return None
        self._carry = float(times[-1])
        return (times, *self._draw_payload(len(times)))

    def _take(self, end: float) -> list[tuple]:
        """Every arrival before ``end`` not yet taken, as
        ``(times, class_ids, sizes)`` blocks; draws until the stream's
        timeline passes ``end`` (or stops)."""
        blocks = []
        if self._rest is not None:
            blocks.append(self._rest)
            self._rest = None
        while self._carry < end and not self._exhausted:
            block = self._draw(end)
            if block is None:
                break
            blocks.append(block)
        if blocks:
            times, cids, sizes = blocks[-1]
            if times[-1] >= end:
                k = int(np.searchsorted(times, end, side="left"))
                self._rest = (times[k:], cids[k:], sizes[k:])
                if k:
                    blocks[-1] = (times[:k], cids[:k], sizes[:k])
                else:
                    blocks.pop()
        return blocks


class CompiledSource(_CompiledStream):
    """Block-drawn equivalent of :class:`~repro.traffic.source.TrafficSource`.

    One class, gaps from ``interarrivals``, sizes from ``sizes`` --
    producing the identical packet sequence (ids, times, sizes) when
    registered on an :class:`ArrivalCursor` as the scalar source
    produces through its per-arrival callbacks.
    """

    def __init__(
        self,
        target: Receiver,
        class_id: int,
        interarrivals: InterarrivalProcess,
        sizes: PacketSizeSampler,
        ids: Optional[PacketIdAllocator] = None,
        flow_id: Optional[int] = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        if class_id < 0:
            raise ConfigurationError(f"class_id must be >= 0: {class_id}")
        super().__init__(
            target, interarrivals, ids, flow_id, start_time, stop_time, chunk
        )
        self.class_id = class_id
        self.sizes = sizes

    def _draw_payload(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        return np.full(count, self.class_id), self.sizes.draw_sizes(count)

    @property
    def offered_rate_bytes(self) -> float:
        """Analytic offered load in bytes per time unit."""
        return self.sizes.mean / self.interarrivals.mean


class CompiledMixedSource(_CompiledStream):
    """Block-drawn equivalent of
    :class:`~repro.network.crosstraffic.MixedClassSource`: fixed packet
    size, per-packet class drawn from a finite distribution.
    """

    def __init__(
        self,
        target: Receiver,
        interarrivals: InterarrivalProcess,
        class_probabilities: Sequence[float],
        packet_size: float,
        rng: np.random.Generator,
        ids: Optional[PacketIdAllocator] = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        probs = np.asarray(class_probabilities, dtype=float)
        if probs.ndim != 1 or not len(probs):
            raise ConfigurationError("class_probabilities must be a 1-D sequence")
        if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"class probabilities must be non-negative and sum to 1: {probs}"
            )
        if packet_size <= 0:
            raise ConfigurationError(f"packet_size must be positive: {packet_size}")
        super().__init__(
            target, interarrivals, ids, None, start_time, stop_time, chunk
        )
        self._cum = np.cumsum(probs)
        self.packet_size = float(packet_size)
        self._rng = rng

    def _draw_payload(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        # Same uniforms, edges and clamp as MixedClassSource._emit.
        u = self._rng.random(count)
        indices = np.searchsorted(self._cum, u, side="right")
        np.minimum(indices, len(self._cum) - 1, out=indices)
        return indices, np.full(count, self.packet_size)


def _join(blocks: list[tuple]) -> tuple:
    """One ``(times, class_ids, sizes)`` block from consecutive ones."""
    return tuple(np.concatenate(col) for col in zip(*blocks))


def _drop_before(
    streams: list[_CompiledStream],
    end: float,
    cutoff: Callable[[list], Optional[float]],
) -> int:
    """Drop the arrivals of ``streams`` before the cutoff that
    ``cutoff`` reports over their merged times before ``end`` (see
    :meth:`ArrivalCursor.drop_before`); returns how many it dropped."""
    live = [s for s in streams if s._rest is not None or not s._exhausted]
    if not live:
        return 0
    span = WINDOW_ARRIVALS / sum(1.0 / s.interarrivals.mean for s in live)
    lower = min(
        s._carry if s._rest is None else float(s._rest[0][0]) for s in live
    )
    held: list[list[tuple]] = [[] for _ in streams]
    dropped = 0
    while lower < end:
        upper = min(lower + span, end)
        if upper <= lower:
            upper = nextafter(lower, inf)
        taken = [s._take(upper) for s in streams]
        times = [block[0] for blocks in taken for block in blocks]
        for kept, blocks in zip(held, taken):
            kept.extend(blocks)
        if times:
            cut = cutoff(np.sort(np.concatenate(times)).tolist())
            if cut is not None:
                for j, kept in enumerate(held):
                    if kept:
                        block = _join(kept)
                        k = int(np.searchsorted(block[0], cut, side="left"))
                        dropped += k
                        held[j] = [tuple(col[k:] for col in block)]
        lower = upper
    for stream, kept in zip(streams, held):
        if stream._rest is not None:
            kept.append(stream._rest)
        kept = [block for block in kept if len(block[0])]
        stream._rest = _join(kept) if kept else None
    return dropped


class ArrivalCursor:
    """Merged injection cursor over compiled streams.

    Merges its streams one time *window* at a time.  At each refill
    every stream draws just far enough to pass a common window end,
    placed so the window holds about :data:`WINDOW_ARRIVALS` arrivals
    in total (from the streams' analytic mean gaps).  The window's
    arrivals, concatenated in registration order, are sorted by one
    stable ``argsort`` on time -- exactly the order of a heap keyed on
    ``(time, registration order)`` -- and walked as flat
    time/class/size/stream lists by index.  Memory is O(window) in
    total, however many streams there are, and what a run draws but
    never injects is about one window plus each stream's block
    headroom.

    The cursor keeps exactly one pending event on the simulator
    calendar: the globally next arrival.  Each calendar firing injects
    a *batch*: after emitting the due arrival it keeps going --
    advancing ``sim.now`` itself -- for as long as the next merged
    arrival stays within the run horizon and strictly before every
    pending calendar event, and only then reschedules one event for the
    next arrival.  For closely spaced streams (small-gap CBR/on-off)
    this removes the per-arrival calendar push/pop and run-loop
    dispatch that used to make the compiled path *slower* than scalar
    sources.  Ties with a calendar event defer to the calendar (the
    cursor reschedules and the run loop interleaves by sequence number,
    exactly as before).

    Mirror protocol (chain drains)
    ------------------------------
    The cursor mirrors its single pending calendar event's ``(time,
    seq)`` key in ``next_time`` / ``next_seq`` -- the same contract as
    fused feeders (see :mod:`repro.sim.link`) -- and registers itself
    on every distinct target link at :meth:`start`.  A chain-fused
    drain absorbs the event when it is the global heap minimum and
    then calls :meth:`drain_batch`, which runs the batch-injection
    loop inline against an *emulated* calendar minimum so batch
    boundaries (and therefore sequence-number consumption) stay
    bit-identical to an evented run; :meth:`park` restores the real
    event with the identical key.

    Between runs, :meth:`drop_before` drops a target's arrivals before
    a cutoff found by scanning them, without injecting them: Table 1's
    idle-instant skips (:func:`~repro.network.multihop.run_multihop`).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._streams: list[_CompiledStream] = []
        self._started = False
        self.packets_injected = 0
        #: Heap key of the pending calendar event (feeder mirror
        #: protocol); ``next_time is None`` means nothing is pending.
        self.next_time: Optional[float] = None
        self.next_seq = 0
        self._virtual = False
        #: Chain-epoch marker: the ``coupled`` dict the streams'
        #: ``_chain_dcl`` caches were resolved against.
        self._dcl_for = None
        #: The merged window: parallel time, class id, size and stream
        #: lists, walked by index ``_i``.
        self._window: tuple[list, list, list, list] = ([], [], [], [])
        self._i = 0
        #: Streams that can still reach a later window.
        self._live: list[_CompiledStream] = []
        #: Window positions of the final arrivals of the streams that
        #: end in the current window.
        self._tails: list[int] = []

    def add(self, stream: _CompiledStream) -> _CompiledStream:
        """Register a compiled stream.  Returns it for chaining."""
        if self._started:
            raise ConfigurationError(
                "cannot add streams after the cursor started"
            )
        self._streams.append(stream)
        return stream

    def start(self) -> None:
        """Schedule the first merged arrival.  Idempotent."""
        if self._started:
            return
        self._started = True
        for stream in self._streams:
            # Register with the target for chain-drain absorption;
            # plain receivers (sinks, demuxes) have no _attach_cursor.
            attach = getattr(stream.target, "_attach_cursor", None)
            if attach is not None:
                attach(self)
        self._live = list(self._streams)
        self._arm()

    def _arm(self) -> None:
        """Load the next window and schedule its first arrival."""
        if self._refill():
            sim = self.sim
            first = self._window[0][0]
            self.next_time = first
            self.next_seq = sim._seq
            sim.schedule(first, self._fire)

    def drop_before(
        self,
        end: float,
        cutoffs: Mapping[Receiver, Callable[[list], Optional[float]]],
    ) -> dict[Receiver, int]:
        """Drop each listed target's arrivals before its cutoff.

        Call with the calendar at rest (between
        :meth:`~repro.sim.engine.Simulator.run` calls).  The arrivals
        that the streams of each target in ``cutoffs`` would inject
        before ``end`` are drawn one window at a time, and each
        window's arrival times, merged in time order, go as a list to
        ``cutoffs[target]``.  It returns the target's latest cutoff, or
        ``None`` when that window moves it nowhere.  The target's
        arrivals before the latest cutoff are dropped: drawn, but never
        injected, given no packet id or stream count.  Arrivals at or
        after ``end`` are never dropped.  Only the arrivals from the
        latest cutoff on are held, so memory stays one window plus the
        span after the cutoff, however far off ``end`` is.  Every
        stream draws the same values, in the same order, as it would
        without the drop.

        The current window's un-injected arrivals go back to their
        streams first, so every kept arrival is injected in the same
        order as before.  The cursor's one calendar event is then
        re-armed at the earliest kept arrival under a fresh sequence
        number.  Returns the number of arrivals dropped per listed
        target.
        """
        sim = self.sim
        if not self._started or sim._running or self._virtual:
            raise SchedulingError(
                "drop_before needs a started cursor and the calendar at rest"
            )
        self._spill_window()
        streams = self._streams
        dropped = {
            target: _drop_before(
                [s for s in streams if s.target is target], end, cutoff
            )
            for target, cutoff in cutoffs.items()
        }
        if self.next_time is not None:
            heap = sim._heap
            seq = self.next_seq
            k = next(k for k, entry in enumerate(heap) if entry[1] == seq)
            del heap[k]
            heapq.heapify(heap)
            self.next_time = None
        self._live = [
            s for s in streams if s._rest is not None or not s._exhausted
        ]
        self._arm()
        return dropped

    def _spill_window(self) -> None:
        """Hand the current window's un-injected arrivals back to their
        streams, ahead of what each drew past the window, and empty the
        window (its lists are freed on return)."""
        times, cids, sizes, owners = self._window
        i = self._i
        self._window = ([], [], [], [])
        self._i = 0
        self._tails = []
        if i == len(times):
            return
        streams = self._streams
        # The window is sorted stably by time, so a stable sort by
        # stream keeps each stream's arrivals in time order.
        rank = {stream: j for j, stream in enumerate(streams)}
        keys = np.array([rank[stream] for stream in owners[i:]])
        order = np.argsort(keys, kind="stable")
        cols = [np.array(col[i:])[order] for col in (times, cids, sizes)]
        edges = np.searchsorted(keys[order], np.arange(len(streams) + 1))
        for j, stream in enumerate(streams):
            lo, hi = edges[j], edges[j + 1]
            if lo < hi:
                block = tuple(col[lo:hi] for col in cols)
                if stream._rest is not None:
                    block = _join([block, stream._rest])
                stream._rest = block

    def _refill(self) -> bool:
        """Load the next non-empty window; False when every stream is
        done (the window is then empty)."""
        live = self._live
        blocks: list[tuple] = []
        while live and not blocks:
            # The window opens at the earliest arrival a live stream can
            # still make (its drawn head, or the carry it draws from)
            # and spans about WINDOW_ARRIVALS arrivals at mean rates.
            rate = 0.0
            lower = inf
            for s in live:
                rate += 1.0 / s.interarrivals.mean
                head = s._carry if s._rest is None else float(s._rest[0][0])
                if head < lower:
                    lower = head
            end = lower + WINDOW_ARRIVALS / rate
            if end <= lower:
                end = nextafter(lower, inf)
            owners: list[_CompiledStream] = []
            counts: list[int] = []
            ending: list[int] = []
            still = []
            for s in live:
                taken = s._take(end)
                if taken:
                    blocks.extend(taken)
                    owners.append(s)
                    counts.append(sum(len(b[0]) for b in taken))
                if not s._exhausted or s._rest is not None:
                    still.append(s)
                elif taken:
                    ending.append(len(owners) - 1)
            self._live = live = still
        self._i = 0
        if not blocks:
            self._window = ([], [], [], [])
            self._tails = []
            return False
        times = np.concatenate([b[0] for b in blocks])
        # Stable: equal times keep concatenation (= registration) order,
        # the tie-break of a heap keyed on (time, registration order).
        order = np.argsort(times, kind="stable")
        owner_ids = np.repeat(np.arange(len(owners)), counts)[order]
        table = np.empty(len(owners), dtype=object)
        table[:] = owners
        self._window = (
            times[order].tolist(),
            np.concatenate([b[1] for b in blocks])[order].tolist(),
            np.concatenate([b[2] for b in blocks])[order].tolist(),
            table[owner_ids].tolist(),
        )
        self._tails = [int(np.flatnonzero(owner_ids == j)[-1]) for j in ending]
        return True

    def _fire(self) -> None:
        sim = self.sim
        sim_heap = sim._heap
        until = sim._run_until
        times, cids, sizes, owners = self._window
        i = self._i
        n = len(times)
        injected = 0
        while True:
            stream = owners[i]
            size = sizes[i]
            packet = Packet(
                next(stream.ids._counter), cids[i], size, times[i],
                stream.flow_id,
            )
            stream.packets_emitted += 1
            stream.bytes_emitted += size
            injected += 1
            i += 1
            stream.target.receive(packet)
            if i == n:
                i = 0
                if not self._refill():
                    self.next_time = None
                    break
                times, cids, sizes, owners = self._window
                n = len(times)
            nxt = times[i]
            if nxt > until or (sim_heap and sim_heap[0][0] <= nxt):
                self.next_time = nxt
                self.next_seq = sim._seq
                sim.schedule(nxt, self._fire)
                break
            sim.now = nxt
        self._i = i
        self.packets_injected += injected

    def park(self, heap: list) -> None:
        """Re-push the pending arrival event after virtual absorption.

        The pushed entry is bit-identical to the one an evented run
        would hold (same time, same reserved sequence number, same
        callback), so the calendar state after a chain-drain park is
        indistinguishable from the evented path's.  No-op unless the
        cursor's event was absorbed (``_virtual``).
        """
        if self._virtual:
            self._virtual = False
            if self.next_time is not None:
                heapq.heappush(
                    heap, (self.next_time, self.next_seq, self._fire, None)
                )

    def drain_batch(self, now, until, sim_heap, fused_heap, coupled) -> bool:
        """Inline one :meth:`_fire` batch from a chain-fused drain.

        ``now`` is the absorbed event's timestamp (``sim.now`` is
        already there); ``fused_heap`` holds the drain's pending
        ``(time, seq, ...)`` events, which together with ``sim_heap``
        reproduce exactly the calendar an evented run would consult --
        so the batch boundary test (and hence every ``sim._seq``
        consumption) is bit-identical to :meth:`_fire`.  Emissions
        whose target is a coupled chain member (``coupled``, the
        drain's id -> member map) enter its class column as scalars,
        with no Packet built (inline enqueue, or
        :func:`~repro.sim.link._chain_arrival` when the member must
        start service); all others get a Packet through plain
        ``receive``.
        Returns True when a next arrival was reserved (mirror updated,
        virtual); False when the cursor is exhausted.
        """
        sim = self.sim
        times, cids, sizes, owners = self._window
        i = self._i
        n = len(times)
        injected = 0
        reserved = True
        if self._dcl_for is not coupled:
            # New chain epoch: re-resolve each stream's target against
            # this chain's coupled-member map once, so the per-packet
            # path below is a single attribute load.
            self._dcl_for = coupled
            for s in self._streams:
                s._chain_dcl = coupled.get(id(s.target))
        # The earliest foreign event bounds the batch.  Neither heap
        # can change under the inline-enqueue fast path below, so the
        # bound is hoisted and recomputed only after a dispatch that
        # may schedule (receive) or push a fused completion
        # (_chain_arrival).
        m = sim_heap[0][0] if sim_heap else inf
        if fused_heap and fused_heap[0][0] < m:
            m = fused_heap[0][0]
        while True:
            stream = owners[i]
            cid = cids[i]
            size = sizes[i]
            pid = next(stream.ids._counter)
            stream.packets_emitted += 1
            stream.bytes_emitted += size
            injected += 1
            i += 1
            dcl = stream._chain_dcl
            if dcl is not None:
                # -- columnar emit: the arrival enters the member's
                # per-class column as scalars; no Packet is built.  The
                # window time equals the absorbed key, so created ==
                # arrived == now and an int meta (flow-less) loses
                # nothing.
                fid = stream.flow_id
                meta = pid if fid is None else (pid, fid, now, ())
                L = dcl.link
                if L.busy:
                    # Busy member: inline columnar enqueue (the
                    # dominant case at high utilization).
                    L.arrivals += 1
                    if not 0 <= cid < dcl.nclasses:
                        raise SchedulingError(
                            f"packet class {cid} out of range "
                            f"[0, {dcl.nclasses})"
                        )
                    if dcl.heads[cid] == inf:
                        dcl.heads[cid] = now
                    dcl.ccols[cid].extend((now, size, meta))
                    dcl.backlog[cid] += size
                    dcl.queues.total_packets += 1
                    if dcl.on_enqueue is not None:
                        dcl.on_enqueue(cid, size, meta, now)
                else:
                    _chain_arrival(dcl, cid, size, meta, now, sim, fused_heap)
                    m = sim_heap[0][0] if sim_heap else inf
                    if fused_heap and fused_heap[0][0] < m:
                        m = fused_heap[0][0]
            else:
                stream.target.receive(
                    Packet(pid, cid, size, now, stream.flow_id)
                )
                m = sim_heap[0][0] if sim_heap else inf
                if fused_heap and fused_heap[0][0] < m:
                    m = fused_heap[0][0]
            if i == n:
                i = 0
                if not self._refill():
                    self.next_time = None
                    reserved = False
                    break
                times, cids, sizes, owners = self._window
                n = len(times)
            nxt = times[i]
            if nxt > until or m <= nxt:
                s = sim._seq
                sim._seq = s + 1
                self.next_time = nxt
                self.next_seq = s
                self._virtual = True
                break
            now = nxt
            sim.now = nxt
        self._i = i
        self.packets_injected += injected
        return reserved

    @property
    def pending_sources(self) -> int:
        """Streams that still have arrivals to inject: O(streams)."""
        if not self._started:
            return len(self._streams)
        i = self._i
        return len(self._live) + sum(1 for t in self._tails if t >= i)
