"""Bit-equivalence of the compiled (block-drawn) arrival path.

The compiled path's contract is *bit-identity*: every gap, size and
timestamp equals the scalar path's to the last ulp, so the golden
corpus and every seeded experiment are unaffected by which path runs.
These tests pin that contract for all five interarrival processes and
both size samplers, across chunk boundaries, interleaved scalar/block
draws, stop-time truncation, and full source-into-link emission.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.traffic.compile as compiled_arrivals
from repro.network import MultiHopConfig, run_multihop
from repro.sim.engine import Simulator
from repro.sim.rng import BufferedExponentials
from repro.traffic import (
    DEFAULT_CHUNK,
    ArrivalCursor,
    CompiledMixedSource,
    CompiledSource,
    ConstantInterarrivals,
    DiscretePacketSizes,
    FixedPacketSize,
    InterarrivalProcess,
    MMPPInterarrivals,
    OnOffInterarrivals,
    PacketIdAllocator,
    ParetoInterarrivals,
    PoissonInterarrivals,
    TrafficSource,
    paper_trimodal_sizes,
)
from repro.network.crosstraffic import MixedClassSource
from repro.traffic.trace import build_class_trace

pytestmark = pytest.mark.property


def make_process(kind: str, seed: int) -> InterarrivalProcess:
    rng = np.random.default_rng(seed)
    if kind == "pareto":
        return ParetoInterarrivals(0.01, 1.9, rng)
    if kind == "poisson":
        return PoissonInterarrivals(0.01, rng)
    if kind == "cbr":
        return ConstantInterarrivals(0.01)
    if kind == "onoff":
        return OnOffInterarrivals(
            peak_gap=0.002, mean_on=0.05, mean_off=0.03, rng=rng
        )
    if kind == "mmpp":
        return MMPPInterarrivals(
            rate_a=100.0, rate_b=400.0,
            mean_sojourn_a=0.1, mean_sojourn_b=0.05, rng=rng,
        )
    raise AssertionError(kind)


PROCESS_KINDS = ["pareto", "poisson", "cbr", "onoff", "mmpp"]


class RecordingSink:
    """Receiver stub capturing the full packet stream."""

    def __init__(self) -> None:
        self.packets: list[tuple] = []

    def receive(self, packet) -> None:
        self.packets.append(
            (
                packet.packet_id,
                packet.class_id,
                packet.size,
                packet.created_at,
                packet.flow_id,
            )
        )


class TestBlockDraws:
    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    @given(seed=st.integers(0, 2**32 - 1), split=st.integers(1, 199))
    @settings(max_examples=20, deadline=None)
    def test_draw_gaps_bit_identical_across_splits(self, kind, seed, split):
        """Any block split, with scalar draws interleaved, matches the
        pure scalar sequence value-for-value."""
        scalar = make_process(kind, seed)
        blocked = make_process(kind, seed)
        expected = [scalar.next_gap() for _ in range(200)]
        got = list(blocked.draw_gaps(split))
        got.append(blocked.next_gap())
        got.extend(blocked.draw_gaps(200 - split - 1))
        assert got[:200] == expected

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_discrete_sizes_bit_identical(self, seed):
        scalar = paper_trimodal_sizes(np.random.default_rng(seed))
        blocked = paper_trimodal_sizes(np.random.default_rng(seed))
        expected = [scalar.next_size() for _ in range(300)]
        got = list(blocked.draw_sizes(123))
        got.append(blocked.next_size())
        got.extend(blocked.draw_sizes(176))
        assert got == expected

    def test_fixed_sizes_block(self):
        sampler = FixedPacketSize(500.0)
        assert (sampler.draw_sizes(7) == 500.0).all()

    def test_base_class_fallback_matches_scalar(self):
        """A process that only implements next_gap still block-draws
        correctly through the base-class fallback."""

        class Alternating(InterarrivalProcess):
            def __init__(self) -> None:
                self._flip = False

            def next_gap(self) -> float:
                self._flip = not self._flip
                return 1.0 if self._flip else 2.0

            @property
            def mean(self) -> float:
                return 1.5

        process = Alternating()
        assert process.draw_gaps(4).tolist() == [1.0, 2.0, 1.0, 2.0]
        assert process.next_gap() == 1.0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_buffered_exponentials_match_generator(self, seed):
        """draw(scale) reproduces rng.exponential(scale) exactly, for
        varying scales, across the prefetch-block boundary."""
        direct = np.random.default_rng(seed)
        buffered = BufferedExponentials(np.random.default_rng(seed), block=7)
        scales = [0.5, 2.0, 1.0 / 3.0, 10.0]
        for i in range(40):
            scale = scales[i % len(scales)]
            assert buffered.draw(scale) == direct.exponential(scale)


class TestCompiledTrace:
    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    @given(seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 64))
    @settings(max_examples=10, deadline=None)
    def test_build_class_trace_matches_scalar(self, kind, seed, chunk):
        """Compiled == scalar for every process, including tiny chunks
        that force many block boundaries before the horizon."""
        sizes_a = paper_trimodal_sizes(np.random.default_rng(seed + 1))
        sizes_b = paper_trimodal_sizes(np.random.default_rng(seed + 1))
        scalar = build_class_trace(
            2, make_process(kind, seed), sizes_a, horizon=1.0, compiled=False
        )
        compiled = build_class_trace(
            2, make_process(kind, seed), sizes_b, horizon=1.0,
            compiled=True, chunk=chunk,
        )
        assert (compiled.times == scalar.times).all()
        assert (compiled.sizes == scalar.sizes).all()
        assert (compiled.class_ids == scalar.class_ids).all()

    def test_horizon_before_first_arrival_gives_empty_trace(self):
        process = ConstantInterarrivals(5.0)
        trace = build_class_trace(
            0, process, FixedPacketSize(1.0), horizon=1.0, compiled=True
        )
        assert len(trace) == 0

    def test_truncation_exactly_at_chunk_boundary(self):
        """Horizon falling exactly on a block's last timestamp keeps the
        strict `< horizon` rule (the boundary arrival is dropped)."""
        process = ConstantInterarrivals(1.0)
        trace = build_class_trace(
            0, process, FixedPacketSize(1.0), horizon=8.0,
            compiled=True, chunk=4,
        )
        scalar = build_class_trace(
            0, ConstantInterarrivals(1.0), FixedPacketSize(1.0),
            horizon=8.0, compiled=False,
        )
        assert trace.times.tolist() == scalar.times.tolist()
        assert trace.times[-1] < 8.0

    def test_start_time_carry_folds_into_first_block(self):
        scalar = build_class_trace(
            0, ConstantInterarrivals(0.5), FixedPacketSize(1.0),
            horizon=20.0, start_time=3.0, compiled=False,
        )
        compiled = build_class_trace(
            0, ConstantInterarrivals(0.5), FixedPacketSize(1.0),
            horizon=20.0, start_time=3.0, compiled=True, chunk=5,
        )
        assert (compiled.times == scalar.times).all()


class TestCompiledSources:
    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_compiled_source_emits_identical_stream(self, kind):
        """CompiledSource behind a cursor == TrafficSource, packet for
        packet (ids, classes, sizes, timestamps), incl. stop_time."""
        seed = 7
        scalar_sink, compiled_sink = RecordingSink(), RecordingSink()

        sim_a = Simulator()
        TrafficSource(
            sim_a, scalar_sink, 1,
            make_process(kind, seed),
            paper_trimodal_sizes(np.random.default_rng(99)),
            ids=PacketIdAllocator(), flow_id=5,
            start_time=0.01, stop_time=0.8,
        ).start()
        sim_a.run()

        sim_b = Simulator()
        cursor = ArrivalCursor(sim_b)
        cursor.add(
            CompiledSource(
                compiled_sink, 1,
                make_process(kind, seed),
                paper_trimodal_sizes(np.random.default_rng(99)),
                ids=PacketIdAllocator(), flow_id=5,
                start_time=0.01, stop_time=0.8, chunk=16,
            )
        )
        cursor.start()
        sim_b.run()

        assert compiled_sink.packets == scalar_sink.packets
        assert len(compiled_sink.packets) > 0

    @given(
        stop=st.floats(0.011, 2.0, allow_nan=False),
        chunk=st.integers(1, 16),
    )
    @settings(max_examples=15, deadline=None)
    def test_stop_time_truncation_any_position(self, stop, chunk):
        """stop_time landing anywhere relative to chunk boundaries --
        first element of a block, mid-block, beyond -- truncates the
        compiled stream exactly where the scalar source stops."""
        scalar_sink, compiled_sink = RecordingSink(), RecordingSink()
        sim_a = Simulator()
        TrafficSource(
            sim_a, scalar_sink, 0,
            make_process("pareto", 3), FixedPacketSize(1.0),
            stop_time=stop,
        ).start()
        sim_a.run()
        sim_b = Simulator()
        cursor = ArrivalCursor(sim_b)
        cursor.add(
            CompiledSource(
                compiled_sink, 0,
                make_process("pareto", 3), FixedPacketSize(1.0),
                stop_time=stop, chunk=chunk,
            )
        )
        cursor.start()
        sim_b.run()
        assert compiled_sink.packets == scalar_sink.packets

    def test_cursor_merges_sources_with_shared_ids(self):
        """Three sources on one cursor allocate shared packet ids in the
        same global order as three scalar sources on the calendar."""
        kinds = ["pareto", "poisson", "onoff"]

        scalar_sink = RecordingSink()
        sim_a = Simulator()
        ids_a = PacketIdAllocator()
        for class_id, kind in enumerate(kinds):
            TrafficSource(
                sim_a, scalar_sink, class_id,
                make_process(kind, 11 + class_id), FixedPacketSize(100.0),
                ids=ids_a, stop_time=0.5,
            ).start()
        sim_a.run()

        compiled_sink = RecordingSink()
        sim_b = Simulator()
        ids_b = PacketIdAllocator()
        cursor = ArrivalCursor(sim_b)
        for class_id, kind in enumerate(kinds):
            cursor.add(
                CompiledSource(
                    compiled_sink, class_id,
                    make_process(kind, 11 + class_id), FixedPacketSize(100.0),
                    ids=ids_b, stop_time=0.5, chunk=32,
                )
            )
        cursor.start()
        sim_b.run()

        assert compiled_sink.packets == scalar_sink.packets
        assert len(compiled_sink.packets) > 100

    def test_cursor_keeps_one_pending_event(self):
        sim = Simulator()
        cursor = ArrivalCursor(sim)
        for seed in range(5):
            cursor.add(
                CompiledSource(
                    RecordingSink(), 0,
                    make_process("poisson", seed), FixedPacketSize(1.0),
                )
            )
        cursor.start()
        assert sim.pending == 1
        assert cursor.pending_sources == 5

    def test_mixed_source_matches_scalar(self):
        """CompiledMixedSource == MixedClassSource: same per-packet
        class draws, sizes, ids and timestamps."""
        probs = (0.4, 0.3, 0.2, 0.1)

        scalar_sink = RecordingSink()
        sim_a = Simulator()
        MixedClassSource(
            sim_a, scalar_sink,
            make_process("pareto", 21), probs, 500.0,
            np.random.default_rng(77), ids=PacketIdAllocator(),
        ).start()
        sim_a.run(until=2.0)

        compiled_sink = RecordingSink()
        sim_b = Simulator()
        cursor = ArrivalCursor(sim_b)
        cursor.add(
            CompiledMixedSource(
                compiled_sink,
                make_process("pareto", 21), probs, 500.0,
                np.random.default_rng(77), ids=PacketIdAllocator(), chunk=64,
            )
        )
        cursor.start()
        sim_b.run(until=2.0)

        assert compiled_sink.packets == scalar_sink.packets
        assert len(compiled_sink.packets) > 50
        classes = {p[1] for p in compiled_sink.packets}
        assert classes == {0, 1, 2, 3}


def tiny_window(monkeypatch, arrivals: int) -> list[float]:
    """Shrink the cursor's merged window to about ``arrivals`` arrivals;
    returns the first timestamp of every window the cursor loads."""
    monkeypatch.setattr(compiled_arrivals, "WINDOW_ARRIVALS", arrivals)
    opened: list[float] = []
    original = ArrivalCursor._refill

    def refill(self):
        loaded = original(self)
        if loaded:
            opened.append(self._window[0][0])
        return loaded

    monkeypatch.setattr(ArrivalCursor, "_refill", refill)
    return opened


def scalar_and_compiled(specs, stop_time):
    """Run one source per ``(kind, seed, start_time, chunk)`` spec on
    scalar sources and on one cursor; returns both packet streams and
    the cursor."""
    scalar_sink = RecordingSink()
    sim_a = Simulator()
    ids_a = PacketIdAllocator()
    for class_id, (kind, seed, start, _) in enumerate(specs):
        TrafficSource(
            sim_a, scalar_sink, class_id,
            make_process(kind, seed),
            paper_trimodal_sizes(np.random.default_rng(seed + 100)),
            ids=ids_a, flow_id=class_id,
            start_time=start, stop_time=stop_time,
        ).start()
    sim_a.run()

    compiled_sink = RecordingSink()
    sim_b = Simulator()
    ids_b = PacketIdAllocator()
    cursor = ArrivalCursor(sim_b)
    for class_id, (kind, seed, start, chunk) in enumerate(specs):
        cursor.add(
            CompiledSource(
                compiled_sink, class_id,
                make_process(kind, seed),
                paper_trimodal_sizes(np.random.default_rng(seed + 100)),
                ids=ids_b, flow_id=class_id,
                start_time=start, stop_time=stop_time, chunk=chunk,
            )
        )
    cursor.start()
    sim_b.run()
    return scalar_sink.packets, compiled_sink.packets, cursor


class TestMergedWindow:
    """The cursor merges its streams one window at a time.  Window size
    never changes the output, so with the window shrunk to a few
    arrivals every run below crosses many refills and must still match
    the scalar sources (or, for exact ties, the (time, registration
    order) merge)."""

    def test_exact_ties_keep_registration_order_across_window_edges(
        self, monkeypatch
    ):
        # The gaps sum to a rate of 18.5 per unit, so a window of 37
        # arrivals is exactly 2.0 wide: every even instant is an
        # eight-way tie that opens a window, and each window holds
        # enough ties that only a stable sort keeps them in order.
        opened = tiny_window(monkeypatch, 37)
        gaps = (1.0, 2.0, 0.5, 0.25, 0.25, 0.5, 1.0, 0.25)
        stop = 9.0
        sink = RecordingSink()
        sim = Simulator()
        ids = PacketIdAllocator()
        cursor = ArrivalCursor(sim)
        for order, gap in enumerate(gaps):
            cursor.add(
                CompiledSource(
                    sink, 0, ConstantInterarrivals(gap), FixedPacketSize(1.0),
                    ids=ids, flow_id=order, stop_time=stop,
                )
            )
        cursor.start()
        sim.run()
        merged = sorted(
            (k * gap, order)
            for order, gap in enumerate(gaps)
            for k in range(1, int(stop / gap) + 1)
            if k * gap < stop
        )
        assert sink.packets == [
            (pid, 0, 1.0, t, order) for pid, (t, order) in enumerate(merged)
        ]
        assert opened == [0.25, 2.0, 4.0, 6.0, 8.0]
        assert cursor.pending_sources == 0

    def test_stream_starting_several_windows_out(self, monkeypatch):
        opened = tiny_window(monkeypatch, 4)
        specs = [
            ("poisson", 1, 0.0, DEFAULT_CHUNK),
            ("pareto", 2, 0.5, DEFAULT_CHUNK),
            ("onoff", 3, 0.0, DEFAULT_CHUNK),
        ]
        scalar, compiled, _ = scalar_and_compiled(specs, stop_time=0.8)
        assert compiled == scalar
        late = [p for p in compiled if p[4] == 1]
        assert late and late[0][3] > 0.5
        # Many windows open before the late stream's first arrival.
        assert sum(1 for t in opened if t < 0.5) > 10

    def test_chunk_one_streams(self, monkeypatch):
        opened = tiny_window(monkeypatch, 5)
        specs = [
            ("pareto", 4, 0.0, 1),
            ("mmpp", 5, 0.02, 1),
            ("cbr", 6, 0.003, 1),
        ]
        scalar, compiled, _ = scalar_and_compiled(specs, stop_time=0.6)
        assert compiled == scalar
        assert len(compiled) > 100
        assert len(opened) > 20

    def test_one_pending_event_and_pending_sources_across_refills(
        self, monkeypatch
    ):
        opened = tiny_window(monkeypatch, 5)
        stops = (0.3, 0.6, 0.9)

        def build():
            sink = RecordingSink()
            sim = Simulator()
            ids = PacketIdAllocator()
            cursor = ArrivalCursor(sim)
            for order, stop in enumerate(stops):
                cursor.add(
                    CompiledSource(
                        sink, 0, make_process("pareto", 30 + order),
                        FixedPacketSize(1.0),
                        ids=ids, flow_id=order, stop_time=stop,
                    )
                )
            return sim, cursor, sink

        sim, cursor, sink = build()
        cursor.start()
        sim.run()
        last = [max(p[3] for p in sink.packets if p[4] == k) for k in range(3)]
        opened.clear()

        sim, cursor, _ = build()
        assert cursor.pending_sources == 3
        cursor.start()
        assert sim.pending == 1
        assert cursor.pending_sources == 3
        for until in np.linspace(0.01, 1.0, 100):
            sim.run(until=float(until))
            live = sum(1 for t in last if t > until)
            assert cursor.pending_sources == live, until
            assert sim.pending == (1 if live else 0), until
        assert cursor.pending_sources == 0
        assert len(opened) > 20


def test_table1_cells_draw_little_past_what_they_inject(monkeypatch):
    """Table 1's cross traffic draws about what it consumes: at most
    about one window of surplus per run, not a full block per stream
    (a per-stream block cursor leaves about 1.45 million gaps unused
    here).  An arrival dropped before a hop's last idle instant
    (``hop_skipped``) is consumed like an injected one, not surplus."""
    drawn = [0]
    cursors: list[ArrivalCursor] = []
    original_draw = ParetoInterarrivals.draw_gaps
    original_init = ArrivalCursor.__init__

    def draw_gaps(self, n):
        drawn[0] += n
        return original_draw(self, n)

    def init(self, sim):
        original_init(self, sim)
        cursors.append(self)

    monkeypatch.setattr(ParetoInterarrivals, "draw_gaps", draw_gaps)
    monkeypatch.setattr(ArrivalCursor, "__init__", init)
    skipped = 0
    for hops in (4, 8):
        result = run_multihop(
            MultiHopConfig(
                hops=hops, utilization=0.95, flow_packets=10,
                flow_rate_kbps=200.0, experiments=2, warmup=500.0, seed=1,
            )
        )
        skipped += sum(result.hop_skipped)
    consumed = sum(c.packets_injected for c in cursors) + skipped
    assert len(cursors) == 2 and consumed > 100_000
    surplus = drawn[0] - consumed
    assert surplus <= 1.5 * compiled_arrivals.WINDOW_ARRIVALS * len(cursors), (
        surplus
    )
