"""Tests for the BPR scheduler: fluid model (Proposition 1) and the
packetized Appendix 3 algorithm."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.common import SingleHopConfig, generate_trace
from repro.scenarios.generators import CITY_SIZES
from repro.schedulers import BPRScheduler, fluid_backlogs, fluid_clearing_time
from repro.sim import Link, PacketSink, Simulator
from repro.traffic.trace import TraceSource

from .conftest import make_packet, run_poisson_link


class TestFluidModel:
    def test_total_backlog_drains_at_link_rate(self):
        q0 = [100.0, 50.0, 25.0]
        backlogs = fluid_backlogs(q0, (1.0, 2.0, 4.0), capacity=10.0, elapsed=5.0)
        assert sum(backlogs) == pytest.approx(sum(q0) - 50.0, rel=1e-6)

    def test_power_law_invariant(self):
        """q_i(t) = q_i(0) theta^{s_i}: check theta consistency."""
        q0 = [100.0, 50.0]
        sdps = (1.0, 3.0)
        backlogs = fluid_backlogs(q0, sdps, capacity=10.0, elapsed=8.0)
        theta_1 = backlogs[0] / q0[0]
        theta_2 = (backlogs[1] / q0[1]) ** (1.0 / 3.0)
        assert theta_1 == pytest.approx(theta_2, rel=1e-5)

    def test_higher_sdp_class_drains_faster_in_proportion(self):
        q0 = [100.0, 100.0]
        backlogs = fluid_backlogs(q0, (1.0, 4.0), capacity=10.0, elapsed=10.0)
        assert backlogs[1] < backlogs[0]

    def test_simultaneous_clearing_proposition_1(self):
        """Just before the clearing instant every queue is still
        positive; at the instant every queue is (numerically) zero."""
        q0 = [100.0, 60.0, 20.0]
        capacity = 10.0
        t_clear = fluid_clearing_time(q0, capacity)
        assert t_clear == pytest.approx(18.0)
        just_before = fluid_backlogs(q0, (1.0, 2.0, 4.0), capacity,
                                     t_clear - 1e-6)
        assert all(q > 0 for q in just_before)
        at_clear = fluid_backlogs(q0, (1.0, 2.0, 4.0), capacity, t_clear)
        assert all(q == pytest.approx(0.0, abs=1e-9) for q in at_clear)

    def test_elapsed_beyond_clearing_rejected(self):
        with pytest.raises(ConfigurationError):
            fluid_backlogs([10.0], (1.0,), capacity=1.0, elapsed=11.0)

    def test_zero_elapsed_returns_initial(self):
        q0 = [10.0, 20.0]
        assert fluid_backlogs(q0, (1.0, 2.0), 1.0, 0.0) == pytest.approx(q0)


class TestPacketizedBPR:
    def test_requires_capacity(self):
        scheduler = BPRScheduler((1.0, 2.0))
        scheduler.enqueue(make_packet(0, class_id=0), 0.0)
        with pytest.raises(ConfigurationError):
            scheduler.select(1.0)

    def test_rates_proportional_to_weighted_backlogs(self):
        scheduler = BPRScheduler((1.0, 3.0), capacity=12.0)
        scheduler.enqueue(make_packet(0, class_id=0, size=100.0), 0.0)
        scheduler.enqueue(make_packet(1, class_id=0, size=100.0), 0.0)
        scheduler.enqueue(make_packet(2, class_id=1, size=100.0), 0.0)
        scheduler.enqueue(make_packet(3, class_id=1, size=100.0), 0.0)
        scheduler.select(0.0)  # pops one class-1 (new busy period, v=0 all;
        # score = L - v equal; tie to higher class)
        rates = scheduler.current_rates
        # Post-selection backlogs: class1=200, class2=100 bytes.
        # weights: 1*200 : 3*100 -> 2 : 3 of 12 = 4.8 / 7.2.
        assert rates[0] == pytest.approx(4.8)
        assert rates[1] == pytest.approx(7.2)
        assert sum(rates) == pytest.approx(12.0)

    def test_work_conservation_of_assigned_rates(self):
        scheduler = BPRScheduler((1.0, 2.0, 4.0), capacity=10.0)
        for i in range(6):
            scheduler.enqueue(make_packet(i, class_id=i % 3, size=50.0), 0.0)
        scheduler.select(0.0)
        assert sum(scheduler.current_rates) == pytest.approx(10.0)

    def test_empty_classes_get_zero_rate(self):
        scheduler = BPRScheduler((1.0, 2.0), capacity=10.0)
        scheduler.enqueue(make_packet(0, class_id=0, size=10.0), 0.0)
        scheduler.enqueue(make_packet(1, class_id=0, size=10.0), 0.0)
        scheduler.select(0.0)
        assert scheduler.current_rates[1] == 0.0

    def test_tie_breaks_to_higher_class(self):
        scheduler = BPRScheduler((1.0, 2.0), capacity=1.0)
        low = make_packet(0, class_id=0, size=10.0)
        high = make_packet(1, class_id=1, size=10.0)
        scheduler.enqueue(low, 0.0)
        scheduler.enqueue(high, 0.0)
        assert scheduler.select(0.0) is high

    def test_fifo_within_class(self):
        scheduler = BPRScheduler((1.0, 2.0), capacity=1.0)
        first = make_packet(0, class_id=1, size=10.0)
        second = make_packet(1, class_id=1, size=10.0)
        scheduler.enqueue(first, 0.0)
        scheduler.enqueue(second, 0.0)
        assert scheduler.select(0.0) is first

    def test_approximate_simultaneous_clearing(self):
        """Packetized analogue of Proposition 1: with no further
        arrivals, both queues drain within a few packets of each other
        even though their backlogs start very unequal."""
        sim = Simulator()
        sink = PacketSink(keep_packets=True)
        scheduler = BPRScheduler((1.0, 2.0))
        link = Link(sim, scheduler, capacity=1.0, target=sink)
        pid = 0
        for _ in range(30):
            sim.schedule(0.0, link.receive, make_packet(pid, 0, size=1.0))
            pid += 1
        for _ in range(10):
            sim.schedule(0.0, link.receive, make_packet(pid, 1, size=1.0))
            pid += 1
        sim.run()
        # Find when each class's last packet departs.  Fluid BPR would
        # clear both at t=40 (Proposition 1); packetization leaves a
        # few packets of slack, but the small queue must NOT finish at
        # ~t=10 as strict priority or at ~t=20 as an interleaving
        # round-robin spread evenly would allow.
        last = {}
        for packet in sink.packets:
            last[packet.class_id] = packet.departed_at
        clearing = 40.0
        assert last[0] == pytest.approx(clearing, abs=0.01)
        assert last[1] >= 0.75 * clearing

    def test_heavy_load_ratio_trend(self):
        """BPR approaches (if less exactly than WTP) the inverse SDP
        ratios under heavy Poisson load."""
        rho = 0.97
        rates = [rho * share for share in (0.4, 0.3, 0.2, 0.1)]
        delays, _ = run_poisson_link(
            BPRScheduler((1.0, 2.0, 4.0, 8.0)), rates, horizon=2e5
        )
        for i in range(3):
            ratio = delays[i] / delays[i + 1]
            assert 1.3 < ratio < 2.8  # differentiating in the right band

    def test_classes_ordered_correctly(self):
        rates = [0.9 * share for share in (0.4, 0.3, 0.2, 0.1)]
        delays, _ = run_poisson_link(
            BPRScheduler((1.0, 2.0, 4.0, 8.0)), rates, horizon=1e5
        )
        assert delays[0] > delays[1] > delays[2] > delays[3]


# ----------------------------------------------------------------------
# Bit-level reference: the two-loop Appendix 3 formulation
# ----------------------------------------------------------------------
class TwoLoopBPR(BPRScheduler):
    """Appendix 3 written the direct way: a ``_rates`` list rewritten
    per selection by two loops (the Eq 8 sum, then every r_i), with
    the served credit clamped by ``max``.  The bit-level reference for
    ``BPRScheduler``, which stores the weights and derives a rate where
    it reads one: both must make the same IEEE operations in the same
    order."""

    def __init__(self, sdps, capacity=None) -> None:
        super().__init__(sdps, capacity)
        self._last_decision = None
        self._rates = [0.0] * self.num_classes

    def choose_class(self, now: float) -> int:
        if self.capacity is None:
            raise ConfigurationError("TwoLoopBPR needs the link capacity")
        queues = self.queues
        heads = queues.head_arrivals
        cols = queues.cols
        cheads = queues.col_heads
        last = self._last_decision
        virtual = self._virtual
        rates = self._rates
        inf = math.inf
        best_class = -1
        best_score = inf
        for cid in range(self.num_classes - 1, -1, -1):
            arrived = heads[cid]
            if arrived == inf:
                virtual[cid] = 0.0
                continue
            if last is None or arrived > last:
                virtual[cid] = 0.0
            else:
                virtual[cid] += rates[cid] * (now - last)
            score = cols[cid][cheads[cid] + 1] - virtual[cid]
            if score < best_score:
                best_score = score
                best_class = cid
        return best_class

    def on_select(self, cid, arrived_at, size, meta, now) -> None:
        self._virtual[cid] = max(0.0, self._virtual[cid] - size)
        self._recompute_rates()
        self._last_decision = now

    def _recompute_rates(self) -> None:
        backlog = self.queues.bytes_backlog
        sdps = self.sdps
        weight_sum = 0.0
        for cid in range(self.num_classes):
            weight_sum += sdps[cid] * backlog[cid]
        rates = self._rates
        if weight_sum <= 0.0:
            for cid in range(self.num_classes):
                rates[cid] = 0.0
            return
        scale = self.capacity / weight_sum
        for cid in range(self.num_classes):
            rates[cid] = sdps[cid] * backlog[cid] * scale

    @property
    def current_rates(self) -> tuple[float, ...]:
        return tuple(self._rates)


#: The paper's packet sizes, then the city mix's.
REFERENCE_SIZES = (40.0, 550.0, 1500.0) + CITY_SIZES


def drive_both(sdps, capacity, ops) -> list[tuple]:
    """Run ``BPRScheduler`` and :class:`TwoLoopBPR` through one op
    sequence, asserting identical decisions and state after every
    selection; returns ``(class, rates, credits)`` per selection.

    Ops: ``("enqueue", class, size, gap)`` waits ``gap`` then enqueues;
    ``("select", gap)`` waits ``gap`` then serves one packet if any is
    queued; ``("idle", gap)`` serves the whole backlog back to back at
    the link rate, then leaves the link idle for ``gap``.
    """
    schedulers = (
        BPRScheduler(sdps, capacity=capacity),
        TwoLoopBPR(sdps, capacity=capacity),
    )
    new, ref = schedulers
    log = []
    now = 0.0
    pid = 0

    def select() -> float:
        served = [scheduler.select(now) for scheduler in schedulers]
        assert served[0].packet_id == served[1].packet_id
        assert new.current_rates == ref.current_rates
        assert new._virtual == ref._virtual
        log.append((served[0].class_id, new.current_rates, list(new._virtual)))
        return served[0].size

    for op in ops:
        if op[0] == "enqueue":
            _, cid, size, gap = op
            now += gap
            for scheduler in schedulers:
                scheduler.enqueue(
                    make_packet(pid, cid % len(sdps), size, created_at=now), now
                )
            pid += 1
        elif op[0] == "select":
            now += op[1]
            if new.backlogged:
                select()
        else:
            while new.backlogged:
                now += select() / capacity
            now += op[1]
    return log


gaps = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0))
op_lists = st.lists(
    st.one_of(
        st.tuples(
            st.just("enqueue"),
            st.integers(0, 5),
            st.sampled_from(REFERENCE_SIZES),
            gaps,
        ),
        st.tuples(st.just("select"), gaps),
        st.tuples(st.just("idle"), gaps),
    ),
    max_size=60,
)


@st.composite
def bpr_configs(draw):
    """Strictly increasing SDPs for 1-6 classes, and a capacity."""
    steps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=4.0), min_size=1, max_size=6
        )
    )
    sdps = []
    total = 0.0
    for step in steps:
        total += step
        sdps.append(total)
    capacity = draw(st.floats(min_value=0.5, max_value=2000.0))
    return tuple(sdps), capacity


class TestTwoLoopReference:
    @given(config=bpr_configs(), ops=op_lists)
    @example(
        config=((1.0, 3.0), 7.0),
        ops=[("enqueue", 0, 550.0, 0.0), ("enqueue", 1, 550.0, 0.0)]
        + [("select", 0.3)] * 2,
    )
    @settings(max_examples=300, deadline=None)
    def test_decisions_match_bit_for_bit(self, config, ops):
        drive_both(*config, ops)

    def test_first_decision_and_score_tie(self):
        """Every credit starts at zero, so equal heads tie on L - v
        and the higher class wins."""
        log = drive_both(
            (1.0, 2.0, 4.0),
            10.0,
            [("enqueue", cid, 1500.0, 0.0) for cid in (0, 1, 2)]
            + [("select", 0.0)],
        )
        [(chosen, rates, credits)] = log
        assert chosen == 2
        assert rates == pytest.approx((10 / 3, 20 / 3, 0.0))
        assert credits == [0.0, 0.0, 0.0]

    def test_class_drained_to_exactly_zero(self):
        log = drive_both(
            (1.0, 2.0),
            100.0,
            [
                ("enqueue", 1, 576.0, 0.0),
                ("enqueue", 0, 4380.0, 0.0),
                ("enqueue", 0, 9000.0, 0.0),
                ("select", 0.0),
            ]
            + [("select", 3.0)] * 2,
        )
        assert [entry[0] for entry in log] == [1, 0, 0]
        assert log[0][1] == (100.0, 0.0)
        assert log[-1][1] == (0.0, 0.0)

    def test_idle_gap_resets_every_credit(self):
        ops = [("enqueue", cid, 1500.0, 0.0) for cid in (0, 1, 0, 1)]
        ops += [("select", 0.0), ("select", 2.0), ("idle", 50.0)]
        ops += [("enqueue", cid, 40.0, 0.0) for cid in (1, 0)]
        ops += [("select", 0.0)]
        log = drive_both((1.0, 4.0), 1000.0, ops)
        assert any(credit > 0.0 for credit in log[1][2])
        assert log[-1][0] == 1
        assert log[-1][2] == [0.0, 0.0]

    def test_weight_sum_runs_left_to_right(self):
        """Post-pop backlogs whose Eq 8 sum rounds differently left to
        right than exactly (``math.fsum``, or the compensated ``sum()``
        of Python 3.12+): the rates must follow the left-to-right sum."""
        sdps = (0.1, 0.2, 0.4, 0.8)
        ops = [("enqueue", 0, 40.0, 0.0), ("enqueue", 3, 40.0, 0.0)]
        ops += [("enqueue", cid, 576.0, 0.0) for cid in (1, 2, 3)]
        ops += [("select", 0.0), ("select", 1.0)]
        log = drive_both(sdps, 100.0, ops)
        weights = [s * q for s, q in zip(sdps, (40.0, 576.0, 576.0, 576.0))]
        left_to_right = 0.0
        for weight in weights:
            left_to_right += weight
        assert left_to_right != math.fsum(weights)
        assert log[0][0] == 3  # the 40 B heads tie; the higher class wins
        assert log[0][1] == tuple(w * (100.0 / left_to_right) for w in weights)

    def test_drained_link_matches_reference(self):
        """Through a drained link the heads sit in the queue columns,
        so ``choose_class`` reads the column head size."""
        config = SingleHopConfig(
            scheduler="bpr", utilization=0.95, horizon=2e4, warmup=1e3, seed=3
        )
        trace = generate_trace(config)
        departures = []
        for cls in (BPRScheduler, TwoLoopBPR):
            sim = Simulator()
            sink = PacketSink(keep_packets=True)
            link = Link(sim, cls(config.sdps), config.capacity, target=sink)
            TraceSource(sim, link, trace).start()
            sim.run(until=config.horizon)
            departures.append(
                [(p.packet_id, p.departed_at) for p in sink.packets]
            )
        assert len(departures[0]) > 1_000
        assert departures[0] == departures[1]
