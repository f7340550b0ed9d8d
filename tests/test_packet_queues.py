"""Tests for Packet and ClassQueueSet."""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.queues as queues_module
from repro.errors import SchedulingError
from repro.sim.packet import Packet
from repro.sim.queues import ClassQueueSet

from .conftest import make_packet


class TestPacket:
    def test_queueing_delay_is_wait_until_service(self):
        packet = make_packet(created_at=10.0)
        packet.arrived_at = 10.0
        packet.service_start = 25.0
        assert packet.queueing_delay == 15.0

    def test_total_queueing_delay_sums_hops(self):
        packet = make_packet()
        packet.hop_delays.extend([3.0, 4.5, 0.5])
        assert packet.total_queueing_delay == 8.0

    def test_new_packet_has_no_hop_history(self):
        assert make_packet().hop_delays == []

    def test_arrived_at_initialized_to_creation(self):
        packet = make_packet(created_at=42.0)
        assert packet.arrived_at == 42.0

    def test_flow_id_defaults_to_none(self):
        assert make_packet().flow_id is None

    def test_hop_delays_are_per_instance(self):
        a, b = make_packet(0), make_packet(1)
        a.hop_delays.append(1.0)
        assert b.hop_delays == []


class TestClassQueueSet:
    def test_push_pop_fifo_within_class(self):
        queues = ClassQueueSet(2)
        first = make_packet(0, class_id=1)
        second = make_packet(1, class_id=1)
        queues.push(first)
        queues.push(second)
        assert queues.pop(1) is first
        assert queues.pop(1) is second

    def test_byte_accounting(self):
        queues = ClassQueueSet(2)
        queues.push(make_packet(0, class_id=0, size=100.0))
        queues.push(make_packet(1, class_id=0, size=50.0))
        queues.push(make_packet(2, class_id=1, size=25.0))
        assert queues.backlog_bytes(0) == 150.0
        assert queues.backlog_bytes(1) == 25.0
        assert queues.total_bytes == 175.0
        queues.pop(0)
        assert queues.backlog_bytes(0) == 50.0

    def test_packet_accounting(self):
        queues = ClassQueueSet(3)
        for i in range(5):
            queues.push(make_packet(i, class_id=i % 3))
        assert queues.total_packets == 5
        assert len(queues) == 5
        assert queues.backlog_packets(0) == 2
        assert queues.backlog_packets(2) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            ClassQueueSet(1).pop(0)

    def test_pop_tail_removes_newest(self):
        queues = ClassQueueSet(1)
        first = make_packet(0)
        second = make_packet(1)
        queues.push(first)
        queues.push(second)
        assert queues.pop_tail(0) is second
        assert queues.pop(0) is first

    def test_pop_tail_empty_raises(self):
        with pytest.raises(SchedulingError):
            ClassQueueSet(1).pop_tail(0)

    def test_head_peeks_without_removal(self):
        queues = ClassQueueSet(1)
        packet = make_packet(0)
        queues.push(packet)
        assert queues.head(0) is packet
        assert queues.total_packets == 1

    def test_head_of_empty_is_none(self):
        assert ClassQueueSet(2).head(1) is None

    def test_out_of_range_class_raises(self):
        queues = ClassQueueSet(2)
        with pytest.raises(SchedulingError):
            queues.push(make_packet(0, class_id=5))

    def test_backlogged_classes_iterates_nonempty(self):
        queues = ClassQueueSet(4)
        queues.push(make_packet(0, class_id=1))
        queues.push(make_packet(1, class_id=3))
        assert list(queues.backlogged_classes()) == [1, 3]

    def test_is_empty(self):
        queues = ClassQueueSet(1)
        assert queues.is_empty()
        queues.push(make_packet(0))
        assert not queues.is_empty()
        queues.pop(0)
        assert queues.is_empty()

    def test_zero_classes_rejected(self):
        with pytest.raises(SchedulingError):
            ClassQueueSet(0)


# ----------------------------------------------------------------------
# One representation: the class columns against a list-of-Packets model
# ----------------------------------------------------------------------
_CLASSES = 3
_SIZES = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 40.0, 576.5, 1500.0])
_GAPS = st.sampled_from([0.0, 0.1, 1.0])
_CLASS = st.integers(min_value=0, max_value=_CLASSES - 1)
_OPERATIONS = st.one_of(
    st.tuples(st.just("push"), _CLASS, _SIZES, _GAPS),
    st.tuples(st.just("push_int"), _CLASS, _SIZES, _GAPS),
    st.tuples(
        st.just("push_tuple"),
        _CLASS,
        _SIZES,
        _GAPS,
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        st.lists(_SIZES, max_size=3).map(tuple),
    ),
    st.tuples(st.just("pop"), _CLASS),
    st.tuples(st.just("pop_tail"), _CLASS),
    st.tuples(st.just("head"), _CLASS),
)


def _fields(packet: Packet) -> tuple:
    return (
        packet.packet_id,
        packet.class_id,
        packet.size,
        packet.created_at,
        packet.arrived_at,
        packet.flow_id,
        list(packet.hop_delays),
        packet.service_start,
        packet.departed_at,
    )


def _push_column(queues, cid, now, size, meta) -> None:
    """A scalar arrival, written the way the chain kernel's
    ``_chain_arrival`` writes it."""
    if queues.head_arrivals[cid] == math.inf:
        queues.head_arrivals[cid] = now
    queues.cols[cid].extend((now, size, meta))
    queues.bytes_backlog[cid] += size
    queues.total_packets += 1


@pytest.mark.property
@given(
    st.lists(_OPERATIONS, max_size=60),
    st.sampled_from([3, 6, queues_module._COL_COMPACT]),
)
@settings(max_examples=300, deadline=None)
def test_columns_match_list_of_packets_model(operations, compact):
    """Every push (a ``Packet``, or an ``int`` or tuple meta), pop,
    pop_tail and head of :class:`ClassQueueSet` against a model that
    keeps each class as a plain list of ``Packet``s.  ``compact``
    shrinks the compaction threshold so consumed prefixes are dropped
    mid-sequence."""
    queues = ClassQueueSet(_CLASSES)
    # Per class: [expected Packet, object the queue must hand back or
    # None while the entry is still scalar].
    model: list[list[list]] = [[] for _ in range(_CLASSES)]
    backlog = [0.0] * _CLASSES
    now = 0.0
    next_id = 0
    with mock.patch.object(queues_module, "_COL_COMPACT", compact):
        for op in operations:
            kind, cid = op[0], op[1]
            entries = model[cid]
            if kind.startswith("push"):
                size, gap = op[2], op[3]
                now += gap
                if kind == "push":
                    packet = make_packet(next_id, cid, size, now)
                    queues.push(packet)
                    entries.append([packet, packet])
                elif kind == "push_int":
                    _push_column(queues, cid, now, size, next_id)
                    expected = make_packet(next_id, cid, size, now)
                    entries.append([expected, None])
                else:
                    flow_id, history = op[4], op[5]
                    created = now - 2.0
                    meta = (next_id, flow_id, created, history)
                    _push_column(queues, cid, now, size, meta)
                    expected = make_packet(
                        next_id, cid, size, created, flow_id
                    )
                    expected.arrived_at = now
                    expected.hop_delays.extend(history)
                    entries.append([expected, None])
                next_id += 1
                backlog[cid] += size
            elif kind == "head":
                head = queues.head(cid)
                if not entries:
                    assert head is None
                else:
                    assert queues.head(cid) is head
                    expected, obj = entries[0]
                    assert _fields(head) == _fields(expected)
                    if obj is not None:
                        assert head is obj
                    entries[0][1] = head
            elif not entries:
                with pytest.raises(SchedulingError):
                    getattr(queues, kind)(cid)
            else:
                expected, obj = entries.pop(0 if kind == "pop" else -1)
                packet = getattr(queues, kind)(cid)
                assert _fields(packet) == _fields(expected)
                if obj is not None:
                    assert packet is obj
                backlog[cid] = backlog[cid] - expected.size if entries else 0.0
            for c in range(_CLASSES):
                queued = model[c]
                assert queues.bytes_backlog[c] == backlog[c]
                assert queues.head_arrivals[c] == (
                    queued[0][0].arrived_at if queued else math.inf
                )
                assert queues.backlog_packets(c) == len(queued)
            assert queues.total_packets == sum(map(len, model)) == len(queues)
            assert list(queues.backlogged_classes()) == [
                c for c in range(_CLASSES) if model[c]
            ]
