"""Unit tests for messages, packets and fragmentation."""

import pytest

from repro.network.message import (
    MTU,
    PACKET_HEADER_BYTES,
    Delivery,
    Message,
)


def test_single_packet_message():
    msg = Message(src=0, dst=1, size=100, data=b"x" * 100)
    assert msg.num_packets == 1
    pkts = msg.fragment()
    assert len(pkts) == 1
    assert pkts[0].offset == 0 and pkts[0].size == 100 and pkts[0].is_last
    assert pkts[0].data == b"x" * 100


def test_multi_packet_fragmentation_preserves_bytes():
    size = MTU * 2 + 500
    payload = bytes(range(256)) * (size // 256) + bytes(size % 256)
    msg = Message(src=0, dst=1, size=size, data=payload)
    pkts = msg.fragment()
    assert len(pkts) == 3
    assert [p.offset for p in pkts] == [0, MTU, 2 * MTU]
    assert sum(p.size for p in pkts) == size
    reassembled = b"".join(p.data for p in pkts)
    assert reassembled == payload
    assert pkts[-1].is_last and not pkts[0].is_last


def test_zero_size_message_still_one_packet():
    msg = Message(src=0, dst=1, size=0)
    assert msg.num_packets == 1
    assert msg.wire_size == PACKET_HEADER_BYTES


def test_wire_size_includes_per_packet_headers():
    msg = Message(src=0, dst=1, size=MTU * 2)
    assert msg.wire_size == MTU * 2 + 2 * PACKET_HEADER_BYTES


def test_size_data_mismatch_rejected():
    with pytest.raises(ValueError):
        Message(src=0, dst=1, size=10, data=b"short")


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Message(src=0, dst=1, size=-1)


def test_size_only_message_fragments_empty_data():
    msg = Message(src=0, dst=1, size=MTU + 1)
    pkts = msg.fragment()
    assert all(p.data == b"" for p in pkts)
    assert [p.size for p in pkts] == [MTU, 1]


def test_message_ids_unique():
    ids = {Message(src=0, dst=1, size=1).msg_id for _ in range(100)}
    assert len(ids) == 100


def test_delivery_whole_message_flag():
    msg = Message(src=0, dst=1, size=8)
    assert Delivery(msg, arrival_time=1.0, hops=2).is_whole_message
    assert not Delivery(msg, 1.0, 2, packet=msg.fragment()[0]).is_whole_message
