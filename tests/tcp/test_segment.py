"""TCP segment wire format: serialization, parsing, fault rejection."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.tcp.cuckoo import CuckooHashTable
from repro.tcp.options import TcpOptions
from repro.tcp.segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_SYN,
    FlowKey,
    PACKET_OVERHEAD,
    TcpSegment,
    ip_from_string,
    ip_to_string,
)


def make_segment(**overrides):
    fields = dict(
        src_ip=ip_from_string("10.0.0.1"),
        dst_ip=ip_from_string("10.0.0.2"),
        src_port=40000,
        dst_port=80,
        seq=12345,
        ack=6789,
        flags=FLAG_ACK | FLAG_PSH,
        window=8192,
        payload=b"payload bytes",
    )
    fields.update(overrides)
    return TcpSegment(**fields)


class TestAddressHelpers:
    def test_roundtrip(self):
        assert ip_to_string(ip_from_string("192.168.1.200")) == "192.168.1.200"

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            ip_from_string("10.0.0")
        with pytest.raises(ValueError):
            ip_from_string("10.0.0.300")


class TestFlowKey:
    def test_reversed(self):
        key = FlowKey(1, 2, 3, 4)
        assert key.reversed() == FlowKey(3, 4, 1, 2)
        assert key.reversed().reversed() == key

    def test_hashable(self):
        assert len({FlowKey(1, 2, 3, 4), FlowKey(1, 2, 3, 4)}) == 1

    def test_reversed_twice_is_the_same_dict_key(self):
        key = FlowKey(10, 49152, 20, 9000)
        back = key.reversed().reversed()
        assert back is not key
        assert back == key and hash(back) == hash(key)
        assert {key: "flow"}[back] == "flow"
        assert key.reversed() != key

    def test_repr_is_pinned(self):
        """``CuckooHashTable`` hashes ``repr(key)``: one byte of drift
        moves every flow-table placement and every pinned digest."""
        assert repr(FlowKey(1, 2, 3, 4)) == (
            "FlowKey(src_ip=1, src_port=2, dst_ip=3, dst_port=4)"
        )

    def test_cuckoo_placement_is_pinned(self):
        table = CuckooHashTable(1024)
        key = FlowKey(1, 2, 3, 4)
        table.insert(key, 7)
        assert table._tables[0][116] == (key, 7)
        assert (table._hash(key, 1), table._hash(key.reversed(), 0)) == (49, 340)
        assert table.get(FlowKey(1, 2, 3, 4)) == 7

    def test_pickle_round_trip(self):
        """Keys cross ``run_shard``'s worker pipes inside packets."""
        key = FlowKey(ip_from_string("10.0.0.1"), 49152,
                      ip_from_string("10.0.0.2"), 9000)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(key, protocol))
            assert type(copy) is FlowKey
            assert copy == key and hash(copy) == hash(key)
            assert repr(copy) == repr(key)
            assert copy.dst_port == 9000

    def test_no_per_instance_dict(self):
        """A held-open connection pins one key per endpoint; the key
        must be one allocation, not an object plus its ``__dict__``."""
        key = FlowKey(1, 2, 3, 4)
        assert not hasattr(key, "__dict__")
        with pytest.raises(AttributeError):
            key.src_port = 5


class TestSegmentProperties:
    def test_flag_accessors(self):
        segment = make_segment(flags=FLAG_SYN | FLAG_ACK)
        assert segment.syn and segment.has_ack
        assert not segment.fin and not segment.rst

    def test_seq_space_counts_syn_and_fin(self):
        assert make_segment(flags=FLAG_SYN, payload=b"").seq_space == 1
        assert make_segment(flags=FLAG_FIN, payload=b"ab").seq_space == 3
        assert make_segment(payload=b"abcd").seq_space == 4

    def test_wire_length_includes_78B_overhead(self):
        """The paper's goodput arithmetic hinges on this (§5.1)."""
        segment = make_segment(payload=b"x" * 128, options=TcpOptions())
        assert segment.wire_length == 128 + PACKET_OVERHEAD
        assert PACKET_OVERHEAD == 78

    def test_flag_names(self):
        assert make_segment(flags=FLAG_SYN | FLAG_ACK).flag_names() == "SYN|ACK"
        assert make_segment(flags=0).flag_names() == "-"


class TestWireRoundtrip:
    def test_roundtrip_preserves_fields(self):
        segment = make_segment()
        parsed = TcpSegment.from_bytes(segment.to_bytes())
        assert parsed.src_ip == segment.src_ip
        assert parsed.dst_port == segment.dst_port
        assert parsed.seq == segment.seq
        assert parsed.ack == segment.ack
        assert parsed.flags == segment.flags
        assert parsed.window == segment.window
        assert parsed.payload == segment.payload

    def test_roundtrip_with_options(self):
        segment = make_segment(
            flags=FLAG_SYN, payload=b"", options=TcpOptions(mss=1460, window_scale=7)
        )
        parsed = TcpSegment.from_bytes(segment.to_bytes())
        assert parsed.options.mss == 1460
        assert parsed.options.window_scale == 7

    def test_bad_tcp_checksum_rejected(self):
        raw = bytearray(make_segment().to_bytes())
        raw[-1] ^= 0xFF  # corrupt last payload byte
        with pytest.raises(ValueError, match="checksum"):
            TcpSegment.from_bytes(bytes(raw))

    def test_bad_ip_checksum_rejected(self):
        raw = bytearray(make_segment().to_bytes())
        raw[8] ^= 0x01  # corrupt the TTL inside the IP header
        with pytest.raises(ValueError):
            TcpSegment.from_bytes(bytes(raw))

    def test_verify_false_accepts_corruption(self):
        raw = bytearray(make_segment().to_bytes())
        raw[-1] ^= 0xFF
        parsed = TcpSegment.from_bytes(bytes(raw), verify=False)
        assert parsed.seq == 12345

    def test_truncated_packet_rejected(self):
        raw = make_segment().to_bytes()
        with pytest.raises(ValueError):
            TcpSegment.from_bytes(raw[:30])

    def test_non_tcp_protocol_rejected(self):
        raw = bytearray(make_segment().to_bytes())
        raw[9] = 17  # UDP
        with pytest.raises(ValueError, match="not TCP"):
            TcpSegment.from_bytes(bytes(raw), verify=False)

    def test_non_ipv4_rejected(self):
        raw = bytearray(make_segment().to_bytes())
        raw[0] = 0x65  # version 6
        with pytest.raises(ValueError, match="IPv4"):
            TcpSegment.from_bytes(bytes(raw))

    @given(
        seq=st.integers(min_value=0, max_value=(1 << 32) - 1),
        ack=st.integers(min_value=0, max_value=(1 << 32) - 1),
        flags=st.integers(min_value=0, max_value=0x3F),
        window=st.integers(min_value=0, max_value=0xFFFF),
        payload=st.binary(max_size=1460),
    )
    def test_roundtrip_property(self, seq, ack, flags, window, payload):
        segment = make_segment(
            seq=seq, ack=ack, flags=flags, window=window, payload=payload
        )
        parsed = TcpSegment.from_bytes(segment.to_bytes())
        assert (parsed.seq, parsed.ack, parsed.flags, parsed.window, parsed.payload) == (
            seq, ack, flags, window, payload
        )
