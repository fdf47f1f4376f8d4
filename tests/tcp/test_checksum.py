"""Internet checksum (RFC 1071) and the TCP pseudo-header."""

from repro.tcp.checksum import (
    internet_checksum,
    pseudo_header,
    tcp_checksum,
)


class TestInternetChecksum:
    def test_rfc1071_worked_example(self):
        # RFC 1071 section 3: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2,
        # checksum is its complement 220d.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF

    def test_data_plus_checksum_folds_to_zero(self):
        data = b"hello world!"
        csum = internet_checksum(data)
        assert internet_checksum(data + csum.to_bytes(2, "big")) == 0

    def test_all_ones_word(self):
        assert internet_checksum(b"\xff\xff") == 0


class TestTcpChecksum:
    def test_pseudo_header_layout(self):
        header = pseudo_header(0x0A000001, 0x0A000002, 6, 20)
        assert len(header) == 12
        assert header[8] == 0  # zero byte
        assert header[9] == 6  # protocol

    def test_verify_roundtrip(self):
        segment = bytearray(40)
        segment[0:2] = (80).to_bytes(2, "big")
        csum = tcp_checksum(1, 2, bytes(segment))
        segment[16:18] = csum.to_bytes(2, "big")
        assert tcp_checksum(1, 2, bytes(segment)) == 0  # folds to zero

    def test_corruption_detected(self):
        segment = bytearray(40)
        csum = tcp_checksum(1, 2, bytes(segment))
        segment[16:18] = csum.to_bytes(2, "big")
        segment[25] ^= 0x40
        assert tcp_checksum(1, 2, bytes(segment)) != 0

    def test_checksum_depends_on_addresses(self):
        segment = bytes(40)
        assert tcp_checksum(1, 2, segment) != tcp_checksum(1, 3, segment)
