"""Internet checksum (RFC 1071) with the TCP pseudo-header.

The paper's testbed offloads checksums to the NIC; FtEngine computes them
in the data path.  We implement them for real so generated wire bytes are
valid and the RX parser can reject corrupted frames in fault-injection
tests.
"""

from __future__ import annotations

import struct


def internet_checksum(data: bytes) -> int:
    """One's-complement 16-bit checksum over ``data``."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def pseudo_header(src_ip: int, dst_ip: int, protocol: int, length: int) -> bytes:
    """The IPv4 pseudo-header prepended for TCP/UDP checksums."""
    return struct.pack("!IIBBH", src_ip, dst_ip, 0, protocol, length)


def tcp_checksum(src_ip: int, dst_ip: int, segment: bytes) -> int:
    """Checksum of a TCP segment (header + payload) under IPv4."""
    return internet_checksum(
        pseudo_header(src_ip, dst_ip, 6, len(segment)) + segment
    )
