"""Ethernet framing for the simulated wire.

FtEngine's network-facing modules exchange Ethernet frames; the wire-
level overhead (header + FCS + preamble + inter-frame gap = 38 B) plus
the 40 B TCP/IP headers give the 78 B per-packet overhead used in the
paper's goodput arithmetic (§5.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

#: Header (14 B) + FCS (4 B) + preamble (8 B) + inter-frame gap (12 B).
FRAME_OVERHEAD = 38
MIN_PAYLOAD = 46

_mac_counter = itertools.count(1)


def make_mac(node_id: int) -> int:
    """A deterministic locally administered MAC for node ``node_id``."""
    return 0x02_00_00_00_00_00 | (node_id & 0xFFFFFFFF)


BROADCAST_MAC = 0xFF_FF_FF_FF_FF_FF


@dataclass
class EthernetFrame:
    """A frame carrying an IPv4 packet, an ARP message, or ICMP bytes."""

    src_mac: int
    dst_mac: int
    ethertype: int
    payload: Any  # TcpSegment / ArpMessage / IcmpMessage / raw bytes
    #: Size on the wire including all framing overhead.
    wire_bytes: int = 0

    def __post_init__(self) -> None:
        if self.wire_bytes == 0:
            payload_len = getattr(self.payload, "wire_length", None)
            if payload_len is not None:
                # TcpSegment.wire_length already includes framing.
                self.wire_bytes = payload_len
            else:
                body = len(self.payload) if hasattr(self.payload, "__len__") else 28
                self.wire_bytes = FRAME_OVERHEAD + max(MIN_PAYLOAD, body)
