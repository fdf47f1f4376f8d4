"""pcap capture of the simulated wire — open traces in Wireshark/tcpdump.

A :class:`WireTap` wraps a :class:`~repro.net.wire.WirePort` and records
every TCP frame it sends with its simulated timestamp.  Captures
serialize to the classic libpcap format (LINKTYPE_RAW: each record is a
bare IPv4 packet), so standard tooling decodes the reproduction's
traffic — handy for debugging protocol behaviour and for convincing
yourself the generated headers are real.

Typical use::

    testbed = Testbed()
    tap = WireTap.attach(testbed.wire.port_a)
    ... run traffic ...
    tap.save("transfer.pcap")
    print(tap.summary())
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional

from ..tcp.segment import TcpSegment

#: libpcap magic (microsecond timestamps), version 2.4.
_PCAP_MAGIC = 0xA1B2C3D4
_PCAP_VERSION = (2, 4)
#: LINKTYPE_RAW: packets begin directly with the IPv4 header.
LINKTYPE_RAW = 101


@dataclass
class CapturedPacket:
    """One captured packet: simulated time + raw IPv4 bytes."""

    timestamp_s: float
    data: bytes
    #: Decoded view, kept for summaries (None if undecodable).
    segment: Optional[TcpSegment] = None

    def record_bytes(self) -> bytes:
        seconds = int(self.timestamp_s)
        micros = int((self.timestamp_s - seconds) * 1e6)
        header = struct.pack(
            "<IIII", seconds, micros, len(self.data), len(self.data)
        )
        return header + self.data


class PcapWriter:
    """Accumulates packets and writes a libpcap file."""

    def __init__(self) -> None:
        self.packets: List[CapturedPacket] = []

    def add_segment(self, segment: TcpSegment, timestamp_s: float) -> None:
        self.packets.append(
            CapturedPacket(timestamp_s, segment.to_bytes(), segment)
        )

    def add_raw(self, data: bytes, timestamp_s: float) -> None:
        try:
            segment = TcpSegment.from_bytes(data, verify=False)
        except ValueError:
            segment = None
        self.packets.append(CapturedPacket(timestamp_s, data, segment))

    def to_bytes(self) -> bytes:
        header = struct.pack(
            "<IHHiIII",
            _PCAP_MAGIC,
            _PCAP_VERSION[0],
            _PCAP_VERSION[1],
            0,  # GMT offset
            0,  # sigfigs
            65_535,  # snaplen
            LINKTYPE_RAW,
        )
        return header + b"".join(p.record_bytes() for p in self.packets)

    def save(self, path: str) -> int:
        """Write the capture; returns the number of packets saved."""
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())
        return len(self.packets)

    def summary(self) -> str:
        """A tcpdump-style one-line-per-packet rendering."""
        lines = []
        for packet in self.packets:
            segment = packet.segment
            if segment is None:
                lines.append(f"{packet.timestamp_s * 1e6:10.1f}us  [non-TCP, {len(packet.data)} B]")
                continue
            lines.append(
                f"{packet.timestamp_s * 1e6:10.1f}us  "
                f"{segment.flow_key}  {segment.flag_names():9s} "
                f"seq={segment.seq} ack={segment.ack} "
                f"win={segment.window} len={len(segment.payload)}"
            )
        return "\n".join(lines)


class WireTap:
    """Transparent capture on one wire port's transmit path."""

    def __init__(self, port) -> None:
        self.port = port
        self.writer = PcapWriter()
        self._original_send = port.send

    @classmethod
    def attach(cls, port) -> "WireTap":
        """Install the tap; every subsequent send is recorded."""
        tap = cls(port)

        def tapped_send(frame, now_ps):
            payload = frame.payload
            timestamp = now_ps / 1e12
            if isinstance(payload, TcpSegment):
                tap.writer.add_segment(payload, timestamp)
            elif isinstance(payload, (bytes, bytearray)):
                tap.writer.add_raw(bytes(payload), timestamp)
            tap._original_send(frame, now_ps)

        port.send = tapped_send
        return tap

    def save(self, path: str) -> int:
        return self.writer.save(path)

    def summary(self) -> str:
        return self.writer.summary()
