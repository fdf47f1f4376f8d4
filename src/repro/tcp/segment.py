"""TCP segment and IPv4 packet structures with real wire serialization.

The packet generator builds TCP/IP headers and appends payload without
further processing (§4.1.2); the RX parser decodes the headers and looks
up the flow by its 4-tuple.  Serialization is byte-exact so corruption
and truncation faults can be injected on the simulated wire.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Container, NamedTuple, Optional, Tuple

from .checksum import internet_checksum, tcp_checksum
from .options import TcpOptions

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20

IPV4_HEADER_LEN = 20
TCP_MIN_HEADER_LEN = 20

# Per-packet overhead used for goodput math in the paper (§5.1): 40 B
# TCP/IP headers + 18 B Ethernet header (incl. FCS) + 8 B preamble +
# 12 B inter-frame gap.
ETHERNET_OVERHEAD = 18 + 8 + 12
PACKET_OVERHEAD = IPV4_HEADER_LEN + TCP_MIN_HEADER_LEN + ETHERNET_OVERHEAD


def ip_from_string(dotted: str) -> int:
    """'10.0.0.1' -> 32-bit integer."""
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 address {dotted!r}")
        value = (value << 8) | octet
    return value


def ip_to_string(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class FlowKey(NamedTuple):
    """The connection 4-tuple used for flow lookup in the RX parser.

    A tuple, not an object with a ``__dict__``: a held-open connection
    pins one key per endpoint.  ``repr`` is the keyword form
    ``FlowKey(src_ip=…, src_port=…, dst_ip=…, dst_port=…)`` —
    :class:`~repro.tcp.cuckoo.CuckooHashTable` hashes it.
    """

    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int

    def reversed(self) -> "FlowKey":
        """The peer's view of the same connection."""
        return FlowKey(self.dst_ip, self.dst_port, self.src_ip, self.src_port)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{ip_to_string(self.src_ip)}:{self.src_port}->"
            f"{ip_to_string(self.dst_ip)}:{self.dst_port}"
        )


#: Source ports an active open may take: the unprivileged range.
PORT_MIN, PORT_MAX = 1024, 65535
PORT_COUNT = PORT_MAX - PORT_MIN + 1


def free_flow_key(
    src_ip: int,
    dst_ip: int,
    dst_port: int,
    start: int,
    held: Container[FlowKey],
    owner: str,
    port_min: int,
    port_count: int,
) -> Tuple[FlowKey, int]:
    """The next free 4-tuple towards a destination, and the source port
    to start from next time.

    Source ports run on from ``start``, wrap inside the ``port_count``
    ports from ``port_min`` and skip any 4-tuple in ``held`` (a live
    flow's).  ``owner`` names the stack in the error raised when every
    one is held.
    """
    port_max = port_min + port_count - 1
    port = start
    for _ in range(port_count):
        key = FlowKey(src_ip, port, dst_ip, dst_port)
        port = port + 1 if port < port_max else port_min
        if key not in held:
            return key, port
    raise OSError(
        f"{owner}: no free source port towards "
        f"{ip_to_string(dst_ip)}:{dst_port} — all "
        f"{port_count} 4-tuples are held by live flows"
    )


@dataclass
class TcpSegment:
    """A TCP segment plus the IPv4 addressing needed to route it."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    payload: bytes = b""
    options: TcpOptions = field(default_factory=TcpOptions)
    urgent: int = 0

    @property
    def flow_key(self) -> FlowKey:
        return FlowKey(self.src_ip, self.src_port, self.dst_ip, self.dst_port)

    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def seq_space(self) -> int:
        """Sequence space consumed: payload plus SYN/FIN each count one."""
        return len(self.payload) + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def wire_length(self) -> int:
        """Bytes on the wire including Ethernet framing overheads."""
        opts = self.options.encode() if self.options else b""
        return PACKET_OVERHEAD + len(opts) + len(self.payload)

    def flag_names(self) -> str:
        names = []
        for bit, name in (
            (FLAG_SYN, "SYN"),
            (FLAG_ACK, "ACK"),
            (FLAG_FIN, "FIN"),
            (FLAG_RST, "RST"),
            (FLAG_PSH, "PSH"),
            (FLAG_URG, "URG"),
        ):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "-"

    # ---------------------------------------------------------------- wire
    def to_bytes(self) -> bytes:
        """Serialize to an IPv4 packet with valid checksums."""
        opts = self.options.encode() if self.options else b""
        data_offset_words = (TCP_MIN_HEADER_LEN + len(opts)) // 4
        tcp_header = struct.pack(
            "!HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            data_offset_words << 4,
            self.flags,
            self.window & 0xFFFF,
            0,  # checksum placeholder
            self.urgent,
        )
        segment = tcp_header + opts + self.payload
        csum = tcp_checksum(self.src_ip, self.dst_ip, segment)
        segment = segment[:16] + struct.pack("!H", csum) + segment[18:]

        total_len = IPV4_HEADER_LEN + len(segment)
        ip_header = struct.pack(
            "!BBHHHBBHII",
            0x45,  # version 4, IHL 5
            0,
            total_len,
            0,  # identification
            0x4000,  # don't fragment
            64,  # TTL
            6,  # protocol TCP
            0,  # header checksum placeholder
            self.src_ip,
            self.dst_ip,
        )
        ip_csum = internet_checksum(ip_header)
        ip_header = ip_header[:10] + struct.pack("!H", ip_csum) + ip_header[12:]
        return ip_header + segment

    @classmethod
    def from_bytes(cls, packet: bytes, verify: bool = True) -> "TcpSegment":
        """Parse an IPv4/TCP packet; raises ValueError on malformed input."""
        if len(packet) < IPV4_HEADER_LEN + TCP_MIN_HEADER_LEN:
            raise ValueError("packet shorter than minimal IPv4+TCP headers")
        version_ihl = packet[0]
        if version_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        ihl = (version_ihl & 0x0F) * 4
        total_len = struct.unpack("!H", packet[2:4])[0]
        protocol = packet[9]
        if protocol != 6:
            raise ValueError(f"not TCP (protocol {protocol})")
        if verify and internet_checksum(packet[:ihl]) != 0:
            raise ValueError("bad IPv4 header checksum")
        if total_len > len(packet):
            raise ValueError("truncated packet")
        src_ip, dst_ip = struct.unpack("!II", packet[12:20])

        tcp = packet[ihl:total_len]
        if verify and tcp_checksum(src_ip, dst_ip, tcp) != 0:
            raise ValueError("bad TCP checksum")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_flags,
            flags,
            window,
            _csum,
            urgent,
        ) = struct.unpack("!HHIIBBHHH", tcp[:TCP_MIN_HEADER_LEN])
        data_offset = (offset_flags >> 4) * 4
        if data_offset < TCP_MIN_HEADER_LEN or data_offset > len(tcp):
            raise ValueError("bad TCP data offset")
        options = TcpOptions.decode(tcp[TCP_MIN_HEADER_LEN:data_offset])
        payload = tcp[data_offset:]
        return cls(
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            payload=payload,
            options=options,
            urgent=urgent,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpSegment {self.flow_key} {self.flag_names()} seq={self.seq} "
            f"ack={self.ack} len={len(self.payload)}>"
        )
