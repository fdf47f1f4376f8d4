"""Link-rate arithmetic for the 100 Gbps testbed (§5).

The paper's goodput numbers follow directly from per-packet overheads:
every packet pays 78 B — 40 B TCP/IP headers, 18 B Ethernet header,
8 B preamble and 12 B inter-frame gap — so, e.g., 128 B payloads cap
goodput at 100 Gbps x 128/(128+78) = 62.1 Gbps (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

#: Per-packet overhead in bytes (§5.1).
PER_PACKET_OVERHEAD = 78

GBPS = 1e9  # bits per second per Gbps


@dataclass(frozen=True)
class Link:
    """A full-duplex 100 GbE point-to-point link."""

    bandwidth_gbps: ClassVar[float] = 100.0
    propagation_delay_us: float = 2.0

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_gbps * GBPS / 8

    @cached_property
    def bits_per_second(self) -> int:
        return int(self.bandwidth_gbps * GBPS)

    @cached_property
    def propagation_delay_ps(self) -> int:
        return int(self.propagation_delay_us * 10**6)

    def wire_bytes(self, payload_bytes: int) -> int:
        """Total bytes on the wire for one packet's payload."""
        return payload_bytes + PER_PACKET_OVERHEAD

    def serialization_time_ps(self, wire_bytes: int) -> int:
        """Whole ps to clock ``wire_bytes`` out (80 per byte at 100 Gbps)."""
        return wire_bytes * 8 * 10**12 // self.bits_per_second

    def max_packets_per_second(self, payload_bytes: int) -> float:
        """Packet rate when the link is saturated with this payload size."""
        return self.bytes_per_second / self.wire_bytes(payload_bytes)

    def max_goodput_gbps(self, payload_bytes: int) -> float:
        """Payload throughput at saturation — the iPerf-visible number."""
        share = payload_bytes / self.wire_bytes(payload_bytes)
        return self.bandwidth_gbps * share


#: The evaluation link (§5): directly connected 100 GbE.
LINK_100G = Link(propagation_delay_us=2.0)
