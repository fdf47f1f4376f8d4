"""The Linux TCP stack baseline: a calibrated CPU-cost model (§2.2).

Linux is the comparison point of every end-to-end figure.  Its observable
behaviour in the paper reduces to per-request CPU costs — 37% of Nginx
cycles in the TCP stack (Fig 1a), ~2 270 cycles per 128 B bulk request
(Fig 8a), ~18 700 in round-robin mode (Fig 8b) — so that is what we
model, with TSO/checksum offload reflected in the bulk numbers (the
evaluation NICs enable both, §2.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..net.link import LINK_100G
from .calibration import (
    LINUX_CYCLES_PER_ECHO,
    LINUX_CYCLES_PER_SEND_BULK,
    LINUX_CYCLES_PER_SEND_RR,
    LINUX_ECHO_FLOW_PENALTY,
    NGINX_LINUX_CYCLES_PER_REQ,
)
from .cpu import CpuModel


@dataclass
class LinuxTcpStack:
    """Throughput model of the kernel stack on a given core pool."""

    cpu: CpuModel

    def _cap_to_link(self, rate: float, request_bytes: int) -> float:
        return min(rate, LINK_100G.max_packets_per_second(request_bytes))

    # ------------------------------------------------------------ figures
    def bulk_request_rate(self, request_bytes: int) -> float:
        """Fig 8a: bulk data transfer requests/s (TSO batches help)."""
        # Larger requests amortize per-byte copy cost on top of the
        # fixed per-request cost.
        cycles = LINUX_CYCLES_PER_SEND_BULK + 0.6 * request_bytes
        return self._cap_to_link(self.cpu.rate_for(cycles), request_bytes)

    def bulk_goodput_gbps(self, request_bytes: int) -> float:
        return self.bulk_request_rate(request_bytes) * request_bytes * 8 / 1e9

    def round_robin_request_rate(self, request_bytes: int) -> float:
        """Fig 8b: requests spread over 16 flows/core defeat TSO."""
        cycles = LINUX_CYCLES_PER_SEND_RR + 0.6 * request_bytes
        return self._cap_to_link(self.cpu.rate_for(cycles), request_bytes)

    def echo_rate(self, flows: int, request_bytes: int = 128) -> float:
        """Fig 13: ping-pong transactions/s, degrading with flow count."""
        base = self.cpu.rate_for(LINUX_CYCLES_PER_ECHO)
        if flows > 1024:
            doublings = math.log2(flows / 1024)
            base *= max(0.2, 1.0 - LINUX_ECHO_FLOW_PENALTY * doublings)
        return self._cap_to_link(base, request_bytes)

    def nginx_request_rate(self) -> float:
        """Figs 1b/10: web-server requests/s on this core pool."""
        return self.cpu.rate_for(NGINX_LINUX_CYCLES_PER_REQ)
