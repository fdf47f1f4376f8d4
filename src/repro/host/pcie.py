"""PCIe bandwidth/latency model.

The host and FtEngine exchange 16 B commands plus payload DMA over PCIe
Gen3 x16.  Fig 9 shows 16 B requests bounded by PCIe at 396 Mrps — each
request moving a 16 B command and a 16 B payload — fixing the effective
bandwidth at about 12.7 GB/s.  Fig 16a shows the same ceiling for
header-only traffic with 16 B commands, lifted by shrinking commands
to 8 B (§6).
"""

from __future__ import annotations

from .calibration import (
    COMMAND_BYTES_DEFAULT,
    PCIE_EFFECTIVE_BYTES_PER_S,
)


class PcieModel:
    """Effective-bandwidth model of the host link."""

    effective_bytes_per_s = PCIE_EFFECTIVE_BYTES_PER_S
    #: One-way latency of a posted write / DMA transaction (§4.2.2 cites
    #: ~1 us for a PCIe transaction round trip).
    transaction_latency_us = 0.9

    def bytes_per_request(
        self,
        payload_bytes: int,
        command_bytes: int = COMMAND_BYTES_DEFAULT,
    ) -> int:
        """PCIe bytes moved per request: command + payload.

        Completions are excluded, matching the paper's Fig 9 accounting
        ("each 16 B request requires a 16 B command and 16 B payload
        DMA"): hardware-to-software completions are heavily coalesced,
        so their per-request share is negligible.
        """
        return command_bytes + payload_bytes

    def max_requests_per_s(
        self,
        payload_bytes: int,
        command_bytes: int = COMMAND_BYTES_DEFAULT,
    ) -> float:
        """The PCIe-imposed request-rate ceiling (Fig 9's 396 Mrps)."""
        per_request = self.bytes_per_request(payload_bytes, command_bytes)
        return self.effective_bytes_per_s / per_request
