"""ARP (RFC 826): MAC address resolution for FtEngine (§4.1.2).

FtEngine implements ARP so generated packets carry the right destination
MAC.  Outgoing packets for unresolved IPs wait in a small pending store
while a request is broadcast; replies fill the cache and release them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..net.ethernet import BROADCAST_MAC, ETHERTYPE_ARP, EthernetFrame


class ArpOp(enum.Enum):
    REQUEST = 1
    REPLY = 2


@dataclass
class ArpMessage:
    op: ArpOp
    sender_mac: int
    sender_ip: int
    target_mac: int
    target_ip: int

    def __len__(self) -> int:
        return 28  # ARP payload size on Ethernet/IPv4


class ArpModule:
    """Per-engine ARP cache, responder and resolver."""

    MAX_PENDING_PER_IP = 64
    #: Re-broadcast an unanswered request after this long (the request
    #: itself may have been lost on the wire).
    RETRY_INTERVAL_PS = 10**12  # 1 s

    def __init__(self, my_mac: int, my_ip: int) -> None:
        self.my_mac = my_mac
        self.my_ip = my_ip
        self.cache: Dict[int, int] = {}
        #: Packets parked until their next-hop resolves: ip -> payloads.
        self._pending: Dict[int, List[Any]] = {}
        self._last_request_ps: Dict[int, int] = {}
        self.requests_sent = 0
        self.replies_sent = 0
        #: Packets turned away because their IP already had
        #: ``MAX_PENDING_PER_IP`` parked: they are never sent.
        self.pending_dropped = 0

    def resolve(self, ip: int) -> Optional[int]:
        """Cached MAC for ``ip``, or None if unresolved."""
        return self.cache.get(ip)

    def queue_until_resolved(
        self, ip: int, packet: Any, now_ps: int = 0
    ) -> Optional[EthernetFrame]:
        """Park ``packet``; returns the ARP request frame to broadcast.

        Returns None when a recent request for this IP is already
        outstanding; a lost request is re-broadcast after the retry
        interval.  A packet past the ``MAX_PENDING_PER_IP`` cap is
        dropped (counted in ``pending_dropped``).
        """
        waiters = self._pending.setdefault(ip, [])
        if len(waiters) < self.MAX_PENDING_PER_IP:
            waiters.append(packet)
        else:
            self.pending_dropped += 1
        last = self._last_request_ps.get(ip)
        if (
            len(waiters) > 1
            and last is not None
            and now_ps - last < self.RETRY_INTERVAL_PS
        ):
            return None
        self._last_request_ps[ip] = now_ps
        self.requests_sent += 1
        return EthernetFrame(
            src_mac=self.my_mac,
            dst_mac=BROADCAST_MAC,
            ethertype=ETHERTYPE_ARP,
            payload=ArpMessage(
                ArpOp.REQUEST, self.my_mac, self.my_ip, 0, ip
            ),
        )

    def handle(
        self, message: ArpMessage
    ) -> Tuple[Optional[EthernetFrame], List[Tuple[int, Any]]]:
        """Process an incoming ARP message.

        Returns (reply frame or None, released (dst_mac, packet) pairs).
        """
        released: List[Tuple[int, Any]] = []
        # Opportunistically learn the sender's mapping (RFC 826 merge).
        self.cache[message.sender_ip] = message.sender_mac
        for packet in self._pending.pop(message.sender_ip, []):
            released.append((message.sender_mac, packet))

        if message.op is ArpOp.REQUEST and message.target_ip == self.my_ip:
            self.replies_sent += 1
            reply = EthernetFrame(
                src_mac=self.my_mac,
                dst_mac=message.sender_mac,
                ethertype=ETHERTYPE_ARP,
                payload=ArpMessage(
                    ArpOp.REPLY,
                    self.my_mac,
                    self.my_ip,
                    message.sender_mac,
                    message.sender_ip,
                ),
            )
            return reply, released
        return None, released
