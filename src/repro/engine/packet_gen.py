"""The packet generator: FtEngine's TX data path (§4.1.2).

The generator is passive — it builds packets only when an FPC requests a
transfer.  It generates TCP/IP headers from the directive, fetches the
payload from the flow's TCP data buffer, and splits requests larger than
the maximum segment size into multiple segments.  It is stateless and
pipelinable, which is why parallelizing it for more FPCs is easy
(§4.4.2).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..tcp.options import WINDOW_SCALE, TcpOptions
from ..tcp.segment import FLAG_ACK, FLAG_PSH, FLAG_SYN, FlowKey, TcpSegment
from ..tcp.seq import seq_add
from .buffers import SendStream
from .fpu import TxDirective

#: The options of every segment whose directive carries none (most of
#: them): one shared, never-written record instead of a fresh one, and
#: its two lists, per segment.
_NO_OPTIONS = TcpOptions()


class PacketGenerator:
    """Builds wire segments from FPC transmit directives."""

    def __init__(
        self,
        key_of_flow: Callable[[int], Optional[FlowKey]],
        stream_of_flow: Callable[[int], Optional[SendStream]],
    ) -> None:
        self._key_of_flow = key_of_flow
        self._stream_of_flow = stream_of_flow
        self.packets_generated = 0
        self.bytes_generated = 0
        self.splits = 0

    def generate(
        self,
        directive: TxDirective,
        mss: int,
        sack_blocks=None,
    ) -> List[TcpSegment]:
        """Expand one directive into one or more segments.

        ``sack_blocks`` — the receiver's out-of-order holdings — are
        attached to ACK-bearing segments (RFC 2018) so the peer can
        retransmit only the holes.
        """
        key = self._key_of_flow(directive.flow_id)
        if key is None:
            return []  # flow torn down after the FPU pass; nothing to send
        segments: List[TcpSegment] = []
        if sack_blocks and directive.flags & FLAG_ACK and not directive.flags & FLAG_SYN:
            if directive.options is None:
                directive.options = TcpOptions()
            directive.options.sack_blocks = list(sack_blocks)

        if directive.length == 0:
            segments.append(self._bare_segment(key, directive, directive.seq))
        else:
            stream = self._stream_of_flow(directive.flow_id)
            if stream is None:
                return []
            remaining = directive.length
            seq = directive.seq
            while remaining > 0:
                take = min(remaining, mss)
                payload = stream.fetch(seq, take)
                segment = self._bare_segment(key, directive, seq)
                segment.payload = payload
                # PSH only on the final segment of the request.
                if remaining > take:
                    segment.flags &= ~FLAG_PSH
                    self.splits += 1
                segments.append(segment)
                seq = seq_add(seq, take)
                remaining -= take
            self.bytes_generated += directive.length

        self.packets_generated += len(segments)
        return segments

    def _bare_segment(
        self, key: FlowKey, directive: TxDirective, seq: int
    ) -> TcpSegment:
        # RFC 7323: the window on a SYN is never scaled; afterwards the
        # 16-bit field carries window >> WINDOW_SCALE.
        if directive.flags & FLAG_SYN:
            wire_window = min(0xFFFF, directive.window)
        else:
            wire_window = min(0xFFFF, directive.window >> WINDOW_SCALE)
        options = directive.options
        return TcpSegment(
            key.src_ip, key.dst_ip, key.src_port, key.dst_port,
            seq, directive.ack, directive.flags, wire_window, b"",
            _NO_OPTIONS if options is None else options,
        )
