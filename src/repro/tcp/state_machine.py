"""RFC 793 connection state machine.

FtEngine processes connection setup and teardown in hardware; the state
transitions live here so both the engine's FPU and the reference
simulator share one definition.
"""

from __future__ import annotations

import enum


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RECEIVED = "SYN_RECEIVED"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


#: States in which the connection may carry payload data.
DATA_STATES = frozenset(
    {TcpState.ESTABLISHED, TcpState.CLOSE_WAIT, TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2}
)


def on_syn_received(state: TcpState) -> TcpState:
    """Peer's SYN arrived (no ACK)."""
    if state is TcpState.LISTEN:
        return TcpState.SYN_RECEIVED
    if state is TcpState.SYN_SENT:  # simultaneous open
        return TcpState.SYN_RECEIVED
    return state  # duplicate SYN: stay put, a retransmitted SYN-ACK answers it


def on_syn_ack_received(state: TcpState) -> TcpState:
    if state is TcpState.SYN_SENT:
        return TcpState.ESTABLISHED
    return state


def on_ack_of_syn(state: TcpState) -> TcpState:
    """Our SYN-ACK got ACKed."""
    if state is TcpState.SYN_RECEIVED:
        return TcpState.ESTABLISHED
    return state


def on_close(state: TcpState) -> TcpState:
    """Application called close()."""
    if state in (TcpState.ESTABLISHED, TcpState.SYN_RECEIVED):
        return TcpState.FIN_WAIT_1
    if state is TcpState.CLOSE_WAIT:
        return TcpState.LAST_ACK
    if state in (TcpState.SYN_SENT, TcpState.LISTEN, TcpState.CLOSED):
        return TcpState.CLOSED
    return state


def on_fin_received(state: TcpState) -> TcpState:
    if state is TcpState.ESTABLISHED:
        return TcpState.CLOSE_WAIT
    if state is TcpState.FIN_WAIT_1:
        return TcpState.CLOSING
    if state is TcpState.FIN_WAIT_2:
        return TcpState.TIME_WAIT
    return state


def on_ack_of_fin(state: TcpState) -> TcpState:
    if state is TcpState.FIN_WAIT_1:
        return TcpState.FIN_WAIT_2
    if state is TcpState.CLOSING:
        return TcpState.TIME_WAIT
    if state is TcpState.LAST_ACK:
        return TcpState.CLOSED
    return state


def on_rst(state: TcpState) -> TcpState:
    return TcpState.CLOSED
