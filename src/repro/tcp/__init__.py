"""TCP protocol substrate: everything FtEngine's datapath computes with.

Sequence arithmetic, wire-format segments, the cuckoo flow table, logical
out-of-order reassembly, the TCB, RFC 6298 timers, the RFC 793 state
machine and the pluggable congestion-control algorithms.
"""

from .cuckoo import CuckooHashTable
from .reassembly import ReassemblyBuffer
from .segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    FlowKey,
    PACKET_OVERHEAD,
    TcpSegment,
    ip_from_string,
    ip_to_string,
)
from .seq import (
    SEQ_MOD,
    seq_add,
    seq_ge,
    seq_gt,
    seq_in_window,
    seq_le,
    seq_lt,
    seq_max,
    seq_sub,
)
from .state_machine import TcpState
from .tcb import DEFAULT_BUFFER_BYTES, DEFAULT_MSS, TCB_SIZE_BYTES, Tcb
from .timers import TimerWheel, backoff_rto, update_rtt
from .congestion import (
    CongestionControl,
    available_algorithms,
    get_algorithm,
    register,
)

__all__ = [
    "CongestionControl",
    "CuckooHashTable",
    "DEFAULT_BUFFER_BYTES",
    "DEFAULT_MSS",
    "FLAG_ACK",
    "FLAG_FIN",
    "FLAG_PSH",
    "FLAG_RST",
    "FLAG_SYN",
    "FlowKey",
    "PACKET_OVERHEAD",
    "ReassemblyBuffer",
    "SEQ_MOD",
    "TCB_SIZE_BYTES",
    "Tcb",
    "TcpSegment",
    "TcpState",
    "TimerWheel",
    "available_algorithms",
    "backoff_rto",
    "get_algorithm",
    "ip_from_string",
    "ip_to_string",
    "register",
    "seq_add",
    "seq_ge",
    "seq_gt",
    "seq_in_window",
    "seq_le",
    "seq_lt",
    "seq_max",
    "seq_sub",
    "update_rtt",
]
