"""FtEngine: the paper's contribution — a stall-free, flexible TCP engine.

Key modules: the FPC (event handler + dual-memory TCB manager + stateless
pipelined FPU + evict checker), the scheduler (location LUT, coalescing,
pending queue, migration), the DRAM memory manager, and the TX/RX data
paths.  The Testbed wires two engines back to back as in section 5.
"""

from .baseline import NullFpu, StallingAccelerator
from .buffers import SendStream
from .events import EventKind, TcpEvent, timeout_event, user_recv_event, user_send_event
from .event_handler import EventEntry, EventHandler, accumulate_event, merge_into_tcb
from .fpc import FlowProcessingCore
from .fpu import Fpu, HostNotification, NoteKind, ProcessResult, TimerOp, TxDirective
from .ftengine import ENGINE_FREQ_HZ, EngineMessage, FtEngine, FtEngineConfig
from .memory_manager import MemoryManager
from .packet_gen import PacketGenerator
from .resources import ftengine_cost, utilization_table
from .rx_parser import RxParser
from .scheduler import Location, Scheduler
from .testbed import Testbed
from .verification import InvariantMonitor, Violation, audited_run

__all__ = [
    "ENGINE_FREQ_HZ",
    "EngineMessage",
    "EventEntry",
    "EventHandler",
    "EventKind",
    "FlowProcessingCore",
    "Fpu",
    "FtEngine",
    "FtEngineConfig",
    "HostNotification",
    "Location",
    "MemoryManager",
    "NoteKind",
    "NullFpu",
    "PacketGenerator",
    "ProcessResult",
    "RxParser",
    "Scheduler",
    "SendStream",
    "StallingAccelerator",
    "TcpEvent",
    "Testbed",
    "TimerOp",
    "InvariantMonitor",
    "Violation",
    "TxDirective",
    "accumulate_event",
    "audited_run",
    "ftengine_cost",
    "merge_into_tcb",
    "timeout_event",
    "user_recv_event",
    "user_send_event",
    "utilization_table",
]
