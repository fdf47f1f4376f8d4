"""The F4T runtime: userspace device driver between library and engine.

The runtime mmaps FtEngine's PCIe BAR for doorbell MMIO, registers
hugepages for DMA, and owns the per-thread command queues (§4.1.1).  In
this reproduction it moves *real encoded 16 B commands* through the
queue rings: the library pushes commands, the runtime's ``flush`` pops
the published batch and drives the engine, and engine messages flow back
through the completion queue — so queue-depth stalls and MMIO batching
behave like the paper describes (§4.6).

Connection-management operations (connect/listen/accept) use the
engine's control API directly; they are rare, and the hot data path —
send/recv pointer commands — is the part whose fidelity matters.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..engine.events import user_recv_event, user_send_event
from ..engine.ftengine import EngineMessage, FtEngine
from ..tcp.seq import seq_add
from .commands import Command, Opcode
from .queues import QueuePair

_NOTE_TO_OPCODE = {
    "acked": Opcode.ACKED,
    "data": Opcode.DATA,
    "connected": Opcode.CONNECTED,
    "accepted": Opcode.ACCEPTED,
    "eof": Opcode.EOF,
    "closed": Opcode.CLOSED,
    "reset": Opcode.RESET,
}
_OPCODE_TO_NOTE = {v: k for k, v in _NOTE_TO_OPCODE.items()}


class F4TRuntime:
    """One host thread's attachment to an FtEngine."""

    def __init__(
        self,
        engine: FtEngine,
        thread_id: int = 0,
        simplified_commands: bool = False,
    ) -> None:
        self.engine = engine
        self.thread_id = thread_id
        engine.register_thread(thread_id)
        #: §6: 8 B commands halve the PCIe cost per request.
        self.queues = QueuePair(thread_id, simplified=simplified_commands)
        self.mmio_doorbell_writes = 0
        self.commands_sent = 0
        self.commands_received = 0
        self._pending_doorbell = False

        #: Observability (repro.obs): a TraceBus, or None (free default).
        self.trace = None
        self.trace_name = f"runtime{thread_id}"

    # ----------------------------------------------------- data-path (hot)
    def send(self, flow_id: int, data: bytes) -> int:
        """send(): write payload to the hugepage buffer, queue the pointer.

        Returns bytes accepted (limited by buffer room and queue space);
        0 models EAGAIN / blocking-wait conditions.
        """
        stream = self.engine._stream_of_flow(flow_id)
        if stream is None:
            raise KeyError(f"unknown flow {flow_id}")
        if self.queues.submission.full:
            return 0
        accept = min(len(data), stream.room)
        if accept == 0:
            return 0
        pointer = stream.append(data[:accept])
        self.queues.submission.push(Command(Opcode.SEND, flow_id, pointer))
        self._pending_doorbell = True
        self.commands_sent += 1
        if self.trace is not None:
            self.trace.emit(
                self.engine.time_ps, "host", self.trace_name, "send",
                flow_id, f"bytes={accept} ptr={pointer}",
            )
        return accept

    def recv(self, flow_id: int, nbytes: int) -> bytes:
        """recv(): read the DMA buffer directly, then queue the pointer.

        The data buffer lives in host hugepages, so reading costs no
        hardware interaction; only the consumption-pointer update is a
        command (it lets the engine reopen the receive window).
        """
        data = self.engine.rx_parser.read(flow_id, nbytes)
        if data and not self.queues.submission.full:
            state = self.engine.rx_parser.rx_states.get(flow_id)
            if state is not None:
                pointer = seq_add(
                    state.reassembly.rcv_nxt, -state.reassembly.readable
                )
                self.queues.submission.push(Command(Opcode.RECV, flow_id, pointer))
                self._pending_doorbell = True
                self.commands_sent += 1
        if data and self.trace is not None:
            self.trace.emit(
                self.engine.time_ps, "host", self.trace_name, "recv",
                flow_id, f"bytes={len(data)}",
            )
        return data

    def close(self, flow_id: int) -> None:
        self.queues.submission.push(Command(Opcode.CLOSE, flow_id))
        self._pending_doorbell = True
        self.commands_sent += 1

    def ring_doorbell(self) -> None:
        """MMIO-batched doorbell: one write for all queued commands (§4.6)."""
        if self._pending_doorbell:
            self.queues.submission.ring_doorbell()
            self.mmio_doorbell_writes += 1
            self._pending_doorbell = False
            if self.trace is not None:
                self.trace.emit(
                    self.engine.time_ps, "host", self.trace_name,
                    "doorbell", -1, f"queued={len(self.queues.submission)}",
                )

    # --------------------------------------------------------- engine side
    def flush(self) -> int:
        """Hardware side: pop published commands and drive the engine."""
        self.ring_doorbell()
        commands = self.queues.submission.pop_batch()
        for command in commands:
            self._dispatch(command)
        return len(commands)

    def _dispatch(self, command: Command) -> None:
        engine = self.engine
        if command.opcode is Opcode.SEND:
            engine._submit(
                user_send_event(command.flow_id, command.pointer, engine.time_ps)
            )
        elif command.opcode is Opcode.RECV:
            engine._submit(
                user_recv_event(command.flow_id, command.pointer, engine.time_ps)
            )
        elif command.opcode is Opcode.CLOSE:
            engine.close_flow(command.flow_id)
        else:
            raise ValueError(f"not a software->hardware opcode: {command.opcode}")

    def pump_completions(self) -> None:
        """Hardware side: encode engine messages into the completion ring.

        Receive-side scaling: only this thread's messages land here
        (§4.6), so threads share no queue state.
        """
        for message in self.engine.drain_host_messages(self.thread_id):
            self.queues.completion.push(
                Command(_NOTE_TO_OPCODE[message.kind], message.flow_id, message.value)
            )
        self.queues.completion.ring_doorbell()

    def poll_completions(self) -> List[EngineMessage]:
        """Library side: poll the software doorbell and decode commands."""
        self.pump_completions()
        messages: List[EngineMessage] = []
        for command in self.queues.completion.pop_batch():
            messages.append(
                EngineMessage(
                    _OPCODE_TO_NOTE[command.opcode], command.flow_id, command.pointer
                )
            )
            self.commands_received += 1
            if self.trace is not None:
                self.trace.emit(
                    self.engine.time_ps, "host", self.trace_name,
                    "complete", command.flow_id,
                    _OPCODE_TO_NOTE[command.opcode],
                )
        return messages
