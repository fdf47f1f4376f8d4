"""The F4T library: POSIX-socket semantics over FtEngine (§4.1.1, §4.6).

In hardware deployments the library overrides the POSIX socket API via
LD_PRELOAD so applications run unmodified; here it *is* the socket API.
Calls are plain function calls (no mode switch): each one moves a 16 B
command through the runtime's per-thread queues and, for blocking
sockets, spins the simulation (polling, then "sleeping") until the
condition is met — mirroring the poll-then-sleep strategy of §4.6.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.ftengine import FtEngine
from ..sim.stats import Counters
from .calibration import F4T_CYCLES_PER_SEND_BULK
from .cpu import CycleAccount
from .runtime import F4TRuntime

#: Modelled per-call CPU costs (cycles) for the thin library paths.
#: send/recv inherit the calibrated Fig 8a cost; the others are small
#: fixed costs in the same regime (function call + queue touch).
CALL_COST_CYCLES = {
    "send": F4T_CYCLES_PER_SEND_BULK,
    "recv": F4T_CYCLES_PER_SEND_BULK,
    "socket": 20.0,
    "connect": 200.0,
    "listen": 100.0,
    "accept": 120.0,
    "close": 80.0,
    "poll_spin": 15.0,  # one spin of the poll-then-sleep loop (§4.6)
}

#: A pump advances the simulated world; returns False on timeout.
PumpFn = Callable[[Callable[[], bool], float], bool]

DEFAULT_TIMEOUT_S = 2.0


class SocketError(OSError):
    pass


class WouldBlock(SocketError):
    """EAGAIN/EWOULDBLOCK for non-blocking sockets."""


class ConnectionResetBySim(SocketError):
    """ECONNRESET: the peer aborted."""


class F4TSocket:
    """One socket handle; thin state over a flow ID."""

    _ids = itertools.count(1)

    def __init__(self, library: "F4TLibrary") -> None:
        self.fd = next(self._ids)
        self.library = library
        self.flow_id: Optional[int] = None
        self.listen_port: Optional[int] = None
        self.blocking = True
        self.connected = False
        self.peer_closed = False
        self.reset = False
        self.closed = False

    # Thin pass-throughs so application code reads naturally.
    def connect(self, address: Tuple[int, int]) -> None:
        self.library.connect(self, address)

    def bind_listen(self, port: int, backlog: int = 128) -> None:
        self.library.listen(self, port)

    def accept(self) -> "F4TSocket":
        return self.library.accept(self)

    def send(self, data: bytes) -> int:
        return self.library.send(self, data)

    def sendall(self, data: bytes) -> None:
        sent = 0
        while sent < len(data):
            sent += self.library.send(self, data[sent:])

    def recv(self, nbytes: int) -> bytes:
        return self.library.recv(self, nbytes)

    def recv_exactly(self, nbytes: int) -> bytes:
        chunks: List[bytes] = []
        remaining = nbytes
        while remaining > 0:
            chunk = self.recv(remaining)
            if not chunk:
                break  # EOF
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self.library.close(self)


class F4TLibrary:
    """The per-thread socket library bound to one engine + runtime."""

    def __init__(
        self,
        engine: FtEngine,
        pump: PumpFn,
        thread_id: int = 0,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        self.engine = engine
        self.thread_id = thread_id
        self.runtime = F4TRuntime(engine, thread_id)
        self.pump = pump
        self.timeout_s = timeout_s
        self._sockets_by_flow: Dict[int, F4TSocket] = {}
        self.counters = Counters()
        #: Modelled CPU consumption of this thread's library calls — the
        #: currency of the paper's headline claims (64% saved, §5.2).
        self.cpu_account = CycleAccount()

    def _charge(self, call: str) -> None:
        self.cpu_account.charge("f4t_library", CALL_COST_CYCLES[call])

    # ------------------------------------------------------------ plumbing
    def socket(self) -> F4TSocket:
        self.counters.add("socket_calls")
        self._charge("socket")
        return F4TSocket(self)

    def _bind(self, sock: F4TSocket, flow_id: int) -> None:
        sock.flow_id = flow_id
        self._sockets_by_flow[flow_id] = sock

    def _drain_completions(self) -> None:
        for message in self.runtime.poll_completions():
            sock = self._sockets_by_flow.get(message.flow_id)
            if sock is None:
                continue
            if message.kind == "connected":
                sock.connected = True
            elif message.kind == "eof":
                sock.peer_closed = True
            elif message.kind == "reset":
                sock.reset = True
            elif message.kind == "closed":
                sock.closed = True
            # 'acked' frees send-buffer room; senders poll room directly.

    def _wait(self, condition: Callable[[], bool], what: str) -> None:
        """Poll-then-sleep blocking wait (§4.6), driven by the pump."""

        def ready() -> bool:
            self.runtime.flush()
            self._drain_completions()
            return condition()

        if ready():
            return
        self.counters.add("blocking_waits")
        self._charge("poll_spin")
        if not self.pump(ready, self.timeout_s):
            raise TimeoutError(f"timed out waiting for {what}")

    # ------------------------------------------------------------- control
    def connect(self, sock: F4TSocket, address: Tuple[int, int]) -> None:
        dst_ip, dst_port = address
        flow_id = self.engine.connect(dst_ip, dst_port, thread_id=self.thread_id)
        self._bind(sock, flow_id)
        self.counters.add("connect_calls")
        self._charge("connect")
        if sock.blocking:
            self._wait(lambda: sock.connected or sock.reset, "connect")
            if sock.reset:
                raise ConnectionResetBySim("connection refused/reset")

    def listen(self, sock: F4TSocket, port: int) -> None:
        self.engine.listen(port)
        sock.listen_port = port
        self.counters.add("listen_calls")
        self._charge("listen")

    def accept(self, sock: F4TSocket) -> F4TSocket:
        if sock.listen_port is None:
            raise SocketError("accept on a non-listening socket")
        self.counters.add("accept_calls")
        self._charge("accept")
        result: List[int] = []

        def try_accept() -> bool:
            flow = self.engine.accept(sock.listen_port, thread_id=self.thread_id)
            if flow is not None:
                result.append(flow)
                return True
            return False

        if not try_accept():
            if not sock.blocking:
                raise WouldBlock("no pending connection")
            self._wait(try_accept, "accept")
        child = self.socket()
        child.connected = True
        self._bind(child, result[0])
        return child

    # ---------------------------------------------------------------- data
    def send(self, sock: F4TSocket, data: bytes) -> int:
        if sock.flow_id is None:
            raise SocketError("send on an unconnected socket")
        if sock.reset:
            raise ConnectionResetBySim("send on reset connection")
        self.counters.add("send_calls")
        self._charge("send")
        sent = self.runtime.send(sock.flow_id, data)
        self.runtime.flush()
        if sent > 0:
            return sent
        if not sock.blocking:
            raise WouldBlock("send buffer full")
        # Blocked on a full TCP data buffer (§4.1.1): wait for ACKs.
        holder: List[int] = []

        def room() -> bool:
            if sock.reset:
                return True
            n = self.runtime.send(sock.flow_id, data)
            if n > 0:
                holder.append(n)
                return True
            return False

        self._wait(room, "send-buffer room")
        if sock.reset:
            raise ConnectionResetBySim("connection reset while sending")
        self.runtime.flush()
        return holder[0]

    def recv(self, sock: F4TSocket, nbytes: int) -> bytes:
        if sock.flow_id is None:
            raise SocketError("recv on an unconnected socket")
        self.counters.add("recv_calls")
        self._charge("recv")

        def readable() -> bool:
            return (
                self.engine.readable(sock.flow_id) > 0
                or sock.peer_closed
                or sock.reset
            )

        if not readable():
            if not sock.blocking:
                raise WouldBlock("no data available")
            self._wait(readable, "data")
        if sock.reset:
            raise ConnectionResetBySim("recv on reset connection")
        data = self.runtime.recv(sock.flow_id, nbytes)
        self.runtime.flush()
        return data  # b"" means EOF (peer closed)

    def close(self, sock: F4TSocket) -> None:
        self.counters.add("close_calls")
        self._charge("close")
        if sock.flow_id is not None and not sock.closed:
            self.runtime.close(sock.flow_id)
            self.runtime.flush()
