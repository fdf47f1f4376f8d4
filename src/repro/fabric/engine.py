"""The fabric driver: N backend hosts through the switch, one workload.

:class:`FabricLoadEngine` instantiates one :class:`~repro.fabric.
softstack.SoftStack` per host — the backend's service model supplies
the per-host NIC/stack timing, including F4T's own
:class:`~repro.fabric.service.F4TService` — attaches them to a
:class:`~repro.fabric.switch.SwitchFabric`, and drives the scenario's
communication pattern to completion with an event-driven run loop
(integer picoseconds; the loop jumps from packet arrival to timer
deadline to scheduled request arrival).

Like :class:`~repro.traffic.engine.LoadEngine`, both ends of every
connection live in this one process, so servers need no protocol
parsing: the driver knows each request's framing and answers with the
scheduled response size on the same connection.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..engine.testbed import message_driven
from ..net.wire import derive_seed
from ..sim.component import NEVER, seconds_to_ps
from ..sim.stats import Histogram
from ..tcp.state_machine import TcpState
from .backend import get_backend
from .scenarios import FabricScenario
from .softstack import SoftStack, TimerHeap, run_event_loop
from .switch import SwitchFabric

#: Shared zero payload; transfer content is opaque, only sizes matter.
_ZEROS = bytes(1 << 16)

#: Simulated seconds a run gives its connections to open.
SETUP_TIME_S = 0.05


@dataclass
class FabricResult:
    """One fabric run's measurements."""

    scenario: str
    backend: str
    num_hosts: int
    seed: int
    load_scale: float
    elapsed_s: float
    finished: bool
    offered: int
    completed: int
    bytes_delivered: int
    latencies: Histogram = field(default_factory=lambda: Histogram("latency"))
    retransmits: int = 0
    timeouts: int = 0
    switch_drops: int = 0
    ecn_marks: int = 0
    peak_buffer_bytes: int = 0

    @property
    def goodput_gbps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.bytes_delivered * 8 / self.elapsed_s / 1e9

    def _pct(self, p: float) -> float:
        return self.latencies.percentile(p) if len(self.latencies) else math.nan

    @property
    def p50_s(self) -> float:
        return self._pct(50)

    @property
    def p99_s(self) -> float:
        return self._pct(99)

    def scalars(self) -> Dict[str, float]:
        """Flat numeric view (lab drivers and the sweep table)."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "goodput_gbps": self.goodput_gbps,
            "p50_us": self.p50_s * 1e6,
            "p99_us": self.p99_s * 1e6,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
            "switch_drops": self.switch_drops,
            "ecn_marks": self.ecn_marks,
            "peak_buffer_kib": self.peak_buffer_bytes / 1024,
            "elapsed_us": self.elapsed_s * 1e6,
        }

    def summary(self) -> str:
        state = "finished" if self.finished else "hit the time bound"
        return (
            f"{self.scenario} [{self.backend}] N={self.num_hosts}: "
            f"{self.completed}/{self.offered} transfers in "
            f"{self.elapsed_s * 1e6:.1f} simulated us ({state}); "
            f"{self.goodput_gbps:.2f} Gbps, p99 {self.p99_s * 1e6:.1f} us, "
            f"{self.retransmits} retransmits, {self.switch_drops} switch "
            f"drops, {self.ecn_marks} ECN marks"
        )


# Connection states.
_CONNECTING, _READY = range(2)


class _Transfer:
    """One request(+response) moving over a conn."""

    __slots__ = ("req_bytes", "resp_bytes", "arrival_ps")

    def __init__(self, req_bytes: int, resp_bytes: int, arrival_ps: int) -> None:
        self.req_bytes = req_bytes
        self.resp_bytes = resp_bytes
        #: When it arrived (scheduled, or its round began), in ps.
        self.arrival_ps = arrival_ps


class _FabricConn:
    """One client->server connection and its in-flight transfers."""

    __slots__ = (
        "index", "client", "server", "c_flow", "s_flow", "state",
        "pending", "current", "send_remaining", "resp_remaining",
        "srv_expect", "srv_send_remaining",
    )

    def __init__(self, index: int, client: int, server: int) -> None:
        self.index = index  # position in FabricLoadEngine.conns
        self.client = client
        self.server = server
        self.c_flow: Optional[int] = None
        self.s_flow: Optional[int] = None
        self.state = _CONNECTING
        #: Released-but-not-issued transfers.
        self.pending: Deque[_Transfer] = deque()
        self.current: Optional[_Transfer] = None
        self.send_remaining = 0
        self.resp_remaining = 0
        #: Server-side framing FIFO: [remaining, transfer].
        self.srv_expect: Deque[list] = deque()
        self.srv_send_remaining = 0


class FabricLoadEngine:
    """Drives one :class:`FabricScenario` on one backend."""

    def __init__(
        self,
        scenario: FabricScenario,
        backend: str = "f4t",
        load_scale: float = 1.0,
    ) -> None:
        self.scenario = scenario
        self.spec = get_backend(backend)
        self.load_scale = load_scale
        self.fabric = SwitchFabric(scenario.num_hosts, scenario.ecn_threshold_bytes)
        self.timers = TimerHeap()
        self.stacks: List[SoftStack] = [
            SoftStack(
                ip=self.fabric.host_ip(i),
                port=self.fabric.port(i),
                service=self.spec.service_class(),
                timers=self.timers,
                host=i,
                name=f"h{i}",
                seed=scenario.seed,
            )
            for i in range(scenario.num_hosts)
        ]
        self.time_ps = 0
        self.conns: List[_FabricConn] = []
        self._conn_by_pair: Dict[Tuple[int, int], _FabricConn] = {}
        #: (server host, client ip, client ephemeral port) -> conn
        #: awaiting accept.  Client ip is part of the key because every
        #: stack draws ephemeral ports from the same range — two hosts'
        #: connections to one server can share a port number.
        self._awaiting: Dict[Tuple[int, int, int], _FabricConn] = {}
        #: (host, flow id) -> conn, both ends: routes host messages.
        self._conn_of_flow: Dict[Tuple[int, int], _FabricConn] = {}
        #: Indexes of conns to advance on the next pump: a flow of
        #: theirs posted a message, they were handed a transfer, or
        #: their last advance left a step they can take with no message
        #: in between (see ``_advance_conn``).
        self._dirty: Set[int] = set()
        self._round = 0
        #: Openloop schedule: (time_ps from the start, client, server,
        #: req_b, resp_b).
        self._schedule: List[Tuple[int, int, int, int, int]] = []
        self._release_index = 0
        self._outstanding = 0
        self._start_ps = 0
        self.result = FabricResult(
            scenario=scenario.name,
            backend=self.spec.name,
            num_hosts=scenario.num_hosts,
            seed=scenario.seed,
            load_scale=load_scale,
            elapsed_s=0.0,
            finished=False,
            offered=0,
            completed=0,
            bytes_delivered=0,
        )
        #: Observability (repro.obs): a TraceBus, or None (free default).
        self.trace = None

    # ------------------------------------------------------------ schedule
    def _rng(self, stream: str) -> random.Random:
        scenario = self.scenario
        return random.Random(
            derive_seed(scenario.seed, f"fabric/{scenario.name}/{stream}")
        )

    def _build_schedule(self) -> None:
        scenario = self.scenario
        arrival = scenario.arrival.scaled(self.load_scale)
        times = arrival.times(self._rng("arrivals"), scenario.duration_s)
        pick_rng = self._rng("endpoints")
        req_rng = self._rng("request-sizes")
        resp_rng = self._rng("response-sizes")
        n = scenario.num_hosts
        zipf_cdf: Optional[List[float]] = None
        if scenario.server_select == "zipf":
            # Rank-frequency skew over the n-1 candidate servers: rank k
            # (0 = hottest) drawn with probability proportional to
            # (k+1)^-s.
            weights = [
                1.0 / (k + 1) ** scenario.zipf_s for k in range(n - 1)
            ]
            total = sum(weights)
            acc = 0.0
            zipf_cdf = []
            for w in weights:
                acc += w / total
                zipf_cdf.append(acc)
        for t in times:
            if zipf_cdf is None:
                server = 0
                client = 1 + pick_rng.randrange(n - 1)
            else:
                client = pick_rng.randrange(n)
                u = pick_rng.random()
                rank = len(zipf_cdf) - 1
                for k, threshold in enumerate(zipf_cdf):
                    if u <= threshold:
                        rank = k
                        break
                server = rank if rank < client else rank + 1
            self._schedule.append((
                t, client, server,
                max(1, scenario.request.sample(req_rng)),
                max(0, scenario.response.sample(resp_rng)),
            ))
        self.result.offered = len(self._schedule)

    # ----------------------------------------------------------- lifecycle
    def run(self, max_time_s: float = 0.25) -> FabricResult:
        scenario = self.scenario
        if self.trace is not None:
            for stack in self.stacks:
                stack.trace = self.trace
                stack.trace_name = stack.name
            self.fabric.trace = self.trace
        for stack in self.stacks:
            stack.listen(scenario.server_port)
        if scenario.mode == "rounds":
            self.result.offered = scenario.rounds * (scenario.num_hosts - 1)
            for i in range(1, scenario.num_hosts):
                self._connect(client=0, server=i)
        else:
            self._build_schedule()
        # Handshakes finish on 'accepted' / 'connected' messages.
        if not self._run(self._pools_ready, message_driven, SETUP_TIME_S):
            raise TimeoutError(
                f"{scenario.name}: fabric connection setup did not complete"
            )
        self._start_ps = self.time_ps
        finished = self._run(self._pump, self._next_call_ps, max_time_s)
        result = self.result
        result.finished = finished
        result.elapsed_s = max(self.time_ps - self._start_ps, 1) / 1e12
        result.retransmits = sum(s.retransmits for s in self.stacks)
        result.timeouts = sum(s.timeouts for s in self.stacks)
        result.switch_drops = self.fabric.dropped
        result.ecn_marks = self.fabric.ecn_marked
        result.peak_buffer_bytes = self.fabric.peak_buffer_bytes
        return result

    def _connect(self, client: int, server: int) -> _FabricConn:
        conn = _FabricConn(len(self.conns), client, server)
        stack: SoftStack = self.stacks[client]
        conn.c_flow = stack.connect(
            self.fabric.host_ip(server), self.scenario.server_port
        )
        key = stack.flow_key(conn.c_flow)
        self._awaiting[(server, key.src_ip, key.src_port)] = conn
        self._conn_of_flow[(client, conn.c_flow)] = conn
        self.conns.append(conn)
        self._conn_by_pair[(client, server)] = conn
        return conn

    def _poll_messages(self) -> None:
        """Drain every host queue; each message dirties its conn."""
        port = self.scenario.server_port
        for index, stack in enumerate(self.stacks):
            if not stack.host_messages:
                continue
            for message in stack.drain_host_messages():
                if message.kind == "accepted":
                    # One accept-queue entry per message, in step.
                    flow = stack.accept(port)
                    key = stack.flow_key(flow)
                    if key is not None:
                        conn = self._awaiting.pop(
                            (index, key.dst_ip, key.dst_port), None
                        )
                        if conn is not None:
                            conn.s_flow = flow
                            self._conn_of_flow[(index, flow)] = conn
                conn = self._conn_of_flow.get((index, message.flow_id))
                if conn is not None:
                    self._dirty.add(conn.index)

    def _ready(self, conn: _FabricConn) -> bool:
        if (
            conn.state == _CONNECTING
            and conn.s_flow is not None
            and self.stacks[conn.client].flow_state(conn.c_flow)
            is TcpState.ESTABLISHED
        ):
            conn.state = _READY
        return conn.state == _READY

    def _pools_ready(self) -> bool:
        self._poll_messages()
        return all(self._ready(conn) for conn in self.conns)

    # ------------------------------------------------------------ the pump
    def _next_call_ps(self) -> int:
        """When a later :meth:`_pump` call acts by itself, in int ps: at
        once (an instant already reached) while a round release is
        pending or a conn can act with no message in between, else at
        the next scheduled arrival, else :data:`NEVER` — only a host
        message can move the driver then."""
        if self._dirty or self._round_due():
            return self.time_ps
        if self._release_index < len(self._schedule):
            return self._start_ps + self._schedule[self._release_index][0]
        return NEVER

    def _pump(self) -> bool:
        """One driver step, called when :meth:`_next_call_ps` says so or
        a stack posted a host message.

        Message-driven: only dirty conns are advanced, in ``conns``
        order (they share stacks, so order is part of the result).  The
        round release looks at what the *previous* call completed, and
        that call asked for the next picosecond: a round starts — and
        stamps its arrival time — 1 ps after the call that saw its last
        completion.
        """
        self._poll_messages()
        if self.scenario.mode == "rounds":
            self._pump_rounds()
        else:
            self._release_arrivals()
        still_dirty: Set[int] = set()
        for index in sorted(self._dirty):
            if self._advance_conn(self.conns[index]):
                still_dirty.add(index)
        self._dirty = still_dirty
        return self._all_done()

    def _round_due(self) -> bool:
        """Whether the next pump call releases a round: rounds remain,
        the last one is complete and every conn is ready."""
        scenario = self.scenario
        return (
            scenario.mode == "rounds"
            and self._round < scenario.rounds
            and self._outstanding == 0
            and all(conn.state == _READY for conn in self.conns)
        )

    def _pump_rounds(self) -> None:
        if not self._round_due():
            return
        scenario = self.scenario
        # Barrier crossed: everyone finished the previous round.
        now = self.time_ps
        block = scenario.block_bytes
        for conn in self.conns:
            if scenario.reverse:
                # Outcast: host 0 pushes the block; delivery at the
                # receiver is completion (one-way stream).
                conn.pending.append(_Transfer(block, 0, now))
            else:
                # Incast: a small request triggers the block response.
                conn.pending.append(
                    _Transfer(scenario.request_bytes, block, now)
                )
            self._outstanding += 1
            self._dirty.add(conn.index)
        if self.trace is not None:
            self.trace.emit(
                self.time_ps, "fabric", "driver", "round", -1,
                f"round={self._round} blocks={len(self.conns)}",
            )
        self._round += 1

    def _release_arrivals(self) -> None:
        now = self.time_ps
        schedule = self._schedule
        while self._release_index < len(schedule):
            t, client, server, req_b, resp_b = schedule[self._release_index]
            arrival = self._start_ps + t
            if arrival > now:
                return
            self._release_index += 1
            self._outstanding += 1
            conn = self._conn_by_pair.get((client, server))
            if conn is None:
                conn = self._connect(client, server)
            conn.pending.append(_Transfer(req_b, resp_b, arrival))
            self._dirty.add(conn.index)
            if self.trace is not None:
                self.trace.emit(
                    self.time_ps, "fabric", "driver", "arrival", -1,
                    f"h{client}->h{server} req={req_b} resp={resp_b}",
                )

    # ----------------------------------------------------- conn state steps
    def _advance_conn(self, conn: _FabricConn) -> bool:
        """One step of one conn; True if its next step can act with no
        message in between: a send — request or response — with buffer
        room, or a queued transfer.  Anything else waits on a message."""
        if not self._ready(conn):
            return False
        if conn.current is None and conn.pending:
            transfer = conn.pending.popleft()
            conn.current = transfer
            conn.send_remaining = transfer.req_bytes
            conn.resp_remaining = transfer.resp_bytes
            conn.srv_expect.append([transfer.req_bytes, transfer])
        client_stack = self.stacks[conn.client]
        if conn.send_remaining > 0:
            chunk = _ZEROS[: min(conn.send_remaining, len(_ZEROS))]
            conn.send_remaining -= client_stack.send_data(conn.c_flow, chunk)
        if (
            conn.current is not None
            and conn.send_remaining == 0
            and conn.current.resp_bytes == 0
        ):
            # One-way push fully buffered: free the conn to pipeline the
            # next transfer; completion is counted at the receiver.
            conn.current = None
        self._serve(conn)
        if conn.resp_remaining > 0 and conn.send_remaining == 0:
            self._pull_response(conn)
        return bool(
            (conn.send_remaining and client_stack.send_room(conn.c_flow))
            or (
                conn.srv_send_remaining
                and self.stacks[conn.server].send_room(conn.s_flow)
            )
            or (conn.current is None and conn.pending)
        )

    def _serve(self, conn: _FabricConn) -> None:
        stack = self.stacks[conn.server]
        if conn.s_flow is None or conn.s_flow not in stack.flows:
            return
        readable = stack.readable(conn.s_flow)
        if readable > 0:
            received = len(stack.recv_data(conn.s_flow, readable))
            while received > 0 and conn.srv_expect:
                expect = conn.srv_expect[0]
                take = min(received, expect[0])
                expect[0] -= take
                received -= take
                if expect[0] > 0:
                    break
                transfer = expect[1]
                if transfer.resp_bytes > 0:
                    conn.srv_send_remaining += transfer.resp_bytes
                else:
                    # One-way push (outcast): delivery IS completion.
                    self._complete(conn, transfer, transfer.req_bytes)
                conn.srv_expect.popleft()
        if conn.srv_send_remaining > 0:
            chunk = _ZEROS[: min(conn.srv_send_remaining, len(_ZEROS))]
            conn.srv_send_remaining -= stack.send_data(conn.s_flow, chunk)

    def _pull_response(self, conn: _FabricConn) -> None:
        stack = self.stacks[conn.client]
        readable = stack.readable(conn.c_flow)
        if readable <= 0:
            return
        take = min(readable, conn.resp_remaining)
        conn.resp_remaining -= len(stack.recv_data(conn.c_flow, take))
        if conn.resp_remaining == 0 and conn.current is not None:
            transfer = conn.current
            conn.current = None
            self._complete(
                conn, transfer, transfer.req_bytes + transfer.resp_bytes
            )

    def _complete(
        self, conn: _FabricConn, transfer: _Transfer, delivered_bytes: int
    ) -> None:
        result = self.result
        result.latencies.record((self.time_ps - transfer.arrival_ps) / 1e12)
        result.bytes_delivered += delivered_bytes
        result.completed += 1
        self._outstanding -= 1
        if self.trace is not None:
            self.trace.emit(
                self.time_ps, "fabric", "driver", "complete",
                conn.c_flow if conn.c_flow is not None else -1,
                f"h{conn.client}->h{conn.server} bytes={delivered_bytes}",
            )

    def _all_done(self) -> bool:
        if self.scenario.mode == "rounds":
            return (
                self._round >= self.scenario.rounds
                and self._outstanding == 0
            )
        return (
            self._release_index >= len(self._schedule)
            and self._outstanding == 0
        )

    # ------------------------------------------------------------ run loop
    def _run(
        self,
        until: Callable[[], bool],
        next_call_ps: Callable[[], int],
        max_time_s: float,
    ) -> bool:
        """Settle every host at each event instant, for ``max_time_s`` more."""
        return run_event_loop(
            self,
            self.timers,
            self.fabric,
            self.time_ps + seconds_to_ps(max_time_s),
            until=until,
            next_call_ps=next_call_ps,
        )


def run_fabric(
    scenario: FabricScenario,
    backend: str = "f4t",
    load_scale: float = 1.0,
    trace=None,
    max_time_s: float = 0.25,
) -> FabricResult:
    """One-call fabric run; see :class:`FabricLoadEngine`."""
    engine = FabricLoadEngine(scenario, backend=backend, load_scale=load_scale)
    engine.trace = trace
    return engine.run(max_time_s=max_time_s)
