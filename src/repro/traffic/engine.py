"""The load engine: drives a scenario's classes over the two-engine testbed.

Open-loop classes follow their pre-generated arrival schedule — requests
queue up when the engines fall behind, which is exactly the point: the
measured gap between offered and achieved load, and the latency a
request accrues from its *scheduled* arrival (not its issue), are what a
closed loop can never show.  Closed-loop classes (the paper's exhibits,
now thin presets in ``repro.apps``) self-pace instead.

Every request is opaque payload framed by byte counts the harness — both
ends live in one process — already knows, so the server side needs no
protocol parsing: it consumes each request's bytes and answers with the
scheduled response size on the same connection, requests serialized per
connection (HTTP/1.1-style) except for one-way streams, which pipeline.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import ClassVar, Deque, Dict, List, Optional

from ..engine.ftengine import ENGINE_PERIOD_PS
from ..engine.testbed import Testbed, message_driven
from ..engine.verification import InvariantMonitor
from ..sim.component import NEVER
from ..sim.stats import Histogram
from ..tcp.state_machine import TcpState
from .scenario import PER_REQUEST, Request, Scenario, TrafficClass

#: Shared zero payload; request content is opaque, only sizes matter.
_ZEROS = bytes(1 << 16)

#: With ``audit=True``, the invariant monitors run every this many cycles.
AUDIT_EVERY_CYCLES = 4096

_A_FLOW = attrgetter("a_flow")

# Connection states.
_CONNECTING, _READY, _SENDING, _WAITING, _CLOSING, _DONE = range(6)


@dataclass
class ClassMetrics:
    """Everything measured for one traffic class."""

    name: str
    offered: int = 0
    completed: int = 0
    bytes_delivered: int = 0
    connections_opened: int = 0
    connections_closed: int = 0
    #: Scheduled-arrival -> fully-delivered, per request (seconds,
    #: converted from the ps clock as each is recorded).
    latencies: Histogram = field(default_factory=lambda: Histogram("latency"))
    #: connect() -> both flows fully torn down (per-request classes).
    lifecycle: Histogram = field(default_factory=lambda: Histogram("lifecycle"))
    #: Arrivals per second the schedule asked for (None = closed loop).
    offered_rps: Optional[float] = None
    achieved_rps: float = 0.0
    goodput_gbps: float = 0.0

    def _pct(self, p: float) -> float:
        return self.latencies.percentile(p) if len(self.latencies) else math.nan

    @property
    def p50_s(self) -> float:
        return self._pct(50)

    @property
    def p99_s(self) -> float:
        return self._pct(99)


@dataclass
class ScenarioResult:
    """One scenario run's measurements, per class and overall."""

    scenario: str
    seed: int
    load_scale: float
    elapsed_s: float
    finished: bool
    classes: Dict[str, ClassMetrics]
    frames_dropped: int = 0
    violations: List[str] = field(default_factory=list)

    #: The offload design that ran: the FtEngine pair (the CSV column).
    backend: ClassVar[str] = "f4t"

    @property
    def completed(self) -> int:
        return sum(m.completed for m in self.classes.values())

    @property
    def offered(self) -> int:
        return sum(m.offered for m in self.classes.values())

    @property
    def achieved_rps(self) -> float:
        return sum(m.achieved_rps for m in self.classes.values())

    @property
    def goodput_gbps(self) -> float:
        return sum(m.goodput_gbps for m in self.classes.values())

    @property
    def offered_rps(self) -> float:
        """Aggregate scheduled arrival rate over the open-loop classes."""
        return sum(
            m.offered_rps for m in self.classes.values()
            if m.offered_rps is not None
        )

    def _aggregate_pct(self, p: float) -> float:
        merged = Histogram("aggregate")
        for m in self.classes.values():
            for sample in m.latencies.samples:
                merged.record(sample)
        return merged.percentile(p) if len(merged) else math.nan

    @property
    def p50_s(self) -> float:
        return self._aggregate_pct(50)

    @property
    def p99_s(self) -> float:
        return self._aggregate_pct(99)

    @property
    def clean(self) -> bool:
        return not self.violations

    _COLUMNS = [
        "class", "offered", "completed", "offered_rps", "achieved_rps",
        "goodput_gbps", "p50_us", "p99_us",
    ]

    def rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for metrics in self.classes.values():
            rows.append([
                metrics.name,
                metrics.offered,
                metrics.completed,
                "-" if metrics.offered_rps is None else metrics.offered_rps,
                metrics.achieved_rps,
                metrics.goodput_gbps,
                metrics.p50_s * 1e6,
                metrics.p99_s * 1e6,
            ])
        return rows

    def table(self) -> str:
        # Imported here: repro.analysis pulls in repro.apps, which are
        # themselves presets over this module.
        from ..analysis.reporting import render_table

        return render_table(self._COLUMNS, self.rows())

    def to_csv(self) -> str:
        from ..analysis.reporting import render_csv

        header = ["scenario", "backend", "seed", "load_scale"] + self._COLUMNS
        prefix = [self.scenario, self.backend, self.seed, self.load_scale]
        return render_csv(header, [prefix + row for row in self.rows()])

    def summary(self) -> str:
        state = "finished" if self.finished else "hit the time bound"
        return (
            f"{self.scenario} [{self.backend}] x{self.load_scale:g}: "
            f"{self.completed}/{self.offered} requests in "
            f"{self.elapsed_s * 1e6:.1f} simulated us ({state}); "
            f"{self.achieved_rps / 1e3:.1f} k req/s, "
            f"{self.goodput_gbps:.2f} Gbps, "
            f"{self.frames_dropped} frames dropped, "
            f"{len(self.violations)} invariant violations"
        )


class _Conn:
    """One client connection's state machine plus its server-side view."""

    __slots__ = (
        "cls", "a_flow", "b_flow", "state", "current", "send_remaining",
        "resp_remaining", "arrival_ps", "connect_ps", "srv_expect",
        "srv_send_remaining", "rounds_left", "dirty", "a_readable",
        "b_readable",
    )

    def __init__(self, cls: TrafficClass, rounds_left: int = 0) -> None:
        self.cls = cls
        self.a_flow: Optional[int] = None
        self.b_flow: Optional[int] = None
        self.state = _CONNECTING
        self.current: Optional[Request] = None
        self.send_remaining = 0
        self.resp_remaining = 0
        #: The current request's arrival and the connect() call, in ps.
        self.arrival_ps = 0
        self.connect_ps = 0
        #: [orig_request, request_remaining, response_bytes, arrival_ps],
        #: oldest first (a list: a deque's block costs ~600 B per conn,
        #: and a conn rarely has more than a request or two in flight).
        self.srv_expect: List[list] = []
        self.srv_send_remaining = 0
        self.rounds_left = rounds_left
        #: Pump fast path: a clean conn is fully blocked on the engines
        #: and is not advanced until an EngineMessage (or a new arrival)
        #: re-marks it.  Polling a blocked conn is side-effect-free, so
        #: skipping it is cycle-exact (see _drain_host_messages).
        #: LoadEngine._mark_dirty sets it and queues the conn.
        self.dirty = False
        #: Per side, whether a 'data' or 'eof' message may have left
        #: bytes to read: the pump reads a side only while its mark is
        #: set, and clears it once a read has emptied that side.
        self.a_readable = False
        self.b_readable = False


class _ClassState:
    """Runtime bookkeeping for one traffic class."""

    def __init__(self, cls: TrafficClass, scenario: Scenario) -> None:
        self.cls = cls
        self.metrics = ClassMetrics(cls.name)
        self.conns: List[_Conn] = []
        #: The conns with ``dirty`` set — all the pump has to look at.
        self.dirty: List[_Conn] = []
        #: Open-loop requests released but not yet picked up by a conn.
        self.pending: Deque[Request] = deque()
        #: Per-request transactions still to start (closed-loop churn).
        self.churn_left = cls.transactions or 0
        #: Size streams for closed-loop issues (open loop samples at
        #: schedule time); one live RNG per stream keeps replay exact.
        self.req_rng = scenario.class_rng(cls, "request-sizes")
        self.resp_rng = scenario.class_rng(cls, "response-sizes")


class LoadEngine:
    """Runs one scenario on a functional two-engine testbed.

    ``testbed`` defaults to the engine pair over the scenario's wire; it
    is duck-typed (``engine_a``/``engine_b``/``wire``/``run``/
    ``time_ps``/``now_s``/``cycle``), so a caller may hand in its own.
    """

    def __init__(
        self,
        scenario: Scenario,
        testbed: Optional[Testbed] = None,
        load_scale: float = 1.0,
        audit: bool = False,
    ) -> None:
        self.scenario = scenario
        self.load_scale = load_scale
        if testbed is None:
            testbed = Testbed(wire=scenario.build_wire())
        self.testbed = testbed
        self.audit = audit
        self.monitors = (
            [InvariantMonitor(testbed.engine_a), InvariantMonitor(testbed.engine_b)]
            if audit
            else []
        )
        self._next_audit_cycle = 0

        self.states: Dict[str, _ClassState] = {
            cls.name: _ClassState(cls, scenario) for cls in scenario.classes
        }
        self.schedule: List[Request] = scenario.schedule(load_scale)
        self._release_index = 0
        self._outstanding = 0
        #: The instant (ps) the schedule's times count from.
        self._start_ps = 0
        #: client ephemeral port -> conn awaiting its server-side accept.
        self._awaiting_accept: Dict[int, _Conn] = {}
        #: flow id -> conn, per side, so EngineMessages mark the right
        #: conn dirty without scanning every class.
        self._conn_of_a: Dict[int, _Conn] = {}
        self._conn_of_b: Dict[int, _Conn] = {}
        self._msg_epochs = [-1, -1]  # last-seen msg_epoch per engine side

        #: Observability (repro.obs): a TraceBus, or None (free default).
        #: When attached, the pump also emits periodic occupancy samples.
        self.trace = None
        self.trace_sample_cycles = 4096
        self._next_trace_sample_cycle = 0

        for state in self.states.values():
            cls = state.cls
            metrics: ClassMetrics = state.metrics
            if cls.open_loop:
                scheduled = sum(1 for r in self.schedule if r.cls == cls.name)
                metrics.offered = scheduled
                metrics.offered_rps = scheduled / scenario.duration_s
            elif cls.lifecycle == PER_REQUEST:
                metrics.offered = cls.transactions or 0
            else:
                metrics.offered = cls.connections * (cls.rounds or 0)

    # ------------------------------------------------------------ lifecycle
    def run(
        self,
        setup_time_s: float = 0.5,
        run_time_s: Optional[float] = None,
        raise_on_incomplete: bool = False,
    ) -> ScenarioResult:
        """Execute the scenario; always returns a result, even on timeout."""
        tb = self.testbed
        tb.engine_b.listen(self.scenario.server_port)
        self._open_persistent_pools()
        if any(
            state.cls.lifecycle != PER_REQUEST for state in self.states.values()
        ):
            if not tb.run(
                until=self._pools_ready,
                max_time_s=tb.now_s + setup_time_s,
                # Handshakes finish on 'accepted' / 'connected' messages.
                next_call_ps=message_driven,
            ):
                raise TimeoutError(
                    f"{self.scenario.name}: connection pools failed to establish"
                )
        self._start_ps = tb.time_ps
        if run_time_s is None:
            run_time_s = self.scenario.duration_s * 3 + 20e-3
        finished = tb.run(
            until=self._pump,
            max_time_s=tb.now_s + run_time_s,
            next_call_ps=self._next_call_ps,
        )
        if raise_on_incomplete and not finished:
            raise TimeoutError(
                f"{self.scenario.name}: stalled at "
                f"{sum(m.metrics.completed for m in self.states.values())} "
                "completed requests"
            )
        return self._result(finished)

    def _open_persistent_pools(self) -> None:
        for state in self.states.values():
            cls = state.cls
            if cls.lifecycle == PER_REQUEST:
                continue
            for _ in range(cls.connections):
                # states iterate in scenario declaration order, which is
                # fixed per scenario+seed; sorting would re-pin goldens.
                state.conns.append(
                    self._connect(  # f4t: noqa[F4T008]
                        cls, rounds_left=cls.rounds or 0
                    )
                )

    def _connect(self, cls: TrafficClass, rounds_left: int = 0) -> _Conn:
        tb = self.testbed
        conn = _Conn(cls, rounds_left=rounds_left)
        conn.connect_ps = tb.time_ps
        conn.a_flow = tb.engine_a.connect(
            tb.engine_b.ip, self.scenario.server_port
        )
        client_port = tb.engine_a.flows[conn.a_flow].key.src_port
        self._awaiting_accept[client_port] = conn
        self._conn_of_a[conn.a_flow] = conn
        self._mark_dirty(conn)
        self.states[cls.name].metrics.connections_opened += 1
        if self.trace is not None:
            self.trace.emit(
                tb.time_ps, "traffic", "load", "connect", conn.a_flow,
                f"{cls.name} port={client_port}",
            )
        return conn

    def _pools_ready(self) -> bool:
        self._poll_accepts()
        for state in self.states.values():
            for conn in state.conns:
                self._advance_connecting(conn)
                if conn.state == _CONNECTING:
                    return False
        return True

    # ------------------------------------------------------------ the pump
    def _next_call_ps(self) -> int:
        """Earliest instant (int ps) a later :meth:`_pump` call acts by
        itself.

        This is the ``next_call_ps`` either testbed asks for right after
        each pump call.  A pump call is a pure no-op exactly when
        nothing it touches can move: no conn is dirty (every one is
        blocked on the engines and will be re-marked by an EngineMessage
        — whose ``msg_epoch`` bump is what makes the testbed call the
        pump again), no churn class can start a transaction, and none of
        the time-gated activities — audit checks, trace occupancy
        samples, schedule arrival releases — fires before the returned
        instant.  The current instant means the next tick may act (a
        conn is still advancing); accepts and host messages need no
        horizon because they only appear through engine work.
        """
        for state in self.states.values():
            cls = state.cls
            if state.dirty or (
                cls.lifecycle == PER_REQUEST
                and len(state.conns) < cls.connections
                and self._churn_work(state)
            ):
                return self.testbed.time_ps
        best = NEVER  # nothing time-gated: engines and bounds limit the skip
        if self._release_index < len(self.schedule):
            best = self._start_ps + self.schedule[self._release_index].time_ps
        if self.trace is not None:
            best = min(best, self._next_trace_sample_cycle * ENGINE_PERIOD_PS)
        if self.monitors:
            best = min(best, self._next_audit_cycle * ENGINE_PERIOD_PS)
        return best

    def _pump(self) -> bool:
        tb = self.testbed
        if self.monitors and tb.cycle >= self._next_audit_cycle:
            for monitor in self.monitors:
                monitor.check()
            self._next_audit_cycle = tb.cycle + AUDIT_EVERY_CYCLES
        if self.trace is not None and tb.cycle >= self._next_trace_sample_cycle:
            from ..obs.hooks import sample_occupancy

            sample_occupancy(self.trace, tb, tb.time_ps)
            self._next_trace_sample_cycle = tb.cycle + self.trace_sample_cycles
        self._poll_accepts()
        self._drain_host_messages()
        self._release_arrivals()
        # Declaration-order iteration, fixed per scenario+seed; sorting
        # would reorder emits and re-pin the trace goldens.  A pooled
        # class with no dirty conn is blocked on the engines.
        for state in self.states.values():
            if state.dirty or state.cls.lifecycle == PER_REQUEST:
                self._advance_class(state)  # f4t: noqa[F4T008]
        return self._all_done()

    def _drain_host_messages(self) -> None:
        """Mark conns with engine activity dirty (the pump fast path).

        Every state change a blocked conn can be waiting on is announced
        by an :class:`EngineMessage` on the owning engine in the same
        cycle the pollable state changes: 'acked' frees send-buffer room
        (``stream.release`` runs right before it is posted), 'data'
        makes bytes readable, 'connected'/'accepted' finish the
        handshake, and 'eof'/'closed'/'reset' move teardown.  Advancing
        only message-marked conns is therefore cycle-identical to
        polling every conn every cycle.  A message wakes only what it
        unblocks: 'acked' a side waiting for send room (the client
        while ``_SENDING``, the server while it has response bytes
        left), 'data' and 'eof' the side's readable mark.

        Each message is popped as it is read, so a queue holds what was
        posted since the last pump and no more: engine memory does not
        grow with simulated time, and the host-queue occupancy the
        trace samples (``obs.hooks.sample_occupancy``) is that depth.
        """
        unknown = False
        for side, (engine, conn_map) in enumerate((
            (self.testbed.engine_a, self._conn_of_a),
            (self.testbed.engine_b, self._conn_of_b),
        )):
            # Every post bumps the engine's msg_epoch, so an unchanged
            # epoch means nothing new to mark: skip the whole scan.
            if engine.msg_epoch == self._msg_epochs[side]:
                continue
            self._msg_epochs[side] = engine.msg_epoch
            queue = engine.host_messages
            for message in queue:
                conn = conn_map.get(message.flow_id)
                kind = message.kind
                if conn is None:
                    # A flow we can't map (shouldn't happen: accepts
                    # are mapped by _poll_accepts before this runs).
                    # Fall back to one exhaustive sweep — polling is
                    # idempotent, so correctness is preserved.
                    unknown = unknown or kind != "accepted"
                    continue
                if kind == "acked":
                    if not (conn.srv_send_remaining if side else conn.state == _SENDING):
                        continue  # that side is not waiting for send room
                elif kind == "data" or kind == "eof":
                    if side:
                        conn.b_readable = True
                    else:
                        conn.a_readable = True
                self._mark_dirty(conn)
            queue.clear()  # marking posts nothing: all of it was read
        if unknown:
            self._mark_all_dirty()

    def _mark_dirty(self, conn: _Conn) -> None:
        if not conn.dirty:
            conn.dirty = True
            self.states[conn.cls.name].dirty.append(conn)

    def _mark_all_dirty(self) -> None:
        """Advance every conn next, polling both sides for bytes."""
        for state in self.states.values():
            for conn in state.conns:
                conn.a_readable = conn.b_readable = True
                self._mark_dirty(conn)

    def _poll_accepts(self) -> None:
        # connect() registers the conn before its SYN leaves, so an
        # accept queue entry always belongs to an awaited conn.
        if not self._awaiting_accept:
            return
        engine_b = self.testbed.engine_b
        while True:
            b_flow = engine_b.accept(self.scenario.server_port)
            if b_flow is None:
                return
            record = engine_b.flows.get(b_flow)
            if record is None:
                continue
            conn = self._awaiting_accept.pop(record.key.dst_port, None)
            if conn is not None:
                conn.b_flow = b_flow
                self._conn_of_b[b_flow] = conn
                self._mark_dirty(conn)

    def _release_arrivals(self) -> None:
        now = self.testbed.time_ps
        while self._release_index < len(self.schedule):
            request = self.schedule[self._release_index]
            if self._start_ps + request.time_ps > now:
                return
            self._release_index += 1
            self._outstanding += 1
            state = self.states[request.cls]
            state.pending.append(request)
            if state.cls.lifecycle != PER_REQUEST:
                # Wake the first idle conn, in pool (= a_flow) order:
                # at a pump's end every _READY conn is dirty or
                # ``pending`` is empty (``_may_act``), so the k conns
                # that take k requests are all dirty after k releases.
                for conn in state.conns:
                    if conn.state == _READY and not conn.dirty:
                        self._mark_dirty(conn)
                        break
            if self.trace is not None:
                self.trace.emit(
                    now, "traffic", "load", "arrival", -1,
                    f"{request.cls} req={request.request_bytes} "
                    f"resp={request.response_bytes}",
                )

    def _advance_class(self, state: _ClassState) -> None:
        cls = state.cls
        if cls.lifecycle == PER_REQUEST:
            # Start new churn transactions while slots are free.
            while len(state.conns) < cls.connections and self._churn_work(state):
                if cls.open_loop:
                    request = state.pending.popleft()
                else:
                    state.churn_left -= 1
                    request = self._closed_loop_request(state)
                    self._outstanding += 1
                conn = self._connect(cls, rounds_left=0)
                conn.current = request
                conn.arrival_ps = (
                    self._start_ps + request.time_ps
                    if cls.open_loop
                    else self.testbed.time_ps
                )
                state.conns.append(conn)
        dirty = state.dirty
        # Conn order, which the trace pins: conns are created — and
        # their client flow ids allocated — in the order they are kept.
        dirty.sort(key=_A_FLOW)
        state.dirty = still_dirty = []  # advancing one conn marks no other
        for conn in dirty:
            self._advance_conn(state, conn)
            if conn.state == _DONE:
                state.conns.remove(conn)
                if conn.a_flow is not None:
                    self._conn_of_a.pop(conn.a_flow, None)
                if conn.b_flow is not None:
                    self._conn_of_b.pop(conn.b_flow, None)
            elif self._may_act(state, conn):
                still_dirty.append(conn)
            else:
                # Blocked on the engines: an EngineMessage re-marks it
                # when that changes.
                conn.dirty = False

    def _may_act(self, state: _ClassState, conn: _Conn) -> bool:
        """Whether the next advance of ``conn`` can act with no
        EngineMessage in between: a request to issue, or a send — the
        client's or the server's — with buffer room.

        Nothing else is left by an advance: it reads every readable
        byte on both sides, moves a handshake or a teardown as far as
        the engines allow, and each of those waits on a message.
        """
        if conn.state == _READY and self._has_request(state, conn):
            return True
        if (
            conn.state == _SENDING
            and self.testbed.engine_a.send_room(conn.a_flow)
        ):
            return True
        if conn.srv_send_remaining:
            return self.testbed.engine_b.send_room(conn.b_flow) > 0
        return False

    def _churn_work(self, state: _ClassState) -> bool:
        if state.cls.open_loop:
            return bool(state.pending)
        return state.churn_left > 0

    def _closed_loop_request(self, state: _ClassState) -> Request:
        cls = state.cls
        return Request(
            time_ps=self.testbed.time_ps - self._start_ps,
            cls=cls.name,
            request_bytes=max(1, cls.request.sample(state.req_rng)),
            response_bytes=max(0, cls.response.sample(state.resp_rng)),
            index=-1,
        )

    # ----------------------------------------------------- conn state steps
    def _advance_connecting(self, conn: _Conn) -> None:
        if conn.state != _CONNECTING:
            return
        engine_a = self.testbed.engine_a
        if (
            conn.b_flow is not None
            and engine_a.flow_state(conn.a_flow) is TcpState.ESTABLISHED
        ):
            conn.state = _READY

    def _advance_conn(self, state: _ClassState, conn: _Conn) -> None:
        tb = self.testbed
        self._advance_connecting(conn)
        if conn.state == _READY:
            self._maybe_issue(state, conn)
        if conn.state == _SENDING:
            self._push_send(conn)
        self._serve(state, conn)
        if conn.state == _WAITING:
            self._pull_response(state, conn)
        if conn.state == _CLOSING:
            gone_a = conn.a_flow not in tb.engine_a.flows
            gone_b = conn.b_flow not in tb.engine_b.flows
            if gone_a and gone_b:
                lifecycle_ps = tb.time_ps - conn.connect_ps
                state.metrics.lifecycle.record(lifecycle_ps / 1e12)
                state.metrics.connections_closed += 1
                state.metrics.completed += 1
                self._outstanding -= 1
                conn.state = _DONE
                if self.trace is not None:
                    self.trace.emit(
                        tb.time_ps, "traffic", "load", "closed",
                        conn.a_flow,
                        f"{state.cls.name} "
                        f"lifecycle_us={lifecycle_ps / 1e6:.2f}",
                    )

    @staticmethod
    def _has_request(state: _ClassState, conn: _Conn) -> bool:
        """Whether :meth:`_maybe_issue` would find a request for ``conn``."""
        cls = state.cls
        if cls.lifecycle == PER_REQUEST:
            return conn.current is not None  # churn conns carry their one
        if cls.open_loop:
            return bool(state.pending)
        return conn.rounds_left > 0

    def _maybe_issue(self, state: _ClassState, conn: _Conn) -> None:
        if not self._has_request(state, conn):
            return
        cls = state.cls
        if cls.lifecycle == PER_REQUEST:
            request = conn.current
        elif cls.open_loop:
            request = state.pending.popleft()
        else:
            conn.rounds_left -= 1
            request = self._closed_loop_request(state)
            self._outstanding += 1
        conn.current = request
        conn.send_remaining = request.request_bytes
        conn.resp_remaining = request.response_bytes
        if cls.open_loop:
            conn.arrival_ps = self._start_ps + request.time_ps
        elif cls.lifecycle != PER_REQUEST:
            conn.arrival_ps = self.testbed.time_ps
        conn.srv_expect.append(
            [request.request_bytes, request.request_bytes,
             request.response_bytes, conn.arrival_ps]
        )
        conn.state = _SENDING
        if self.trace is not None:
            self.trace.emit(
                self.testbed.time_ps, "traffic", "load", "issue",
                conn.a_flow,
                f"{cls.name} req={request.request_bytes} "
                f"resp={request.response_bytes}",
            )
        self._push_send(conn)

    def _push_send(self, conn: _Conn) -> None:
        engine_a = self.testbed.engine_a
        if conn.send_remaining > 0:
            chunk = _ZEROS[: min(conn.send_remaining, len(_ZEROS))]
            conn.send_remaining -= engine_a.send_data(conn.a_flow, chunk)
        if conn.send_remaining == 0:
            # One-way streams complete server-side; pipeline the next
            # request.  Request/response classes serialize per connection.
            conn.state = _WAITING if conn.resp_remaining > 0 else _READY

    def _serve(self, state: _ClassState, conn: _Conn) -> None:
        engine_b = self.testbed.engine_b
        if conn.b_flow is None or conn.b_flow not in engine_b.flows:
            return
        readable = engine_b.readable(conn.b_flow) if conn.b_readable else 0
        conn.b_readable = False  # the read below empties this side
        if readable > 0:
            received = len(engine_b.recv_data(conn.b_flow, readable))
            while received > 0 and conn.srv_expect:
                expect = conn.srv_expect[0]
                take = min(received, expect[1])
                expect[1] -= take
                received -= take
                if expect[1] > 0:
                    break
                if expect[2] > 0:
                    conn.srv_send_remaining += expect[2]
                else:
                    # One-way stream: delivery to the server IS completion.
                    self._complete(state, conn, expect[0], 0, expect[3])
                del conn.srv_expect[0]
        if conn.srv_send_remaining > 0:
            chunk = _ZEROS[: min(conn.srv_send_remaining, len(_ZEROS))]
            conn.srv_send_remaining -= engine_b.send_data(conn.b_flow, chunk)

    def _pull_response(self, state: _ClassState, conn: _Conn) -> None:
        if not conn.a_readable:
            return
        engine_a = self.testbed.engine_a
        readable = engine_a.readable(conn.a_flow)
        take = min(readable, conn.resp_remaining)
        conn.a_readable = take < readable  # bytes left after this read
        if readable <= 0:
            return
        conn.resp_remaining -= len(engine_a.recv_data(conn.a_flow, take))
        if conn.resp_remaining > 0:
            return
        request = conn.current
        self._complete(
            state, conn, request.request_bytes, request.response_bytes,
            conn.arrival_ps,
        )
        if state.cls.lifecycle == PER_REQUEST:
            # Full teardown, both directions at once (as apps/shortconn
            # always did); completion is counted when both flows vanish.
            engine_a.close_flow(conn.a_flow)
            self.testbed.engine_b.close_flow(conn.b_flow)
            conn.state = _CLOSING
        else:
            conn.current = None
            conn.state = _READY

    def _complete(
        self,
        state: _ClassState,
        conn: _Conn,
        request_bytes: int,
        response_bytes: int,
        arrival_ps: int,
    ) -> None:
        metrics: ClassMetrics = state.metrics
        latency_ps = self.testbed.time_ps - arrival_ps
        metrics.latencies.record(latency_ps / 1e12)
        metrics.bytes_delivered += request_bytes + response_bytes
        if state.cls.lifecycle != PER_REQUEST:
            metrics.completed += 1
            self._outstanding -= 1
        if self.trace is not None:
            self.trace.emit(
                arrival_ps, "traffic", "load", "complete",
                conn.a_flow if conn.a_flow is not None else -1,
                f"{state.cls.name} bytes={request_bytes + response_bytes}",
                dur_ps=latency_ps,
            )

    def _all_done(self) -> bool:
        if self._release_index < len(self.schedule) or self._outstanding:
            return False
        for state in self.states.values():
            if state.churn_left or state.pending:
                return False
            for conn in state.conns:
                if conn.cls.lifecycle != PER_REQUEST and conn.rounds_left:
                    return False
        return True

    # -------------------------------------------------------------- results
    def _result(self, finished: bool) -> ScenarioResult:
        elapsed = max(self.testbed.time_ps - self._start_ps, 1) / 1e12
        for state in self.states.values():
            metrics: ClassMetrics = state.metrics
            metrics.achieved_rps = metrics.completed / elapsed
            metrics.goodput_gbps = metrics.bytes_delivered * 8 / elapsed / 1e9
        violations = [
            str(v) for monitor in self.monitors for v in monitor.violations
        ]
        return ScenarioResult(
            scenario=self.scenario.name,
            seed=self.scenario.seed,
            load_scale=self.load_scale,
            elapsed_s=elapsed,
            finished=finished,
            classes={
                state.cls.name: state.metrics for state in self.states.values()
            },
            frames_dropped=self.testbed.wire.frames_dropped,
            violations=violations,
        )


def run_scenario(
    scenario: Scenario,
    audit: bool = False,
    setup_time_s: float = 0.5,
    run_time_s: Optional[float] = None,
    raise_on_incomplete: bool = False,
) -> ScenarioResult:
    """One-call functional run of a scenario; see :class:`LoadEngine`."""
    engine = LoadEngine(scenario, audit=audit)
    return engine.run(
        setup_time_s=setup_time_s,
        run_time_s=run_time_s,
        raise_on_incomplete=raise_on_incomplete,
    )
