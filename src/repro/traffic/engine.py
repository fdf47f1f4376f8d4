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
from typing import Deque, Dict, List, Optional

from ..engine.ftengine import first_cycle_at
from ..engine.testbed import NEVER, Testbed, message_driven
from ..engine.verification import InvariantMonitor
from ..sim.stats import Histogram
from ..tcp.state_machine import TcpState
from .scenario import PER_REQUEST, Request, Scenario, TrafficClass

#: Shared zero payload; request content is opaque, only sizes matter.
_ZEROS = bytes(1 << 16)

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
    #: Scheduled-arrival -> fully-delivered, per request (seconds).
    latencies: Histogram = field(default_factory=lambda: Histogram("latency"))
    #: connect() -> both flows fully torn down (per-request classes).
    lifecycle: Histogram = field(default_factory=lambda: Histogram("lifecycle"))
    #: Arrivals per second the schedule asked for (None = closed loop).
    offered_rps: Optional[float] = None
    achieved_rps: float = 0.0
    goodput_gbps: float = 0.0

    @property
    def dropped(self) -> int:
        return self.offered - self.completed

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
    backend: str
    seed: int
    load_scale: float
    elapsed_s: float
    finished: bool
    classes: Dict[str, ClassMetrics]
    frames_dropped: int = 0
    violations: List[str] = field(default_factory=list)

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
        "resp_remaining", "arrival_s", "connect_s", "srv_expect",
        "srv_send_remaining", "rounds_left", "dirty",
    )

    def __init__(self, cls: TrafficClass, rounds_left: int = 0) -> None:
        self.cls = cls
        self.a_flow: Optional[int] = None
        self.b_flow: Optional[int] = None
        self.state = _CONNECTING
        self.current: Optional[Request] = None
        self.send_remaining = 0
        self.resp_remaining = 0
        self.arrival_s = 0.0
        self.connect_s = 0.0
        #: [orig_request, request_remaining, response_bytes, arrival_s]
        self.srv_expect: Deque[list] = deque()
        self.srv_send_remaining = 0
        self.rounds_left = rounds_left
        #: Pump fast path: a clean conn is fully blocked on the engines
        #: and is not advanced until an EngineMessage (or a new arrival)
        #: re-marks it.  Polling a blocked conn is side-effect-free, so
        #: skipping it is cycle-exact (see _drain_host_messages).
        #: LoadEngine._mark_dirty sets it and queues the conn.
        self.dirty = False


def _conn_snapshot(conn: "_Conn") -> tuple:
    """Everything _advance_conn can change without changing conn.state.

    An advance that leaves the snapshot identical made no progress — the
    conn is blocked on the engines and safe to park until a message.
    """
    return (
        conn.state,
        conn.send_remaining,
        conn.resp_remaining,
        conn.srv_send_remaining,
        len(conn.srv_expect),
        conn.srv_expect[0][1] if conn.srv_expect else -1,
        conn.current,
    )


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
    """Runs one scenario on a functional two-engine testbed."""

    def __init__(
        self,
        scenario: Scenario,
        testbed: Optional[Testbed] = None,
        load_scale: float = 1.0,
        audit: bool = False,
        audit_every_cycles: int = 4096,
        backend: str = "f4t",
    ) -> None:
        # Local import: repro.fabric composes on top of repro.traffic, so
        # the backend registry cannot be imported at module load time.
        from ..fabric.backend import get_backend

        spec = get_backend(backend)
        self.scenario = scenario
        self.load_scale = load_scale
        self.backend = spec.name
        if testbed is None:
            if spec.kind == "engine":
                testbed = Testbed(wire=scenario.build_wire())
            else:
                from ..fabric.backend import build_point_to_point

                if audit:
                    raise ValueError(
                        "audit=True requires the f4t backend: the invariant "
                        "monitor reads FtEngine internals that soft backends "
                        f"do not have (got backend={spec.name!r})"
                    )
                imp = scenario.impairments
                testbed = build_point_to_point(
                    backend=spec.name,
                    drop_probability=imp.drop_probability if imp else 0.0,
                    reorder_probability=imp.reorder_probability if imp else 0.0,
                    seed=scenario.seed,
                )
        self.testbed = testbed
        self.audit = audit
        self.audit_every_cycles = audit_every_cycles
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
        #: (release index, first cycle whose release check admits it).
        self._release_memo = (-1, 0)
        self._outstanding = 0
        self._start_s = 0.0
        #: client ephemeral port -> conn awaiting its server-side accept.
        self._awaiting_accept: Dict[int, _Conn] = {}
        #: flow id -> conn, per side, so EngineMessages mark the right
        #: conn dirty without scanning every class.
        self._conn_of_a: Dict[int, _Conn] = {}
        self._conn_of_b: Dict[int, _Conn] = {}
        #: (side, thread_id) -> scan position in that host-message queue.
        self._msg_cursors: Dict[tuple, int] = {}
        self._msg_epochs = [-1, -1]  # last-seen msg_epoch per engine side
        #: Verification switch: advance every conn every pump (the
        #: pre-dirty-set behaviour).  Both modes are cycle-identical —
        #: tests assert equal trace fingerprints — but sweeping is slow.
        self.sweep_all_pumps = False

        #: Observability (repro.obs): a TraceBus, or None (free default).
        #: When attached, the pump also emits periodic occupancy samples.
        self.trace = None
        self.trace_sample_cycles = 4096
        self._next_trace_sample_cycle = 0

        for state in self.states.values():
            cls = state.cls
            if cls.open_loop:
                scheduled = sum(1 for r in self.schedule if r.cls == cls.name)
                state.metrics.offered = scheduled
                state.metrics.offered_rps = scheduled / scenario.duration_s
            elif cls.lifecycle == PER_REQUEST:
                state.metrics.offered = cls.transactions or 0
            else:
                state.metrics.offered = cls.connections * (cls.rounds or 0)

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
                quiet_cycle=message_driven,
            ):
                raise TimeoutError(
                    f"{self.scenario.name}: connection pools failed to establish"
                )
        self._start_s = tb.now_s
        if run_time_s is None:
            run_time_s = self.scenario.duration_s * 3 + 20e-3
        finished = tb.run(
            until=self._pump,
            max_time_s=self._start_s + run_time_s,
            wakeup_ps=self._next_arrival_ps,
            quiet_cycle=self._pump_quiet_cycle,
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
        conn.connect_s = tb.now_s
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
                tb.now_s * 1e12, "traffic", "load", "connect", conn.a_flow,
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
    def _next_arrival_ps(self) -> Optional[float]:
        if self._release_index >= len(self.schedule):
            return None
        arrival_s = self._start_s + self.schedule[self._release_index].time_s
        return arrival_s * 1e12

    def _pump_quiet_cycle(self) -> Optional[int]:
        """Earliest cycle a later :meth:`_pump` call acts by itself.

        This is the ``quiet_cycle`` the horizon loop of
        :meth:`Testbed.run` asks for right after each pump call.  A pump
        call is a pure no-op exactly when nothing it touches can move:
        no conn is dirty (every one is blocked on the engines and will
        be re-marked by an EngineMessage — whose ``msg_epoch`` bump is
        what makes the testbed call the pump again), no churn class can
        start a transaction, and none of the cycle-gated activities —
        audit checks, trace occupancy samples, schedule arrival
        releases — fires before the returned cycle.  None means the very
        next call may act (a conn is still advancing); accepts and host
        messages need no horizon because they only appear through
        engine work.
        """
        if self.sweep_all_pumps:
            return None
        for state in self.states.values():
            cls = state.cls
            if state.dirty or (
                cls.lifecycle == PER_REQUEST
                and len(state.conns) < cls.connections
                and self._churn_work(state)
            ):
                return None
        floor_c = self.testbed.cycle + 1
        best = NEVER  # nothing cycle-gated: engines and bounds limit the skip
        if self._release_index < len(self.schedule):
            if self._release_memo[0] != self._release_index:
                # The exact cycle the release check's own float
                # comparison first admits the arrival.
                t = self._start_s + self.schedule[self._release_index].time_s
                self._release_memo = (self._release_index, first_cycle_at(t))
            best = max(self._release_memo[1], floor_c)
        if self.trace is not None:
            best = min(best, max(self._next_trace_sample_cycle, floor_c))
        if self.monitors:
            best = min(best, max(self._next_audit_cycle, floor_c))
        return best

    def _pump(self) -> bool:
        tb = self.testbed
        if self.monitors and tb.cycle >= self._next_audit_cycle:
            for monitor in self.monitors:
                monitor.check()
            self._next_audit_cycle = tb.cycle + self.audit_every_cycles
        if self.trace is not None and tb.cycle >= self._next_trace_sample_cycle:
            from ..obs.hooks import sample_occupancy

            sample_occupancy(self.trace, tb, tb.now_s * 1e12)
            self._next_trace_sample_cycle = tb.cycle + self.trace_sample_cycles
        self._poll_accepts()
        self._drain_host_messages()
        if self.sweep_all_pumps:
            self._mark_all_dirty()
        self._release_arrivals()
        # Declaration-order iteration, fixed per scenario+seed; sorting
        # would reorder emits and re-pin the trace goldens.
        for state in self.states.values():
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
        polling every conn every cycle.

        The queues are scanned with per-queue cursors rather than
        popped: the host-queue occupancy samples
        (``obs.hooks.sample_occupancy``) are part of the trace-stream
        contract, and a host runtime sharing the engine remains free to
        drain its own messages (a shrunk queue just resets the cursor).
        """
        unknown = False
        cursors = self._msg_cursors
        for side, (engine, conn_map) in enumerate((
            (self.testbed.engine_a, self._conn_of_a),
            (self.testbed.engine_b, self._conn_of_b),
        )):
            # Every queue mutation bumps the engine's msg_epoch, so an
            # unchanged epoch means nothing new to mark (and no queue
            # shrank under a cursor): skip the whole scan.
            if engine.msg_epoch == self._msg_epochs[side]:
                continue
            self._msg_epochs[side] = engine.msg_epoch
            for thread_id, queue in engine.host_messages.items():
                key = (side, thread_id)
                start = cursors.get(key, 0)
                size = len(queue)
                if start > size:
                    start = 0  # someone drained the queue; rescan
                for i in range(start, size):
                    message = queue[i]
                    conn = conn_map.get(message.flow_id)
                    if conn is not None:
                        self._mark_dirty(conn)
                    elif message.kind != "accepted":
                        # A flow we can't map (shouldn't happen: accepts
                        # are mapped by _poll_accepts before this runs).
                        # Fall back to one exhaustive sweep — polling is
                        # idempotent, so correctness is preserved.
                        unknown = True
                cursors[key] = size
        if unknown:
            self._mark_all_dirty()

    def _mark_dirty(self, conn: _Conn) -> None:
        if not conn.dirty:
            conn.dirty = True
            self.states[conn.cls.name].dirty.append(conn)

    def _mark_all_dirty(self) -> None:
        for state in self.states.values():
            for conn in state.conns:
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
        now = self.testbed.now_s
        while self._release_index < len(self.schedule):
            request = self.schedule[self._release_index]
            if self._start_s + request.time_s > now:
                return
            self._release_index += 1
            self._outstanding += 1
            state = self.states[request.cls]
            state.pending.append(request)
            if state.cls.lifecycle != PER_REQUEST:
                # A pooled conn may be idle-clean waiting for work.
                for conn in state.conns:
                    self._mark_dirty(conn)
            if self.trace is not None:
                self.trace.emit(
                    now * 1e12, "traffic", "load", "arrival", -1,
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
                conn.arrival_s = (
                    self._start_s + request.time_s
                    if cls.open_loop
                    else self.testbed.now_s
                )
                state.conns.append(conn)
        dirty = state.dirty
        if not dirty:
            return  # whole class blocked on the engines; nothing to do
        # Conn order, which the trace pins: conns are created — and
        # their client flow ids allocated — in the order they are kept.
        dirty.sort(key=_A_FLOW)
        state.dirty = still_dirty = []  # advancing one conn marks no other
        for conn in dirty:
            before = _conn_snapshot(conn)
            self._advance_conn(state, conn)
            if conn.state == _DONE:
                state.conns.remove(conn)
                if conn.a_flow is not None:
                    self._conn_of_a.pop(conn.a_flow, None)
                if conn.b_flow is not None:
                    self._conn_of_b.pop(conn.b_flow, None)
            elif _conn_snapshot(conn) == before:
                # No forward progress: the conn is blocked on the engines
                # and an EngineMessage will re-mark it when that changes.
                conn.dirty = False
            else:
                still_dirty.append(conn)

    def _churn_work(self, state: _ClassState) -> bool:
        if state.cls.open_loop:
            return bool(state.pending)
        return state.churn_left > 0

    def _closed_loop_request(self, state: _ClassState) -> Request:
        cls = state.cls
        return Request(
            time_s=self.testbed.now_s - self._start_s,
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
                state.metrics.lifecycle.record(tb.now_s - conn.connect_s)
                state.metrics.connections_closed += 1
                state.metrics.completed += 1
                self._outstanding -= 1
                conn.state = _DONE
                if self.trace is not None:
                    self.trace.emit(
                        tb.now_s * 1e12, "traffic", "load", "closed",
                        conn.a_flow,
                        f"{state.cls.name} "
                        f"lifecycle_us={(tb.now_s - conn.connect_s) * 1e6:.2f}",
                    )

    def _maybe_issue(self, state: _ClassState, conn: _Conn) -> None:
        cls = state.cls
        request: Optional[Request] = None
        if cls.lifecycle == PER_REQUEST:
            request = conn.current  # churn conns carry their one request
        elif cls.open_loop:
            if state.pending:
                request = state.pending.popleft()
        elif conn.rounds_left > 0:
            conn.rounds_left -= 1
            request = self._closed_loop_request(state)
            self._outstanding += 1
        if request is None:
            return
        conn.current = request
        conn.send_remaining = request.request_bytes
        conn.resp_remaining = request.response_bytes
        if cls.open_loop:
            conn.arrival_s = self._start_s + request.time_s
        elif cls.lifecycle != PER_REQUEST:
            conn.arrival_s = self.testbed.now_s
        conn.srv_expect.append(
            [request.request_bytes, request.request_bytes,
             request.response_bytes, conn.arrival_s]
        )
        conn.state = _SENDING
        if self.trace is not None:
            self.trace.emit(
                self.testbed.now_s * 1e12, "traffic", "load", "issue",
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
        readable = engine_b.readable(conn.b_flow)
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
                conn.srv_expect.popleft()
        if conn.srv_send_remaining > 0:
            chunk = _ZEROS[: min(conn.srv_send_remaining, len(_ZEROS))]
            conn.srv_send_remaining -= engine_b.send_data(conn.b_flow, chunk)

    def _pull_response(self, state: _ClassState, conn: _Conn) -> None:
        engine_a = self.testbed.engine_a
        readable = engine_a.readable(conn.a_flow)
        if readable <= 0:
            return
        take = min(readable, conn.resp_remaining)
        conn.resp_remaining -= len(engine_a.recv_data(conn.a_flow, take))
        if conn.resp_remaining > 0:
            return
        request = conn.current
        self._complete(
            state, conn, request.request_bytes, request.response_bytes,
            conn.arrival_s,
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
        arrival_s: float,
    ) -> None:
        metrics = state.metrics
        latency_s = self.testbed.now_s - arrival_s
        metrics.latencies.record(latency_s)
        metrics.bytes_delivered += request_bytes + response_bytes
        if state.cls.lifecycle != PER_REQUEST:
            metrics.completed += 1
            self._outstanding -= 1
        if self.trace is not None:
            self.trace.emit(
                arrival_s * 1e12, "traffic", "load", "complete",
                conn.a_flow if conn.a_flow is not None else -1,
                f"{state.cls.name} bytes={request_bytes + response_bytes}",
                dur_ps=max(0.0, latency_s) * 1e12,
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
        elapsed = max(self.testbed.now_s - self._start_s, 1e-12)
        for state in self.states.values():
            metrics = state.metrics
            metrics.achieved_rps = metrics.completed / elapsed
            metrics.goodput_gbps = metrics.bytes_delivered * 8 / elapsed / 1e9
        violations = [
            str(v) for monitor in self.monitors for v in monitor.violations
        ]
        return ScenarioResult(
            scenario=self.scenario.name,
            backend=self.backend,
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
    load_scale: float = 1.0,
    testbed: Optional[Testbed] = None,
    audit: bool = False,
    setup_time_s: float = 0.5,
    run_time_s: Optional[float] = None,
    raise_on_incomplete: bool = False,
    backend: str = "f4t",
) -> ScenarioResult:
    """One-call functional run of a scenario; see :class:`LoadEngine`."""
    engine = LoadEngine(
        scenario,
        testbed=testbed,
        load_scale=load_scale,
        audit=audit,
        backend=backend,
    )
    return engine.run(
        setup_time_s=setup_time_s,
        run_time_s=run_time_s,
        raise_on_incomplete=raise_on_incomplete,
    )
