"""Per-host application drivers for sharded cells.

Each cell drives its hosts with two small state machines sitting on the
:class:`~repro.fabric.softstack.SoftStack` host API:

* :class:`ClientPairDriver` — one per :class:`~repro.shard.scenarios.
  ShardPair` on the client host: opens connections at the pair's packed
  connect instants, sends each transacting connection's request once
  established, counts response bytes, then closes (churn) or holds
  (megaflow).
* :class:`ServerHostDriver` — one per server host: accepts, frames the
  *i*-th accepted connection from a client as that pair's *i*-th
  connection (per-pair arrival order is FIFO end to end; the sizes are
  :meth:`~repro.shard.scenarios.ShardPair.framing` of the index, as on
  the client), sends the response, closes on EOF.

Both sides count everything they do; a cell's connection/transaction
totals are sums of these counters, and all state for settled
connections is dropped eagerly — a held-open megaflow connection that
never transacts costs its two ends' flow-table entries (each end is
parked once its handshake timer entry leaves the heap: no flow object)
and, here, the eight bytes of its connect instant.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..engine.ftengine import EngineMessage
from ..fabric.softstack import SoftStack
from ..obs.trace import StreamingFingerprint
from .scenarios import ShardPair, ShardScenario

#: Client connection phases; settled conns (_HOLD reached, or closed)
#: are dropped from the driver's map and live on only as counters.
_CONNECTING = 0
_AWAIT_RESP = 1
_CLOSING = 2


class _ClientConn:
    __slots__ = ("phase", "resp_remaining")

    def __init__(self) -> None:
        self.phase = _CONNECTING
        self.resp_remaining = 0


class ClientPairDriver:
    """Runs one pair's connection schedule on its client host's stack."""

    def __init__(
        self,
        scenario: ShardScenario,
        pair: ShardPair,
        stack: SoftStack,
        server_ip: int,
        trace: Optional[StreamingFingerprint] = None,
    ) -> None:
        self.pair = pair
        self.stack = stack
        self.server_ip = server_ip
        self.server_port = scenario.server_port
        self.close_after = scenario.close_after
        self.connect_at = scenario.connect_instants(pair)
        self.trace = trace
        self.trace_name = f"pair{pair.client}->{pair.server}"
        self._next = 0
        self.conns: Dict[int, _ClientConn] = {}
        self.opened = 0
        self.established = 0
        self.completed = 0
        self.closed = 0
        #: Connections not yet settled (for hold-open runs: not yet
        #: established-and-done-transacting).  done() is O(1) on this.
        self._unsettled = 0

    # ------------------------------------------------------------- surface
    def next_action_ps(self) -> Optional[int]:
        if self._next < len(self.connect_at):
            return self.connect_at[self._next]
        return None

    @property
    def open_conns(self) -> int:
        return self.established - self.closed

    @property
    def done(self) -> bool:
        return self._next >= len(self.connect_at) and self._unsettled == 0

    def tick(self, now_ps: int) -> None:
        connect_at = self.connect_at
        while self._next < len(connect_at) and connect_at[self._next] <= now_ps:
            _req, resp = self.pair.framing(self._next)
            flow_id = self.stack.connect(self.server_ip, self.server_port)
            conn = _ClientConn()
            conn.resp_remaining = resp
            self.conns[flow_id] = conn
            self._next += 1
            self.opened += 1
            self._unsettled += 1
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "shard", self.trace_name, "conn-open",
                    flow_id, f"index={self._next - 1}",
                )

    def _settle(self, flow_id: int) -> None:
        del self.conns[flow_id]
        self._unsettled -= 1

    def on_message(self, message: EngineMessage, now_ps: int) -> None:
        conn = self.conns.get(message.flow_id)
        if conn is None:
            return
        kind = message.kind
        if kind == "connected":
            self.established += 1
            if conn.resp_remaining > 0:
                # req > 0 whenever resp > 0 (pair validation) — buffer
                # the whole request in one call; sizes are << sndbuf.
                self.stack.send_data(
                    message.flow_id, b"\0" * self.pair.req_bytes
                )
                conn.phase = _AWAIT_RESP
            elif self.close_after:
                self.stack.close_flow(message.flow_id)
                conn.phase = _CLOSING
            else:
                self._settle(message.flow_id)  # held open, nothing more
        elif kind == "data" and conn.phase == _AWAIT_RESP:
            take = self.stack.readable(message.flow_id)
            if take > 0:
                self.stack.recv_data(message.flow_id, take)
                conn.resp_remaining -= take
            if conn.resp_remaining <= 0:
                self.completed += 1
                if self.trace is not None:
                    self.trace.emit(
                        now_ps, "shard", self.trace_name, "txn-complete",
                        message.flow_id,
                    )
                if self.close_after:
                    self.stack.close_flow(message.flow_id)
                    conn.phase = _CLOSING
                else:
                    self._settle(message.flow_id)
        elif kind == "closed":
            self.closed += 1
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "shard", self.trace_name, "conn-closed",
                    message.flow_id,
                )
            self._settle(message.flow_id)


class _ServerConn:
    __slots__ = ("expect_remaining", "resp_bytes")

    def __init__(self, expect: int, resp: int) -> None:
        self.expect_remaining = expect
        self.resp_bytes = resp


class ServerHostDriver:
    """Accept + frame + respond for every pair targeting one host."""

    def __init__(
        self,
        scenario: ShardScenario,
        host: int,
        stack: SoftStack,
        pairs: List[ShardPair],
        host_of_ip: Callable[[int], Optional[int]],
        trace: Optional[StreamingFingerprint] = None,
    ) -> None:
        self.stack = stack
        self.port = scenario.server_port
        self.host_of_ip = host_of_ip
        self.close_after = scenario.close_after
        self.trace = trace
        self.trace_name = f"srv{host}"
        #: The port's accept queue: ``tick`` has work iff it is non-empty.
        self.backlog = stack.listen(self.port)
        #: Per client host: that pair and the index of the next
        #: accept — the framing contract with the client.
        self.pairs: Dict[int, ShardPair] = {
            pair.client: pair for pair in pairs
        }
        self.accept_index: Dict[int, int] = {
            pair.client: 0 for pair in pairs
        }
        self.conns: Dict[int, _ServerConn] = {}
        self.accepted = 0
        self.responded = 0
        self.closed = 0

    def tick(self, now_ps: int) -> None:
        while self.backlog:
            flow_id = self.stack.accept(self.port)
            key = self.stack.flow_key(flow_id)
            if key is None:  # torn down before the app saw it
                continue
            client = self.host_of_ip(key.dst_ip)
            if client is None:
                # Not a scheduled pair: nothing to frame, just hold.
                self.accepted += 1
                continue
            pair = self.pairs.get(client)
            if pair is None:
                self.accepted += 1
                continue
            index = self.accept_index[client]
            self.accept_index[client] = index + 1
            req, resp = pair.framing(index)
            self.accepted += 1
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "shard", self.trace_name, "accepted",
                    flow_id, f"client={client} index={index}",
                )
            if req > 0:
                self.conns[flow_id] = _ServerConn(req, resp)
            # req == 0: a hold-only conn — no request will ever come;
            # keep no state for it.

    def on_message(self, message: EngineMessage, now_ps: int) -> None:
        kind = message.kind
        flow_id = message.flow_id
        if kind == "data":
            conn = self.conns.get(flow_id)
            if conn is None:
                return
            take = self.stack.readable(flow_id)
            if take > 0:
                self.stack.recv_data(flow_id, take)
                conn.expect_remaining -= take
            if conn.expect_remaining <= 0:
                self.stack.send_data(flow_id, b"\0" * conn.resp_bytes)
                self.responded += 1
                del self.conns[flow_id]  # framing settled
        elif kind == "eof":
            self.stack.close_flow(flow_id)
        elif kind == "closed":
            self.closed += 1
            self.conns.pop(flow_id, None)
