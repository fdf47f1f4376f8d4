"""Runtime invariant monitors: hardware-style assertions for FtEngine.

RTL designs carry assertion properties (SVA) that fire the moment an
invariant breaks, long before the failure surfaces at an interface.
This module is the simulation analog: an :class:`InvariantMonitor`
checks DESIGN.md §5's invariants on a live engine every N cycles and
collects violations with enough context to debug them.

Used by the integration tests to turn "the transfer completed" into
"the transfer completed *and* no TCB ever regressed, no location-LUT
entry dangled, and no CAM slot leaked at any point along the way".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..tcp.seq import seq_ge, seq_le
from ..tcp.state_machine import TcpState
from .ftengine import FtEngine
from .scheduler import Location

#: How often :func:`audited_run` checks the invariants, in cycles.
RUN_AUDIT_CYCLES = 2048
#: The states in which a TCB has not yet seen the peer's SYN.
_BEFORE_PEER_SYN = (TcpState.CLOSED, TcpState.LISTEN, TcpState.SYN_SENT)


@dataclass
class Violation:
    time_ps: int
    invariant: str
    flow_id: int
    detail: str

    def __str__(self) -> str:
        return (
            f"{self.time_ps / 1e6:.2f}us flow={self.flow_id}: "
            f"{self.invariant}: {self.detail}"
        )


@dataclass
class _FlowShadow:
    """Last observed monotone pointers, for regression detection."""

    snd_una: int
    snd_nxt: int
    req: int
    rcv_nxt: int


class InvariantMonitor:
    """Periodically audits an engine's architectural state."""

    def __init__(self, engine: FtEngine) -> None:
        self.engine = engine
        self.violations: List[Violation] = []
        self.checks_run = 0
        self._shadows: Dict[int, _FlowShadow] = {}

    # ------------------------------------------------------------- helpers
    def _flag(self, invariant: str, flow_id: int, detail: str) -> None:
        self.violations.append(
            Violation(self.engine.time_ps, invariant, flow_id, detail)
        )

    # ---------------------------------------------------------------- audit
    def check(self) -> List[Violation]:
        """Run every invariant once; returns violations found this pass."""
        before = len(self.violations)
        self.checks_run += 1
        self._check_tcb_pointer_order()
        self._check_pointer_monotonicity()
        self._check_location_lut_consistency()
        self._check_cam_slot_accounting()
        self._check_window_sanity()
        return self.violations[before:]

    def _iter_tcbs(self):
        for flow_id in list(self.engine.flows):
            tcb = self.engine.tcb_of(flow_id)
            if tcb is not None:
                yield flow_id, tcb

    def _check_tcb_pointer_order(self) -> None:
        """snd_una <= snd_nxt and snd_nxt <= req+1 (FIN) at all times."""
        for flow_id, tcb in self._iter_tcbs():
            if tcb.state in (TcpState.CLOSED, TcpState.LISTEN):
                continue
            if not seq_le(tcb.snd_una, tcb.snd_nxt):
                self._flag(
                    "pointer-order", flow_id,
                    f"snd_una={tcb.snd_una} passed snd_nxt={tcb.snd_nxt}",
                )
            if tcb.state is TcpState.ESTABLISHED and tcb.bytes_in_flight > 0:
                flight = tcb.bytes_in_flight
                limit = max(tcb.cwnd, tcb.mss) + tcb.snd_wnd + tcb.mss
                if flight > tcb.send_buf + 2:
                    self._flag(
                        "flight-bound", flow_id,
                        f"{flight} B in flight exceeds the send buffer",
                    )

    def _check_pointer_monotonicity(self) -> None:
        """Cumulative pointers never regress between audits (§4.2.1)."""
        for flow_id, tcb in self._iter_tcbs():
            if tcb.state in _BEFORE_PEER_SYN:
                # rcv_nxt is a placeholder until the peer's SYN sets it
                # (RFC 793); the first shadow is taken after that.
                continue
            shadow = self._shadows.get(flow_id)
            if shadow is not None:
                for name in ("snd_una", "snd_nxt", "req", "rcv_nxt"):
                    if name == "snd_nxt":
                        # Go-back-N rollback is the one legal regression.
                        continue
                    old = getattr(shadow, name)
                    new = getattr(tcb, name)
                    if not seq_ge(new, old):
                        self._flag(
                            "monotonicity", flow_id,
                            f"{name} regressed {old} -> {new}",
                        )
            self._shadows[flow_id] = _FlowShadow(
                tcb.snd_una, tcb.snd_nxt, tcb.req, tcb.rcv_nxt
            )
        for flow_id in list(self._shadows):
            if flow_id not in self.engine.flows:
                del self._shadows[flow_id]

    def _check_location_lut_consistency(self) -> None:
        """Every live flow is findable where the LUT says it is (§4.3.1)."""
        scheduler = self.engine.scheduler
        for flow_id in list(self.engine.flows):
            location = scheduler.location_of(flow_id)
            if location is None:
                self._flag(
                    "location-lut", flow_id, "live flow missing from the LUT"
                )
                continue
            if location is Location.MOVING:
                continue  # transient by design; bounded by 12 cycles
            if location is Location.FPC:
                resident = any(
                    fpc.peek_tcb(flow_id) is not None
                    for fpc in self.engine.fpcs
                )
                if not resident:
                    self._flag(
                        "location-lut", flow_id, "LUT says FPC but no FPC has it"
                    )
            elif location is Location.DRAM:
                if flow_id not in self.engine.memory_manager:
                    self._flag(
                        "location-lut", flow_id,
                        "LUT says DRAM but the memory manager lacks it",
                    )

    def _check_cam_slot_accounting(self) -> None:
        """CAM entries match TCB-table residents; no leaked slots."""
        for fpc in self.engine.fpcs:
            for flow_id in fpc.resident_flows():
                if fpc.peek_tcb(flow_id) is None:
                    self._flag(
                        "cam-accounting", flow_id,
                        f"{fpc.name}: CAM entry without a TCB",
                    )

    def _check_window_sanity(self) -> None:
        """Receive windows stay within the configured buffer."""
        for flow_id, tcb in self._iter_tcbs():
            if tcb.rcv_wnd > tcb.rcv_buf:
                self._flag(
                    "window-sanity", flow_id,
                    f"rcv_wnd={tcb.rcv_wnd} exceeds rcv_buf={tcb.rcv_buf}",
                )

    # ----------------------------------------------------------- lifecycle
    def assert_clean(self) -> None:
        """Raise if any violation was ever recorded."""
        if self.violations:
            summary = "\n".join(str(v) for v in self.violations[:20])
            raise AssertionError(
                f"{len(self.violations)} invariant violations:\n{summary}"
            )


def audited_run(
    testbed,
    until,
    max_time_s: float,
    monitors: Optional[List[InvariantMonitor]] = None,
) -> bool:
    """Like ``Testbed.run`` but auditing both engines every
    :data:`RUN_AUDIT_CYCLES` along the way."""
    if monitors is None:
        monitors = [
            InvariantMonitor(testbed.engine_a),
            InvariantMonitor(testbed.engine_b),
        ]
    state = {"next_audit": 0}

    def audited_until() -> bool:
        if testbed.cycle >= state["next_audit"]:
            for monitor in monitors:
                monitor.check()
            state["next_audit"] = testbed.cycle + RUN_AUDIT_CYCLES
        return until()

    finished = testbed.run(until=audited_until, max_time_s=max_time_s)
    for monitor in monitors:
        monitor.assert_clean()
    return finished
