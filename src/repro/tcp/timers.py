"""Retransmission timers: RFC 6298 RTO estimation and a timer wheel.

FtEngine's timer module creates timeout events (§4.1.2 ③) and keeps its
timestamps as cycle counts; here every RTT, RTO and deadline is integer
picoseconds, the engine clock's unit, so a deadline is met on exactly
the cycle ``ceil(deadline_ps / ENGINE_PERIOD_PS)``.  Timeouts are pure
*occurrence* events — only the fact that one fired matters — which is
why the event handler can accumulate them as a single flag (§4.2.1).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..sim.component import NEVER
from .tcb import Tcb

#: RFC 6298 bounds in ps; the lower bound is relaxed for datacenter RTTs.
MIN_RTO_PS = 10 * 10**9  # 10 ms
MAX_RTO_PS = 60 * 10**12  # 60 s

#: RFC 6298's RTTVAR factor; its gains ALPHA = 1/8 and BETA = 1/4 are
#: the 7/8 and 3/4 blends in :func:`update_rtt`.
K = 4


def update_rtt(tcb: Tcb, sample_ps: int) -> None:
    """Fold an RTT sample into SRTT/RTTVAR and recompute the RTO.

    RFC 6298 §2 in integer ps: each update rounds SRTT and RTTVAR down
    to a whole ps (tests/tcp/_rto_oracle.py is the float form, and the
    test beside it bounds the difference).
    """
    if sample_ps < 0:
        raise ValueError(f"negative RTT sample {sample_ps}")
    srtt = tcb.srtt
    if srtt is None:
        srtt = sample_ps
        tcb.rttvar = sample_ps // 2
    else:
        tcb.rttvar = (3 * tcb.rttvar + abs(srtt - sample_ps)) // 4
        srtt = (7 * srtt + sample_ps) // 8
    tcb.srtt = srtt
    tcb.rto = min(MAX_RTO_PS, max(MIN_RTO_PS, srtt + K * tcb.rttvar))
    tcb.rto_backoff = 0


def backoff_rto(tcb: Tcb) -> None:
    """Exponential backoff after a retransmission timeout."""
    tcb.rto = min(MAX_RTO_PS, tcb.rto * 2)
    tcb.rto_backoff += 1


class TimerWheel:
    """Per-flow deadline tracker producing timeout events.

    One outstanding deadline per flow (the retransmission timer); a
    re-arm replaces the previous deadline lazily via generation counts.
    """

    def __init__(self) -> None:
        #: (deadline_ps, gen, flow)
        self._heap: List[Tuple[int, int, int]] = []
        self._gen: Dict[int, int] = {}
        self._armed: Dict[int, int] = {}
        #: Cheap lower bound on the earliest live deadline (ps, NEVER
        #: while none is armed); callers may skip :meth:`expire`
        #: entirely while now < hint (hot path).
        self.earliest_hint = NEVER

    def __len__(self) -> int:
        return len(self._armed)

    def arm(self, flow_id: int, deadline_ps: int) -> None:
        """(Re)arm the flow's timer at ``deadline_ps``."""
        gen = self._gen.get(flow_id, 0) + 1
        self._gen[flow_id] = gen
        self._armed[flow_id] = deadline_ps
        heapq.heappush(self._heap, (deadline_ps, gen, flow_id))
        if deadline_ps < self.earliest_hint:
            self.earliest_hint = deadline_ps

    def cancel(self, flow_id: int) -> None:
        self._gen[flow_id] = self._gen.get(flow_id, 0) + 1
        self._armed.pop(flow_id, None)

    def next_deadline(self) -> Optional[int]:
        """Earliest live deadline, for the simulator's idle-skip."""
        while self._heap:
            deadline, gen, flow_id = self._heap[0]
            if self._gen.get(flow_id) == gen and flow_id in self._armed:
                return deadline
            heapq.heappop(self._heap)
        return None

    def expire(self, now_ps: int) -> List[int]:
        """Pop every flow whose deadline has passed by ``now_ps``."""
        fired: List[int] = []
        while self._heap and self._heap[0][0] <= now_ps:
            deadline, gen, flow_id = heapq.heappop(self._heap)
            if self._gen.get(flow_id) == gen and self._armed.get(flow_id) == deadline:
                del self._armed[flow_id]
                fired.append(flow_id)
        next_live = self.next_deadline()
        self.earliest_hint = next_live if next_live is not None else NEVER
        return fired
