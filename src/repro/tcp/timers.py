"""Retransmission timers: RFC 6298 RTO estimation and a timer wheel.

FtEngine's timer module creates timeout events (§4.1.2 ③).  Timeouts are
pure *occurrence* events — only the fact that one fired matters — which
is why the event handler can accumulate them as a single flag (§4.2.1).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .tcb import Tcb

#: RFC 6298 bounds; the lower bound is relaxed for datacenter RTTs.
MIN_RTO_S = 0.01
MAX_RTO_S = 60.0
INITIAL_RTO_S = 1.0

ALPHA = 1 / 8
BETA = 1 / 4
K = 4


def update_rtt(tcb: Tcb, sample_s: float) -> None:
    """Fold an RTT sample into SRTT/RTTVAR and recompute the RTO."""
    if sample_s < 0:
        raise ValueError(f"negative RTT sample {sample_s}")
    if tcb.srtt is None:
        tcb.srtt = sample_s
        tcb.rttvar = sample_s / 2
    else:
        tcb.rttvar = (1 - BETA) * tcb.rttvar + BETA * abs(tcb.srtt - sample_s)
        tcb.srtt = (1 - ALPHA) * tcb.srtt + ALPHA * sample_s
    tcb.rto = min(MAX_RTO_S, max(MIN_RTO_S, tcb.srtt + K * tcb.rttvar))
    tcb.rto_backoff = 0


def backoff_rto(tcb: Tcb) -> None:
    """Exponential backoff after a retransmission timeout."""
    tcb.rto = min(MAX_RTO_S, tcb.rto * 2)
    tcb.rto_backoff += 1


class TimerWheel:
    """Per-flow deadline tracker producing timeout events.

    One outstanding deadline per flow (the retransmission timer); a
    re-arm replaces the previous deadline lazily via generation counts.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int]] = []  # (deadline, gen, flow)
        self._gen: Dict[int, int] = {}
        self._armed: Dict[int, float] = {}
        #: Cheap lower bound on the earliest live deadline; callers may
        #: skip :meth:`expire` entirely while now < hint (hot path).
        self.earliest_hint: float = float("inf")

    def __len__(self) -> int:
        return len(self._armed)

    def arm(self, flow_id: int, deadline_s: float) -> None:
        """(Re)arm the flow's timer at ``deadline_s``."""
        gen = self._gen.get(flow_id, 0) + 1
        self._gen[flow_id] = gen
        self._armed[flow_id] = deadline_s
        heapq.heappush(self._heap, (deadline_s, gen, flow_id))
        if deadline_s < self.earliest_hint:
            self.earliest_hint = deadline_s

    def cancel(self, flow_id: int) -> None:
        self._gen[flow_id] = self._gen.get(flow_id, 0) + 1
        self._armed.pop(flow_id, None)

    def next_deadline(self) -> Optional[float]:
        """Earliest live deadline, for the simulator's idle-skip."""
        while self._heap:
            deadline, gen, flow_id = self._heap[0]
            if self._gen.get(flow_id) == gen and flow_id in self._armed:
                return deadline
            heapq.heappop(self._heap)
        return None

    def expire(self, now_s: float) -> List[int]:
        """Pop every flow whose deadline has passed by ``now_s``."""
        fired: List[int] = []
        while self._heap and self._heap[0][0] <= now_s:
            deadline, gen, flow_id = heapq.heappop(self._heap)
            if self._gen.get(flow_id) == gen and self._armed.get(flow_id) == deadline:
                del self._armed[flow_id]
                fired.append(flow_id)
        next_live = self.next_deadline()
        self.earliest_hint = next_live if next_live is not None else float("inf")
        return fired
