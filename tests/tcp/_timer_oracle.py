"""The timer wheel before it swept stale entries out.

Every re-arm and cancel left its old ``(deadline, gen, flow)`` entry on
the heap until that deadline reached the top, so the heap grew with the
sends, not with the flows armed.  ``TimerWheel`` now sweeps them out
when they outnumber the live ones; this uncompacted form is the
reference ``test_timers.py`` holds it against: the same flows fire in
the same order, and the same deadlines and hints are published.
"""

import heapq
from typing import Dict, List, Optional, Tuple

from repro.sim.component import NEVER


class UncompactedTimerWheel:
    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int]] = []
        self._gen: Dict[int, int] = {}
        self._armed: Dict[int, int] = {}
        self.earliest_hint = NEVER

    def __len__(self) -> int:
        return len(self._armed)

    def arm(self, flow_id: int, deadline_ps: int) -> None:
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
        while self._heap:
            deadline, gen, flow_id = self._heap[0]
            if self._gen.get(flow_id) == gen and flow_id in self._armed:
                return deadline
            heapq.heappop(self._heap)
        return None

    def expire(self, now_ps: int) -> List[int]:
        fired: List[int] = []
        while self._heap and self._heap[0][0] <= now_ps:
            deadline, gen, flow_id = heapq.heappop(self._heap)
            if self._gen.get(flow_id) == gen and self._armed.get(flow_id) == deadline:
                del self._armed[flow_id]
                fired.append(flow_id)
        next_live = self.next_deadline()
        self.earliest_hint = next_live if next_live is not None else NEVER
        return fired
