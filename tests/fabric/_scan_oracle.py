"""The every-host scan, kept as the timer heap's test oracle.

Before the wake index, ``run_event_loop`` and ``CellSim`` asked every
stack whether a timer entry was due and walked every stack's timer
heap for the earliest live deadline at every instant.  That scan lives
on here over the one heap a loop now keeps, the way ``test_switch.py``
keeps the old switch sweep: :func:`use_scan` answers the heap's two
queries by visiting every host's entries, so a run under it never
depends on the heap's order.  :class:`StackVisits` is the counting
wrapper the fabric and shard scaling tests share.
"""

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.fabric.softstack import SoftStack, TimerHeap, _SoftFlow, _deadline_ps
from repro.shard.cell import CellSim

Entry = Tuple[int, int, int]


def host_heads(timers: TimerHeap) -> Dict[int, Entry]:
    """Every host's earliest entry, live or stale, by scanning them all."""
    heads: Dict[int, Entry] = {}
    for entry in timers._heap:
        head = heads.get(entry[1])
        if head is None or entry < head:
            heads[entry[1]] = entry
    return heads


def use_scan(monkeypatch) -> None:
    """Answer every heap query by scanning every host's entries."""

    def pop_due(self: TimerHeap, now_ps: int, due: Set[int]) -> None:
        for host, stack in self.stacks.items():
            mine = sorted(e for e in self._heap if e[1] == host and e[0] <= now_ps)
            if mine:
                stack._due_timers.extend(mine)
                due.add(host)
                self.live_pops += len(mine)
        self._heap[:] = [e for e in self._heap if e[0] > now_ps]
        heapq.heapify(self._heap)

    def next_deadline_ps(self: TimerHeap, bound: Optional[int]) -> Optional[int]:
        while True:
            heads = host_heads(self)
            first = None
            for host in self.stacks:
                head = heads.get(host)
                if head is not None and (first is None or head < first):
                    first = head
            if first is None or (bound is not None and first[0] >= bound):
                return bound
            deadline, host, flow_id = first
            stack = self.stacks[host]
            flow = stack.flows.get(flow_id)
            if not isinstance(flow, _SoftFlow):
                flow = None  # gone, or parked: no deadline
            if flow is not None and _deadline_ps(flow) == deadline:
                return deadline
            self._heap.remove(first)
            heapq.heapify(self._heap)
            self.stale_pops += 1
            if flow is not None:
                if flow.timer_armed_ps == deadline:
                    flow.timer_armed_ps = 0
                stack._arm(flow)
                stack._park(flow)

    monkeypatch.setattr(TimerHeap, "pop_due", pop_due)
    monkeypatch.setattr(TimerHeap, "next_deadline_ps", next_deadline_ps)


#: ("instant", first host of the loop, now_ps) per loop instant, then
#: one ("tick", stack name, now_ps) per stack ticked at it.
Record = Tuple[str, object, int]


def record_instants(monkeypatch) -> List[Record]:
    """Record every loop instant and every stack tick, in order (call
    after :func:`use_scan` to record a scan run).

    An instant is recorded where its loop settles it: ``run_event_loop``
    asks the heap for due hosts at every instant, ``CellSim._settle``
    only when a timer entry is due, so a cell's instant is recorded at
    ``_settle`` and the ``pop_due`` calls inside it are not."""
    records: List[Record] = []
    settling: List[int] = []
    pop_due = TimerHeap.pop_due
    settle = CellSim._settle
    tick = SoftStack.tick

    def recorded_pop_due(self: TimerHeap, now_ps: int, due: Set[int]) -> None:
        if not settling:
            records.append(("instant", next(iter(self.stacks)), now_ps))
        pop_due(self, now_ps, due)

    def recorded_settle(sim: CellSim, now_ps: int) -> None:
        records.append(("instant", next(iter(sim.stacks)), now_ps))
        settling.append(now_ps)
        try:
            settle(sim, now_ps)
        finally:
            settling.pop()

    def recorded_tick(stack: SoftStack) -> None:
        records.append(("tick", stack.name, stack.now_ps))
        tick(stack)

    monkeypatch.setattr(TimerHeap, "pop_due", recorded_pop_due)
    monkeypatch.setattr(CellSim, "_settle", recorded_settle)
    monkeypatch.setattr(SoftStack, "tick", recorded_tick)
    return records


class StackVisits:
    """Counts every ``SoftStack`` method call, by name, while patched."""

    def __init__(self, monkeypatch) -> None:
        self.calls: Dict[str, int] = {}
        for name, method in list(vars(SoftStack).items()):
            if callable(method) and not name.startswith("__"):
                monkeypatch.setattr(SoftStack, name, self._counted(name, method))

    def _counted(self, name, method):
        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return counted
