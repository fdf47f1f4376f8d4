"""The retired every-host scan, kept as the wake index's test oracle.

Until the timer wake index, ``run_event_loop`` and ``CellSim`` asked
every stack ``timer_due(now)`` and walked every stack's timer heap in
``earliest_wakeup_ps`` at every instant.  Both live on here, the way
``test_switch.py`` keeps the old switch sweep: :func:`use_scan` answers
the index's two queries from the stacks' own heaps, so a run under it
never depends on what was published.  :class:`StackVisits` is the
counting wrapper the fabric and shard scaling tests share.
"""

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.fabric.softstack import SoftStack, TimerWakeIndex


def timer_due(stack: SoftStack, now_ps: int) -> bool:
    """Whether ``tick`` has a timer entry (live or stale) to pop."""
    timers = stack._timers
    return bool(timers) and timers[0][0] <= now_ps


def earliest_wakeup_ps(
    stacks: Iterable[SoftStack], best: Optional[int]
) -> Optional[int]:
    """``best`` lowered to the earliest live timer deadline under it."""
    for stack in stacks:
        timers = stack._timers
        if timers and (best is None or timers[0][0] < best):
            wakeup = stack.next_deadline_ps()
            if wakeup is not None and (best is None or wakeup < best):
                best = wakeup
    return best


def use_scan(monkeypatch) -> None:
    """Answer both index queries by scanning every stack."""

    def pop_due(self: TimerWakeIndex, now_ps: int, due: Set[int]) -> None:
        due.update(
            host for host, stack in self.stacks.items()
            if timer_due(stack, now_ps)
        )

    def next_deadline_ps(self: TimerWakeIndex, best: Optional[int]) -> Optional[int]:
        return earliest_wakeup_ps(self.stacks.values(), best)

    monkeypatch.setattr(TimerWakeIndex, "pop_due", pop_due)
    monkeypatch.setattr(TimerWakeIndex, "next_deadline_ps", next_deadline_ps)


#: ("instant", first host of the index, now_ps) per loop instant, then
#: one ("tick", stack name, now_ps) per stack ticked at it.
Record = Tuple[str, object, int]


def record_instants(monkeypatch) -> List[Record]:
    """Record every loop instant and every stack tick, in order (call
    after :func:`use_scan` to record a scan run)."""
    records: List[Record] = []
    pop_due = TimerWakeIndex.pop_due
    tick = SoftStack.tick

    def recorded_pop_due(self: TimerWakeIndex, now_ps: int, due: Set[int]) -> None:
        records.append(("instant", next(iter(self.stacks)), now_ps))
        pop_due(self, now_ps, due)

    def recorded_tick(stack: SoftStack) -> None:
        records.append(("tick", stack.name, stack.now_ps))
        tick(stack)

    monkeypatch.setattr(TimerWakeIndex, "pop_due", recorded_pop_due)
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
