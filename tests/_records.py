"""Per-flow records built with any fields set.

``Tcb`` and ``EventEntry`` are slotted classes whose constructors take
only what the engine passes; a test that needs another initial field
value sets it after construction, which is what these helpers do.
"""

from repro.engine.event_handler import EventEntry
from repro.tcp.tcb import Tcb


def make_tcb(flow_id: int, **fields) -> Tcb:
    tcb = Tcb(flow_id)
    for name, value in fields.items():
        setattr(tcb, name, value)
    return tcb


def make_entry(**fields) -> EventEntry:
    entry = EventEntry()
    for name, value in fields.items():
        setattr(entry, name, value)
    return entry


def fields(record) -> dict:
    """A slotted record's fields, name -> value (what ``vars`` gave)."""
    return {name: getattr(record, name) for name in type(record).__slots__}
