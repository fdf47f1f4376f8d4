"""The memory manager's check logic as it was: clone, merge, ask.

``MemoryManager.handle_event`` used to answer §4.3.1's question — would
this DRAM-resident flow emit a packet if processed? — by cloning the
TCB, merging a copy of the event entry into the clone and asking the
clone.  ``memory_manager.check_logic`` now works the same answer out
from the two records as they are; this retired form is the reference
``tests/engine/test_memory_manager.py`` holds it against.
"""

from repro.engine.event_handler import copy_entry, merge_into_tcb


def check_logic_by_merging(tcb, entry) -> bool:
    probe = tcb.clone()
    merge_into_tcb(probe, copy_entry(entry))
    return bool(
        probe.can_send_now()
        or probe.cc.get("_connect_req")
        or probe.cc.get("_latest_ack") is not None
        # Connection control must also be processed in an FPC:
        # SYN/SYN-ACK replies, FIN progress, RST teardown.
        or probe.syn_received
        or probe.fin_received
        or probe.rst_received
    )
