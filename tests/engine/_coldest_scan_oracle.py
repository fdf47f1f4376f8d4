"""The coldest-flow pick as it was: a scan over every resident flow.

``FlowProcessingCore.coldest_flow`` used to read every CAM entry's TCB
for each eviction; it now reads the head of a coldest-first order the
FPC keeps as flows are accepted, dispatched and written back.  This is
the retired scan, verbatim, the reference ``test_coldest_order.py``
holds it against on every call.
"""

from typing import Optional


def coldest_flow_by_scan(fpc) -> Optional[int]:
    """Least-recently-active resident flow eligible for eviction."""
    best_id: Optional[int] = None
    best_rank = None
    for flow_id in fpc.resident_flows():
        if flow_id in fpc._in_flight or flow_id in fpc._evict_requested:
            continue
        rank = fpc.peek_tcb(flow_id).last_active
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best_id = flow_id
    return best_id
