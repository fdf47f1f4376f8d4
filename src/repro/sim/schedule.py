"""Compiled edge schedule: the kernel's table-driven hot path.

The 250 MHz and 322 MHz domains interleave with an exactly periodic
pattern: every domain's edge times satisfy ``edge_ps(k + m) =
edge_ps(k) + W`` where ``W`` is the least common window of the exact
rational periods (500 ns for 250/322 MHz) and ``m`` is that domain's
cycle count per window.  Periodicity is exact — ``W * den`` is an
integer multiple of ``num`` by construction, so the floor-division
rounding in ``edge_ps`` repeats identically window after window; no
float period is ever summed (simlint F4T006/F4T007).

:func:`compile_schedule` lowers the registered domains into one static
:class:`ScheduleTable`: two preallocated int arrays, one holding the
domain index of each slot and one the edge-time offset within the
window, sorted by ``(offset, registration index)`` — the
deterministic tie-break for coincident edges.  ``Simulator`` walks it
with a cursor: advance one slot, add the offset to the window base, tick
the slot's domain.  RapidStream TAPA's fast cosim flow is the exemplar:
lower the dataflow to a static schedule once, then replay it.

The table is the kernel's only source of edge order, so a domain set it
cannot hold is an error, not a slow path: irrational-ish frequencies
(anything whose float->Fraction denominator makes the window explode
past :data:`MAX_SLOTS`) make :func:`compile_schedule` raise.
"""

from __future__ import annotations

from array import array
from math import gcd
from typing import Sequence, Tuple

#: Slot cap: 250/322 MHz needs 286 slots; anything orders of magnitude
#: beyond this came from a degenerate float ratio.
MAX_SLOTS = 65_536


class ScheduleTable:
    """One compiled LCM window of edge slots over the registered domains.

    ``slot_domain[i]`` is the registration index of the domain ticking
    at slot ``i``; ``slot_offset_ps[i]`` is that edge's integer-ps time
    offset within the window, in ``(0, window_ps]``.  Absolute edge time
    is ``window_base_ps + slot_offset_ps[i]`` where the base advances by
    ``window_ps`` each wrap.  ``cycles_per_window[d]`` counts domain
    ``d``'s slots per window — the cursor <-> domain-cycle conversion
    used to resync after an idle skip.
    """

    __slots__ = (
        "window_ps",
        "slots",
        "slot_domain",
        "slot_offset_ps",
        "cycles_per_window",
    )

    def __init__(
        self,
        window_ps: int,
        slot_domain: Sequence[int],
        slot_offset_ps: Sequence[int],
        cycles_per_window: Sequence[int],
    ) -> None:
        self.window_ps = window_ps
        self.slots = len(slot_domain)
        #: Preallocated int arrays — the whole point of the lowering:
        #: the hot loop indexes two flat arrays instead of re-deriving
        #: the interleaving from big-int rational arithmetic per step.
        self.slot_domain = array("H", slot_domain)
        self.slot_offset_ps = array("q", slot_offset_ps)
        self.cycles_per_window = array("q", cycles_per_window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ScheduleTable {self.slots} slots / {self.window_ps} ps, "
            f"domains={list(self.cycles_per_window)}>"
        )


def compile_schedule(domains: Sequence) -> ScheduleTable:
    """Compile registered domains into a :class:`ScheduleTable`.

    ``domains`` is the simulator's registration-ordered list; each needs
    the ``_num``/``_den`` exact rational period and ``edge_ps``.  Raises
    ``ValueError`` when the list is empty or the exact LCM window needs
    more than :data:`MAX_SLOTS` slots.
    """
    if not domains:
        raise ValueError("no clock domains to schedule")
    # Minimal exact window per domain: W_d = num/gcd(num, den); the
    # combined window is their lcm.  All integer arithmetic.
    window = 1
    for d in domains:
        w_d = d._num // gcd(d._num, d._den)
        window = window * w_d // gcd(window, w_d)
    cycles = [window * d._den // d._num for d in domains]
    slots = sum(cycles)
    # The second bound keeps offsets inside the signed 64-bit slot array.
    if slots > MAX_SLOTS or window > (1 << 62):
        raise ValueError(
            f"clock domains {[d.name for d in domains]} need a schedule "
            f"window of {slots} slots / {window} ps "
            f"(limits: {MAX_SLOTS} slots, 2**62 ps)"
        )
    # Edge offsets for window 0: domain d contributes edges 1..m_d.
    # Exact periodicity makes window w's slot times base + offset for
    # every w, with base = w * window.  Sorting by (offset, index) gives
    # coincident edges to the first-registered domain.
    merged = sorted(
        (d.edge_ps(k), index)
        for index, d in enumerate(domains)
        for k in range(1, cycles[index] + 1)
    )
    return ScheduleTable(
        window_ps=window,
        slot_domain=[index for _t, index in merged],
        slot_offset_ps=[t for t, _index in merged],
        cycles_per_window=cycles,
    )


def locate_cursor(table: ScheduleTable, domains: Sequence) -> Tuple[int, int]:
    """Find the (window_base_ps, cursor) matching the domains' cycles.

    The kernel calls this to resync the table cursor after an idle skip
    (which advances ``cycle`` without stepping).  Any state the kernel
    itself produces consumes edges in slot order, so the consumed set is
    always a prefix of some window and a consistent position exists; if
    the domains' cycles were edited from outside, raises ``RuntimeError``.
    """
    # The next edge to tick (earliest time, registration-order
    # tie-break) anchors the position.
    best_index = 0
    best_edge = domains[0].edge_ps(domains[0].cycle + 1)
    for i in range(1, len(domains)):
        e = domains[i].edge_ps(domains[i].cycle + 1)
        if e < best_edge:
            best_index, best_edge = i, e
    window = table.window_ps
    # Offsets live in (0, window]: the edge at exactly a window boundary
    # belongs to the *previous* window's last slots.
    base = (best_edge - 1) // window * window
    offset = best_edge - base
    slot_domain = table.slot_domain
    slot_offset = table.slot_offset_ps
    cursor = next(
        (
            s
            for s in range(table.slots)
            if slot_offset[s] == offset and slot_domain[s] == best_index
        ),
        None,
    )
    if cursor is not None:
        # Every domain's cycle count must equal full windows done plus
        # its slots before the cursor in this window.
        windows_done = base // window
        before = [0] * len(domains)
        for s in range(cursor):
            before[slot_domain[s]] += 1
        if all(
            d.cycle == windows_done * table.cycles_per_window[i] + before[i]
            for i, d in enumerate(domains)
        ):
            return base, cursor
    raise RuntimeError(
        "domain cycles modified outside the kernel: "
        + ", ".join(f"{d.name}.cycle={d.cycle}" for d in domains)
        + " is not a state the schedule table can reach"
    )
