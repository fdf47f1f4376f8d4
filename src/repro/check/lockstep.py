"""The lockstep sanitizer: shadow checks for the conservative-PDES
contract in :mod:`repro.shard`.

The sharded simulator's correctness argument (PR 7) rests on three
properties the merged-fingerprint golden can only *diff*, not explain:

1. **Causality bound** — a cross-cell segment sent during epoch ``e``
   arrives no earlier than the epoch boundary, because the epoch length
   equals the inter-cell propagation delay.  A segment whose
   ``arrival_ps`` lies in the receiving cell's past is a straggler: the
   cell already simulated the instant it should have reacted to.
2. **Batch-order invariance** — barrier exchange batches may arrive in
   any grouping and any order; admission order is recovered purely from
   the ``(arrival_ps, src, seq)`` heap keys.  The shadow re-sort check
   verifies the pending heap's invariant over those keys, and the
   admission hooks verify the keys actually pop in nondecreasing order
   (both at the cell's settle loop and at the switch the packets feed).
3. **Order-invariant digest merge** — per-cell streaming fingerprints
   merge into one run digest keyed by cell index; the merge hook
   verifies the parts are complete and in cell order however workers
   delivered them.

Hook points live in :mod:`repro.shard.cell`, :mod:`repro.shard.runner`
and :class:`repro.fabric.switch.CellSwitch`, all behind the same
``if self.san is not None`` near-zero-cost guard the trace bus and the
race sanitizer use.  Every finding carries the check id and the
``file:line`` of the hook that observed it, so a violation names the
code path, not just the symptom.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import LockstepFinding

#: Default cap so a systematically broken run cannot OOM the checker.
DEFAULT_MAX_FINDINGS = 1000

#: The first three Entry fields: (arrival_ps, src, seq).
Key = Tuple[int, int, int]


def _call_site(depth: int = 2) -> str:
    """``file:line`` of the hook's caller, repo-relative when possible."""
    frame = sys._getframe(depth)
    path = frame.f_code.co_filename.replace("\\", "/")
    marker = "/repro/"
    index = path.rfind(marker)
    if index != -1:
        path = "repro" + path[index + len(marker) - 1:]
    return f"{path}:{frame.f_lineno}"


class LockstepSanitizer:
    """Shadow-state checker for the shard layer's lockstep protocol.

    Pass one instance to :func:`repro.shard.runner.run_shard` via its
    ``sanitizer`` argument; each :class:`~repro.shard.cell.CellSim`
    takes a :meth:`for_cell` view (the race sanitizer's ``scoped``
    pattern — views share the findings list and counters with the
    root).  Read :attr:`findings` after the run, or :meth:`report` for
    the rendered listing.
    """

    def __init__(self, max_findings: int = DEFAULT_MAX_FINDINGS) -> None:
        self.max_findings = max_findings
        #: The cell this view belongs to; -1 on the root.
        self.cell = -1
        self.findings: List[LockstepFinding] = []
        #: Shared counters (a dict so views mutate the same ints).
        self._counts: Dict[str, int] = {"checks": 0, "dropped": 0}
        #: Shared epoch cursor, advanced by the runner's barrier loop.
        self._epoch: Dict[str, int] = {"index": 0, "boundary_ps": 0}
        #: cell -> last key admitted by the settle loop.
        self._last_admit: Dict[int, Key] = {}
        #: cell -> last arrival instant fed to the cell switch.
        self._last_switch: Dict[int, int] = {}
        #: cell -> every exchange/local key ever enqueued (dup check).
        self._seen_keys: Dict[int, Set[Key]] = {}

    def for_cell(self, cell: int) -> "LockstepSanitizer":
        """A view of this sanitizer bound to one cell.

        Views share all state with the root: findings land in one list,
        one report — only the cell id (stamped on findings) differs.
        """
        view = LockstepSanitizer.__new__(LockstepSanitizer)
        view.__dict__.update(self.__dict__)
        view.cell = cell
        return view

    # -------------------------------------------------------------- report
    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def checks_run(self) -> int:
        return self._counts["checks"]

    @property
    def dropped(self) -> int:
        return self._counts["dropped"]

    def report(self) -> str:
        lines = [finding.render() for finding in self.findings]
        noun = "violation" if len(self.findings) == 1 else "violations"
        lines.append(
            f"lockstep sanitizer: {len(self.findings)} {noun} over "
            f"{self.checks_run} checks"
            + (f" ({self.dropped} findings dropped at cap)"
               if self.dropped else "")
        )
        return "\n".join(lines)

    def _emit(
        self, kind: str, t_ps: int, site: str, message: str,
        cell: Optional[int] = None,
    ) -> None:
        if len(self.findings) >= self.max_findings:
            self._counts["dropped"] += 1
            return
        self.findings.append(LockstepFinding(
            kind=kind,
            epoch=self._epoch["index"],
            cell=self.cell if cell is None else cell,
            t_ps=t_ps,
            site=site,
            message=message,
        ))

    # --------------------------------------------------------- config hooks
    def on_configure(self, epoch_ps: int, prop_ps: int) -> None:
        """Cell construction: the epoch must not exceed the propagation
        lower bound, or the exchange-at-barrier protocol loses events."""
        self._counts["checks"] += 1
        if epoch_ps > prop_ps:
            self._emit(
                "epoch-bound", 0, _call_site(),
                f"epoch_ps={epoch_ps} exceeds the inter-cell propagation "
                f"bound prop_ps={prop_ps}; a segment can arrive inside "
                "the epoch that sent it",
            )

    def on_epoch(self, epoch: int, boundary_ps: int) -> None:
        """Runner barrier loop: advance the shared epoch cursor."""
        self._epoch["index"] = epoch
        self._epoch["boundary_ps"] = boundary_ps

    # ----------------------------------------------------------- cell hooks
    def on_route_local(self, entry: Sequence, now_ps: int) -> None:
        """A packet routed into this cell's own pending inbox."""
        self._counts["checks"] += 1
        arrival = entry[0]
        if arrival < now_ps:
            self._emit(
                "straggler", now_ps, _call_site(),
                f"locally routed segment (src={entry[1]}, seq={entry[2]}) "
                f"arrives at {arrival}ps, before the cell's current "
                f"instant {now_ps}ps",
            )
        self._note_key(tuple(entry[:3]), now_ps, _call_site())

    def on_exchange(self, entries: Sequence[Sequence], now_ps: int) -> None:
        """A barrier batch merged into this cell's pending inbox.

        ``now_ps`` is the epoch boundary the receiving cell landed on;
        any entry arriving before it is a causality violation — the
        conservative epoch bound failed to hold the segment back.
        """
        site = _call_site()
        for entry in entries:
            self._counts["checks"] += 1
            arrival = entry[0]
            if arrival < now_ps:
                self._emit(
                    "straggler", now_ps, site,
                    f"exchanged segment (src={entry[1]}, seq={entry[2]}) "
                    f"arrives at {arrival}ps, inside the receiving "
                    f"cell's past (now={now_ps}ps); the epoch bound "
                    "did not hold it back",
                )
            self._note_key(tuple(entry[:3]), now_ps, site)

    def _note_key(self, key: Key, now_ps: int, site: str) -> None:
        seen = self._seen_keys.setdefault(self.cell, set())
        if key in seen:
            self._emit(
                "duplicate-key", now_ps, site,
                f"exchange key {key} enqueued twice; (arrival_ps, src, "
                "seq) must be unique or admission drops determinism",
            )
        else:
            seen.add(key)

    def on_epoch_open(self, pending: Sequence[Sequence], now_ps: int) -> None:
        """Start of a cell's epoch: the shadow re-sort check.

        Verifies the heap invariant over the pending entries' keys —
        the property that makes admission order independent of how the
        barrier batched and ordered its pushes.  Also re-checks that
        nothing pending lies in the past.
        """
        self._counts["checks"] += 1
        site = _call_site()
        size = len(pending)
        for index in range(size):
            key = tuple(pending[index][:3])
            for child in (2 * index + 1, 2 * index + 2):
                if child < size and tuple(pending[child][:3]) < key:
                    self._emit(
                        "heap-order", now_ps, site,
                        f"pending inbox violates the heap invariant at "
                        f"index {child}: {tuple(pending[child][:3])} < "
                        f"parent {key}; batch admission is no longer "
                        "order-invariant",
                    )
                    return  # one structural finding is enough
        if pending:
            head = min(entry[0] for entry in pending)
            if head < now_ps:
                self._emit(
                    "straggler", now_ps, site,
                    f"pending segment at {head}ps predates the epoch "
                    f"start {now_ps}ps",
                )

    def on_admit(self, key: Sequence, now_ps: int) -> None:
        """Settle-loop pop: keys must leave the heap in nondecreasing
        order — the admission sequence the fingerprint depends on."""
        self._counts["checks"] += 1
        admitted = tuple(key[:3])
        last = self._last_admit.get(self.cell)
        if last is not None and admitted < last:
            self._emit(
                "admission-order", now_ps, _call_site(),
                f"admission key {admitted} pops after {last}; the "
                "pending heap no longer yields a sorted admission "
                "sequence",
            )
        self._last_admit[self.cell] = admitted

    # --------------------------------------------------------- switch hooks
    def on_switch_admit(self, now_ps: int) -> None:
        """CellSwitch.admit: arrivals must be fed in nondecreasing
        order (the documented CellSwitch contract) so lazy depth
        retirement stays exact."""
        self._counts["checks"] += 1
        last = self._last_switch.get(self.cell)
        if last is not None and now_ps < last:
            self._emit(
                "admission-order", now_ps, _call_site(),
                f"switch admission at {now_ps}ps after one at {last}ps; "
                "CellSwitch requires nondecreasing arrivals — a batch "
                "was fed in raw arrival order instead of key order",
            )
        self._last_switch[self.cell] = now_ps

    # ---------------------------------------------------------- merge hooks
    def on_merge(self, cells: Sequence[int], num_cells: int) -> None:
        """Fingerprint merge: parts must be complete and in cell order
        regardless of which workers produced them."""
        self._counts["checks"] += 1
        expected = list(range(num_cells))
        if list(cells) != expected:
            self._emit(
                "merge-order", self._epoch["boundary_ps"], _call_site(),
                f"cell reports merged as {list(cells)}, expected "
                f"{expected}; the merged digest is only "
                "worker-count-invariant over an ordered, complete merge",
                cell=-1,
            )


def run_lockstep_check(
    scenario_name: str = "churn",
    seed: Optional[int] = None,
    max_findings: int = DEFAULT_MAX_FINDINGS,
) -> Tuple[LockstepSanitizer, object]:
    """Run a shard scenario with the lockstep sanitizer attached.

    The churn preset exercises the full surface — cross-cell client /
    server pairs push every segment through the exchange path — while
    staying fast enough for CI.  The sanitized run keeps the exact
    golden fingerprint: the hooks observe, they never mutate.  Returns
    the sanitizer and the :class:`~repro.shard.runner.ShardResult`.
    """
    from ..shard.runner import run_shard
    from ..shard.scenarios import get_shard_scenario

    scenario = get_shard_scenario(scenario_name, seed=seed)
    san = LockstepSanitizer(max_findings=max_findings)
    result = run_shard(scenario, workers=2, fingerprint=True, sanitizer=san)
    return san, result
