"""The shard runner: one lockstep barrier loop over cell groups.

:func:`run_shard` executes a :class:`~repro.shard.scenarios.
ShardScenario` as ``workers`` *cell groups*, each hosting a fixed
subset of cells: a :class:`_CellGroup` simulating them in this process,
or a :class:`_PipedGroup` proxy whose forked worker runs that same
``_CellGroup`` behind a pipe.  The worker count picks the group kind,
never the protocol — one coordinator loop drives either:

1. it hands every group the epoch boundary and the entries routed to
   its cells at the last barrier;
2. each group admits them, runs its cells up to the boundary and hands
   back its cross-cell outboxes, an idle flag and the live-connection
   gauge;
3. it routes the outboxes to the destination cells' groups — or, if
   **no** entries were exchanged and **every** group reported idle,
   declares quiescence and stops.

Because the stop decision is a function of per-cell flags only, and
each cell's simulation is a pure function of (scenario, seed, cell) and
its barrier inputs, the merged fingerprint is identical for any worker
count — that is the property ``tests/shard`` pins.

:func:`run_traffic_shard` is the second shard kind: an existing
:mod:`repro.traffic` scenario split by class with
:meth:`~repro.traffic.scenario.Scenario.split`, each cell running the
unmodified integer-ps kernel testbed + load engine to completion (the
cells share no wire, so no epochs are needed), fingerprints merged in
cell order.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, TextIO, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..traffic.scenario import Scenario

from .. import mp_context
from ..check.lockstep import LockstepSanitizer
from ..obs.trace import StreamingFingerprint, TraceBus
from ..obs.trace import fingerprint as trace_fingerprint
from ..obs.trace import merge_fingerprints
from .cell import CellSim, Entry
from .scenarios import ShardScenario


@dataclass
class CellReport:
    """One cell's deterministic totals plus its stream fingerprint."""

    cell: int
    fingerprint: Optional[str]
    counters: Dict[str, int] = field(default_factory=dict)

    def get(self, key: str) -> int:
        return int(self.counters.get(key, 0))


@dataclass
class ShardResult:
    """What a sharded run did, merged across cells and workers."""

    scenario: str
    kind: str  # 'fabric' | 'traffic'
    seed: int
    num_cells: int
    workers: int  # cell groups: forked workers, or in-process groups
    epochs: int
    epoch_ps: int
    finished: bool
    peak_concurrent: int
    fingerprint: Optional[str]
    cells: List[CellReport]
    elapsed_s: float
    #: Peak RSS in KiB of the largest worker process (the bounded
    #: per-shard memory gauge; this process's RSS for in-process groups).
    max_worker_rss_kb: int = 0

    def total(self, key: str) -> int:
        return sum(report.get(key) for report in self.cells)

    def summary(self) -> str:
        lines = [
            f"shard {self.scenario}: {self.num_cells} cells on "
            f"{self.workers} worker(s), {self.epochs} epochs "
            f"({self.epoch_ps / 1e6:g} us each), "
            f"{'finished' if self.finished else 'UNFINISHED'} "
            f"in {self.elapsed_s:.1f}s",
            f"  conns: {self.total('conns_opened')} opened, "
            f"{self.total('conns_established')} established, "
            f"{self.total('txns_completed')} transactions, "
            f"{self.total('conns_closed')} closed, "
            f"peak concurrent {self.peak_concurrent}",
            f"  wire: {self.total('packets_sent')} sent, "
            f"{self.total('forwarded')} forwarded, "
            f"{self.total('dropped')} dropped, "
            f"{self.total('ecn_marked')} CE-marked, "
            f"{self.total('retransmits')} retransmits",
            f"  peak worker RSS: {self.max_worker_rss_kb / 1024:.0f} MiB",
        ]
        if self.fingerprint:
            lines.append(f"  fingerprint: {self.fingerprint}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "seed": self.seed,
            "num_cells": self.num_cells,
            "workers": self.workers,
            "epochs": self.epochs,
            "epoch_ps": self.epoch_ps,
            "finished": self.finished,
            "peak_concurrent": self.peak_concurrent,
            "fingerprint": self.fingerprint,
            "elapsed_s": self.elapsed_s,
            "max_worker_rss_kb": self.max_worker_rss_kb,
            "totals": {
                key: self.total(key)
                for key in (
                    "conns_opened", "conns_established", "txns_completed",
                    "conns_closed", "packets_sent", "packets_received",
                    "forwarded", "dropped", "ecn_marked", "retransmits",
                    "timeouts", "ecn_echoes", "events",
                )
            },
            "cells": [
                {
                    "cell": report.cell,
                    "fingerprint": report.fingerprint,
                    **report.counters,
                }
                for report in self.cells
            ],
        }


def _rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# --------------------------------------------------------- the cell groups
class ShardWorkerError(RuntimeError):
    """A forked shard worker died before the run was over."""


#: What a group hands back at a barrier: ``{(src cell, dst cell):
#: entries}`` for every non-empty outbox, all-cells-idle, live conns.
Barrier = Tuple[Dict[Tuple[int, int], List[Entry]], bool, int]
#: What it is handed to start an epoch: one batch per destination cell.
Inbound = Dict[int, List[Entry]]


class _CellGroup:
    """The cells one worker hosts, simulated in the calling process."""

    def __init__(
        self,
        scenario: ShardScenario,
        cell_ids: List[int],
        fingerprint: bool,
        san: Optional[LockstepSanitizer] = None,
    ) -> None:
        self.sims = {
            cell: CellSim(
                scenario, cell,
                StreamingFingerprint() if fingerprint else None,
                san=san,
            )
            for cell in cell_ids
        }
        self._barrier: Barrier = ({}, True, 0)

    def start_epoch(self, epoch: int, boundary_ps: int, inbound: Inbound) -> None:
        """Admit ``inbound``, run every cell up to ``boundary_ps``
        (``epoch`` is carried for a proxy's error message only)."""
        for cell, entries in inbound.items():
            self.sims[cell].receive(entries)
        sims = self.sims.values()
        outbound: Dict[Tuple[int, int], List[Entry]] = {}
        for sim in sims:
            sim.run_epoch(boundary_ps)
            for dst, entries in sim.take_outboxes().items():
                outbound[sim.cell, dst] = entries
        self._barrier = (
            outbound,
            all(sim.idle() for sim in sims),
            sum(sim.open_conns() for sim in sims),
        )

    def barrier(self) -> Barrier:
        return self._barrier

    def finish(self) -> Tuple[List[CellReport], int]:
        reports = [
            CellReport(
                sim.cell,
                sim.trace.hexdigest() if sim.trace is not None else None,
                sim.report(),
            )
            for sim in self.sims.values()
        ]
        return reports, _rss_kb()

    def close(self) -> None:
        """Nothing to reap."""


def _shard_worker_main(
    channel: Connection,
    inherited: List[Connection],
    scenario: ShardScenario,
    cell_ids: List[int],
    fingerprint: bool,
) -> None:
    """A forked worker: one :class:`_CellGroup` relayed over ``channel``."""
    # fork copied every parent-side pipe end opened so far, this worker's
    # own included; while a copy stays open here, a coordinator that
    # closed its end (or died) never reads as EOF and recv() blocks.
    for end in inherited:
        end.close()
    group = _CellGroup(scenario, cell_ids, fingerprint)
    try:
        while True:
            message = channel.recv()
            if message is None:
                channel.send(group.finish())
                return
            group.start_epoch(*message)
            channel.send(group.barrier())
    except (KeyboardInterrupt, EOFError, ConnectionError):
        pass


class _PipedGroup:
    """Proxy for a :class:`_CellGroup` living in a forked worker."""

    def __init__(
        self,
        index: int,
        scenario: ShardScenario,
        cell_ids: List[int],
        fingerprint: bool,
        parent_ends: List[Connection],
    ) -> None:
        """``parent_ends`` holds the coordinator's end of every pipe
        opened so far; this proxy's is added to it."""
        context = mp_context()
        self.index = index
        self.cell_ids = cell_ids
        self.epoch = 0
        self.channel, child_end = context.Pipe()
        parent_ends.append(self.channel)
        self.process = context.Process(
            target=_shard_worker_main,
            args=(child_end, parent_ends, scenario, cell_ids, fingerprint),
            name=f"shard-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_end.close()

    def _io(self, op: Callable[..., Any], *args: Any) -> Any:
        try:
            return op(*args)
        except (EOFError, ConnectionError) as exc:
            self.process.join(timeout=1)
            raise ShardWorkerError(
                f"shard worker {self.index} (cells {self.cell_ids}) died "
                f"in epoch {self.epoch}, exit code {self.process.exitcode}"
            ) from exc

    def start_epoch(self, epoch: int, boundary_ps: int, inbound: Inbound) -> None:
        self.epoch = epoch
        self._io(self.channel.send, (epoch, boundary_ps, inbound))

    def barrier(self) -> Barrier:
        barrier: Barrier = self._io(self.channel.recv)
        return barrier

    def finish(self) -> Tuple[List[CellReport], int]:
        self._io(self.channel.send, None)
        final: Tuple[List[CellReport], int] = self._io(self.channel.recv)
        self.process.join(timeout=30)  # it returns right after that send
        return final

    def close(self) -> None:
        """Reap the worker; one still running (the coordinator is
        unwinding an error) is terminated, not waited for."""
        self.channel.close()
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()


def _can_fork(workers: int) -> bool:
    """Whether ``workers`` asks for a pool this process may start: a
    daemonic process (a lab grid worker, say) cannot have children.
    Capability probe only; never enters sim state or digests."""
    return (workers > 1
            and not multiprocessing.current_process().daemon)  # f4t: noqa[F4T009]


# -------------------------------------------------------- the barrier loop
def run_shard(
    scenario: ShardScenario,
    workers: int = 1,
    fingerprint: Optional[bool] = None,
    progress: Optional[TextIO] = None,
    sanitizer: Optional[LockstepSanitizer] = None,
) -> ShardResult:
    """Run a sharded fabric scenario as ``workers`` cell groups.

    ``fingerprint=None`` takes the scenario's default (the million-flow
    presets turn it off; everything else on).  The merged fingerprint —
    when computed — is identical for every ``workers`` value.

    ``sanitizer`` attaches a
    :class:`~repro.check.lockstep.LockstepSanitizer`; its shadow state
    must live in one address space, so a sanitized run keeps its groups
    in this process (as does a lone group, or a run inside a daemonic
    process) — same loop, same routing, same fingerprint.
    """
    started = time.monotonic()  # f4t: noqa[F4T002] harness wall clock
    if fingerprint is None:
        fingerprint = scenario.fingerprint_default
    workers = max(1, min(workers, scenario.num_cells))
    #: Group w hosts cells w, w+workers, w+2*workers, ... — any fixed
    #: assignment works; the fingerprint must not (and does not) care.
    assignment = [
        list(range(w, scenario.num_cells, workers)) for w in range(workers)
    ]
    owner = {
        cell: w for w, cells in enumerate(assignment) for cell in cells
    }
    piped = sanitizer is None and _can_fork(workers)
    groups: List[Union[_CellGroup, _PipedGroup]] = []
    parent_ends: List[Connection] = []
    try:
        for w, cells in enumerate(assignment):
            groups.append(
                _PipedGroup(w, scenario, cells, fingerprint, parent_ends)
                if piped
                else _CellGroup(scenario, cells, fingerprint, sanitizer)
            )
        inbound: List[Inbound] = [{} for _ in groups]
        peak = 0
        finished = False
        epoch = 0
        while not finished and epoch < scenario.max_epochs:
            boundary = (epoch + 1) * scenario.epoch_ps
            if sanitizer is not None:
                sanitizer.on_epoch(epoch, boundary)
            for group, batch in zip(groups, inbound):
                group.start_epoch(epoch, boundary, batch)
            outbound: Dict[Tuple[int, int], List[Entry]] = {}
            all_idle = True
            open_now = 0
            for group in groups:
                sent, idle, opened = group.barrier()
                outbound.update(sent)
                all_idle = all_idle and idle
                open_now += opened
            peak = max(peak, open_now)
            epoch += 1
            # One batch per destination cell, sources in sorted cell
            # order: the same list (and pickle) for every worker layout.
            inbound = [{} for _ in groups]
            exchanged = 0
            for (_src, dst), entries in sorted(outbound.items()):
                inbound[owner[dst]].setdefault(dst, []).extend(entries)
                exchanged += len(entries)
            finished = exchanged == 0 and all_idle
            if progress is not None and not finished and epoch % 200 == 0:
                progress.write(
                    f"shard: epoch {epoch}, {open_now} conns open\n"
                )
                progress.flush()
        reports: List[CellReport] = []
        rss_kb = 0
        for group in groups:
            group_reports, group_rss_kb = group.finish()
            reports.extend(group_reports)
            rss_kb = max(rss_kb, group_rss_kb)
    finally:
        for group in groups:
            group.close()
    reports.sort(key=lambda report: report.cell)
    if sanitizer is not None:
        sanitizer.on_merge([r.cell for r in reports], scenario.num_cells)
    parts = [report.fingerprint for report in reports]
    return ShardResult(
        scenario=scenario.name,
        kind="fabric",
        seed=scenario.seed,
        num_cells=scenario.num_cells,
        workers=workers,
        epochs=epoch,
        epoch_ps=scenario.epoch_ps,
        finished=finished,
        peak_concurrent=peak,
        fingerprint=(
            merge_fingerprints(parts)
            if all(p is not None for p in parts) else None
        ),
        cells=reports,
        elapsed_s=time.monotonic() - started,  # f4t: noqa[F4T002]
        max_worker_rss_kb=rss_kb,
    )


# ------------------------------------------------------------ traffic kind
def _traffic_cell_job(
    args: Tuple[int, Any, float],
) -> Tuple[int, str, Dict[str, int]]:
    """Run one class-split traffic cell on the unmodified kernel
    testbed + load engine; returns (cell, fingerprint, counters)."""
    from ..obs.hooks import attach_load_engine
    from ..traffic.engine import LoadEngine

    cell, part, load_scale = args
    engine = LoadEngine(part, load_scale=load_scale)
    bus = TraceBus()
    attach_load_engine(engine, bus)
    result = engine.run()
    counters = {
        "events": len(bus.events),
        "requests_offered": result.offered,
        "requests_completed": result.completed,
        "finished": int(result.finished),
    }
    return cell, trace_fingerprint(bus.events), counters


def run_traffic_shard(
    scenario: "Scenario",
    cells: Optional[int] = None,
    workers: int = 1,
    load_scale: float = 1.0,
) -> ShardResult:
    """Shard an existing :class:`~repro.traffic.scenario.Scenario` by
    traffic class and run each cell on its own kernel testbed.

    Splitting keeps the parent name and seed, so every class's derived
    RNG streams are bit-identical to the unsplit run — a single-cell
    split reproduces the pinned golden fingerprints exactly.
    """
    started = time.monotonic()  # f4t: noqa[F4T002] harness wall clock
    parts = scenario.split(cells)
    jobs = [(cell, part, load_scale) for cell, part in enumerate(parts)]
    workers = max(1, min(workers, len(jobs)))
    if _can_fork(workers):
        # An executor, not a Pool: a dead worker breaks it at once
        # instead of leaving its result awaited forever.
        with ProcessPoolExecutor(workers, mp_context=mp_context()) as pool:
            futures = [pool.submit(_traffic_cell_job, job) for job in jobs]
            try:
                rows = [future.result() for future in futures]
            except BrokenProcessPool as exc:
                lost = [job[0] for job, f in zip(jobs, futures) if f.exception()]
                raise ShardWorkerError(
                    f"a traffic shard worker died; cells {lost} did not finish"
                ) from exc
    else:
        workers = 1
        rows = [_traffic_cell_job(job) for job in jobs]
    rows.sort(key=lambda row: row[0])
    reports = [
        CellReport(cell=cell, fingerprint=fp, counters=counters)
        for cell, fp, counters in rows
    ]
    return ShardResult(
        scenario=scenario.name,
        kind="traffic",
        seed=scenario.seed,
        num_cells=len(parts),
        workers=workers,
        epochs=0,
        epoch_ps=0,
        finished=all(bool(r.get("finished")) for r in reports),
        peak_concurrent=0,
        fingerprint=merge_fingerprints(
            [report.fingerprint for report in reports]
        ),
        cells=reports,
        elapsed_s=time.monotonic() - started,  # f4t: noqa[F4T002]
        max_worker_rss_kb=_rss_kb(),
    )
