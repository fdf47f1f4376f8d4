"""The worker pool: claim pending runs, execute, retry, resume.

:func:`run_grid` is the one entry point.  It syncs the grid(s) into the
store (content-hash run ids make this idempotent: points already
``done`` are cache hits and never re-execute), reclaims rows left
``running`` by a previously killed pool, then executes every claimable
row through one work loop (:func:`_work_loop`): ``workers > 1`` runs it
on a ``multiprocessing`` pool where each worker owns its own SQLite
connection and pulls open runs PyExperimenter-style until none remain,
and the orchestrator always runs it once itself — the whole grid for
``workers <= 1``, otherwise whatever a dead pool worker left behind.

Per-run limits:

* **timeout** — enforced with ``SIGALRM`` in the executing process, so a
  wedged driver cannot stall the sweep;
* **retries** — any transient failure (including a timeout) sends the
  row back to ``pending`` with a capped exponential ``not_before``
  backoff; import/signature errors are permanent and go straight to
  ``error``;
* **progress** — the orchestrator streams a ``done/total`` line with an
  ETA extrapolated from the mean wall time of finished runs.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Union

from .. import mp_context
from .grid import ExperimentGrid, normalize_result, provenance, resolve_driver
from .store import RunRecord, RunStore

#: Exceptions that retrying cannot fix: the driver itself is broken.
_PERMANENT = (ImportError, AttributeError, TypeError, SyntaxError)


class RunTimeout(Exception):
    """A driver exceeded the per-run timeout."""


@dataclass
class RunOptions:
    """Per-run execution limits shared by every worker."""

    timeout_s: Optional[float] = 300.0
    max_retries: int = 2
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    poll_s: float = 0.1

    def backoff(self, attempts: int) -> float:
        return min(self.backoff_cap_s, self.backoff_base_s * 2 ** max(0, attempts - 1))


@dataclass
class GridRunReport:
    """What a :func:`run_grid` call did, for the CLI and the tests."""

    experiments: List[str]
    total: int
    cached: int  # already done before this invocation
    executed: int = 0  # brought to done by this invocation
    done: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    totals: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every row is ``done``: none failed, pending or left running."""
        return self.done == self.total


# ------------------------------------------------------------ one run
@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`RunTimeout` after ``seconds`` (main thread only)."""
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(_signum: int, _frame: Any) -> None:
        raise RunTimeout(f"run exceeded the {seconds:.1f}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_claimed(store: RunStore, record: RunRecord, options: RunOptions) -> None:
    """Run one claimed row to ``done``/``pending``(retry)/``error``."""
    start = time.monotonic()
    try:
        driver = resolve_driver(record.driver)
        with _deadline(options.timeout_s):
            result = normalize_result(driver(**record.point().kwargs()))
    except BaseException as exc:
        if not isinstance(exc, Exception):  # KeyboardInterrupt, SystemExit
            store.fail(record.run_id, f"interrupted: {exc!r}")
            raise
        wall = time.monotonic() - start
        message = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        transient = not isinstance(exc, _PERMANENT)
        if transient and record.attempts <= options.max_retries:
            store.fail(
                record.run_id,
                message,
                retry_not_before=time.time() + options.backoff(record.attempts),
                wall_time_s=wall,
            )
        else:
            store.fail(record.run_id, message, wall_time_s=wall)
        return
    store.finish(
        record.run_id,
        result,
        wall_time_s=time.monotonic() - start,
        provenance=provenance(record.seed),
    )


def _work_loop(
    store: RunStore,
    experiments: Sequence[str],
    options: RunOptions,
    worker: str,
    on_row: Optional[Callable[[], None]] = None,
) -> None:
    """Claim-and-execute until the selected experiments have no pending
    rows left (backoff-gated retries included — the loop waits them out).
    ``on_row`` is called after each executed row.
    """
    while True:
        record = store.claim(worker, experiments)
        if record is not None:
            _execute_claimed(store, record, options)
            if on_row is not None:
                on_row()
            continue
        if store.totals(experiments)["pending"] == 0:
            return
        time.sleep(options.poll_s)


def _worker_main(
    store_path: str,
    experiments: Sequence[str],
    options: RunOptions,
    sys_path: Sequence[str],
) -> None:
    """Entry point of a pool worker process."""
    for entry in sys_path:  # spawn-safety: mirror the parent's import path
        if entry not in sys.path:
            sys.path.insert(0, entry)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the orchestrator decides
    with RunStore(store_path) as store:
        _work_loop(store, experiments, options, worker=f"worker-{os.getpid()}")


# ------------------------------------------------------------ progress
def _progress_line(
    totals: Dict[str, int], total: int, started: float, mean_wall: Optional[float], workers: int
) -> str:
    done = totals["done"]
    remaining = totals["pending"] + totals["running"]
    if mean_wall and remaining:
        eta = f"{mean_wall * remaining / max(1, workers):.0f}s"
    else:
        eta = "?" if remaining else "0s"
    return (
        f"lab: {done}/{total} done, {totals['running']} running, "
        f"{totals['error']} failed, ETA {eta} "
        f"({time.monotonic() - started:.0f}s elapsed)"
    )


class _ProgressPrinter:
    """Stream one status line; ``\\r``-rewritten on a TTY, periodic lines
    otherwise (so CI logs stay readable)."""

    def __init__(self, stream: Optional[TextIO]):
        self.stream = stream
        self.is_tty = bool(stream and stream.isatty())
        self.last_text = ""
        self.last_emit = 0.0

    def update(self, text: str, force: bool = False) -> None:
        if self.stream is None or (text == self.last_text and not force):
            return
        now = time.monotonic()
        if self.is_tty:
            self.stream.write("\r" + text.ljust(len(self.last_text)))
        else:
            if not force and now - self.last_emit < 2.0:
                return
            self.stream.write(text + "\n")
        self.stream.flush()
        self.last_text = text
        self.last_emit = now

    def finish(self, text: str) -> None:
        if self.stream is None:
            return
        if self.is_tty:
            self.stream.write("\r" + text.ljust(len(self.last_text)) + "\n")
        else:
            self.stream.write(text + "\n")
        self.stream.flush()


# ------------------------------------------------------------ run_grid
def run_grid(
    grids: Union[ExperimentGrid, Sequence[ExperimentGrid]],
    store_path: str,
    workers: int = 1,
    timeout_s: Optional[float] = 300.0,
    max_retries: int = 2,
    backoff_base_s: float = 0.5,
    backoff_cap_s: float = 30.0,
    progress: Optional[TextIO] = None,
) -> GridRunReport:
    """Sync ``grids`` into the store at ``store_path`` and run them.

    Safe to call again after a crash or ^C: rows stuck ``running`` are
    reclaimed, rows already ``done`` are skipped, and only the remaining
    points execute.  Pass ``progress=sys.stderr`` for the live line.
    """
    grid_list = [grids] if isinstance(grids, ExperimentGrid) else list(grids)
    experiments = [grid.name for grid in grid_list]
    options = RunOptions(
        timeout_s=timeout_s,
        max_retries=max_retries,
        backoff_base_s=backoff_base_s,
        backoff_cap_s=backoff_cap_s,
    )
    started = time.monotonic()
    printer = _ProgressPrinter(progress)

    with RunStore(store_path) as store:
        for grid in grid_list:
            store.sync_grid(grid)
        store.reset_running(experiments)
        before = store.totals(experiments)
        total = sum(before.values())
        report = GridRunReport(
            experiments=experiments, total=total, cached=before["done"]
        )

        def show_progress() -> None:
            printer.update(
                _progress_line(
                    store.totals(experiments), total, started,
                    store.mean_wall_time(experiments), workers,
                )
            )

        if workers > 1:
            context = mp_context()
            pool = [
                context.Process(
                    target=_worker_main,
                    args=(store.path, experiments, options, list(sys.path)),
                    name=f"lab-worker-{index}",
                    daemon=True,
                )
                for index in range(workers)
            ]
            for process in pool:
                process.start()
            try:
                while any(process.is_alive() for process in pool):
                    show_progress()
                    time.sleep(0.2)
                for process in pool:
                    process.join()
            except KeyboardInterrupt:
                for process in pool:
                    process.terminate()
                for process in pool:
                    process.join()
                printer.finish(
                    f"lab: interrupted; rerun to resume "
                    f"({store.totals(experiments)['done']}/{total} done)"
                )
                raise
            # A worker that died (OOM, SIGKILL) left its row ``running``
            # and maybe rows unclaimed; the loop below finishes both.
            store.reset_running(experiments)
        _work_loop(store, experiments, options, "worker-serial", show_progress)

        after = store.totals(experiments)
        report.totals = after
        report.done = after["done"]
        report.errors = after["error"]
        report.executed = report.done - report.cached
        report.elapsed_s = time.monotonic() - started
        printer.finish(
            f"lab: {report.done}/{total} done ({report.cached} cached), "
            f"{report.errors} failed, {report.elapsed_s:.1f}s wall"
        )
        return report
