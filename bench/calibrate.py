"""Machine-speed calibration for the host-time metrics.

The sandbox this benchmark runs in is a shared microVM, and its speed
moves in two ways (both measured while the benchmark was defined):

* *Steal.*  For minutes at a time the hypervisor takes 30-50 % of the
  vCPU away; the same run then takes 2-4x the wall time.  The guest
  kernel keeps stolen time out of process CPU time (a busy loop made
  1.48-2.81 M iterations per wall second but 2.87-3.14 M per CPU
  second), so every host time here is **CPU time of the main thread**
  (``time.thread_time``), not wall.  Not ``time.process_time``: while a
  process-wide CPU interval timer is armed the kernel serves the process
  clock from a cache it refreshes once per 4 ms tick.
* *Plateaus.*  With no steal reported, the same pure-Python work still
  takes 25-35 % more CPU time for tens of seconds at a time (ten
  back-to-back 10 s runs of one workload had medians 28 % apart).  No
  estimator inside one run removes that, so CPU time is reported *at
  reference speed*: a frozen calibration kernel runs in short slices
  while the workload runs (a CPU-time interval timer fires its handler
  between two bytecodes of the workload), and the workload's net CPU
  time is scaled by how fast the slices ran.

The kernel is a few hundred generated functions called in a shuffled
order over a few thousand small objects.  That shape was chosen by
measurement: a tight arithmetic loop and a pointer-chasing loop tracked
the simulator's slow-downs poorly (6-7 % residual spread), a kernel with
a large code footprint and interpreter-heavy bodies tracked them to
~3 %.  It imports nothing from ``repro``, so no change to the simulator
can move it.  It must never change: it is the unit the host-time
metrics are expressed in.
"""

from __future__ import annotations

import random
import signal
from collections import deque
from time import perf_counter, thread_time
from typing import Callable, List, Optional, Tuple

#: CPU seconds one slice takes on the box the benchmark was defined on,
#: in its usual regime.  A scaled time reads "as if the slices had taken
#: exactly this long".
REFERENCE_SLICE_S = 0.0160

#: CPU seconds of the process between two in-run slices (~10 % of the run).
INTERVAL_S = 0.15

_FUNCTIONS = 600
_OBJECTS = 2000
_CALLS_PER_SLICE = 11000


class _Obj:
    __slots__ = ("a", "b", "c", "d", "q")

    def __init__(self, i: int) -> None:
        self.a = i
        self.b = float(i)
        self.c = [i, i + 1, i + 2]
        self.d = {i & 15: i}
        self.q: deque = deque()


def _build_kernel() -> Callable[[], int]:
    rng = random.Random(7)
    namespace: dict = {}
    for k in range(_FUNCTIONS):
        body: List[str] = []
        for j in range(rng.randint(6, 14)):
            choice = rng.randint(0, 7)
            if choice == 0:
                body.append(f"    o.a = (o.a * {rng.randint(3, 99)} + {k}) & 0xFFFF")
            elif choice == 1:
                body.append(f"    o.b = o.b * 0.5 + {rng.random():.3f}")
            elif choice == 2:
                body.append(f"    o.c[{rng.randint(0, 2)}] = o.a + {j}")
            elif choice == 3:
                body.append(f"    o.d[{rng.randint(0, 15)}] = o.a")
            elif choice == 4:
                body.append(
                    f"    if o.a & {1 << rng.randint(0, 6)}: x += {j}\n"
                    "    else: x -= 1"
                )
            elif choice == 5:
                body.append(
                    "    o.q.append(x)\n    if len(o.q) > 8: o.q.popleft()"
                )
            elif choice == 6:
                body.append(f"    x = max(x, o.c[{rng.randint(0, 2)}]) + len(o.d)")
            else:
                body.append(f"    x += o.d.get({rng.randint(0, 15)}, {j})")
        source = f"def f{k}(o, x):\n" + "\n".join(body) + "\n    return x\n"
        # One compile per function: compiling all 600 as one module
        # costs a 30 MiB transient that would sit in peak_rss_mib.
        exec(compile(source, "<bench-calibration-kernel>", "exec"), namespace)
    functions = [namespace[f"f{k}"] for k in range(_FUNCTIONS)]
    objects = [_Obj(i) for i in range(_OBJECTS)]
    order: List[Tuple[Callable, _Obj]] = [
        (functions[rng.randrange(_FUNCTIONS)], objects[rng.randrange(_OBJECTS)])
        for _ in range(_CALLS_PER_SLICE)
    ]

    def kernel() -> int:
        x = 0
        for function, obj in order:
            x = function(obj, x) & 0xFFFF
        return x

    return kernel


class Calibrator:
    """Runs kernel slices — on demand and from an interval timer — and
    turns the slices seen during a window into a speed factor."""

    def __init__(self) -> None:
        self._kernel = _build_kernel()
        #: CPU seconds of every slice run so far.
        self.slices: List[float] = []
        #: Total CPU time spent inside the timer handler (to subtract
        #: from whatever the handler interrupted).
        self.handler_cpu_s = 0.0
        #: Called with each handler invocation's *wall* duration; the
        #: span tracer (a wall clock) hooks in here so that handler time
        #: is no span's self time.
        self.on_handler: Optional[Callable[[float], None]] = None
        self._in_handler = False
        self._previous_handler = None

    def slice(self) -> float:
        started = thread_time()
        self._kernel()
        elapsed = thread_time() - started
        self.slices.append(elapsed)
        return elapsed

    def _on_alarm(self, _signum, _frame) -> None:
        if self._in_handler:
            return
        self._in_handler = True
        wall_started = perf_counter()
        cpu_started = thread_time()
        try:
            self.slice()
        finally:
            self.handler_cpu_s += thread_time() - cpu_started
            if self.on_handler is not None:
                self.on_handler(perf_counter() - wall_started)
            self._in_handler = False

    def start(self) -> None:
        """Slices from now on every INTERVAL_S of this process's CPU time."""
        self._previous_handler = signal.signal(signal.SIGVTALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGVTALRM, self._previous_handler)
            self._previous_handler = None

    def mark(self) -> Tuple[int, float]:
        """A window start: (slices so far, handler CPU time so far)."""
        return len(self.slices), self.handler_cpu_s

    def factor(self, mark: Tuple[int, float]) -> float:
        """Reference time per measured CPU second over the slices since
        ``mark``: the mean of reference/slice, because slices sample at
        even CPU-time intervals and work done is time over slowness."""
        window = self.slices[mark[0]:]
        if not window:
            raise ValueError("no calibration slice in the window")
        return sum(REFERENCE_SLICE_S / s for s in window) / len(window)

    def handler_cpu_since(self, mark: Tuple[int, float]) -> float:
        return self.handler_cpu_s - mark[1]
