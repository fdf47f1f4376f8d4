"""Nginx web-server workload (§5.2, Figs 1, 10, 11, 12).

Two faces:

* :class:`NginxPerformanceModel` — per-request CPU budgets for Linux and
  F4T, reproducing the Fig 1a/Fig 11 cycle breakdowns and the Fig 10
  2.6–2.8x request-rate gap;
* :func:`simulate_closed_loop` — a closed-loop discrete-event latency
  simulation (wrk-style: ``flows`` concurrent clients, each issuing the
  next request when the previous response lands) behind Fig 12's median
  and p99 numbers.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import List, Tuple

from ..host.calibration import (
    HOST_CPU_FREQ_HZ,
    NGINX_F4T_KERNEL_FRACTION,
    NGINX_F4T_LIB_FRACTION,
    NGINX_LINUX_APP_FRACTION,
    NGINX_LINUX_CYCLES_PER_REQ,
    NGINX_LINUX_KERNEL_FRACTION,
    NGINX_LINUX_TCP_FRACTION,
)
from ..host.cpu import CpuModel, CycleAccount
from ..sim.stats import Histogram

#: The evaluation's response: 256 B including HTTP header and HTML
#: payload (128 B responses don't fit Nginx's header, §5.2).
RESPONSE_BYTES = 256
HTTP_RESPONSE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Server: repro-nginx\r\n"
    b"Content-Type: text/html\r\n"
    b"Content-Length: 170\r\n"
    b"\r\n" + b"<html><body>" + b"x" * (170 - 26) + b"</body></html>"
)
assert len(HTTP_RESPONSE) == RESPONSE_BYTES, len(HTTP_RESPONSE)


def http_get() -> bytes:
    return b"GET /index.html HTTP/1.1\r\nHost: repro\r\n\r\n"


# --------------------------------------------------------------- modelling
class NginxPerformanceModel:
    """Per-request cycle budgets for the two stacks."""

    cores = 1

    # ------------------------------------------------------------- budgets
    @property
    def linux_cycles_per_request(self) -> float:
        return NGINX_LINUX_CYCLES_PER_REQ

    @property
    def f4t_cycles_per_request(self) -> float:
        """F4T keeps the app + filesystem work; TCP cycles vanish (§5.2).

        The application share grows from 25% to 70% of a smaller total —
        the 2.8x more CPU cycles for the application of Fig 11.
        """
        app_cycles = NGINX_LINUX_APP_FRACTION * NGINX_LINUX_CYCLES_PER_REQ
        app_fraction_f4t = 1.0 - NGINX_F4T_KERNEL_FRACTION - NGINX_F4T_LIB_FRACTION
        return app_cycles / app_fraction_f4t

    def request_rate(self, stack: str) -> float:
        cpu = CpuModel(cores=self.cores)
        if stack == "linux":
            return cpu.rate_for(self.linux_cycles_per_request)
        if stack == "f4t":
            return cpu.rate_for(self.f4t_cycles_per_request)
        raise ValueError(f"unknown stack {stack!r}")

    def speedup(self) -> float:
        """Fig 10's headline: 2.8x at the saturation point."""
        return self.linux_cycles_per_request / self.f4t_cycles_per_request

    def cpu_savings_fraction(self) -> float:
        """§5.2: CPU cycles saved at equal throughput (64%)."""
        return 1.0 - self.f4t_cycles_per_request / self.linux_cycles_per_request

    # ----------------------------------------------------------- breakdowns
    def cycle_breakdown(self, stack: str) -> CycleAccount:
        """Fig 1a (Linux) and Fig 11 (both stacks)."""
        account = CycleAccount()
        if stack == "linux":
            total = self.linux_cycles_per_request
            account.charge("application", NGINX_LINUX_APP_FRACTION * total)
            account.charge("tcp_stack", NGINX_LINUX_TCP_FRACTION * total)
            account.charge("kernel_other", NGINX_LINUX_KERNEL_FRACTION * total)
        elif stack == "f4t":
            total = self.f4t_cycles_per_request
            app = 1.0 - NGINX_F4T_KERNEL_FRACTION - NGINX_F4T_LIB_FRACTION
            account.charge("application", app * total)
            account.charge("kernel_other", NGINX_F4T_KERNEL_FRACTION * total)
            account.charge("f4t_library", NGINX_F4T_LIB_FRACTION * total)
            account.charge("tcp_stack", 0.0)
        else:
            raise ValueError(f"unknown stack {stack!r}")
        return account


# --------------------------------------------------------- closed-loop DES
#: Linux's rare stall magnitude/probability: scheduler preemptions,
#: softirq batching and page-cache misses produce occasional requests an
#: order of magnitude slower — the source of Fig 12's heavy p99 tail.
_LINUX_STALL_PROB = 0.02
_LINUX_STALL_FACTOR = 25.0
_LINUX_SIGMA = 0.5
_F4T_SIGMA = 0.15


def linux_service_sampler(rng: random.Random) -> float:
    """Linux per-request service time: kernel path + rare large stalls.

    The distribution is mean-normalized so the throughput calibration
    (NGINX_LINUX_CYCLES_PER_REQ) is preserved while the tail carries the
    stalls behind Fig 12's 26x-worse p99.
    """
    base = NGINX_LINUX_CYCLES_PER_REQ / HOST_CPU_FREQ_HZ
    scale = 1.0 / (1.0 + _LINUX_STALL_PROB * (_LINUX_STALL_FACTOR - 1.0))
    if rng.random() < _LINUX_STALL_PROB:
        return base * _LINUX_STALL_FACTOR * scale
    normalizer = math.exp(_LINUX_SIGMA * _LINUX_SIGMA / 2)
    return base * scale * rng.lognormvariate(0.0, _LINUX_SIGMA) / normalizer


def f4t_service_sampler(rng: random.Random) -> float:
    """F4T per-request service time: thin library, tight distribution."""
    base = NginxPerformanceModel().f4t_cycles_per_request / HOST_CPU_FREQ_HZ
    normalizer = math.exp(_F4T_SIGMA * _F4T_SIGMA / 2)
    return base * rng.lognormvariate(0.0, _F4T_SIGMA) / normalizer


def network_latency_s(stack: str) -> float:
    """One-way request/response transport latency outside the server.

    Linux pays interrupt delivery, softirq scheduling and wake-ups on
    both directions; F4T's hardware path is a couple of PCIe/wire hops.
    """
    return 28e-6 if stack == "linux" else 7e-6


def simulate_closed_loop(
    stack: str,
    flows: int = 64,
    cores: int = 1,
    requests: int = 40_000,
    think_s: float = 1.2e-3,
    seed: int = 42,
) -> Tuple[float, Histogram]:
    """wrk-style closed loop: each flow re-requests after its response.

    ``think_s`` models the load generator's per-connection pacing: the
    Fig 12 latency experiment runs at moderate utilization (default),
    while the Fig 10 rate sweep uses a small think time to push every
    configuration to saturation.  Single ready queue, ``cores`` workers
    (Nginx worker processes behind SO_REUSEPORT, §4.6).

    Returns (requests/s, latency histogram in seconds).
    """
    sampler = linux_service_sampler if stack == "linux" else f4t_service_sampler
    net = network_latency_s(stack)
    rng = random.Random(seed)
    latencies = Histogram(f"{stack}-latency")

    # Event heap: (time, seq, kind, issue_time).
    events: List[Tuple[float, int, str, float]] = []
    seq = 0
    for _ in range(flows):
        start = rng.random() * max(think_s, 1e-9)  # desynchronized start
        heapq.heappush(events, (start + net, seq, "arrival", start))
        seq += 1
    free_cores = cores
    queue: List[Tuple[float, float]] = []  # (arrival_time, issue_time)
    completed = 0
    now = 0.0

    while completed < requests and events:
        now, _, kind, issued = heapq.heappop(events)
        if kind == "arrival":
            if free_cores > 0:
                free_cores -= 1
                heapq.heappush(
                    events, (now + sampler(rng), seq, "service_done", issued)
                )
                seq += 1
            else:
                queue.append((now, issued))
        else:  # service_done
            latencies.record(now - issued + net)  # + response transport
            completed += 1
            if queue:
                _, next_issued = queue.pop(0)
                heapq.heappush(
                    events, (now + sampler(rng), seq, "service_done", next_issued)
                )
                seq += 1
            else:
                free_cores += 1
            # The closed loop: this flow thinks, then issues again.
            next_issue = now + net + think_s
            heapq.heappush(events, (next_issue + net, seq, "arrival", next_issue))
            seq += 1

    rate = completed / now if now > 0 else 0.0
    return rate, latencies
