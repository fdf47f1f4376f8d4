#!/usr/bin/env python3
"""The paper's motivating workload: an Nginx-style web server on F4T (§5.2).

Serves the evaluation's 256 B responses (HTTP header + HTML payload) to
a wrk-style closed-loop load generator over real engine connections, and
contrasts the functional run with the calibrated Linux-vs-F4T models
behind Figures 10–12.

Run:  python examples/web_server.py
"""

from repro.apps.nginx import NginxPerformanceModel, simulate_closed_loop
from repro.apps.wrk import run_functional_wrk


def functional_demo() -> None:
    print("== Functional run: real HTTP over two FtEngines ==")
    result = run_functional_wrk(connections=6, requests_per_connection=10)
    print(f"requests served : {result.requests_completed}")
    print(f"simulated time  : {result.elapsed_s * 1e6:.1f} us")
    print(f"request rate    : {result.requests_per_s / 1e3:.0f} K requests/s")
    print(f"median latency  : {result.latencies.median * 1e6:.2f} us")
    print(f"p99 latency     : {result.latencies.p99 * 1e6:.2f} us")
    print()


def model_comparison() -> None:
    print("== Calibrated comparison: Linux vs F4T (Figs 10-12) ==")
    model = NginxPerformanceModel()
    print(f"per-request budget : Linux {model.linux_cycles_per_request:.0f} cycles, "
          f"F4T {model.f4t_cycles_per_request:.0f} cycles")
    print(f"request-rate gain  : {model.speedup():.2f}x   (paper: 2.6-2.8x)")
    print(f"CPU cycles saved   : {model.cpu_savings_fraction() * 100:.0f}%   (paper: 64%)")
    print()

    print("closed-loop latency at 64 flows on one core (Fig 12):")
    for stack in ("linux", "f4t"):
        rate, latencies = simulate_closed_loop(stack, flows=64, cores=1, requests=20_000)
        print(f"  {stack:5s}: median {latencies.median * 1e6:7.1f} us, "
              f"p99 {latencies.p99 * 1e6:7.1f} us, {rate / 1e3:.0f} Krps")
    print()

    print("where each stack's cycles go (Fig 11):")
    for stack in ("linux", "f4t"):
        fractions = model.cycle_breakdown(stack).fractions()
        parts = ", ".join(f"{k} {v * 100:.0f}%" for k, v in sorted(fractions.items()) if v)
        print(f"  {stack:5s}: {parts}")


if __name__ == "__main__":
    functional_demo()
    model_comparison()
