#!/usr/bin/env python3
"""Observability tour: pcap capture, engine telemetry, invariant audits.

Three tools a downstream user gets for debugging protocol behaviour in
the reproduction:

1. **WireTap** — record the simulated wire to a real ``.pcap`` file
   (open it in Wireshark) and print a tcpdump-style summary;
2. **TraceBus** — a logic-analyzer view of FtEngine's control path:
   events, FPU passes, transmissions, state transitions;
3. **InvariantMonitor** — hardware-assertion-style audits of the
   engine's architectural invariants while traffic runs.

Run:  python examples/debugging_tools.py
"""

import tempfile

from repro.engine import Testbed
from repro.engine.verification import InvariantMonitor, audited_run
from repro.net.pcap import WireTap
from repro.net.wire import LossPattern, Wire
from repro.obs.export import render_flow_timeline, to_chrome_trace
from repro.obs.hooks import attach_engine
from repro.obs.trace import TraceBus


def main() -> None:
    # A lossy wire makes the trace interesting: watch the fast
    # retransmit appear in all three tools.
    wire = Wire(drop_a_to_b=LossPattern.explicit([12]))
    testbed = Testbed(wire=wire)

    tap = WireTap.attach(testbed.wire.port_a)
    bus = TraceBus(layers=["engine"])
    attach_engine(testbed.engine_a, bus)
    monitor = InvariantMonitor(testbed.engine_a)

    a_flow, b_flow = testbed.establish()
    payload = bytes(range(256)) * 100  # 25.6 KB
    testbed.engine_a.send_data(a_flow, payload)

    def done() -> bool:
        return testbed.engine_b.readable(b_flow) >= len(payload)

    audited_run(testbed, done, max_time_s=5.0, monitors=[monitor])
    received = testbed.engine_b.recv_data(b_flow, len(payload))
    assert received == payload, "data corrupted?!"

    # ---- 1. pcap ---------------------------------------------------------
    print("== WireTap: first 12 packets on the a->b wire ==")
    print("\n".join(tap.summary().splitlines()[:12]))
    with tempfile.NamedTemporaryFile(suffix=".pcap", delete=False) as handle:
        count = tap.save(handle.name)
        print(f"\nsaved {count} packets to {handle.name} (open in Wireshark)")

    # ---- 2. telemetry ----------------------------------------------------
    print("\n== TraceBus: retransmission, as the engine saw it ==")
    lines = render_flow_timeline(to_chrome_trace(bus.events), a_flow).splitlines()
    interesting = [
        line for line in lines if "RTX" in line or "dupack" in line
    ]
    print("\n".join(interesting) if interesting else "(loss repaired before 3 dupACKs)")
    print(f"\ntrace totals: {bus.count('event')} events, "
          f"{bus.count('fpu')} FPU passes, {bus.count('tx')} transmissions")
    transitions = [
        str(event.detail)
        for event in bus.events_for_flow(a_flow)
        if event.kind == "state"
    ]
    print("state transitions:", " ; ".join(transitions))

    # ---- 3. invariants ---------------------------------------------------
    print("\n== InvariantMonitor ==")
    print(f"{monitor.checks_run} audits across the run, "
          f"{len(monitor.violations)} violations")
    monitor.assert_clean()
    print("all architectural invariants held (pointer order, monotonicity,")
    print("location-LUT consistency, CAM accounting, window sanity)")


if __name__ == "__main__":
    main()
