#!/usr/bin/env python3
"""Quickstart: two F4T-accelerated hosts talking TCP.

Builds the paper's end-to-end setup (§5) — two FtEngines connected by a
simulated 100 GbE wire — and runs a client/server exchange on the
engines' host calls: listen, connect, accept, send, receive, close.
Everything below those calls (handshake, congestion control,
reassembly, ACKs, FINs) happens inside the simulated hardware.

Run:  python examples/quickstart.py
"""

from repro.engine import Testbed
from repro.tcp.state_machine import TcpState


def main() -> None:
    # The testbed: engine A (10.0.0.1) <-- 100 Gbps wire --> engine B.
    testbed = Testbed()
    client, server = testbed.engine_a, testbed.engine_b

    def wait_for(condition):
        """A blocking host call: run the simulation until it holds."""
        if not testbed.run(until=condition, max_time_s=testbed.now_s + 2.0):
            raise TimeoutError("the simulated hosts stalled")

    def accept(port):
        flows = []

        def arrived():
            flow = server.accept(port)
            if flow is not None:
                flows.append(flow)
            return bool(flows)

        wait_for(arrived)
        return flows[0]

    def recv_exactly(engine, flow, nbytes):
        wait_for(lambda: engine.readable(flow) >= nbytes)
        return engine.recv_data(flow, nbytes)

    # --- Server side (host B) -------------------------------------------
    server.listen(80)

    # --- Client side (host A) -------------------------------------------
    a_flow = client.connect(server.ip, 80)
    wait_for(lambda: client.flow_state(a_flow) is TcpState.ESTABLISHED)
    print(f"[{testbed.now_s * 1e6:7.1f} us] client connected")

    b_flow = accept(80)
    print(f"[{testbed.now_s * 1e6:7.1f} us] server accepted")

    # --- Exchange data ---------------------------------------------------
    request = b"GET /hello HTTP/1.1\r\nHost: repro\r\n\r\n"
    client.send_data(a_flow, request)  # the whole request fits the buffer
    received = recv_exactly(server, b_flow, len(request))
    print(f"[{testbed.now_s * 1e6:7.1f} us] server got: {received[:20]!r}...")

    response = b"HTTP/1.1 200 OK\r\n\r\n" + b"F4T says hi! " * 100
    server.send_data(b_flow, response)
    answer = recv_exactly(client, a_flow, len(response))
    print(f"[{testbed.now_s * 1e6:7.1f} us] client got {len(answer)} bytes back")

    # --- Tear down -------------------------------------------------------
    client.close_flow(a_flow)
    server.close_flow(b_flow)
    wait_for(lambda: not client.flows and not server.flows)
    print(f"[{testbed.now_s * 1e6:7.1f} us] connections closed cleanly")

    # --- What the hardware did ------------------------------------------
    print()
    print("engine A:", dict(client.counters))
    print("engine B:", dict(server.counters))
    print(f"wire carried {testbed.wire.bytes_sent} bytes in "
          f"{testbed.now_s * 1e6:.1f} simulated microseconds")


if __name__ == "__main__":
    main()
