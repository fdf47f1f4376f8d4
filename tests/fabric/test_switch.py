"""The output-queued switch: determinism, the shared buffer, ECN.

Determinism here is the whole point of the integer-ps design: two runs
with the same seed must produce byte-identical obs trace streams, and
any change that alters behaviour (a smaller buffer) must *visibly*
move the fingerprint.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.fabric import get_fabric_scenario, run_fabric
from repro.fabric.scenarios import FabricScenario
from repro.fabric.softstack import FabricPacket
from repro.fabric.switch import SwitchFabric, _take_due, egress_host
from repro.net.link import LINK_100G
from repro.net.wire import LinkDirection
from repro.obs.trace import TraceBus, fingerprint
from repro.tcp.segment import FlowKey


def traced_run(scenario, backend: str = "flextoe"):
    bus = TraceBus(layers=["fabric"])
    result = run_fabric(scenario, backend=backend, trace=bus)
    return result, fingerprint(bus.events)


def incast(seed: int = 1234, **overrides) -> FabricScenario:
    return replace(get_fabric_scenario("incast", num_hosts=4, seed=seed), **overrides)


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        result_1, fp_1 = traced_run(incast())
        result_2, fp_2 = traced_run(incast())
        assert result_1.finished and result_2.finished
        assert fp_1 == fp_2

    def test_different_seed_different_fingerprint(self):
        """Rounds-mode incast is seed-invariant by construction (no
        sampling), so seed sensitivity is asserted on the open-loop
        flash crowd, whose Poisson arrivals are seeded."""
        _, fp_1 = traced_run(get_fabric_scenario("flash_crowd", num_hosts=4, seed=1))
        _, fp_2 = traced_run(get_fabric_scenario("flash_crowd", num_hosts=4, seed=2))
        assert fp_1 != fp_2

    def test_buffer_change_moves_fingerprint(self, monkeypatch):
        """Shrinking the buffer forces drops the default buffer avoids;
        behaviour — and therefore the trace — must visibly diverge."""
        _, fp_default = traced_run(incast())
        monkeypatch.setattr(SwitchFabric, "buffer_bytes", 64 * 1024)
        result_small, fp_small = traced_run(incast())
        assert fp_default != fp_small
        assert result_small.switch_drops > 0

    def test_f4t_backend_is_deterministic_too(self):
        _, fp_1 = traced_run(incast(), backend="f4t")
        _, fp_2 = traced_run(incast(), backend="f4t")
        assert fp_1 == fp_2


class TestSharedBuffer:
    def test_small_buffer_drops(self, monkeypatch):
        monkeypatch.setattr(SwitchFabric, "buffer_bytes", 64 * 1024)
        result = run_fabric(incast(), backend="flextoe")
        assert result.finished  # RTO recovery drains the scenario
        assert result.switch_drops > 0
        assert result.retransmits > 0

    def test_dynamic_threshold_caps_a_hot_port_near_half(self, monkeypatch):
        """A port may hold at most the free buffer, so one hot port
        alone stops near half of it (plus what the other ports hold)."""
        buffer = 256 * 1024
        monkeypatch.setattr(SwitchFabric, "buffer_bytes", buffer)
        result = run_fabric(incast(ecn_threshold_bytes=0), backend="flextoe")
        assert result.switch_drops > 0
        assert buffer // 4 < result.peak_buffer_bytes <= buffer // 2 + 4 * 1538

    def test_peak_buffer_tracked(self):
        result = run_fabric(incast(), backend="flextoe")
        assert 0 < result.peak_buffer_bytes <= SwitchFabric.buffer_bytes


class TestEcn:
    def test_marks_only_when_threshold_enabled(self):
        marked = run_fabric(incast(), backend="flextoe")
        unmarked = run_fabric(
            incast(ecn_threshold_bytes=0), backend="flextoe"
        )
        assert marked.ecn_marks > 0
        assert unmarked.ecn_marks == 0

    def test_ecn_reduces_buffer_pressure(self):
        marked = run_fabric(incast(), backend="flextoe")
        unmarked = run_fabric(
            incast(ecn_threshold_bytes=0), backend="flextoe"
        )
        assert marked.peak_buffer_bytes <= unmarked.peak_buffer_bytes


# ------------------------------------------------------- the order oracle
class _Logged(SwitchFabric):
    """Records what the switch decided, in the order it decided it."""

    #: Room for a handful of full packets: drops and marks do occur.
    buffer_bytes = 8 * 1500

    def __init__(self, num_hosts, ecn_threshold_bytes):
        super().__init__(num_hosts, ecn_threshold_bytes)
        self.log = []

    def _admit(self, packet, src, now_ps):
        dropped, marked = self.dropped, self.ecn_marked
        super()._admit(packet, src, now_ps)
        port = egress_host(packet, src, self.num_hosts)
        verdict = "drop" if self.dropped > dropped else "admit"
        self.log.append((verdict, now_ps, port, packet.offset))
        if self.ecn_marked > marked:
            self.log.append(("ecn-mark", now_ps, port, packet.offset))
        return verdict, port

    def _serve(self, out_port, start_ps):
        arrival = super()._serve(out_port, start_ps)
        packet = self._delivery[out_port][-1][1]
        self.log.append(("serve", start_ps, out_port, packet.offset))
        self.log.append(("deliver", arrival, out_port, packet.offset))
        return arrival


class _ScanPort:
    """A host's end of the scan switch: its own uplink, a retired
    :class:`~repro.net.wire.LinkDirection` per host."""

    def __init__(self, switch, index):
        self._switch, self._index = switch, index

    def send(self, packet, now_ps):
        self._switch.uplinks[self._index].transmit(packet, now_ps)

    def poll(self, now_ps):
        return _take_due(self._switch._delivery[self._index], now_ps)


class _ScanSwitch(_Logged):
    """The reference order: the brute-force scan the event heap replaced.

    For every single event it rescans all uplinks for the earliest
    arrival and all ports for the earliest possible egress start — the
    later of the serializer freeing and the port's oldest queued packet
    having been admitted, from its own admission log — and takes
    ingress before egress, lowest host index first.  Its hosts send
    through uplinks of their own, and it ignores the event heap (which
    ``_admit``/``_serve`` still feed).  ``step(now_ps)`` runs every
    event up to ``now_ps`` and names the hosts with a delivery due.
    """

    def __init__(self, num_hosts, ecn_threshold_bytes):
        super().__init__(num_hosts, ecn_threshold_bytes)
        self.uplinks = [LinkDirection() for _ in range(num_hosts)]
        self.waiting = [{} for _ in range(num_hosts)]  # port: tag -> admitted

    def port(self, index):
        return _ScanPort(self, index)

    def _admit(self, packet, src, now_ps):
        verdict, port = super()._admit(packet, src, now_ps)
        if verdict == "admit":
            self.waiting[port][packet.offset] = now_ps

    def _serve(self, out_port, start_ps):
        arrival = super()._serve(out_port, start_ps)
        del self.waiting[out_port][self.log[-1][3]]
        return arrival

    def _next_ingress(self):
        best = None
        for index, uplink in enumerate(self.uplinks):
            if not uplink._in_flight:
                continue
            t = uplink._in_flight[0][0]
            if best is None or t < best[0]:
                best = (t, index)
        return best

    def _next_egress(self):
        best = None
        for index, waiting in enumerate(self.waiting):
            if not waiting:
                continue
            start = max(self._egress_free_ps[index], min(waiting.values()))
            if best is None or start < best[0]:
                best = (start, index)
        return best

    def next_event_ps(self):
        times = [e[0] for e in (self._next_ingress(), self._next_egress()) if e]
        times += [queue[0][0] for queue in self._delivery if queue]
        return min(times) if times else None

    def step(self, now_ps):
        while True:
            ingress, egress = self._next_ingress(), self._next_egress()
            if ingress is not None and ingress[0] <= now_ps and (
                egress is None or ingress[0] <= egress[0]
            ):
                t, src = ingress
                for packet in self.uplinks[src].deliver_due(t):
                    self._admit(packet, src, t)
            elif egress is not None and egress[0] <= now_ps:
                self._serve(egress[1], egress[0])
            else:
                break
        return {
            host for host, queue in enumerate(self._delivery)
            if queue and queue[0][0] <= now_ps
        }


#: Send instants on a coarse grid and two payload sizes, so equal-time
#: arrivals from several hosts — and an egress start at the very instant
#: of another host's ingress — are the common case, not the corner.
_SENDS = st.lists(
    st.tuples(
        st.integers(0, 6).map(lambda k: k * 120_000),   # send instant, ps
        st.integers(0, 7), st.integers(0, 7),           # src, dst (mod hosts)
        st.sampled_from([0, 1460]),                     # payload bytes
    ),
    min_size=1, max_size=60,
)

#: Instants a host could act at besides a delivery — the pump's and
#: the timers' — on a grid fine enough to fall between switch events.
_LIMITS = st.lists(st.integers(0, 200).map(lambda k: k * 5_000), max_size=12)

#: Past every send and limit: the last run-ahead's bound.
_END = 1 << 40


def _send(switch, sends, now, num_hosts):
    for tag, (t, src, dst, payload) in enumerate(sends):
        if t != now:
            continue
        src, dst = src % num_hosts, dst % num_hosts
        key = FlowKey(switch.host_ip(src), 1, switch.host_ip(dst), 2)
        switch.port(src).send(
            FabricPacket("data", key, offset=tag, payload_bytes=payload), now
        )


def _poll(switch, due, now, polled):
    assert due == {
        host for host in range(switch.num_hosts)
        if switch._delivery[host] and switch._delivery[host][0][0] <= now
    }
    for host in sorted(due):
        polled += [
            (now, host, packet.offset, packet.ce)
            for packet in switch.port(host).poll(now)
        ]


def drive_heap(switch, sends, limits):
    """The event loop's contract: at each landing the due hosts poll
    and the senders send, then the switch runs ahead to the next
    delivery or host instant (send or limit), and the loop lands there.
    Returns the polled packets and the landings."""
    polled, landings = [], []
    host_instants = sorted({t for t, *_ in sends} | set(limits))
    t = 0
    while True:
        landings.append(t)
        _poll(switch, switch.due_hosts(t), t, polled)
        _send(switch, sends, t, switch.num_hosts)
        later = [x for x in host_instants if x > t]
        limit = later[0] if later else _END
        decided = len(switch.log)
        following = switch.advance(limit)
        stop = limit if following is None or limit < following else following
        # Never past its limit nor the first delivery: what is left is
        # later, what it decided is not.
        assert all(event[0] > stop for event in switch._events)
        assert all(
            entry[1] <= stop for entry in switch.log[decided:]
            if entry[0] != "deliver"
        )
        if following is None and not later:
            return polled, landings
        t = stop


def drive_scan(switch, sends, limits):
    """The scan stepped at every instant anything happens at: each
    switch event and delivery, each send and each limit."""
    polled = []
    instants = {t for t, *_ in sends} | set(limits)
    t = 0
    while True:
        _poll(switch, switch.step(t), t, polled)
        _send(switch, sends, t, switch.num_hosts)
        later = [x for x in instants if x > t]
        following = switch.next_event_ps()
        if later and (following is None or min(later) < following):
            following = min(later)
        if following is None:
            return polled
        t = following


def check_orders_match(num_hosts, threshold, sends, limits):
    heap = _Logged(num_hosts, threshold)
    scan = _ScanSwitch(num_hosts, threshold)
    polled, landings = drive_heap(heap, sends, limits)
    assert drive_scan(scan, sends, limits) == polled
    assert heap.log == scan.log
    assert not heap._events and not any(scan.waiting)
    for name in ("forwarded", "dropped", "drops_per_port", "ecn_marked",
                 "peak_buffer_bytes", "buffer_used"):
        assert getattr(heap, name) == getattr(scan, name), name
    return heap, landings


@settings(max_examples=150, deadline=None)
@given(
    num_hosts=st.integers(2, 8),
    ecn=st.booleans(),
    sends=_SENDS,
    limits=_LIMITS,
)
def test_heap_switch_matches_the_scan_order(num_hosts, ecn, sends, limits):
    """Run ahead to host-visible instants only, the heap switch decides
    what the scan decides stepping through every instant."""
    check_orders_match(num_hosts, 3000 if ecn else 0, sends, limits)


def test_a_send_between_two_switch_events_bounds_the_run_ahead():
    """Host 1 queues 20 full packets for host 2 at time 0: their
    ingress events, one uplink serialization apart, are pending from
    about 2.1 to 4.5 us, and the first delivery is at about 4.2 us.
    Host 0 sends host 2 one packet between the first two ingresses; it
    reaches the switch between host 1's 17th and 18th.  A run ahead
    past that send, to the first delivery, would admit host 1's 18th
    before host 0's packet existed; bounded by the send, the switch
    stops after the first ingress, the loop lands at the send, and
    host 0's packet is admitted in its place."""
    full = 1460
    ser = LINK_100G.serialization_time_ps(full + 78)
    prop = LINK_100G.propagation_delay_ps
    ingress = [(k + 1) * ser + prop for k in range(20)]
    send_at = ingress[0] + ser // 2
    own = send_at + LINK_100G.serialization_time_ps(78) + prop
    assert ingress[16] < own < ingress[17] < ingress[0] + ser + prop
    sends = [(0, 1, 2, full)] * 20 + [(send_at, 0, 2, 0)]
    heap, landings = check_orders_match(3, 0, sends, [])
    assert send_at in landings
    admitted = [entry[3] for entry in heap.log if entry[0] == "admit"]
    assert admitted == [*range(17), 20, 17, 18, 19]


def test_a_delivery_made_during_the_run_ahead_bounds_it():
    """Host 0's full packet to host 1 is served first, delivered at
    about 4.25 us; host 2's empty one to host 3, served 3 ns later, is
    delivered at about 4.13 us.  Both are served in the run ahead from
    the last send (2.04 us, hosts 4 and 6 to host 5, at the switch at
    about 4.16 us), which has no delivery to stop at when it starts: it
    stops at 4.13 us, the delivery its own second egress made, not at
    4.25 us, and lands there before admitting the two packets for host 5."""
    full = 1460
    ser = LINK_100G.serialization_time_ps(full + 78)
    tiny = LINK_100G.serialization_time_ps(78)
    prop = LINK_100G.propagation_delay_ps
    sends = [
        (0, 0, 1, full), (120_000, 2, 3, 0),
        (2_040_000, 4, 5, full), (2_040_000, 6, 5, full),
    ]
    first = ser + prop + ser + prop
    second = 120_000 + tiny + prop + tiny + prop
    late = 2_040_000 + ser + prop
    assert 2_040_000 < ser + prop and second < late < first
    heap, landings = check_orders_match(7, 0, sends, [])
    assert landings[:4] == [0, 120_000, 2_040_000, second]
