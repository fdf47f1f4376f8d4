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
from repro.fabric.switch import SwitchFabric
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
        port = self._host_of_ip(packet.key.dst_ip)
        verdict = "drop" if self.dropped > dropped else "admit"
        self.log.append((verdict, now_ps, port, packet.offset))
        if self.ecn_marked > marked:
            self.log.append(("ecn-mark", now_ps, port, packet.offset))
        return verdict, port

    def _serve(self, out_port, start_ps):
        super()._serve(out_port, start_ps)
        arrival, packet = self._delivery[out_port][-1]
        self.log.append(("serve", start_ps, out_port, packet.offset))
        self.log.append(("deliver", arrival, out_port, packet.offset))


class _ScanSwitch(_Logged):
    """The reference order: the brute-force scan the event heap replaced.

    For every single event it rescans all uplinks for the earliest
    arrival and all ports for the earliest possible egress start — the
    later of the serializer freeing and the port's oldest queued packet
    having been admitted, from its own admission log — and takes
    ingress before egress, lowest host index first.  It ignores the
    event heap (which ``send``/``_admit``/``_serve`` still feed).
    """

    def __init__(self, num_hosts, ecn_threshold_bytes):
        super().__init__(num_hosts, ecn_threshold_bytes)
        self.waiting = [{} for _ in range(num_hosts)]  # port: tag -> admitted

    def _admit(self, packet, src, now_ps):
        verdict, port = super()._admit(packet, src, now_ps)
        if verdict == "admit":
            self.waiting[port][packet.offset] = now_ps

    def _serve(self, out_port, start_ps):
        super()._serve(out_port, start_ps)
        del self.waiting[out_port][self.log[-1][3]]

    def _next_ingress(self):
        best = None
        for index, uplink in enumerate(self._uplinks):
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

    def advance(self, now_ps):
        while True:
            ingress, egress = self._next_ingress(), self._next_egress()
            if ingress is not None and ingress[0] <= now_ps and (
                egress is None or ingress[0] <= egress[0]
            ):
                t, src = ingress
                for packet in self._uplinks[src].deliver_due(t):
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


@settings(max_examples=150, deadline=None)
@given(
    num_hosts=st.integers(2, 8),
    ecn=st.booleans(),
    sends=_SENDS,
)
def test_heap_switch_matches_the_scan_order(num_hosts, ecn, sends):
    threshold = 3000 if ecn else 0
    switches = [_Logged(num_hosts, threshold), _ScanSwitch(num_hosts, threshold)]
    polled = [[], []]
    instants = sorted({t for t, *_ in sends})
    # Past the sends, keep stepping until the slowest possible drain ends.
    instants += [instants[-1] + k * 130_000 for k in range(1, 70)]
    for now in instants:
        for which, switch in enumerate(switches):
            for tag, (t, src, dst, payload) in enumerate(sends):
                if t != now:
                    continue
                src, dst = src % num_hosts, dst % num_hosts
                key = FlowKey(switch.host_ip(src), 1, switch.host_ip(dst), 2)
                switch.port(src).send(
                    FabricPacket("data", key, offset=tag, payload_bytes=payload),
                    now,
                )
            due = switch.advance(now)
            assert due == {
                host for host in range(num_hosts)
                if switch._delivery[host] and switch._delivery[host][0][0] <= now
            }
            for host in sorted(due):
                polled[which] += [
                    (now, host, packet.offset, packet.ce)
                    for packet in switch.port(host).poll(now)
                ]
        heap, scan = switches
        assert heap.next_event_ps() == scan.next_event_ps()
    heap, scan = switches
    assert heap.log == scan.log
    assert polled[0] == polled[1]
    assert not heap._events and not any(scan.waiting)
    for name in ("forwarded", "dropped", "drops_per_port", "ecn_marked",
                 "peak_buffer_bytes", "buffer_used"):
        assert getattr(heap, name) == getattr(scan, name), name
