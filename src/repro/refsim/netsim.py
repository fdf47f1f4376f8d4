"""An independent NS3-like TCP congestion simulator (Fig 14's reference).

The paper validates FtEngine's congestion-control behaviour by comparing
its congestion-window trace against NS3.  We stand in for NS3 with a
small, *independent* packet-level simulator: the NewReno and CUBIC
implementations below are written directly from RFC 5681/6582 and
RFC 8312 and deliberately share no code with
:mod:`repro.tcp.congestion`, so a trace match between the two is
evidence about F4T's accumulated-event processing, not an artifact of
shared code.

Model: one sender with unlimited data, a bottleneck link (rate + fixed
one-way delay, unbounded queue), a receiver that ACKs every segment, and
fault injection that drops chosen data-packet indices.

The congestion logic shares no code with :mod:`repro.tcp.congestion`,
but sequence-space *comparisons* go through :mod:`repro.tcp.seq` (pure
modular arithmetic, not engine logic) so they stay correct past the
2^32 wrap, per the repo's F4T003 hygiene rule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, ClassVar, List, Optional, Set, Tuple

from ..tcp.seq import seq_ge, seq_gt, seq_lt


@dataclass
class CwndTrace:
    """Congestion window over time."""

    times_s: List[float] = field(default_factory=list)
    cwnd_bytes: List[int] = field(default_factory=list)

    def record(self, now_s: float, cwnd: int) -> None:
        self.times_s.append(now_s)
        self.cwnd_bytes.append(cwnd)

    def sample_at(self, t: float) -> int:
        """Step-function sample of the trace at time ``t``."""
        if not self.times_s:
            raise ValueError("empty trace")
        value = self.cwnd_bytes[0]
        for time, cwnd in zip(self.times_s, self.cwnd_bytes):
            if time > t:
                break
            value = cwnd
        return value

    def resampled(self, times: List[float]) -> List[int]:
        return [self.sample_at(t) for t in times]


class _RefNewReno:
    """RFC 5681 + RFC 6582, written independently for the reference."""

    def __init__(self, mss: int) -> None:
        self.mss = mss
        self.cwnd = 10 * mss
        self.ssthresh = 1 << 30
        self.dupacks = 0
        self.recover = 0
        self.in_recovery = False
        self._partial_bytes = 0

    def on_new_ack(self, acked_bytes: int, snd_una: int, snd_nxt: int) -> bool:
        """Returns True if the sender should retransmit (partial ACK)."""
        self.dupacks = 0
        if self.in_recovery:
            if seq_ge(snd_una, self.recover):
                # Full ACK: deflate (RFC 6582 step 1).
                self.cwnd = min(self.ssthresh, max(snd_nxt - snd_una, self.mss) + self.mss)
                self.in_recovery = False
                return False
            # Partial ACK: retransmit next hole, deflate partially.
            self.cwnd = max(self.mss, self.cwnd - acked_bytes + self.mss)
            return True
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked_bytes, 2 * self.mss)
        else:
            self._partial_bytes += acked_bytes
            while self._partial_bytes >= self.cwnd:
                self._partial_bytes -= self.cwnd
                self.cwnd += self.mss
        return False

    def on_dupack(self, flight: int) -> bool:
        """Returns True to fast-retransmit (third dupACK)."""
        if self.in_recovery:
            self.cwnd += self.mss
            return False
        self.dupacks += 1
        if self.dupacks == 3:
            self.ssthresh = max(flight // 2, 2 * self.mss)
            self.cwnd = self.ssthresh + 3 * self.mss
            self.in_recovery = True
            return True
        return False

    def on_timeout(self, flight: int) -> None:
        self.ssthresh = max(flight // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_recovery = False
        self.dupacks = 0

    def set_recover(self, snd_nxt: int) -> None:
        self.recover = snd_nxt


class _RefCubic(_RefNewReno):
    """RFC 8312 window growth on top of the NewReno recovery skeleton."""

    C = 0.4
    BETA = 0.7

    def __init__(self, mss: int) -> None:
        super().__init__(mss)
        self.w_max = 0.0
        self.k = 0.0
        self.epoch_start: Optional[float] = None
        self.w_est = 0.0
        self.ack_bytes = 0
        self.now_s = 0.0
        self.rtt_s = 0.1

    def on_new_ack(self, acked_bytes: int, snd_una: int, snd_nxt: int) -> bool:
        self.dupacks = 0
        if self.in_recovery:
            if seq_ge(snd_una, self.recover):
                self.cwnd = min(self.ssthresh, max(snd_nxt - snd_una, self.mss) + self.mss)
                self.in_recovery = False
                return False
            self.cwnd = max(self.mss, self.cwnd - acked_bytes + self.mss)
            return True
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked_bytes, 2 * self.mss)
            return False
        # Congestion avoidance: cubic growth toward W_max and beyond.
        if self.epoch_start is None:
            self.epoch_start = self.now_s
            if self.w_max <= self.cwnd:
                self.w_max = float(self.cwnd)
                self.k = 0.0
            else:
                self.k = ((self.w_max / self.mss) * (1 - self.BETA) / self.C) ** (1 / 3)
            self.w_est = float(self.cwnd)
            self.ack_bytes = 0
        t = self.now_s - self.epoch_start + self.rtt_s
        w_cubic = (
            self.C * (t - self.k) ** 3 + self.w_max / self.mss
        ) * self.mss
        # TCP-friendly region.
        self.ack_bytes += acked_bytes
        alpha = 3 * (1 - self.BETA) / (1 + self.BETA)
        while self.w_est > 0 and self.ack_bytes >= self.w_est:
            self.ack_bytes -= int(self.w_est)
            self.w_est += alpha * self.mss
        target = max(w_cubic, self.w_est)
        if target > self.cwnd:
            self.cwnd = min(int(target), self.cwnd + 2 * self.mss)
        return False

    def _multiplicative_decrease(self, flight: int) -> None:
        self.w_max = float(self.cwnd)
        self.ssthresh = max(int(self.cwnd * self.BETA), 2 * self.mss)
        self.epoch_start = None

    def on_dupack(self, flight: int) -> bool:
        if self.in_recovery:
            self.cwnd += self.mss
            return False
        self.dupacks += 1
        if self.dupacks == 3:
            self._multiplicative_decrease(flight)
            self.cwnd = self.ssthresh + 3 * self.mss
            self.in_recovery = True
            return True
        return False

    def on_timeout(self, flight: int) -> None:
        self._multiplicative_decrease(flight)
        self.cwnd = self.mss
        self.in_recovery = False
        self.dupacks = 0


class _RefVegas(_RefNewReno):
    """Brakmo & Peterson '95, written independently for the reference.

    Delay-based: once per RTT epoch, compare expected and actual
    throughput via baseRTT and adjust by one MSS (alpha=2, beta=4).
    """

    ALPHA = 2
    BETA = 4

    def __init__(self, mss: int) -> None:
        super().__init__(mss)
        self.base_rtt = float("inf")
        self.min_rtt = float("inf")
        self.epoch_end = 0

    def observe_rtt(self, rtt_s: float) -> None:
        self.base_rtt = min(self.base_rtt, rtt_s)
        self.min_rtt = min(self.min_rtt, rtt_s)

    def on_new_ack(self, acked_bytes: int, snd_una: int, snd_nxt: int) -> bool:
        retransmit = super().on_new_ack(acked_bytes, snd_una, snd_nxt)
        if self.in_recovery or seq_lt(snd_una, self.epoch_end):
            return retransmit
        # One decision per epoch (per RTT worth of data).
        self.epoch_end = snd_nxt
        base, observed = self.base_rtt, self.min_rtt
        self.min_rtt = float("inf")
        if base == float("inf") or observed == float("inf") or observed <= 0:
            return retransmit
        if self.cwnd >= self.ssthresh:  # only in congestion avoidance
            diff_segments = self.cwnd * (1 - base / observed) / self.mss
            # Undo Reno's additive increase; Vegas decides alone.
            if diff_segments < self.ALPHA:
                self.cwnd += self.mss
            elif diff_segments > self.BETA:
                self.cwnd = max(2 * self.mss, self.cwnd - self.mss)
        return retransmit


@dataclass
class ReferenceTcpSimulation:
    """Single-flow bulk transfer with injected drops; records cwnd(t)."""

    algorithm: str = "newreno"
    link_gbps: float = 10.0
    one_way_delay_ms: float = 0.5
    mss: ClassVar[int] = 1460
    duration_s: float = 2.0
    #: Drop predicate on data-packet index.
    drop_fn: Optional[Callable[[int], bool]] = None
    rto_s: float = 0.2
    #: Send-buffer cap on bytes in flight (F4T's evaluation uses 512 KB
    #: TCP buffers, §5).
    max_flight_bytes: ClassVar[int] = 512 * 1024

    def run(self) -> CwndTrace:
        mss = self.mss
        if self.algorithm == "newreno":
            cc: _RefNewReno = _RefNewReno(mss)
        elif self.algorithm == "cubic":
            cc = _RefCubic(mss)
        elif self.algorithm == "vegas":
            cc = _RefVegas(mss)
        else:
            raise ValueError(f"unknown reference algorithm {self.algorithm!r}")
        drop = self.drop_fn or (lambda index: False)

        bytes_per_s = self.link_gbps * 1e9 / 8
        delay = self.one_way_delay_ms / 1e3
        # Match the wire model: headers + Ethernet framing on each packet.
        tx_time = (mss + 78) / bytes_per_s

        trace = CwndTrace()
        trace.record(0.0, cc.cwnd)

        # Sender state (byte counters; no wraparound needed here).
        snd_una = 0
        snd_nxt = 0
        packet_index = 0
        link_free_at = 0.0
        rto_deadline = self.rto_s
        # Receiver state.
        rcv_nxt = 0
        ooo: Set[int] = set()  # out-of-order segment start offsets

        # Event heap: (time, seq, kind, payload) where kind is
        # 'rx' (segment reaches receiver) or 'ack' (ack reaches sender).
        events: List[Tuple[float, int, str, int]] = []
        counter = 0
        now = 0.0

        def send_segments(start_override: Optional[int] = None) -> None:
            nonlocal snd_nxt, packet_index, link_free_at, counter, rto_deadline
            if start_override is not None:
                starts = [start_override]
            else:
                starts = []
                limit = min(cc.cwnd, self.max_flight_bytes)
                while snd_nxt - snd_una < limit:
                    starts.append(snd_nxt)
                    snd_nxt += mss
            for start in starts:
                depart = max(now, link_free_at) + tx_time
                link_free_at = depart
                index = packet_index
                packet_index += 1
                if not drop(index):
                    heapq.heappush(events, (depart + delay, counter, "rx", start))
                    counter += 1
            if starts:
                rto_deadline = now + self.rto_s

        send_segments()
        last_ack_sent = -1

        while now < self.duration_s:
            if not events:
                # Everything in flight was dropped: retransmission timeout.
                now = rto_deadline
                if now >= self.duration_s:
                    break
                cc.on_timeout(snd_nxt - snd_una)
                trace.record(now, cc.cwnd)
                snd_nxt = snd_una
                send_segments()
                continue
            if rto_deadline < events[0][0] and seq_gt(snd_nxt, snd_una):
                # Timer fires before the next packet event.
                now = rto_deadline
                if now >= self.duration_s:
                    break
                cc.on_timeout(snd_nxt - snd_una)
                trace.record(now, cc.cwnd)
                snd_nxt = snd_una
                ooo.clear()
                send_segments()
                continue
            now, _, kind, value = heapq.heappop(events)
            if now >= self.duration_s:
                break
            if kind == "rx":
                # Receiver: cumulative ACK with reassembly.
                if value == rcv_nxt:
                    rcv_nxt += mss
                    while rcv_nxt in ooo:
                        ooo.discard(rcv_nxt)
                        rcv_nxt += mss
                elif seq_gt(value, rcv_nxt):
                    ooo.add(value)
                heapq.heappush(events, (now + delay, counter, "ack", rcv_nxt))
                counter += 1
            else:  # ack at sender
                ack = value
                if seq_gt(ack, snd_una):
                    acked = ack - snd_una
                    snd_una = ack
                    rto_deadline = now + self.rto_s
                    # Feed time/RTT models: CUBIC's clock and Vegas'
                    # baseRTT.  The RTT estimate is propagation plus the
                    # serialization (queueing) delay of the in-flight data.
                    if hasattr(cc, "now_s"):
                        cc.now_s = now
                        cc.rtt_s = 2 * delay + tx_time
                    if hasattr(cc, "observe_rtt"):
                        queue_delay = (snd_nxt - snd_una) / bytes_per_s
                        cc.observe_rtt(2 * delay + tx_time + queue_delay)
                    retransmit = cc.on_new_ack(acked, snd_una, snd_nxt)
                    trace.record(now, cc.cwnd)
                    if retransmit:
                        send_segments(start_override=snd_una)
                    send_segments()
                elif ack == snd_una and seq_gt(snd_nxt, snd_una):
                    if cc.on_dupack(snd_nxt - snd_una):
                        cc.set_recover(snd_nxt)
                        send_segments(start_override=snd_una)
                    trace.record(now, cc.cwnd)
                    send_segments()
        return trace
