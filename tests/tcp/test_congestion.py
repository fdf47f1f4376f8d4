"""Congestion-control algorithms: NewReno, CUBIC, Vegas."""

import pytest

from repro.tcp.congestion import (
    CongestionControl,
    Cubic,
    NewReno,
    Vegas,
    available_algorithms,
    get_algorithm,
    register,
)
from repro.sim.component import NEVER
from repro.tcp.state_machine import TcpState
from repro.tcp.tcb import Tcb

from .._records import make_tcb

MSS = 1460


def fresh_tcb(cc: CongestionControl, flight: int = 0) -> Tcb:
    tcb = make_tcb(flow_id=0, state=TcpState.ESTABLISHED)
    cc.on_init(tcb, now_ps=0)
    tcb.snd_una = 0
    tcb.snd_nxt = flight
    tcb.req = flight
    return tcb


class TestRegistry:
    def test_known_algorithms(self):
        algorithms = available_algorithms()
        assert {"newreno", "cubic", "vegas"} <= set(algorithms)

    def test_get_by_name_case_insensitive(self):
        assert isinstance(get_algorithm("CUBIC"), Cubic)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="newreno"):
            get_algorithm("bbr-ng")

    def test_user_registration(self):
        """§4.5: users add algorithms by writing only the FPU logic."""

        @register
        class FixedWindow(CongestionControl):
            name = "fixed-window-test"
            fpu_latency_cycles = 3

            def _congestion_avoidance(self, tcb, acked, now_ps, rtt_ps):
                pass  # never grows

        assert isinstance(get_algorithm("fixed-window-test"), FixedWindow)

    def test_fpu_latencies_match_paper(self):
        """§5.4: NewReno 14, CUBIC 41, Vegas 68 cycles."""
        assert NewReno.fpu_latency_cycles == 14
        assert Cubic.fpu_latency_cycles == 41
        assert Vegas.fpu_latency_cycles == 68


class TestSlowStart:
    @pytest.mark.parametrize("name", ["newreno", "cubic"])
    def test_initial_window_rfc6928(self, name):
        cc = get_algorithm(name)
        tcb = fresh_tcb(cc)
        assert tcb.cwnd == 10 * MSS

    @pytest.mark.parametrize("name", ["newreno", "cubic"])
    def test_exponential_growth(self, name):
        cc = get_algorithm(name)
        tcb = fresh_tcb(cc)
        start = tcb.cwnd
        # One RTT worth of ACKs covering the whole window.
        acked = 0
        while acked < start:
            tcb.snd_nxt = tcb.snd_una + 2 * MSS
            cc.on_ack(tcb, 2 * MSS, now_ps=10 * 10**9, rtt_ps=10**9)
            tcb.snd_una += 2 * MSS
            acked += 2 * MSS
        assert tcb.cwnd >= 2 * start * 0.9  # ~doubles per RTT

    def test_vegas_slow_start_is_half_rate(self):
        vegas, reno = get_algorithm("vegas"), get_algorithm("newreno")
        tcb_v, tcb_r = fresh_tcb(vegas), fresh_tcb(reno)
        for _ in range(10):
            tcb_v.snd_nxt = tcb_v.snd_una + 2 * MSS
            tcb_r.snd_nxt = tcb_r.snd_una + 2 * MSS
            vegas.on_ack(tcb_v, 2 * MSS, 10**10, 10**9)
            reno.on_ack(tcb_r, 2 * MSS, 10**10, 10**9)
        assert tcb_v.cwnd < tcb_r.cwnd


class TestNewReno:
    def test_congestion_avoidance_linear(self):
        cc = get_algorithm("newreno")
        tcb = fresh_tcb(cc)
        tcb.ssthresh = tcb.cwnd  # force CA
        start = tcb.cwnd
        # One full window of ACKs grows cwnd by about one MSS.
        for _ in range(start // MSS):
            cc.on_ack(tcb, MSS, now_ps=0, rtt_ps=10**9)
        assert start + MSS <= tcb.cwnd <= start + 2 * MSS

    def test_triple_dupack_halves_window(self):
        cc = get_algorithm("newreno")
        tcb = fresh_tcb(cc, flight=20 * MSS)
        retransmit = cc.on_dupacks(tcb, 3, now_ps=0)
        assert retransmit
        assert tcb.in_recovery
        assert tcb.ssthresh == 10 * MSS
        assert tcb.cwnd == 13 * MSS  # ssthresh + 3 MSS inflation

    def test_below_three_dupacks_no_reaction(self):
        cc = get_algorithm("newreno")
        tcb = fresh_tcb(cc, flight=20 * MSS)
        assert not cc.on_dupacks(tcb, 2, now_ps=0)
        assert not tcb.in_recovery

    def test_extra_dupacks_inflate(self):
        cc = get_algorithm("newreno")
        tcb = fresh_tcb(cc, flight=20 * MSS)
        cc.on_dupacks(tcb, 3, 0)
        before = tcb.cwnd
        assert not cc.on_dupacks(tcb, 2, 0)  # no second fast rtx
        assert tcb.cwnd == before + 2 * MSS

    def test_partial_ack_requests_retransmission(self):
        cc = get_algorithm("newreno")
        tcb = fresh_tcb(cc, flight=20 * MSS)
        cc.on_dupacks(tcb, 3, 0)
        assert tcb.recover == tcb.snd_nxt
        tcb.snd_una += 5 * MSS  # partial: below recover
        assert cc.on_ack(tcb, 5 * MSS, 0, None)  # -> retransmit
        assert tcb.in_recovery

    def test_full_ack_exits_recovery(self):
        cc = get_algorithm("newreno")
        tcb = fresh_tcb(cc, flight=20 * MSS)
        cc.on_dupacks(tcb, 3, 0)
        tcb.snd_una = tcb.recover
        assert not cc.on_ack(tcb, 20 * MSS, 0, None)
        assert not tcb.in_recovery
        assert tcb.cwnd <= tcb.ssthresh

    def test_timeout_collapses_to_one_segment(self):
        cc = get_algorithm("newreno")
        tcb = fresh_tcb(cc, flight=20 * MSS)
        cc.on_timeout(tcb, 0)
        assert tcb.cwnd == MSS
        assert tcb.ssthresh == 10 * MSS
        assert not tcb.in_recovery

    def test_ssthresh_floor(self):
        cc = get_algorithm("newreno")
        tcb = fresh_tcb(cc, flight=MSS)
        cc.on_timeout(tcb, 0)
        assert tcb.ssthresh == 2 * MSS


class TestCubic:
    def _drive_ca(self, cc, tcb, seconds, rtt=10**10):
        now = 0
        while now < seconds * 10**12:
            cc.on_ack(tcb, MSS, now_ps=now, rtt_ps=rtt)
            now += rtt * MSS // tcb.cwnd

    def test_beta_decrease(self):
        cc = get_algorithm("cubic")
        tcb = fresh_tcb(cc, flight=100 * MSS)
        tcb.cwnd = 100 * MSS
        cc.on_dupacks(tcb, 3, now_ps=10**12)
        assert tcb.ssthresh == int(100 * MSS * 0.7)
        assert tcb.cc["w_max"] == pytest.approx(100 * MSS)

    def test_concave_growth_toward_w_max(self):
        """After a loss, CUBIC regrows quickly at first, flattening as
        it approaches the previous maximum."""
        cc = get_algorithm("cubic")
        tcb = fresh_tcb(cc, flight=50 * MSS)
        tcb.cwnd = 200 * MSS
        cc.on_dupacks(tcb, 3, now_ps=0)
        tcb.snd_una = tcb.recover
        cc.on_ack(tcb, 50 * MSS, 0, 10**10)  # exit recovery
        early = tcb.cwnd
        self._drive_ca(cc, tcb, seconds=2.0)
        assert tcb.cwnd > early
        # It should be near (but around) the pre-loss maximum region.
        assert tcb.cwnd > 0.7 * 200 * MSS

    def test_growth_rate_is_capped_per_ack(self):
        cc = get_algorithm("cubic")
        tcb = fresh_tcb(cc)
        tcb.ssthresh = tcb.cwnd
        before = tcb.cwnd
        cc.on_ack(tcb, MSS, now_ps=10 * 10**12, rtt_ps=10 * 10**9)
        assert tcb.cwnd <= before + 2 * MSS

    def test_timeout(self):
        cc = get_algorithm("cubic")
        tcb = fresh_tcb(cc, flight=40 * MSS)
        tcb.cwnd = 40 * MSS
        cc.on_timeout(tcb, 0)
        assert tcb.cwnd == MSS
        assert tcb.cc["epoch_start"] is None


class TestVegas:
    def _epoch(self, cc, tcb, rtt):
        """Run one Vegas decision epoch at the observed RTT."""
        end = tcb.cc["epoch_end_seq"]
        tcb.snd_nxt = end + 10 * MSS
        tcb.snd_una = end
        cc.on_ack(tcb, 10 * MSS, now_ps=0, rtt_ps=rtt)

    def test_grows_when_below_alpha(self):
        cc = get_algorithm("vegas")
        tcb = fresh_tcb(cc)
        tcb.ssthresh = tcb.cwnd  # CA mode
        tcb.cc["base_rtt"] = 10**10  # baseRTT = 10 ms (prior epochs)
        before = tcb.cwnd
        self._epoch(cc, tcb, rtt=10**10)  # no queueing: diff = 0 < alpha
        assert tcb.cwnd == before + MSS

    def test_shrinks_when_above_beta(self):
        cc = get_algorithm("vegas")
        tcb = fresh_tcb(cc)
        tcb.ssthresh = tcb.cwnd
        tcb.cc["base_rtt"] = 10**10
        before = tcb.cwnd
        # Large RTT inflation: diff >> beta segments.
        self._epoch(cc, tcb, rtt=3 * 10**10)
        assert tcb.cwnd == before - MSS

    def test_holds_in_the_sweet_spot(self):
        cc = get_algorithm("vegas")
        tcb = fresh_tcb(cc)
        tcb.cwnd = 30 * MSS
        tcb.ssthresh = tcb.cwnd
        tcb.cc["base_rtt"] = 10**10
        before = tcb.cwnd
        # diff of ~3 segments: between alpha (2) and beta (4).
        # diff = cwnd * (1 - base/rtt) / mss  => rtt for diff=3:
        rtt = round(10**10 / (1 - 3 * MSS / tcb.cwnd))
        self._epoch(cc, tcb, rtt=rtt)
        assert tcb.cwnd == before

    def test_loss_resets_epoch(self):
        cc = get_algorithm("vegas")
        tcb = fresh_tcb(cc, flight=20 * MSS)
        cc.on_dupacks(tcb, 3, 0)
        assert tcb.cc["min_rtt"] == NEVER


class TestBbrLite:
    """The 'future work' extension: model-based cwnd (not in the paper)."""

    def _ack_round(self, cc, tcb, rtt, amount=10 * MSS):
        tcb.snd_nxt = tcb.snd_una + amount
        cc.on_ack(tcb, amount, now_ps=0, rtt_ps=rtt)
        tcb.snd_una = tcb.snd_nxt

    def test_registered(self):
        cc = get_algorithm("bbr-lite")
        assert cc.fpu_latency_cycles == 57

    def test_converges_to_bdp(self):
        """Steady delivery at rate R with RTT T settles cwnd near R*T."""
        cc = get_algorithm("bbr-lite")
        tcb = fresh_tcb(cc)
        rtt = 10**10
        for _ in range(40):
            self._ack_round(cc, tcb, rtt)
        bdp = (10 * MSS / rtt) * rtt  # delivered per round over one RTT
        assert 0.8 * bdp <= tcb.cwnd <= 3.0 * bdp  # within the gain band

    def test_loss_tolerant(self):
        """BBR barely reacts to an isolated loss (no halving)."""
        cc = get_algorithm("bbr-lite")
        tcb = fresh_tcb(cc)
        for _ in range(20):
            self._ack_round(cc, tcb, 10**10)
        before = tcb.cwnd
        tcb.snd_nxt = tcb.snd_una + 10 * MSS
        cc.on_dupacks(tcb, 3, now_ps=10**12)
        assert tcb.cwnd >= 0.5 * before  # gentler than Reno's 0.5 + inflation

    def test_startup_exits_on_plateau(self):
        cc = get_algorithm("bbr-lite")
        tcb = fresh_tcb(cc)
        for _ in range(30):
            self._ack_round(cc, tcb, 10**10)  # constant bandwidth
        assert not tcb.cc["in_startup"]

    def test_min_rtt_filter(self):
        cc = get_algorithm("bbr-lite")
        tcb = fresh_tcb(cc)
        self._ack_round(cc, tcb, 2 * 10**10)
        self._ack_round(cc, tcb, 5 * 10**9)
        self._ack_round(cc, tcb, 3 * 10**10)
        assert tcb.cc["min_rtt"] == 5 * 10**9
