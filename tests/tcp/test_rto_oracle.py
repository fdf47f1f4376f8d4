"""The integer-ps RTO estimator against the float RFC 6298 oracle."""

from hypothesis import given, settings, strategies as st

from repro.tcp.tcb import Tcb
from repro.tcp.timers import K, MAX_RTO_PS, MIN_RTO_PS, backoff_rto, update_rtt

from . import _rto_oracle as oracle

#: How far the integer RTO may sit from the oracle's, in ps.
#:
#: The integer estimator floors SRTT and RTTVAR to a whole ps on every
#: update; the oracle keeps them real.  Write e_s and e_v for the
#: integer values minus the real ones.  The first sample sets SRTT
#: exactly and RTTVAR with e_v in (-1/2, 0].  After that,
#:
#: * SRTT: e_s' = 7/8 e_s - f with the floor's loss f in [0, 7/8], so
#:   e_s stays in (-7, 0] (the sum of 7/8 (7/8)^k);
#: * RTTVAR: e_v' = 3/4 e_v + 1/4 d - f with |d| <= |e_s| < 7 (the two
#:   ``|srtt - sample|`` differ by at most the SRTT error) and f in
#:   [0, 3/4], so e_v stays in (-10, 7).
#:
#: The RTO, SRTT + 4 RTTVAR, is then off by less than 7 + 4 * 10 = 47
#: ps, and the clamp to [MIN_RTO, MAX_RTO] only brings the two closer.
#: The oracle's own float rounding is below 1e-3 ps at these
#: magnitudes (samples up to 100 ms = 1e11 ps, 53-bit mantissas).
RTO_BOUND_PS = 47

#: 1 ns to 100 ms, in ps.
SAMPLES_PS = st.integers(min_value=10**3, max_value=10**11)


@settings(max_examples=200)
@given(samples=st.lists(SAMPLES_PS, min_size=1, max_size=60))
def test_integer_rto_tracks_the_float_oracle(samples):
    tcb, reference = Tcb(flow_id=0), oracle.FloatRto()
    for sample_ps in samples:
        update_rtt(tcb, sample_ps)
        oracle.update_rtt(reference, sample_ps / 1e12)
        assert abs(tcb.rto - reference.rto * 1e12) <= RTO_BOUND_PS
        # Clamped at MIN_RTO with the bound to spare, the integer
        # estimator is clamped too, and the two are equal: 10 ms is a
        # whole number of ps, and 0.01 s * 1e12 is exactly 1e10.
        unclamped_ps = (reference.srtt + K * reference.rttvar) * 1e12
        if unclamped_ps + RTO_BOUND_PS <= MIN_RTO_PS:
            assert tcb.rto == reference.rto * 1e12 == MIN_RTO_PS


@given(samples=st.lists(SAMPLES_PS, min_size=1, max_size=20))
def test_backoff_from_the_clamp_matches_the_oracle_exactly(samples):
    """From equal RTOs, doubling and the MAX_RTO cap agree exactly."""
    tcb, reference = Tcb(flow_id=0), oracle.FloatRto()
    for sample_ps in samples:
        update_rtt(tcb, sample_ps)
        oracle.update_rtt(reference, sample_ps / 1e12)
    tcb.rto, reference.rto = MIN_RTO_PS, oracle.MIN_RTO_S
    for _ in range(14):  # 10 ms doubles past 60 s after 13
        backoff_rto(tcb)
        oracle.backoff_rto(reference)
        assert tcb.rto == reference.rto * 1e12
        assert tcb.rto_backoff == reference.rto_backoff
    assert tcb.rto == MAX_RTO_PS
