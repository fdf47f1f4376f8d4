"""The retired float-seconds RTO estimator, kept as the integer one's oracle.

Until the TCP core moved to integer picoseconds, ``repro.tcp.timers``
kept SRTT, RTTVAR and the RTO as float seconds and folded samples in
with RFC 6298's gains as real numbers.  That code lives on here, on a
stand-in record with the same three fields, so the integer estimator
can be held against it (``test_rto_oracle.py``).
"""

from dataclasses import dataclass
from typing import Optional

MIN_RTO_S = 0.01
MAX_RTO_S = 60.0
INITIAL_RTO_S = 1.0

ALPHA = 1 / 8
BETA = 1 / 4
K = 4


@dataclass
class FloatRto:
    """The RTO state of one flow, in float seconds."""

    srtt: Optional[float] = None
    rttvar: float = 0.0
    rto: float = INITIAL_RTO_S
    rto_backoff: int = 0


def update_rtt(tcb: FloatRto, sample_s: float) -> None:
    """Fold an RTT sample into SRTT/RTTVAR and recompute the RTO."""
    if sample_s < 0:
        raise ValueError(f"negative RTT sample {sample_s}")
    if tcb.srtt is None:
        tcb.srtt = sample_s
        tcb.rttvar = sample_s / 2
    else:
        tcb.rttvar = (1 - BETA) * tcb.rttvar + BETA * abs(tcb.srtt - sample_s)
        tcb.srtt = (1 - ALPHA) * tcb.srtt + ALPHA * sample_s
    tcb.rto = min(MAX_RTO_S, max(MIN_RTO_S, tcb.srtt + K * tcb.rttvar))
    tcb.rto_backoff = 0


def backoff_rto(tcb: FloatRto) -> None:
    """Exponential backoff after a retransmission timeout."""
    tcb.rto = min(MAX_RTO_S, tcb.rto * 2)
    tcb.rto_backoff += 1
