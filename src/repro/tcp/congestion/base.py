"""Congestion-control interface shared by the FPU and the reference sim.

F4T's versatility claim (§4.5, §5.4) is that *any* algorithm — even one
whose FPU pipeline is 68 cycles deep, like Vegas with its integer
divisions — runs at full event rate.  Each algorithm therefore declares
its ``fpu_latency_cycles``, taken from the paper: NewReno 14, CUBIC 41,
Vegas 68.

Times are integer picoseconds, the engine clock's unit: ``now_ps`` is
the instant of the pass and ``rtt_ps`` an RTT sample.  An algorithm may
turn a *duration* into float seconds inside its own math; the state it
keeps in ``tcb.cc`` stays integer.

The hooks take *aggregate* inputs (bytes newly acknowledged, not
individual ACKs) because the FPU processes accumulated events all at once
(§4.2.2); the reference simulator uses the same hooks per-ACK, and the
accumulation-equivalence property tests check the two agree.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Type

from ..tcb import Tcb
from ..seq import seq_ge, seq_sub


class CongestionControl(abc.ABC):
    """Base class: slow start / fast recovery framework + algorithm hooks."""

    #: Registry key, e.g. "newreno".
    name: str = "base"
    #: Depth of the synthesized FPU pipeline for this algorithm (§5.4).
    fpu_latency_cycles: int = 1

    # ------------------------------------------------------------ set-up
    def on_init(self, tcb: Tcb, now_ps: int) -> None:
        """Initialize cwnd/ssthresh and algorithm scratch state."""
        tcb.cwnd = 10 * tcb.mss  # RFC 6928 initial window
        tcb.ssthresh = 1 << 30
        tcb.dupacks = 0
        tcb.in_recovery = False
        tcb.cc.clear()

    # ----------------------------------------------------------- ACK path
    def on_ack(
        self,
        tcb: Tcb,
        acked_bytes: int,
        now_ps: int,
        rtt_ps: Optional[int] = None,
    ) -> bool:
        """A cumulative ACK advanced ``snd_una`` by ``acked_bytes``.

        Returns True when the FPU should retransmit the first unacked
        segment (a NewReno partial ACK during recovery).
        """
        if acked_bytes <= 0:
            return False
        tcb.dupacks = 0
        if tcb.in_recovery:
            if seq_ge(tcb.snd_una, tcb.recover):
                self._exit_recovery(tcb, now_ps)
                return False
            return self._on_partial_ack(tcb, acked_bytes, now_ps)
        if tcb.cwnd < tcb.ssthresh:
            self._slow_start(tcb, acked_bytes, now_ps)
        else:
            self._congestion_avoidance(tcb, acked_bytes, now_ps, rtt_ps)
        return False

    def _slow_start(self, tcb: Tcb, acked_bytes: int, now_ps: int) -> None:
        """RFC 3465 appropriate byte counting with L = 2*SMSS."""
        tcb.cwnd += min(acked_bytes, 2 * tcb.mss)

    @abc.abstractmethod
    def _congestion_avoidance(
        self,
        tcb: Tcb,
        acked_bytes: int,
        now_ps: int,
        rtt_ps: Optional[int],
    ) -> None:
        """Grow cwnd past ssthresh; the algorithm-defining hook."""

    # ---------------------------------------------------------- loss path
    def on_dupacks(self, tcb: Tcb, new_dupacks: int, now_ps: int) -> bool:
        """Duplicate ACKs arrived; returns True to fast-retransmit."""
        if new_dupacks <= 0:
            return False
        already_in = tcb.in_recovery
        tcb.dupacks += new_dupacks
        if tcb.in_recovery:
            # Window inflation for each dupACK beyond the trigger.
            tcb.cwnd += new_dupacks * tcb.mss
            return False
        if tcb.dupacks >= 3:
            self._enter_recovery(tcb, now_ps)
            return not already_in
        return False

    def _enter_recovery(self, tcb: Tcb, now_ps: int) -> None:
        flight = tcb.bytes_in_flight
        # Algorithm bookkeeping first: CUBIC must capture w_max from the
        # *pre-decrease* window.
        self.on_loss_event(tcb, now_ps)
        tcb.ssthresh = self.ssthresh_after_loss(tcb, flight)
        tcb.cwnd = tcb.ssthresh + 3 * tcb.mss
        tcb.recover = tcb.snd_nxt
        tcb.in_recovery = True

    def _on_partial_ack(self, tcb: Tcb, acked_bytes: int, now_ps: int) -> bool:
        """NewReno partial ACK: deflate, retransmit next hole (RFC 6582)."""
        tcb.cwnd = max(tcb.mss, tcb.cwnd - acked_bytes + tcb.mss)
        return True

    def _exit_recovery(self, tcb: Tcb, now_ps: int) -> None:
        """Full ACK: deflate the window back to ssthresh (RFC 6582)."""
        tcb.cwnd = min(
            tcb.ssthresh, max(tcb.bytes_in_flight + tcb.mss, 2 * tcb.mss)
        )
        tcb.in_recovery = False
        tcb.dupacks = 0

    def on_timeout(self, tcb: Tcb, now_ps: int) -> None:
        """Retransmission timeout: collapse to one segment (RFC 5681)."""
        flight = tcb.bytes_in_flight
        self.on_loss_event(tcb, now_ps)  # pre-decrease bookkeeping
        tcb.ssthresh = self.ssthresh_after_loss(tcb, flight)
        tcb.cwnd = tcb.mss
        tcb.in_recovery = False
        tcb.dupacks = 0

    # ------------------------------------------------- algorithm overrides
    def ssthresh_after_loss(self, tcb: Tcb, flight: int) -> int:
        """Multiplicative decrease target; Reno halves (RFC 5681)."""
        return max(flight // 2, 2 * tcb.mss)

    def on_loss_event(self, tcb: Tcb, now_ps: int) -> None:
        """Extra algorithm bookkeeping on any loss (CUBIC epoch reset)."""

    def on_rtt_sample(self, tcb: Tcb, rtt_ps: int, now_ps: int) -> None:
        """Per-RTT-sample hook (Vegas baseRTT tracking)."""


_REGISTRY: Dict[str, Type[CongestionControl]] = {}


def register(cls: Type[CongestionControl]) -> Type[CongestionControl]:
    """Class decorator adding an algorithm to the lookup registry."""
    _REGISTRY[cls.name] = cls
    return cls


def get_algorithm(name: str) -> CongestionControl:
    """Instantiate a registered algorithm by name (e.g. 'cubic')."""
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown congestion algorithm {name!r}; known: {known}")


def available_algorithms() -> Dict[str, Type[CongestionControl]]:
    return dict(_REGISTRY)
