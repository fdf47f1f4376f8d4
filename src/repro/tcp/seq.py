"""Modulo-2^32 TCP sequence-number arithmetic (RFC 793 / RFC 7323).

TCP's byte-stream abstraction represents transmission state as cumulative
pointers in sequence space (§4.2.1); every comparison in the engine and
the reassembly logic must survive wraparound, so they all come through
here.
"""

from __future__ import annotations

SEQ_MOD = 1 << 32
_HALF = 1 << 31


def seq_add(seq: int, delta: int) -> int:
    """``seq + delta`` wrapped into [0, 2^32)."""
    return (seq + delta) % SEQ_MOD


def seq_sub(a: int, b: int) -> int:
    """Signed distance ``a - b`` interpreted modulo 2^32.

    The result is in (-2^31, 2^31]; positive means ``a`` is ahead of
    ``b`` in the stream.
    """
    diff = (a - b) % SEQ_MOD
    if diff > _HALF:
        diff -= SEQ_MOD
    return diff


# The comparisons are seq_sub's sign read off d = (a - b) % SEQ_MOD:
# negative when d > 2^31, zero when d == 0, positive otherwise.


def seq_lt(a: int, b: int) -> bool:
    """True when ``a`` precedes ``b`` in sequence space."""
    return (a - b) % SEQ_MOD > _HALF


def seq_le(a: int, b: int) -> bool:
    return not 0 < (a - b) % SEQ_MOD <= _HALF


def seq_gt(a: int, b: int) -> bool:
    return 0 < (a - b) % SEQ_MOD <= _HALF


def seq_ge(a: int, b: int) -> bool:
    return (a - b) % SEQ_MOD <= _HALF


def seq_max(a: int, b: int) -> int:
    """The later of two sequence numbers."""
    return a if (a - b) % SEQ_MOD <= _HALF else b


def seq_in_window(x: int, window_start: int, window_len: int) -> bool:
    """True when ``x`` falls in [window_start, window_start + window_len)."""
    if window_len <= 0:
        return False
    offset = (x - window_start) % SEQ_MOD
    return offset < window_len
