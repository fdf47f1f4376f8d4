"""Command encodings and the per-thread queue rings (§4.1.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.host.commands import (
    COMMAND_SIZE,
    COMMAND_SIZE_SIMPLIFIED,
    Command,
    Opcode,
)
from repro.host.queues import QUEUE_DEPTH, CommandQueue, QueuePair


class TestCommandEncoding:
    def test_sizes_match_paper(self):
        """16 B commands (§4.1.1), 8 B simplified (§6)."""
        cmd = Command(Opcode.SEND, flow_id=7, pointer=1300)
        assert len(cmd.encode()) == COMMAND_SIZE == 16
        assert len(cmd.encode_simplified()) == COMMAND_SIZE_SIMPLIFIED == 8

    def test_roundtrip(self):
        cmd = Command(Opcode.SEND, flow_id=123456, pointer=0xDEADBEEF, aux=42, flags=3)
        parsed = Command.decode(cmd.encode())
        assert parsed == cmd

    def test_simplified_roundtrip(self):
        cmd = Command(Opcode.RECV, flow_id=0xABCDE, pointer=0x12345678)
        parsed = Command.decode_simplified(cmd.encode_simplified())
        assert parsed.opcode is Opcode.RECV
        assert parsed.flow_id == 0xABCDE
        assert parsed.pointer == 0x12345678

    def test_simplified_flow_id_cap(self):
        with pytest.raises(ValueError):
            Command(Opcode.SEND, flow_id=1 << 24).encode_simplified()

    def test_decode_wrong_size(self):
        with pytest.raises(ValueError):
            Command.decode(b"short")
        with pytest.raises(ValueError):
            Command.decode_simplified(bytes(16))

    @given(
        opcode=st.sampled_from(list(Opcode)),
        flow_id=st.integers(min_value=0, max_value=(1 << 32) - 1),
        pointer=st.integers(min_value=0, max_value=(1 << 32) - 1),
        aux=st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_roundtrip_property(self, opcode, flow_id, pointer, aux):
        cmd = Command(opcode, flow_id, pointer, aux)
        assert Command.decode(cmd.encode()) == cmd


class TestCommandQueue:
    def test_depth_matches_paper(self):
        assert QUEUE_DEPTH == 1024  # §4.1.1

    def test_doorbell_gates_visibility(self):
        """Commands become consumer-visible only after the doorbell."""
        queue = CommandQueue()
        queue.push(Command(Opcode.SEND, 1, 100))
        assert queue.pop_batch() == []  # not yet published
        queue.ring_doorbell()
        batch = queue.pop_batch()
        assert len(batch) == 1
        assert batch[0].pointer == 100

    def test_batched_consumption(self):
        """FtEngine reads multiple commands from a queue at once (§5.1)."""
        queue = CommandQueue()
        for i in range(10):
            queue.push(Command(Opcode.SEND, 1, i))
        queue.ring_doorbell()
        assert [c.pointer for c in queue.pop_batch()] == list(range(10))

    def test_pop_limit(self):
        queue = CommandQueue()
        for i in range(10):
            queue.push(Command(Opcode.SEND, 1, i))
        queue.ring_doorbell()
        assert len(queue.pop_batch(limit=3)) == 3
        assert len(queue.pop_batch()) == 7

    def test_full_queue_stalls(self):
        queue = CommandQueue(depth=2)
        assert queue.push(Command(Opcode.SEND, 1))
        assert queue.push(Command(Opcode.SEND, 1))
        assert not queue.push(Command(Opcode.SEND, 1))
        assert queue.full_stalls == 1

    def test_incremental_doorbells(self):
        queue = CommandQueue()
        queue.push(Command(Opcode.SEND, 1, 1))
        queue.ring_doorbell()
        queue.push(Command(Opcode.SEND, 1, 2))
        assert len(queue.pop_batch()) == 1  # only the published one
        queue.ring_doorbell()
        assert len(queue.pop_batch()) == 1


class TestQueuePair:
    def test_per_thread_pair(self):
        pair = QueuePair(thread_id=3)
        assert pair.submission.name == "sq3"
        assert pair.completion.name == "cq3"
