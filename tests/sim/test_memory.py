"""Flow-state memories: the FPC's CAM over its TCB and event tables
(§4.2.3, §4.4.2), and the DRAM/HBM channel model: timing,
serialization, functional store."""

import pytest

from repro.engine.baseline import NullFpu
from repro.engine.fpc import FlowProcessingCore
from repro.engine.memory_manager import MemoryManager
from repro.sim.memory import DRAMModel
from repro.tcp.tcb import Tcb


def make_fpc(slots):
    return FlowProcessingCore(0, slots=slots, fpu=NullFpu(14))


class TestCAM:
    """The FPC's CAM: a flow binds a slot on accept and frees it on
    release; slots go lowest first, and a freed slot is the next one
    handed out."""

    def test_insert_lookup_remove(self):
        fpc = make_fpc(slots=4)
        fpc.accept_tcb(Tcb(flow_id=7))
        assert fpc.peek_tcb(7).flow_id == 7
        assert fpc.release(7) == 0  # the lowest slot
        assert fpc.peek_tcb(7) is None
        assert 7 not in fpc.resident_flows()

    def test_slots_are_recycled(self):
        fpc = make_fpc(slots=4)
        for flow_id in (0, 1, 2):
            fpc.accept_tcb(Tcb(flow_id=flow_id))
        freed = fpc.release(1)
        assert freed == 1
        fpc.accept_tcb(Tcb(flow_id=9))
        fpc.accept_tcb(Tcb(flow_id=10))
        # The freed slot is reused first, then the lowest never used.
        assert (fpc.release(9), fpc.release(10), fpc.release(0)) == (freed, 3, 0)

    def test_full(self):
        fpc = make_fpc(slots=1)
        fpc.accept_tcb(Tcb(flow_id=1))
        assert fpc.flow_count == fpc.slots
        with pytest.raises(OverflowError):
            fpc.accept_tcb(Tcb(flow_id=2))
        assert fpc.resident_flows() == [1]

    def test_duplicate_insert_rejected(self):
        fpc = make_fpc(slots=2)
        first = Tcb(flow_id=5)
        fpc.accept_tcb(first)
        with pytest.raises(KeyError):
            fpc.accept_tcb(Tcb(flow_id=5))
        assert fpc.peek_tcb(5) is first and fpc.flow_count == 1

    def test_lookup_miss_raises_but_try_lookup_does_not(self):
        """A miss on a strict lookup (swap-in's ``take`` of a flow the
        memory manager does not hold) raises; the probes answer None
        or False and change nothing."""
        manager = MemoryManager(DRAMModel.hbm())
        with pytest.raises(KeyError):
            manager.take(404)
        assert manager.peek_tcb(404) is None
        fpc = make_fpc(slots=2)
        fpc.accept_tcb(Tcb(flow_id=1))
        assert fpc.peek_tcb(404) is None
        assert fpc.release(404) is None
        assert fpc.request_evict(404) is False
        assert fpc.resident_flows() == [1]

    def test_keys_and_len(self):
        fpc = make_fpc(slots=4)
        fpc.accept_tcb(Tcb(flow_id=3))
        fpc.accept_tcb(Tcb(flow_id=8))
        assert sorted(fpc.resident_flows()) == [3, 8]
        assert fpc.flow_count == 2


class TestDRAMModel:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            DRAMModel(0)

    def test_transfer_time_includes_bandwidth_and_latency(self):
        dram = DRAMModel(1e9, latency_ns=100.0)  # 1 GB/s
        done = dram.transfer(1000, now_ps=0.0)
        # 1000 B / 1 GB/s = 1 us occupancy + 100 ns latency.
        assert done == pytest.approx(1_000_000 + 100_000)

    def test_channel_serializes_requests(self):
        dram = DRAMModel(1e9)
        dram.transfer(1000, now_ps=0.0)
        second_done = dram.transfer(1000, now_ps=0.0)
        assert second_done >= 2_000_000

    def test_per_request_overhead_dominates_small_transfers(self):
        """Random 128 B TCB accesses on DDR4 pay the row-activation
        overhead — the mechanism behind Fig 13's throttling."""
        ddr = DRAMModel.ddr4()
        before = ddr.busy_until_ps
        ddr.transfer(128, now_ps=0.0)
        occupancy = ddr.busy_until_ps - before
        pure_bandwidth_ps = 128 / ddr.bandwidth_bytes_per_s * 1e12
        assert occupancy > 5 * pure_bandwidth_ps

    def test_hbm_much_faster_for_tcb_traffic(self):
        ddr = DRAMModel.ddr4()
        hbm = DRAMModel.hbm()
        for _ in range(100):
            ddr.transfer(128, 0.0)
            hbm.transfer(128, 0.0)
        assert hbm.busy_until_ps < ddr.busy_until_ps / 5

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            DRAMModel(1e9).transfer(-1, 0.0)
