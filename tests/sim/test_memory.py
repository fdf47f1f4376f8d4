"""Memory models: BRAM, DRAM/HBM channel timing, CAM, partitioned LUT."""

import pytest

from repro.sim.memory import CAM, DRAMModel, DualPortSRAM, PartitionedLUT


class TestDualPortSRAM:
    def test_read_write(self):
        sram = DualPortSRAM(8)
        sram.write(3, "tcb")
        assert sram.read(3) == "tcb"
        assert sram.read(0) is None

    def test_bounds_checked(self):
        sram = DualPortSRAM(4)
        with pytest.raises(IndexError):
            sram.read(4)
        with pytest.raises(IndexError):
            sram.write(-1, "x")

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            DualPortSRAM(0)

    def test_clear(self):
        sram = DualPortSRAM(2)
        sram.write(1, "x")
        sram.clear(1)
        assert sram.read(1) is None

    def test_per_cycle_access_tracking(self):
        """The FPC's static schedule keeps accesses within the port
        budget; the model records the peak of the cycle-stamped reads so
        tests can assert it."""
        sram = DualPortSRAM(4)
        sram.read(0, cycle=7)
        sram.write(1, "a")
        sram.read(2, cycle=7)
        sram.read(3, cycle=8)
        assert sram.max_accesses_per_cycle == 2
        assert sram.reads == 3 and sram.writes == 1


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

    def test_functional_store(self):
        dram = DRAMModel(1e9)
        dram.store(42, "tcb")
        assert dram.load(42) == "tcb"
        assert dram.load(43) is None

    def test_utilization(self):
        dram = DRAMModel(1e9)
        dram.transfer(500, 0.0)
        assert 0 < dram.utilization(1e9) <= 1.0
        assert dram.utilization(0) == 0.0


class TestCAM:
    def test_insert_lookup_remove(self):
        cam = CAM(4)
        slot = cam.insert("flow7")
        assert cam.lookup("flow7") == slot
        assert cam.remove("flow7") == slot
        assert "flow7" not in cam

    def test_slots_are_recycled(self):
        cam = CAM(2)
        a = cam.insert("a")
        cam.insert("b")
        cam.remove("a")
        assert cam.insert("c") == a  # freed slot reused

    def test_full(self):
        cam = CAM(1)
        cam.insert("a")
        assert cam.full
        with pytest.raises(OverflowError):
            cam.insert("b")

    def test_duplicate_insert_rejected(self):
        cam = CAM(2)
        cam.insert("a")
        with pytest.raises(KeyError):
            cam.insert("a")

    def test_lookup_miss_raises_but_try_lookup_does_not(self):
        cam = CAM(2)
        with pytest.raises(KeyError):
            cam.lookup("ghost")
        assert cam.try_lookup("ghost") is None

    def test_keys_and_len(self):
        cam = CAM(4)
        cam.insert("x")
        cam.insert("y")
        assert sorted(cam.keys()) == ["x", "y"]
        assert len(cam) == 2


class TestPartitionedLUT:
    def test_set_get_delete(self):
        lut = PartitionedLUT(4)
        lut.set(10, "fpc0")
        assert lut.get(10) == "fpc0"
        assert 10 in lut
        lut.delete(10)
        assert lut.get(10) is None

    def test_get_default(self):
        assert PartitionedLUT(2).get(5, "dram") == "dram"

    def test_partition_count_sets_routing_rate(self):
        """Eight FPCs at one event per two cycles need four partitions
        (§4.4.2)."""
        assert PartitionedLUT(4).groups == 4

    def test_len_counts_across_partitions(self):
        lut = PartitionedLUT(4)
        for key in range(100):
            lut.set(key, key)
        assert len(lut) == 100

    def test_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            PartitionedLUT(0)
