"""Comparison designs (w-RMW, w/o-RMW) and the resource model."""

import pytest

from repro.engine.baseline import NullFpu, StallingAccelerator
from repro.engine.events import EventKind, TcpEvent
from repro.engine.resources import (
    FPC_COST,
    ftengine_cost,
    infrastructure_cost,
    utilization_table,
)
from repro.tcp.tcb import Tcb


def events_per_second(accel):
    return accel.events_processed * accel.freq_hz / accel.cycle


def saturate(accel, cycles):
    for i in range(cycles):
        if not accel.input.full:
            accel.offer_event(TcpEvent(EventKind.USER_REQ, 0, req=i))
        accel.tick()
    return accel


class TestStallingAccelerator:
    def test_rate_is_frequency_over_stall(self):
        accel = saturate(StallingAccelerator(stall_cycles=17, freq_hz=250e6), 17_000)
        assert events_per_second(accel) == pytest.approx(250e6 / 17, rel=0.01)

    def test_limago_configuration(self):
        """The Fig 2 baseline: 322 MHz, 17 cycles per event [44]."""
        accel = saturate(StallingAccelerator(17, freq_hz=322e6), 17_000)
        assert events_per_second(accel) == pytest.approx(18.9e6, rel=0.02)

    def test_rejects_zero_stall(self):
        with pytest.raises(ValueError):
            StallingAccelerator(stall_cycles=0)

    def test_idle_when_starved(self):
        accel = StallingAccelerator(17)
        accel.tick()
        assert accel.events_processed == 0
        assert not accel.input

    def test_stall_of_one_is_one_event_per_cycle(self):
        """w/o-RMW: no stall at 100 MHz, the TONIC-like design."""
        accel = saturate(StallingAccelerator(1, freq_hz=100e6), 5000)
        assert accel.events_processed == 5000
        assert events_per_second(accel) == pytest.approx(100e6)

    def test_tonic_vs_limago_gap(self):
        """Fig 2's w/o-RMW vs w-RMW gap at equal request sizes."""
        tonic = saturate(StallingAccelerator(1, freq_hz=100e6), 10_000)
        limago = saturate(StallingAccelerator(17, freq_hz=322e6), 10_000)
        assert events_per_second(tonic) > 5 * events_per_second(limago)


class TestNullFpu:
    def test_latency_override(self):
        assert NullFpu(41).latency_cycles == 41

    def test_process_is_a_noop(self):
        fpu = NullFpu(5)
        tcb = Tcb(flow_id=1, req=100)
        result = fpu.process(tcb, 0, 0.0)
        assert result.directives == []
        assert tcb.req == 100


class TestResourceModel:
    def test_fig7b_one_fpc(self):
        lut, ff, bram = ftengine_cost(1).utilization()
        assert lut == pytest.approx(16.0, abs=1.0)
        assert ff == pytest.approx(11.0, abs=1.0)
        assert bram == pytest.approx(27.0, abs=1.5)

    def test_fig7b_eight_fpcs(self):
        lut, ff, bram = ftengine_cost(8).utilization()
        assert lut == pytest.approx(23.0, abs=1.0)
        assert ff == pytest.approx(15.0, abs=1.0)
        assert bram == pytest.approx(32.0, abs=1.5)

    def test_cost_scales_linearly_in_fpcs(self):
        delta = ftengine_cost(5).lut - ftengine_cost(4).lut
        assert delta == FPC_COST.lut

    def test_infrastructure_is_the_intercept(self):
        assert ftengine_cost(1).lut == infrastructure_cost().lut + FPC_COST.lut

    def test_rejects_zero_fpcs(self):
        with pytest.raises(ValueError):
            ftengine_cost(0)

    def test_utilization_table_shape(self):
        rows = utilization_table([1, 8])
        designs = [row["design"] for row in rows]
        assert designs[0] == "FtEngine (1 FPC)"
        assert designs[1] == "FtEngine (8 FPCs)"
        assert any("scheduler" in d for d in designs)
        assert any("rx parser" in d for d in designs)

    def test_remaining_logic_for_extensions(self):
        """§4.7: the remaining logic can host more FPCs or functions."""
        lut, ff, bram = ftengine_cost(8).utilization()
        assert max(lut, ff, bram) < 50.0
